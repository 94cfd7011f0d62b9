"""Two-sample permutation test of top vs. other universities and the
nonparametric combination of the per-discipline tests.

The partial statistic is mean(top) - mean(rest) of the maximum rank shifts
against the benchmark year. Partial tests are combined with Fisher's
function over one shared permutation stream: every iteration draws a
single random ordering of all universities, and each discipline relabels
its own members by that ordering, so universities present in several
disciplines are relabeled consistently and the dependence between the
partial tests is preserved. All p-values keep the observed labeling in
the reference distribution, hence are never 0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError

_CHUNK_VALUES = 1 << 21  # random doubles per Monte Carlo block


def max_rank_shifts(ranks: np.ndarray, bench_col: int) -> np.ndarray:
    """Largest absolute rank move of each row of ranks[row, year] vs. column bench_col."""
    return np.abs(ranks - ranks[:, bench_col, None]).max(axis=1)


def top_partition(
    scores: Mapping[str, float], percentile: float
) -> tuple[frozenset[str], frozenset[str]]:
    """Split universities at an interpolated percentile of the score distribution.

    Top = scores strictly above the boundary. Raises AnalysisError when
    either side of the split is empty (the test is undefined then).
    """
    if not (0.0 < percentile < 100.0):
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    if len(scores) < 2:
        raise AnalysisError("need at least two universities to partition")
    values = np.array([scores[u] for u in sorted(scores)])
    boundary = float(np.percentile(values, percentile, method="linear"))
    top = frozenset(u for u, s in scores.items() if s > boundary)
    rest = frozenset(scores) - top
    if not top or not rest:
        raise AnalysisError(
            f"degenerate partition at percentile {percentile}: "
            f"{len(top)} top vs {len(rest)} rest"
        )
    return top, rest


@dataclass(frozen=True)
class PermTestResult:
    scope_id: str
    observed: float  # mean(top) - mean(rest)
    p_value: float
    direction: str  # "<" when top mean is lower, ">" when higher, "=" when equal
    n_perm: int  # permutations in the reference distribution
    seed: int | None
    exhaustive: bool
    degenerate: bool = False


@dataclass(frozen=True)
class UdaGroups:
    """Input of one partial test: per-university values and the top set."""

    uda_id: str
    values: Mapping[str, float]
    top: frozenset[str]

    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self.values))

    def validate(self) -> None:
        if not self.top:
            raise AnalysisError(f"{self.uda_id}: empty top group")
        if not self.top < set(self.values):
            raise AnalysisError(f"{self.uda_id}: top group must be a proper subset of members")


@dataclass(frozen=True)
class NpcCombinedResult:
    partials: tuple[PermTestResult, ...]
    combined_statistic: float  # Fisher statistic of the observed labeling
    combined_p: float
    direction: str
    n_perm: int
    seed: int | None


def two_sample_perm_test(
    top_values: Sequence[float],
    rest_values: Sequence[float],
    n_perm: int,
    seed: int | None = None,
    scope_id: str = "",
    force_monte_carlo: bool = False,
) -> PermTestResult:
    """Two-sided permutation test of mean(top) - mean(rest).

    Relabelings are exhaustive when the number of assignments C(n, k) does
    not exceed n_perm (then p = count / total over the full enumeration,
    seed unused); otherwise n_perm uniformly random relabelings are drawn
    by the sampler of npc_fisher_combine, as a single group, and
    p = (b + 1) / (n_perm + 1). force_monte_carlo skips the automatic
    enumeration, e.g. to check the sampler against it. Identical pooled
    values short-circuit to p = 1 with the degenerate flag set.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    top = np.asarray(top_values, dtype=float)
    rest = np.asarray(rest_values, dtype=float)
    if top.size == 0 or rest.size == 0:
        raise AnalysisError("both groups must be nonempty")
    pool = np.concatenate([top, rest])
    if np.all(pool == pool[0]):
        return PermTestResult(scope_id, 0.0, 1.0, "=", 0, seed, False, degenerate=True)

    k, n = top.size, pool.size
    total = math.comb(n, k)
    if total <= n_perm and not force_monte_carlo:
        idx = _all_combinations(n, k, total)
        stats = _group_stats(pool, idx)
        t_obs = stats[0]  # first combination is (0..k-1), the observed labeling
        count = int(np.count_nonzero(np.abs(stats) >= abs(t_obs)))
        p = count / total
        return PermTestResult(scope_id, float(t_obs), p, _direction(t_obs), total, seed, True)

    positions = np.arange(n, dtype=np.intp)
    (stats,) = _sample_stats([(pool, positions[:k], positions)], n, n_perm, seed, workers=1)
    p = float(_significance_levels(np.abs(stats))[n_perm])
    t_obs = float(stats[n_perm])
    return PermTestResult(scope_id, t_obs, p, _direction(t_obs), n_perm, seed, False)


def npc_fisher_combine(
    groups: Sequence[UdaGroups],
    n_perm: int,
    seed: int | None = None,
    workers: int = 1,
) -> NpcCombinedResult:
    """Combine the per-discipline permutation tests with Fisher's function.

    Iteration b draws one random ordering of the union of all universities;
    each discipline's permuted top group is its first k members in that
    ordering, so all marginals stay uniform and overlapping disciplines are
    relabeled consistently. Each
    iteration's statistics are converted to empirical significance levels
    lambda within their own (observed-inclusive) distribution and combined
    as -2 * sum(log(lambda)); the combined p is the observed-inclusive
    fraction of iterations at or above the observed combination. n_perm
    only sets the Monte Carlo precision, never the null model.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if len(groups) < 2:
        raise AnalysisError(f"nonparametric combination needs >= 2 disciplines, got {len(groups)}")
    groups = sorted(groups, key=lambda g: g.uda_id)
    for group in groups:
        group.validate()

    universe = sorted({u for g in groups for u in g.values})
    position = {u: i for i, u in enumerate(universe)}
    prepared = [_prepared(g, position) for g in groups]
    stats = _sample_stats(prepared, len(universe), n_perm, seed, workers)

    lambdas = [_significance_levels(np.abs(s)) for s in stats]
    fisher = -2.0 * np.sum(np.log(lambdas), axis=0)
    combined_count = int(np.count_nonzero(fisher >= fisher[n_perm]))
    partials = tuple(
        PermTestResult(
            scope_id=g.uda_id,
            observed=float(stats[gi][n_perm]),
            p_value=float(lambdas[gi][n_perm]),
            direction=_direction(stats[gi][n_perm]),
            n_perm=n_perm,
            seed=seed,
            exhaustive=False,
        )
        for gi, g in enumerate(groups)
    )
    observed_sum = sum(r.observed for r in partials)
    return NpcCombinedResult(
        partials=partials,
        combined_statistic=float(fisher[n_perm]),
        combined_p=combined_count / (n_perm + 1),
        direction=_direction(observed_sum),
        n_perm=n_perm,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# internals


def _direction(t_obs: float) -> str:
    return "<" if t_obs < 0 else (">" if t_obs > 0 else "=")


def _all_combinations(n: int, k: int, total: int) -> np.ndarray:
    """(total, k) index matrix; row 0 is (0..k-1), the observed labeling."""
    flat = np.fromiter(
        (i for combo in combinations(range(n), k) for i in combo),
        dtype=np.intp,
        count=total * k,
    )
    return flat.reshape(total, k)


def _group_stats(pool: np.ndarray, top_idx: np.ndarray) -> np.ndarray:
    """mean(top) - mean(rest) for each row of top indices into pool."""
    k = top_idx.shape[-1]
    top_sum = pool[top_idx].sum(axis=-1)
    return top_sum / k - (pool.sum() - top_sum) / (pool.size - k)


def _significance_levels(abs_stats: np.ndarray) -> np.ndarray:
    """Empirical P(|T| >= t) within the given distribution, for each element."""
    ordered = np.sort(abs_stats)
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # start of each run of ties
    count_ge = abs_stats.size - first[np.searchsorted(ordered[first], abs_stats)]
    return count_ge / abs_stats.size


def _prepared(group: UdaGroups, position: Mapping[str, int]) -> tuple[np.ndarray, ...]:
    """(values, observed top positions, positions in the universe) of the sorted members."""
    members = group.members()
    values = np.array([group.values[u] for u in members], dtype=float)
    obs_idx = np.array([i for i, u in enumerate(members) if u in group.top], dtype=np.intp)
    member_pos = np.array([position[u] for u in members], dtype=np.intp)
    return values, obs_idx, member_pos


def _sample_stats(
    prepared: Sequence[tuple[np.ndarray, ...]],
    n_all: int,
    n_perm: int,
    seed: int | None,
    workers: int,
) -> list[np.ndarray]:
    """Each group's statistic under n_perm shared random orderings of the
    n_all universities, with the observed labeling at index n_perm.

    Each ordering ranks one row of uniform keys, drawn block by block in
    this thread; a group's permuted top set is its first |top| members in
    that ranking. Groups with the same members share one argsort per block,
    and each of the workers threads ranks a contiguous slice of the block's
    rows, so every row is computed as it would be in a single thread.
    """
    stats = [np.empty(n_perm + 1) for _ in prepared]
    member_sets: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for gi, (_values, _obs_idx, member_pos) in enumerate(prepared):
        member_sets.setdefault(member_pos.tobytes(), (member_pos, []))[1].append(gi)
    rng = np.random.default_rng(seed)
    done = 0

    def fill_rows(args) -> None:
        keys, start = args
        span = slice(start, start + len(keys))
        for member_pos, group_ids in member_sets.values():
            order = np.argsort(keys[:, member_pos], axis=1)
            for gi in group_ids:
                values, obs_idx, _pos = prepared[gi]
                stats[gi][span] = _group_stats(values, order[:, : obs_idx.size])

    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while done < n_perm:
            rows = min(max(1, _CHUNK_VALUES // n_all), n_perm - done)
            block_keys = rng.random((rows, n_all))
            cuts = [rows * t // workers for t in range(workers + 1)]
            tasks = [(block_keys[lo:hi], done + lo) for lo, hi in zip(cuts, cuts[1:])]
            list((executor.map if executor else map)(fill_rows, tasks))
            done += rows
    finally:
        if executor is not None:
            executor.shutdown()

    for gi, (values, obs_idx, _pos) in enumerate(prepared):
        stats[gi][n_perm] = _group_stats(values, obs_idx[None, :])[0]
    return stats
