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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .sensitivity import order_statistics

_CHUNK_VALUES = 1 << 18  # random keys per sampler task: 2 MiB, a core's L2 on a 2-core Xeon


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
    check_percentile(percentile)
    if len(scores) < 2:
        raise AnalysisError("need at least two universities to partition")
    values = np.array([scores[u] for u in sorted(scores)])
    boundary = float(order_statistics(values, (percentile,))[1][0])
    top = frozenset(u for u, s in scores.items() if s > boundary)
    rest = frozenset(scores) - top
    if not top or not rest:
        raise AnalysisError(
            f"degenerate partition at percentile {percentile}: "
            f"{len(top)} top vs {len(rest)} rest"
        )
    return top, rest


def check_percentile(percentile: float) -> None:
    if not (0.0 < percentile < 100.0):
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")


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
    exact = total <= n_perm and not force_monte_carlo
    if exact:
        stats = _group_stats(pool, _all_combinations(n, k, total).T)
        t_obs = stats[0]  # first combination is (0..k-1), the observed labeling
    else:
        positions = np.arange(n, dtype=np.intp)
        with ThreadPoolExecutor(max_workers=1) as executor:
            (stats,) = _sample_stats([(pool, positions[:k], positions)], n, n_perm, seed, executor)
        t_obs = stats[n_perm]  # the observed labeling
    p = np.count_nonzero(np.abs(stats) >= abs(t_obs)) / stats.size
    return PermTestResult(scope_id, float(t_obs), p, _direction(t_obs),
                          total if exact else n_perm, seed, exact)


def npc_fisher_combine(
    groups: Sequence[UdaGroups],
    n_perm: int,
    seed: int | None = None,
    workers: int = 1,
    excluded: Sequence[Sequence[str]] = (),
) -> NpcCombinedResult:
    """Combine the per-discipline permutation tests with Fisher's function.

    Iteration b draws one random ordering of the union of all universities;
    each discipline's permuted top group is its first k members in that
    ordering, so all marginals stay uniform and overlapping disciplines are
    relabeled consistently. Each iteration's statistics are converted to
    empirical significance levels lambda within their own (observed-inclusive)
    distribution and combined as -2 * sum(log(lambda)); the combined p is the
    observed-inclusive fraction of iterations at or above the observed
    combination. n_perm only sets the Monte Carlo precision, never the null
    model. A pool of that many worker threads draws and ranks the orderings,
    a chunk of rows per task, and computes the significance levels; the result
    is the same for every worker count. Memory: n_perm + 1 floats per
    discipline, whose levels overwrite its statistics, two such arrays per
    thread and one key chunk per running task. The error for fewer than two
    groups names each (uda_id, reason) of excluded, the disciplines left out.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    if len(groups) < 2:
        raise AnalysisError(f"nonparametric combination needs >= 2 disciplines, got {len(groups)}"
                            + "".join(f"; {uda} excluded: {why}" for uda, why in excluded))
    groups = sorted(groups, key=lambda g: g.uda_id)
    for group in groups:
        group.validate()

    universe = sorted({u for g in groups for u in g.values})
    position = {u: i for i, u in enumerate(universe)}
    prepared = [_prepared(g, position) for g in groups]
    executor = ThreadPoolExecutor(max_workers=workers)
    try:
        stats = _sample_stats(prepared, len(universe), n_perm, seed, executor)
        observed, p_values = [float(s[n_perm]) for s in stats], [0.0] * len(stats)

        def levels_in_place(gi: int) -> np.ndarray:  # the statistics are not read again
            lam = _significance_levels(stats[gi], out=stats[gi])
            p_values[gi] = float(lam[n_perm])
            return lam

        # at most workers groups hold level temporaries; the sum takes them in group order
        fisher = _fisher(executor.map(levels_in_place, range(len(stats))))
    finally:
        executor.shutdown(cancel_futures=True)

    combined_count = int(np.count_nonzero(fisher >= fisher[n_perm]))
    partials = tuple(PermTestResult(g.uda_id, t_obs, p, _direction(t_obs), n_perm, seed, False)
                     for g, t_obs, p in zip(groups, observed, p_values))
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


def _group_stats(pool: np.ndarray, top_cols: np.ndarray) -> np.ndarray:
    """mean(top) - mean(rest) for each column of top_cols, (k, rows) indices
    into pool. The k gathered columns are added in the order of numpy's row sum
    pool[idx].sum(axis=-1), so each statistic is bit-identical to its row form."""
    k = len(top_cols)
    top_sum = _pairwise_sum(lambda j: pool[top_cols[j]], 0, k) + 0.0  # numpy starts from +0.0
    return top_sum / k - (pool.sum() - top_sum) / (pool.size - k)


def _pairwise_sum(term: Callable[[int], np.ndarray], lo: int, n: int) -> np.ndarray:
    """term(lo) + ... + term(lo + n - 1), each term a fresh array, in numpy's
    pairwise order: above 128 terms two halves, the first a multiple of 8; else
    8 interleaved partial sums (1 below 8 terms) added pairwise, then the rest."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(term, lo, half) + _pairwise_sum(term, lo + half, n - half)
    width = 8 if n >= 8 else 1
    acc = [term(lo + j) for j in range(width)]
    end = lo + n - n % width
    for i in range(lo + width, end, width):
        for j in range(width):
            acc[j] += term(i + j)
    while len(acc) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        acc = [acc[i] + acc[i + 1] for i in range(0, len(acc), 2)]
    total = acc[0]
    for i in range(end, lo + n):
        total += term(i)
    return total


def _top_columns(keys: np.ndarray, low: np.uint64, k: int) -> np.ndarray:
    """(k, rows) positions of the k lowest raw 64-bit keys of each row, lowest
    first. The low bits (mask low) of each key are overwritten by its position,
    so one in-place value sort ranks each row and ties go to the lower position."""
    keys &= ~low
    keys |= np.arange(keys.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    top = np.ascontiguousarray(keys[:, :k].T)
    top &= low
    return top.view(np.int64)


def _significance_levels(stats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Empirical P(|T| >= |t|) within the given distribution, for each element t.

    One argsort of |T| finds the runs of ties; each element of the run that
    starts at sorted position first gets (n - first) / n. The levels go to
    out, which may be stats itself; two more arrays of n values are held.
    """
    abs_stats = np.abs(stats, out=out)
    n = abs_stats.size
    order = np.argsort(abs_stats)
    ordered = abs_stats[order]
    run_starts = np.empty(n, dtype=bool)
    run_starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_starts[1:])
    del ordered
    first = np.arange(n)  # sorted position, then the start of its run of ties
    first *= run_starts
    np.maximum.accumulate(first, out=first)
    np.subtract(n, first, out=first)
    abs_stats[order] = first
    abs_stats /= n
    return abs_stats


def _fisher(lambdas: Iterable[np.ndarray]) -> np.ndarray:
    """-2 * sum(log(lambda)) of each row, added in group order.

    A running in-place sum adds the groups in the order np.sum(..., axis=0)
    does over the stacked levels. Each level array, taken one at a time, is
    overwritten by its log, and the first one holds the sum.
    """
    lambdas = iter(lambdas)
    fisher = next(lambdas)
    np.log(fisher, out=fisher)
    for lam in lambdas:
        fisher += np.log(lam, out=lam)
    fisher *= -2.0
    return fisher


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
    executor: ThreadPoolExecutor,
) -> list[np.ndarray]:
    """Each group's statistic under n_perm shared random orderings of the
    n_all universities, with the observed labeling at index n_perm.

    Each ordering ranks one row of raw 64-bit keys, the draws behind random(),
    which is (raw >> 11) * 2**-53. The rows are cut into chunks of about
    _CHUNK_VALUES keys, one executor task each: a task seeds its own PCG64
    from the one SeedSequence, advances it to its first key and draws and
    ranks its chunk, so the stream depends on the seed alone and no thread
    draws ahead. A group's permuted top set is its first |top| members in the
    ranking. Groups with the same members share one sort per chunk
    (_top_columns) of a copy of their keys, or of the keys in place for the
    whole universe. Every row is computed as in a single thread.
    """
    stats = [np.empty(n_perm + 1) for _ in prepared]
    member_sets: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for gi, (_values, _obs_idx, member_pos) in enumerate(prepared):
        member_sets.setdefault(member_pos.tobytes(), (member_pos, []))[1].append(gi)
    # n_all members are the whole universe (positions are sorted): it sorts the keys in place, last
    sets = sorted(member_sets.values(), key=lambda s: s[0].size == n_all)
    # b = max(11, bits of n_all - 1) low bits carry the positions: up to 2,048
    # universities the sort reads exactly the 53 bits of random(), above fewer
    low = np.uint64((1 << max(11, (n_all - 1).bit_length())) - 1)
    seed_seq = np.random.SeedSequence(seed)  # the OS entropy of seed None, taken once
    chunk_rows = max(1, _CHUNK_VALUES // n_all)

    def fill_rows(start: int) -> None:
        bit_generator = np.random.PCG64(seed_seq)  # the state of default_rng(seed)
        bit_generator.advance(start * n_all)
        keys = bit_generator.random_raw((min(chunk_rows, n_perm - start), n_all))
        span = slice(start, start + len(keys))
        for member_pos, group_ids in sets:
            ranked = keys if member_pos.size == n_all else np.take(keys, member_pos, axis=1)
            top_cols = _top_columns(ranked, low, max(prepared[gi][1].size for gi in group_ids))
            for gi in group_ids:
                values, obs_idx, _pos = prepared[gi]
                stats[gi][span] = _group_stats(values, top_cols[:obs_idx.size])

    list(executor.map(fill_rows, range(0, n_perm, chunk_rows)))  # raises what a task raised

    for gi, (values, obs_idx, _pos) in enumerate(prepared):
        stats[gi][n_perm] = _group_stats(values, obs_idx[:, None])[0]
    return stats
