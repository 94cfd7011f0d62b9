"""Rank construction and the rank-stability statistics battery.

Rankings order universities by descending score. Ties receive the same
competition rank (1, 2, 2, 4) for display and shift computations, and
averaged fractional ranks (1, 2.5, 2.5, 4) for correlations, which keeps
the rank correlation tie-robust.

A level's scores and ranks are [row, year] matrices whose rows are the
(scope, university) pairs in (scope id, university id) order. Each battery
statistic has one implementation, over blocks [..., year, n] of scopes that
rank the same number n of universities, with the benchmark year last and
the universities, in id order, contiguous along the last axis: every numpy
reduction over that axis then adds in the order a 1-D call on one scope's
row does.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class LevelRanks:
    """Scores and ranks of every scope of one level at every year.

    Rows are (scope, university) pairs in (scope id, university id) order;
    scope s owns rows bounds[s]:bounds[s + 1]. ranked[y] lists the rows in
    ranking order at year y: scope by scope, by descending score, ties by
    university id.
    """

    level: str
    scope_ids: tuple[str, ...]
    bounds: np.ndarray  # [S + 1]
    university_ids: tuple[str, ...]  # [R]
    years: tuple[int, ...]
    scores: np.ndarray  # [R, Y]
    ranks: np.ndarray  # [R, Y] competition ranks
    fractional: np.ndarray  # [R, Y]
    ranked: np.ndarray  # [Y, R]

    def __post_init__(self) -> None:
        for column in (self.bounds, self.scores, self.ranks, self.fractional, self.ranked):
            column.flags.writeable = False

    def by_scope(self, values: np.ndarray) -> dict[str, dict[str, float]]:
        """{scope id: {university id: values[row]}} of one value per row."""
        values, bounds = values.tolist(), self.bounds.tolist()
        return {scope: dict(zip(self.university_ids[lo:hi], values[lo:hi]))
                for scope, lo, hi in zip(self.scope_ids, bounds, bounds[1:])}


def rank_scopes(
    level: str,
    keys: Sequence[tuple[str, str]],
    years: Sequence[int],
    scores: np.ndarray,
) -> LevelRanks:
    """Rank every scope's universities at every year; keys[row] is the
    (scope id, university id) of scores[row, year].

    One lexsort orders each year's rows by (scope, -score), ties keeping the
    (scope, university id) order of the rows.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[r] for r in order]
    scores = np.asarray(scores, dtype=float)[order]
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        r, y = bad[0]
        raise ValueError(f"non-finite score {scores[r, y]} for {keys[r][1]!r}")
    sizes = Counter(scope for scope, _univ in keys)  # in scope id order
    bounds = np.cumsum([0, *sizes.values()])
    scope = np.repeat(np.arange(len(sizes)), list(sizes.values()))
    neg = -scores.T
    ranked = np.lexsort((neg, np.broadcast_to(scope, neg.shape)))
    # tie groups of the ranked rows, numbered across all years; every year
    # and every scope starts a new group
    value = np.take_along_axis(neg, ranked, axis=1)
    new = np.ones(ranked.shape, dtype=bool)
    new[:, 1:] = value[:, 1:] != value[:, :-1]
    new[:, bounds[:-1]] = True
    group = np.cumsum(new).reshape(new.shape) - 1
    start = np.flatnonzero(new)[group] % len(keys)  # position of the group's first row
    rank = start - bounds[scope[ranked]] + 1
    ranks = np.empty(scores.shape, dtype=np.intp)
    fractional = np.empty_like(scores)
    columns = np.arange(len(years))[:, None]
    ranks[ranked, columns] = rank
    fractional[ranked, columns] = rank + (np.bincount(group.ravel())[group] - 1) / 2
    return LevelRanks(level, tuple(sizes), bounds, tuple(univ for _scope, univ in keys),
                      tuple(years), scores, ranks, fractional, ranked)


@dataclass(frozen=True)
class ShiftStats:
    """Descriptive statistics of a shift distribution.

    Central moments use divisor n; skewness is m3/m2^1.5 and kurtosis is
    the excess m4/m2^2 - 3. Both are None when the variance is zero.
    """

    n: int
    mean: float
    median: float
    std_dev: float
    skewness: float | None
    kurtosis: float | None


@dataclass(frozen=True)
class StabilitySummary:
    """Per-scope stability of rankings across all observation years.

    pct_any_change is the fraction of universities whose rank moves at
    least once across the years. The average/median/std_dev are over each
    university's mean absolute shift against the benchmark (population
    std dev, consistent with ShiftStats). max_ranking_variation is
    the widest per-university rank range over all years.
    """

    n_universities: int
    pct_any_change: float
    mean_shift_average: float
    mean_shift_median: float
    mean_shift_std_dev: float
    max_ranking_variation: int


@dataclass(frozen=True)
class QuartileShiftStats:
    average_abs_shift: float
    outliers: int  # universities moving 2 or 3 classes


@dataclass(frozen=True)
class ScopeStability:
    """The whole battery of one scope against the benchmark year; every
    tuple over years follows the comparison years in order."""

    scope_id: str
    universities: tuple[str, ...]  # in id order
    shifts: tuple[ShiftStats, ...]  # of the absolute rank shifts
    summary: StabilitySummary
    changed: int  # universities whose rank moves in some year
    spearman: tuple[float | None, ...]
    small_shift_pcts: tuple[int, int]  # shift 0 and <= 3 at the earliest comparison year
    quartiles: tuple[QuartileShiftStats, ...] | None  # None below 4 universities
    rank_ranges: tuple[tuple[int, int], ...]  # (min, max) rank of each university


def stability_battery(ranks: LevelRanks, benchmark_year: int) -> list[ScopeStability]:
    """Every battery statistic of every scope of one level, in scope order.

    The scopes ranking n universities form one [scope, year, n] block per n,
    and each statistic is computed for the whole block at once.
    """
    if benchmark_year not in ranks.years or len(ranks.years) < 2:
        raise AnalysisError(f"the battery needs benchmark year {benchmark_year} and another "
                            f"year, got {list(ranks.years)}")
    b = ranks.years.index(benchmark_year)
    years = [y for y in range(len(ranks.years)) if y != b] + [b]
    sizes = np.diff(ranks.bounds)
    out: list = [None] * len(sizes)
    for n in np.unique(sizes).tolist():
        scopes = np.flatnonzero(sizes == n)
        rows = ranks.bounds[scopes, None] + np.arange(n)
        rank, fractional, score = (np.ascontiguousarray(m[rows][..., years].transpose(0, 2, 1))
                                   for m in (ranks.ranks, ranks.fractional, ranks.scores))
        moves = np.abs(_shifts(rank))
        shifts = _descriptives(moves.astype(float))
        summaries = _stability(rank)
        rho = _spearman(fractional[:, :-1], fractional[:, -1:])
        pcts = _small_shift_pcts(moves[:, 0]).tolist()
        quartiles = _class_shifts(_quartile_classes(score)[1]) if n >= 4 else None
        low, high = rank.min(axis=1).tolist(), rank.max(axis=1).tolist()
        k = len(years) - 1
        for i, s in enumerate(scopes.tolist()):
            each = slice(i * k, (i + 1) * k)
            out[s] = ScopeStability(
                ranks.scope_ids[s], ranks.university_ids[rows[i, 0]:rows[i, 0] + n],
                tuple(shifts[each]), *summaries[i], tuple(rho[each]), tuple(pcts[i]),
                None if quartiles is None else tuple(quartiles[each]),
                tuple(zip(low[i], high[i])),
            )
    return out


def battery_tables(levels: Sequence[LevelRanks], benchmark_year: int) -> dict[str, list[list[str]]]:
    """The six rank-stability tables, rows scope by scope, level by level."""
    comparison = [y for y in levels[0].years if y != benchmark_year]
    tables = {
        "shift_descriptives.csv": [["scope_level", "scope_id", "statistic", *map(str, comparison)]],
        "stability_summary.csv": [["scope_level", "scope_id", "n_universities", "pct_change",
                                   "average", "median", "std_dev", "max_ranking_variation"]],
        "spearman.csv": [["scope_level", "scope_id", *(f"rank_{y}" for y in comparison)]],
        "small_shift_pcts.csv": [["scope_level", "scope_id", "n_universities", "comparison_year",
                                  "no_change_pct", "leq3_pct"]],
        "quartile_stats.csv": [["scope_level", "scope_id", "measure", *map(str, comparison)]],
        "rank_ranges.csv": [["scope_level", "scope_id", "university_id", "min_rank", "max_rank"]],
    }
    shifts, summaries, spearman, small, quartiles, ranges = tables.values()
    for level in levels:
        for st in stability_battery(level, benchmark_year):
            scope, n, s = [level.level, st.scope_id], len(st.universities), st.summary
            for name in ("mean", "median", "std_dev", "skewness", "kurtosis"):
                shifts.append([*scope, name, *(_fmt(getattr(x, name)) for x in st.shifts)])
            summaries.append([*scope, str(n), str(_percent(st.changed, n)), _fmt(s.mean_shift_average),
                              _fmt(s.mean_shift_median), _fmt(s.mean_shift_std_dev),
                              str(s.max_ranking_variation)])
            spearman.append([*scope, *map(_fmt, st.spearman)])
            small.append([*scope, str(n), str(comparison[0]), *map(str, st.small_shift_pcts)])
            if st.quartiles is None:
                logger.warning("skipping quartile stats for %s %s: fewer than 4 universities", *scope)
            else:
                quartiles.append([*scope, "avg_class_shift",
                                  *(_fmt(q.average_abs_shift) for q in st.quartiles)])
                quartiles.append([*scope, "outliers", *(str(q.outliers) for q in st.quartiles)])
            ranges.extend([*scope, u, str(lo), str(hi)]
                          for u, (lo, hi) in zip(st.universities, st.rank_ranges))
    return tables


def ranking_rows(levels: Mapping[str, LevelRanks]) -> list[list[str]]:
    """rankings.csv: level by level, scope by scope, year by year, in ranking order."""
    rows = [["scope_level", "scope_id", "obs_year", "university_id", "score", "rank"]]
    for level, ranks in sorted(levels.items()):
        scores, competition, ranked = (m.tolist() for m in (ranks.scores, ranks.ranks, ranks.ranked))
        bounds = ranks.bounds.tolist()
        for scope, lo, hi in zip(ranks.scope_ids, bounds, bounds[1:]):
            for y, year in enumerate(ranks.years):
                rows.extend([level, scope, str(year), ranks.university_ids[r], _fmt(scores[r][y]),
                             str(competition[r][y])] for r in ranked[y][lo:hi])
    return rows


# ---------------------------------------------------------------------------
# the statistics over blocks [..., year, n] (benchmark year last) or rows [..., n]


def _shifts(ranks: np.ndarray) -> np.ndarray:
    """Signed shifts [..., comparison year, n]; positive = ranked worse than at the benchmark."""
    return ranks[..., :-1, :] - ranks[..., -1:, :]


def _descriptives(xs: np.ndarray) -> list[ShiftStats]:
    """ShiftStats of each row of xs[..., n]."""
    n, mean = xs.shape[-1], xs.mean(axis=-1)
    dev = xs - mean[..., None]
    columns = (mean, np.median(xs, axis=-1), *((dev**k).mean(axis=-1) for k in (2, 3, 4)))
    return [ShiftStats(n, mu, median, 0.0, None, None) if m2 == 0.0
            else ShiftStats(n, mu, median, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2 - 3.0)
            for mu, median, m2, m3, m4 in zip(*(np.ravel(c).tolist() for c in columns))]


def _spearman(xs: np.ndarray, ys: np.ndarray) -> list[float | None]:
    """Pearson correlation of each row pair of fractional ranks [..., n]
    (broadcast); None where either side has zero variance."""
    xd = xs - xs.mean(axis=-1, keepdims=True)
    yd = ys - ys.mean(axis=-1, keepdims=True)
    sums = np.broadcast_arrays((xd**2).sum(axis=-1), (yd**2).sum(axis=-1), (xd * yd).sum(axis=-1))
    return [None if sx == 0.0 or sy == 0.0 else sxy / math.sqrt(sx * sy)
            for sx, sy, sxy in zip(*(s.ravel().tolist() for s in sums))]


def _stability(ranks: np.ndarray) -> list[tuple[StabilitySummary, int]]:
    """(StabilitySummary, universities that move) of each block of ranks[..., year, n]."""
    moves = np.abs(_shifts(ranks))
    mean_shifts = moves.sum(axis=-2) / moves.shape[-2]
    spread = ranks.max(axis=-2) - ranks.min(axis=-2)
    changed = (spread > 0).sum(axis=-1)
    columns = (changed, mean_shifts.mean(axis=-1), np.median(mean_shifts, axis=-1),
               mean_shifts.std(axis=-1), spread.max(axis=-1))
    n = ranks.shape[-1]
    return [(StabilitySummary(n, c / n, average, median, std_dev, variation), c)
            for c, average, median, std_dev, variation in zip(*(np.ravel(a).tolist() for a in columns))]


def _small_shift_pcts(moves: np.ndarray) -> np.ndarray:
    """[..., 2] percentages of universities with shift 0 and <= 3, per row of moves[..., n]."""
    counts = np.stack([(moves == 0).sum(axis=-1), (moves <= 3).sum(axis=-1)], axis=-1)
    return _percent(counts, moves.shape[-1])


def _quartile_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quartile boundaries [3, ...] and classes [..., n] of each row of values[..., n]."""
    q = np.percentile(values, (25, 50, 75), axis=-1, method="linear")
    return q, 1 + sum(values > boundary[..., None] for boundary in q)


def _class_shifts(classes: np.ndarray) -> list[QuartileShiftStats]:
    """QuartileShiftStats of each comparison year of classes[..., year, n]."""
    moves = np.abs(_shifts(classes))
    averages = (moves.sum(axis=-1) / moves.shape[-1]).ravel().tolist()
    outliers = (moves >= 2).sum(axis=-1).ravel().tolist()
    return [QuartileShiftStats(a, o) for a, o in zip(averages, outliers)]


def _percent(count, n):
    """Whole-number percentage 100 * count / n, halves rounded up, in exact
    integer arithmetic (12.5 -> 13; floats would print 23/40 as 57)."""
    return (200 * count + n) // (2 * n)


def _fmt(x: float | None, decimals: int = 6) -> str:
    return "NA" if x is None else f"{x:.{decimals}f}"
