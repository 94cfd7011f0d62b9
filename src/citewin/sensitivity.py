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

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError

QUARTILE_MIN = 4  # universities a scope ranks for its quartile statistics


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
    scope_ids: Sequence[str],
    university_ids: Sequence[str],
    years: Sequence[int],
    scores: np.ndarray,
) -> LevelRanks:
    """Rank every scope's universities at every year; scores[row, year]
    belongs to university_ids[row] in scope scope_ids[row].

    One lexsort orders each year's rows by (scope, -score), ties keeping the
    (scope, university id) order of the rows.
    """
    scope_ids, university_ids = np.asarray(scope_ids, str), np.asarray(university_ids, str)
    order = np.lexsort((university_ids, scope_ids))
    university_ids = university_ids[order]
    scores = np.asarray(scores, dtype=float)[order]
    bad = np.argwhere(~np.isfinite(scores))
    if len(bad):
        r, y = bad[0]
        raise ValueError(f"non-finite score {scores[r, y]} for {str(university_ids[r])!r}")
    scopes, sizes = np.unique(scope_ids[order], return_counts=True)
    bounds = np.append(0, np.cumsum(sizes))
    scope = np.repeat(np.arange(len(sizes)), sizes)
    neg = -scores.T
    ranked = np.lexsort((neg, np.broadcast_to(scope, neg.shape)))
    # tie groups of the ranked rows, numbered across all years; every year
    # and every scope starts a new group
    value = np.take_along_axis(neg, ranked, axis=1)
    new = np.ones(ranked.shape, dtype=bool)
    new[:, 1:] = value[:, 1:] != value[:, :-1]
    new[:, bounds[:-1]] = True
    group = np.cumsum(new).reshape(new.shape) - 1
    start = np.flatnonzero(new)[group] % len(scope)  # position of the group's first row
    rank = start - bounds[scope[ranked]] + 1
    ranks = np.empty(scores.shape, dtype=np.intp)
    fractional = np.empty_like(scores)
    columns = np.arange(len(years))[:, None]
    ranks[ranked, columns] = rank
    fractional[ranked, columns] = rank + (np.bincount(group.ravel())[group] - 1) / 2
    return LevelRanks(level, tuple(scopes.tolist()), bounds, tuple(university_ids.tolist()),
                      tuple(years), scores, ranks, fractional, ranked)


_DESCRIPTIVES = ("mean", "median", "std_dev", "skewness", "kurtosis")
_PER_YEAR = (*_DESCRIPTIVES, "rho", "avg_class_shift", "outliers")
_PER_SCOPE = ("changed", "mean_shift_average", "mean_shift_median", "mean_shift_std_dev",
              "max_ranking_variation", "no_change_pct", "leq3_pct")


def stability_battery(ranks: LevelRanks, benchmark_year: int) -> dict[str, np.ndarray]:
    """Every battery statistic of every scope of one level against the benchmark year,
    as one read-only float array per statistic, NaN where it is undefined:

    - [scope, comparison year]: "mean", "median", "std_dev", "skewness" and "kurtosis"
      of the absolute rank shifts, Spearman's "rho", the quartile "avg_class_shift"
      and the 2-3-class "outliers" (the last two NaN below QUARTILE_MIN universities);
    - [scope]: "changed" (universities that move in some year), "mean_shift_average",
      "mean_shift_median" and "mean_shift_std_dev" of each university's mean shift,
      "max_ranking_variation", and "no_change_pct" and "leq3_pct" at the earliest
      comparison year;
    - [row]: "min_rank" and "max_rank" over all years.

    Comparison years are the level's years but the benchmark, in order. The scopes
    ranking n universities form one [scope, year, n] block, computed at once.
    """
    if benchmark_year not in ranks.years or len(ranks.years) < 2:
        raise AnalysisError(f"the battery needs benchmark year {benchmark_year} and another "
                            f"year, got {list(ranks.years)}")
    b = ranks.years.index(benchmark_year)
    years = [y for y in range(len(ranks.years)) if y != b] + [b]
    sizes = np.diff(ranks.bounds)
    out = {name: np.full((len(sizes), len(years) - 1), np.nan) for name in _PER_YEAR}
    out.update((name, np.full(len(sizes), np.nan)) for name in _PER_SCOPE)
    low, high = ranks.ranks.min(axis=1), ranks.ranks.max(axis=1)
    out["min_rank"], out["max_rank"] = low.astype(float), high.astype(float)
    for n in sorted(set(sizes.tolist())):  # plain np.unique would import numpy.ma
        scopes = np.flatnonzero(sizes == n)
        rows = ranks.bounds[scopes, None] + np.arange(n)
        rank, fractional, score = (np.ascontiguousarray(m[rows][..., years].transpose(0, 2, 1))
                                   for m in (ranks.ranks, ranks.fractional, ranks.scores))
        moves = np.abs(_shifts(rank))
        block = {**_descriptives(moves.astype(float)), **_stability(moves, (high - low)[rows]),
                 "rho": _spearman(fractional[:, :-1], fractional[:, -1:]),
                 **_small_shift_pcts(moves[:, 0])}
        if n >= QUARTILE_MIN:
            block.update(_class_shifts(_quartile_classes(score)[1]))
        for name, values in block.items():
            out[name][scopes] = values
    for values in out.values():
        values.flags.writeable = False
    return out


def battery_tables(levels: Sequence[LevelRanks], benchmark_year: int) -> dict[str, list[list[str]]]:
    """The six rank-stability tables, rows scope by scope, level by level;
    quartile_stats.csv has no rows for a scope ranking fewer than QUARTILE_MIN universities."""
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
        st = {k: v.tolist() for k, v in stability_battery(level, benchmark_year).items()}
        bounds = level.bounds.tolist()
        for s, (scope_id, lo, hi) in enumerate(zip(level.scope_ids, bounds, bounds[1:])):
            scope, n = [level.level, scope_id], hi - lo
            shifts.extend([*scope, name, *map(_fmt, st[name][s])] for name in _DESCRIPTIVES)
            mean_shift = (_fmt(st[f"mean_shift_{x}"][s]) for x in ("average", "median", "std_dev"))
            summaries.append([*scope, str(n), str(_percent(int(st["changed"][s]), n)), *mean_shift,
                              _fmt(st["max_ranking_variation"][s], 0)])
            spearman.append([*scope, *map(_fmt, st["rho"][s])])
            small.append([*scope, str(n), str(comparison[0]), _fmt(st["no_change_pct"][s], 0),
                          _fmt(st["leq3_pct"][s], 0)])
            if n >= QUARTILE_MIN:
                quartiles.append([*scope, "avg_class_shift", *map(_fmt, st["avg_class_shift"][s])])
                quartiles.append([*scope, "outliers", *(_fmt(x, 0) for x in st["outliers"][s])])
            ranges.extend([*scope, u, _fmt(low, 0), _fmt(high, 0)] for u, low, high in zip(
                level.university_ids[lo:hi], st["min_rank"][lo:hi], st["max_rank"][lo:hi]))
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


def _descriptives(xs: np.ndarray) -> dict[str, np.ndarray]:
    """The descriptives of each row of xs[..., n]: central moments use divisor n, skewness
    is m3/m2^1.5 and kurtosis the excess m4/m2^2 - 3, both NaN at zero variance."""
    mean = xs.mean(axis=-1)
    dev = xs - mean[..., None]
    m2, m3, m4 = ((dev**k).mean(axis=-1) for k in (2, 3, 4))
    # Python's float power on each entry: numpy's vectorised m2**1.5 rounds some
    # entries an ulp away from it (shifts 0, 1, 7, 7 for one)
    m2s = m2.ravel().tolist()
    p15, p2 = (np.reshape([m**e if m else math.nan for m in m2s], m2.shape) for e in (1.5, 2))
    return {"mean": mean, "median": order_statistics(xs)[0], "std_dev": np.sqrt(m2),
            "skewness": m3 / p15, "kurtosis": m4 / p2 - 3.0}


def _spearman(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row pair of fractional ranks [..., n]
    (broadcast); NaN where either side has zero variance."""
    xd = xs - xs.mean(axis=-1, keepdims=True)
    yd = ys - ys.mean(axis=-1, keepdims=True)
    sx, sy, sxy = (xd**2).sum(axis=-1), (yd**2).sum(axis=-1), (xd * yd).sum(axis=-1)
    return np.divide(sxy, np.sqrt(sx * sy), out=np.full(sxy.shape, np.nan),
                     where=(sx != 0.0) & (sy != 0.0))


def _stability(moves: np.ndarray, spread: np.ndarray) -> dict[str, np.ndarray]:
    """The per-scope summary of each block, from its absolute shifts moves[..., comparison
    year, n] and rank spreads (max - min over all years) [..., n]."""
    mean_shifts = moves.sum(axis=-2) / moves.shape[-2]
    return {"changed": (spread > 0).sum(axis=-1), "mean_shift_average": mean_shifts.mean(axis=-1),
            "mean_shift_median": order_statistics(mean_shifts)[0],
            "mean_shift_std_dev": mean_shifts.std(axis=-1), "max_ranking_variation": spread.max(-1)}


def _small_shift_pcts(moves: np.ndarray) -> dict[str, np.ndarray]:
    """Percentages of universities with shift 0 and <= 3, per row of moves[..., n]."""
    n = moves.shape[-1]
    return {"no_change_pct": _percent((moves == 0).sum(axis=-1), n),
            "leq3_pct": _percent((moves <= 3).sum(axis=-1), n)}


def _quartile_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quartile boundaries [3, ...] and classes [..., n] of each row of values[..., n]."""
    q = order_statistics(values, (25, 50, 75))[1]
    return q, 1 + sum(values > boundary[..., None] for boundary in q)


def _class_shifts(classes: np.ndarray) -> dict[str, np.ndarray]:
    """Mean absolute class shift and 2-3-class outliers of each year of classes[..., year, n]."""
    moves = np.abs(_shifts(classes))
    return {"avg_class_shift": moves.sum(axis=-1) / moves.shape[-1],
            "outliers": (moves >= 2).sum(axis=-1)}


def order_statistics(values: np.ndarray,
                     percents: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The median [...] and the linear-interpolation percentiles [percent, ...] of each row of
    values[..., n] (n >= 1) from one sort, bit for bit np.median(values, axis=-1) and
    np.percentile(values, percents, axis=-1, method="linear"), which import numpy.ma (its NaN
    check, a plain np.unique). NaNs sort last, and a row holding one gets NaN throughout."""
    s = np.sort(values, axis=-1)
    n, last = s.shape[-1], s[..., -1]
    median = (s[..., n // 2 - 1] + s[..., n // 2]) / 2 if n % 2 == 0 else s[..., n // 2]
    # numpy's interpolation between the values below and above index (n - 1) * p / 100, and
    # from the last value alone at and past index n - 1
    virtual = (n - 1) * (np.asarray(percents, dtype=float) / 100)
    below = np.where(virtual >= n - 1, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(virtual >= n - 1, -1, below + 1)
    gamma = virtual - below
    a, b = s[..., below], s[..., above]
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    nan = np.isnan(last)
    return (np.where(nan, last, median),
            np.moveaxis(np.where(nan[..., None], last[..., None], q), -1, 0))


def _percent(count, n):
    """Whole-number percentage 100 * count / n, halves rounded up, in exact
    integer arithmetic (12.5 -> 13; floats would print 23/40 as 57)."""
    return (200 * count + n) // (2 * n)


def _fmt(x: float, decimals: int = 6) -> str:
    """x with the given decimals (0 for the integer statistics), NA for NaN."""
    return "NA" if math.isnan(x) else f"{x:.{decimals}f}"
