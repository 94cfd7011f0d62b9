"""Rank construction and the rank-stability statistics battery.

Rankings order universities by descending score. Ties receive the same
competition rank (1, 2, 2, 4) for display and shift computations, and
averaged fractional ranks (1, 2.5, 2.5, 4) for correlations, which keeps
the rank correlation tie-robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError


@dataclass(frozen=True)
class RankEntry:
    university_id: str
    score: float
    rank: int  # competition rank, 1 = highest score
    fractional_rank: float


@dataclass(frozen=True)
class Ranking:
    scope_level: str
    scope_id: str
    obs_year: int
    entries: tuple[RankEntry, ...]

    def display_ranks(self) -> dict[str, int]:
        return {e.university_id: e.rank for e in self.entries}

    def fractional_ranks(self) -> dict[str, float]:
        return {e.university_id: e.fractional_rank for e in self.entries}

    def scores(self) -> dict[str, float]:
        return {e.university_id: e.score for e in self.entries}

    def universities(self) -> frozenset[str]:
        return frozenset(e.university_id for e in self.entries)


def rank_universities(
    scores: Mapping[str, float],
    scope_level: str = "",
    scope_id: str = "",
    obs_year: int = 0,
) -> Ranking:
    """Order universities by descending score with deterministic tie handling."""
    if not scores:
        raise ValueError("cannot rank an empty score map")
    for univ, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"non-finite score {score} for {univ!r}")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries: list[RankEntry] = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        # positions i+1 .. j (1-based) share the score
        fractional = (i + 1 + j) / 2
        for univ, score in ordered[i:j]:
            entries.append(RankEntry(univ, score, rank=i + 1, fractional_rank=fractional))
        i = j
    return Ranking(scope_level, scope_id, obs_year, tuple(entries))


def rank_shifts(ranking: Ranking, benchmark: Ranking) -> dict[str, tuple[int, int]]:
    """Per-university (signed, absolute) rank shift against the benchmark.

    Positive signed shift = ranked worse (larger rank number) than in the
    benchmark. Uses competition ranks. Both rankings must cover the same
    universities.
    """
    _require_same_universities(ranking, benchmark)
    ranks = ranking.display_ranks()
    bench = benchmark.display_ranks()
    return {
        univ: (ranks[univ] - bench[univ], abs(ranks[univ] - bench[univ]))
        for univ in sorted(ranks)
    }


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


def shift_descriptives(shifts: Sequence[float]) -> ShiftStats:
    if len(shifts) < 1:
        raise ValueError("need at least one shift")
    xs = np.asarray(shifts, dtype=float)
    mean = float(xs.mean())
    dev = xs - mean
    m2 = float((dev**2).mean())
    if m2 == 0.0:
        return ShiftStats(len(xs), mean, float(np.median(xs)), 0.0, None, None)
    m3 = float((dev**3).mean())
    m4 = float((dev**4).mean())
    return ShiftStats(
        n=len(xs),
        mean=mean,
        median=float(np.median(xs)),
        std_dev=math.sqrt(m2),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2 - 3.0,
    )


def spearman_rho(ranking_a: Ranking, ranking_b: Ranking) -> float | None:
    """Rank correlation: Pearson correlation of the fractional ranks.

    Returns None (undefined) when either side has zero rank variance,
    i.e. all universities tied.
    """
    _require_same_universities(ranking_a, ranking_b)
    universities = sorted(ranking_a.universities())
    if len(universities) < 2:
        raise AnalysisError("rank correlation needs at least two universities")
    fa = ranking_a.fractional_ranks()
    fb = ranking_b.fractional_ranks()
    xs = np.array([fa[u] for u in universities])
    ys = np.array([fb[u] for u in universities])
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    sx = float((xd**2).sum())
    sy = float((yd**2).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xd * yd).sum() / math.sqrt(sx * sy))


@dataclass(frozen=True)
class StabilitySummary:
    """Per-scope stability of rankings across all observation years.

    pct_any_change is the fraction of universities whose rank moves at
    least once across the years. The average/median/std_dev are over each
    university's mean absolute shift against the benchmark (population
    std dev, consistent with shift_descriptives). max_ranking_variation is
    the widest per-university rank range over all years.
    """

    n_universities: int
    pct_any_change: float
    mean_shift_average: float
    mean_shift_median: float
    mean_shift_std_dev: float
    max_ranking_variation: int


def stability_summary(
    rankings: Mapping[int, Ranking], benchmark_year: int
) -> StabilitySummary:
    if benchmark_year not in rankings:
        raise AnalysisError(f"benchmark year {benchmark_year} not among the rankings")
    if len(rankings) == 1:
        # only the benchmark itself: trivially no change anywhere
        n = len(rankings[benchmark_year].entries)
        return StabilitySummary(n, 0.0, 0.0, 0.0, 0.0, 0)
    years = sorted(rankings)
    benchmark = rankings[benchmark_year]
    universities = sorted(benchmark.universities())

    shifts_by_univ: dict[str, list[int]] = {u: [] for u in universities}
    for year in years:
        if year == benchmark_year:
            _require_same_universities(rankings[year], benchmark)
            continue
        for univ, (_signed, absolute) in rank_shifts(rankings[year], benchmark).items():
            shifts_by_univ[univ].append(absolute)

    ranks = [rankings[y].display_ranks() for y in years]
    ranks_by_univ = {u: [r[u] for r in ranks] for u in universities}
    changed = sum(1 for u in universities if len(set(ranks_by_univ[u])) > 1)
    mean_shifts = np.array([np.mean(shifts_by_univ[u]) for u in universities])
    return StabilitySummary(
        n_universities=len(universities),
        pct_any_change=changed / len(universities),
        mean_shift_average=float(mean_shifts.mean()),
        mean_shift_median=float(np.median(mean_shifts)),
        mean_shift_std_dev=float(mean_shifts.std()),
        max_ranking_variation=max(
            max(ranks_by_univ[u]) - min(ranks_by_univ[u]) for u in universities
        ),
    )


def no_change_and_small_shift_pcts(ranking: Ranking, benchmark: Ranking) -> tuple[int, int]:
    """Whole-number percentages of universities with shift 0 and shift <= 3."""
    shifts = [absolute for _signed, absolute in rank_shifts(ranking, benchmark).values()]
    n = len(shifts)
    no_change = sum(1 for s in shifts if s == 0)
    small = sum(1 for s in shifts if s <= 3)
    return round_half_up(100.0 * no_change / n), round_half_up(100.0 * small / n)


@dataclass(frozen=True)
class QuartileAssignment:
    """Productivity class per university: 4 = top quartile down to 1."""

    boundaries: tuple[float, float, float]  # 25th, 50th, 75th percentile of the scores
    classes: Mapping[str, int]


def quartile_classes(scores: Mapping[str, float]) -> QuartileAssignment:
    """Classify universities by score quartile.

    Boundaries are linear-interpolation percentiles of the score
    distribution; a university is in class 4 when its score lies strictly
    above the 75th-percentile boundary, and so on downward. Equal scores
    always land in the same class.
    """
    if len(scores) < 4:
        raise AnalysisError(f"quartile classes need at least 4 universities, got {len(scores)}")
    values = np.array([scores[u] for u in sorted(scores)])
    q25, q50, q75 = np.percentile(values, (25, 50, 75), method="linear").tolist()
    classes = {
        u: 1 + (scores[u] > q25) + (scores[u] > q50) + (scores[u] > q75) for u in sorted(scores)
    }
    return QuartileAssignment(boundaries=(q25, q50, q75), classes=classes)


@dataclass(frozen=True)
class QuartileShiftStats:
    average_abs_shift: float
    outliers: int  # universities moving 2 or 3 classes


def quartile_shift_stats(
    assignments: Mapping[int, QuartileAssignment], benchmark_year: int
) -> dict[int, QuartileShiftStats]:
    """Average absolute class shift and 2-3-class outlier count per year."""
    if benchmark_year not in assignments:
        raise AnalysisError(f"benchmark year {benchmark_year} not among the assignments")
    bench = assignments[benchmark_year].classes
    out: dict[int, QuartileShiftStats] = {}
    for year in sorted(assignments):
        if year == benchmark_year:
            continue
        classes = assignments[year].classes
        if set(classes) != set(bench):
            raise AnalysisError(f"university sets differ between {year} and {benchmark_year}")
        shifts = [abs(classes[u] - bench[u]) for u in sorted(bench)]
        out[year] = QuartileShiftStats(
            average_abs_shift=sum(shifts) / len(shifts),
            outliers=sum(1 for s in shifts if s >= 2),
        )
    return out


def _require_same_universities(a: Ranking, b: Ranking) -> None:
    ua, ub = a.universities(), b.universities()
    if ua != ub:
        only_a = sorted(ua - ub)
        only_b = sorted(ub - ua)
        raise AnalysisError(
            f"rankings cover different universities (only in first: {only_a}, "
            f"only in second: {only_b})"
        )


def round_half_up(x: float) -> int:
    """Nearest integer, halves rounded up (so 12.5 -> 13, unlike round())."""
    return int(math.floor(x + 0.5))
