"""Brute-force reference implementations used to check the library.

Everything here is written independently of the package internals: plain
loops, exhaustive enumeration, and exact rational arithmetic where it
matters. Keep it slow and obvious.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence


def fractional_ranks_desc(scores: Sequence[float]) -> list[float]:
    """Rank 1 = largest score; tied scores get the average of their positions."""
    ranks = []
    for s in scores:
        greater = sum(1 for t in scores if t > s)
        ties = sum(1 for t in scores if t == s)
        ranks.append(greater + (1 + ties) / 2)
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def spearman_brute(a_scores: Sequence[float], b_scores: Sequence[float]) -> float | None:
    """Pearson correlation of descending fractional ranks."""
    return pearson(fractional_ranks_desc(a_scores), fractional_ranks_desc(b_scores))


def perm_test_exhaustive(top: Sequence[float], rest: Sequence[float]) -> tuple[Fraction, Fraction]:
    """(observed statistic, two-sided p) by enumerating every labeling.

    Exact rational arithmetic, so >= comparisons never suffer rounding.
    """
    pool = [Fraction(v) for v in list(top) + list(rest)]
    k, n = len(top), len(pool)

    def stat(idx: tuple[int, ...]) -> Fraction:
        chosen = sum(pool[i] for i in idx)
        return chosen / k - (sum(pool) - chosen) / (n - k)

    t_obs = stat(tuple(range(k)))
    stats = [stat(idx) for idx in combinations(range(n), k)]
    count = sum(1 for t in stats if abs(t) >= abs(t_obs))
    return t_obs, Fraction(count, len(stats))


def moment_stats(xs: Sequence[float]) -> dict:
    """Population central-moment descriptives via exact rationals."""
    n = len(xs)
    vals = [Fraction(x) for x in xs]
    mean = sum(vals) / n
    m2 = sum((v - mean) ** 2 for v in vals) / n
    m3 = sum((v - mean) ** 3 for v in vals) / n
    m4 = sum((v - mean) ** 4 for v in vals) / n
    ordered = sorted(vals)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    out = {
        "mean": float(mean),
        "median": float(median),
        "std_dev": math.sqrt(m2),
        "skewness": None,
        "kurtosis": None,
    }
    if m2 > 0:
        out["skewness"] = float(m3) / float(m2) ** 1.5
        out["kurtosis"] = float(m4) / float(m2) ** 2 - 3.0
    return out


# ---------------------------------------------------------------------------
# the per-year analysis walk, built from the package's scalar definitions
# (impact.py, productivity.py): the reference the columnar core is checked
# against


def compute_cells(corpus, retained_sds, pub_period, obs_year, median_table):
    """All (university, SDS) productivity cells of the retained SDSs, SDS by SDS."""
    from citewin.productivity import scientific_strength, sds_productivity

    cells = {}
    for sds_id in sorted(retained_sds):
        for univ in sorted({u for (u, s) in corpus.researchers_by_cell if s == sds_id}):
            rs = corpus.cell_staff_count(univ, sds_id)
            ss = scientific_strength(corpus, univ, sds_id, pub_period, obs_year, median_table)
            cells[(univ, sds_id)] = sds_productivity(univ, sds_id, obs_year, ss, rs)
    return cells


def compute_baselines(cells, rule="aggregate"):
    from citewin.productivity import national_baseline

    by_sds = {}
    for cell in cells.values():
        by_sds.setdefault(cell.sds_id, []).append(cell)
    return {sds: national_baseline(group, rule) for sds, group in sorted(by_sds.items())}


def sds_scores(cells, sds_id):
    """university -> p for one SDS."""
    return {univ: cell.p for (univ, sds), cell in sorted(cells.items()) if sds == sds_id}


def uda_scores(corpus, cells, baselines, uda_id):
    """university -> UdaProductivity for one discipline."""
    from citewin.productivity import uda_productivity

    member_sds = set(corpus.taxonomy.sds_in_uda(uda_id))
    by_univ = {}
    for (univ, sds), cell in sorted(cells.items()):
        if sds in member_sds:
            by_univ.setdefault(univ, []).append(cell)
    return {
        univ: uda_productivity(univ, uda_id, group, baselines)
        for univ, group in sorted(by_univ.items())
    }
