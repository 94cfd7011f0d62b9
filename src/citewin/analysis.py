"""The analysis pipeline: one columnar pass over every observation year.

The corpus is turned into arrays once: the citation matrix C[P, Y] of the
publications (in pub_id order) at the requested years, the (publication,
category, weight) entries, the deduplicated (cell, publication) incidence
and the staff of each (university, SDS) cell. Medians, impact scores, cell
strengths, baselines and discipline scores then come out for all years at
once. Every sum is a np.bincount over entries in the order the scalar
definitions in impact.py and productivity.py add them, so each score is
bit-identical to theirs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import AnalysisError
from .impact import MedianTable
from .ingest import RepresentativityReport, representativity_filter
from .productivity import BASELINE_RULES
from .sensitivity import Ranking, rank_universities

logger = logging.getLogger(__name__)


@dataclass
class AnalysisRun:
    """Rankings for every requested (level, scope, year), plus provenance."""

    corpus: Corpus
    report: RepresentativityReport
    median_tables: dict[int, MedianTable] = field(default_factory=dict)
    rankings: dict[tuple[str, str, int], Ranking] = field(default_factory=dict)

    def scopes(self, level: str) -> list[str]:
        return sorted({s for (lvl, s, _y) in self.rankings if lvl == level})

    def years_of(self, level: str, scope_id: str) -> list[int]:
        return sorted(y for (lvl, s, y) in self.rankings if lvl == level and s == scope_id)

    def ranking(self, level: str, scope_id: str, year: int) -> Ranking:
        return self.rankings[(level, scope_id, year)]


def run_analysis(
    corpus: Corpus,
    pub_period: tuple[int, int],
    years: Sequence[int],
    threshold: float,
    baseline: str,
    levels: Sequence[str] = ("uda", "sds"),
    workers: int = 1,
) -> AnalysisRun:
    """Full pipeline (filter, medians, impact, strength, productivity, rank).

    `workers` is accepted for compatibility and has no effect: the analysis
    is one single-threaded array pass.
    """
    years = sorted(set(years))
    pubs = [corpus.publications[pid] for pid in sorted(corpus.publications)]
    counts = _citation_matrix(pubs, years)
    report = representativity_filter(corpus, pub_period, threshold)
    retained = sorted(report.retained_sds())
    if not retained:
        raise AnalysisError(f"no SDS passes the representativity filter at threshold {threshold}")
    if baseline not in BASELINE_RULES:
        raise ValueError(f"unknown baseline rule {baseline!r}; expected one of {BASELINE_RULES}")
    pub_year = np.array([pub.pub_year for pub in pubs])
    impact, tables = _impact_matrix(pubs, pub_year, counts, years)
    run = AnalysisRun(corpus=corpus, report=report, median_tables=tables)

    # cells in (SDS, university) order; (cell, publication) pairs in pub_id order
    kept = set(retained)
    cells = sorted((k for k in corpus.researchers_by_cell if k[1] in kept), key=lambda k: k[::-1])
    row_of = {pub.pub_id: i for i, pub in enumerate(pubs)}
    pairs = [(c, row_of[pid]) for c, key in enumerate(cells) for pid in corpus.cell_pubs(*key)]
    inc = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    inc = inc[(pub_year[inc[:, 1]] >= pub_period[0]) & (pub_year[inc[:, 1]] <= pub_period[1])]
    rs = np.array([corpus.cell_staff_count(u, s) for u, s in cells], dtype=float)
    ss = _sum_rows(inc[:, 0], len(cells), impact[inc[:, 1]])
    p = ss / rs[:, None]

    sds_row = {s: i for i, s in enumerate(retained)}
    sds_of = np.array([sds_row[s] for _u, s in cells], dtype=np.intp)
    if baseline == "aggregate":
        p_bar = _sum_rows(sds_of, len(retained), ss) / np.bincount(sds_of, weights=rs)[:, None]
    else:
        p_bar = _sum_rows(sds_of, len(retained), p) / np.bincount(sds_of)[:, None]
    for si, yi in zip(*np.nonzero(p_bar == 0.0)):
        logger.warning("SDS %s has zero national baseline at %d; its contributions are "
                       "flagged degenerate", retained[si], years[yi])

    # discipline score of each (UDA, university): sum over its cells in SDS
    # order of (p / p_bar) * (RS / RS_total), degenerate (p_bar = 0) cells adding 0
    members: dict[tuple[str, str], list[tuple[str, int]]] = {}
    groups: dict[tuple[str, str], int] = {}
    for c, (univ, sds) in enumerate(cells):
        members.setdefault(("sds", sds), []).append((univ, c))
        groups.setdefault((corpus.taxonomy.uda_of(sds), univ), len(groups))
    group_of = np.array([groups[(corpus.taxonomy.uda_of(s), u)] for u, s in cells], np.intp)
    share = rs / np.bincount(group_of, weights=rs)[group_of]
    bar = p_bar[sds_of]
    ratio = np.divide(p, bar, out=np.zeros_like(p), where=bar != 0.0)
    value = _sum_rows(group_of, len(groups), ratio * share[:, None])
    for (uda, univ), g in groups.items():
        members.setdefault(("uda", uda), []).append((univ, g))

    scores = {"sds": p.tolist(), "uda": value.tolist()}
    for (level, scope), rows in members.items():
        if level in levels:
            for yi, year in enumerate(years):
                by_univ = {univ: scores[level][r][yi] for univ, r in rows}
                run.rankings[(level, scope, year)] = rank_universities(by_univ, level, scope, year)
    return run


def _citation_matrix(pubs: list, years: list[int]) -> np.ndarray:
    """C[P, Y]; fails naming the years every publication does cover."""
    if not pubs:
        raise AnalysisError("corpus has no publications")
    try:
        return np.array([[pub.citation_counts[y] for y in years] for pub in pubs], dtype=float)
    except KeyError:
        available = set.intersection(*(set(pub.citation_counts) for pub in pubs))
        missing = sorted(set(years) - available)
        raise AnalysisError(
            f"observation year(s) {missing} not covered by every publication; "
            f"years available for all publications: {sorted(available)}"
        ) from None


def _impact_matrix(
    pubs: list, pub_year: np.ndarray, counts: np.ndarray, years: list[int]
) -> tuple[np.ndarray, dict[int, MedianTable]]:
    """I[P, Y] and each year's median table, from one sort of the cited entries."""
    categories: dict[str, int] = {}
    entry_pub, entry_cat, entry_weight = [], [], []
    for i, pub in enumerate(pubs):
        for cat, weight in pub.category_weights:
            entry_pub.append(i)
            entry_cat.append(categories.setdefault(cat, len(categories)))
            entry_weight.append(weight)
    entry_pub = np.array(entry_pub, dtype=np.intp)
    pub_years, year_idx = np.unique(pub_year, return_inverse=True)
    n_years = len(years)
    # median cell (pub_year, category, obs_year) of every entry at every year
    key = year_idx[entry_pub] * len(categories) + np.array(entry_cat, dtype=np.intp)
    cell = key[:, None] * n_years + np.arange(n_years)
    entry_counts = counts[entry_pub]
    cited = entry_counts > 0
    cited_counts, cited_cells = entry_counts[cited], cell[cited]
    order = np.lexsort((cited_counts, cited_cells))
    sorted_cells, sorted_counts = cited_cells[order], cited_counts[order]
    starts = np.flatnonzero(np.diff(sorted_cells, prepend=-1))
    ends = np.append(starts[1:], sorted_cells.size)
    medians = (sorted_counts[(starts + ends - 1) // 2] + sorted_counts[(starts + ends) // 2]) / 2
    cited_medians = np.empty_like(cited_counts)
    cited_medians[order] = np.repeat(medians, ends - starts)
    ratio = np.zeros_like(entry_counts)
    ratio[cited] = cited_counts / cited_medians
    impact = _sum_rows(entry_pub, len(pubs), np.array(entry_weight)[:, None] * ratio)

    names = list(categories)
    tables: dict[int, dict[tuple[int, str], float]] = {y: {} for y in years}
    for key, median in zip(sorted_cells[starts].tolist(), medians.tolist()):
        rest, yi = divmod(key, n_years)
        pyi, ci = divmod(rest, len(names))
        tables[years[yi]][(int(pub_years[pyi]), names[ci])] = median
    return impact, {y: MedianTable(y, t) for y, t in tables.items()}


def _sum_rows(groups: np.ndarray, n_groups: int, x: np.ndarray) -> np.ndarray:
    """Sum the rows of x[N, Y] into n_groups rows, adding them in row order."""
    n_years = x.shape[1]
    bins = (groups[:, None] * n_years + np.arange(n_years)).ravel()
    out = np.bincount(bins, weights=x.ravel(), minlength=n_groups * n_years)
    return out.reshape(n_groups, n_years)
