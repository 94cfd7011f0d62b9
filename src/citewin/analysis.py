"""The analysis pipeline: one columnar pass over every observation year.

The corpus columns give the citation matrix C[P, Y] of the publications
(in pub_id order) at the requested years, the (publication, category,
weight) entries, the deduplicated (cell, publication) incidence and the
staff of each (university, SDS) cell. Medians, impact scores, cell
strengths, baselines and discipline scores then come out for all years at
once. Every sum is a np.bincount over entries in the order the scalar
definitions in impact.py and productivity.py add them, so each score is
bit-identical to theirs. Each level's [scope x university, year] score
matrix is then ranked for every year at once (sensitivity.rank_scopes).
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
from .sensitivity import LevelRanks, rank_scopes

logger = logging.getLogger(__name__)


@dataclass
class AnalysisRun:
    """Scores and ranks of every requested level, scope and year, plus provenance."""

    corpus: Corpus
    report: RepresentativityReport
    median_tables: dict[int, MedianTable] = field(default_factory=dict)
    levels: dict[str, LevelRanks] = field(default_factory=dict)


def run_analysis(
    corpus: Corpus,
    pub_period: tuple[int, int],
    years: Sequence[int],
    threshold: float,
    baseline: str,
    levels: Sequence[str] = ("uda", "sds"),
) -> AnalysisRun:
    """Full pipeline (filter, medians, impact, strength, productivity, rank)."""
    years = sorted(set(years))
    counts = _citation_matrix(corpus, years)
    report = representativity_filter(corpus, pub_period, threshold)
    retained = sorted(report.retained_sds())
    if not retained:
        raise AnalysisError(f"no SDS passes the representativity filter at threshold {threshold}")
    if baseline not in BASELINE_RULES:
        raise ValueError(f"unknown baseline rule {baseline!r}; expected one of {BASELINE_RULES}")
    impact, tables = _impact_matrix(corpus, counts, years)
    run = AnalysisRun(corpus=corpus, report=report, median_tables=tables)

    # staffed cells of the retained SDSs keyed sds * U + university, i.e. in
    # (SDS, university) order; (cell, publication) pairs in pub_id order
    sds_ids, univ = corpus.taxonomy.sds_ids, corpus.universities.tolist()
    n_pubs = len(corpus.pub_ids)
    cell_of = corpus.res_sds * len(univ) + corpus.res_univ
    staff = np.bincount(cell_of, minlength=len(sds_ids) * len(univ))
    kept = np.repeat(np.isin(sds_ids, retained), len(univ))
    keys = np.flatnonzero(kept & (staff > 0))
    cells = [(univ[k % len(univ)], sds_ids[k // len(univ)]) for k in keys.tolist()]
    cell, pub = np.divmod(np.unique(cell_of[corpus.link_res] * n_pubs + corpus.link_pub), n_pubs)
    py = corpus.pub_year[pub]
    inc = np.stack([np.searchsorted(keys, cell), pub], axis=1)
    inc = inc[kept[cell] & (py >= pub_period[0]) & (py <= pub_period[1])]
    rs = staff[keys].astype(float)
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
    groups: dict[tuple[str, str], int] = {}
    for u, s in cells:
        groups.setdefault((corpus.taxonomy.uda_of(s), u), len(groups))
    group_of = np.array([groups[(corpus.taxonomy.uda_of(s), u)] for u, s in cells], np.intp)
    share = rs / np.bincount(group_of, weights=rs)[group_of]
    bar = p_bar[sds_of]
    ratio = np.divide(p, bar, out=np.zeros_like(p), where=bar != 0.0)
    value = _sum_rows(group_of, len(groups), ratio * share[:, None])

    scored = {"uda": (list(groups), value), "sds": ([(s, u) for u, s in cells], p)}
    for level, (pairs, scores) in scored.items():
        if level in levels:
            run.levels[level] = rank_scopes(level, pairs, years, scores)
    return run


def _citation_matrix(corpus: Corpus, years: list[int]) -> np.ndarray:
    """C[P, Y]; fails naming the years every publication does cover."""
    if not len(corpus.pub_ids):
        raise AnalysisError("corpus has no publications")
    available = corpus.obs_years[corpus.present.all(axis=0)].tolist()
    missing = sorted(set(years) - set(available))
    if missing:
        raise AnalysisError(
            f"observation year(s) {missing} not covered by every publication; "
            f"years available for all publications: {available}"
        )
    return corpus.counts[:, np.searchsorted(corpus.obs_years, years)].astype(float)


def _impact_matrix(
    corpus: Corpus, counts: np.ndarray, years: list[int]
) -> tuple[np.ndarray, dict[int, MedianTable]]:
    """I[P, Y] and each year's median table, from one sort of the cited entries."""
    entry_pub, n_cats = corpus.entry_pub, len(corpus.categories)
    pub_years, year_idx = np.unique(corpus.pub_year, return_inverse=True)
    n_years = len(years)
    # median cell (pub_year, category, obs_year) of every entry at every year
    key = year_idx[entry_pub] * n_cats + corpus.entry_cat
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
    impact = _sum_rows(entry_pub, len(corpus.pub_ids), corpus.entry_weight[:, None] * ratio)

    names = corpus.categories.tolist()
    tables: dict[int, dict[tuple[int, str], float]] = {y: {} for y in years}
    for key, median in zip(sorted_cells[starts].tolist(), medians.tolist()):
        rest, yi = divmod(key, n_years)
        pyi, ci = divmod(rest, n_cats)
        tables[years[yi]][(int(pub_years[pyi]), names[ci])] = median
    return impact, {y: MedianTable(y, t) for y, t in tables.items()}


def _sum_rows(groups: np.ndarray, n_groups: int, x: np.ndarray) -> np.ndarray:
    """Sum the rows of x[N, Y] into n_groups rows, adding them in row order."""
    n_years = x.shape[1]
    bins = (groups[:, None] * n_years + np.arange(n_years)).ravel()
    out = np.bincount(bins, weights=x.ravel(), minlength=n_groups * n_years)
    return out.reshape(n_groups, n_years)
