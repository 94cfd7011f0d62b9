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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AnalysisError
from .ingest import BASELINE_RULES, Corpus, RepresentativityReport, representativity_filter
from .sensitivity import LevelRanks, rank_scopes


@dataclass(frozen=True, eq=False)
class AnalysisRun:
    """Both levels' scores and ranks at every scope and year, the median of
    every (obs_year, pub_year, category) cell in that order, provenance, and
    [sds_id, obs_year] of each zero national baseline in (SDS, year) order,
    whose cells add 0 to their discipline's score."""

    report: RepresentativityReport
    medians: np.recarray  # fields pub_year, category_id, obs_year, median
    levels: dict[str, LevelRanks]  # "uda" and "sds"
    degenerate: list[list]


def run_analysis(
    corpus: Corpus,
    pub_period: tuple[int, int],
    years: Sequence[int],
    threshold: float,
    baseline: str,
) -> AnalysisRun:
    """Full pipeline (filter, medians, impact, strength, productivity, rank)."""
    years = sorted(set(years))
    counts = _citation_matrix(corpus, years)
    report = representativity_filter(corpus, pub_period, threshold)
    if not report.retained.any():
        raise AnalysisError(f"no SDS passes the representativity filter at threshold {threshold}")
    if baseline not in BASELINE_RULES:
        raise ValueError(f"unknown baseline rule {baseline!r}; expected one of {BASELINE_RULES}")
    impact, medians = _impact_matrix(corpus, counts, years)

    # staffed cells of the retained SDSs keyed sds * U + university, i.e. in
    # (SDS, university) order; (cell, publication) pairs in pub_id order
    sds_ids, uda_ids, univ = corpus.sds_ids, corpus.uda_ids, corpus.universities
    n_univ, n_pubs = len(univ), len(corpus.pub_ids)
    retained = np.flatnonzero(report.retained)
    cell_of = corpus.res_sds * n_univ + corpus.res_univ
    staff = np.bincount(cell_of, minlength=len(sds_ids) * n_univ)
    kept = np.repeat(report.retained, n_univ)
    keys = np.flatnonzero(kept & (staff > 0))
    cell_sds, cell_univ = np.divmod(keys, n_univ)
    # the distinct pairs, sorted: plain np.unique would import numpy.ma
    pairs = np.sort(cell_of[corpus.link_res] * n_pubs + corpus.link_pub)
    cell, pub = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n_pubs)
    py = corpus.pub_year[pub]
    inc = np.stack([np.searchsorted(keys, cell), pub], axis=1)
    inc = inc[kept[cell] & (py >= pub_period[0]) & (py <= pub_period[1])]
    rs = staff[keys].astype(float)
    ss = _sum_rows(inc[:, 0], len(keys), impact[inc[:, 1]])
    p = ss / rs[:, None]

    sds_of = np.searchsorted(retained, cell_sds)
    if baseline == "aggregate":
        p_bar = _sum_rows(sds_of, len(retained), ss) / np.bincount(sds_of, weights=rs)[:, None]
    else:
        p_bar = _sum_rows(sds_of, len(retained), p) / np.bincount(sds_of)[:, None]
    degenerate = [[str(sds_ids[retained[si]]), years[yi]]
                  for si, yi in np.argwhere(p_bar == 0.0).tolist()]

    # score of each (UDA, university), keyed uda * U + university: sum over its cells in SDS
    # order of (p / p_bar) * (RS / RS_total), degenerate (p_bar = 0) cells adding 0
    groups, group_of = np.unique(corpus.sds_uda[cell_sds] * n_univ + cell_univ, return_inverse=True)
    share = rs / np.bincount(group_of, weights=rs)[group_of]
    bar = p_bar[sds_of]
    ratio = np.divide(p, bar, out=np.zeros_like(p), where=bar != 0.0)
    value = _sum_rows(group_of, len(groups), ratio * share[:, None])

    return AnalysisRun(report, medians, {
        "uda": rank_scopes("uda", uda_ids[groups // n_univ], univ[groups % n_univ], years, value),
        "sds": rank_scopes("sds", sds_ids[cell_sds], univ[cell_univ], years, p),
    }, degenerate)


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
) -> tuple[np.ndarray, np.recarray]:
    """I[P, Y] and the median records, from one sort of the cited entries."""
    entry_pub, n_cats = corpus.entry_pub, len(corpus.categories)
    pub_years, year_idx = np.unique(corpus.pub_year, return_inverse=True)
    n_keys = len(pub_years) * n_cats
    # median cell (obs_year, pub_year, category) of every entry at every year
    key = year_idx[entry_pub] * n_cats + corpus.entry_cat
    cell = np.arange(len(years)) * n_keys + key[:, None]
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

    yi, key = np.divmod(sorted_cells[starts], n_keys)
    pyi, ci = np.divmod(key, n_cats)
    records = np.rec.fromarrays([pub_years[pyi], corpus.categories[ci], np.asarray(years)[yi],
                                 medians], names="pub_year,category_id,obs_year,median")
    records.flags.writeable = False
    return impact, records


def _sum_rows(groups: np.ndarray, n_groups: int, x: np.ndarray) -> np.ndarray:
    """Sum the rows of x[N, Y] into n_groups rows, adding them in row order."""
    n_years = x.shape[1]
    bins = (groups[:, None] * n_years + np.arange(n_years)).ravel()
    out = np.bincount(bins, weights=x.ravel(), minlength=n_groups * n_years)
    return out.reshape(n_groups, n_years)
