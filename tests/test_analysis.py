"""The columnar all-years core against the per-year scalar definitions.

Over random small corpora, every median, score and rank that run_analysis
returns must equal, bit for bit, what the scalar definitions in impact.py
and productivity.py give when walked one observation year at a time.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citewin.analysis import run_analysis
from citewin.errors import AnalysisError
from citewin.impact import compute_median_table
from citewin.ingest import representativity_filter
from citewin.productivity import BASELINE_RULES

from conftest import categories_field, corpus_from_rows
from oracles import (compute_baselines, compute_cells, publications, rank_universities, sds_scores,
                     uda_scores)

PERIOD = (2001, 2003)
YEARS = (2004, 2005, 2006, 2007)
TAXONOMY = {"S1": "UA", "S2": "UA", "S3": "UA", "S4": "UB", "S5": "UB"}
UNCITED_SDS = "S3"  # publications with an author in S3 are never cited: a degenerate SDS
CATEGORIES = ("K1", "K2", "K3")
WEIGHT_PAIRS = ((0.5, 0.5), (0.25, 0.75), (0.3, 0.7), (0.1, 0.9))


@st.composite
def corpora(draw):
    researchers = []
    for u in range(draw(st.integers(2, 4))):
        for sds in TAXONOMY:
            # (U0, S1) can hold same-cell co-authors; (U0, S3) keeps the degenerate SDS staffed
            low = {"S1": 2, "S3": 1}.get(sds, 0) if u == 0 else 0
            for i in range(draw(st.integers(low, 3))):
                researchers.append((f"U{u}-{sds}-{i}", f"U{u}", sds))
    ids = [r[0] for r in researchers]
    specs = [  # (authors, pub_year, categories): the cases every corpus includes
        ((ids[0],), 2000, (("K1", 1.0),)),  # outside the publication period
        (("U0-S1-0",), 2002, (("K1", 0.3), ("K2", 0.7))),  # two categories
        (("U0-S1-0", "U0-S1-1"), 2001, (("K2", 1.0),)),  # same-cell co-authors
        (("U0-S3-0",), 2002, (("K3", 1.0),)),  # uncited
    ]
    for _ in range(draw(st.integers(0, 25))):
        authors = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        cats = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=2, unique=True))
        weights = draw(st.sampled_from(WEIGHT_PAIRS)) if len(cats) == 2 else (1.0,)
        specs.append((tuple(authors), draw(st.sampled_from((2000, 2001, 2002, 2003))),
                      tuple(zip(cats, weights))))
    pubs, citations, links = [], [], []
    for n, (authors, year, cats) in enumerate(specs):
        uncited = any(a.split("-")[1] == UNCITED_SDS for a in authors)
        steps = draw(st.lists(st.integers(0, 4), min_size=len(YEARS), max_size=len(YEARS)))
        total = 0
        for obs, step in zip(YEARS, steps):
            total += 0 if uncited else step
            citations.append((f"P{n:03d}", obs, total))
        pubs.append((f"P{n:03d}", year, categories_field(cats)))
        links += [(f"P{n:03d}", a) for a in authors]
    return corpus_from_rows(pubs, citations, links, researchers, sorted(TAXONOMY.items()))


def scalar_rankings(corpus, retained, years, baseline):
    """(median tables, rankings) of the per-year walk over the scalar definitions."""
    tables, rankings, pubs = {}, {}, publications(corpus)
    for year in years:
        tables[year] = table = compute_median_table(pubs, year)
        cells = compute_cells(corpus, retained, PERIOD, year, table)
        baselines = compute_baselines(cells, baseline)
        for sds in sorted(retained):
            scores = sds_scores(cells, sds)
            rankings[("sds", sds, year)] = rank_universities(scores, "sds", sds, year)
        for uda in corpus.uda_ids.tolist():
            values = {u: up.value for u, up in uda_scores(corpus, cells, baselines, uda).items()}
            if values:
                rankings[("uda", uda, year)] = rank_universities(values, "uda", uda, year)
    return tables, rankings


def median_bits(tables):
    """(pub_year, category_id, obs_year, median.hex()) of every cell of the
    per-year tables, in medians.csv order."""
    return [(py, cat, y, m.hex()) for y in sorted(tables)
            for (py, cat), m in sorted(tables[y].medians.items())]


def ranking_bits(rankings):
    return {
        key: [(e.university_id, e.score.hex(), e.rank, e.fractional_rank) for e in r.entries]
        for key, r in rankings.items()
    }


def level_bits(levels):
    """ranking_bits of the rank matrices of every level: each (level, scope,
    year) in ranking order."""
    out = {}
    for name, level in levels.items():
        bounds = level.bounds.tolist()
        for scope, lo, hi in zip(level.scope_ids, bounds, bounds[1:]):
            for y, year in enumerate(level.years):
                out[(name, scope, year)] = [
                    (level.university_ids[r], level.scores[r, y].hex(), int(level.ranks[r, y]),
                     float(level.fractional[r, y]))
                    for r in level.ranked[y, lo:hi].tolist()
                ]
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=corpora(),
    years=st.lists(st.sampled_from(YEARS), min_size=1, max_size=len(YEARS), unique=True),
    baseline=st.sampled_from(BASELINE_RULES),
    threshold=st.sampled_from((0.0, 0.5)),
)
def test_core_equals_scalar_definitions_bit_for_bit(corpus, years, baseline, threshold):
    report = representativity_filter(corpus, PERIOD, threshold)
    retained = report.sds_ids[report.retained].tolist()
    if not retained:
        with pytest.raises(AnalysisError, match="representativity"):
            run_analysis(corpus, PERIOD, years, threshold, baseline)
        return
    run = run_analysis(corpus, PERIOD, years, threshold, baseline)
    tables, rankings = scalar_rankings(corpus, retained, sorted(years), baseline)
    assert [(py, cat, y, m.hex()) for py, cat, y, m in run.medians.tolist()] == median_bits(tables)
    assert level_bits(run.levels) == ranking_bits(rankings)


def test_degenerate_sds_scores_zero_and_contributes_nothing():
    # S3 is staffed and published in, but never cited: its baseline is 0 at every year
    corpus = corpus_from_rows(
        publications=[("P1", 2002, "K1"), ("P2", 2002, "K1"), ("P3", 2002, "K3")],
        citations=[("P1", 2004, 2), ("P2", 2004, 4), ("P3", 2004, 0)],
        authorship=[("P1", "R1"), ("P2", "R2"), ("P3", "R3")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S1"), ("R3", "U1", "S3")],
        fields=[("S1", "UA"), ("S3", "UA")],
    )
    run = run_analysis(corpus, PERIOD, [2004], 0.0, "aggregate")
    sds, uda = run.levels["sds"], run.levels["uda"]
    assert sds.by_scope(sds.scores[:, 0])["S3"] == {"U1": 0.0}
    # U1: S1 at 2/3 of the baseline, weighted by half its staff; S3 adds 0
    assert uda.by_scope(uda.scores[:, 0])["UA"] == {"U1": (1.0 / 1.5) * 0.5, "U2": 2.0 / 1.5}
    assert run.degenerate == [["S3", 2004]]


def test_missing_year_names_the_years_every_publication_covers():
    corpus = corpus_from_rows(
        publications=[("P1", 2002, "K1"), ("P2", 2002, "K1")],
        citations=[("P1", 2004, 1), ("P1", 2005, 1), ("P2", 2004, 1)],
        authorship=[("P1", "R1")],
        researchers=[("R1", "U1", "S1")],
        fields=[("S1", "UA")],
    )
    with pytest.raises(AnalysisError, match=r"year\(s\) \[2005\] not covered .* \[2004\]$"):
        run_analysis(corpus, PERIOD, [2004, 2005], 0.5, "aggregate")
