"""Scientific strength, productivity cells, baselines, and discipline scores."""

from __future__ import annotations

import pytest

from citewin.errors import AnalysisError
from citewin.impact import compute_median_table
from citewin.productivity import (
    NationalBaseline,
    ProductivityCell,
    national_baseline,
    scientific_strength,
    sds_productivity,
    uda_productivity,
)

from conftest import GOLDEN_SDS_ROWS, GOLDEN_TOTAL_P, corpus_from_rows, make_random_corpus
from oracles import cell_pubs, compute_baselines, compute_cells, publications, uda_scores

FIELDS = [("S1", "UA"), ("S2", "UA")]
PERIOD = (2001, 2003)


def anchored_cell_corpus():
    """U1's S1 cell holds pubs with impact scores 1.0, 0.5, 0.0.

    Author-less anchor publications {2, 2} pin the cell median to 2.
    """
    counts = {"A1": 2, "A2": 2, "P1": 2, "P2": 1, "P3": 0}
    return corpus_from_rows(
        publications=[(pid, 2001, "K1") for pid in counts],
        citations=[(pid, 2004, c) for pid, c in counts.items()],
        authorship=[("P1", "R1"), ("P2", "R1"), ("P3", "R1")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S1")],
        fields=FIELDS,
    )


def cell_records(corpus, pubs, university_id, sds_id):
    """The PublicationRecords of one cell's distinct publications, in pub_id order."""
    return [pubs[pid] for pid in cell_pubs(corpus, university_id, sds_id)]


def test_scientific_strength_sums_impact_scores():
    corpus = anchored_cell_corpus()
    pubs = publications(corpus)
    table = compute_median_table(pubs, 2004)
    assert table.median_for(2001, "K1") == 2.0
    assert scientific_strength(cell_records(corpus, pubs, "U1", "S1"), PERIOD, 2004, table) == 1.5


def test_scientific_strength_empty_cell_is_zero():
    corpus = anchored_cell_corpus()
    pubs = publications(corpus)
    table = compute_median_table(pubs, 2004)
    assert scientific_strength(cell_records(corpus, pubs, "U2", "S1"), PERIOD, 2004, table) == 0.0


def test_scientific_strength_respects_period():
    corpus = corpus_from_rows(
        publications=[("P1", 1999, "K1"), ("P2", 2001, "K1")],
        citations=[("P1", 2004, 4), ("P2", 2004, 4)],
        authorship=[("P1", "R1"), ("P2", "R1")],
        researchers=[("R1", "U1", "S1")],
        fields=FIELDS,
    )
    pubs = publications(corpus)
    table = compute_median_table(pubs, 2004)
    assert scientific_strength(cell_records(corpus, pubs, "U1", "S1"), PERIOD, 2004, table) == 1.0


def test_cross_university_pub_counts_in_both_cells():
    counts = {"A1": 1, "A2": 1, "A3": 1, "P1": 2}
    corpus = corpus_from_rows(
        publications=[(pid, 2001, "K1") for pid in counts],
        citations=[(pid, 2004, c) for pid, c in counts.items()],
        authorship=[("P1", "R1"), ("P1", "R2")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S1")],
        fields=FIELDS,
    )
    pubs = publications(corpus)
    table = compute_median_table(pubs, 2004)
    score = 2.0  # count 2 over cell median 1
    assert scientific_strength(cell_records(corpus, pubs, "U1", "S1"), PERIOD, 2004, table) == score
    assert scientific_strength(cell_records(corpus, pubs, "U2", "S1"), PERIOD, 2004, table) == score


@pytest.mark.parametrize(
    "ss,rs,expected",
    [(4.128, 13, 0.318), (33.791, 60, 0.563), (0.0, 5, 0.0)],
)
def test_sds_productivity_ratio(ss, rs, expected):
    cell = sds_productivity("U1", "S1", 2008, ss, rs)
    assert round(cell.p, 3) == expected


def test_sds_productivity_requires_staff():
    with pytest.raises(ValueError):
        sds_productivity("U1", "S1", 2008, 1.0, 0)


def cell(univ, ss, rs, sds="S1", year=2008):
    return ProductivityCell(univ, sds, year, ss, rs, ss / rs)


def test_national_baseline_aggregate():
    baseline = national_baseline([cell("U1", 2.0, 2), cell("U2", 4.0, 2)])
    assert baseline.p_bar == 1.5


def test_national_baseline_single_university():
    assert national_baseline([cell("U1", 3.0, 3)]).p_bar == 1.0


def test_national_baseline_all_zero():
    assert national_baseline([cell("U1", 0.0, 3), cell("U2", 0.0, 2)]).p_bar == 0.0


def test_national_baseline_mean_rule():
    baseline = national_baseline([cell("U1", 2.0, 2), cell("U2", 4.0, 2)], rule="mean")
    assert baseline.p_bar == 1.5  # (1.0 + 2.0) / 2
    baseline = national_baseline([cell("U1", 2.0, 4), cell("U2", 4.0, 2)], rule="mean")
    assert baseline.p_bar == 1.25


def test_national_baseline_requires_cells():
    with pytest.raises(AnalysisError):
        national_baseline([])


def golden_inputs():
    cells = []
    baselines = {}
    for sds, rs, _n_pubs, ss, p_bar, _contrib in GOLDEN_SDS_ROWS:
        cells.append(ProductivityCell("UNINA", sds, 2008, ss, rs, ss / rs))
        baselines[sds] = NationalBaseline(sds, 2008, p_bar)
    return cells, baselines


def test_uda_productivity_reproduces_golden_table():
    cells, baselines = golden_inputs()
    result = uda_productivity("UNINA", "MATH", cells, baselines)
    assert result.rs == 162
    assert abs(result.value - GOLDEN_TOTAL_P) <= 0.001
    assert result.value == pytest.approx(
        sum(c.value for c in result.contributions), abs=1e-12
    )
    by_sds = {c.sds_id: c for c in result.contributions}
    for sds, _rs, _n, _ss, _p_bar, contrib in GOLDEN_SDS_ROWS:
        assert abs(by_sds[sds].value - contrib) <= 0.001


def test_uda_productivity_unit_ratio_single_sds():
    cells = [cell("U1", 3.0, 3)]
    baselines = {"S1": NationalBaseline("S1", 2008, 1.0)}
    assert uda_productivity("U1", "UA", cells, baselines).value == 1.0


def test_uda_productivity_degenerate_baseline():
    cells = [cell("U1", 0.0, 3), cell("U1", 4.0, 2, sds="S2")]
    baselines = {
        "S1": NationalBaseline("S1", 2008, 0.0),
        "S2": NationalBaseline("S2", 2008, 2.0),
    }
    result = uda_productivity("U1", "UA", cells, baselines)
    degenerate = [c for c in result.contributions if c.degenerate]
    assert len(degenerate) == 1 and degenerate[0].value == 0.0
    assert result.value == (2.0 / 2.0) * (2 / 5)


def test_uda_productivity_zero_baseline_with_positive_p_is_error():
    cells = [cell("U1", 1.0, 2)]
    baselines = {"S1": NationalBaseline("S1", 2008, 0.0)}
    with pytest.raises(AnalysisError, match="p_bar = 0"):
        uda_productivity("U1", "UA", cells, baselines)


def test_uda_productivity_missing_baseline():
    with pytest.raises(AnalysisError, match="baseline"):
        uda_productivity("U1", "UA", [cell("U1", 1.0, 2)], {})


# ---------------------------------------------------------------------------
# whole-corpus identities


@pytest.mark.parametrize("seed", range(5))
def test_per_sds_weighted_ratio_sums_to_one(seed):
    corpus = make_random_corpus(seed)
    table = compute_median_table(publications(corpus), 2006)
    retained = corpus.sds_ids.tolist()
    cells = compute_cells(corpus, retained, PERIOD, 2006, table)
    baselines = compute_baselines(cells)
    by_sds: dict[str, list] = {}
    for c in cells.values():
        by_sds.setdefault(c.sds_id, []).append(c)
    for sds, group in by_sds.items():
        p_bar = baselines[sds].p_bar
        assert p_bar > 0, f"degenerate SDS {sds} in seed {seed}"
        rs_total = sum(c.rs for c in group)
        total = sum((c.rs / rs_total) * (c.p / p_bar) for c in group)
        assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_rs_weighted_mean_of_uda_productivity_is_one(seed):
    corpus = make_random_corpus(seed)
    table = compute_median_table(publications(corpus), 2006)
    cells = compute_cells(corpus, corpus.sds_ids.tolist(), PERIOD, 2006, table)
    baselines = compute_baselines(cells)
    for uda in corpus.uda_ids.tolist():
        scores = uda_scores(corpus, cells, baselines, uda)
        weighted = sum(up.rs * up.value for up in scores.values())
        total_rs = sum(up.rs for up in scores.values())
        assert abs(weighted / total_rs - 1.0) <= 1e-9
