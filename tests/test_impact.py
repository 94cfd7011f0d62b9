"""Median table construction and the impact score."""

from __future__ import annotations

import pytest

from citewin.errors import AnalysisError
from citewin.impact import (MedianTable, PublicationRecord, article_impact_index,
                            compute_median_table)

from conftest import corpus_from_rows, make_random_corpus, scale_citations
from oracles import publications


def corpus_with_counts(counts_by_pub: dict[str, int], cat="K1", year=2001, obs=2004):
    return corpus_from_rows(
        publications=[(pid, year, cat) for pid in counts_by_pub],
        citations=[(pid, obs, c) for pid, c in counts_by_pub.items()],
        fields=[("S1", "UA")],
    )


def test_median_excludes_uncited_and_uses_midpoint():
    corpus = corpus_with_counts({"P1": 0, "P2": 0, "P3": 3, "P4": 5})
    table = compute_median_table(publications(corpus), 2004)
    assert table.median_for(2001, "K1") == 4.0


def test_median_single_cited_pub():
    corpus = corpus_with_counts({"P1": 2})
    table = compute_median_table(publications(corpus), 2004)
    assert table.median_for(2001, "K1") == 2.0


def test_all_uncited_cell_has_no_entry():
    corpus = corpus_with_counts({"P1": 0, "P2": 0})
    table = compute_median_table(publications(corpus), 2004)
    assert table.median_for(2001, "K1") is None
    assert table.medians == {}


def test_missing_observation_year_fails_fast():
    corpus = corpus_with_counts({"P1": 1})
    with pytest.raises(AnalysisError, match="P1"):
        compute_median_table(publications(corpus), 2005)


def test_impact_identity_at_median():
    pub = PublicationRecord("P1", 2001, (("K1", 1.0),), {2004: 3})
    table = MedianTable(2004, {(2001, "K1"): 3.0})
    assert article_impact_index(pub, 2004, table) == 1.0


def test_impact_weighted_average_across_categories():
    pub = PublicationRecord("P1", 2001, (("A", 0.5), ("B", 0.5)), {2004: 4})
    table = MedianTable(2004, {(2001, "A"): 2.0, (2001, "B"): 8.0})
    assert article_impact_index(pub, 2004, table) == 1.25


def test_uncited_publication_scores_zero():
    pub = PublicationRecord("P1", 2001, (("A", 0.5), ("B", 0.5)), {2004: 0})
    assert article_impact_index(pub, 2004, MedianTable(2004, {})) == 0.0


def test_inconsistent_table_names_pub_and_category():
    pub = PublicationRecord("P1", 2001, (("A", 0.5), ("B", 0.5)), {2004: 4})
    table = MedianTable(2004, {(2001, "A"): 2.0})
    with pytest.raises(AnalysisError) as err:
        article_impact_index(pub, 2004, table)
    assert "P1" in str(err.value) and "'B'" in str(err.value)


def test_impact_strictly_increasing_in_citations_within_cell():
    corpus = corpus_with_counts({"P1": 1, "P2": 2, "P3": 5, "P4": 9})
    pubs = publications(corpus)
    table = compute_median_table(pubs, 2004)
    scores = [
        article_impact_index(pubs[p], 2004, table)
        for p in ("P1", "P2", "P3", "P4")
    ]
    assert scores == sorted(scores)
    assert len(set(scores)) == 4


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3])
def test_scale_invariance_of_impact(seed, k):
    corpus = make_random_corpus(seed)
    pubs, scaled = publications(corpus), publications(scale_citations(corpus, k))
    for obs in (2004, 2006, 2008):
        table = compute_median_table(pubs, obs)
        scaled_table = compute_median_table(scaled, obs)
        for pid in pubs:
            before = article_impact_index(pubs[pid], obs, table)
            after = article_impact_index(scaled[pid], obs, scaled_table)
            assert before == after  # bit-identical, not merely close
