"""Corpus model: record invariants, referential integrity, index construction."""

from __future__ import annotations

import numpy as np
import pytest

from citewin.corpus import (
    AuthorshipLink,
    FieldTaxonomy,
    PublicationRecord,
    ResearcherRecord,
    build_corpus,
)
from citewin.errors import IntegrityError
from citewin.ingest import load_corpus

from conftest import make_random_corpus, write_corpus_dir

TAX = FieldTaxonomy({"S1": "UA", "S2": "UA", "S3": "UB"})


def pub(pid="P1", year=2001, cats=(("K1", 1.0),), counts=None):
    return PublicationRecord(pid, year, tuple(cats), counts if counts is not None else {2004: 1})


def test_minimal_corpus_indexed():
    corpus = build_corpus(
        [pub()],
        [ResearcherRecord("R1", "U1", "S1")],
        [AuthorshipLink("P1", "R1")],
        TAX,
    )
    assert corpus.pubs_by_cell == {("U1", "S1"): ("P1",)}
    assert corpus.researchers_by_cell == {("U1", "S1"): ("R1",)}
    assert corpus.cell_staff_count("U1", "S1") == 1


def test_dangling_pub_reference_names_record():
    with pytest.raises(IntegrityError, match="X9"):
        build_corpus(
            [pub()],
            [ResearcherRecord("R1", "U1", "S1")],
            [AuthorshipLink("X9", "R1")],
            TAX,
        )


def test_cross_university_coauthorship_indexes_both_cells():
    corpus = build_corpus(
        [pub()],
        [ResearcherRecord("R1", "U1", "S1"), ResearcherRecord("R2", "U2", "S2")],
        [AuthorshipLink("P1", "R1"), AuthorshipLink("P1", "R2")],
        TAX,
    )
    assert corpus.cell_pubs("U1", "S1") == ("P1",)
    assert corpus.cell_pubs("U2", "S2") == ("P1",)


def test_same_cell_coauthors_count_publication_once():
    corpus = build_corpus(
        [pub()],
        [ResearcherRecord("R1", "U1", "S1"), ResearcherRecord("R2", "U1", "S1")],
        [AuthorshipLink("P1", "R1"), AuthorshipLink("P1", "R2")],
        TAX,
    )
    assert corpus.cell_pubs("U1", "S1") == ("P1",)


@pytest.mark.parametrize(
    "bad",
    [
        pub(cats=()),  # no categories
        pub(cats=(("K1", 0.4), ("K2", 0.4))),  # weights sum 0.8
        pub(cats=(("K1", 1.5),)),  # weight outside (0, 1]
        pub(cats=(("K1", 0.5), ("K1", 0.5))),  # duplicate category
        pub(counts={2004: 5, 2005: 3}),  # decreasing cumulative counts
        pub(counts={2000: 1}),  # observation before publication year
        pub(counts={2004: -1}),  # negative count
    ],
)
def test_invalid_publication_rejected(bad):
    with pytest.raises(IntegrityError, match="publication 'P1'"):
        build_corpus([bad], [], [], TAX)


def test_duplicate_ids_rejected():
    with pytest.raises(IntegrityError, match="duplicate pub_id"):
        build_corpus([pub(), pub()], [], [], TAX)
    with pytest.raises(IntegrityError, match="duplicate researcher_id"):
        build_corpus(
            [], [ResearcherRecord("R1", "U1", "S1"), ResearcherRecord("R1", "U2", "S2")], [], TAX
        )
    with pytest.raises(IntegrityError, match="duplicate authorship"):
        build_corpus(
            [pub()],
            [ResearcherRecord("R1", "U1", "S1")],
            [AuthorshipLink("P1", "R1"), AuthorshipLink("P1", "R1")],
            TAX,
        )


def test_unknown_sds_rejected():
    with pytest.raises(IntegrityError, match="S9"):
        build_corpus([], [ResearcherRecord("R1", "U1", "S9")], [], TAX)


@pytest.mark.parametrize("seed", range(6))
def test_indexes_match_full_rescan(seed):
    corpus = make_random_corpus(seed)

    expected_pubs: dict = {}
    for link in corpus.authorships:
        res = corpus.researchers[link.researcher_id]
        expected_pubs.setdefault((res.university_id, res.sds_id), set()).add(link.pub_id)
    assert {cell: set(pids) for cell, pids in corpus.pubs_by_cell.items()} == expected_pubs

    expected_staff: dict = {}
    for res in corpus.researchers.values():
        expected_staff.setdefault((res.university_id, res.sds_id), set()).add(res.researcher_id)
    assert {
        cell: set(rids) for cell, rids in corpus.researchers_by_cell.items()
    } == expected_staff

    # rebuilding from the raw collections is idempotent
    rebuilt = build_corpus(
        corpus.publications.values(),
        corpus.researchers.values(),
        corpus.authorships,
        corpus.taxonomy,
    )
    assert rebuilt.pubs_by_cell == corpus.pubs_by_cell
    assert rebuilt.researchers_by_cell == corpus.researchers_by_cell
    assert rebuilt.pubs_by_researcher == corpus.pubs_by_researcher


@pytest.mark.parametrize("seed", range(4))
def test_random_corpus_record_invariants(seed):
    corpus = make_random_corpus(seed)
    for p in corpus.publications.values():
        assert abs(sum(w for _c, w in p.category_weights) - 1.0) <= 1e-9
        years = sorted(p.citation_counts)
        for a, b in zip(years, years[1:]):
            assert p.citation_counts[a] <= p.citation_counts[b]
        assert all(y >= p.pub_year for y in years)


def test_corpus_columns_are_read_only(tmp_path):
    built = make_random_corpus(0)
    root = write_corpus_dir(
        tmp_path / "corpus",
        publications=[("P1", 2001, "K1"), ("P2", 2002, "K1:0.5;K2:0.5")],
        citations=[("P1", 2004, 2), ("P1", 2005, 3), ("P2", 2004, 0)],
        authorship=[("P1", "R1"), ("P2", "R2")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S2")],
        fields=[("S1", "UA"), ("S2", "UA")],
    )
    loaded = load_corpus(root)
    for corpus in (built, loaded):
        first = corpus.pub_ids[0]
        before = corpus.publications[first].citation_counts
        with pytest.raises(ValueError, match="read-only"):
            corpus.counts[0, :] = 99
        assert corpus.publications[first].citation_counts == before
        columns = [v for v in vars(corpus).values() if isinstance(v, np.ndarray)]
        assert len(columns) == 15
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[...] = column
