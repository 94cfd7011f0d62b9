"""CSV loading, parse errors with file/line, and the representativity filter."""

from __future__ import annotations

import pytest

from citewin.errors import IntegrityError, MissingInputError, ParseError
from citewin.ingest import load_corpus, representativity_filter

from conftest import make_random_corpus, write_corpus_dir


def small_fixture(tmp_path, **overrides):
    data = dict(
        publications=[
            ("P1", 2001, "K1"),
            ("P2", 2002, "K1:0.5;K2:0.5"),
            ("P3", 2003, "K1;K2"),
        ],
        citations=[
            ("P1", 2004, 2),
            ("P1", 2005, 3),
            ("P2", 2004, 0),
            ("P2", 2005, 1),
            ("P3", 2004, 1),
            ("P3", 2005, 1),
        ],
        authorship=[("P1", "R1"), ("P2", "R2"), ("P3", "R3"), ("P3", "R4")],
        researchers=[
            ("R1", "U1", "S1"),
            ("R2", "U1", "S2"),
            ("R3", "U2", "S1"),
            ("R4", "U2", "S2"),
        ],
        fields=[("S1", "UA"), ("S2", "UA")],
    )
    data.update(overrides)
    return write_corpus_dir(tmp_path / "corpus", **data)


def test_round_trip(tmp_path):
    corpus = load_corpus(small_fixture(tmp_path))
    assert len(corpus.publications) == 3
    assert len(corpus.researchers) == 4
    assert corpus.publications["P2"].category_weights == (("K1", 0.5), ("K2", 0.5))
    # omitted weights become uniform
    assert corpus.publications["P3"].category_weights == (("K1", 0.5), ("K2", 0.5))


def test_weight_sum_violation_names_row(tmp_path):
    path = small_fixture(tmp_path, publications=[("P1", 2001, "K1:0.5;K2:0.3")])
    with pytest.raises(ParseError, match=r"publications\.csv:2"):
        load_corpus(path)


def test_decreasing_citations_is_monotonicity_error(tmp_path):
    path = small_fixture(
        tmp_path,
        citations=[
            ("P1", 2004, 5),
            ("P1", 2005, 3),
            ("P2", 2004, 0),
            ("P3", 2004, 1),
        ],
    )
    with pytest.raises(ParseError, match="decrease") as err:
        load_corpus(path)
    assert "citations.csv" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["1_000", " 5", "5 ", "+5", "\u0665", "\uff15", "5.0", "", "-"],
    ids=["underscore", "leading-space", "trailing-space", "plus-sign", "arabic-indic-digit",
         "fullwidth-digit", "decimal", "empty", "bare-minus"],
)
def test_count_outside_strict_integer_grammar_rejected(tmp_path, text):
    path = small_fixture(tmp_path, citations=[("P1", 2004, 2), ("P1", 2005, text)])
    with pytest.raises(ParseError, match=r"citations\.csv:3: cum_citations .* is not an integer"):
        load_corpus(path)


def test_publication_year_outside_strict_integer_grammar_rejected(tmp_path):
    path = small_fixture(tmp_path, publications=[("P1", 2001, "K1"), ("P2", "+2002", "K1")])
    with pytest.raises(ParseError, match=r"publications\.csv:3: pub_year"):
        load_corpus(path)


def test_negative_count_reaches_its_own_message(tmp_path):
    path = small_fixture(tmp_path, citations=[("P1", 2004, -3)])
    with pytest.raises(ParseError, match=r"citations\.csv:2: negative citation count -3"):
        load_corpus(path)


def test_missing_files(tmp_path):
    with pytest.raises(MissingInputError):
        load_corpus(tmp_path / "nowhere")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingInputError, match="publications.csv"):
        load_corpus(empty)


def test_bad_header(tmp_path):
    path = small_fixture(tmp_path)
    (path / "fields.csv").write_text("sds,uda\nS1,UA\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"fields\.csv:1"):
        load_corpus(path)


def test_mixed_weight_style_rejected(tmp_path):
    path = small_fixture(tmp_path, publications=[("P1", 2001, "K1:0.5;K2")])
    with pytest.raises(ParseError, match="mixed"):
        load_corpus(path)


def test_bad_id_characters_rejected(tmp_path):
    path = small_fixture(tmp_path, researchers=[("R 1", "U1", "S1")])
    with pytest.raises(ParseError, match="researcher_id"):
        load_corpus(path)


def test_unknown_citation_pub(tmp_path):
    path = small_fixture(tmp_path, citations=[("P9", 2004, 1)])
    with pytest.raises(ParseError, match="P9"):
        load_corpus(path)


def test_dangling_authorship_is_integrity_error(tmp_path):
    path = small_fixture(tmp_path, authorship=[("P1", "R9")])
    with pytest.raises(IntegrityError, match="R9"):
        load_corpus(path)


# ---------------------------------------------------------------------------
# representativity filter


def coverage_corpus(publishing: int, staff: int):
    """One SDS with `staff` researchers of which `publishing` have a publication."""
    from citewin.corpus import (
        AuthorshipLink,
        FieldTaxonomy,
        PublicationRecord,
        ResearcherRecord,
        build_corpus,
    )

    researchers = [ResearcherRecord(f"R{i}", "U1", "S1") for i in range(staff)]
    pubs = [
        PublicationRecord(f"P{i}", 2002, (("K1", 1.0),), {2004: 1}) for i in range(publishing)
    ]
    links = [AuthorshipLink(f"P{i}", f"R{i}") for i in range(publishing)]
    return build_corpus(pubs, researchers, links, FieldTaxonomy({"S1": "UA"}))


def test_filter_threshold_is_inclusive():
    report = representativity_filter(coverage_corpus(5, 10), (2001, 2003), 0.5)
    (row,) = report.rows
    assert row.coverage == 0.5
    assert row.retained


def test_filter_below_threshold_excluded():
    report = representativity_filter(coverage_corpus(4, 10), (2001, 2003), 0.5)
    (row,) = report.rows
    assert not row.retained


def test_filter_empty_sds_flagged():
    from citewin.corpus import FieldTaxonomy, build_corpus

    corpus = build_corpus([], [], [], FieldTaxonomy({"S1": "UA"}))
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    (row,) = report.rows
    assert row.empty and not row.retained and row.coverage is None


def test_filter_counts_only_period_publications():
    from citewin.corpus import (
        AuthorshipLink,
        FieldTaxonomy,
        PublicationRecord,
        ResearcherRecord,
        build_corpus,
    )

    corpus = build_corpus(
        [PublicationRecord("P1", 1999, (("K1", 1.0),), {2004: 1})],
        [ResearcherRecord("R1", "U1", "S1"), ResearcherRecord("R2", "U1", "S1")],
        [AuthorshipLink("P1", "R1")],
        FieldTaxonomy({"S1": "UA"}),
    )
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    assert report.rows[0].publishing_staff == 0


@pytest.mark.parametrize("seed", range(4))
def test_filter_monotone_in_threshold(seed):
    corpus = make_random_corpus(seed, pub_rate=0.4)
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    retained = [
        representativity_filter(corpus, (2001, 2003), t).retained_sds() for t in thresholds
    ]
    for lower, higher in zip(retained, retained[1:]):
        assert higher <= lower


def test_filter_at_zero_threshold_keeps_every_staffed_sds():
    corpus = make_random_corpus(1, pub_rate=0.2)
    report = representativity_filter(corpus, (2001, 2003), 0.0)
    staffed = {r.sds_id for r in report.rows if not r.empty}
    assert report.retained_sds() == staffed


def test_filter_argument_validation():
    corpus = coverage_corpus(1, 1)
    with pytest.raises(ValueError):
        representativity_filter(corpus, (2001, 2003), 1.5)
    with pytest.raises(ValueError):
        representativity_filter(corpus, (2003, 2001), 0.5)
