"""Corpus model: record invariants, referential integrity, index construction."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import citewin
from citewin import sensitivity
from citewin.errors import IntegrityError, ParseError
from citewin.ingest import Corpus, load_corpus, representativity_filter

from conftest import (
    corpus_from_rows,
    corpus_rows,
    make_random_corpus,
    random_corpus_rows,
    sds_to_uda,
    write_corpus_dir,
)
from oracles import cell_pubs, cell_staff, publications, pubs_by_cell

FIELDS = [("S1", "UA"), ("S2", "UA"), ("S3", "UB")]


def corpus(publications=(("P1", 2001, "K1"),), citations=(("P1", 2004, 1),), authorship=(),
           researchers=()):
    return corpus_from_rows(publications, citations, authorship, researchers, FIELDS)


def test_minimal_corpus_indexed():
    built = corpus(authorship=[("P1", "R1")], researchers=[("R1", "U1", "S1")])
    assert cell_pubs(built, "U1", "S1") == ("P1",)
    assert cell_pubs(built, "U1", "S2") == ()
    assert cell_staff(built) == {("U1", "S1"): 1}


def test_dangling_pub_reference_names_record():
    with pytest.raises(IntegrityError, match="authorship.csv:2: .* unknown pub_id 'X9'"):
        corpus(authorship=[("X9", "R1")], researchers=[("R1", "U1", "S1")])


def test_cross_university_coauthorship_indexes_both_cells():
    built = corpus(authorship=[("P1", "R1"), ("P1", "R2")],
                   researchers=[("R1", "U1", "S1"), ("R2", "U2", "S2")])
    assert cell_pubs(built, "U1", "S1") == ("P1",)
    assert cell_pubs(built, "U2", "S2") == ("P1",)


def test_same_cell_coauthors_count_publication_once():
    built = corpus(authorship=[("P1", "R1"), ("P1", "R2")],
                   researchers=[("R1", "U1", "S1"), ("R2", "U1", "S1")])
    assert cell_pubs(built, "U1", "S1") == ("P1",)


@pytest.mark.parametrize(
    "bad",
    [
        ("", [("P1", 2004, 1)], "publications.csv:2: categories field is empty"),
        ("K1:0.4;K2:0.4", [("P1", 2004, 1)],
         "publications.csv:2: category weights sum to 0.8, expected 1"),
        ("K1:1.5", [("P1", 2004, 1)], "publications.csv:2: category weight 1.5 outside (0, 1]"),
        ("K1:0.5;K1:0.5", [("P1", 2004, 1)], "publications.csv:2: category 'K1' listed twice"),
        ("K1", [("P1", 2004, 5), ("P1", 2005, 3)],
         "citations.csv:3: cumulative citations of 'P1' decrease between years 2004 and 2005"),
        ("K1", [("P1", 2000, 1)],
         "citations.csv:2: obs_year 2000 precedes publication year 2001 of 'P1'"),
        ("K1", [("P1", 2004, -1)], "citations.csv:2: negative citation count -1"),
    ],
)
def test_invalid_publication_rejected(bad):
    categories, citations, message = bad
    with pytest.raises(ParseError) as err:
        corpus(publications=[("P1", 2001, categories)], citations=citations)
    assert str(err.value).endswith(f"/corpus/{message}")


def test_duplicate_ids_rejected():
    with pytest.raises(ParseError, match="publications.csv:3: duplicate pub_id 'P1'"):
        corpus(publications=[("P1", 2001, "K1"), ("P1", 2002, "K1")])
    with pytest.raises(ParseError, match="researchers.csv:3: duplicate researcher_id 'R1'"):
        corpus(researchers=[("R1", "U1", "S1"), ("R1", "U2", "S2")])
    with pytest.raises(ParseError, match=r"authorship.csv:3: duplicate authorship pair"):
        corpus(authorship=[("P1", "R1"), ("P1", "R1")], researchers=[("R1", "U1", "S1")])


def test_unknown_sds_rejected():
    with pytest.raises(IntegrityError, match="researchers.csv:2: researcher 'R1': sds_id 'S9'"):
        corpus(researchers=[("R1", "U1", "S9")])


@pytest.mark.parametrize("seed", range(6))
def test_indexes_match_full_rescan(seed):
    rows = random_corpus_rows(seed)
    built = corpus_from_rows(**rows)
    cell_of = {rid: (univ, sds) for rid, univ, sds in rows["researchers"]}

    expected_pubs: dict = {}
    for pid, rid in rows["authorship"]:
        expected_pubs.setdefault(cell_of[rid], set()).add(pid)
    cells = {(u, s) for u in built.universities.tolist() for s in built.sds_ids.tolist()}
    index = pubs_by_cell(built)
    assert {cell: set(index.get(cell, ())) for cell in cells if index.get(cell, ())} == (
        expected_pubs)
    assert all(list(index.get(cell, ())) == sorted(index.get(cell, ())) for cell in cells)

    expected_staff: dict = {}
    for rid, univ, sds in rows["researchers"]:
        expected_staff.setdefault((univ, sds), set()).add(rid)
    assert cell_staff(built) == {cell: len(rids) for cell, rids in expected_staff.items()}

    # rebuilding from the rows of the loaded corpus gives the same columns
    rebuilt = corpus_from_rows(**corpus_rows(built))
    assert sds_to_uda(rebuilt) == sds_to_uda(built)
    for name, column in vars(built).items():
        if isinstance(column, np.ndarray):
            assert np.array_equal(getattr(rebuilt, name), column), name


@pytest.mark.parametrize("seed", range(4))
def test_random_corpus_record_invariants(seed):
    corpus = make_random_corpus(seed)
    for p in publications(corpus).values():
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
        before = publications(corpus)[first].citation_counts
        with pytest.raises(ValueError, match="read-only"):
            corpus.counts[0, :] = 99
        assert publications(corpus)[first].citation_counts == before
        columns = [v for v in vars(corpus).values() if isinstance(v, np.ndarray)]
        assert len(columns) == 18
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[...] = column


def test_every_corpus_and_report_field_is_a_read_only_array():
    corpus = make_random_corpus(1, pub_rate=0.4)
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    for record in (corpus, report):
        for field in dataclasses.fields(record):
            column = getattr(record, field.name)
            assert isinstance(column, np.ndarray), field.name
            assert not column.flags.writeable, field.name
    assert len(report.sds_ids) == len(report.staff) == len(report.publishing) == len(
        report.retained)
    assert np.array_equal(report.sds_ids, corpus.sds_ids)


def test_a_corpus_is_its_columns():
    corpus = make_random_corpus(2)
    fields = {field.name for field in dataclasses.fields(Corpus)}
    assert {name for name in dir(corpus) if not name.startswith("_")} == fields
    for name in fields:
        column = getattr(corpus, name)
        assert isinstance(column, np.ndarray) and not column.flags.writeable, name


def test_the_battery_is_its_arrays():
    # the battery's statistics are arrays: no record type of them comes back
    classes = [value for value in vars(sensitivity).values()
               if isinstance(value, type) and value.__module__ == sensitivity.__name__]
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == ["LevelRanks"]
    exported = [getattr(citewin, name) for name in citewin.__all__]
    assert not [value for value in exported if value in classes and value is not sensitivity.LevelRanks]


@pytest.mark.parametrize("module", ["impact", "productivity"])
def test_scalar_reference_does_not_import_the_corpus(module):
    source = Path(citewin.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["citewin" if node.level else "", node.module]))
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert "citewin.errors.AnalysisError" in imported  # relative imports resolve
    assert f"{Corpus.__module__}.{Corpus.__name__}" not in imported
