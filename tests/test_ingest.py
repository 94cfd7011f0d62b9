"""CSV loading, parse errors with file/line, and the representativity filter."""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citewin
from citewin import ingest
from citewin.cli import main
from citewin.errors import CitewinError, IntegrityError, MissingInputError, ParseError
from citewin.ingest import FILES, load_corpus, representativity_filter
from citewin.synth import SynthConfig, generate

from conftest import make_random_corpus, write_corpus_dir
from oracles import read_corpus_rows


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


def test_decrease_names_the_first_earlier_year_it_contradicts(tmp_path):
    path = small_fixture(tmp_path, citations=[("P1", 2005, 6), ("P1", 2004, 5), ("P1", 2006, 1)])
    with pytest.raises(ParseError, match=r"citations\.csv:4: .* between years 2005 and 2006"):
        load_corpus(path)


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


def test_dangling_references_name_file_and_line(tmp_path):
    path = small_fixture(tmp_path, authorship=[("P1", "R1"), ("P9", "R2")])
    with pytest.raises(IntegrityError, match=r"authorship\.csv:3: .*unknown pub_id 'P9'"):
        load_corpus(path)
    path = small_fixture(tmp_path, researchers=[("R1", "U1", "S1"), ("R2", "U1", "S7")])
    with pytest.raises(IntegrityError, match=r"researchers\.csv:3: .*sds_id 'S7' missing"):
        load_corpus(path)


def test_count_outside_int64_is_a_parse_error(tmp_path, capsys):
    path = small_fixture(tmp_path, citations=[("P1", 2004, 2), ("P1", 2005, "9" * 20)])
    with pytest.raises(ParseError, match=r"citations\.csv:3: cum_citations .* 64-bit"):
        load_corpus(path)
    assert main(["validate", str(path)]) == 1
    assert "citations.csv:3:" in capsys.readouterr().err


def test_int64_bounds_accepted(tmp_path):
    top = str(2**63 - 1)
    path = small_fixture(tmp_path, citations=[("P1", 2004, top), ("P2", 2004, 0), ("P3", 2004, 1)])
    assert load_corpus(path).publications["P1"].citation_counts == {2004: 2**63 - 1}


def rewrite(path, name, edit):
    (path / name).write_bytes(edit((path / name).read_text(encoding="utf-8")).encode("utf-8"))


def test_crlf_line_endings_keep_line_numbers(tmp_path):
    path = small_fixture(tmp_path)
    rewrite(path, "citations.csv", lambda t: t.replace("\n", "\r\n"))
    assert load_corpus(path).publications["P1"].citation_counts == {2004: 2, 2005: 3}
    rewrite(path, "citations.csv", lambda t: t.replace("P2,2005,1", "P2,2005,x"))
    with pytest.raises(ParseError, match=r"citations\.csv:5: cum_citations 'x'"):
        load_corpus(path)


def test_blank_lines_skipped_but_counted(tmp_path):
    path = small_fixture(tmp_path)
    rewrite(path, "citations.csv", lambda t: t + "\n")
    assert len(load_corpus(path).pub_ids) == 3
    rewrite(path, "citations.csv", lambda t: t.replace("\n", "\n\n", 2))
    assert len(load_corpus(path).pub_ids) == 3
    rewrite(path, "citations.csv", lambda t: t.replace("P2,2005,1", "P2,2005,-1"))
    with pytest.raises(ParseError, match=r"citations\.csv:7: negative citation count -1"):
        load_corpus(path)


def test_missing_final_newline(tmp_path):
    path = small_fixture(tmp_path)
    rewrite(path, "citations.csv", lambda t: t.rstrip("\n"))
    assert load_corpus(path).publications["P3"].citation_counts == {2004: 1, 2005: 1}
    rewrite(path, "citations.csv", lambda t: t + "_")
    with pytest.raises(ParseError, match=r"citations\.csv:7: cum_citations '1_'"):
        load_corpus(path)


def test_quoted_field_rejected(tmp_path):
    path = small_fixture(tmp_path)
    rewrite(path, "researchers.csv", lambda t: t.replace("R2,U1", '"R2",U1'))
    with pytest.raises(ParseError, match=r"researchers\.csv:3: researcher_id '\"R2\"'"):
        load_corpus(path)


def test_grammar_needs_no_regex_syntax_newer_than_python_3_10():
    """Possessive repeats and atomic groups compile only from Python 3.11 on."""
    from re import _parser

    def opcodes(node):
        if isinstance(node, _parser.SubPattern):
            node = node.data
        if isinstance(node, (list, tuple)):
            for item in node:
                yield from opcodes(item)
        else:
            yield str(node)

    patterns = [*ingest._FIELD.values(), *ingest._BAD_LINE.values()]
    used = {op for pattern in patterns for op in opcodes(_parser.parse(pattern.pattern))}
    assert "MAX_REPEAT" in used
    assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_package_parses_as_python_3_10():
    """pyproject promises Python 3.10; syntax such as `except*` is newer."""
    sources = sorted(Path(ingest.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_package_has_no_unused_imports():
    """Each module-level import of a package module is used by some node of
    that module; __future__ imports and __init__.py's re-exports are exempt."""
    unused = []
    for source in sorted(Path(ingest.__file__).parent.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{source.name}: {name}" for name in names if name not in used]
    assert unused == []


REMOVED_NAMES = (
    "QuartileAssignment", "Ranking", "max_rank_shift", "no_change_and_small_shift_pcts",
    "quartile_classes", "quartile_shift_stats", "rank_shifts", "rank_universities",
    "shift_descriptives", "spearman_rho", "stability_summary",
)


def test_all_lists_importable_names_only():
    assert len(set(citewin.__all__)) == len(citewin.__all__)
    assert all(hasattr(citewin, name) for name in citewin.__all__)
    namespace: dict = {}
    exec("from citewin import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(citewin.__all__)
    for name in REMOVED_NAMES:
        assert name not in citewin.__all__ and not hasattr(citewin, name)
        with pytest.raises(ImportError):
            exec(f"from citewin import {name}", {})


def test_earlier_value_error_wins_over_later_grammar_error(tmp_path):
    path = small_fixture(tmp_path, citations=[("P1", 2004, -1), ("P1", 2005, "x")])
    with pytest.raises(ParseError, match=r"citations\.csv:2: negative"):
        load_corpus(path)


# ---------------------------------------------------------------------------
# properties against the row-by-row reader in oracles.py


@st.composite
def synth_configs(draw):
    udas = {f"D{d}": tuple(f"D{d}-S{s}" for s in range(draw(st.integers(1, 3))))
            for d in range(draw(st.integers(1, 2)))}
    return SynthConfig(
        n_universities=draw(st.integers(1, 3)),
        staff_range=(1, draw(st.integers(1, 3))),
        udas=udas,
        pub_period=(2001, 2002),
        observation_years=tuple(sorted(draw(st.sets(st.integers(2002, 2005), min_size=1)))),
        pub_rate=draw(st.sampled_from((0.3, 1.0))),
        profiles={"default": (0.5, 1.0, 0.3)},
        coauthor_rate=draw(st.sampled_from((0.0, 0.5))),
        multi_category_rate=draw(st.sampled_from((0.0, 0.5))),
        seed=draw(st.integers(0, 2**16)),
    )


def assert_matches_rows(corpus, directory):
    pubs, researchers, links, taxonomy = read_corpus_rows(directory)
    assert dict(corpus.publications) == pubs
    assert dict(corpus.researchers) == {r.researcher_id: r for r in researchers}
    assert list(corpus.authorships) == links
    assert corpus.taxonomy == taxonomy


@settings(max_examples=20, deadline=None)
@given(config=synth_configs())
def test_every_synth_corpus_loads_as_the_row_reader_reads_it(config):
    with tempfile.TemporaryDirectory() as tmp:
        directory = generate(config, Path(tmp) / "corpus")
        assert_matches_rows(load_corpus(directory), directory)


CORRUPTION_BASE = SynthConfig(
    n_universities=2, staff_range=(1, 2), udas={"D1": ("D1-S1", "D1-S2"), "D2": ("D2-S1",)},
    pub_period=(2001, 2002), observation_years=(2003, 2004, 2005), pub_rate=1.0,
    profiles={"default": (0.5, 1.0, 0.3)}, coauthor_rate=0.5, multi_category_rate=0.5, seed=3,
)
FIELD_TEXT = st.text(alphabet="PRUDSCAT_0123456789-/:;.,e+ \u0665", max_size=8)


@st.composite
def corruptions(draw, rows):
    """(file, data row, field, new text) with the text drawn around what the file holds."""
    name = draw(st.sampled_from(sorted(rows)))
    row = draw(st.integers(0, len(rows[name]) - 1))
    field = draw(st.integers(0, len(FILES[name]) - 1))
    column = sorted({r[field] for r in rows[name]})
    # half of the changes copy what another row holds: repeats, reversed counts, references
    value = draw(st.sampled_from(column) if draw(st.booleans()) else st.one_of(
        FIELD_TEXT,
        st.integers(-2, 2010).map(str),
        st.sampled_from(["9" * 19, "-" + "9" * 19, str(2**63), str(-(2**63))]),
        st.sampled_from(["", "CAT_D1-S1:0.5;CAT_D1-S1:0.5", "CAT_D1-S1:1.5",
                         "CAT_D1-S1;CAT_D2-S1:1", "CAT_D1-S1:0.4;CAT_D2-S1:0.4",
                         "CAT_D1-S1:.5e0;CAT_D2-S1:5E-1"]),
    ))
    return name, row, field, value


@functools.cache
def corruption_base() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        directory = generate(CORRUPTION_BASE, Path(tmp) / "corpus")
        return {name: (directory / name).read_text(encoding="utf-8") for name in FILES}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_field_corruption_fails_like_the_row_reader(data):
    files = corruption_base()
    table = {name: [line.split(",") for line in text.splitlines()] for name, text in files.items()}
    name, row, field, value = data.draw(corruptions({n: rows[1:] for n, rows in table.items()}))
    rows = [list(r) for r in table[name]]
    rows[row + 1][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for other, text in files.items():
            (directory / other).write_text(text, encoding="utf-8")
        (directory / name).write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        try:
            read_corpus_rows(directory)
        except CitewinError as exc:
            with pytest.raises(type(exc)) as got:
                load_corpus(directory)
            assert str(got.value) == str(exc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["validate", str(directory)]) == 1
            assert err.getvalue() == f"INVALID: {exc}\n"
        else:
            assert_matches_rows(load_corpus(directory), directory)


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
