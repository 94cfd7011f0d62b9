"""CSV loading, parse errors with file/line, and the representativity filter."""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
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

from conftest import (corpus_from_rows, corpus_rows, make_random_corpus, sds_to_uda,
                      stability_config, write_corpus_dir)
from oracles import publications, read_corpus_rows


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
    pubs = publications(corpus)
    assert len(pubs) == 3
    assert len(corpus.researcher_ids) == 4
    assert pubs["P2"].category_weights == (("K1", 0.5), ("K2", 0.5))
    # omitted weights become uniform
    assert pubs["P3"].category_weights == (("K1", 0.5), ("K2", 0.5))


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


@pytest.mark.parametrize("empty, referring", [
    ("fields", "researchers.csv"), ("publications", "citations.csv"),
    ("researchers", "authorship.csv"),
])
def test_reference_into_a_file_without_rows_fails_like_the_row_reader(tmp_path, empty, referring):
    """The referenced file has a header and no rows: the first reference to it fails as the row
    reader reports it, not with an IndexError."""
    exc = assert_loads_like_the_row_reader(small_fixture(tmp_path, **{empty: []}))
    assert f"{referring}:2: " in str(exc)


def test_count_outside_int64_is_a_parse_error(tmp_path, capsys):
    path = small_fixture(tmp_path, citations=[("P1", 2004, 2), ("P1", 2005, "9" * 20)])
    with pytest.raises(ParseError, match=r"citations\.csv:3: cum_citations .* 64-bit"):
        load_corpus(path)
    assert main(["validate", str(path)]) == 1
    assert "citations.csv:3:" in capsys.readouterr().err


def test_int64_bounds_accepted(tmp_path):
    top = str(2**63 - 1)
    path = small_fixture(tmp_path, citations=[("P1", 2004, top), ("P2", 2004, 0), ("P3", 2004, 1)])
    assert publications(load_corpus(path))["P1"].citation_counts == {2004: 2**63 - 1}


ID_MESSAGES = [
    (dict(fields=[("S1", "UA"), ("S1", "UA")]), ParseError, "fields.csv:3: duplicate sds_id 'S1'"),
    (dict(researchers=[("R1", "U1", "S1"), ("R1", "U1", "S2")]), ParseError,
     "researchers.csv:3: duplicate researcher_id 'R1'"),
    (dict(researchers=[("R1", "U1", "S9")]), IntegrityError,
     "researchers.csv:2: researcher 'R1': sds_id 'S9' missing from taxonomy"),
    (dict(publications=[("P1", 2001, "K1"), ("P1", 2002, "K1")]), ParseError,
     "publications.csv:3: duplicate pub_id 'P1'"),
    (dict(publications=[("P1", 2001, "K1;K1")]), ParseError,
     "publications.csv:2: category 'K1' listed twice"),
    (dict(citations=[("P1", 2004, 1), ("P9", 2004, 1)]), ParseError,
     "citations.csv:3: citation row references unknown pub_id 'P9'"),
    (dict(citations=[("P1", 2000, 1)]), ParseError,
     "citations.csv:2: obs_year 2000 precedes publication year 2001 of 'P1'"),
    (dict(citations=[("P1", 2004, 1), ("P1", 2004, 1)]), ParseError,
     "citations.csv:3: duplicate citation row for ('P1', 2004)"),
    (dict(citations=[("P1", 2004, 5), ("P1", 2005, 3)]), ParseError,
     "citations.csv:3: cumulative citations of 'P1' decrease between years 2004 and 2005"),
    (dict(authorship=[("P1", "R1"), ("P9", "R1")]), IntegrityError,
     "authorship.csv:3: authorship references unknown pub_id 'P9'"),
    (dict(authorship=[("P1", "R9")]), IntegrityError,
     "authorship.csv:2: authorship references unknown researcher_id 'R9'"),
    (dict(authorship=[("P1", "R1"), ("P1", "R1")]), ParseError,
     "authorship.csv:3: duplicate authorship pair ('P1', 'R1')"),
]


@pytest.mark.parametrize("overrides, error, message", ID_MESSAGES,
                         ids=[m.split(": ")[1].split(" '")[0] for _o, _e, m in ID_MESSAGES])
def test_id_bearing_messages_print_plain_ids(tmp_path, overrides, error, message):
    """Ids read as byte strings are printed as the str they spell, never as numpy scalars."""
    path = small_fixture(tmp_path, **overrides)
    with pytest.raises(error) as got:
        load_corpus(path)
    assert str(got.value) == f"{path}/{message}"
    assert "np." not in str(got.value) and "b'" not in str(got.value)


def assert_loads_like_the_row_reader(directory):
    """load_corpus gives the row reader's corpus, or its error with the same message."""
    try:
        read_corpus_rows(directory)
    except CitewinError as exc:
        with pytest.raises(type(exc)) as got:
            load_corpus(directory)
        assert str(got.value) == str(exc)
        return exc
    assert_matches_rows(load_corpus(directory), directory)
    return None


def edited_corpus(tmp_path, edits, **overrides):
    """small_fixture with each file's text passed through edits[name], if given."""
    path = small_fixture(tmp_path, **overrides)
    for name, edit in edits.items():
        rewrite(path, name, edit)
    return path


LINE_ENDINGS = {
    "blank lines": lambda t: t.replace("\n", "\n\n", 2) + "\n\n",
    "leading blank line": lambda t: t.replace("\n", "\n\n", 1),
    "CRLF": lambda t: t.replace("\n", "\r\n"),
    "lone CR": lambda t: t.replace("\n", "\r"),
    "mixed": lambda t: "".join(line + ("\r\n", "\r", "\n", "\r\r")[i % 4]
                               for i, line in enumerate(t.split("\n")[:-1])),
    "no final newline": lambda t: t.rstrip("\n"),
    "blank lines and no final newline": lambda t: t.replace("\n", "\n\n\n", 3).rstrip("\n"),
}


@pytest.mark.parametrize("ending", list(LINE_ENDINGS))
@pytest.mark.parametrize("defect", [None, ("P2", 2005, -1), ("P2", 2005, "x")])
def test_line_endings_load_and_fail_like_the_row_reader(tmp_path, ending, defect):
    """Every file rewritten with one line-ending style: the same corpus, or the same error at
    the same line, whether the defect is a check's, a negative count or a grammar error."""
    citations = [("P1", 2004, 2), ("P1", 2005, 3), ("P2", 2004, 0), defect or ("P2", 2005, 1),
                 ("P3", 2004, 1), ("P3", 2005, 1)]
    path = edited_corpus(tmp_path, dict.fromkeys(FILES, LINE_ENDINGS[ending]), citations=citations)
    exc = assert_loads_like_the_row_reader(path)
    assert (exc is None) == (defect is None)


def test_ids_of_unequal_length_load_like_the_row_reader(tmp_path):
    ids = {"P1": "P", "P2": "p/2_-x", "P3": "P_3/333-Long-Id_with/all"}
    res = {"R1": "R-1", "R2": "r", "R3": "R3/_-", "R4": "Researcher_4-x/y"}
    rename = lambda t: "\n".join(",".join(ids.get(v, res.get(v, v)) for v in line.split(","))
                                  for line in t.split("\n"))
    path = edited_corpus(tmp_path, dict.fromkeys(FILES, rename))
    assert assert_loads_like_the_row_reader(path) is None
    assert set(publications(load_corpus(path))) == set(ids.values())


CITATIONS = [("P1", 2004, 2), ("P1", 2005, 3), ("P2", 2004, 0), ("P2", 2005, 1),
             ("P3", 2004, 1), ("P3", 2005, 1)]


@pytest.mark.parametrize("rows, fails", [
    ([CITATIONS[i] for i in (0, 2, 4, 1, 3, 5)], False),  # every run of one publication is 1 row
    ([CITATIONS[i] for i in (5, 0, 3, 2, 1, 4)], False),
    ([CITATIONS[i] for i in (1, 0, 3, 2, 5, 4)], False),  # each publication's years descending
    ([("P1", 2004, 2), ("P2", 2004, 0), ("P9", 2004, 1), ("P1", 2005, 3)], True),
    ([("P1", 2004, 2), ("P2", 2004, 0), ("P1", 2005, 1)], True),  # a decrease across a run
    ([("P2", 2005, 1), ("P1", 2004, 0), ("P2", 2004, 2), ("P2", 2006, 1)], True),
    ([("P1", 2004, 2), ("P2", 2004, 0), ("P1", 2004, 2)], True),  # a repeat across a run
])
def test_citation_rows_in_any_order_load_like_the_row_reader(tmp_path, rows, fails):
    exc = assert_loads_like_the_row_reader(small_fixture(tmp_path, citations=rows))
    assert (exc is not None) == fails


def test_minus_zero_and_leading_zeros_load_like_the_row_reader(tmp_path):
    path = small_fixture(
        tmp_path, publications=[("P1", "02001", "K1"), ("P2", "-0", "K1:0.5;K2:0.5"),
                                ("P3", "0000000000000000000002003", "K1;K2")],
        citations=[("P1", "2004", "-0"), ("P1", "000002005", "0000000000000000000000003"),
                   ("P2", "2004", "007"), ("P3", "2004", "-00")])
    assert assert_loads_like_the_row_reader(path) is None
    pubs = publications(load_corpus(path))
    assert (pubs["P1"].pub_year, pubs["P2"].pub_year, pubs["P3"].pub_year) == (2001, 0, 2003)
    assert pubs["P1"].citation_counts == {2004: 0, 2005: 3}


INT64_EDGES = [str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
               "-0" + str(2**63 - 1), "0" + str(2**63), "9" * 19, "-" + "9" * 19]


@pytest.mark.parametrize("value", INT64_EDGES)
@pytest.mark.parametrize("field", ["pub_year", "obs_year", "cum_citations"])
def test_19_digit_values_at_the_int64_bounds_load_like_the_row_reader(tmp_path, value, field):
    """At and just past each int64 bound, in publications.csv and in both int columns of
    citations.csv, on a row after another with 19 or more digits that is in range."""
    big = "-000" + str(2**63 - 5)
    if field == "pub_year":
        path = small_fixture(tmp_path, publications=[
            ("P1", 2001, "K1"), ("P4", big, "K1"), ("P2", 2002, "K1"), ("P5", value, "K2")])
    else:
        row = ("P2", value, 1) if field == "obs_year" else ("P2", 2005, value)
        path = small_fixture(tmp_path, citations=[("P1", 2004, "0" * 19 + "1"), ("P2", 2004, 0), row])
    exc = assert_loads_like_the_row_reader(path)
    assert (exc is not None and "64-bit" in str(exc)) == (not -(2**63) <= int(value) < 2**63)


@pytest.mark.parametrize("rows, named", [
    ([("P1", 2004, 1), ("P2", "9" * 19, "-" + "9" * 20)], "csv:3: obs_year"),
    ([("P1", 2004, "9" * 20), ("P2", "9" * 19, 1)], "csv:2: cum_citations"),
    ([("P1", 2004, 1), ("P2", 2004, 1), ("P3", "9" * 19, 1), ("P2", 2005, "9" * 19)],
     "csv:4: obs_year"),
])
def test_first_row_outside_int64_is_reported_earlier_column_first(tmp_path, rows, named):
    exc = assert_loads_like_the_row_reader(small_fixture(tmp_path, citations=rows))
    assert named in str(exc) and "64-bit" in str(exc)


def test_thousands_of_leading_zeros_still_spell_an_int64(tmp_path):
    """Python's int() refuses strings of more than 4,300 digits; the significant ones decide."""
    path = small_fixture(tmp_path, citations=[("P1", 2004, "0" * 5000 + "7"),
                                              ("P2", "-" + "0" * 5000 + "2004", 0)])
    with pytest.raises(ParseError, match=r"citations\.csv:3: obs_year -2004 precedes"):
        load_corpus(path)
    path = small_fixture(tmp_path, citations=[("P1", 2004, "0" * 5000 + "7")])
    assert publications(load_corpus(path))["P1"].citation_counts == {2004: 7}
    path = small_fixture(tmp_path, citations=[("P1", 2004, 1), ("P2", 2004, "1" + "0" * 5000)])
    with pytest.raises(ParseError, match=r"citations\.csv:3: cum_citations '10+' is outside"):
        load_corpus(path)


def test_cold_load_peaks_below_eight_times_the_corpus_bytes(tmp_path):
    """A load without a cache keeps each file's text, its bytes and byte-level columns, not one
    Python string per field: its traced peak stays below 8 times the bytes of the corpus
    files (one string per field took 9.5 times on this corpus)."""
    import tracemalloc

    corpus = generate(stability_config(), tmp_path / "corpus", seed=3)
    assert not (corpus / ingest.CACHE_NAME).exists()
    size = sum((corpus / name).stat().st_size for name in FILES)
    tracemalloc.start()
    try:
        load_corpus(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (corpus / ingest.CACHE_NAME).exists()
    assert peak < 8 * size, (peak, size)


def rewrite(path, name, edit):
    (path / name).write_bytes(edit((path / name).read_text(encoding="utf-8")).encode("utf-8"))


def test_crlf_line_endings_keep_line_numbers(tmp_path):
    path = small_fixture(tmp_path)
    rewrite(path, "citations.csv", lambda t: t.replace("\n", "\r\n"))
    assert publications(load_corpus(path))["P1"].citation_counts == {2004: 2, 2005: 3}
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
    assert publications(load_corpus(path))["P3"].citation_counts == {2004: 1, 2005: 1}
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

    field, bad_line = ingest._grammar()
    patterns = [*field.values(), *bad_line.values()]
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


def test_columnar_core_does_not_import_the_scalar_definitions():
    """analysis.py computes every score itself; impact.py and productivity.py
    are only the written reference it is tested against."""
    source = Path(ingest.__file__).parent / "analysis.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # relative to the package
                module = "citewin" + (f".{module}" if module else "")
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    assert "citewin.sensitivity" in imported  # relative imports resolve to package names
    assert not imported & {"citewin.impact", "citewin.productivity"}


CORE = {"citewin", "citewin.cli", "citewin.corpus", "citewin.errors", "citewin.ingest"}
ANALYSIS = CORE | {"citewin.analysis", "citewin.sensitivity"}
COMMAND_MODULES = {
    "validate": CORE,
    "rankings": ANALYSIS,
    "sensitivity": ANALYSIS,
    "npc": ANALYSIS | {"citewin.npc"},
    "synth": CORE | {"citewin.synth"},
    "--help": CORE,
}
# runs `cli.main(sys.argv[1:])` and prints the citewin modules then loaded, whether
# concurrent.futures, logging and numpy.ma are, and the ingest grammar patterns that re.compile
# was given
RUN_COMMAND = """
import contextlib, io, json, re, sys
compiled, compile = [], re.compile
re.compile = lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)
from citewin import cli, ingest
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
assert code == 0, code
seen = set(compiled)
grammar = {p.pattern for kind in ingest._grammar.__wrapped__() for p in kind.values()}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "citewin"),
                  "concurrent.futures" in sys.modules, "logging" in sys.modules,
                  "numpy.ma" in sys.modules, sorted(grammar & seen)]))
"""


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    """A fresh process runs one command and holds exactly its modules afterwards: impact.py
    and productivity.py are the written reference, which no command imports. Only npc loads
    logging, through concurrent.futures. Reading a cached corpus compiles none of the grammar
    patterns of a parse. No command loads numpy.ma, which plain np.unique, np.percentile and
    np.median import."""
    corpus = generate(stability_config(), tmp_path / "corpus", seed=3)
    load_corpus(corpus)  # writes the cache
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"n_universities": 2, "staff_range": [2, 3], "udas": {"UA": ["S1"]},
                                  "pub_period": [2001, 2003], "observation_years": [2004],
                                  "pub_rate": 1.0, "profiles": {"default": [1.0]}}), encoding="utf-8")
    argv = {"validate": ["validate", corpus], "synth": ["synth", "--config", config, "--out", out],
            "npc": ["npc", corpus, "--out", out, "--permutations", "100"], "--help": ["--help"]}
    argv = argv.get(command, [command, corpus, "--out", out])
    src = str(Path(ingest.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", RUN_COMMAND, *map(str, argv)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    loaded, futures, logging, masked, grammar_compiled = json.loads(proc.stdout)
    assert set(loaded) == COMMAND_MODULES[command]
    assert futures == logging == (command == "npc")
    assert not masked
    if command == "validate":
        assert grammar_compiled == []


REMOVED_NAMES = (
    "QuartileAssignment", "Ranking", "max_rank_shift", "no_change_and_small_shift_pcts",
    "quartile_classes", "quartile_shift_stats", "rank_shifts", "rank_universities",
    "shift_descriptives", "spearman_rho", "stability_summary",
    "build_corpus", "PublicationRecord", "ResearcherRecord", "AuthorshipLink", "MedianTable",
    "compute_median_table", "article_impact_index", "NationalBaseline", "ProductivityCell",
    "UdaProductivity", "scientific_strength", "sds_productivity", "national_baseline",
    "uda_productivity",
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


def test_exports_are_the_objects_of_their_home_modules():
    """The package serves each export from its module on first use."""
    assert "__all__" in dir(citewin) and set(citewin.__all__) <= set(dir(citewin))
    for name in citewin.__all__[1:]:  # after __version__
        value = getattr(citewin, name)
        assert value.__module__.startswith("citewin.")
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert citewin.load_corpus is citewin.ingest.load_corpus
    with pytest.raises(AttributeError, match="has no attribute 'build_corpus'"):
        citewin.build_corpus


def test_importing_the_package_loads_no_submodule():
    src = str(Path(ingest.__file__).parents[1])
    code = "import sys, citewin; print(sorted(m for m in sys.modules if m.startswith('citewin')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "['citewin']\n"


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
    rows = corpus_rows(corpus)
    assert publications(corpus) == pubs
    assert rows["researchers"] == sorted(researchers)
    assert rows["authorship"] == links
    assert sds_to_uda(corpus) == taxonomy


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
        # one character more or fewer: a prefix of a held value, or one it is a prefix of
        st.builds(lambda v, c: v + c if c else v[:-1], st.sampled_from(column),
                  st.sampled_from(["", "0", "Z", "_"])),
        # zero-padded to 5,001 digits, more than Python's int() reads
        st.sampled_from(column).map(lambda v: v.zfill(5001 + v.startswith("-"))),
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
            assert err.getvalue() == f"error: {exc}\n"
        else:
            assert_matches_rows(load_corpus(directory), directory)


# ---------------------------------------------------------------------------
# representativity filter


def coverage_corpus(publishing: int, staff: int):
    """One SDS with `staff` researchers of which `publishing` have a publication."""
    return corpus_from_rows(
        publications=[(f"P{i}", 2002, "K1") for i in range(publishing)],
        citations=[(f"P{i}", 2004, 1) for i in range(publishing)],
        authorship=[(f"P{i}", f"R{i}") for i in range(publishing)],
        researchers=[(f"R{i}", "U1", "S1") for i in range(staff)],
        fields=[("S1", "UA")],
    )


def test_filter_threshold_is_inclusive():
    # 7 / 25 == 0.28 as a float division, though 0.28 * 25 > 7
    for publishing, staff, threshold in ((5, 10, 0.5), (7, 25, 0.28)):
        report = representativity_filter(coverage_corpus(publishing, staff), (2001, 2003),
                                         threshold)
        (retained,) = report.retained
        assert report.publishing[0] / report.staff[0] == threshold
        assert retained


def test_filter_below_threshold_excluded():
    report = representativity_filter(coverage_corpus(4, 10), (2001, 2003), 0.5)
    (retained,) = report.retained
    assert not retained


def test_filter_empty_sds_flagged():
    corpus = corpus_from_rows(fields=[("S1", "UA")])
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    (staff,) = report.staff
    assert staff == 0 and not report.retained[0] and report.csv_rows()[1][3] == "NA"


def test_filter_counts_only_period_publications():
    corpus = corpus_from_rows(
        publications=[("P1", 1999, "K1")],
        citations=[("P1", 2004, 1)],
        authorship=[("P1", "R1")],
        researchers=[("R1", "U1", "S1"), ("R2", "U1", "S1")],
        fields=[("S1", "UA")],
    )
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    assert report.publishing[0] == 0


@pytest.mark.parametrize("seed", range(4))
def test_filter_monotone_in_threshold(seed):
    corpus = make_random_corpus(seed, pub_rate=0.4)
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    reports = [representativity_filter(corpus, (2001, 2003), t) for t in thresholds]
    retained = [set(r.sds_ids[r.retained].tolist()) for r in reports]
    for lower, higher in zip(retained, retained[1:]):
        assert higher <= lower


def test_filter_at_zero_threshold_keeps_every_staffed_sds():
    corpus = make_random_corpus(1, pub_rate=0.2)
    report = representativity_filter(corpus, (2001, 2003), 0.0)
    staffed = set(report.sds_ids[report.staff > 0].tolist())
    assert set(report.sds_ids[report.retained].tolist()) == staffed


def test_filter_argument_validation():
    corpus = coverage_corpus(1, 1)
    with pytest.raises(ValueError):
        representativity_filter(corpus, (2001, 2003), 1.5)
    with pytest.raises(ValueError):
        representativity_filter(corpus, (2003, 2001), 0.5)
