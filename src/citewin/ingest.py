"""Flat-file corpus loading and the field representativity filter.

A corpus is a directory of the five UTF-8 CSV files of FILES, with header
rows and no quoting. Each is read once: one regex checks the grammar of its
whole body, which is then split into columns for the corpus.check_* functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import (
    Corpus,
    check_citations,
    check_links,
    check_publications,
    check_researchers,
    check_taxonomy,
)
from .errors import MissingInputError, ParseError

_ID, _INT = r"[A-Za-z0-9_/-]+", r"-?[0-9]+"
_WEIGHT = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_KINDS = {"id": _ID, "int": _INT, "weight": _WEIGHT,
          "categories": rf"{_ID}:{_WEIGHT}(?:;{_ID}:{_WEIGHT})*|{_ID}(?:;{_ID})*"}
_FIELD = {kind: re.compile(pattern) for kind, pattern in _KINDS.items()}
FILES = {
    "publications.csv": (("pub_id", "id"), ("pub_year", "int"), ("categories", "categories")),
    "citations.csv": (("pub_id", "id"), ("obs_year", "int"), ("cum_citations", "int")),
    "authorship.csv": (("pub_id", "id"), ("researcher_id", "id")),
    "researchers.csv": (("researcher_id", "id"), ("university_id", "id"), ("sds_id", "id")),
    "fields.csv": (("sds_id", "id"), ("uda_id", "id")),
}
# a newline followed by neither a row nor a blank line starts the first line the grammar rejects
_BAD_LINE = {name: re.compile("\n(?!(?:{0})?(?:\n|\\Z))".format(
    ",".join(f"(?:{_KINDS[kind]})" for _c, kind in columns))) for name, columns in FILES.items()}


@dataclass(frozen=True)
class SdsCoverage:
    """Per-SDS row of the representativity report."""

    sds_id: str
    staff: int
    publishing_staff: int
    coverage: float | None  # None when the SDS has no staff at all
    retained: bool
    empty: bool


@dataclass(frozen=True)
class RepresentativityReport:
    threshold: float
    pub_period: tuple[int, int]
    rows: tuple[SdsCoverage, ...]

    def retained_sds(self) -> frozenset[str]:
        return frozenset(r.sds_id for r in self.rows if r.retained)

    def csv_rows(self) -> list[list[str]]:
        out = [["sds_id", "staff", "publishing_staff", "coverage", "retained"]]
        for r in self.rows:
            coverage = "NA" if r.coverage is None else f"{r.coverage:.6f}"
            out.append(
                [r.sds_id, str(r.staff), str(r.publishing_staff), coverage, str(int(r.retained))]
            )
        return out


def load_corpus(directory: str | Path) -> Corpus:
    """Parse and validate the five corpus files under `directory`, fields.csv first.

    Raises MissingInputError when a file is absent, else the first offending row of a file:
    IntegrityError when a researcher's SDS or an authorship row's publication or researcher
    is not defined by an earlier file, ParseError otherwise."""
    root = Path(directory)
    if not root.is_dir():
        raise MissingInputError(f"corpus directory not found: {root}")
    missing = [name for name in FILES if not (root / name).is_file()]
    if missing:
        raise MissingInputError(f"missing corpus files in {root}: {', '.join(missing)}")

    taxonomy = _checked(root, "fields.csv", lambda c, fail: check_taxonomy(*c, fail))
    cols = _checked(root, "researchers.csv", lambda c, fail: check_researchers(taxonomy, *c, fail))
    cols |= _checked(root, "publications.csv",
                     lambda c, fail: check_publications(c[0], c[1], *_entries(c[2]), fail))
    cols |= _checked(root, "citations.csv", lambda c, fail: check_citations(cols, *c, fail))
    cols |= _checked(root, "authorship.csv", lambda c, fail: check_links(cols, *c, fail))
    return Corpus(taxonomy=taxonomy, **cols)


def representativity_filter(
    corpus: Corpus, pub_period: tuple[int, int], threshold: float
) -> RepresentativityReport:
    """Flag which SDSs are representative enough to enter the evaluation.

    An SDS is retained iff the national fraction of its researchers with at
    least one publication dated inside `pub_period` reaches `threshold`
    (inclusive). SDSs without any staff are excluded and flagged empty.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    start, end = pub_period
    if start > end:
        raise ValueError(f"empty publication period {pub_period}")
    sds_ids = corpus.taxonomy.sds_ids
    in_period = (corpus.pub_year >= start) & (corpus.pub_year <= end)
    publishing = np.unique(corpus.link_res[in_period[corpus.link_pub]])
    staff = np.bincount(corpus.res_sds, minlength=len(sds_ids)).tolist()
    active = np.bincount(corpus.res_sds[publishing], minlength=len(sds_ids)).tolist()
    rows = tuple(SdsCoverage(sds_id, n, k, k / n, retained=k / n >= threshold, empty=False) if n
                 else SdsCoverage(sds_id, 0, 0, None, retained=False, empty=True)
                 for sds_id, n, k in zip(sds_ids, staff, active))
    return RepresentativityReport(threshold=threshold, pub_period=(start, end), rows=rows)


def _checked(root: Path, name: str, check: Callable):
    """`check(columns, fail)` over the rows of one file before the first one its grammar or
    int64 rejects, then that row: an earlier offending row is still the one reported."""
    path, columns = root / name, FILES[name]
    text = path.read_text(encoding="utf-8", errors="replace")  # so the grammar rejects bad bytes
    if not text:
        raise ParseError(path, 1, "file is empty, expected a header row")
    head, _, body = text.partition("\n")
    header = [c for c, _k in columns]
    if head.split(",") != header:
        raise ParseError(path, 1, f"bad header {head.split(',')!r}, expected {header!r}")
    error, found = None, _BAD_LINE[name].search(text, len(head))
    if found:
        start = found.start() - len(head)
        bad = body[start:].partition("\n")[0]
        error = ParseError(path, body.count("\n", 0, start) + 2, _grammar_error(bad, columns))
        body = body[:start]
    body, lines = body.rstrip("\n"), None
    if "\n\n" in body or body.startswith("\n"):  # blank lines are skipped but counted
        lines = np.flatnonzero([bool(row) for row in body.split("\n")]) + 2
        body = "\n".join(filter(None, body.split("\n")))
    flat = body.replace("\n", ",").split(",") if body else []
    cols = [flat[i :: len(columns)] for i in range(len(columns))]
    del text, body, flat

    def line(row: int) -> int:
        return row + 2 if lines is None else int(lines[row])

    for i, (field, kind) in enumerate(columns):
        if kind == "int":
            if max(map(len, cols[i]), default=0) > 18:  # may fall outside int64
                big = next((r for r, v in enumerate(cols[i]) if int(v) >> 63 not in (0, -1)), None)
                if big is not None:
                    error = ParseError(path, line(big), f"{field} {cols[i][big]!r} is outside "
                                       "the 64-bit integer range")
                    cols = [column[:big] for column in cols]
            cols[i] = np.fromstring(",".join(cols[i]), dtype=np.int64, sep=",")

    def fail(row: int, message: str, cls: type):
        raise ParseError(path, line(row), message) if cls is ParseError else cls(
            f"{path}:{line(row)}: {message}")

    result = check(cols, fail)
    if error is not None:
        raise error
    return result


def _grammar_error(text: str, columns: tuple[tuple[str, str], ...]) -> str:
    """What is wrong with one line the body grammar rejects."""
    values = text.split(",")
    if len(values) != len(columns):
        return f"expected {len(columns)} fields, got {len(values)}"
    for value, (name, kind) in zip(values, columns):
        if kind != "categories" and not _FIELD[kind].fullmatch(value):
            problem = "is not an integer" if kind == "int" else f"does not match {_ID}"
            return f"{name} {value!r} {problem}"
        parts = [part.partition(":") for part in value.split(";")] if kind == "categories" else []
        if parts and not value:
            return "categories field is empty"
        if 0 < sum(bool(colon) for _n, colon, _w in parts) < len(parts):
            return f"mixed weighted/unweighted categories in {value!r}"
        for cat, colon, weight in parts:
            if colon and not _FIELD["weight"].fullmatch(weight):
                return f"bad category weight {weight!r}"
            if not _FIELD["id"].fullmatch(cat):
                return f"category {cat!r} does not match {_ID}"
    raise AssertionError(f"the grammar rejects {text!r} for no reason found")


def _entries(specs: list[str]) -> tuple[np.ndarray, list[str], list[float]]:
    """(row, category, weight) of every listed category; bare ones share weight 1 evenly."""
    n_parts = [spec.count(";") + 1 for spec in specs]
    rows = np.repeat(np.arange(len(specs)), n_parts)
    parts = [part.partition(":") for part in ";".join(specs).split(";")] if specs else []
    weights = [float(w) if w else 1.0 / n_parts[r] for (_n, _c, w), r in zip(parts, rows.tolist())]
    return rows, [name for name, _c, _w in parts], weights
