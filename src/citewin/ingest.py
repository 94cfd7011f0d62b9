"""Flat-file corpus loading and the field representativity filter.

The on-disk contract is a directory of five UTF-8 CSV files with header
rows: publications.csv, citations.csv, authorship.csv, researchers.csv,
fields.csv. Identifiers are restricted to [A-Za-z0-9_/-]+ so no quoting is
ever needed.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    AuthorshipLink,
    Corpus,
    FieldTaxonomy,
    PublicationRecord,
    ResearcherRecord,
    build_corpus,
)
from .errors import MissingInputError, ParseError

REQUIRED_FILES = (
    "publications.csv",
    "citations.csv",
    "authorship.csv",
    "researchers.csv",
    "fields.csv",
)

_ID_RE = re.compile(r"^[A-Za-z0-9_/-]+$")


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
    """Parse and validate the five corpus files under `directory`.

    Raises MissingInputError when the directory or any required file is
    absent, ParseError (with file and line) on malformed rows, and
    IntegrityError on cross-file violations.
    """
    root = Path(directory)
    if not root.is_dir():
        raise MissingInputError(f"corpus directory not found: {root}")
    missing = [name for name in REQUIRED_FILES if not (root / name).is_file()]
    if missing:
        raise MissingInputError(f"missing corpus files in {root}: {', '.join(missing)}")

    taxonomy = _read_fields(root / "fields.csv")
    researchers = _read_researchers(root / "researchers.csv")
    pubs = _read_publications(root / "publications.csv")
    _attach_citations(root / "citations.csv", pubs)
    links = _read_authorship(root / "authorship.csv")

    records = [
        PublicationRecord(pub_id=pid, pub_year=year, category_weights=cats, citation_counts=counts)
        for pid, (year, cats, counts) in pubs.items()
    ]
    return build_corpus(records, researchers, links, taxonomy)


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

    staff_by_sds: dict[str, list[str]] = {s: [] for s in corpus.taxonomy.sds_ids}
    for rid in sorted(corpus.researchers):
        staff_by_sds[corpus.researchers[rid].sds_id].append(rid)

    rows = []
    for sds_id in corpus.taxonomy.sds_ids:
        staff = staff_by_sds[sds_id]
        if not staff:
            rows.append(SdsCoverage(sds_id, 0, 0, None, retained=False, empty=True))
            continue
        publishing = sum(1 for rid in staff if _publishes_in(corpus, rid, start, end))
        coverage = publishing / len(staff)
        rows.append(
            SdsCoverage(
                sds_id,
                len(staff),
                publishing,
                coverage,
                retained=coverage >= threshold,
                empty=False,
            )
        )
    return RepresentativityReport(threshold=threshold, pub_period=(start, end), rows=tuple(rows))


def _publishes_in(corpus: Corpus, researcher_id: str, start: int, end: int) -> bool:
    for pid in corpus.pubs_by_researcher.get(researcher_id, ()):
        if start <= corpus.publications[pid].pub_year <= end:
            return True
    return False


# ---------------------------------------------------------------------------
# file readers


def _read_rows(path: Path, header: list[str]):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty, expected a header row") from None
        if first != header:
            raise ParseError(path, 1, f"bad header {first!r}, expected {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(path, reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, row


def _parse_id(path: Path, line: int, field: str, value: str) -> str:
    if not _ID_RE.match(value):
        raise ParseError(path, line, f"{field} {value!r} does not match [A-Za-z0-9_/-]+")
    return value


def _parse_int(path: Path, line: int, field: str, value: str) -> int:
    # the grammar is -?[0-9]+; int() alone also takes "+5", " 5", "1_000" and non-ASCII digits
    if not (value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit())):
        raise ParseError(path, line, f"{field} {value!r} is not an integer")
    return int(value)


def _read_fields(path: Path) -> FieldTaxonomy:
    mapping: dict[str, str] = {}
    for line, (sds_id, uda_id) in _read_rows(path, ["sds_id", "uda_id"]):
        sds_id = _parse_id(path, line, "sds_id", sds_id)
        uda_id = _parse_id(path, line, "uda_id", uda_id)
        if sds_id in mapping:
            raise ParseError(path, line, f"duplicate sds_id {sds_id!r}")
        mapping[sds_id] = uda_id
    return FieldTaxonomy(sds_to_uda=mapping)


def _read_researchers(path: Path) -> list[ResearcherRecord]:
    out = []
    seen: set[str] = set()
    for line, (rid, univ, sds) in _read_rows(path, ["researcher_id", "university_id", "sds_id"]):
        rid = _parse_id(path, line, "researcher_id", rid)
        if rid in seen:
            raise ParseError(path, line, f"duplicate researcher_id {rid!r}")
        seen.add(rid)
        out.append(
            ResearcherRecord(
                researcher_id=rid,
                university_id=_parse_id(path, line, "university_id", univ),
                sds_id=_parse_id(path, line, "sds_id", sds),
            )
        )
    return out


def _parse_categories(path: Path, line: int, spec: str) -> tuple[tuple[str, float], ...]:
    """Parse "CAT;CAT2" (uniform weights) or "CAT:0.5;CAT2:0.5" (explicit).

    Explicit and omitted weights cannot be mixed within one publication;
    explicit weights must sum to 1 within 1e-9.
    """
    if not spec:
        raise ParseError(path, line, "categories field is empty")
    parts = spec.split(";")
    explicit = [":" in p for p in parts]
    if any(explicit) and not all(explicit):
        raise ParseError(path, line, f"mixed weighted/unweighted categories in {spec!r}")
    cats: list[tuple[str, float]] = []
    seen: set[str] = set()
    for part in parts:
        if ":" in part:
            name, _, raw = part.partition(":")
            try:
                weight = float(raw)
            except ValueError:
                raise ParseError(path, line, f"bad category weight {raw!r}") from None
        else:
            name, weight = part, 1.0 / len(parts)
        name = _parse_id(path, line, "category", name)
        if name in seen:
            raise ParseError(path, line, f"category {name!r} listed twice")
        seen.add(name)
        if not (0.0 < weight <= 1.0):
            raise ParseError(path, line, f"category weight {weight} outside (0, 1]")
        cats.append((name, weight))
    total = sum(w for _, w in cats)
    if abs(total - 1.0) > 1e-9:
        raise ParseError(path, line, f"category weights sum to {total}, expected 1")
    return tuple(cats)


def _read_publications(
    path: Path,
) -> dict[str, tuple[int, tuple[tuple[str, float], ...], dict[int, int]]]:
    pubs: dict[str, tuple[int, tuple[tuple[str, float], ...], dict[int, int]]] = {}
    for line, (pid, year, cats) in _read_rows(path, ["pub_id", "pub_year", "categories"]):
        pid = _parse_id(path, line, "pub_id", pid)
        if pid in pubs:
            raise ParseError(path, line, f"duplicate pub_id {pid!r}")
        pubs[pid] = (
            _parse_int(path, line, "pub_year", year),
            _parse_categories(path, line, cats),
            {},
        )
    return pubs


def _attach_citations(path: Path, pubs: dict) -> None:
    for line, (pid, year, count) in _read_rows(path, ["pub_id", "obs_year", "cum_citations"]):
        pid = _parse_id(path, line, "pub_id", pid)
        if pid not in pubs:
            raise ParseError(path, line, f"citation row references unknown pub_id {pid!r}")
        obs_year = _parse_int(path, line, "obs_year", year)
        n = _parse_int(path, line, "cum_citations", count)
        if n < 0:
            raise ParseError(path, line, f"negative citation count {n}")
        pub_year, _, counts = pubs[pid]
        if obs_year < pub_year:
            raise ParseError(
                path, line, f"obs_year {obs_year} precedes publication year {pub_year} of {pid!r}"
            )
        if obs_year in counts:
            raise ParseError(path, line, f"duplicate citation row for ({pid!r}, {obs_year})")
        # counts are cumulative; rows may arrive in any year order
        for other_year, other in counts.items():
            if (obs_year - other_year) * (n - other) < 0:
                raise ParseError(
                    path,
                    line,
                    f"cumulative citations of {pid!r} decrease between years "
                    f"{min(other_year, obs_year)} and {max(other_year, obs_year)}",
                )
        counts[obs_year] = n


def _read_authorship(path: Path) -> list[AuthorshipLink]:
    out = []
    seen: set[tuple[str, str]] = set()
    for line, (pid, rid) in _read_rows(path, ["pub_id", "researcher_id"]):
        pid = _parse_id(path, line, "pub_id", pid)
        rid = _parse_id(path, line, "researcher_id", rid)
        if (pid, rid) in seen:
            raise ParseError(path, line, f"duplicate authorship pair ({pid!r}, {rid!r})")
        seen.add((pid, rid))
        out.append(AuthorshipLink(pub_id=pid, researcher_id=rid))
    return out
