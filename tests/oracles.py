"""Brute-force reference implementations used to check the library.

Everything here is written independently of the package internals: plain
loops, exhaustive enumeration, and exact rational arithmetic where it
matters. Keep it slow and obvious.
"""

from __future__ import annotations

import csv
import math
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Sequence


def fractional_ranks_desc(scores: Sequence[float]) -> list[float]:
    """Rank 1 = largest score; tied scores get the average of their positions."""
    ranks = []
    for s in scores:
        greater = sum(1 for t in scores if t > s)
        ties = sum(1 for t in scores if t == s)
        ranks.append(greater + (1 + ties) / 2)
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def spearman_brute(a_scores: Sequence[float], b_scores: Sequence[float]) -> float | None:
    """Pearson correlation of descending fractional ranks."""
    return pearson(fractional_ranks_desc(a_scores), fractional_ranks_desc(b_scores))


def perm_test_exhaustive(top: Sequence[float], rest: Sequence[float]) -> tuple[Fraction, Fraction]:
    """(observed statistic, two-sided p) by enumerating every labeling.

    Exact rational arithmetic, so >= comparisons never suffer rounding.
    """
    pool = [Fraction(v) for v in list(top) + list(rest)]
    k, n = len(top), len(pool)

    def stat(idx: tuple[int, ...]) -> Fraction:
        chosen = sum(pool[i] for i in idx)
        return chosen / k - (sum(pool) - chosen) / (n - k)

    t_obs = stat(tuple(range(k)))
    stats = [stat(idx) for idx in combinations(range(n), k)]
    count = sum(1 for t in stats if abs(t) >= abs(t_obs))
    return t_obs, Fraction(count, len(stats))


def significance_levels(values: Sequence[float]) -> list[float]:
    """For each element, the fraction of all elements >= it."""
    n = len(values)
    return [sum(1 for y in values if y >= x) / n for x in values]


def moment_stats(xs: Sequence[float]) -> dict:
    """Population central-moment descriptives via exact rationals."""
    n = len(xs)
    vals = [Fraction(x) for x in xs]
    mean = sum(vals) / n
    m2 = sum((v - mean) ** 2 for v in vals) / n
    m3 = sum((v - mean) ** 3 for v in vals) / n
    m4 = sum((v - mean) ** 4 for v in vals) / n
    ordered = sorted(vals)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    out = {
        "mean": float(mean),
        "median": float(median),
        "std_dev": math.sqrt(m2),
        "skewness": None,
        "kurtosis": None,
    }
    if m2 > 0:
        out["skewness"] = float(m3) / float(m2) ** 1.5
        out["kurtosis"] = float(m4) / float(m2) ** 2 - 3.0
    return out


# ---------------------------------------------------------------------------
# the per-year analysis walk, built from the package's scalar definitions
# (impact.py, productivity.py): the reference the columnar core is checked
# against


def compute_cells(corpus, retained_sds, pub_period, obs_year, median_table):
    """All (university, SDS) productivity cells of the retained SDSs, SDS by SDS."""
    from citewin.productivity import scientific_strength, sds_productivity

    cells = {}
    for sds_id in sorted(retained_sds):
        for univ in sorted({u for (u, s) in corpus.researchers_by_cell if s == sds_id}):
            rs = corpus.cell_staff_count(univ, sds_id)
            ss = scientific_strength(corpus, univ, sds_id, pub_period, obs_year, median_table)
            cells[(univ, sds_id)] = sds_productivity(univ, sds_id, obs_year, ss, rs)
    return cells


def compute_baselines(cells, rule="aggregate"):
    from citewin.productivity import national_baseline

    by_sds = {}
    for cell in cells.values():
        by_sds.setdefault(cell.sds_id, []).append(cell)
    return {sds: national_baseline(group, rule) for sds, group in sorted(by_sds.items())}


def sds_scores(cells, sds_id):
    """university -> p for one SDS."""
    return {univ: cell.p for (univ, sds), cell in sorted(cells.items()) if sds == sds_id}


def uda_scores(corpus, cells, baselines, uda_id):
    """university -> UdaProductivity for one discipline."""
    from citewin.productivity import uda_productivity

    member_sds = set(corpus.taxonomy.sds_in_uda(uda_id))
    by_univ = {}
    for (univ, sds), cell in sorted(cells.items()):
        if sds in member_sds:
            by_univ.setdefault(univ, []).append(cell)
    return {
        univ: uda_productivity(univ, uda_id, group, baselines)
        for univ, group in sorted(by_univ.items())
    }


# ---------------------------------------------------------------------------
# the row-by-row corpus reader: csv.reader over each file, one row at a time,
# the reference the columnar ingest is checked against. Within a row the
# grammar of every field comes first, then the int64 range, then the values;
# a reference to an earlier file is checked at the row that makes it.

ID_RE = re.compile(r"[A-Za-z0-9_/-]+")
INT_RE = re.compile(r"-?[0-9]+")
WEIGHT_RE = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def read_corpus_rows(directory):
    """(publications by id, researchers, authorship links, taxonomy) of a corpus directory."""
    from citewin.corpus import FieldTaxonomy, PublicationRecord

    root = Path(directory)
    taxonomy = FieldTaxonomy(sds_to_uda=_read_fields(root / "fields.csv"))
    researchers = _read_researchers(root / "researchers.csv", taxonomy)
    pubs = _read_publications(root / "publications.csv")
    _attach_citations(root / "citations.csv", pubs)
    links = _read_authorship(root / "authorship.csv", pubs, {r.researcher_id for r in researchers})
    records = {pid: PublicationRecord(pid, y, c, n) for pid, (y, c, n) in pubs.items()}
    return records, researchers, links, taxonomy


def _read_rows(path, columns):
    """(line, values) of each non-blank row; ints converted, categories split."""
    from citewin.errors import ParseError

    header = [name for name, _kind in columns]
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
            line = reader.line_num
            if len(row) != len(columns):
                raise ParseError(path, line, f"expected {len(columns)} fields, got {len(row)}")
            for value, (name, kind) in zip(row, columns):
                if kind == "id" and not ID_RE.fullmatch(value):
                    raise ParseError(path, line, f"{name} {value!r} does not match [A-Za-z0-9_/-]+")
                if kind == "int" and not INT_RE.fullmatch(value):
                    raise ParseError(path, line, f"{name} {value!r} is not an integer")
                if kind == "categories":
                    _check_category_grammar(path, line, value)
            for value, (name, kind) in zip(row, columns):
                if kind == "int" and not -(2**63) <= int(value) < 2**63:
                    raise ParseError(path, line,
                                     f"{name} {value!r} is outside the 64-bit integer range")
            yield line, [
                int(v) if kind == "int" else _categories(v) if kind == "categories" else v
                for v, (_name, kind) in zip(row, columns)
            ]


def _check_category_grammar(path, line, spec):
    from citewin.errors import ParseError

    if not spec:
        raise ParseError(path, line, "categories field is empty")
    parts = spec.split(";")
    explicit = [":" in p for p in parts]
    if any(explicit) and not all(explicit):
        raise ParseError(path, line, f"mixed weighted/unweighted categories in {spec!r}")
    for part in parts:
        name, colon, raw = part.partition(":")
        if colon and not WEIGHT_RE.fullmatch(raw):
            raise ParseError(path, line, f"bad category weight {raw!r}")
        if not ID_RE.fullmatch(name):
            raise ParseError(path, line, f"category {name!r} does not match [A-Za-z0-9_/-]+")


def _categories(spec):
    parts = spec.split(";")
    out = []
    for part in parts:
        name, colon, raw = part.partition(":")
        out.append((name, float(raw) if colon else 1.0 / len(parts)))
    return out


def _read_fields(path):
    from citewin.errors import ParseError

    mapping = {}
    for line, (sds_id, uda_id) in _read_rows(path, [("sds_id", "id"), ("uda_id", "id")]):
        if sds_id in mapping:
            raise ParseError(path, line, f"duplicate sds_id {sds_id!r}")
        mapping[sds_id] = uda_id
    return mapping


def _read_researchers(path, taxonomy):
    from citewin.corpus import ResearcherRecord
    from citewin.errors import IntegrityError, ParseError

    out, seen = [], set()
    columns = [("researcher_id", "id"), ("university_id", "id"), ("sds_id", "id")]
    for line, (rid, univ, sds) in _read_rows(path, columns):
        if rid in seen:
            raise ParseError(path, line, f"duplicate researcher_id {rid!r}")
        if sds not in taxonomy.sds_to_uda:
            raise IntegrityError(
                f"{path}:{line}: researcher {rid!r}: sds_id {sds!r} missing from taxonomy"
            )
        seen.add(rid)
        out.append(ResearcherRecord(rid, univ, sds))
    return out


def _read_publications(path):
    """pub_id -> [pub_year, categories, counts]"""
    from citewin.errors import ParseError

    pubs = {}
    columns = [("pub_id", "id"), ("pub_year", "int"), ("categories", "categories")]
    for line, (pid, year, cats) in _read_rows(path, columns):
        if pid in pubs:
            raise ParseError(path, line, f"duplicate pub_id {pid!r}")
        seen = set()
        for name, weight in cats:
            if name in seen:
                raise ParseError(path, line, f"category {name!r} listed twice")
            seen.add(name)
            if not (0.0 < weight <= 1.0):
                raise ParseError(path, line, f"category weight {weight} outside (0, 1]")
        total = 0
        for _name, weight in cats:
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ParseError(path, line, f"category weights sum to {total}, expected 1")
        pubs[pid] = (year, tuple(cats), {})
    return pubs


def _attach_citations(path, pubs):
    from citewin.errors import ParseError

    columns = [("pub_id", "id"), ("obs_year", "int"), ("cum_citations", "int")]
    for line, (pid, obs_year, n) in _read_rows(path, columns):
        if pid not in pubs:
            raise ParseError(path, line, f"citation row references unknown pub_id {pid!r}")
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


def _read_authorship(path, pubs, researcher_ids):
    from citewin.corpus import AuthorshipLink
    from citewin.errors import IntegrityError, ParseError

    out, seen = [], set()
    for line, (pid, rid) in _read_rows(path, [("pub_id", "id"), ("researcher_id", "id")]):
        if pid not in pubs:
            raise IntegrityError(f"{path}:{line}: authorship references unknown pub_id {pid!r}")
        if rid not in researcher_ids:
            raise IntegrityError(
                f"{path}:{line}: authorship references unknown researcher_id {rid!r}"
            )
        if (pid, rid) in seen:
            raise ParseError(path, line, f"duplicate authorship pair ({pid!r}, {rid!r})")
        seen.add((pid, rid))
        out.append(AuthorshipLink(pub_id=pid, researcher_id=rid))
    return out
