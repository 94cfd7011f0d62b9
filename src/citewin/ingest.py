"""Flat-file corpus loading and the field representativity filter.

A corpus is a directory of the five UTF-8 CSV files of FILES, with header
rows and no quoting. Each is read once: one regex checks the grammar of its
whole text, and the lines it accepts, ASCII by that grammar, are cut into
columns on their bytes with numpy: one scan for "," and "\n" bounds every
field, integers add up digit by digit and ids become fixed-width byte
strings. The columns go to the _check_* function of the file, the one owner
of that file's invariants. Each key column is sorted once, stably: that order
finds its repeats and puts ids in order, and a later file's references are
found by binary search in the sorted ids. Byte strings become str once, when
a corpus passes; its columns are then cached beside its files, in CACHE_NAME.
"""

from __future__ import annotations

import io
import os
import re
import threading
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Mapping, NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Corpus
from .errors import IntegrityError, MissingInputError, ParseError

_ID, _INT = r"[A-Za-z0-9_/-]+", r"-?[0-9]+"
_WEIGHT = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_KINDS = {"id": _ID, "int": _INT, "weight": _WEIGHT,
          "categories": rf"{_ID}(?::{_WEIGHT}(?:;{_ID}:{_WEIGHT})*|(?:;{_ID})*)"}
FILES = {
    "publications.csv": (("pub_id", "id"), ("pub_year", "int"), ("categories", "categories")),
    "citations.csv": (("pub_id", "id"), ("obs_year", "int"), ("cum_citations", "int")),
    "authorship.csv": (("pub_id", "id"), ("researcher_id", "id")),
    "researchers.csv": (("researcher_id", "id"), ("university_id", "id"), ("sds_id", "id")),
    "fields.csv": (("sds_id", "id"), ("uda_id", "id")),
}
WEIGHT_SUM_TOL = 1e-9
# the national baseline rules of the analysis, here where the command-line parser reads them
BASELINE_RULES = ("aggregate", "mean")
Fail = Callable[[int, str, type], NoReturn]
CACHE_NAME = ".citewin-cache.npz"
# the dtype kind and ndim of every Corpus column, as a cache holds them besides its key
_LAYOUT = dict(sds_ids="U1", uda_ids="U1", sds_uda="i1", pub_ids="U1", pub_year="i1",
               obs_years="i1", counts="i2", present="b2", categories="U1", entry_pub="i1",
               entry_cat="i1", entry_weight="f1", researcher_ids="U1", universities="U1",
               res_univ="i1", res_sds="i1", link_pub="i1", link_res="i1")


@dataclass(frozen=True, eq=False)
class RepresentativityReport:
    """Staff, publishing staff and whether each SDS is retained, in sds_ids order."""

    sds_ids: np.ndarray
    staff: np.ndarray
    publishing: np.ndarray
    retained: np.ndarray

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.setflags(write=False)

    def csv_rows(self) -> list[list[str]]:
        out = [["sds_id", "staff", "publishing_staff", "coverage", "retained"]]
        for sds, n, k, kept in zip(self.sds_ids.tolist(), self.staff.tolist(),
                                   self.publishing.tolist(), self.retained.tolist()):
            out.append([sds, str(n), str(k), f"{k / n:.6f}" if n else "NA", str(int(kept))])
        return out


def load_corpus(directory: str | Path) -> Corpus:
    """Parse and validate the five corpus files under `directory`, fields.csv first.

    Raises MissingInputError when a file is absent, else the first offending row of a file:
    IntegrityError when a researcher's SDS or an authorship row's publication or researcher
    is not defined by an earlier file, ParseError otherwise. The columns of a corpus that
    passed are read back from its cache while neither its files nor this code change."""
    root = Path(directory)
    if not root.is_dir():
        raise MissingInputError(f"corpus directory not found: {root}")
    missing = [name for name in FILES if not (root / name).is_file()]
    if missing:
        raise MissingInputError(f"missing corpus files in {root}: {', '.join(missing)}")

    data = {name: (root / name).read_bytes() for name in FILES}
    cache = root / CACHE_NAME
    key = _cache_key(data) if cache.is_file() else None
    if key is not None and (cached := _read_cache(cache, key)) is not None:
        return Corpus(**cached)
    checked = partial(_checked, root, data)
    cols = checked("fields.csv", lambda c, fail: _check_taxonomy(*c, fail))
    cols |= checked("researchers.csv", lambda c, fail: _check_researchers(cols, *c, fail))
    cols |= checked("publications.csv", lambda c, fail: _check_publications(*c, fail))
    cols |= checked("citations.csv", lambda c, fail: _check_citations(cols, *c, fail))
    cols |= checked("authorship.csv", lambda c, fail: _check_links(cols, *c, fail))
    cols = {name: _unicode(c) if c.dtype.kind == "S" else c for name, c in cols.items()}
    # best effort: a temporary file renamed into place, so readers find no cache or a whole one
    tmp = root / f"{CACHE_NAME}.{os.getpid()}-{threading.get_ident()}.tmp.npz"
    try:
        np.savez(tmp, key=np.array(key or _cache_key(data)), **cols)
        os.replace(tmp, cache)
    except OSError:  # a read-only directory, a full disk: no cache and no temporary file
        tmp.unlink(missing_ok=True)
    return Corpus(**cols)


def representativity_filter(
    corpus: Corpus, pub_period: tuple[int, int], threshold: float
) -> RepresentativityReport:
    """Flag which SDSs are representative enough to enter the evaluation.

    An SDS is retained iff the national fraction of its researchers with at
    least one publication dated inside `pub_period` reaches `threshold`
    (inclusive). SDSs without any staff are excluded.
    """
    check_filter_arguments(pub_period, threshold)
    in_period = (corpus.pub_year >= pub_period[0]) & (corpus.pub_year <= pub_period[1])
    publishing = np.zeros(corpus.res_sds.size, dtype=bool)  # plain np.unique imports numpy.ma
    publishing[corpus.link_res[in_period[corpus.link_pub]]] = True
    n_sds = len(corpus.sds_ids)
    staff = np.bincount(corpus.res_sds, minlength=n_sds)
    active = np.bincount(corpus.res_sds[publishing], minlength=n_sds)
    # the share as a float division: 7 of 25 reaches 0.28, though 0.28 * 25 > 7
    retained = (staff > 0) & (active / np.maximum(staff, 1) >= threshold)
    return RepresentativityReport(corpus.sds_ids, staff, active, retained)


def check_filter_arguments(pub_period: tuple[int, int], threshold: float) -> None:
    """Reject a threshold outside [0, 1] or a publication period that ends before it starts."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if pub_period[0] > pub_period[1]:
        raise ValueError(f"empty publication period {pub_period}")


@cache
def _grammar() -> tuple[dict[str, re.Pattern], dict[str, re.Pattern]]:
    """Each field kind's pattern, and per file a newline followed by neither a row nor a blank
    line: the start of its first line the grammar rejects. Only a parse compiles them."""
    field = {kind: re.compile(pattern) for kind, pattern in _KINDS.items()}
    # a branch for the blank line, not an optional row: 15% faster per line in sre
    bad_line = {name: re.compile("\n(?!{0}(?:\n|\\Z)|\n|\\Z)".format(",".join(
        f"(?:{_KINDS[kind]})" for _c, kind in columns))) for name, columns in FILES.items()}
    return field, bad_line


def _cache_key(data: Mapping[str, bytes]) -> str:
    """sha256 over the digests of the checks and column layout, numpy and the corpus files."""
    from hashlib import sha256  # loads OpenSSL, which a load that fails its checks never needs
    code = [Path(__file__).with_name(name).read_bytes() for name in ("ingest.py", "corpus.py")]
    parts = [*code, np.__version__.encode(), *data.values()]  # the files in FILES order
    return sha256(b"".join(sha256(part).digest() for part in parts)).hexdigest()


def _read_cache(path: Path, key: str) -> dict[str, np.ndarray] | None:
    """The columns cached at `path` under `key` in the current layout; None on any miss."""
    import zipfile  # only a load that finds a cache reads one
    try:
        with zipfile.ZipFile(path) as npz:  # reading whole members checks each one's CRC-32
            cols = {name.removesuffix(".npy"): np.lib.format.read_array(
                io.BytesIO(npz.read(name)), allow_pickle=False) for name in npz.namelist()}
    except Exception:  # whatever the file holds, parsing the CSV files gives the answer
        return None
    if cols.keys() != {*_LAYOUT, "key"} or cols.pop("key").tolist() != key:
        return None
    return cols if all(f"{a.dtype.kind}{a.ndim}" == _LAYOUT[n] for n, a in cols.items()) else None


def _checked(root: Path, data: Mapping[str, bytes], name: str, check: Callable):
    """`check(columns, fail)` over the rows of one file before the first one its grammar or
    int64 rejects, then that row: an earlier offending row is still the one reported."""
    path, columns = root / name, FILES[name]
    text = io.TextIOWrapper(io.BytesIO(data[name]), "utf-8", "replace").read()  # as read_text()
    if not text:
        raise ParseError(path, 1, "file is empty, expected a header row")
    head = text[: text.find("\n")] if "\n" in text else text  # no copy of the rest
    header = [c for c, _k in columns]
    if head.split(",") != header:
        raise ParseError(path, 1, f"bad header {head.split(',')!r}, expected {header!r}")
    error, stop, found = None, len(text), _grammar()[1][name].search(text, len(head))
    if found:
        stop = found.start() + 1
        error = ParseError(path, text.count("\n", 0, stop) + 1,
                           _grammar_error(text[stop:].partition("\n")[0], columns))
    # from the header's newline on, the lines the grammar accepts: ASCII rows and blank lines
    raw = text[len(head) : stop].encode("ascii") + b"\n"
    del text
    sep = np.frombuffer(raw, np.uint8)
    sep = (sep == ord(",")) | (sep == ord("\n"))
    # no field is empty, so the fields' bounds are where separators and field bytes meet:
    # start, end, start, end, ... in row and then column order
    bounds = np.flatnonzero(sep[1:] != sep[:-1]).reshape(-1, len(columns), 2)
    bounds += 1
    del sep
    raw += bytes(int((bounds[..., 1] - bounds[..., 0]).max(initial=0)))  # room for any field
    buf, starts = np.frombuffer(raw, np.uint8), bounds[:, 0, 0].copy()

    def line(row: int) -> int:
        return raw.count(b"\n", 0, int(starts[row])) + 1

    rows, ints = len(bounds), {}
    for i, (field, kind) in enumerate(columns):
        if kind == "int":
            ints[i], big = _ints(buf, *bounds[:, i].T)
            if big is not None and big < rows:  # on one row the earlier column is reported
                value = raw[slice(*bounds[big, i])].decode()
                error = ParseError(path, line(big),
                                   f"{field} {value!r} is outside the 64-bit integer range")
                rows = big
    cols = [ints[i][:rows] if kind == "int" else _entries(buf, *bounds[:rows, i].T)
            if kind == "categories" else _fixed(buf, *bounds[:rows, i].T)
            for i, (_f, kind) in enumerate(columns)]
    del bounds, ints

    def fail(row: int, message: str, cls: type):
        raise ParseError(path, line(row), message) if cls is ParseError else cls(
            f"{path}:{line(row)}: {message}")

    result = check(cols, fail)
    if error is not None:
        raise error
    return result


def _grammar_error(text: str, columns: tuple[tuple[str, str], ...]) -> str:
    """What is wrong with one line the body grammar rejects."""
    values, field = text.split(","), _grammar()[0]
    if len(values) != len(columns):
        return f"expected {len(columns)} fields, got {len(values)}"
    for value, (name, kind) in zip(values, columns):
        if kind != "categories" and not field[kind].fullmatch(value):
            problem = "is not an integer" if kind == "int" else f"does not match {_ID}"
            return f"{name} {value!r} {problem}"
        parts = [part.partition(":") for part in value.split(";")] if kind == "categories" else []
        if parts and not value:
            return "categories field is empty"
        if 0 < sum(bool(colon) for _n, colon, _w in parts) < len(parts):
            return f"mixed weighted/unweighted categories in {value!r}"
        for cat, colon, weight in parts:
            if colon and not field["weight"].fullmatch(weight):
                return f"bad category weight {weight!r}"
            if not field["id"].fullmatch(cat):
                return f"category {cat!r} does not match {_ID}"
    raise AssertionError(f"the grammar rejects {text!r} for no reason found")


def _fixed(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The bytes buf[start:end] of each field as one fixed-width byte string."""
    width = end - start
    size = max(1, int(width.max(initial=0)))
    chars = sliding_window_view(buf, size)[start]
    chars[np.arange(size) >= width[:, None]] = 0
    return chars.view(f"S{size}").ravel()


def _ints(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The value of each integer field, and the first row whose value lies outside int64 (None
    if none does). Up to 18 digits add up within int64; longer fields are read as Python ints."""
    minus = buf[start] == ord("-")
    digits = end - start - minus
    values = np.zeros(len(start), dtype=np.int64)
    for place in range(min(18, int(digits.max(initial=0))), 0, -1):  # `place` bytes before the end
        values *= 10
        values += np.where(digits >= place, buf[end - place] - ord("0"), 0)
    np.negative(values, out=values, where=minus)
    for row in np.flatnonzero(digits > 18).tolist():
        significant = buf[end[row] - digits[row] : end[row]].tobytes().lstrip(b"0")
        # no value of 20 significant digits fits, and int() refuses more than 4,300
        value = int(significant[:20] or b"0") * (-1 if minus[row] else 1)
        if len(significant) > 19 or value >> 63 not in (0, -1):
            return values, row
        values[row] = value
    return values, None


def _entries(buf: np.ndarray, start: np.ndarray,
             end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, category, weight) of every category listed in the categories fields between
    `start` and `end`; bare ones share weight 1 evenly."""
    span = slice(int(start[0]), int(end[-1])) if len(start) else slice(0, 0)
    # in the rows the grammar accepts, only categories fields hold ";" and ":"
    semi, colon = (np.flatnonzero(buf[span] == ord(c)) + span.start for c in ";:")
    first, last = np.sort(np.concatenate((start, semi + 1))), np.sort(np.concatenate((semi, end)))
    row = np.searchsorted(start, first, "right") - 1
    weight = 1.0 / np.bincount(row, minlength=len(start))[row]
    if colon.size:  # the name of a weighted category ends at its colon
        at = colon[np.searchsorted(colon, first).clip(max=colon.size - 1)]
        weighted = (at >= first) & (at < last)
        texts, text_of = np.unique(_fixed(buf, at[weighted] + 1, last[weighted]),
                                   return_inverse=True)
        weight[weighted] = np.array([float(w) for w in texts.tolist()])[text_of]
        last = np.where(weighted, at, last)
    return row, _fixed(buf, first, last), weight


# ---------------------------------------------------------------------------
# the invariants of each file, checked on its columns; each reports the first
# offending row through `fail(row, message, error_class)`


def _check_taxonomy(sds: np.ndarray, uda: np.ndarray, fail: Fail) -> dict[str, np.ndarray]:
    """The sorted SDSs and UDAs and the UDA of each SDS; rejects a repeated SDS."""
    order, again = _sorted(sds)
    _first_failure(fail, [(again, lambda r: f"duplicate sds_id {_id(sds, r)}", ParseError)])
    uda_ids, sds_uda = np.unique(uda[order], return_inverse=True)
    return dict(sds_ids=sds[order], uda_ids=uda_ids, sds_uda=sds_uda)


def _check_researchers(cols: Mapping[str, np.ndarray], ids: np.ndarray, univ: np.ndarray,
                       sds: np.ndarray, fail: Fail) -> dict[str, np.ndarray]:
    """Researcher columns; rejects repeated ids and SDSs outside the taxonomy."""
    res_sds, known = _lookup(cols["sds_ids"], sds)
    order, again = _sorted(ids)
    _first_failure(fail, [
        (again, lambda r: f"duplicate researcher_id {_id(ids, r)}", ParseError),
        (~known, lambda r: f"researcher {_id(ids, r)}: sds_id {_id(sds, r)} missing from "
         "taxonomy", IntegrityError),
    ])
    universities, res_univ = np.unique(univ, return_inverse=True)
    return dict(researcher_ids=ids[order], universities=universities,
                res_univ=res_univ[order], res_sds=res_sds[order])


def _check_publications(ids: np.ndarray, year: np.ndarray, entries: tuple[np.ndarray, ...],
                        fail: Fail) -> dict[str, np.ndarray]:
    """Publication columns from one (row, category, weight) entry per listed category (the
    grammar admits no row without one); rejects repeated ids, a category listed twice, weights
    outside (0, 1] and weight sums (added in listed order) off 1 by more than 1e-9."""
    n, (row, entry_cat, weight) = len(ids), entries
    categories, cat = np.unique(entry_cat, return_inverse=True)
    twice = _sorted(row * len(categories) + cat)[1]
    bad = twice | ~((weight > 0.0) & (weight <= 1.0))
    total = np.bincount(row, weights=weight, minlength=n)

    def entry_message(r: int) -> str:
        e = np.flatnonzero((row == r) & bad)[0]
        return (f"category {_id(entry_cat, e)} listed twice" if twice[e]
                else f"category weight {float(weight[e])} outside (0, 1]")

    order, again = _sorted(ids)
    _first_failure(fail, [
        (again, lambda r: f"duplicate pub_id {_id(ids, r)}", ParseError),
        (np.bincount(row[bad], minlength=n) > 0, entry_message, ParseError),
        (np.abs(total - 1.0) > WEIGHT_SUM_TOL,
         lambda r: f"category weights sum to {float(total[r])}, expected 1", ParseError),
    ])
    rank = np.empty_like(order)  # input row -> position in id order
    rank[order] = np.arange(n)
    by_pub = np.argsort(rank[row], kind="stable")
    return dict(pub_ids=ids[order], pub_year=year[order],
                categories=categories, entry_pub=rank[row][by_pub],
                entry_cat=cat[by_pub], entry_weight=weight[by_pub])


def _check_citations(cols: Mapping[str, np.ndarray], pub_refs: np.ndarray, year: np.ndarray,
                     count: np.ndarray, fail: Fail) -> dict[str, np.ndarray]:
    """Citation matrix from (publication, obs_year, cumulative count) rows; rejects unknown
    publications, negative counts, years before the publication year, repeated (publication,
    year) rows and counts that decrease as the year advances, found from one sort."""
    pub, known = _lookup(cols["pub_ids"], pub_refs)
    pub_year = np.append(cols["pub_year"], 0)[pub]
    obs_years, col = np.unique(year, return_inverse=True)
    order, again = _sorted(pub * len(obs_years) + col)
    p, c = pub[order], count[order]
    # in (year, input) order a publication whose counts decrease has a descent between neighbours
    descent = (p[1:] == p[:-1]) & (p[1:] >= 0) & (c[1:] < c[:-1])
    clash = _first_clashes(pub, year, count, p[1:][descent])
    falling = np.zeros(len(pub), dtype=bool)
    falling[list(clash)] = True
    _first_failure(fail, [
        (~known, lambda r: f"citation row references unknown pub_id {_id(pub_refs, r)}",
         ParseError),
        (known & (count < 0), lambda r: f"negative citation count {int(count[r])}", ParseError),
        (known & (year < pub_year), lambda r: f"obs_year {int(year[r])} precedes publication "
         f"year {int(pub_year[r])} of {_id(pub_refs, r)}", ParseError),
        (again, lambda r: f"duplicate citation row for ({_id(pub_refs, r)}, {int(year[r])})",
         ParseError),
        (falling, lambda r: f"cumulative citations of {_id(pub_refs, r)} decrease between years "
         f"{int(year[[r, clash[r]]].min())} and {int(year[[r, clash[r]]].max())}", ParseError),
    ])
    counts = np.zeros((len(cols["pub_ids"]), len(obs_years)), dtype=np.int64)
    present = np.zeros(counts.shape, dtype=bool)
    counts[pub, col], present[pub, col] = count, True
    return dict(obs_years=obs_years, counts=counts, present=present)


def _check_links(cols: Mapping[str, np.ndarray], pub_refs: np.ndarray, res_refs: np.ndarray,
                 fail: Fail) -> dict[str, np.ndarray]:
    """Authorship links; rejects unknown publications or researchers and repeated pairs."""
    pub, pub_known = _lookup(cols["pub_ids"], pub_refs)
    res, res_known = _lookup(cols["researcher_ids"], res_refs)
    _first_failure(fail, [
        (~pub_known, lambda r: f"authorship references unknown pub_id {_id(pub_refs, r)}",
         IntegrityError),
        (~res_known, lambda r: f"authorship references unknown researcher_id "
         f"{_id(res_refs, r)}", IntegrityError),
        (pub_known & res_known & _sorted(pub * len(cols["researcher_ids"]) + res)[1],
         lambda r: f"duplicate authorship pair ({_id(pub_refs, r)}, {_id(res_refs, r)})",
         ParseError),
    ])
    return dict(link_pub=pub, link_res=res)


def _first_failure(fail: Fail, checks: list[tuple[np.ndarray, Callable[[int], str], type]]) -> None:
    """Fail at the first row any mask flags; on the same row the earlier check wins."""
    flagged = [(int(np.argmax(mask)), i) for i, (mask, _m, _c) in enumerate(checks) if mask.any()]
    if flagged:
        row, i = min(flagged)
        _mask, message, cls = checks[i]
        fail(row, message(row), cls)


def _sorted(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of a key column, and the mask of rows whose key equals an earlier row's."""
    order = np.argsort(key, kind="stable")
    again = np.zeros(len(key), dtype=bool)
    again[order[1:]] = key[order[1:]] == key[order[:-1]]
    return order, again


def _lookup(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position of each value in the sorted ids, -1 when absent; whether it is present)."""
    pos = np.searchsorted(ids, values)
    known = np.append(ids, b"")[pos] == values  # no id is empty, so none matches past the end
    return np.where(known, pos, -1), known


def _unicode(ids: np.ndarray) -> np.ndarray:
    """A column of ASCII byte strings as str: each byte widened to the code point it spells."""
    return ids.view(np.uint8).astype(np.uint32).view(f"U{ids.itemsize}")


def _id(column: np.ndarray, row: int) -> str:
    """The id at `row` of a byte-string column, quoted as a message shows it."""
    return repr(column[row].decode())


def _first_clashes(pub: np.ndarray, year: np.ndarray, count: np.ndarray,
                   pubs: np.ndarray) -> dict[int, int]:
    """For each publication in `pubs`, its first row (in input order) whose count moves
    against the year relative to an earlier row of it -> the first such earlier row."""
    rows_of: dict[int, list | None] = {}
    clash: dict[int, int] = {}
    sel = np.flatnonzero(np.isin(pub, pubs))
    for r, p, y, c in zip(sel.tolist(), pub[sel].tolist(), year[sel].tolist(), count[sel].tolist()):
        rows = rows_of.setdefault(p, [])
        if rows is None:
            continue
        j = next((j for j, y0, c0 in rows if (y - y0) * (c - c0) < 0), None)
        if j is None:
            rows.append((r, y, c))
        else:
            clash[r], rows_of[p] = j, None
    return clash
