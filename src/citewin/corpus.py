"""In-memory corpus model: publications, researchers, authorship, field taxonomy.

A Corpus holds columns, built and checked once, table by table, by the
check_* functions for both build_corpus and ingest.load_corpus. Each check
reports the first offending row through `fail(row, message, error_class)`;
the record mappings and dict indexes are read-only views of the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .errors import IntegrityError, ParseError

WEIGHT_SUM_TOL = 1e-9
Fail = Callable[[int, str, type], NoReturn]


@dataclass(frozen=True)
class PublicationRecord:
    """A publication with weighted subject categories and cumulative citations.

    citation_counts maps observation year -> citations accumulated at Dec 31
    of that year. Counts are cumulative, so they never decrease as the
    observation year advances; years may be missing (analyses that need a
    missing year fail fast instead of guessing).
    """

    pub_id: str
    pub_year: int
    category_weights: tuple[tuple[str, float], ...]
    citation_counts: Mapping[int, int]

    def citations_at(self, obs_year: int) -> int | None:
        return self.citation_counts.get(obs_year)


@dataclass(frozen=True)
class ResearcherRecord:
    researcher_id: str
    university_id: str
    sds_id: str


@dataclass(frozen=True)
class AuthorshipLink:
    pub_id: str
    researcher_id: str


@dataclass(frozen=True)
class FieldTaxonomy:
    """Total map from fine-grained field (SDS) to discipline (UDA)."""

    sds_to_uda: Mapping[str, str]

    def uda_of(self, sds_id: str) -> str:
        try:
            return self.sds_to_uda[sds_id]
        except KeyError:
            raise IntegrityError(f"sds_id {sds_id!r} not present in the field taxonomy") from None

    def sds_in_uda(self, uda_id: str) -> tuple[str, ...]:
        return tuple(s for s in sorted(self.sds_to_uda) if self.sds_to_uda[s] == uda_id)

    @property
    def uda_ids(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.sds_to_uda.values())))

    @property
    def sds_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.sds_to_uda))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated columns, publications and researchers in id order, plus record views.

    Cell = (university_id, sds_id). A publication appears once per cell even
    when several researchers of the cell co-authored it, and under every
    cell of its authors.
    """

    taxonomy: FieldTaxonomy
    pub_ids: np.ndarray  # [P], sorted
    pub_year: np.ndarray  # [P]
    obs_years: np.ndarray  # [Y]: every observation year of any citation row, sorted
    counts: np.ndarray  # [P, Y] cumulative citations, 0 where absent
    present: np.ndarray  # [P, Y] whether the count was given
    categories: np.ndarray  # sorted category ids
    entry_pub: np.ndarray  # (publication, category, weight) entries, by publication
    entry_cat: np.ndarray  # and then in listed order; entry_cat indexes categories
    entry_weight: np.ndarray
    researcher_ids: np.ndarray  # [R], sorted
    universities: np.ndarray  # sorted university ids
    res_univ: np.ndarray  # [R] index into universities
    res_sds: np.ndarray  # [R] index into taxonomy.sds_ids
    link_pub: np.ndarray  # authorship links, in input order
    link_res: np.ndarray

    def __post_init__(self) -> None:
        # the record views are cached, so the columns they read must not change
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    @cached_property
    def publications(self) -> Mapping[str, PublicationRecord]:
        cats: list[list[tuple[str, float]]] = [[] for _ in self.pub_ids]
        for p, cat, weight in zip(self.entry_pub.tolist(), self.categories[self.entry_cat].tolist(),
                                  self.entry_weight.tolist()):
            cats[p].append((cat, weight))
        years = self.obs_years.tolist()
        counts = [{y: n for y, n, has in zip(years, ns, given) if has}
                  for ns, given in zip(self.counts.tolist(), self.present.tolist())]
        rows = zip(self.pub_ids.tolist(), self.pub_year.tolist(), cats, counts)
        return MappingProxyType({p: PublicationRecord(p, y, tuple(c), n) for p, y, c, n in rows})

    @cached_property
    def researchers(self) -> Mapping[str, ResearcherRecord]:
        univ = self.universities[self.res_univ].tolist()
        sds = np.array(self.taxonomy.sds_ids, dtype=str)[self.res_sds].tolist()
        return MappingProxyType({r: ResearcherRecord(r, u, s)
                                 for r, u, s in zip(self.researcher_ids.tolist(), univ, sds)})

    @cached_property
    def authorships(self) -> tuple[AuthorshipLink, ...]:
        return tuple(map(AuthorshipLink, self.pub_ids[self.link_pub].tolist(),
                         self.researcher_ids[self.link_res].tolist()))

    @cached_property
    def researchers_by_cell(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        return _index(((r.university_id, r.sds_id), r.researcher_id)
                      for r in self.researchers.values())

    @cached_property
    def pubs_by_cell(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        cell = {r.researcher_id: (r.university_id, r.sds_id) for r in self.researchers.values()}
        return _index((cell[link.researcher_id], link.pub_id) for link in self.authorships)

    @cached_property
    def pubs_by_researcher(self) -> Mapping[str, tuple[str, ...]]:
        return _index((link.researcher_id, link.pub_id) for link in self.authorships)

    def cell_staff_count(self, university_id: str, sds_id: str) -> int:
        return len(self.researchers_by_cell.get((university_id, sds_id), ()))

    def cell_pubs(self, university_id: str, sds_id: str) -> tuple[str, ...]:
        return self.pubs_by_cell.get((university_id, sds_id), ())


def build_corpus(
    publications: Iterable[PublicationRecord],
    researchers: Iterable[ResearcherRecord],
    authorships: Iterable[AuthorshipLink],
    taxonomy: FieldTaxonomy,
) -> Corpus:
    """Check in-memory records and assemble them; IntegrityError names an offending record."""
    pubs, res, links = list(publications), list(researchers), list(authorships)
    pub_ids = [p.pub_id for p in pubs]
    entries = [(i, c, w) for i, p in enumerate(pubs) for c, w in p.category_weights]
    cited_ids, years, counts = _columns([(p.pub_id, y, n) for p in pubs
                                         for y, n in p.citation_counts.items()], 3)
    cols = check_researchers(taxonomy, *_columns([(r.researcher_id, r.university_id, r.sds_id)
                                                  for r in res], 3), _naming(None))
    cols |= check_publications(pub_ids, [p.pub_year for p in pubs], *_columns(entries, 3),
                               _naming(pub_ids))
    cols |= check_citations(cols, cited_ids, years, counts, _naming(cited_ids))
    cols |= check_links(cols, *_columns([(l.pub_id, l.researcher_id) for l in links], 2),
                        _naming(None))
    return Corpus(taxonomy=taxonomy, **cols)


def _columns(rows: list[tuple], width: int) -> list[list]:
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


def _naming(pub_ids: Sequence[str] | None) -> Fail:
    """fail() for records: IntegrityError, naming the publication when pub_ids are given."""
    def fail(row: int, message: str, _cls: type) -> NoReturn:
        raise IntegrityError(f"publication {pub_ids[row]!r}: {message}" if pub_ids else message)
    return fail


def _index(pairs: Iterable[tuple]) -> Mapping:
    """key -> its distinct values, sorted, as a read-only mapping."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, set()).add(value)
    return MappingProxyType({key: tuple(sorted(values)) for key, values in out.items()})


def check_taxonomy(sds: Sequence[str], uda: Sequence[str], fail: Fail) -> FieldTaxonomy:
    """The SDS -> UDA map; rejects a repeated SDS."""
    _first_failure(fail, [(_repeats(sds), lambda r: f"duplicate sds_id {sds[r]!r}", ParseError)])
    return FieldTaxonomy(sds_to_uda=dict(zip(sds, uda)))


def check_researchers(taxonomy: FieldTaxonomy, ids: Sequence[str], univ: Sequence[str],
                      sds: Sequence[str], fail: Fail) -> dict[str, np.ndarray]:
    """Researcher columns; rejects repeated ids and SDSs outside the taxonomy."""
    arr = np.array(ids, dtype=str)
    res_sds, known = _lookup(taxonomy.sds_ids, sds)
    _first_failure(fail, [
        (_repeats(arr), lambda r: f"duplicate researcher_id {ids[r]!r}", ParseError),
        (~known, lambda r: f"researcher {ids[r]!r}: sds_id {sds[r]!r} missing from taxonomy",
         IntegrityError),
    ])
    order = np.argsort(arr)
    universities, res_univ = np.unique(np.array(univ, dtype=str), return_inverse=True)
    return dict(researcher_ids=arr[order], universities=universities,
                res_univ=res_univ[order], res_sds=res_sds[order])


def check_publications(ids: Sequence[str], year: Sequence[int], entry_row: Sequence[int],
                       entry_cat: Sequence[str], entry_weight: Sequence[float],
                       fail: Fail) -> dict[str, np.ndarray]:
    """Publication columns from one (row, category, weight) entry per listed category; rejects
    repeated ids, no categories, a category listed twice, weights outside (0, 1] and weight
    sums (added in listed order) off 1 by more than 1e-9."""
    arr, n = np.array(ids, dtype=str), len(ids)
    row, weight = np.array(entry_row, dtype=np.intp), np.array(entry_weight, dtype=float)
    categories, cat = np.unique(np.array(entry_cat, dtype=str), return_inverse=True)
    twice = _repeats(row * len(categories) + cat)
    bad = twice | ~((weight > 0.0) & (weight <= 1.0))
    total = np.bincount(row, weights=weight, minlength=n)

    def entry_message(r: int) -> str:
        e = np.flatnonzero((row == r) & bad)[0]
        return (f"category {entry_cat[e]!r} listed twice" if twice[e]
                else f"category weight {float(weight[e])} outside (0, 1]")

    _first_failure(fail, [
        (_repeats(arr), lambda r: f"duplicate pub_id {ids[r]!r}", ParseError),
        (np.bincount(row, minlength=n) == 0, lambda r: "no subject categories", ParseError),
        (np.bincount(row[bad], minlength=n) > 0, entry_message, ParseError),
        (np.abs(total - 1.0) > WEIGHT_SUM_TOL,
         lambda r: f"category weights sum to {float(total[r])}, expected 1", ParseError),
    ])
    order = np.argsort(arr)
    rank = np.argsort(order)  # input row -> position in id order
    by_pub = np.argsort(rank[row], kind="stable")
    return dict(pub_ids=arr[order], pub_year=np.asarray(year, dtype=np.int64)[order],
                categories=categories, entry_pub=rank[row][by_pub], entry_cat=cat[by_pub],
                entry_weight=weight[by_pub])


def check_citations(cols: Mapping[str, np.ndarray], pub_refs: Sequence[str], year: Sequence[int],
                    count: Sequence[int], fail: Fail) -> dict[str, np.ndarray]:
    """Citation matrix from (publication, obs_year, cumulative count) rows; rejects unknown
    publications, negative counts, years before the publication year, repeated (publication,
    year) rows and counts that decrease as the year advances, found from one sort."""
    pub, known = _lookup(cols["pub_ids"], pub_refs)
    year, count = np.asarray(year, dtype=np.int64), np.asarray(count, dtype=np.int64)
    pub_year = np.append(cols["pub_year"], 0)[pub]
    obs_years, col = np.unique(year, return_inverse=True)
    order = np.argsort(pub * len(obs_years) + col, kind="stable")
    p, k, c = pub[order], col[order], count[order]
    same_pub, same_year = (p[1:] == p[:-1]) & (p[1:] >= 0), k[1:] == k[:-1]
    again = np.zeros(len(pub), dtype=bool)
    again[order[1:][same_pub & same_year]] = True
    # in (year, input) order a publication whose counts decrease has a descent between neighbours
    clash = _first_clashes(pub, year, count, p[1:][same_pub & (c[1:] < c[:-1])])
    falling = np.isin(np.arange(len(pub)), list(clash))
    _first_failure(fail, [
        (~known, lambda r: f"citation row references unknown pub_id {pub_refs[r]!r}", ParseError),
        (known & (count < 0), lambda r: f"negative citation count {int(count[r])}", ParseError),
        (known & (year < pub_year), lambda r: f"obs_year {int(year[r])} precedes publication "
         f"year {int(pub_year[r])} of {pub_refs[r]!r}", ParseError),
        (again, lambda r: f"duplicate citation row for ({pub_refs[r]!r}, {int(year[r])})",
         ParseError),
        (falling, lambda r: f"cumulative citations of {pub_refs[r]!r} decrease between years "
         f"{int(year[[r, clash[r]]].min())} and {int(year[[r, clash[r]]].max())}", ParseError),
    ])
    counts = np.zeros((len(cols["pub_ids"]), len(obs_years)), dtype=np.int64)
    present = np.zeros(counts.shape, dtype=bool)
    counts[pub, col], present[pub, col] = count, True
    return dict(obs_years=obs_years, counts=counts, present=present)


def check_links(cols: Mapping[str, np.ndarray], pub_refs: Sequence[str], res_refs: Sequence[str],
                fail: Fail) -> dict[str, np.ndarray]:
    """Authorship links; rejects unknown publications or researchers and repeated pairs."""
    pub, pub_known = _lookup(cols["pub_ids"], pub_refs)
    res, res_known = _lookup(cols["researcher_ids"], res_refs)
    _first_failure(fail, [
        (~pub_known, lambda r: f"authorship references unknown pub_id {pub_refs[r]!r}",
         IntegrityError),
        (~res_known, lambda r: f"authorship references unknown researcher_id {res_refs[r]!r}",
         IntegrityError),
        (pub_known & res_known & _repeats(pub * len(cols["researcher_ids"]) + res),
         lambda r: f"duplicate authorship pair ({pub_refs[r]!r}, {res_refs[r]!r})", ParseError),
    ])
    return dict(link_pub=pub, link_res=res)


def _first_failure(fail: Fail, checks: list[tuple[np.ndarray, Callable[[int], str], type]]) -> None:
    """Fail at the first row any mask flags; on the same row the earlier check wins."""
    flagged = [(int(np.argmax(mask)), i) for i, (mask, _m, _c) in enumerate(checks) if mask.any()]
    if flagged:
        row, i = min(flagged)
        _mask, message, cls = checks[i]
        fail(row, message(row), cls)


def _repeats(key: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key equals that of an earlier row."""
    return ~np.isin(np.arange(len(key)), np.unique(key, return_index=True)[1])


def _lookup(ids: Sequence[str], values: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(position of each value in ids, -1 when absent; whether it is present)."""
    index = dict(zip(list(ids), range(len(ids))))
    pos = np.fromiter(map(index.get, values, repeat(-1)), dtype=np.intp, count=len(values))
    return pos, pos >= 0


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
