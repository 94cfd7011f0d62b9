"""In-memory corpus model: the validated corpus columns.

ingest.load_corpus builds every Corpus. Its publication records and per-cell index
are cached views of the columns, for the written definitions in impact.py and
productivity.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np


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


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated columns, publications and researchers in id order.

    Cell = (university_id, sds_id). A publication appears once per cell even
    when several researchers of the cell co-authored it, and under every
    cell of its authors.
    """

    sds_ids: np.ndarray  # [S] fine-grained fields, sorted
    uda_ids: np.ndarray  # [D] disciplines, sorted
    sds_uda: np.ndarray  # [S] index into uda_ids: the discipline of each field
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
    res_sds: np.ndarray  # [R] index into sds_ids
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
    def _pubs_by_cell(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        res = self.link_res
        univ = self.universities[self.res_univ[res]].tolist()
        sds = self.sds_ids[self.res_sds[res]].tolist()
        return _index(zip(zip(univ, sds), self.pub_ids[self.link_pub].tolist()))

    def cell_pubs(self, university_id: str, sds_id: str) -> tuple[str, ...]:
        return self._pubs_by_cell.get((university_id, sds_id), ())


def _index(pairs: Iterable[tuple]) -> Mapping:
    """key -> its distinct values, sorted, as a read-only mapping."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, set()).add(value)
    return MappingProxyType({key: tuple(sorted(values)) for key, values in out.items()})
