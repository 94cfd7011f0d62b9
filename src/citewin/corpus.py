"""In-memory corpus model: publications, researchers, authorship, field taxonomy.

A Corpus is immutable once built and safe to read from any number of
concurrent analysis tasks. All derived indexes are computed at build time
from the raw collections, so an index can always be cross-checked by a
full rescan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import IntegrityError

WEIGHT_SUM_TOL = 1e-9


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


@dataclass(frozen=True)
class Corpus:
    """Validated, cross-linked collections plus derived lookup indexes.

    Cell = (university_id, sds_id). A publication appears once per cell even
    when several researchers of the same cell co-authored it; co-authorship
    across different cells indexes it under every cell involved.
    """

    publications: Mapping[str, PublicationRecord]
    researchers: Mapping[str, ResearcherRecord]
    authorships: tuple[AuthorshipLink, ...]
    taxonomy: FieldTaxonomy
    pubs_by_cell: Mapping[tuple[str, str], tuple[str, ...]]
    researchers_by_cell: Mapping[tuple[str, str], tuple[str, ...]]
    pubs_by_researcher: Mapping[str, tuple[str, ...]]

    @property
    def universities(self) -> tuple[str, ...]:
        return tuple(sorted({r.university_id for r in self.researchers.values()}))

    def cell_staff_count(self, university_id: str, sds_id: str) -> int:
        return len(self.researchers_by_cell.get((university_id, sds_id), ()))

    def cell_pubs(self, university_id: str, sds_id: str) -> tuple[str, ...]:
        return self.pubs_by_cell.get((university_id, sds_id), ())


def validate_publication(pub: PublicationRecord) -> None:
    """Check the per-record invariants of a publication.

    Raises IntegrityError on: empty category list, non-positive or >1
    weights, weight sum off 1 by more than 1e-9, negative counts,
    observation year before the publication year, or counts that decrease
    as the observation year advances.
    """
    if not pub.category_weights:
        raise IntegrityError(f"publication {pub.pub_id!r} has no subject categories")
    seen: set[str] = set()
    for cat, w in pub.category_weights:
        if cat in seen:
            raise IntegrityError(f"publication {pub.pub_id!r} lists category {cat!r} twice")
        seen.add(cat)
        if not (0.0 < w <= 1.0):
            raise IntegrityError(
                f"publication {pub.pub_id!r}: category {cat!r} weight {w} outside (0, 1]"
            )
    total = sum(w for _, w in pub.category_weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise IntegrityError(
            f"publication {pub.pub_id!r}: category weights sum to {total}, expected 1"
        )
    prev_year: int | None = None
    prev_count = 0
    for year in sorted(pub.citation_counts):
        count = pub.citation_counts[year]
        if count < 0:
            raise IntegrityError(f"publication {pub.pub_id!r}: negative citation count at {year}")
        if year < pub.pub_year:
            raise IntegrityError(
                f"publication {pub.pub_id!r}: observation year {year} precedes "
                f"publication year {pub.pub_year}"
            )
        if prev_year is not None and count < prev_count:
            raise IntegrityError(
                f"publication {pub.pub_id!r}: cumulative citations decrease "
                f"{prev_count}->{count} between {prev_year} and {year}"
            )
        prev_year, prev_count = year, count


def build_corpus(
    publications: Iterable[PublicationRecord],
    researchers: Iterable[ResearcherRecord],
    authorships: Iterable[AuthorshipLink],
    taxonomy: FieldTaxonomy,
) -> Corpus:
    """Validate cross-references and assemble the indexed corpus.

    Raises IntegrityError naming the offending record on duplicate ids,
    dangling pub/researcher/sds references, duplicate authorship pairs, or
    any per-publication invariant violation.
    """
    pub_map: dict[str, PublicationRecord] = {}
    for pub in publications:
        if pub.pub_id in pub_map:
            raise IntegrityError(f"duplicate pub_id {pub.pub_id!r}")
        validate_publication(pub)
        pub_map[pub.pub_id] = pub

    res_map: dict[str, ResearcherRecord] = {}
    for res in researchers:
        if res.researcher_id in res_map:
            raise IntegrityError(f"duplicate researcher_id {res.researcher_id!r}")
        if res.sds_id not in taxonomy.sds_to_uda:
            raise IntegrityError(
                f"researcher {res.researcher_id!r}: sds_id {res.sds_id!r} missing from taxonomy"
            )
        res_map[res.researcher_id] = res

    links: list[AuthorshipLink] = []
    seen_links: set[tuple[str, str]] = set()
    for link in authorships:
        if link.pub_id not in pub_map:
            raise IntegrityError(f"authorship references unknown pub_id {link.pub_id!r}")
        if link.researcher_id not in res_map:
            raise IntegrityError(
                f"authorship references unknown researcher_id {link.researcher_id!r}"
            )
        key = (link.pub_id, link.researcher_id)
        if key in seen_links:
            raise IntegrityError(f"duplicate authorship pair {key!r}")
        seen_links.add(key)
        links.append(link)

    return Corpus(
        publications=pub_map,
        researchers=res_map,
        authorships=tuple(links),
        taxonomy=taxonomy,
        pubs_by_cell=_index_pubs_by_cell(res_map, links),
        researchers_by_cell=_index_researchers_by_cell(res_map),
        pubs_by_researcher=_index_pubs_by_researcher(links),
    )


def _index_researchers_by_cell(
    researchers: Mapping[str, ResearcherRecord],
) -> dict[tuple[str, str], tuple[str, ...]]:
    cells: dict[tuple[str, str], list[str]] = {}
    for rid in sorted(researchers):
        rec = researchers[rid]
        cells.setdefault((rec.university_id, rec.sds_id), []).append(rid)
    return {cell: tuple(ids) for cell, ids in cells.items()}


def _index_pubs_by_cell(
    researchers: Mapping[str, ResearcherRecord],
    links: Sequence[AuthorshipLink],
) -> dict[tuple[str, str], tuple[str, ...]]:
    # set semantics: same-cell co-authors contribute the publication once
    cells: dict[tuple[str, str], set[str]] = {}
    for link in links:
        rec = researchers[link.researcher_id]
        cells.setdefault((rec.university_id, rec.sds_id), set()).add(link.pub_id)
    return {cell: tuple(sorted(ids)) for cell, ids in cells.items()}


def _index_pubs_by_researcher(links: Sequence[AuthorshipLink]) -> dict[str, tuple[str, ...]]:
    by_res: dict[str, list[str]] = {}
    for link in sorted(links, key=lambda l: (l.researcher_id, l.pub_id)):
        by_res.setdefault(link.researcher_id, []).append(link.pub_id)
    return {rid: tuple(pids) for rid, pids in by_res.items()}
