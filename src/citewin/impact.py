"""Citation-median reference table and the per-publication impact score.

A publication's impact at an observation year is its cumulative citation
count divided by the median count of cited publications from the same
publication year and subject category; multi-category publications take
the weighted average of the per-category ratios. Uncited publications
score 0 and are excluded from every median.

These functions are the written definition, one year at a time;
analysis.run_analysis computes every year at once and matches them bit for bit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping

from .errors import AnalysisError


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
class MedianTable:
    """Median citations of cited publications per (pub_year, category) cell.

    A cell has an entry iff at least one publication of that year/category
    had one or more citations at obs_year, so every stored median is > 0.
    """

    obs_year: int
    medians: Mapping[tuple[int, str], float]

    def median_for(self, pub_year: int, category_id: str) -> float | None:
        return self.medians.get((pub_year, category_id))


def compute_median_table(
    publications: Mapping[str, PublicationRecord], obs_year: int
) -> MedianTable:
    """Build the normalization table for one observation year from every
    publication of the corpus, by pub_id.

    Every publication must carry a citation count for obs_year (fail fast
    naming the first in pub_id order that does not). A publication
    contributes its count to the cell of each of its categories; zero
    counts are excluded from the median.
    """
    cells: dict[tuple[int, str], list[int]] = {}
    for pid in sorted(publications):
        pub = publications[pid]
        count = pub.citations_at(obs_year)
        if count is None:
            raise AnalysisError(
                f"publication {pid!r} has no citation count for observation year {obs_year}"
            )
        if count < 1:
            continue
        for cat, _weight in pub.category_weights:
            cells.setdefault((pub.pub_year, cat), []).append(count)
    medians = {cell: float(statistics.median(counts)) for cell, counts in cells.items()}
    return MedianTable(obs_year=obs_year, medians=medians)


def article_impact_index(
    pub: PublicationRecord, obs_year: int, median_table: MedianTable
) -> float:
    """Weighted, median-normalized citation score of one publication.

    Returns 0.0 for uncited publications regardless of medians. For a cited
    publication every category cell must have a median (it necessarily does
    when the table was built from the same corpus); a missing cell means
    the table and corpus are inconsistent.
    """
    count = pub.citations_at(obs_year)
    if count is None:
        raise AnalysisError(
            f"publication {pub.pub_id!r} has no citation count for observation year {obs_year}"
        )
    if count == 0:
        return 0.0
    score = 0.0
    for cat, weight in pub.category_weights:
        median = median_table.median_for(pub.pub_year, cat)
        if median is None:
            raise AnalysisError(
                f"median table for {obs_year} has no cell for publication "
                f"{pub.pub_id!r} (year {pub.pub_year}, category {cat!r})"
            )
        score += weight * (count / median)
    return score
