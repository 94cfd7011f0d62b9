"""Scientific strength, field productivity, national baselines, and the
discipline-level productivity of each university.

Productivity is measured per (university, SDS) cell: the sum of impact
scores of the cell's publications (SS), divided by the cell's staff count
(RS). Discipline-level productivity normalizes each cell by the national
baseline of its SDS and weights it by the cell's share of the
university's discipline staff, so a university performing exactly at the
national level in every field scores 1.

These functions are the written definition, one cell and year at a time;
analysis.run_analysis computes every year at once and matches them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AnalysisError
from .impact import MedianTable, PublicationRecord, article_impact_index
from .ingest import BASELINE_RULES


@dataclass(frozen=True)
class ProductivityCell:
    """One (university, SDS) cell at one observation year; p = SS / RS."""

    university_id: str
    sds_id: str
    obs_year: int
    ss: float
    rs: int
    p: float


@dataclass(frozen=True)
class NationalBaseline:
    sds_id: str
    obs_year: int
    p_bar: float


@dataclass(frozen=True)
class SdsContribution:
    """One SDS term of a university's discipline productivity."""

    sds_id: str
    p: float
    p_bar: float
    rs: int
    value: float
    degenerate: bool = False  # p_bar == 0 with p == 0: contribution forced to 0


@dataclass(frozen=True)
class UdaProductivity:
    university_id: str
    uda_id: str
    obs_year: int
    value: float
    rs: int
    contributions: tuple[SdsContribution, ...]


def scientific_strength(
    pubs: Iterable[PublicationRecord],
    pub_period: tuple[int, int],
    obs_year: int,
    median_table: MedianTable,
) -> float:
    """Sum of impact scores over a cell's publications in the period.

    pubs are the cell's distinct publications, in the order they are added.
    """
    start, end = pub_period
    total = 0.0
    for pub in pubs:
        if start <= pub.pub_year <= end:
            total += article_impact_index(pub, obs_year, median_table)
    return total


def sds_productivity(
    university_id: str, sds_id: str, obs_year: int, ss: float, rs: int
) -> ProductivityCell:
    """Build a productivity cell; rs must be >= 1 (empty cells are never built)."""
    if rs < 1:
        raise ValueError(f"cell ({university_id}, {sds_id}) has no research staff")
    return ProductivityCell(
        university_id=university_id, sds_id=sds_id, obs_year=obs_year, ss=ss, rs=rs, p=ss / rs
    )


def national_baseline(
    cells: Sequence[ProductivityCell], rule: str = "aggregate"
) -> NationalBaseline:
    """National baseline productivity of one SDS over its active universities.

    rule "aggregate" (default): p_bar = sum(SS) / sum(RS), the RS-weighted
    aggregate. rule "mean": unweighted mean of the university p values.
    """
    if rule not in BASELINE_RULES:
        raise ValueError(f"unknown baseline rule {rule!r}; expected one of {BASELINE_RULES}")
    if not cells:
        raise AnalysisError("national baseline undefined: no university active in the SDS")
    sds_id = cells[0].sds_id
    obs_year = cells[0].obs_year
    for cell in cells:
        if cell.sds_id != sds_id or cell.obs_year != obs_year:
            raise ValueError("baseline cells must share sds_id and obs_year")
    if rule == "aggregate":
        terms, denominator = [c.ss for c in cells], sum(c.rs for c in cells)
    else:
        terms, denominator = [c.p for c in cells], len(cells)
    total = 0.0
    for term in terms:  # a plain left fold: sum() compensates from Python 3.12 on
        total += term
    p_bar = total / denominator
    return NationalBaseline(sds_id=sds_id, obs_year=obs_year, p_bar=p_bar)


def uda_productivity(
    university_id: str,
    uda_id: str,
    cells: Sequence[ProductivityCell],
    baselines: Mapping[str, NationalBaseline],
) -> UdaProductivity:
    """Baseline-normalized, staff-weighted productivity of one discipline.

    `cells` are the university's cells for the SDSs of this discipline;
    the staff total RS is their RS sum. Each SDS contributes
    (p / p_bar) * (RS_sds / RS). An SDS whose baseline is 0 can only occur
    with p == 0 (all universities uncited); its contribution is 0 and
    flagged degenerate.
    """
    if not cells:
        raise AnalysisError(
            f"university {university_id!r} has no active cell in discipline {uda_id!r}"
        )
    rs_total = sum(c.rs for c in cells)
    contributions = []
    value = 0.0
    for cell in sorted(cells, key=lambda c: c.sds_id):
        baseline = baselines.get(cell.sds_id)
        if baseline is None:
            raise AnalysisError(f"no national baseline for SDS {cell.sds_id!r}")
        if baseline.p_bar == 0.0:
            if cell.p > 0.0:
                raise AnalysisError(
                    f"inconsistent baseline: p_bar = 0 for SDS {cell.sds_id!r} "
                    f"but university {university_id!r} has p = {cell.p}"
                )
            contributions.append(
                SdsContribution(cell.sds_id, cell.p, 0.0, cell.rs, 0.0, degenerate=True)
            )
            continue
        term = (cell.p / baseline.p_bar) * (cell.rs / rs_total)
        value += term
        contributions.append(
            SdsContribution(cell.sds_id, cell.p, baseline.p_bar, cell.rs, term)
        )
    return UdaProductivity(
        university_id=university_id,
        uda_id=uda_id,
        obs_year=cells[0].obs_year,
        value=value,
        rs=rs_total,
        contributions=tuple(contributions),
    )
