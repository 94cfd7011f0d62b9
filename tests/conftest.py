"""Shared fixtures: hand-built corpora, random corpora, and the golden
productivity fixture reconstructed from published per-field inputs."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from citewin.corpus import (
    AuthorshipLink,
    Corpus,
    FieldTaxonomy,
    PublicationRecord,
    ResearcherRecord,
    build_corpus,
)
from citewin.sensitivity import LevelRanks, rank_scopes
from citewin.synth import SynthConfig

# ---------------------------------------------------------------------------
# golden per-field inputs: staff count, publication count, strength (SS),
# national baseline productivity, and the published contribution to P
GOLDEN_SDS_ROWS = [
    ("MAT/02", 13, 19, 4.128, 0.432, 0.059),
    ("MAT/03", 31, 50, 7.810, 0.633, 0.076),
    ("MAT/05", 60, 93, 33.791, 0.922, 0.226),
    ("MAT/06", 5, 14, 3.840, 0.624, 0.038),
    ("MAT/07", 23, 50, 13.973, 0.884, 0.098),
    ("MAT/08", 13, 17, 6.107, 1.062, 0.035),
    ("MAT/09", 3, 8, 1.011, 0.875, 0.007),
    ("INF/01", 14, 30, 4.996, 0.841, 0.037),
]
GOLDEN_TOTAL_P = 0.576
GOLDEN_UDA = "MATH"
GOLDEN_UNIVERSITY = "UNINA"
GOLDEN_REFERENCE = "UNIREF"


def write_corpus_dir(
    root: Path,
    publications: list[tuple[str, int, str]],
    citations: list[tuple[str, int, int]],
    authorship: list[tuple[str, str]],
    researchers: list[tuple[str, str, str]],
    fields: list[tuple[str, str]],
) -> Path:
    root.mkdir(parents=True, exist_ok=True)

    def dump(name: str, header: str, rows) -> None:
        lines = [header] + [",".join(str(v) for v in row) for row in rows]
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    dump("publications.csv", "pub_id,pub_year,categories", publications)
    dump("citations.csv", "pub_id,obs_year,cum_citations", citations)
    dump("authorship.csv", "pub_id,researcher_id", authorship)
    dump("researchers.csv", "researcher_id,university_id,sds_id", researchers)
    dump("fields.csv", "sds_id,uda_id", fields)
    return root


def split_units(total: int, parts: int) -> list[int]:
    """Split `total` into `parts` positive integers differing by at most 1."""
    assert parts <= total
    base, rem = divmod(total, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def build_golden_corpus_dir(root: Path, anchor_median: int = 1000) -> Path:
    """A corpus whose pipeline output reproduces the golden per-field table.

    Per SDS: the target university's publications carry citation counts
    summing to SS * anchor_median; a reference university's counts are
    chosen so the national aggregate baseline hits the published value;
    and author-less anchor publications (all cited exactly anchor_median,
    outnumbering everything else in the cell) pin each category median to
    anchor_median exactly.
    """
    publications: list[tuple[str, int, str]] = []
    citations: list[tuple[str, int, int]] = []
    authorship: list[tuple[str, str]] = []
    researchers: list[tuple[str, str, str]] = []
    fields: list[tuple[str, str]] = []
    pub_year, obs_year = 2002, 2008
    ref_staff = 20

    for sds, rs, n_pubs, ss, p_bar, _contrib in GOLDEN_SDS_ROWS:
        cat = f"C_{sds}"
        fields.append((sds, GOLDEN_UDA))
        tag = sds.replace("/", "")

        main_ids = [f"RN-{tag}-{i:03d}" for i in range(1, rs + 1)]
        researchers += [(rid, GOLDEN_UNIVERSITY, sds) for rid in main_ids]
        ss_units = round(ss * anchor_median)
        for i, units in enumerate(split_units(ss_units, n_pubs)):
            pid = f"PN-{tag}-{i:03d}"
            publications.append((pid, pub_year, cat))
            citations.append((pid, obs_year, units))
            authorship.append((pid, main_ids[i % rs]))

        ref_ids = [f"RR-{tag}-{i:03d}" for i in range(1, ref_staff + 1)]
        researchers += [(rid, GOLDEN_REFERENCE, sds) for rid in ref_ids]
        # integer thousandths keep the national aggregate baseline exact
        ref_units = round(p_bar * anchor_median) * (rs + ref_staff) - ss_units
        n_ref = max(12, math.ceil(ref_units / 900))
        for i, units in enumerate(split_units(ref_units, n_ref)):
            pid = f"PR-{tag}-{i:03d}"
            publications.append((pid, pub_year, cat))
            citations.append((pid, obs_year, units))
            authorship.append((pid, ref_ids[i % ref_staff]))

        n_anchor = n_pubs + n_ref + 1
        for i in range(n_anchor):
            pid = f"PA-{tag}-{i:03d}"
            publications.append((pid, pub_year, cat))
            citations.append((pid, obs_year, anchor_median))

    return write_corpus_dir(root, publications, citations, authorship, researchers, fields)


@pytest.fixture(scope="session")
def golden_corpus_dir(tmp_path_factory) -> Path:
    return build_golden_corpus_dir(tmp_path_factory.mktemp("golden") / "corpus")


# ---------------------------------------------------------------------------
# random in-memory corpora for property tests


def make_random_corpus(
    seed: int,
    n_universities: int = 4,
    sds_by_uda: dict[str, tuple[str, ...]] | None = None,
    staff_range: tuple[int, int] = (2, 4),
    pub_years: tuple[int, int] = (2001, 2003),
    obs_years: tuple[int, ...] = (2004, 2005, 2006, 2007, 2008),
    pub_rate: float = 1.5,
    cite_rate: float = 1.2,
    coauthor_prob: float = 0.25,
    second_category_prob: float = 0.2,
) -> Corpus:
    rng = np.random.default_rng(seed)
    sds_by_uda = sds_by_uda or {"UA": ("S1", "S2"), "UB": ("S3", "S4")}
    taxonomy = FieldTaxonomy({s: u for u, group in sds_by_uda.items() for s in group})
    sds_list = taxonomy.sds_ids

    researchers = []
    for ui in range(1, n_universities + 1):
        univ = f"U{ui:02d}"
        for sds in sds_list:
            for i in range(int(rng.integers(staff_range[0], staff_range[1] + 1))):
                researchers.append(
                    ResearcherRecord(f"{univ}-{sds}-{i:02d}", univ, sds)
                )

    pubs: list[PublicationRecord] = []
    links: list[AuthorshipLink] = []
    counter = 0
    for res in researchers:
        for year in range(pub_years[0], pub_years[1] + 1):
            for _ in range(int(rng.poisson(pub_rate))):
                counter += 1
                pid = f"P{counter:05d}"
                cats = [(f"K_{res.sds_id}", 1.0)]
                if rng.random() < second_category_prob:
                    other = sds_list[int(rng.integers(len(sds_list)))]
                    if other != res.sds_id:
                        cats = [(f"K_{res.sds_id}", 0.5), (f"K_{other}", 0.5)]
                counts = {}
                total = 0
                for obs in sorted(obs_years):
                    total += int(rng.poisson(cite_rate))
                    counts[obs] = total
                pubs.append(
                    PublicationRecord(pid, year, tuple(cats), counts)
                )
                links.append(AuthorshipLink(pid, res.researcher_id))
                if rng.random() < coauthor_prob:
                    co = researchers[int(rng.integers(len(researchers)))]
                    if co.researcher_id != res.researcher_id:
                        links.append(AuthorshipLink(pid, co.researcher_id))
    return build_corpus(pubs, researchers, links, taxonomy)


def scale_citations(corpus: Corpus, k: int) -> Corpus:
    """Multiply every cumulative citation count by an integer factor."""
    pubs = [
        replace(p, citation_counts={y: c * k for y, c in p.citation_counts.items()})
        for p in corpus.publications.values()
    ]
    return build_corpus(
        pubs, corpus.researchers.values(), corpus.authorships, corpus.taxonomy
    )


# ---------------------------------------------------------------------------
# synthetic-generator configs shared between tests


def stability_config(seed: int = 0) -> SynthConfig:
    return SynthConfig(
        n_universities=12,
        staff_range=(3, 8),
        udas={
            "DISC_A": ("SA1", "SA2", "SA3"),
            "DISC_B": ("SB1", "SB2", "SB3"),
        },
        pub_period=(2001, 2003),
        observation_years=(2004, 2005, 2006, 2007, 2008),
        pub_rate=1.2,
        profiles={"default": (0.2, 0.7, 1.0, 0.9, 0.7, 0.5, 0.3, 0.2)},
        quality_mu=0.0,
        quality_sigma=0.6,
        coauthor_rate=0.08,
        multi_category_rate=0.1,
        seed=seed,
    )


def small_null_config(seed: int = 0) -> SynthConfig:
    return SynthConfig(
        n_universities=14,
        staff_range=(2, 4),
        udas={"NA": ("N1", "N2"), "NB": ("N3", "N4")},
        pub_period=(2001, 2003),
        observation_years=(2004, 2005, 2006, 2007, 2008),
        pub_rate=1.0,
        profiles={"default": (0.3, 0.8, 1.0, 0.8, 0.5, 0.3, 0.2, 0.1)},
        quality_sigma=0.5,
        coauthor_rate=0.05,
        seed=seed,
    )


def one_scope(by_year: dict, level: str = "sds", scope: str = "S") -> LevelRanks:
    """The ranks of one scope from {year: {university: score}}; every year
    scores the same universities."""
    years = sorted(by_year)
    universities = sorted(by_year[years[0]])
    scores = np.array([[by_year[y][u] for y in years] for u in universities], dtype=float)
    return rank_scopes(level, [(scope, u) for u in universities], years, scores)
