"""In-memory corpus model: the validated corpus columns.

ingest.load_corpus builds every Corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated columns, publications and researchers in id order; every
    column is read-only."""

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
        for column in vars(self).values():
            if isinstance(column, np.ndarray):
                column.setflags(write=False)
