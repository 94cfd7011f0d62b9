"""Metamorphic relations taken from the definitions: a change to the input
corpus whose effect on every output is known without computing the output
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018)."""

from __future__ import annotations

import numpy as np
import pytest

from citewin.analysis import BASELINE_RULES, run_analysis

from conftest import corpus_from_rows, random_corpus_rows

PERIOD = (2001, 2003)
YEARS = [2004, 2005, 2006, 2007, 2008]


def scores(run) -> dict[tuple[str, str, str, int], float]:
    """(level, scope, university, year) -> score of every scored university."""
    out = {}
    for name, level in run.levels.items():
        for y, year in enumerate(level.years):
            for scope, by_univ in level.by_scope(level.scores[:, y]).items():
                out.update({(name, scope, univ, year): s for univ, s in by_univ.items()})
    return out


@pytest.mark.parametrize("baseline", BASELINE_RULES)
@pytest.mark.parametrize("seed", range(6))
def test_renaming_universities_leaves_every_score_unchanged(seed, baseline):
    rows = random_corpus_rows(seed, n_universities=6, pub_rate=1.0)
    universities = sorted({univ for _r, univ, _s in rows["researchers"]})
    order = np.random.default_rng(seed).permutation(len(universities))
    if (order == np.arange(len(universities))).all():
        order = order[::-1]
    # the new ids sort in another order than the old ones, so every index moves
    rename = {univ: f"N{k}" for univ, k in zip(universities, order.tolist())}
    renamed = dict(rows, researchers=[(r, rename[u], s) for r, u, s in rows["researchers"]])

    before = scores(run_analysis(corpus_from_rows(**rows), PERIOD, YEARS, 0.5, baseline))
    after = scores(run_analysis(corpus_from_rows(**renamed), PERIOD, YEARS, 0.5, baseline))
    assert set(after) == {(level, scope, rename[u], y) for level, scope, u, y in before}
    for (level, scope, univ, year), score in before.items():
        assert after[(level, scope, rename[univ], year)] == pytest.approx(score, rel=1e-12)


@pytest.mark.parametrize("baseline", BASELINE_RULES)
@pytest.mark.parametrize("seed", range(6))
def test_uncited_publication_of_a_publishing_researcher_changes_nothing(seed, baseline):
    rows = random_corpus_rows(seed, pub_rate=1.0)
    rng = np.random.default_rng(seed)
    pid, year, categories = rows["publications"][int(rng.integers(len(rows["publications"])))]
    author = next(rid for p, rid in rows["authorship"] if p == pid)
    added = dict(
        rows,
        publications=rows["publications"] + [("PNEW", year, categories)],
        citations=rows["citations"] + [("PNEW", y, 0) for y in YEARS],
        authorship=rows["authorship"] + [("PNEW", author)],
    )

    before = run_analysis(corpus_from_rows(**rows), PERIOD, YEARS, 0.0, baseline)
    after = run_analysis(corpus_from_rows(**added), PERIOD, YEARS, 0.0, baseline)
    assert after.medians.tolist() == before.medians.tolist()
    assert scores(after) == scores(before)


@pytest.mark.parametrize("baseline", BASELINE_RULES)
@pytest.mark.parametrize("seed", range(6))
def test_researcher_without_publications_scales_only_their_cells_p(seed, baseline):
    # p = SS / RS, so one more staff member in (u, s) scales that cell's p by
    # RS / (RS + 1); at threshold 0 the filter keeps every staffed SDS either way
    rows = random_corpus_rows(seed, pub_rate=1.0)
    rng = np.random.default_rng(seed)
    _rid, univ, sds = rows["researchers"][int(rng.integers(len(rows["researchers"])))]
    rs = sum((u, s) == (univ, sds) for _r, u, s in rows["researchers"])
    added = dict(rows, researchers=rows["researchers"] + [("RNEW", univ, sds)])

    before = scores(run_analysis(corpus_from_rows(**rows), PERIOD, YEARS, 0.0, baseline))
    after = scores(run_analysis(corpus_from_rows(**added), PERIOD, YEARS, 0.0, baseline))
    sds_level = {key for key in before if key[0] == "sds"}
    assert {key for key in after if key[0] == "sds"} == sds_level
    for key in sds_level:
        _level, scope, u, _year = key
        expected = before[key] * rs / (rs + 1) if (scope, u) == (sds, univ) else before[key]
        assert after[key] == pytest.approx(expected, rel=1e-12, abs=0.0), key
