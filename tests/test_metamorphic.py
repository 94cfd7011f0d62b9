"""Metamorphic relations taken from the definitions: a change to the input
corpus whose effect on every output is known without computing the output
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018)."""

from __future__ import annotations

import numpy as np
import pytest

from citewin.analysis import BASELINE_RULES, run_analysis
from citewin.ingest import load_corpus
from citewin.synth import generate

from conftest import corpus_from_rows, corpus_rows, random_corpus_rows, small_null_config

PERIOD = (2001, 2003)
YEARS = [2004, 2005, 2006, 2007, 2008]


def per_university(run, field: str) -> dict[tuple[str, str, str, int], float]:
    """(level, scope, university, year) -> the LevelRanks field ("scores", "ranks")
    of every scored university."""
    out = {}
    for name, level in run.levels.items():
        for y, year in enumerate(level.years):
            for scope, by_univ in level.by_scope(getattr(level, field)[:, y]).items():
                out.update({(name, scope, univ, year): s for univ, s in by_univ.items()})
    return out


def scores(run) -> dict[tuple[str, str, str, int], float]:
    """(level, scope, university, year) -> score of every scored university."""
    return per_university(run, "scores")


def clear_of_near_ties(scored: dict, rel: float = 1e-9) -> set:
    """The keys of per_university(run, "scores") whose score no other university of
    the same scope and year comes within rel of, unless both are exactly 0: rounding
    cannot reorder those (a score of 0 sums only zero terms)."""
    groups: dict = {}
    for (level, scope, univ, year), s in scored.items():
        groups.setdefault((level, scope, year), []).append((univ, s))
    return {
        (level, scope, u, year)
        for (level, scope, year), members in groups.items()
        for u, s in members
        if all(v == u or s == t == 0.0 or abs(s - t) > rel * max(abs(s), abs(t))
               for v, t in members)
    }


def property_rows(source: str, seed: int, tmp_path) -> dict[str, list[tuple]]:
    """The rows of a random corpus or of a small synth corpus."""
    if source == "random":
        return random_corpus_rows(seed, n_universities=6, pub_rate=1.0)
    return corpus_rows(load_corpus(generate(small_null_config(seed), tmp_path / "synth")))


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


@pytest.mark.parametrize("baseline", BASELINE_RULES)
@pytest.mark.parametrize("source,seed", [("random", k) for k in range(6)] + [("synth", 0)])
def test_renaming_universities_leaves_every_rank_unchanged(source, seed, baseline, tmp_path):
    rows = property_rows(source, seed, tmp_path)
    universities = sorted({univ for _r, univ, _s in rows["researchers"]})
    # the new ids sort the universities in reverse, so their rows change order
    rename = {univ: f"N{len(universities) - k:03d}" for k, univ in enumerate(universities)}
    renamed = dict(rows, researchers=[(r, rename[u], s) for r, u, s in rows["researchers"]])

    before = run_analysis(corpus_from_rows(**rows), PERIOD, YEARS, 0.5, baseline)
    after = per_university(run_analysis(corpus_from_rows(**renamed), PERIOD, YEARS, 0.5, baseline),
                           "ranks")
    clear = clear_of_near_ties(scores(before))
    ranks = per_university(before, "ranks")
    assert len(clear) >= len(ranks) // 2
    for level, scope, univ, year in clear:
        key = (level, scope, univ, year)
        assert after[(level, scope, rename[univ], year)] == ranks[key], key


@pytest.mark.parametrize("baseline", BASELINE_RULES)
@pytest.mark.parametrize("source,seed", [("random", k) for k in range(6)] + [("synth", 0)])
def test_cloning_every_university_keeps_p_and_ties_each_rank_at_2r_minus_1(
        source, seed, baseline, tmp_path):
    # every (pub_year, category) multiset of counts doubles, which keeps each median;
    # each cell and its clone have the same SS and RS, so both baselines keep their
    # value up to rounding, and every university ties with its clone
    rows = property_rows(source, seed, tmp_path)

    def twin(name):
        return f"Z-{name}"  # one prefix keeps the clones in the order of the originals

    cloned = dict(
        rows,
        publications=rows["publications"] + [(twin(p), y, c) for p, y, c in rows["publications"]],
        citations=rows["citations"] + [(twin(p), y, n) for p, y, n in rows["citations"]],
        authorship=rows["authorship"] + [(twin(p), twin(r)) for p, r in rows["authorship"]],
        researchers=rows["researchers"] + [(twin(r), twin(u), s)
                                           for r, u, s in rows["researchers"]],
    )

    before = run_analysis(corpus_from_rows(**rows), PERIOD, YEARS, 0.5, baseline)
    after = run_analysis(corpus_from_rows(**cloned), PERIOD, YEARS, 0.5, baseline)
    scored, after_scores = scores(before), scores(after)
    assert set(after_scores) == set(scored) | {
        (level, scope, twin(u), year) for level, scope, u, year in scored}
    for (level, scope, univ, year), p in scored.items():
        for u in (univ, twin(univ)):
            assert after_scores[(level, scope, u, year)] == pytest.approx(p, rel=1e-12, abs=0.0)

    clear = clear_of_near_ties(scored)
    ranks, after_ranks = per_university(before, "ranks"), per_university(after, "ranks")
    assert len(clear) >= len(ranks) // 2
    for level, scope, univ, year in clear:
        r = ranks[(level, scope, univ, year)]
        for u in (univ, twin(univ)):
            assert after_ranks[(level, scope, u, year)] == 2 * r - 1, (level, scope, u, year)
