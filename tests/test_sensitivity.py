"""Ranking construction, shifts, descriptives, correlation, quartiles."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from citewin.errors import AnalysisError
from citewin.impact import compute_median_table
from citewin.sensitivity import (
    _class_shifts,
    _descriptives,
    _quartile_classes,
    _shifts,
    battery_tables,
    order_statistics,
    rank_scopes,
    ranking_rows,
    stability_battery,
)

from conftest import corpus_from_rows, corpus_rows, make_random_corpus, one_scope
from oracles import (
    compute_baselines,
    compute_cells,
    moment_stats,
    publications,
    spearman_brute,
    uda_scores,
)


def scores_from_ranks(ranks: dict[str, int]) -> dict[str, float]:
    # a score map whose ranking reproduces the given competition ranks
    n = max(ranks.values()) + 1
    return {u: float(n - r) for u, r in ranks.items()}


def ranked(scores: dict[str, float]):
    """(ranking order, competition ranks, fractional ranks) of one scope at one year."""
    level = one_scope({2008: scores})
    order = [row[3] for row in ranking_rows({"sds": level})[1:]]
    return order, level.by_scope(level.ranks[:, 0])["S"], level.by_scope(level.fractional[:, 0])["S"]


def signed_shifts(year: dict[str, float], bench: dict[str, float]) -> dict[str, int]:
    """Signed rank shift of each university of one scope against the benchmark scores."""
    level = one_scope({2004: year, 2008: bench})
    return dict(zip(level.university_ids, _shifts(level.ranks.T)[0].tolist()))


def battery(by_year: dict, benchmark: int = 2008) -> dict[str, list]:
    """The battery of one scope from {year: {university: score}}: each statistic's
    entries of that scope (over comparison years, or one value), or of its rows."""
    st = stability_battery(one_scope(by_year), benchmark)
    return {name: values.tolist() if name.endswith("_rank") else values[0].tolist()
            for name, values in st.items()}


def descriptives(xs) -> dict[str, float]:
    return {name: values[0] for name, values in _descriptives(np.array([xs], dtype=float)).items()}


def nan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)


def quartiles(scores: dict[str, float]):
    """(boundaries, {university: class}) of one score map."""
    universities = sorted(scores)
    q, classes = _quartile_classes(np.array([[scores[u] for u in universities]]))
    return tuple(q[:, 0].tolist()), dict(zip(universities, classes[0].tolist()))


def test_rank_strict_ordering():
    order, ranks, fractional = ranked({"A": 2.0, "B": 1.0, "C": 0.5})
    assert order == ["A", "B", "C"]
    assert ranks == {"A": 1, "B": 2, "C": 3}
    assert fractional == {"A": 1.0, "B": 2.0, "C": 3.0}


def test_rank_ties_competition_and_fractional():
    order, ranks, fractional = ranked({"A": 1.0, "B": 1.0, "C": 0.5})
    assert order == ["A", "B", "C"]
    assert ranks == {"A": 1, "B": 1, "C": 3}
    assert fractional == {"A": 1.5, "B": 1.5, "C": 3.0}


def test_rank_competition_style_leaves_gap_after_ties():
    _order, ranks, fractional = ranked({"A": 4.0, "B": 3.0, "C": 3.0, "D": 1.0})
    assert ranks == {"A": 1, "B": 2, "C": 2, "D": 4}
    assert fractional == {"A": 1.0, "B": 2.5, "C": 2.5, "D": 4.0}


def test_rank_single_university():
    assert ranked({"A": 0.0})[1] == {"A": 1}


def test_rank_rejects_non_finite_scores():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite score"):
            one_scope({2008: {"A": 1.0, "B": bad}})


def test_rank_shifts_identity_and_sign():
    a = scores_from_ranks({"A": 1, "B": 2, "C": 3})
    assert signed_shifts(a, a) == {"A": 0, "B": 0, "C": 0}
    y = scores_from_ranks({"A": 5, "B": 1, "C": 2, "D": 3, "E": 4})
    b = scores_from_ranks({"A": 4, "B": 1, "C": 2, "D": 3, "E": 5})
    assert signed_shifts(y, b)["A"] == 1  # ranked worse than at the benchmark
    assert signed_shifts(y, b)["E"] == -1


def test_rank_shifts_extreme_case():
    universe = {f"U{i:02d}": i for i in range(1, 44)}
    year = scores_from_ranks(universe)  # U43 ranked 43rd
    swapped = dict(universe, **{"U43": 12, "U12": 43})
    bench = scores_from_ranks(swapped)  # U43 ranked 12th in the benchmark
    assert signed_shifts(year, bench)["U43"] == 31


def test_shift_descriptives_constant_input():
    s = descriptives([0, 0, 0, 0])
    assert (s["mean"], s["median"], s["std_dev"]) == (0.0, 0.0, 0.0)
    assert nan(s["skewness"]) and nan(s["kurtosis"])


def test_shift_descriptives_frozen_oracle_values():
    # brute-force rational oracle: mean 1.8, median 1, sd 1.7204650534085253,
    # skew 1.0179522960269582, excess kurtosis -0.3480642804967129
    s = descriptives([0, 1, 1, 2, 5])
    assert s["mean"] == pytest.approx(1.8, abs=1e-12)
    assert s["median"] == 1.0
    assert s["std_dev"] == pytest.approx(1.7204650534085253, abs=1e-12)
    assert s["skewness"] == pytest.approx(1.0179522960269582, abs=1e-12)
    assert s["kurtosis"] == pytest.approx(-0.3480642804967129, abs=1e-12)


def test_shift_skewness_takes_the_scalar_power_of_the_variance():
    # numpy's vectorised m2**1.5 rounds this variance's power an ulp away from
    # Python's, and the skewness ends at ...6eap-5
    want = oracles.shift_descriptives([0, 1, 7, 7]).skewness
    assert want.hex() == "-0x1.1dc0b2973e6e9p-5"
    assert float(descriptives([0, 1, 7, 7])["skewness"]).hex() == want.hex()


def test_shift_descriptives_symmetric_has_zero_skew():
    assert descriptives([0, 1, 2, 3, 4])["skewness"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_shift_descriptives_matches_rational_oracle(seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 12, size=int(rng.integers(1, 15))).tolist()
    got = descriptives(xs)
    want = moment_stats(xs)
    assert got["mean"] == pytest.approx(want["mean"], abs=1e-12)
    assert got["median"] == pytest.approx(want["median"], abs=1e-12)
    assert got["std_dev"] == pytest.approx(want["std_dev"], abs=1e-12)
    if want["skewness"] is None:
        assert nan(got["skewness"]) and nan(got["kurtosis"])
    else:
        assert got["skewness"] == pytest.approx(want["skewness"], abs=1e-10)
        assert got["kurtosis"] == pytest.approx(want["kurtosis"], abs=1e-10)


# ---------------------------------------------------------------------------
# Spearman, of each comparison year against the benchmark


def test_spearman_identity_and_reversal():
    a = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.5}
    b = {"A": 0.5, "B": 1.0, "C": 2.0, "D": 3.0}
    assert battery({2004: a, 2008: a})["rho"] == [1.0]
    assert battery({2004: a, 2008: b})["rho"] == [-1.0]


def test_spearman_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s1 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 5, 8))}
        s2 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 5, 8))}
        assert battery({2004: s1, 2008: s2})["rho"] == battery({2004: s2, 2008: s1})["rho"]


def test_spearman_all_tied_is_undefined():
    a = {"A": 1.0, "B": 1.0, "C": 1.0}
    b = {"A": 3.0, "B": 2.0, "C": 1.0}
    (rho,) = battery({2004: a, 2008: b})["rho"]
    assert nan(rho)


def test_spearman_needs_two_universities():
    # one university has no rank variance: the correlation is undefined (NA)
    a = {"A": 1.0}
    (rho,) = battery({2004: a, 2008: a})["rho"]
    assert nan(rho)


@pytest.mark.parametrize("seed", range(30))
def test_spearman_matches_brute_force_with_ties(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 11))
    # coarse integer scores force tie groups
    s1 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 4, n))}
    s2 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 4, n))}
    (got,) = battery({2004: s1, 2008: s2})["rho"]
    universities = sorted(s1)
    want = spearman_brute([s1[u] for u in universities], [s2[u] for u in universities])
    if want is None:
        assert nan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_spearman_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        s1 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 6, n))}
        s2 = {f"U{i}": float(v) for i, v in enumerate(rng.integers(0, 6, n))}
        (got,) = battery({2004: s1, 2008: s2})["rho"]
        universities = sorted(s1)
        want = scipy_stats.spearmanr(
            [s1[u] for u in universities], [s2[u] for u in universities]
        ).statistic
        if nan(got):
            assert np.isnan(want)
        else:
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# stability summary


def test_stability_summary_identical_rankings():
    r = scores_from_ranks({"A": 1, "B": 2, "C": 3})
    summary = battery({2004: r, 2005: r, 2008: r})
    assert summary["changed"] / 3 == 0.0
    assert summary["mean_shift_average"] == 0.0
    assert summary["mean_shift_median"] == 0.0
    assert summary["mean_shift_std_dev"] == 0.0
    assert summary["max_ranking_variation"] == 0


def test_stability_summary_counts_change_and_range():
    years = {
        2004: scores_from_ranks({"A": 5, "B": 1, "C": 2, "D": 3, "E": 4}),
        2005: scores_from_ranks({"A": 3, "B": 1, "C": 2, "D": 4, "E": 5}),
        2006: scores_from_ranks({"A": 4, "B": 1, "C": 2, "D": 3, "E": 5}),
        2007: scores_from_ranks({"A": 4, "B": 1, "C": 2, "D": 3, "E": 5}),
        2008: scores_from_ranks({"A": 4, "B": 1, "C": 2, "D": 3, "E": 5}),
    }
    summary = battery(years)
    # A moved (ranks 5,3,4,4,4): range 2; B and C never moved
    assert summary["max_ranking_variation"] == 2
    assert summary["changed"] / 5 == pytest.approx(3 / 5)


@pytest.mark.parametrize("seed", range(8))
def test_stability_average_equals_mean_of_yearly_means(seed):
    # the "average" must equal the mean over comparison years of that year's
    # mean shift, because both are the same double sum
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    years = {}
    for y in (2004, 2005, 2006, 2007, 2008):
        years[y] = {f"U{i}": float(rng.random()) for i in range(n)}
    level = one_scope(years)
    (average,) = stability_battery(level, 2008)["mean_shift_average"]
    ranks = level.ranks  # [university, year], 2008 last
    yearly_means = [np.mean(np.abs(ranks[:, y] - ranks[:, -1])) for y in range(4)]
    assert average == pytest.approx(np.mean(yearly_means), abs=1e-12)


def test_stability_summary_requires_benchmark():
    r = scores_from_ranks({"A": 1, "B": 2})
    with pytest.raises(AnalysisError):
        battery({2004: r})


def small_shift_pcts(by_year: dict) -> tuple[float, float]:
    st = battery(by_year)
    return st["no_change_pct"], st["leq3_pct"]


def test_no_change_and_small_shift_pcts():
    r = scores_from_ranks({"A": 1, "B": 2, "C": 3})
    assert small_shift_pcts({2004: r, 2008: r}) == (100, 100)
    moved = scores_from_ranks({"A": 1, "B": 3, "C": 7, "D": 4, "E": 5, "F": 6, "G": 2})
    bench = scores_from_ranks({"A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6, "G": 7})
    # shifts: A 0, B 1, C 4, D 0, E 0, F 0, G 5 -> no-change 4/7, <=3 5/7
    assert small_shift_pcts({2004: moved, 2008: bench}) == (57, 71)
    bench6 = scores_from_ranks({"E": 1, "F": 2, "C": 3, "D": 4, "A": 5, "B": 6})
    year6 = scores_from_ranks({"A": 1, "F": 2, "D": 3, "C": 4, "E": 5, "B": 6})
    shifts = sorted(abs(d) for d in signed_shifts(year6, bench6).values())
    assert shifts == [0, 0, 1, 1, 4, 4]  # one third unchanged, two thirds <= 3
    assert small_shift_pcts({2004: year6, 2008: bench6}) == (33, 67)


def test_all_large_shifts_give_zero_pcts():
    moved = scores_from_ranks({"A": 5, "B": 6, "C": 7, "D": 8, "E": 1, "F": 2, "G": 3, "H": 4})
    bench = scores_from_ranks({"A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6, "G": 7, "H": 8})
    assert small_shift_pcts({2004: moved, 2008: bench}) == (0, 0)


# ---------------------------------------------------------------------------
# quartiles


def test_quartiles_distinct_octet_balanced():
    scores = {f"U{i}": float(i) for i in range(8)}
    _boundaries, classes = quartiles(scores)
    assert Counter(classes.values()) == {1: 2, 2: 2, 3: 2, 4: 2}


def test_quartiles_all_equal_scores_single_class():
    scores = {f"U{i}": 1.0 for i in range(6)}
    _boundaries, classes = quartiles(scores)
    assert set(classes.values()) == {1}


def test_quartiles_ties_share_class():
    scores = {"A": 5.0, "B": 5.0, "C": 1.0, "D": 0.5, "E": 0.1, "F": 0.0}
    _boundaries, classes = quartiles(scores)
    assert classes["A"] == classes["B"]


def test_quartiles_need_four():
    # below 4 universities the battery has no quartile statistics
    scores = {"A": 1.0, "B": 2.0, "C": 3.0}
    st = battery({2004: scores, 2008: scores})
    assert all(map(nan, st["avg_class_shift"] + st["outliers"]))


def test_quartile_boundaries_are_linear_interpolation():
    scores = {f"U{i}": float(v) for i, v in enumerate([1, 2, 3, 4, 100])}
    boundaries, _classes = quartiles(scores)
    assert boundaries == (2.0, 3.0, 4.0)


def test_quartile_boundaries_equal_one_percentile_call_per_quartile():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(4, 60))
        values = rng.choice(rng.lognormal(size=n), size=n)  # with ties
        if rng.random() < 0.3:
            values = np.round(values, 1)
        scores = {f"U{i:02d}": float(v) for i, v in enumerate(values)}
        separate = [float(np.percentile(values, q, method="linear")) for q in (25, 50, 75)]
        got, _classes = quartiles(scores)
        assert [x.hex() for x in got] == [x.hex() for x in separate]


# finite and NaN values, no -0.0 (which ties 0.0 but prints apart), many repeats
ORDER_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0, math.nan]),
                         st.floats(-1e300, 1e300).map(lambda x: x + 0.0))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 3).flatmap(lambda r: st.integers(1, 14).flatmap(
           lambda n: st.lists(st.lists(ORDER_VALUES, min_size=n, max_size=n),
                              min_size=r, max_size=r))),
       extra=st.floats(0.0, 100.0))
def test_order_statistics_match_numpy_bit_for_bit(rows, extra):
    """The one-sort median and linear percentiles agree with np.median and np.percentile to
    the last bit (float.hex), NaN rows included, for blocks and for one row with one percent."""
    values = np.array(rows)
    percents = (25, 50, 75, 80, 12.5, 0, 100, extra)
    median, got = order_statistics(values, percents)
    expected = np.percentile(values, percents, axis=-1, method="linear")
    assert got.shape == expected.shape and median.shape == values.shape[:-1]
    hexes = lambda a: [float(x).hex() for x in np.ravel(a)]
    assert hexes(got) == hexes(expected)
    assert hexes(median) == hexes(np.median(values, axis=-1))
    for p in percents:
        one = order_statistics(values[0], (p,))[1][0]
        assert float(one).hex() == float(np.percentile(values[0], p, method="linear")).hex()


@pytest.mark.parametrize("seed", range(10))
def test_quartile_shifts_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    by_year = {}
    for y in (2004, 2005, 2008):
        by_year[y] = scores = {f"U{i}": float(rng.integers(0, 10)) for i in range(n)}
        assert set(quartiles(scores)[1].values()) <= {1, 2, 3, 4}
    st = battery(by_year)
    assert len(st["avg_class_shift"]) == len(st["outliers"]) == 2
    for average, outliers in zip(st["avg_class_shift"], st["outliers"]):
        assert 0.0 <= average <= 3.0
        assert outliers <= n


def test_quartile_shift_stats_identity_and_outlier():
    base = {f"U{i}": float(i) for i in range(10)}
    _boundaries, bench = quartiles(base)
    classes = [bench[u] for u in sorted(bench)]
    same = _class_shifts(np.array([classes, classes]))
    assert same["avg_class_shift"].tolist() == [0.0] and same["outliers"].tolist() == [0]

    # exactly one of ten drops from the top class to the bottom one
    year = dict(bench, U9=1)
    assert bench["U9"] == 4
    stats = _class_shifts(np.array([[year[u] for u in sorted(year)], classes]))
    (average,), (outliers,) = stats["avg_class_shift"].tolist(), stats["outliers"].tolist()
    assert average == pytest.approx(0.3)
    assert outliers == 1


# ---------------------------------------------------------------------------
# cross-cutting ranking properties


@pytest.mark.parametrize("seed", range(5))
def test_absolute_shifts_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    n = 12
    s1 = {f"U{i}": float(rng.integers(0, 6)) for i in range(n)}
    s2 = {f"U{i}": float(rng.integers(0, 6)) for i in range(n)}
    mapping = {f"U{i}": f"X{j}" for i, j in enumerate(rng.permutation(n))}
    t1 = {mapping[u]: v for u, v in s1.items()}
    t2 = {mapping[u]: v for u, v in s2.items()}
    shifts = signed_shifts(s1, s2)
    relabeled = signed_shifts(t1, t2)
    assert {mapping[u]: d for u, d in shifts.items()} == relabeled


def test_leader_keeps_rank_when_only_its_score_rises():
    rng = np.random.default_rng(11)
    for _ in range(50):
        scores = {f"U{i}": float(rng.random()) for i in range(8)}
        ranking = oracles.rank_universities(scores)
        leader = ranking.entries[0].university_id
        bumped = dict(scores, **{leader: scores[leader] + float(rng.random())})
        assert oracles.rank_universities(bumped).entries[0].university_id == leader


def test_leader_keeps_rank_under_median_preserving_accrual():
    # add citations only to leader publications that are strict cell maxima of
    # cells with >= 3 cited pubs, which leaves every median untouched
    corpus = make_random_corpus(21, cite_rate=2.0)
    obs = 2006
    pubs = publications(corpus)
    table = compute_median_table(pubs, obs)
    cells = compute_cells(corpus, corpus.sds_ids.tolist(), (2001, 2003), obs, table)
    baselines = compute_baselines(cells)
    uda = corpus.uda_ids.tolist()[0]
    scores = {u: up.value for u, up in uda_scores(corpus, cells, baselines, uda).items()}
    ranking = oracles.rank_universities(scores)
    leader = ranking.entries[0].university_id

    counts_by_cell: dict = {}
    for p in pubs.values():
        c = p.citation_counts[obs]
        if c >= 1:
            for cat, _w in p.category_weights:
                counts_by_cell.setdefault((p.pub_year, cat), []).append(c)

    rows = corpus_rows(corpus)
    university_of = {rid: univ for rid, univ, _sds in rows["researchers"]}
    universities_of_pub: dict = {}
    for pid, rid in rows["authorship"]:
        universities_of_pub.setdefault(pid, set()).add(university_of[rid])

    # exclusively-authored pubs only: a shared pub would also raise a rival
    leader_pubs = {
        pid for pid, univs in universities_of_pub.items() if univs == {leader}
    }

    boosted = {}
    for pid in leader_pubs:
        p = pubs[pid]
        c = p.citation_counts[obs]
        if c < 1:
            continue
        ok = all(
            len(counts_by_cell[(p.pub_year, cat)]) >= 3
            and c > sorted(counts_by_cell[(p.pub_year, cat)])[-2]
            for cat, _w in p.category_weights
        )
        if ok:
            boosted[pid] = {y: cnt + (5 if y >= obs else 0) for y, cnt in p.citation_counts.items()}
    if not boosted:
        pytest.skip("no strict-maximum leader publication in this corpus")

    rows["citations"] = [(pid, y, boosted[pid][y] if pid in boosted else cnt)
                         for pid, y, cnt in rows["citations"]]
    corpus2 = corpus_from_rows(**rows)
    table2 = compute_median_table(publications(corpus2), obs)
    assert table2.medians == table.medians
    cells2 = compute_cells(corpus2, corpus2.sds_ids.tolist(), (2001, 2003), obs, table2)
    baselines2 = compute_baselines(cells2)
    scores2 = {u: up.value for u, up in uda_scores(corpus2, cells2, baselines2, uda).items()}
    ranking2 = oracles.rank_universities(scores2)
    assert ranking2.display_ranks()[leader] <= ranking.display_ranks()[leader]


# ---------------------------------------------------------------------------
# the grouped battery against the per-Ranking reference in oracles.py


# both sides of numpy's pairwise-summation thresholds (blocks of 8 below 128),
# and 40, where 23 changed universities are 57.5 %
SCOPE_SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 12, 40, 127, 128, 129)


@st.composite
def levels(draw):
    """(level, years, benchmark year, {scope: {university: scores by year}}):
    scopes of several sizes whose scores are all tied in every year, or per
    year all tied, coarse (many ties, non-dyadic) or continuous."""
    years = list(range(2004, 2004 + draw(st.integers(2, 6))))
    benchmark = draw(st.sampled_from(years))
    sizes = draw(st.lists(st.sampled_from(SCOPE_SIZES), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys, rows = [], []
    for s, n in enumerate(sizes):
        ids = rng.choice(1000, size=n, replace=False)
        keys += [(f"S{s}", f"U{i:03d}") for i in ids]
        columns = []
        tied = draw(st.booleans())
        for _year in years:
            kind = "tied" if tied else draw(st.sampled_from(["tied", "coarse", "continuous"]))
            if kind == "tied":
                columns.append(np.full(n, float(rng.integers(0, 3)) / 3))
            elif kind == "coarse":
                columns.append(rng.integers(0, 4, n) / 7)
            else:
                columns.append(rng.lognormal(size=n))
        rows.append(np.stack(columns, axis=1))
    scores = np.concatenate(rows)
    shuffle = rng.permutation(len(keys))  # rank_scopes must order the rows itself
    scopes, universities = zip(*(keys[i] for i in shuffle))
    level = rank_scopes("sds", scopes, universities, years, scores[shuffle])
    inputs: dict = {}
    for (scope, univ), row in zip(keys, scores.tolist()):
        inputs.setdefault(scope, {})[univ] = row
    return level, years, benchmark, inputs


def bits(x):
    """x with every number as the float.hex of its value and NaN as None, recursively
    through dataclasses and sequences."""
    if dataclasses.is_dataclass(x):
        return tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return None if math.isnan(x) else float(x).hex()
    return x


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(levels())
def test_grouped_battery_matches_per_ranking_reference(case):
    level, years, benchmark, inputs = case
    assert not level.ranks.flags.writeable and not level.scores.flags.writeable
    comparison = [y for y in years if y != benchmark]
    reference = {
        ("sds", scope): {
            year: oracles.rank_universities({u: row[y] for u, row in scores.items()}, "sds", scope, year)
            for y, year in enumerate(years)
        }
        for scope, scores in sorted(inputs.items())
    }
    # every score, competition and fractional rank, in ranking order
    assert level.scope_ids == tuple(scope for _level, scope in reference)
    bounds = level.bounds.tolist()
    for s, ((_level, scope), by_year) in enumerate(reference.items()):
        for y, year in enumerate(years):
            got = [(level.university_ids[r], level.scores[r, y], int(level.ranks[r, y]),
                    level.fractional[r, y]) for r in level.ranked[y, bounds[s]:bounds[s + 1]].tolist()]
            want = [(e.university_id, e.score, e.rank, e.fractional_rank) for e in by_year[year].entries]
            assert bits(got) == bits(want)
    assert ranking_rows({"sds": level})[1:] == [
        ["sds", scope, str(year), e.university_id, oracles._fmt(e.score), str(e.rank)]
        for (_level, scope), by_year in reference.items() for year in years
        for e in by_year[year].entries
    ]

    # every statistic of every scope, entry by entry
    battery = stability_battery(level, benchmark)
    assert {values.shape for values in battery.values()} == {
        (len(bounds) - 1, len(comparison)), (len(bounds) - 1,), (bounds[-1],)}
    st = {name: values.tolist() for name, values in battery.items()}
    for s, (scope, lo, hi) in enumerate(zip(level.scope_ids, bounds, bounds[1:])):
        by_year = reference[("sds", scope)]
        bench = by_year[benchmark]
        n = len(bench.entries)
        universities = level.university_ids[lo:hi]
        assert universities == tuple(sorted(bench.universities()))
        summary = oracles.stability_summary(by_year, benchmark)
        assert bits(summary) == bits((
            n, st["changed"][s] / n, st["mean_shift_average"][s], st["mean_shift_median"][s],
            st["mean_shift_std_dev"][s], st["max_ranking_variation"][s]))
        assert st["changed"][s] == round(summary.pct_any_change * n)
        for y, year in enumerate(comparison):
            shifts = [a for _s, a in oracles.rank_shifts(by_year[year], bench).values()]
            got = (n, *(st[name][s][y] for name in ("mean", "median", "std_dev", "skewness", "kurtosis")))
            assert bits(got) == bits(oracles.shift_descriptives(shifts))
            rho = oracles.spearman_rho(by_year[year], bench) if n >= 2 else None
            assert bits(st["rho"][s][y]) == bits(rho)
        pcts = oracles.no_change_and_small_shift_pcts(by_year[comparison[0]], bench)
        assert (st["no_change_pct"][s], st["leq3_pct"][s]) == pcts
        quartile_moves = list(zip(st["avg_class_shift"][s], st["outliers"][s]))
        if n < 4:
            assert bits(quartile_moves) == ((None, None),) * len(comparison)
        else:
            classes = {year: oracles.quartile_classes(r.scores()) for year, r in by_year.items()}
            for year, r in by_year.items():
                q, mine = _quartile_classes(np.array([[r.scores()[u] for u in universities]]))
                assert bits(q[:, 0].tolist()) == bits(classes[year].boundaries)
                assert dict(zip(universities, mine[0].tolist())) == classes[year].classes
            moves = oracles.quartile_shift_stats(classes, benchmark)
            assert bits(quartile_moves) == bits([moves[year] for year in comparison])
        ranks = [r.display_ranks() for r in by_year.values()]
        assert list(zip(st["min_rank"][lo:hi], st["max_rank"][lo:hi])) == [
            (min(r[u] for r in ranks), max(r[u] for r in ranks)) for u in universities
        ]

    # and the six tables, row by row
    assert battery_tables([level], benchmark) == oracles.battery_rows(reference, years, benchmark)


def test_stability_battery_needs_the_benchmark_and_another_year():
    level = rank_scopes("sds", ["S", "S"], ["U1", "U2"], [2008], np.array([[1.0], [2.0]]))
    for benchmark in (2008, 2007):
        with pytest.raises(AnalysisError):
            stability_battery(level, benchmark)


def test_every_battery_array_is_read_only_and_keyed_alike():
    wide = {y: {f"U{i}": float((i * y) % 7) for i in range(6)} for y in (2004, 2006, 2008)}
    narrow = {y: {"A": 1.0, "B": float(y % 2)} for y in (2004, 2008)}
    batteries = [stability_battery(one_scope(by_year), 2008) for by_year in (wide, narrow)]
    assert batteries[0].keys() == batteries[1].keys()
    for battery in batteries:
        for name, values in battery.items():
            assert values.dtype == float, name
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0.0


def test_level_views_follow_the_row_layout():
    keys = [("S2", "U1"), ("S1", "U3"), ("S1", "U1"), ("S2", "U2"), ("S1", "U2")]
    scores = np.array([[1.0, 2.0], [5.0, 5.0], [3.0, 5.0], [1.0, 0.0], [5.0, 1.0]])
    scopes, universities = zip(*keys)
    level = rank_scopes("sds", scopes, universities, [2007, 2008], scores)
    assert level.by_scope(level.scores[:, 0]) == {
        "S1": {"U1": 3.0, "U2": 5.0, "U3": 5.0}, "S2": {"U1": 1.0, "U2": 1.0}
    }
    assert level.by_scope(level.ranks[:, 1])["S1"] == {"U1": 1, "U3": 1, "U2": 3}
    rows = ranking_rows({"sds": level})
    assert rows[1:4] == [["sds", "S1", "2007", "U2", "5.000000", "1"],
                         ["sds", "S1", "2007", "U3", "5.000000", "1"],
                         ["sds", "S1", "2007", "U1", "3.000000", "3"]]
    assert [row[3] for row in rows[4:7]] == ["U1", "U3", "U2"]  # S1 at 2008
    assert len(rows) == 1 + len(keys) * 2
