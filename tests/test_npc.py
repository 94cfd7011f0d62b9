"""Permutation test, partitioning, and the Fisher combination."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citewin.npc as npc_mod
from citewin.errors import AnalysisError
from citewin.npc import (
    UdaGroups,
    _significance_levels,
    max_rank_shifts,
    npc_fisher_combine,
    top_partition,
    two_sample_perm_test,
)

from oracles import perm_test_exhaustive, significance_levels


def test_max_rank_shift_examples():
    # one university's ranks by year, the benchmark (2008) last
    assert max_rank_shifts(np.array([[5, 3, 4, 4]]), 3).tolist() == [1]
    assert max_rank_shifts(np.array([[2, 2]]), 1).tolist() == [0]
    assert max_rank_shifts(np.array([[43, 12]]), 1).tolist() == [31]


def test_max_rank_shifts_is_max_rank_shift_of_each_row():
    years = [2004, 2005, 2006, 2007, 2008]
    ranks = np.random.default_rng(3).integers(1, 40, size=(25, len(years)))
    for bench in range(len(years)):
        got = max_rank_shifts(ranks, bench)
        assert got.tolist() == [max(abs(r - row[bench]) for r in row) for row in ranks.tolist()]


def test_top_partition_decile_structure():
    scores = {f"U{i}": float(i) for i in range(10)}
    top, rest = top_partition(scores, 80)
    assert top == {"U8", "U9"}
    assert len(rest) == 8


def test_top_partition_interpolated_boundary():
    top, rest = top_partition({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 100.0}, 80)
    assert top == {"e"}


def test_top_partition_degenerate_and_bad_percentile():
    with pytest.raises(AnalysisError, match="degenerate"):
        top_partition({"a": 1.0, "b": 1.0, "c": 1.0}, 80)
    with pytest.raises(ValueError):
        top_partition({"a": 1.0, "b": 2.0}, 100)
    with pytest.raises(ValueError):
        top_partition({"a": 1.0, "b": 2.0}, 0)


def test_perm_test_exact_null():
    res = two_sample_perm_test([1.0, 2.0], [1.0, 2.0], n_perm=1000, seed=0)
    assert res.observed == 0.0
    assert res.p_value == 1.0


def test_perm_test_frozen_exhaustive_example():
    # full enumeration of the C(5,2) = 10 labelings: only the observed split
    # reaches |T| = 8.5, so p = 1/10
    res = two_sample_perm_test([10, 11], [1, 2, 3], n_perm=1000, seed=0)
    assert res.exhaustive and res.n_perm == 10
    assert res.observed == 8.5
    assert res.p_value == 0.1
    assert res.direction == ">"


def test_perm_test_frozen_monte_carlo_example():
    # p-values of the seeded sampler, recorded before it was shared with NPC
    top, rest = [2.0, 7.0, 5.0], [1.0, 1.0, 3.0, 4.0, 0.5, 6.0]
    res = two_sample_perm_test(top, rest, n_perm=50, seed=2024)  # C(9,3) = 84 > 50
    assert not res.exhaustive and res.n_perm == 50
    assert res.observed == 2.0833333333333335
    assert res.p_value == 13 / 51
    forced = two_sample_perm_test(top, rest, n_perm=999, seed=2024, force_monte_carlo=True)
    assert not forced.exhaustive and forced.p_value == 249 / 1000


def test_perm_test_degenerate_flagged():
    res = two_sample_perm_test([3.0, 3.0], [3.0, 3.0, 3.0], n_perm=100, seed=0)
    assert res.degenerate and res.p_value == 1.0 and res.direction == "="


def test_perm_test_direction_marker():
    res = two_sample_perm_test([1, 2], [10, 11, 12], n_perm=100, seed=0)
    assert res.direction == "<" and res.observed < 0


@pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_matches_enumeration_oracle(sizes, seed):
    k, m = sizes
    assert math.comb(k + m, k) <= 12
    rng = np.random.default_rng(seed)
    top = rng.integers(0, 8, k).tolist()
    rest = rng.integers(0, 8, m).tolist()
    if len(set(top + rest)) == 1:
        return
    res = two_sample_perm_test(top, rest, n_perm=10_000, seed=seed)
    t_obs, p = perm_test_exhaustive(top, rest)
    assert res.exhaustive
    assert res.observed == pytest.approx(float(t_obs), abs=1e-12)
    assert res.p_value == float(p)  # exact


def test_exhaustive_mid_size_matches_oracle():
    rng = np.random.default_rng(77)
    top = rng.integers(0, 20, 3).tolist()
    rest = rng.integers(0, 20, 9).tolist()
    res = two_sample_perm_test(top, rest, n_perm=1000, seed=0)  # C(12,3) = 220
    t_obs, p = perm_test_exhaustive(top, rest)
    assert res.exhaustive and res.n_perm == 220
    assert res.p_value == float(p)
    assert res.observed == pytest.approx(float(t_obs), abs=1e-12)


def test_monte_carlo_close_to_exhaustive():
    top, rest = [10.0, 11.0], [1.0, 2.0, 3.0]
    exact = two_sample_perm_test(top, rest, n_perm=1000, seed=0).p_value
    mc = two_sample_perm_test(top, rest, n_perm=5, seed=123)  # forces sampling
    assert not mc.exhaustive
    big = two_sample_perm_test(top, rest, n_perm=20_000, seed=7)
    assert abs(big.p_value - exact) <= 0.02


def test_perm_test_deterministic_under_seed():
    rng = np.random.default_rng(0)
    top = rng.normal(size=8).tolist()
    rest = rng.normal(size=20).tolist()
    a = two_sample_perm_test(top, rest, n_perm=3000, seed=42)
    b = two_sample_perm_test(top, rest, n_perm=3000, seed=42)
    assert a == b
    assert not a.exhaustive


def test_block_size_does_not_change_the_stream(monkeypatch):
    rng = np.random.default_rng(4)
    top = rng.normal(size=6).tolist()
    rest = rng.normal(size=18).tolist()
    whole = two_sample_perm_test(top, rest, n_perm=2500, seed=9)
    monkeypatch.setattr(npc_mod, "_CHUNK_VALUES", 256)  # forces many tiny blocks
    chunked = two_sample_perm_test(top, rest, n_perm=2500, seed=9)
    assert whole == chunked

    groups = null_groups(np.random.default_rng(5), n_udas=3, n_univ=9, top_size=2)
    combined_chunked = npc_fisher_combine(groups, n_perm=700, seed=13)
    monkeypatch.undo()
    combined_whole = npc_fisher_combine(groups, n_perm=700, seed=13)
    assert combined_whole == combined_chunked


@pytest.mark.parametrize("seed", range(10))
def test_perm_test_p_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    top = rng.normal(size=int(rng.integers(1, 6))).tolist()
    rest = rng.normal(size=int(rng.integers(1, 9))).tolist()
    res = two_sample_perm_test(top, rest, n_perm=200, seed=seed)
    assert 0.0 < res.p_value <= 1.0


def test_perm_test_argument_validation():
    with pytest.raises(ValueError):
        two_sample_perm_test([1.0], [2.0], n_perm=0)
    with pytest.raises(AnalysisError):
        two_sample_perm_test([], [2.0], n_perm=10)


def test_null_calibration_quick():
    rng = np.random.default_rng(2024)
    hits = 0
    n_sets = 200
    for _ in range(n_sets):
        values = rng.normal(size=24)
        res = two_sample_perm_test(values[:5], values[5:], n_perm=499, seed=int(rng.integers(2**32)))
        hits += res.p_value <= 0.05
    assert 0.02 <= hits / n_sets <= 0.08


@st.composite
def stat_arrays(draw):
    """1 to 2,000 values in random order: heavy ties, all distinct or all equal."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("ties", "distinct", "equal")))
    if kind == "ties":
        return rng.integers(0, 12, size=n) / 2
    if kind == "distinct":
        return rng.permutation(n) / 3 + draw(st.floats(0, 100))
    return np.full(n, draw(st.floats(0, 100)))


@settings(max_examples=150, deadline=None)
@given(values=stat_arrays())
def test_significance_levels_match_brute_force_count(values):
    got = _significance_levels(values)
    assert [float(x).hex() for x in got] == [x.hex() for x in significance_levels(values.tolist())]


# ---------------------------------------------------------------------------
# NPC combination


def null_groups(rng, n_udas=3, n_univ=10, top_size=2):
    groups = []
    for g in range(n_udas):
        values = {f"G{g}U{i}": float(rng.normal()) for i in range(n_univ)}
        members = sorted(values)
        groups.append(UdaGroups(f"UDA{g}", values, frozenset(members[:top_size])))
    return groups


def test_npc_needs_two_groups():
    rng = np.random.default_rng(0)
    with pytest.raises(AnalysisError):
        npc_fisher_combine(null_groups(rng, n_udas=1), n_perm=100, seed=0)


def test_npc_identical_groups_null_p_is_one():
    values = {f"U{i}": 1.0 for i in range(8)}
    groups = [
        UdaGroups("A", values, frozenset(["U0", "U1"])),
        UdaGroups("B", values, frozenset(["U2", "U3"])),
    ]
    result = npc_fisher_combine(groups, n_perm=2000, seed=5)
    assert result.combined_p == 1.0
    for partial in result.partials:
        assert partial.p_value == 1.0


def test_npc_combined_p_in_unit_interval():
    rng = np.random.default_rng(1)
    for seed in range(5):
        result = npc_fisher_combine(null_groups(rng), n_perm=500, seed=seed)
        assert 0.0 < result.combined_p <= 1.0
        for partial in result.partials:
            assert 0.0 < partial.p_value <= 1.0


def test_npc_deterministic_and_worker_independent():
    rng = np.random.default_rng(9)
    groups = null_groups(rng, n_udas=4, n_univ=12, top_size=3)
    a = npc_fisher_combine(groups, n_perm=4000, seed=11, workers=1)
    b = npc_fisher_combine(groups, n_perm=4000, seed=11, workers=4)
    c = npc_fisher_combine(groups, n_perm=4000, seed=11, workers=1)
    assert a == b == c


def test_npc_rejects_fewer_than_one_worker():
    groups = null_groups(np.random.default_rng(0))
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            npc_fisher_combine(groups, n_perm=100, seed=0, workers=workers)


def frozen_groups():
    # non-dyadic values, so any change in the order of the float sums shows;
    # A and B share all ten universities with top sets of different sizes,
    # and C spans seven of them
    univ = [f"U{i}" for i in range(10)]
    a = [0.1, 2.3, 0.7, 1.9, 3.1, 0.3, 2.9, 1.1, 0.6, 4.2]
    b = [1.3, 0.2, 2.7, 0.9, 1.7, 3.3, 0.4, 2.1, 1.5, 0.8]
    c = [0.7, 1.9, 0.1, 2.6, 0.3, 1.3, 1.1]
    return [
        UdaGroups("A", dict(zip(univ, a)), frozenset({"U0", "U9"})),
        UdaGroups("B", dict(zip(univ, b)), frozenset({"U0", "U3", "U5"})),
        UdaGroups("C", dict(zip(univ[2:9], c)), frozenset({"U2", "U8"})),
    ]


# float.hex of (observed, p) per partial, then the Fisher statistic and the
# combined p, recorded with the per-discipline sampler this one replaced
FROZEN_NPC = {
    999: (
        [("0x1.1333333333334p-1", "0x1.451eb851eb852p-1"),
         ("0x1.f63f63f63f63cp-2", "0x1.0189374bc6a7fp-1"),
         ("-0x1.5c28f5c28f5c2p-2", "0x1.5f3b645a1cac1p-1")],
        "0x1.84a6fd0572d4dp+1",
        "0x1.83126e978d4fep-1",
    ),
    1: (
        [("0x1.1333333333334p-1", "0x1.0000000000000p+0"),
         ("0x1.f63f63f63f63cp-2", "0x1.0000000000000p-1"),
         ("-0x1.5c28f5c28f5c2p-2", "0x1.0000000000000p+0")],
        "0x1.62e42fefa39efp+0",
        "0x1.0000000000000p+0",
    ),
}


@pytest.mark.parametrize(
    "n_perm, workers, chunk",
    [(999, 1, None), (999, 2, None), (999, 3, None), (999, 3, 64), (1, 3, None)],
)
def test_npc_frozen_bits_at_any_worker_count(monkeypatch, n_perm, workers, chunk):
    if chunk is not None:
        monkeypatch.setattr(npc_mod, "_CHUNK_VALUES", chunk)  # 6-row blocks
    result = npc_fisher_combine(frozen_groups(), n_perm=n_perm, seed=2718, workers=workers)
    got = (
        [(p.observed.hex(), p.p_value.hex()) for p in result.partials],
        result.combined_statistic.hex(),
        result.combined_p.hex(),
    )
    assert got == FROZEN_NPC[n_perm]


def test_npc_shared_stream_relabels_overlapping_universities_consistently():
    # two disciplines over the same universities with the same top set must
    # produce identical partial tests under the shared permutation stream
    rng = np.random.default_rng(3)
    values = {f"U{i}": float(rng.normal()) for i in range(9)}
    top = frozenset(sorted(values)[:2])
    groups = [UdaGroups("A", dict(values), top), UdaGroups("B", dict(values), top)]
    result = npc_fisher_combine(groups, n_perm=999, seed=21)
    pa, pb = result.partials
    assert pa.observed == pb.observed
    assert pa.p_value == pb.p_value


def test_npc_monotone_response_to_injected_separation():
    # shifting the top group upward in more disciplines should not raise the
    # median combined p over seeds
    def median_p(n_separated: int) -> float:
        ps = []
        for seed in range(50):
            rng = np.random.default_rng(10_000 + seed)
            groups = []
            for g in range(6):
                values = {f"G{g}U{i}": float(rng.normal()) for i in range(12)}
                members = sorted(values)
                top = frozenset(members[:3])
                if g < n_separated:
                    values = {
                        u: v + (4.0 if u in top else 0.0) for u, v in values.items()
                    }
                groups.append(UdaGroups(f"UDA{g}", values, top))
            ps.append(npc_fisher_combine(groups, n_perm=499, seed=seed).combined_p)
        return float(np.median(ps))

    medians = [median_p(k) for k in (0, 2, 4, 6)]
    for a, b in zip(medians, medians[1:]):
        assert b <= a + 1e-12
    assert medians[-1] < medians[0]


def test_pipeline_null_rarely_produces_tiny_partial_p(tmp_path):
    """Across 100 seeded null corpora, at least 95 must have every per-UDA
    p-value >= 0.01 (the top/rest groups share one generative process)."""
    from citewin.cli import run_analysis
    from citewin.ingest import load_corpus
    from citewin.synth import generate

    from conftest import small_null_config

    years = (2004, 2005, 2006, 2007, 2008)
    clean = 0
    for seed in range(100):
        root = generate(small_null_config(), tmp_path / f"s{seed}", seed=seed)
        run = run_analysis(load_corpus(root), (2001, 2003), years, 0.5, "aggregate", levels=("uda",))
        groups = []
        level = run.levels["uda"]
        bench = level.by_scope(level.scores[:, years.index(2008)])
        shifts = level.by_scope(max_rank_shifts(level.ranks, years.index(2008)).astype(float))
        for uda in level.scope_ids:
            try:
                top, _rest = top_partition(bench[uda], 80)
            except AnalysisError:
                continue
            groups.append(UdaGroups(uda, shifts[uda], top))
        assert len(groups) >= 2
        result = npc_fisher_combine(groups, n_perm=999, seed=seed)
        assert 0.0 < result.combined_p <= 1.0
        if min(p.p_value for p in result.partials) >= 0.01:
            clean += 1
    assert clean >= 95


@pytest.mark.parametrize("n_perm", [15, 16, 17])
def test_npc_dependent_null_at_every_permutation_count(n_perm):
    # two disciplines over the same universities with identical values: the
    # partial tests are one test, so the exact combined p is the partial's,
    # P(|T| >= 2) = 2/4, and no permutation count may treat them as independent
    values = {"U1": 3.0, "U2": 1.0, "U3": 2.0, "U4": 0.0}
    groups = [UdaGroups(uda, dict(values), frozenset(["U1"])) for uda in ("A", "B")]
    result = npc_fisher_combine(groups, n_perm=n_perm, seed=7)
    pa, pb = result.partials
    assert result.n_perm == pa.n_perm == n_perm and result.seed == 7
    assert pa.observed == pb.observed == 2.0
    assert pa.p_value == pb.p_value == result.combined_p
    large = npc_fisher_combine(groups, n_perm=100_000, seed=7)
    assert abs(large.combined_p - 0.5) <= 0.01


def test_npc_partials_equal_standalone_monte_carlo():
    # when every group spans the whole universe and its top set is its first
    # k sorted members, each partial sees exactly the standalone test's stream
    rng = np.random.default_rng(8)
    members = [f"U{i:02d}" for i in range(11)]
    groups = [
        UdaGroups(f"UDA{g}", {u: float(rng.integers(0, 6)) for u in members},
                  frozenset(members[:k]))
        for g, k in enumerate((2, 3, 1))
    ]
    result = npc_fisher_combine(groups, n_perm=1500, seed=31, workers=2)
    for partial, group, k in zip(result.partials, groups, (2, 3, 1)):
        values = [group.values[u] for u in members]
        solo = two_sample_perm_test(values[:k], values[k:], n_perm=1500, seed=31,
                                    scope_id=group.uda_id, force_monte_carlo=True)
        assert partial == solo


def test_npc_null_calibration_with_overlapping_groups():
    # three disciplines share 10 of their 12 universities and their top
    # sets, and a university effect three times the noise makes the partial
    # tests strongly dependent; the shared stream keeps the combined test at
    # its nominal level (independent streams per discipline reject 10-13%)
    rng = np.random.default_rng(4242)
    universe = [f"U{i:02d}" for i in range(14)]
    hits = 0
    n_sets = 1000
    for _ in range(n_sets):
        effect = dict(zip(universe, 3.0 * rng.normal(size=len(universe))))
        groups = []
        for g in range(3):
            members = universe[:10] + universe[10 + g : 12 + g]
            values = {u: effect[u] + float(rng.normal()) for u in members}
            groups.append(UdaGroups(f"UDA{g}", values, frozenset(sorted(members)[:3])))
        result = npc_fisher_combine(groups, n_perm=299, seed=int(rng.integers(2**32)))
        hits += result.combined_p <= 0.05
    assert 0.02 <= hits / n_sets <= 0.08
