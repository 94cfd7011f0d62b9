"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
import numpy as np
import pytest

from citewin.analysis import run_analysis
from citewin.cli import cmd_npc, cmd_sensitivity
from citewin.impact import (MedianTable, PublicationRecord, article_impact_index,
                            compute_median_table)
from citewin.ingest import load_corpus
from citewin.npc import UdaGroups, npc_fisher_combine, two_sample_perm_test
from citewin.productivity import NationalBaseline, ProductivityCell, uda_productivity
from citewin.sensitivity import _quartile_classes, stability_battery
from citewin.synth import generate

from conftest import (
    GOLDEN_SDS_ROWS,
    GOLDEN_TOTAL_P,
    GOLDEN_UNIVERSITY,
    build_golden_corpus_dir,
    corpus_from_rows,
    make_random_corpus,
    one_scope,
    scale_citations,
    stability_config,
)
from oracles import (
    compute_baselines,
    compute_cells,
    perm_test_exhaustive,
    publications,
    spearman_brute,
    uda_scores,
)

PERIOD = (2001, 2003)
YEARS = (2004, 2005, 2006, 2007, 2008)
BENCHMARK = 2008


def columns(run):
    """Every id, score, rank and ranking order of an analysis run, per level."""
    return {
        name: (lv.scope_ids, lv.university_ids, lv.years, lv.scores.tolist(), lv.ranks.tolist(),
               lv.fractional.tolist(), lv.ranked.tolist())
        for name, lv in run.levels.items()
    }


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"\nCRITERION {number} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_golden_productivity_table(tmp_path):
    with criterion(1, "golden productivity fixture", budget_s=1.0):
        cells = [
            ProductivityCell("UNINA", sds, 2008, ss, rs, ss / rs)
            for sds, rs, _n, ss, _p_bar, _c in GOLDEN_SDS_ROWS
        ]
        baselines = {
            sds: NationalBaseline(sds, 2008, p_bar)
            for sds, _rs, _n, _ss, p_bar, _c in GOLDEN_SDS_ROWS
        }
        result = uda_productivity("UNINA", "MATH", cells, baselines)
        assert abs(result.value - GOLDEN_TOTAL_P) <= 0.001
        by_sds = {c.sds_id: c.value for c in result.contributions}
        for sds, _rs, _n, _ss, _p_bar, contrib in GOLDEN_SDS_ROWS:
            assert abs(by_sds[sds] - contrib) <= 0.001

        # the same numbers must survive the full pipeline: a corpus engineered
        # to reproduce the fixture's SS and baselines ends at the same P
        corpus = load_corpus(build_golden_corpus_dir(tmp_path / "golden"))
        run = run_analysis(corpus, PERIOD, [2008], 0.5, "aggregate")
        uda = run.levels["uda"]
        score = uda.by_scope(uda.scores[:, 0])["MATH"][GOLDEN_UNIVERSITY]
        assert abs(score - GOLDEN_TOTAL_P) <= 0.001


def test_criterion_2_impact_unit_suite_and_scale_invariance():
    with criterion(2, "impact fixtures and scale invariance", budget_s=10.0):
        # weighted-average fixture: exact
        pub = PublicationRecord("P1", 2001, (("A", 0.5), ("B", 0.5)), {2004: 4})
        table = MedianTable(2004, {(2001, "A"): 2.0, (2001, "B"): 8.0})
        assert article_impact_index(pub, 2004, table) == 1.25
        # zero-citation exclusion fixture: exact
        zeros = corpus_from_rows(
            publications=[(f"P{i}", 2001, "K") for i in range(4)],
            citations=[(f"P{i}", 2004, c) for i, c in enumerate((0, 0, 3, 5))],
            fields=[("S1", "UA")],
        )
        assert compute_median_table(publications(zeros), 2004).median_for(2001, "K") == 4.0
        uncited = PublicationRecord("PZ", 2001, (("K", 1.0),), {2004: 0})
        assert article_impact_index(uncited, 2004, MedianTable(2004, {})) == 0.0

        # 50 randomized corpora, k in {2, 3}: bit-identical rankings
        for seed in range(50):
            corpus = make_random_corpus(seed, obs_years=(2004, 2006))
            base_run = run_analysis(corpus, PERIOD, [2004, 2006], 0.5, "aggregate")
            for k in (2, 3):
                scaled_run = run_analysis(
                    scale_citations(corpus, k), PERIOD, [2004, 2006], 0.5, "aggregate"
                )
                assert columns(scaled_run) == columns(base_run)


def test_criterion_3_normalization_identity(tmp_path):
    with criterion(3, "RS-weighted mean of P equals 1", budget_s=60.0):
        corpora = [make_random_corpus(seed) for seed in range(30)]
        for seed in range(5):
            root = generate(stability_config(), tmp_path / f"s{seed}", seed=seed)
            corpora.append(load_corpus(root))
        for corpus in corpora:
            table = compute_median_table(publications(corpus), 2006)
            cells = compute_cells(corpus, corpus.sds_ids.tolist(), PERIOD, 2006, table)
            baselines = compute_baselines(cells, "aggregate")
            for uda in corpus.uda_ids.tolist():
                scores = uda_scores(corpus, cells, baselines, uda)
                weighted = sum(up.rs * up.value for up in scores.values())
                total_rs = sum(up.rs for up in scores.values())
                assert abs(weighted / total_rs - 1.0) <= 1e-9

            # the same identity on the columnar pipeline, at every observation year,
            # with RS counted per (UDA, university) over the retained SDSs
            run = run_analysis(corpus, PERIOD, YEARS, 0.5, "aggregate")
            rs: dict[tuple[str, str], int] = {}
            for u, s in zip(corpus.res_univ.tolist(), corpus.res_sds.tolist()):
                if run.report.retained[s]:
                    key = (str(corpus.uda_ids[corpus.sds_uda[s]]), str(corpus.universities[u]))
                    rs[key] = rs.get(key, 0) + 1
            level = run.levels["uda"]
            assert level.scope_ids
            for y, year in enumerate(YEARS):
                for uda, scores in level.by_scope(level.scores[:, y]).items():
                    weighted = sum(rs[(uda, univ)] * p for univ, p in scores.items())
                    total_rs = sum(rs[(uda, univ)] for univ in scores)
                    assert abs(weighted / total_rs - 1.0) <= 1e-9, (uda, year)


def test_criterion_4_statistical_oracles():
    with criterion(4, "Spearman and permutation oracles", budget_s=60.0):
        rng = np.random.default_rng(414)
        for case in range(1000):
            n = int(rng.integers(2, 11))
            if case % 2:  # coarse scores force ties
                a = rng.integers(0, 4, n).astype(float)
                b = rng.integers(0, 4, n).astype(float)
            else:
                a = rng.normal(size=n)
                b = rng.normal(size=n)
            sa = {f"U{i}": float(v) for i, v in enumerate(a)}
            sb = {f"U{i}": float(v) for i, v in enumerate(b)}
            (got,) = stability_battery(one_scope({2004: sa, 2008: sb}), 2008)[0].spearman
            want = spearman_brute(list(a), list(b))
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= 1e-12

        # exhaustive mode == full-enumeration oracle, exactly
        small = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 5)]
        for k, m in small:
            assert math.comb(k + m, k) <= 12
            for seed in range(5):
                case_rng = np.random.default_rng(1000 * k + 10 * m + seed)
                top = case_rng.integers(0, 9, k).tolist()
                rest = case_rng.integers(0, 9, m).tolist()
                if len(set(top + rest)) == 1:
                    continue
                res = two_sample_perm_test(top, rest, n_perm=10_000, seed=seed)
                t_obs, p = perm_test_exhaustive(top, rest)
                assert res.exhaustive
                assert abs(res.observed - float(t_obs)) <= 1e-12
                assert res.p_value == float(p)

        # Monte Carlo at B = 100,000 within 0.01 of exhaustive
        for top, rest in ([10.0, 11.0], [1.0, 2.0, 3.0]), ([2.0, 7.0], [1.0, 1.0, 3.0]):
            exact = two_sample_perm_test(top, rest, n_perm=10_000, seed=0)
            sampled = two_sample_perm_test(
                top, rest, n_perm=100_000, seed=11, force_monte_carlo=True
            )
            assert exact.exhaustive and not sampled.exhaustive
            assert abs(sampled.p_value - exact.p_value) <= 0.01


def test_criterion_5_permutation_calibration():
    with criterion(5, "null calibration of permutation p-values", budget_s=120.0):
        rng = np.random.default_rng(20260810)
        hits = 0
        n_sets = 500
        for _ in range(n_sets):
            values = rng.normal(size=30)
            res = two_sample_perm_test(
                values[:6], values[6:], n_perm=999, seed=int(rng.integers(2**32))
            )
            assert 0.0 < res.p_value <= 1.0
            hits += res.p_value <= 0.05
        assert 0.03 <= hits / n_sets <= 0.07

        # combined NPC p stays inside (0, 1] on null multi-discipline data
        for seed in range(50):
            g_rng = np.random.default_rng(5000 + seed)
            groups = []
            for g in range(4):
                values = {f"G{g}U{i}": float(g_rng.normal()) for i in range(10)}
                groups.append(UdaGroups(f"UDA{g}", values, frozenset(sorted(values)[:2])))
            res = npc_fisher_combine(groups, n_perm=499, seed=seed)
            assert 0.0 < res.combined_p <= 1.0


def test_criterion_6_stability_trend(tmp_path):
    with criterion(6, "rankings stabilize toward the benchmark", budget_s=120.0):
        rhos = {y: [] for y in YEARS[:-1]}
        for seed in range(20):
            root = generate(stability_config(), tmp_path / f"s{seed}", seed=seed)
            corpus = load_corpus(root)
            run = run_analysis(corpus, PERIOD, YEARS, 0.5, "aggregate")
            for scope in stability_battery(run.levels["uda"], BENCHMARK):
                for y, rho in zip(YEARS[:-1], scope.spearman):
                    assert rho is not None
                    rhos[y].append(rho)
        sequence = [float(np.mean(rhos[y])) for y in YEARS[:-1]]
        for earlier, later in zip(sequence, sequence[1:]):
            assert later >= earlier - 0.02
        assert sequence[-1] >= 0.95


def test_criterion_7_quartile_bounds_and_table_shape(tmp_path):
    with criterion(7, "quartile shifts bounded, tables shaped", budget_s=60.0):
        # library level: every class shift across synthetic runs lies in {0..3}
        for seed in range(10):
            corpus = make_random_corpus(seed, n_universities=8)
            run = run_analysis(corpus, PERIOD, YEARS, 0.5, "aggregate")
            level = run.levels["uda"]
            bounds = level.bounds.tolist()
            for lo, hi, scope in zip(bounds, bounds[1:], stability_battery(level, BENCHMARK)):
                _boundaries, classes = _quartile_classes(level.scores[lo:hi].T)  # [year, university]
                bench = classes[YEARS.index(BENCHMARK)]
                for year_classes in classes.tolist():
                    for cls, bench_cls in zip(year_classes, bench.tolist()):
                        assert cls in (1, 2, 3, 4)
                        assert abs(cls - bench_cls) in (0, 1, 2, 3)
                assert scope.quartiles is not None
                assert all(0.0 <= s.average_abs_shift <= 3.0 for s in scope.quartiles)

        # command level: the quartile table has the measure rows and year columns
        root = generate(stability_config(), tmp_path / "corpus", seed=3)
        out = cmd_sensitivity(root, tmp_path / "out", years=YEARS, benchmark_year=BENCHMARK)
        lines = (out / "quartile_stats.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["scope_level", "scope_id", "measure", "2004", "2005", "2006", "2007"]
        measures = {line.split(",")[2] for line in lines[1:]}
        assert measures == {"avg_class_shift", "outliers"}
        for line in lines[1:]:
            fields = line.split(",")
            if fields[2] == "outliers":
                assert all(v.isdigit() for v in fields[3:])


def test_criterion_8_byte_identical_outputs(tmp_path):
    with criterion(8, "deterministic outputs across runs and workers", budget_s=120.0):
        root = generate(stability_config(), tmp_path / "corpus", seed=8)

        def snapshot(out_dir):
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        sens = [
            snapshot(
                cmd_sensitivity(root, tmp_path / f"sens{i}", years=YEARS,
                                benchmark_year=BENCHMARK)
            )
            for i in range(3)
        ]
        assert sens[0] == sens[1] == sens[2]

        npc = [
            snapshot(
                cmd_npc(root, tmp_path / f"npc{i}", years=YEARS, benchmark_year=BENCHMARK,
                        n_perm=3000, seed=42, workers=w)
            )
            for i, w in ((0, 1), (1, 1), (2, 3))
        ]
        assert npc[0] == npc[1] == npc[2]


def test_criterion_9_stability_average_semantics(tmp_path):
    with criterion(9, "summary average equals mean of yearly mean shifts", budget_s=60.0):
        runs = []
        for seed in range(6):
            corpus = make_random_corpus(seed, n_universities=7)
            runs.append(run_analysis(corpus, PERIOD, YEARS, 0.5, "aggregate"))
        root = generate(stability_config(), tmp_path / "corpus", seed=9)
        runs.append(run_analysis(load_corpus(root), PERIOD, YEARS, 0.5, "aggregate"))

        checked = 0
        for run in runs:
            for level in run.levels.values():
                bounds, b = level.bounds.tolist(), YEARS.index(BENCHMARK)
                for lo, hi, scope in zip(bounds, bounds[1:], stability_battery(level, BENCHMARK)):
                    ranks = level.ranks[lo:hi]  # [university, year]
                    yearly_means = [
                        np.mean(np.abs(ranks[:, y] - ranks[:, b]))
                        for y in range(len(YEARS))
                        if y != b
                    ]
                    assert scope.summary.mean_shift_average == pytest.approx(
                        float(np.mean(yearly_means)), abs=1e-12
                    )
                    checked += 1
        assert checked > 20
