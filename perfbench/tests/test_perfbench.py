"""Self-tests of the benchmark: run with ``python -m pytest perfbench/tests``
from the repository root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

TINY_CONFIG = {
    "n_universities": 10,
    "staff_range": [2, 4],
    "udas": {"A": ["A1", "A2"], "B": ["B1", "B2"]},
    "sds_profiles": {"A1": "fast", "B2": "slow"},
    "pub_period": [2001, 2003],
    "observation_years": [2004, 2005, 2006, 2007, 2008],
    "pub_rate": 1.0,
    "profiles": {
        "default": [0.2, 0.7, 1.0, 0.9, 0.7, 0.5, 0.3, 0.2],
        "fast": [1.0, 1.2, 0.8, 0.4, 0.2],
        "slow": [0.05, 0.2, 0.5, 0.9, 1.1, 1.2],
    },
    "quality_sigma": 0.6,
    "coauthor_rate": 0.2,
    "multi_category_rate": 0.1,
    "seed": 1,
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A 'tiny' workload on a 10-university, 4-SDS config; work files under tmp_path."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    workload = run.Workload(
        why="self-test", config=str(config), universities=None,
        sensitivity_workers=1, npc_permutations=2000, npc_workers=1,
    )
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    return tmp_path


def run_tiny(capsys, trace: int, seed: int = 3) -> tuple[dict, str]:
    assert run.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_tiny_smoke_prints_every_end_to_end_metric(tiny, capsys):
    result, out = run_tiny(capsys, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert (result["attempted"] - run.SETUP_REPEATS) % 5 == 0  # whole rounds of five commands
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in out.splitlines())
        assert result["metrics"][name]["value"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_tiny_traced_run_emits_every_layer_metric(tiny, capsys):
    result, _out = run_tiny(capsys, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == run.PER_LAYER
    n_sds = sum(len(s) for s in TINY_CONFIG["udas"].values())
    assert metrics["productivity.sds_scores.scan_ratio"]["value"] == n_sds
    assert metrics["productivity.uda_scores.scan_ratio"]["value"] == n_sds
    assert metrics["npc.groups"]["value"] == len(TINY_CONFIG["udas"])
    assert metrics["impact.compute_median_table.calls"]["value"] == 11  # 1 + 5 + 5 years
    traces = list((tiny / "work" / "traces").glob("tiny-seed3-*.json"))
    assert len(traces) == 1
    spans = json.loads(traces[0].read_text())["spans"]
    assert {s["run_id"] for s in spans} == {traces[0].stem.rsplit("-", 1)[1]}


def test_corrupted_reference_counts_a_failure(tiny, capsys, monkeypatch):
    real = run.build_references

    def corrupted(corpus, seed):
        ref, npc_ref = real(corpus, seed)
        ref.ranks[("sds", "A1", run.SINGLE_YEAR)]["U001"] += 1
        return ref, npc_ref

    monkeypatch.setattr(run, "build_references", corrupted)
    result, _out = run_tiny(capsys, trace=0)
    assert not result["correct"]
    rounds = (result["attempted"] - run.SETUP_REPEATS) // 5
    assert result["failed"] == 2 * rounds  # rankings and sensitivity, every round
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_output_check_catches_each_kind_of_error(tmp_path):
    import citewin.cli as cli

    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert cli.main(["synth", "--config", str(config), "--seed", "5", "--out", str(corpus)]) == 0
    ref, npc_ref = run.build_references(corpus, 5)
    assert cli.main(["sensitivity", str(corpus), "--out", str(out / "s")]) == 0
    assert cli.main(["npc", str(corpus), "--out", str(out / "n"), "--permutations", "2000", "--seed", "5"]) == 0
    assert check.check_sensitivity(ref, 0, out / "s") == []
    assert check.check_npc(npc_ref, 0, out / "n", 2000) == []

    key = ("uda", "A", 2008)
    univ = sorted(ref.scores[key])[0]
    ref.scores[key][univ] += 2e-6  # two in the last printed digit
    assert any("score" in p for p in check.check_sensitivity(ref, 0, out / "s"))
    ref.scores[key][univ] -= 2e-6

    (out / "s" / "spearman.csv").unlink()
    assert check.check_sensitivity(ref, 0, out / "s") == ["missing output spearman.csv"]
    assert check.check_sensitivity(ref, 1, out / "s") == ["sensitivity exit 1, expected 0"]

    npc_ref.p["A"] = min(1.0, npc_ref.p["A"] + 0.2)
    assert any(p.startswith("npc A: p ") for p in check.check_npc(npc_ref, 0, out / "n", 2000))

    assert check.check_reject(7, 1, "error: x/citations.csv:7: decrease") == []
    assert check.check_reject(7, 1, "Traceback (most recent call last):\ncitations.csv:7") != []
    assert check.check_reject(7, 0, "citations.csv:7") != []


def test_printed_p_of_zero_is_neither_required_nor_rejected():
    tol = check._p_tolerance(2e-5, 1_000_000, check.REF_PERMUTATIONS)
    assert abs(0.0 - 2e-5) <= tol  # "0.000" as printed today
    assert abs(0.00002 - 2e-5) <= tol  # an exact value printed later


def test_self_time_is_span_minus_covered_children():
    def span(i, start, end, parent):
        return tracing.Span(i, f"m.f{i}", start, end, parent, "run")

    spans = [
        span(0, 0.0, 10.0, None),
        span(1, 1.0, 4.0, 0),
        span(2, 3.0, 6.0, 0),  # overlaps its sibling, as in a thread pool
        span(3, 2.0, 3.0, 1),
        span(4, 8.0, 12.0, 0),  # ends after its parent: only [8, 10] is covered
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]
    assert tracing.covered_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == 3.0


def test_traced_wraps_callers_names_and_restores_them():
    import citewin.cli as cli
    import citewin.productivity as productivity

    original = cli.load_corpus
    tr = tracing.Tracer()
    with tracing.traced(tr):
        assert cli.load_corpus is not original
        assert productivity.article_impact_index.__wrapped__.__module__ == "citewin.impact"
    assert cli.load_corpus is original


def test_benchmark_json_declares_what_run_emits():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "national", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
