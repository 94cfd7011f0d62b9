"""Command-line behavior: exit codes, output tables, manifests, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import math

import pytest

from citewin.cli import _npc_rows, main
from citewin.npc import NpcCombinedResult, PermTestResult

from conftest import (
    GOLDEN_TOTAL_P,
    GOLDEN_UNIVERSITY,
    build_golden_corpus_dir,
    stability_config,
    write_corpus_dir,
)
from citewin.synth import generate


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def valid_dir(tmp_path):
    return write_corpus_dir(
        tmp_path / "valid",
        publications=[("P1", 2001, "K1"), ("P2", 2002, "K1")],
        citations=[("P1", 2004, 1), ("P2", 2004, 2)],
        authorship=[("P1", "R1"), ("P2", "R2")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S1")],
        fields=[("S1", "UA")],
    )


def test_validate_ok(tmp_path, capsys):
    assert run("validate", valid_dir(tmp_path)) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_bad_data_with_location(tmp_path, capsys):
    root = write_corpus_dir(
        tmp_path / "bad",
        publications=[("P1", 2001, "K1")],
        citations=[("P1", 2004, 5), ("P1", 2005, 3)],
        authorship=[("P1", "R1")],
        researchers=[("R1", "U1", "S1")],
        fields=[("S1", "UA")],
    )
    assert run("validate", root) == 1
    err = capsys.readouterr().err
    assert "citations.csv" in err and "decrease" in err


def test_validate_rejects_non_strict_integer_without_traceback(tmp_path, capsys):
    root = write_corpus_dir(
        tmp_path / "bad",
        publications=[("P1", 2001, "K1")],
        citations=[("P1", 2004, 5), ("P1", 2005, "1_000")],
        authorship=[("P1", "R1")],
        researchers=[("R1", "U1", "S1")],
        fields=[("S1", "UA")],
    )
    assert run("validate", root) == 1
    err = capsys.readouterr().err
    assert "citations.csv:3:" in err and "Traceback" not in err


def test_validate_missing_dir_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("validate", empty) == 2
    assert "missing" in capsys.readouterr().err.lower()


def test_rankings_reproduces_golden_productivity(tmp_path):
    corpus_dir = build_golden_corpus_dir(tmp_path / "golden")
    out = tmp_path / "out"
    assert run(
        "rankings", corpus_dir, "--out", out, "--period", "2001-2003",
        "--obs-year", "2008", "--level", "uda",
    ) == 0
    rows = read_csv(out / "rankings.csv")
    mine = [r for r in rows if r["university_id"] == GOLDEN_UNIVERSITY]
    assert len(mine) == 1
    assert abs(float(mine[0]["score"]) - GOLDEN_TOTAL_P) <= 0.001
    # manifest records the parameters
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "rankings"
    assert manifest["parameters"]["baseline"] == "aggregate"
    assert (out / "representativity.csv").exists()
    assert (out / "medians.csv").exists()


def test_rankings_sds_level_emits_block_per_retained_sds(tmp_path):
    root = generate(stability_config(), tmp_path / "corpus", seed=1)
    out = tmp_path / "out"
    assert run(
        "rankings", root, "--out", out, "--obs-year", "2008", "--level", "sds"
    ) == 0
    rows = read_csv(out / "rankings.csv")
    retained = {
        r["sds_id"] for r in read_csv(out / "representativity.csv") if r["retained"] == "1"
    }
    assert {r["scope_id"] for r in rows} == retained
    assert all(r["scope_level"] == "sds" for r in rows)


def test_rankings_weighted_mean_is_one_end_to_end(tmp_path):
    # reconstruct the normalization identity purely from the CLI artifacts:
    # staff-weighted mean of the discipline scores must be 1 up to the
    # 6-decimal serialization
    root = generate(stability_config(), tmp_path / "corpus", seed=11)
    out = tmp_path / "out"
    assert run("rankings", root, "--out", out, "--obs-year", "2006", "--level", "uda") == 0

    retained = {
        r["sds_id"] for r in read_csv(out / "representativity.csv") if r["retained"] == "1"
    }
    uda_of = {r["sds_id"]: r["uda_id"] for r in read_csv(root / "fields.csv")}
    staff: dict[tuple[str, str], int] = {}
    for r in read_csv(root / "researchers.csv"):
        if r["sds_id"] in retained:
            key = (r["university_id"], uda_of[r["sds_id"]])
            staff[key] = staff.get(key, 0) + 1

    by_uda: dict[str, list[tuple[float, int]]] = {}
    for row in read_csv(out / "rankings.csv"):
        key = (row["university_id"], row["scope_id"])
        by_uda.setdefault(row["scope_id"], []).append((float(row["score"]), staff[key]))
    assert by_uda
    for uda, pairs in by_uda.items():
        weighted = sum(score * rs for score, rs in pairs) / sum(rs for _s, rs in pairs)
        assert abs(weighted - 1.0) <= 5e-6, uda


def test_rankings_missing_year_lists_available(tmp_path, capsys):
    assert run("rankings", valid_dir(tmp_path), "--out", tmp_path / "o", "--obs-year", "2019") == 1
    err = capsys.readouterr().err
    assert "2019" in err and "2004" in err


def test_sensitivity_identical_rankings_corpus(tmp_path):
    # all citations arrive in the publication year, so every observation year
    # sees identical counts and identical rankings
    cfg = stability_config()
    from dataclasses import replace

    frozen = replace(cfg, profiles={"default": (1.5, 0.0)})
    root = generate(frozen, tmp_path / "corpus", seed=2)
    out = tmp_path / "out"
    assert run("sensitivity", root, "--out", out) == 0
    for row in read_csv(out / "spearman.csv"):
        for year in ("rank_2004", "rank_2005", "rank_2006", "rank_2007"):
            assert row[year] in ("1.000000", "NA")
    for row in read_csv(out / "stability_summary.csv"):
        assert row["pct_change"] == "0"
        assert float(row["average"]) == 0.0
        assert row["max_ranking_variation"] == "0"
    for row in read_csv(out / "shift_descriptives.csv"):
        if row["statistic"] in ("mean", "median", "std_dev"):
            assert all(float(row[y]) == 0.0 for y in ("2004", "2005", "2006", "2007"))


def test_sensitivity_requires_benchmark_in_years(tmp_path, capsys):
    root = generate(stability_config(), tmp_path / "corpus", seed=3)
    code = run(
        "sensitivity", root, "--out", tmp_path / "o",
        "--years", "2004,2005", "--benchmark", "2008",
    )
    assert code == 1
    assert "benchmark" in capsys.readouterr().err


def test_sensitivity_outputs_full_battery(tmp_path):
    root = generate(stability_config(), tmp_path / "corpus", seed=4)
    out = tmp_path / "out"
    assert run("sensitivity", root, "--out", out) == 0
    for name in (
        "shift_descriptives.csv",
        "stability_summary.csv",
        "spearman.csv",
        "small_shift_pcts.csv",
        "quartile_stats.csv",
        "rank_ranges.csv",
        "rankings.csv",
        "representativity.csv",
        "medians.csv",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    quartiles = read_csv(out / "quartile_stats.csv")
    assert {r["measure"] for r in quartiles} == {"avg_class_shift", "outliers"}
    ranges = read_csv(out / "rank_ranges.csv")
    assert all(int(r["min_rank"]) <= int(r["max_rank"]) for r in ranges)
    levels = {r["scope_level"] for r in read_csv(out / "stability_summary.csv")}
    assert levels == {"uda", "sds"}


def test_sensitivity_skips_quartiles_for_tiny_scopes(tmp_path):
    # two universities: quartile classes are undefined everywhere, but the
    # rest of the battery still comes out
    root = write_corpus_dir(
        tmp_path / "tiny",
        publications=[(f"P{i}", 2001, "K1") for i in range(6)],
        citations=[(f"P{i}", y, c + (y - 2004)) for i, c in enumerate((1, 2, 3, 4, 5, 6)) for y in (2004, 2008)],
        authorship=[(f"P{i}", f"R{i % 4}") for i in range(6)],
        researchers=[("R0", "U1", "S1"), ("R1", "U1", "S1"), ("R2", "U2", "S1"), ("R3", "U2", "S1")],
        fields=[("S1", "UA")],
    )
    out = tmp_path / "out"
    assert run("sensitivity", root, "--out", out, "--years", "2004,2008", "--benchmark", "2008") == 0
    quartile_lines = (out / "quartile_stats.csv").read_text().splitlines()
    assert len(quartile_lines) == 1  # header only
    assert len(read_csv(out / "stability_summary.csv")) == 2  # uda + sds rows


def test_pct_change_rounds_exact_halves_up(tmp_path):
    # 23 of 40 universities change rank (the first 23 rotate by one place in
    # 2004): 57.5 % prints as 58, where 100.0 * (23 / 40) = 57.49999999999999
    n, moved = 40, 23
    early = [500 - ((i + 1) % moved if i < moved else i) for i in range(n)]
    root = write_corpus_dir(
        tmp_path / "forty",
        publications=[(f"P{i:02d}", 2001, "K1") for i in range(n)],
        citations=[(f"P{i:02d}", y, c) for i in range(n) for y, c in ((2004, early[i]), (2008, 1000 - i))],
        authorship=[(f"P{i:02d}", f"R{i:02d}") for i in range(n)],
        researchers=[(f"R{i:02d}", f"U{i:02d}", "S1") for i in range(n)],
        fields=[("S1", "UA")],
    )
    out = tmp_path / "out"
    assert run("sensitivity", root, "--out", out, "--years", "2004,2008", "--benchmark", "2008") == 0
    rows = read_csv(out / "stability_summary.csv")
    assert [(r["scope_level"], r["n_universities"], r["pct_change"]) for r in rows] == [
        ("uda", "40", "58"), ("sds", "40", "58"),
    ]
    small = read_csv(out / "small_shift_pcts.csv")  # 17 unmoved (42.5 %), 39 within 3 (97.5 %)
    assert [(r["no_change_pct"], r["leq3_pct"]) for r in small] == [("43", "98"), ("43", "98")]


@pytest.mark.parametrize("command", ["sensitivity", "npc"])
def test_single_observation_year_is_rejected_before_any_work(
    golden_corpus_dir, tmp_path, capsys, command
):
    out = tmp_path / "out"
    assert run(command, golden_corpus_dir, "--out", out, "--years", "2008", "--benchmark", "2008") == 1
    assert "needs at least two observation years" in capsys.readouterr().err
    assert not out.exists()


def test_rankings_on_uncited_corpus_gives_all_zero_scores(tmp_path):
    root = write_corpus_dir(
        tmp_path / "uncited",
        publications=[("P1", 2001, "K1"), ("P2", 2002, "K1")],
        citations=[("P1", 2004, 0), ("P2", 2004, 0)],
        authorship=[("P1", "R1"), ("P2", "R2")],
        researchers=[("R1", "U1", "S1"), ("R2", "U2", "S1")],
        fields=[("S1", "UA")],
    )
    out = tmp_path / "out"
    assert run("rankings", root, "--out", out, "--obs-year", "2004") == 0
    rows = read_csv(out / "rankings.csv")
    assert {r["score"] for r in rows} == {"0.000000"}
    assert {r["rank"] for r in rows} == {"1"}  # full tie


def test_npc_outputs_and_percentile_validation(tmp_path, capsys):
    root = generate(stability_config(), tmp_path / "corpus", seed=5)
    out = tmp_path / "npc"
    assert run("npc", root, "--out", out, "--permutations", "999", "--seed", "7") == 0
    rows = read_csv(out / "npc_results.csv")
    assert rows[-1]["uda_id"] == "COMBINED"
    uda_rows = rows[:-1]
    assert {r["uda_id"] for r in uda_rows} == {"DISC_A", "DISC_B"}
    for r in rows:
        assert 0.0 < float(r["p_value"]) <= 1.0
        assert r["direction"] in ("<", ">", "=")

    assert run("npc", root, "--out", tmp_path / "npc2", "--top-percentile", "100") == 2
    assert "percentile" in capsys.readouterr().err


def test_npc_smallest_attainable_p_prints_non_zero():
    b = 1_000_000
    smallest = 1 / (b + 1)
    partials = tuple(
        PermTestResult(uda, -1.5, smallest, "<", b, 42, exhaustive=False) for uda in ("UA", "UB")
    )
    result = NpcCombinedResult(partials, 30.0, smallest, "<", b, 42)
    header, *rows = _npc_rows(result, 42)
    assert header[2:4] == ["p_value", "p_mc_se"]
    for row in rows:
        assert 0.0 < float(row[2]) == pytest.approx(smallest, rel=1e-5)
        assert float(row[3]) == pytest.approx(math.sqrt(smallest * (1 - smallest) / b), rel=1e-5)


def test_npc_byte_identical_across_runs_and_workers(tmp_path):
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert run(
            "npc", root, "--out", out, "--permutations", "2000",
            "--seed", "42", "--workers", workers,
        ) == 0
        outs.append((out / "npc_results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


# sha256 of npc_results.csv as the per-discipline sampler wrote it, before
# groups with the same members shared one argsort and threads split rows
FROZEN_NPC_RESULTS_SHA256 = "cd07644833dbe9c304cf056daadfb84ecfd8a88c4da70156cdbcdc791afa49a2"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_npc_results_bytes_frozen(tmp_path, workers):
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    out = tmp_path / "npc"
    assert run(
        "npc", root, "--out", out, "--permutations", "5000",
        "--seed", "42", "--workers", workers,
    ) == 0
    digest = hashlib.sha256((out / "npc_results.csv").read_bytes()).hexdigest()
    assert digest == FROZEN_NPC_RESULTS_SHA256


def _digests(out_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


# sha256 of every file each command writes, manifest.json included, on the
# stability corpus at seed 6 given by the relative path "corpus"; recorded
# before the table writers were folded into one run writer, and the
# mean-baseline sensitivity run before the battery was grouped by scope size
FROZEN_RUN_SHA256 = {
    ("rankings",): {
        "manifest.json": "8f792143f625b5478a9990fcedd1da5b565d1196b30e9915c0367242924543dc",
        "medians.csv": "9b6f6b63e26f7fd32104bf7064cd6fd59f763e8a9586ee82561e1fbf041fc179",
        "rankings.csv": "931f6ae1898a11a728f9e1ed0dc50d4850c2ed4cfd68840b8cac4b6f9a85175d",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
    ("rankings", "--level", "sds", "--baseline", "mean"): {
        "manifest.json": "5b1c1813293701c55c62213b05361d934aed1c1617b2c3f237d71fa4379b29c5",
        "medians.csv": "9b6f6b63e26f7fd32104bf7064cd6fd59f763e8a9586ee82561e1fbf041fc179",
        "rankings.csv": "ed7c6d342e4513acdfd9449b80cb923aebd41a85017dc6393c9fc648339edee0",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
    ("sensitivity",): {
        "manifest.json": "0f57169f1a0fbc0207f51ab9cfc7d78f09003a370603cfc1386ee3e236a6dbef",
        "medians.csv": "a990cad812a091cb85bc6523c2174acd75020c7d1e56aeaed27edeac9ae97ced",
        "quartile_stats.csv": "ccd641e167122b20ce3825155e6528f5b41e1af459d735a096c6f03c314ece7c",
        "rank_ranges.csv": "417b753f762c642bbd6268721cce052512ceb9347b9bdb2b57dd82587a275f25",
        "rankings.csv": "4c01ff7c7e386efca867876ae9c71ad69e48f51227b7e37f369ef77f317ae94d",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
        "shift_descriptives.csv": "fdc8b7fccade1b20ff0f8a2433fa582bf9e5e7509d68d7b0bb7b25f1fdb58991",
        "small_shift_pcts.csv": "dc168d682d01bf24f7aa9a2506c8f9f075e0838928f8ad0bd6c1dd886749565d",
        "spearman.csv": "ee520e7c6f0460c93c929f21d3b31862801f161fba740693e3eed67d66452cd1",
        "stability_summary.csv": "0559d927441c368b1b192ff4a51f82f8a548fab3fbf86d0a81d10656cd6d17c8",
    },
    ("sensitivity", "--baseline", "mean"): {
        "manifest.json": "85b332bad3af6d151dea5b9c63123077a06c083f688ed9407d93bfbe80909f36",
        "medians.csv": "a990cad812a091cb85bc6523c2174acd75020c7d1e56aeaed27edeac9ae97ced",
        "quartile_stats.csv": "ccd641e167122b20ce3825155e6528f5b41e1af459d735a096c6f03c314ece7c",
        "rank_ranges.csv": "e9e3846f471caaaa847f5320a75c41542e8d154dba0f035bd119f0d0a6ec5891",
        "rankings.csv": "c67b9dba682e38f5463c6db9039a55f8176b3b68b431dbc4c469e762e17c52f0",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
        "shift_descriptives.csv": "972a73c91a826b5455e15915145dbf7b3422a635b7faf1216d3f995976bf5e98",
        "small_shift_pcts.csv": "ddd89ea1acbf3ffea2894c8c63f768acb0fc44d3876e5e69fe40a4fcd881a5a4",
        "spearman.csv": "2b76da939c36fea6035e5c1319dcb76b257f11d8a8485c443966485b0dd274ec",
        "stability_summary.csv": "d236a0729aa5e489cfa1198e9f582cd6eabec6b40fd323230e6d800e3b96a194",
    },
    ("npc", "--permutations", "2000"): {
        "manifest.json": "8563adcb1d21480c5fac29f5f92e1cc3bb7841a630bb571d5ffb1c26e3ed10dd",
        "npc_results.csv": "f4fb0f0dd3bea1b1d42bbe2a5a5989d5e914f698faf851b540183c47fd736471",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
}


@pytest.mark.parametrize("argv", list(FROZEN_RUN_SHA256), ids=lambda argv: "_".join(argv).replace("-", ""))
def test_run_bytes_frozen(tmp_path, monkeypatch, argv):
    # a relative input path keeps manifest.json's input_dir independent of tmp_path
    monkeypatch.chdir(tmp_path)
    generate(stability_config(), "corpus", seed=6)
    assert run(argv[0], "corpus", "--out", "out", *argv[1:]) == 0
    assert _digests(tmp_path / "out") == FROZEN_RUN_SHA256[argv]


def test_sensitivity_workers_flag_is_accepted_and_ignored(tmp_path):
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    assert run("sensitivity", root, "--out", tmp_path / "plain") == 0
    assert run("sensitivity", root, "--out", tmp_path / "w2", "--workers", "2") == 0
    assert _digests(tmp_path / "plain") == _digests(tmp_path / "w2")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sensitivity", "--workers", "0"),
        ("npc", "--workers", "0"),
        ("npc", "--workers", "-2"),
        ("npc", "--permutations", "0"),
    ],
)
def test_count_below_one_is_usage_error_before_any_work(
    golden_corpus_dir, tmp_path, capsys, command, flag, value
):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(command, golden_corpus_dir, "--out", out, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: expected a positive integer, got '{value}'" in err
    assert not out.exists()


def test_baseline_rule_switch_changes_scores(tmp_path):
    root = generate(stability_config(), tmp_path / "corpus", seed=12)
    out_a, out_m = tmp_path / "agg", tmp_path / "mean"
    assert run("rankings", root, "--out", out_a, "--baseline", "aggregate") == 0
    assert run("rankings", root, "--out", out_m, "--baseline", "mean") == 0
    scores_a = {(r["scope_id"], r["university_id"]): r["score"] for r in read_csv(out_a / "rankings.csv")}
    scores_m = {(r["scope_id"], r["university_id"]): r["score"] for r in read_csv(out_m / "rankings.csv")}
    assert scores_a.keys() == scores_m.keys()
    assert scores_a != scores_m
    manifest = json.loads((out_m / "manifest.json").read_text())
    assert manifest["parameters"]["baseline"] == "mean"


def test_synth_command_and_validate_round_trip(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "n_universities": 4,
                "staff_range": [2, 3],
                "udas": {"UA": ["S1"], "UB": ["S2"]},
                "pub_period": [2001, 2003],
                "observation_years": [2004, 2005],
                "pub_rate": 1.0,
                "profiles": {"default": [0.5, 1.0]},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "corpus"
    assert run("synth", "--config", config_path, "--seed", "3", "--out", out) == 0
    capsys.readouterr()
    assert run("validate", out) == 0


def test_synth_missing_config_is_usage_error(tmp_path, capsys):
    assert run("synth", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("override", [
    {"udas": ["A"]},
    {"profiles": [1]},
    {"n_universities": 1e400},
    {"sds_profiles": {"S1": ["x"]}},
], ids=["udas_list", "profiles_list", "n_universities_inf", "profile_name_list"])
def test_synth_wrongly_typed_config_is_usage_error(tmp_path, capsys, override):
    config = {"n_universities": 4, "staff_range": [2, 3], "udas": {"UA": ["S1"]},
              "pub_period": [2001, 2003], "observation_years": [2004, 2005], "pub_rate": 1.0,
              "profiles": {"default": [0.5, 1.0]}, **override}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run("synth", "--config", path, "--out", tmp_path / "corpus") == 2
    assert capsys.readouterr().err.startswith("error: bad synthetic-corpus config")
