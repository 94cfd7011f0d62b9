"""Command-line behavior: exit codes, output tables, manifests, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math

import pytest

import citewin.cli as cli_mod
from citewin import ingest, npc
from citewin.cli import _npc_rows, build_parser, main
from citewin.npc import NpcCombinedResult, PermTestResult

from conftest import (
    GOLDEN_TOTAL_P,
    GOLDEN_UNIVERSITY,
    build_golden_corpus_dir,
    stability_config,
    write_corpus_dir,
)
from citewin.synth import SynthConfig, generate


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
    out, err = capsys.readouterr()
    assert out == "OK: 2 publications, 2 researchers, 2 authorship links, 1 SDSs in 1 UDAs\n"
    assert err == ""


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
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {root / 'citations.csv'}:3: ") and "Traceback" not in err
    assert out == ""


def test_validate_missing_dir_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("validate", empty) == 2
    assert "missing" in capsys.readouterr().err.lower()


def test_validate_reports_an_absent_directory_like_every_command(tmp_path, capsys):
    absent = tmp_path / "absent"
    assert run("validate", absent) == 2
    out, err = capsys.readouterr()
    assert err == f"error: corpus directory not found: {absent}\n"
    assert out == ""


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


RANGE_ERRORS = [
    ("--threshold", "1.5", "threshold must be in [0, 1], got 1.5"),
    ("--threshold", "-0.1", "threshold must be in [0, 1], got -0.1"),
    ("--period", "2003-2001", "empty publication period (2003, 2001)"),
]
PERCENTILE_ERRORS = [
    ("--top-percentile", "100", "percentile must be in (0, 100), got 100.0"),
    ("--top-percentile", "0", "percentile must be in (0, 100), got 0.0"),
]


@pytest.mark.parametrize("command, flag, value, message", [
    (command, *error) for command in ("rankings", "sensitivity", "npc") for error in RANGE_ERRORS
] + [("npc", *error) for error in PERCENTILE_ERRORS])
def test_out_of_range_value_is_rejected_before_the_corpus_is_read(
    golden_corpus_dir, tmp_path, capsys, monkeypatch, command, flag, value, message
):
    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_reading)
    out = tmp_path / "out"
    assert run(command, golden_corpus_dir, "--out", out, flag, value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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


@pytest.mark.parametrize("permutations", ["1", "10000"])
def test_npc_combined_statistic_of_p_one_prints_unsigned_zero(tmp_path, permutations):
    config = dataclasses.replace(stability_config(), n_universities=4, staff_range=(2, 3),
                                 udas={"DA": ("S1", "S2"), "DB": ("S3", "S4")})
    root = generate(config, tmp_path / "corpus", seed=1)
    out = tmp_path / "npc"
    assert run("npc", root, "--out", out, "--permutations", permutations) == 0
    rows = read_csv(out / "npc_results.csv")
    assert {r["p_value"] for r in rows} == {"1"}  # every partial p is 1: the Fisher sum is 0
    assert rows[-1]["uda_id"] == "COMBINED" and rows[-1]["observed_stat"] == "0.000000"


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
# mean-baseline sensitivity run before the battery was grouped by scope size;
# the manifest.json digests since the manifest gained its findings
FROZEN_RUN_SHA256 = {
    ("rankings",): {
        "manifest.json": "20d8c01fe66349c515b1aa3b99a36210195108a630dbedd6fffcc9011e03ad4c",
        "medians.csv": "9b6f6b63e26f7fd32104bf7064cd6fd59f763e8a9586ee82561e1fbf041fc179",
        "rankings.csv": "931f6ae1898a11a728f9e1ed0dc50d4850c2ed4cfd68840b8cac4b6f9a85175d",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
    ("rankings", "--level", "sds", "--baseline", "mean"): {
        "manifest.json": "57866d077418639efc6ebf30666ce2a6c82f2ef7c9efd93d56c80fe171de9e0d",
        "medians.csv": "9b6f6b63e26f7fd32104bf7064cd6fd59f763e8a9586ee82561e1fbf041fc179",
        "rankings.csv": "ed7c6d342e4513acdfd9449b80cb923aebd41a85017dc6393c9fc648339edee0",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
    ("sensitivity",): {
        "manifest.json": "8937e9a3b76ca9c47cec98d38e9a9e7f4f4a2c2025340c6435fe1a83e318481a",
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
        "manifest.json": "7f687fe9d4b5bed52eefb154986a55bdd63d9c482a93ce1c3b2a5e6c44f42891",
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
        "manifest.json": "6292f50dd01fe0ade7be212e9d0581917678c0f7e88d7e7d33b1a5daefa4bcf8",
        "npc_results.csv": "f4fb0f0dd3bea1b1d42bbe2a5a5989d5e914f698faf851b540183c47fd736471",
        "representativity.csv": "2d3ba06d75f434350b025393dcf4a8e6f36d6a2ceb075d938d4b816b1c49387b",
    },
}


def _parse_forbidden(*_args, **_kwargs):
    raise AssertionError("a cached corpus was parsed again")


@pytest.mark.parametrize("argv, warm", [
    pytest.param(argv, warm, id="_".join(argv).replace("-", "") + ("_warm" if warm else ""))
    for argv in FROZEN_RUN_SHA256 for warm in (False, True)
])
def test_run_bytes_frozen(tmp_path, monkeypatch, argv, warm):
    """Cold: one run on a fresh corpus. Warm: a second run on the same corpus, which reads
    the column cache the first run left, writes the same pinned bytes."""
    # a relative input path keeps manifest.json's input_dir independent of tmp_path
    monkeypatch.chdir(tmp_path)
    generate(stability_config(), "corpus", seed=6)
    assert run(argv[0], "corpus", "--out", "out", *argv[1:]) == 0
    assert _digests(tmp_path / "out") == FROZEN_RUN_SHA256[argv]
    if warm:
        monkeypatch.setattr(ingest, "_checked", _parse_forbidden)
        assert run(argv[0], "corpus", "--out", "warm", *argv[1:]) == 0
        assert _digests(tmp_path / "warm") == FROZEN_RUN_SHA256[argv]


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
        ("npc", "--permutations", "1_000"),
        ("npc", "--workers", "+7"),
        ("sensitivity", "--workers", " 7"),
        ("npc", "--permutations", "\u0667"),  # ARABIC-INDIC DIGIT SEVEN
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


@pytest.mark.parametrize("command", ["npc", "synth"])
@pytest.mark.parametrize("value", ["-5", "1.5", "x", "1_000", "+7", " 7", "\u0667"])
def test_negative_seed_is_usage_error_before_any_work(
    golden_corpus_dir, tmp_path, capsys, monkeypatch, command, value
):
    def no_reading(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_reading)
    monkeypatch.setattr(SynthConfig, "from_file", no_reading)
    out = tmp_path / "out"
    args = [golden_corpus_dir] if command == "npc" else ["--config", tmp_path / "config.json"]
    with pytest.raises(SystemExit) as exc:
        run(command, *args, "--out", out, "--seed", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument --seed: expected a non-negative integer, got '{value}'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("sensitivity", "--years", "2004,2_008"),
    ("rankings", "--period", "2001- 2003"),
    ("rankings", "--period", "2001-2003-2005"),
    ("npc", "--benchmark", "2_008"),
    ("rankings", "--obs-year", "\u0662\u0660\u0660\u0668"),  # 2008 in Arabic-Indic digits
])
def test_integer_outside_the_corpus_grammar_is_usage_error_before_any_work(
    golden_corpus_dir, tmp_path, capsys, monkeypatch, command, flag, value
):
    def no_reading(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_reading)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(command, golden_corpus_dir, "--out", out, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: expected " in err and f"got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("rankings", "--threshold", "0.0_5"),
    ("rankings", "--threshold", " 0.5"),
    ("sensitivity", "--threshold", "+0.5"),
    ("rankings", "--threshold", "\u0660.\u0665"),  # 0.5 in Arabic-Indic digits
    ("npc", "--top-percentile", "8_0"),
    ("npc", "--top-percentile", "inf"),
] + [(command, "--threshold", "nan") for command in ("rankings", "sensitivity", "npc")])
def test_float_outside_the_grammar_is_usage_error_before_any_work(
    golden_corpus_dir, tmp_path, capsys, monkeypatch, command, flag, value
):
    def no_reading(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_reading)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(command, golden_corpus_dir, "--out", out, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: expected a decimal number, got {value!r}" in err
    assert not out.exists()


def test_integer_flags_read_the_benchmark_argv_forms():
    args = build_parser().parse_args([
        "npc", "corpus", "--out", "out", "--seed", "0", "--permutations", "1000000",
        "--workers", "2", "--years", "2004,2005,2006,2007,2008", "--benchmark", "2008",
        "--period", "2001-2003",
    ])
    assert (args.seed, args.n_perm, args.workers, args.benchmark_year) == (0, 1_000_000, 2, 2008)
    assert args.years == (2004, 2005, 2006, 2007, 2008) and args.pub_period == (2001, 2003)
    args = build_parser().parse_args(["rankings", "corpus", "--out", "out", "--obs-year", "2006"])
    assert args.obs_year == 2006


def test_no_flag_parses_with_int_and_every_help_exits_0(capsys):
    """A type=int or type=float flag would accept int()'s or float()'s grammar: '1_000', '+7',
    ' 7', non-ASCII digits, 'nan'."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"validate", "rankings", "sensitivity", "npc", "synth"}
    for name, sub in commands.choices.items():
        assert [a.dest for a in [*parser._actions, *sub._actions] if a.type in (int, float)] == [], name
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: citewin {name}")


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


OUTPUT_ARGS = {
    "rankings": (),
    "sensitivity": (),
    "npc": ("--permutations", "200"),
    "synth": ("--seed", "3"),
}


@pytest.mark.parametrize("under_file", [False, True], ids=["out_is_file", "out_under_file"])
@pytest.mark.parametrize("command", list(OUTPUT_ARGS))
def test_out_path_blocked_by_a_file_is_usage_error_without_traceback(
    tmp_path, capsys, command, under_file
):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "out" if under_file else blocker
    if command == "synth":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_universities": 2, "staff_range": [1, 2], "udas": {"UA": ["S1"]},
            "pub_period": [2001, 2003], "observation_years": [2004, 2005], "pub_rate": 1.0,
            "profiles": {"default": [0.5, 1.0]},
        }), encoding="utf-8")
        argv = ["synth", "--config", config]
    else:
        argv = [command, generate(stability_config(), tmp_path / "corpus", seed=6)]
    assert run(*argv, "--out", out, *OUTPUT_ARGS[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("under_file", [False, True], ids=["out_is_file", "out_under_file"])
@pytest.mark.parametrize("command", ["rankings", "sensitivity", "npc"])
def test_blocked_out_path_fails_before_the_corpus_is_read(
    tmp_path, capsys, monkeypatch, command, under_file
):
    def no_reading(*_args, **_kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_reading)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "out" if under_file else blocker
    before = sorted(tmp_path.iterdir())
    assert run(command, tmp_path / "corpus", "--out", out, *OUTPUT_ARGS[command]) == 2
    # the message mkdir would give, with nothing created
    expected = (f"[Errno 20] Not a directory: '{out}'" if under_file
                else f"[Errno 17] File exists: '{out}'")
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_out_of_memory_is_an_error_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(npc, "npc_fisher_combine", exhausted)
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    out = tmp_path / "npc"
    assert run("npc", root, "--out", out, "--permutations", "1000000000000") == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_npc_on_a_single_uda_is_an_error_without_traceback(tmp_path, capsys):
    config = dataclasses.replace(stability_config(), udas={"DISC_A": ("SA1", "SA2", "SA3")})
    root = generate(config, tmp_path / "corpus", seed=6)
    out = tmp_path / "npc"
    assert run("npc", root, "--out", out, "--permutations", "100") == 1
    err = capsys.readouterr().err
    assert err == "error: nonparametric combination needs >= 2 disciplines, got 1\n"
    assert not out.exists()


def findings_corpus_dir(root, ordinary=("UA",)):
    """The ordinary UDAs (UA, UD: five universities, distinct scores), UB, whose only SDS
    SUB is never cited and which three universities staff, and UC, which only U1 staffs.
    Each UDA has one SDS and one category; each researcher publishes one paper in 2002,
    cited growth * t * (t + u) times at year 2003 + t."""
    growth = {"UA": (5, 4, 3, 2, 1), "UB": (0, 0, 0), "UC": (2,), "UD": (4, 3, 2, 1, 5)}
    udas = sorted({*ordinary, "UB", "UC"})
    pubs, citations, authorship, researchers = [], [], [], []
    for uda in udas:
        for u, g in enumerate(growth[uda], 1):
            pub, res = f"P{uda}{u}", f"R{uda}{u}"
            pubs.append((pub, 2002, f"K{uda}"))
            citations += [(pub, 2003 + t, g * t * (t + u)) for t in range(1, 6)]
            authorship.append((pub, res))
            researchers.append((res, f"U{u}", f"S{uda}"))
    return write_corpus_dir(root, pubs, citations, authorship, researchers,
                            [(f"S{uda}", uda) for uda in udas])


def test_manifest_records_what_a_run_drops_or_flags(tmp_path, capsys):
    """SUB's zero baseline, the scopes too small for quartiles and the UDAs npc leaves out
    are findings in manifest.json, null where a command does not compute them; nothing
    goes to stderr."""
    root = findings_corpus_dir(tmp_path / "corpus")
    npc_root = findings_corpus_dir(tmp_path / "npc_corpus", ordinary=("UA", "UD"))
    runs = {"rankings": (root,), "sensitivity": (root,),
            "npc": (npc_root, "--permutations", "100")}
    zero = [["SUB", y] for y in range(2004, 2009)]
    expected = {
        "rankings": {"degenerate_baselines": [["SUB", 2008]], "scopes_without_quartiles": None,
                     "npc_excluded_udas": None},
        "sensitivity": {"degenerate_baselines": zero, "npc_excluded_udas": None,
                        "scopes_without_quartiles": [["uda", "UB"], ["uda", "UC"],
                                                     ["sds", "SUB"], ["sds", "SUC"]]},
        "npc": {"degenerate_baselines": zero, "scopes_without_quartiles": None,
                "npc_excluded_udas": [
                    ["UB", "degenerate partition at percentile 80.0: 0 top vs 3 rest"],
                    ["UC", "need at least two universities to partition"]]},
    }
    for command, (corpus, *flags) in runs.items():
        out = tmp_path / command
        assert run(command, corpus, "--out", out, *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["findings"]) == sorted(cli_mod.MANIFEST_FINDINGS)
        assert manifest["findings"] == expected[command], command
        assert capsys.readouterr().err == ""
    assert [r["uda_id"] for r in read_csv(tmp_path / "npc" / "npc_results.csv")] == [
        "UA", "UD", "COMBINED"]


def test_npc_error_names_the_udas_it_leaves_out(tmp_path, capsys):
    out = tmp_path / "npc"
    assert run("npc", findings_corpus_dir(tmp_path / "corpus"), "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: nonparametric combination needs >= 2 disciplines, got 1"
        "; UB excluded: degenerate partition at percentile 80.0: 0 top vs 3 rest"
        "; UC excluded: need at least two universities to partition\n")
    assert not out.exists()


def test_synth_missing_config_is_usage_error(tmp_path, capsys):
    assert run("synth", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("override", [
    {"udas": ["A"]},
    {"profiles": [1]},
    {"n_universities": 1e400},
    {"sds_profiles": {"S1": ["x"]}},
    {"udas": {"UA": "S1"}},
    {"profiles": {"default": "12"}},
    {"staff_range": "35"},
    {"n_universities": 4.9, "staff_range": [2.7, 3.9], "pub_period": [2001.5, 2003],
     "observation_years": [2004.9], "seed": True},
    {"n_universities": 4.0},
    {"seed": True},
    {"pub_rate": math.nan},
    {"quality_sigma": math.nan},
    {"coauthor_rate": math.nan},
    {"profiles": {"default": [math.inf]}},
    {"multi_category_rate": -math.inf},
    {"n_universities": 2, "pub_rate": 1e300},
    {"n_universities": 2, "profiles": {"default": [1e300]}},
    {"coauthor_rte": 0.9},
    {"staff_range": [2, 3, 4]},
    {"pub_period": [2001, 2002, 2003]},
    {"sds_profiles": {"S9": "default"}},
    {"pub_rate": "1.5"},
    {"coauthor_rate": True},
    {"profiles": {"default": ["0.5", 1.0]}},
], ids=["udas_list", "profiles_list", "n_universities_inf", "profile_name_list",
        "sds_string", "profile_string", "staff_range_string", "floats_and_bool_for_ints",
        "float_n_universities", "bool_seed", "nan_pub_rate", "nan_quality_sigma",
        "nan_coauthor_rate", "infinite_profile_rate", "minus_infinite_multi_category_rate",
        "pub_rate_too_large_to_draw", "profile_rate_too_large_to_draw", "unknown_key",
        "three_entry_staff_range", "three_entry_pub_period", "profile_of_an_unlisted_sds",
        "string_pub_rate", "bool_coauthor_rate", "string_profile_rate"])
def test_synth_wrongly_typed_config_is_usage_error(tmp_path, capsys, override):
    config = {"n_universities": 4, "staff_range": [2, 3], "udas": {"UA": ["S1"]},
              "pub_period": [2001, 2003], "observation_years": [2004, 2005], "pub_rate": 1.0,
              "profiles": {"default": [0.5, 1.0]}, **override}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run("synth", "--config", path, "--out", tmp_path / "corpus") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad synthetic-corpus config")
    assert not (tmp_path / "corpus").exists()
    field, value = next(iter(override.items()))
    if field in ("pub_rate", "quality_sigma", "coauthor_rate", "multi_category_rate") and isinstance(
            value, float):
        assert f"{field} must be a finite number, got {value}" in err
    if value == {"default": [math.inf]}:
        assert "profile 'default' must be a finite number, got inf" in err
    if field in ("coauthor_rte", "staff_range", "pub_period", "sds_profiles", "pub_rate",
                 "coauthor_rate"):
        assert field in err
    if value == {"default": ["0.5", 1.0]}:
        assert "profiles: expected a number, got '0.5'" in err


@pytest.mark.parametrize("override, field", [
    ({"udas": {"UA": ["A,2"]}}, "udas"),
    ({"udas": {"U A": ["S1"]}}, "udas"),
    ({"udas": {"UA": ["S1"], "UB": ["S2", "S1"]}}, "udas"),
    ({"observation_years": [2004, 2005, 2004]}, "observation_years"),
], ids=["sds_name_outside_id_grammar", "uda_name_outside_id_grammar", "sds_under_two_udas",
        "repeated_observation_year"])
def test_synth_config_of_a_corpus_citewin_rejects_is_usage_error(tmp_path, capsys, override,
                                                                 field):
    config = {"n_universities": 4, "staff_range": [2, 3], "udas": {"UA": ["S1"]},
              "pub_period": [2001, 2003], "observation_years": [2004, 2005], "pub_rate": 1.0,
              "profiles": {"default": [0.5, 1.0]}, **override}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run("synth", "--config", path, "--out", tmp_path / "corpus") == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "corpus").exists()
