#!/usr/bin/env python3
"""Outside-in benchmark for citewin.

Run from the repository root:

    python3 perfbench/run.py --workload national --seed 1 --seconds 40 --trace 0

``--trace 0`` times every command as a fresh ``python -m citewin.cli``
process, as users run it, and prints the end-to-end metrics: the median
wall clock per command, the set-up (``citewin synth``) time, the highest
peak RSS and the share of invocations whose outputs pass the check.
``--trace 1`` runs the same commands in this process, first untraced and
then once under the tracer, and prints the per-layer metrics.

Inputs are made from ``--seed``: the workload's committed synth config is
generated with that seed into a scratch directory, and the NPC permutation
seed is the same number. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
YEARS = (2004, 2005, 2006, 2007, 2008)
BENCHMARK_YEAR = 2008
SINGLE_YEAR = 2004
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
CORPUS_FILES = ("fields.csv", "researchers.csv", "publications.csv", "citations.csv", "authorship.csv")
SRC_MODULES = (
    "__init__", "cli", "corpus", "errors", "impact", "ingest", "npc", "productivity", "sensitivity", "synth",
)


@dataclass(frozen=True)
class Workload:
    why: str
    config: str  # file under perfbench/configs
    universities: int | None  # replaces the config's n_universities when set
    sensitivity_workers: int
    npc_permutations: int
    npc_workers: int


WORKLOADS = {
    "national": Workload(
        why="national config (9 UDAs x 10 SDSs) at 12 universities: per-SDS cell scans dominate "
        "sensitivity_s; ingest dominates validate, reject and single-year rankings",
        config="national.json",
        universities=12,
        sensitivity_workers=1,
        npc_permutations=10_000,
        npc_workers=1,
    ),
    "mid-npc": Workload(
        why="mid config (4 UDAs x 4-6 SDSs) at 30 universities: 1M-permutation NPC on 2 threads "
        "dominates npc_s; sensitivity runs the 2-thread analysis pool",
        config="mid.json",
        universities=30,
        sensitivity_workers=2,
        npc_permutations=1_000_000,
        npc_workers=2,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "validate_s": "s",
    "reject_s": "s",
    "rankings_s": "s",
    "sensitivity_s": "s",
    "npc_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "ingest.load_corpus.self_s": "s",
    "ingest.mb_per_s": "MB/s",
    "ingest.rows": "count",
    "ingest.representativity_filter_s": "s",
    "corpus.build_corpus_s": "s",
    "impact.compute_median_table_s": "s",
    "impact.compute_median_table.calls": "count",
    "impact.article_impact_index.calls": "count",
    "productivity.compute_cells_s": "s",
    "productivity.scientific_strength.calls": "count",
    "productivity.compute_baselines_s": "s",
    "productivity.sds_scores_s": "s",
    "productivity.uda_scores_s": "s",
    "productivity.sds_scores.scan_ratio": "ratio",
    "productivity.uda_scores.scan_ratio": "ratio",
    "sensitivity.rank_universities_s": "s",
    "sensitivity.rank_universities.calls": "count",
    "sensitivity.stability_summary_s": "s",
    "sensitivity.battery_s": "s",
    "npc.npc_fisher_combine_s": "s",
    "npc.perm_groups_per_s": "1/s",
    "npc.groups": "count",
    "cli.run_analysis.self_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "synth.generate_s": "s",
    "synth.rows_written": "count",
    **{f"src.{m}.lines": "count" for m in SRC_MODULES},
    "src.total.lines": "count",
    "trace.overhead_s": "s",
}
BATTERY = ("rank_shifts", "spearman_rho", "quartile_classes", "shift_descriptives")


# ---------------------------------------------------------------------------
# inputs


def write_config(workload: Workload, path: Path) -> Path:
    config = json.loads((HERE / "configs" / workload.config).read_text(encoding="utf-8"))
    if workload.universities is not None:
        config["n_universities"] = workload.universities
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


def corpus_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for name in CORPUS_FILES:
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def inject_defect(corpus: Path, defect: Path) -> int:
    """Copy the corpus so that its last citations.csv row decreases the count.

    Rows are sorted by publication and year, so the row before the last is
    the same publication one observation year earlier; it is raised to one
    more than the last row's count. Only the last line then breaks the
    never-decreasing rule. Returns that line's 1-based number.
    """
    shutil.rmtree(defect, ignore_errors=True)
    defect.mkdir(parents=True)
    for name in CORPUS_FILES:
        if name != "citations.csv":
            shutil.copyfile(corpus / name, defect / name)
    lines = (corpus / "citations.csv").read_text(encoding="utf-8").splitlines()
    pid, _year, count = lines[-1].split(",")
    prev_pid, prev_year, _prev = lines[-2].split(",")
    if prev_pid != pid:
        raise RuntimeError("last two citation rows belong to different publications")
    lines[-2] = f"{prev_pid},{prev_year},{int(count) + 1}"
    (defect / "citations.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


@dataclass
class Command:
    metric: str
    argv: list[str]
    check: Callable[[int, str, str], list[str]]  # (exit code, stdout, stderr) -> problems
    out: Path | None = None


def synth_command(config: Path, seed: int, corpus: Path, digest: list[str]) -> Command:
    """``citewin synth``; every repeat must write the same bytes as the first."""

    def check_synth(code: int, _out: str, _err: str) -> list[str]:
        if code != 0:
            return [f"synth exit {code}, expected 0"]
        missing = [n for n in CORPUS_FILES if not (corpus / n).is_file()]
        if missing:
            return [f"synth did not write {missing}"]
        digest.append(corpus_digest(corpus))
        return [] if digest[-1] == digest[0] else ["synth output differs between repeats"]

    argv = ["synth", "--config", str(config), "--seed", str(seed), "--out", str(corpus)]
    return Command("setup_s", argv, check_synth, corpus)


def workload_commands(workload: Workload, seed: int, corpus: Path, defect: Path, defect_line: int,
                      out: Path, ref: check.Reference, npc_ref: check.NpcReference) -> list[Command]:
    years = ",".join(str(y) for y in YEARS)
    rankings, sensitivity, npc = out / "rankings", out / "sensitivity", out / "npc"
    return [
        Command("validate_s", ["validate", str(corpus)],
                lambda code, stdout, _err: check.check_validate(ref, code, stdout)),
        Command("reject_s", ["validate", str(defect)],
                lambda code, _out, stderr: check.check_reject(defect_line, code, stderr)),
        Command("rankings_s",
                ["rankings", str(corpus), "--out", str(rankings), "--obs-year", str(SINGLE_YEAR),
                 "--level", "sds"],
                lambda code, _o, _e: check.check_rankings(ref, code, rankings, "sds", SINGLE_YEAR),
                rankings),
        Command("sensitivity_s",
                ["sensitivity", str(corpus), "--out", str(sensitivity), "--years", years,
                 "--benchmark", str(BENCHMARK_YEAR), "--workers", str(workload.sensitivity_workers)],
                lambda code, _o, _e: check.check_sensitivity(ref, code, sensitivity),
                sensitivity),
        Command("npc_s",
                ["npc", str(corpus), "--out", str(npc), "--years", years,
                 "--benchmark", str(BENCHMARK_YEAR), "--permutations", str(workload.npc_permutations),
                 "--workers", str(workload.npc_workers), "--seed", str(seed)],
                lambda code, _o, _e: check.check_npc(npc_ref, code, npc, workload.npc_permutations),
                npc),
    ]


def prepare(command: Command) -> None:
    if command.out is not None:
        shutil.rmtree(command.out, ignore_errors=True)


class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, metric: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{metric}: {p}" for p in problems[:5])


def build_references(corpus: Path, seed: int) -> tuple[check.Reference, check.NpcReference]:
    ref = check.build_reference(check.read_corpus(corpus), YEARS)
    # an independent stream: the program's own npc stream is seeded with `seed`
    return ref, check.npc_reference(ref, BENCHMARK_YEAR, seed=[seed, 1])


# ---------------------------------------------------------------------------
# end-to-end run: fresh processes, tracing off


def run_process(argv: list[str], scratch: Path) -> tuple[int, str, str, float, float]:
    """(exit code, stdout, stderr, wall seconds, peak RSS in MB) of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "citewin.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
            wall, usage.ru_maxrss / 1024.0)


def end_to_end(name: str, seed: int, seconds: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    tally = Tally()
    samples: dict[str, list[float]] = {m: [] for m in END_TO_END if m.endswith("_s")}
    peak_rss = 0.0

    def invoke(command: Command) -> None:
        nonlocal peak_rss
        prepare(command)
        code, stdout, stderr, wall, rss = run_process(command.argv, work)
        samples[command.metric].append(wall)
        peak_rss = max(peak_rss, rss)
        tally.record(command.metric, command.check(code, stdout, stderr))

    config = write_config(workload, work / "config.json")
    corpus = work / "corpus"
    digests: list[str] = []
    for _ in range(SETUP_REPEATS):
        invoke(synth_command(config, seed, corpus, digests))
    if not digests:
        raise RuntimeError("citewin synth produced no corpus: " + "; ".join(tally.problems))
    ref, npc_ref = build_references(corpus, seed)
    defect_line = inject_defect(corpus, work / "defect")
    commands = workload_commands(workload, seed, corpus, work / "defect", defect_line, work / "out", ref, npc_ref)

    # whole rounds, interleaved, for as long as another round fits in the window
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for command in commands:
            invoke(command)
        if time.perf_counter() - start + (time.perf_counter() - round_start) > seconds:
            break

    metrics = {m: (statistics.median(v), END_TO_END[m], len(v)) for m, v in samples.items()}
    metrics["peak_rss_mb"] = (peak_rss, "MB", tally.attempted)
    metrics["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio", tally.attempted)
    return {"tally": tally, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run: the same commands in this process


def call_in_process(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, reported with its traceback
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def corpus_size(directory: Path) -> tuple[int, int]:
    """(bytes, data rows) of the five corpus files under directory."""
    contents = [(directory / n).read_bytes() for n in CORPUS_FILES]
    return sum(len(c) for c in contents), sum(c.count(b"\n") - 1 for c in contents)


def tracer_hooks() -> dict[str, tracing.Hook]:
    def load_corpus(tr, span, bound, _result):
        tr.records.setdefault("load_corpus", []).append((span.id, Path(bound.arguments["directory"])))

    def generate(tr, _span, _bound, result):
        tr.records.setdefault("generate", []).append(Path(result))

    def scan(name):
        def hook(tr, _span, bound, result):
            tr.add(f"{name}.scanned", len(bound.arguments["cells"]))
            tr.add(f"{name}.returned", len(result))
        return hook

    def npc_fisher_combine(tr, _span, bound, _result):
        groups = len(bound.arguments["groups"])
        tr.add("npc.groups", groups)
        tr.add("npc.perm_groups", groups * bound.arguments["n_perm"])

    return {
        "load_corpus": load_corpus,
        "generate": generate,
        "sds_scores": scan("sds_scores"),
        "uda_scores": scan("uda_scores"),
        "npc_fisher_combine": npc_fisher_combine,
    }


def layer_metrics(tr: tracing.Tracer, outputs: list[Path], overhead_s: float) -> dict:
    summary = tracing.summarize(tr)
    self_by_id = dict(zip((s.id for s in tr.spans), tracing.self_times(tr.spans)))

    def self_s(function: str) -> float:
        return summary.get(function, {}).get("self_s", 0.0)

    def calls(function: str) -> int:
        return summary.get(function, {}).get("calls", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    loads = tr.records.get("load_corpus", [])  # (span id, directory) of loads that returned
    generated = tr.records.get("generate", [])
    size = {d: corpus_size(d) for d in {d for _id, d in loads} | set(generated)}
    load_bytes = sum(size[d][0] for _id, d in loads)
    load_self = sum(self_by_id[i] for i, _d in loads)
    c = tr.counters
    src = ROOT / "src" / "citewin"
    lines = {m: len((src / f"{m}.py").read_text(encoding="utf-8").splitlines())
             if (src / f"{m}.py").is_file() else 0 for m in SRC_MODULES}
    values = {
        "ingest.load_corpus.self_s": self_s("load_corpus"),
        "ingest.mb_per_s": ratio(load_bytes / 1e6, load_self),
        "ingest.rows": sum(size[d][1] for _id, d in loads),
        "ingest.representativity_filter_s": self_s("representativity_filter"),
        "corpus.build_corpus_s": self_s("build_corpus"),
        "impact.compute_median_table_s": self_s("compute_median_table"),
        "impact.compute_median_table.calls": calls("compute_median_table"),
        "impact.article_impact_index.calls": calls("article_impact_index"),
        "productivity.compute_cells_s": self_s("compute_cells"),
        "productivity.scientific_strength.calls": calls("scientific_strength"),
        "productivity.compute_baselines_s": self_s("compute_baselines"),
        "productivity.sds_scores_s": self_s("sds_scores"),
        "productivity.uda_scores_s": self_s("uda_scores"),
        "productivity.sds_scores.scan_ratio": ratio(c.get("sds_scores.scanned", 0), c.get("sds_scores.returned", 0)),
        "productivity.uda_scores.scan_ratio": ratio(c.get("uda_scores.scanned", 0), c.get("uda_scores.returned", 0)),
        "sensitivity.rank_universities_s": self_s("rank_universities"),
        "sensitivity.rank_universities.calls": calls("rank_universities"),
        "sensitivity.stability_summary_s": self_s("stability_summary"),
        "sensitivity.battery_s": sum(self_s(f) for f in BATTERY),
        "npc.npc_fisher_combine_s": self_s("npc_fisher_combine"),
        "npc.perm_groups_per_s": ratio(c.get("npc.perm_groups", 0), self_s("npc_fisher_combine")),
        "npc.groups": c.get("npc.groups", 0),
        "cli.run_analysis.self_s": self_s("run_analysis"),
        "cli.write_s": sum(v.get("self_s", 0.0) for f, v in summary.items() if f.startswith("cmd_")),
        "cli.output_bytes": sum(p.stat().st_size for d in outputs if d.is_dir() for p in d.iterdir()),
        "synth.generate_s": self_s("generate"),
        "synth.rows_written": sum(size[d][1] for d in generated),
        **{f"src.{m}.lines": n for m, n in lines.items()},
        "src.total.lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")),
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], unit, 1) for name, unit in PER_LAYER.items()}


def traced_run(name: str, seed: int, seconds: int, work: Path) -> dict:
    workload = WORKLOADS[name]
    sys.path.insert(0, str(ROOT / "src"))
    import citewin.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported citewin from {cli.__file__}, not from {ROOT / 'src'}")
    tally = Tally()
    config = write_config(workload, work / "config.json")
    corpus, defect, out = work / "corpus", work / "defect", work / "out"
    digests: list[str] = []
    refs: list = []

    def one_pass() -> float:
        """Synth plus every workload command in process; returns their summed wall time."""
        synth = synth_command(config, seed, corpus, digests)
        prepare(synth)
        code, stdout, stderr, wall = call_in_process(cli, synth.argv)
        tally.record(synth.metric, synth.check(code, stdout, stderr))
        if not refs:
            refs.extend(build_references(corpus, seed))
        defect_line = inject_defect(corpus, defect)
        for command in workload_commands(workload, seed, corpus, defect, defect_line, out, *refs):
            prepare(command)
            code, stdout, stderr, elapsed = call_in_process(cli, command.argv)
            wall += elapsed
            tally.record(command.metric, command.check(code, stdout, stderr))
        return wall

    # untraced passes while a traced pass still fits in the window, then the traced pass
    start = time.perf_counter()
    untraced = []
    while not untraced or time.perf_counter() - start + 2 * untraced[-1] <= seconds:
        untraced.append(one_pass())
    tr = tracing.Tracer(hooks=tracer_hooks())
    with tracing.traced(tr):
        traced_wall = one_pass()
    tr.dump(WORK / "traces" / f"{name}-seed{seed}-{tr.run_id}.json")
    outputs = [out / "rankings", out / "sensitivity", out / "npc"]
    metrics = layer_metrics(tr, outputs, traced_wall - statistics.median(untraced))
    return {"tally": tally, "metrics": metrics}


# ---------------------------------------------------------------------------


def report(result: dict) -> None:
    tally: Tally = result["tally"]
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:<42} {value:>16.6f} {unit:<7} n={n}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "citewin" / "cli.py").is_file():
        print(f"error: no citewin sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else end_to_end
        report(run(args.workload, args.seed, args.seconds, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
