"""Command-line front end: validate, rankings, sensitivity, npc, synth.

Every analysis command writes its tables as CSV plus a manifest.json that
records the exact parameters, so a run can be reproduced bit-for-bit.
Exit codes: 0 success, 1 data/validation error, 2 usage or missing input.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import __version__
from .errors import AnalysisError, CitewinError, MissingInputError
from .ingest import _INT, _WEIGHT, BASELINE_RULES, check_filter_arguments, load_corpus

if TYPE_CHECKING:  # each command imports the modules it runs when it runs
    from .analysis import AnalysisRun
    from .npc import NpcCombinedResult

DEFAULT_PERIOD = (2001, 2003)
DEFAULT_YEARS = (2004, 2005, 2006, 2007, 2008)
DEFAULT_BENCHMARK = 2008
DEFAULT_THRESHOLD = 0.5
DEFAULT_BASELINE = "aggregate"
DEFAULT_TOP_PERCENTILE = 80.0
DEFAULT_PERMUTATIONS = 10_000
DEFAULT_SEED = 42


# manifest.json records each of these parameters, null where a command does not set it,
MANIFEST_PARAMETERS = ("pub_period", "observation_years", "threshold", "baseline",
                       "benchmark_year", "level", "top_percentile", "n_perm", "seed")
# and each of these findings, what a run drops or flags, null where it does not compute it
MANIFEST_FINDINGS = ("degenerate_baselines", "scopes_without_quartiles", "npc_excluded_udas")


# ---------------------------------------------------------------------------
# commands


def cmd_validate(directory: str) -> str:
    """Load and fully check a corpus directory; the counts of what it holds."""
    corpus = load_corpus(directory)
    return (f"OK: {len(corpus.pub_ids)} publications, {len(corpus.researcher_ids)} researchers, "
            f"{len(corpus.link_pub)} authorship links, "
            f"{len(corpus.sds_ids)} SDSs in {len(corpus.uda_ids)} UDAs")


def cmd_rankings(
    directory: str,
    out_dir: str,
    pub_period: tuple[int, int] = DEFAULT_PERIOD,
    obs_year: int = DEFAULT_BENCHMARK,
    level: str = "uda",
    threshold: float = DEFAULT_THRESHOLD,
    baseline: str = DEFAULT_BASELINE,
) -> Path:
    """Write rankings.csv for one observation year at one level."""
    from .analysis import run_analysis
    check_filter_arguments(pub_period, threshold)
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, [obs_year], threshold, baseline)
    return _write_run(
        out_dir, "rankings", directory, _analysis_tables(run, level), pub_period=pub_period,
        observation_years=[obs_year], threshold=threshold, baseline=baseline, level=level,
        degenerate_baselines=run.degenerate,
    )


def cmd_sensitivity(
    directory: str,
    out_dir: str,
    pub_period: tuple[int, int] = DEFAULT_PERIOD,
    years: Sequence[int] = DEFAULT_YEARS,
    benchmark_year: int = DEFAULT_BENCHMARK,
    threshold: float = DEFAULT_THRESHOLD,
    baseline: str = DEFAULT_BASELINE,
) -> Path:
    """Write the full rank-stability battery against the benchmark year."""
    from .analysis import run_analysis
    from .sensitivity import QUARTILE_MIN, battery_tables
    years = _check_years(years, benchmark_year)
    check_filter_arguments(pub_period, threshold)
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, years, threshold, baseline)
    levels = [run.levels["uda"], run.levels["sds"]]
    tables = {**battery_tables(levels, benchmark_year), **_analysis_tables(run, "uda", "sds")}
    return _write_run(
        out_dir, "sensitivity", directory, tables, pub_period=pub_period,
        observation_years=years, threshold=threshold, baseline=baseline,
        benchmark_year=benchmark_year, degenerate_baselines=run.degenerate,
        scopes_without_quartiles=[[ranks.level, scope] for ranks in levels for scope, n in zip(
            ranks.scope_ids, (ranks.bounds[1:] - ranks.bounds[:-1]).tolist()) if n < QUARTILE_MIN],
    )


def cmd_npc(
    directory: str,
    out_dir: str,
    pub_period: tuple[int, int] = DEFAULT_PERIOD,
    years: Sequence[int] = DEFAULT_YEARS,
    benchmark_year: int = DEFAULT_BENCHMARK,
    threshold: float = DEFAULT_THRESHOLD,
    baseline: str = DEFAULT_BASELINE,
    top_percentile: float = DEFAULT_TOP_PERCENTILE,
    n_perm: int = DEFAULT_PERMUTATIONS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> Path:
    """Top-vs-rest permutation test per UDA plus the Fisher combination; the manifest
    records each UDA that top_partition leaves out of the combination, with the reason."""
    from .analysis import run_analysis
    from .npc import (UdaGroups, check_percentile, max_rank_shifts, npc_fisher_combine,
                      top_partition)
    years = _check_years(years, benchmark_year)
    check_filter_arguments(pub_period, threshold)
    check_percentile(top_percentile)
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, years, threshold, baseline)

    uda = run.levels["uda"]
    bench = uda.years.index(benchmark_year)
    scores = uda.by_scope(uda.scores[:, bench])
    groups, excluded = [], []
    for scope, moves in uda.by_scope(max_rank_shifts(uda.ranks, bench).astype(float)).items():
        try:
            top, _rest = top_partition(scores[scope], top_percentile)
        except AnalysisError as exc:
            excluded.append([scope, str(exc)])
            continue
        groups.append(UdaGroups(uda_id=scope, values=moves, top=top))
    result = npc_fisher_combine(groups, n_perm, seed, workers, excluded)
    tables = {"npc_results.csv": _npc_rows(result, seed),
              "representativity.csv": run.report.csv_rows()}
    return _write_run(
        out_dir, "npc", directory, tables, pub_period=pub_period, observation_years=years,
        threshold=threshold, baseline=baseline, benchmark_year=benchmark_year,
        top_percentile=top_percentile, n_perm=n_perm, seed=seed,
        degenerate_baselines=run.degenerate, npc_excluded_udas=excluded,
    )


def cmd_synth(config_path: str, out_dir: str, seed: int | None = None) -> Path:
    from .synth import SynthConfig, generate
    config = SynthConfig.from_file(config_path)
    return generate(config, out_dir, seed=seed)


def _check_years(years: Sequence[int], benchmark_year: int) -> list[int]:
    """The distinct years in order; the benchmark and one more must be among them."""
    years = sorted(set(years))
    if benchmark_year not in years:
        raise AnalysisError(f"benchmark year {benchmark_year} not among years {years}")
    if len(years) < 2:
        raise AnalysisError("comparing rankings across years needs at least two observation years")
    return years


def _check_out_dir(out_dir: str) -> None:
    """Raise, creating nothing, the OSError that making out_dir and writing into it would."""
    out = path = Path(out_dir)
    while not path.exists() and path != path.parent:  # to its nearest existing path
        path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
        code = errno.EACCES if path.is_dir() else errno.EEXIST if path == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out_dir))


# ---------------------------------------------------------------------------
# output tables


def _write_run(
    out_dir: str | Path,
    command: str,
    directory: str,
    tables: Mapping[str, Sequence[Sequence[str]]],
    **recorded: object,
) -> Path:
    """Write each named table as a CSV file under out_dir, then manifest.json."""
    import json
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        (out / name).write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    manifest = {
        "command": command,
        "tool_version": __version__,
        "input_dir": str(directory),
        "parameters": {name: recorded.get(name) for name in MANIFEST_PARAMETERS},
        "findings": {name: recorded.get(name) for name in MANIFEST_FINDINGS},
        "outputs": sorted(tables),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _analysis_tables(run: AnalysisRun, *levels: str) -> dict[str, list[list[str]]]:
    """rankings.csv of the given levels, representativity.csv and medians.csv of a run."""
    from .sensitivity import ranking_rows
    medians = [["pub_year", "category_id", "obs_year", "median"]]
    medians += [[str(py), cat, str(y), f"{m:.6f}"] for py, cat, y, m in run.medians.tolist()]
    return {"rankings.csv": ranking_rows({level: run.levels[level] for level in levels}),
            "representativity.csv": run.report.csv_rows(), "medians.csv": medians}


def _npc_rows(result: NpcCombinedResult, seed: int) -> list[list[str]]:
    """One row per discipline plus COMBINED; p_mc_se is the Monte Carlo
    standard error sqrt(p(1-p)/B) of p."""
    rows = [["uda_id", "observed_stat", "p_value", "p_mc_se", "direction", "n_perm", "seed"]]
    tests = [(t.scope_id, t.observed, t.p_value, t.direction) for t in result.partials]
    tests.append(("COMBINED", result.combined_statistic, result.combined_p, result.direction))
    for name, observed, p, direction in tests:
        se = math.sqrt(p * (1.0 - p) / result.n_perm)
        rows.append([name, format(observed, ".6f"), format(p, ".6g"), format(se, ".6g"), direction,
                     str(result.n_perm), str(seed)])
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _integers(what: str, low: float = -math.inf, sep: str = "",
              count: int = 0) -> Callable[[str], object]:
    """An argparse type for integers of the corpus grammar ingest._INT, each at least low:
    one integer, or with sep the tuple of those sep joins (exactly count, if count is set)."""
    def parse(text: str) -> int | tuple[int, ...]:
        parts = text.split(sep) if sep else [text]
        if (count and len(parts) != count) or not all(
                re.fullmatch(_INT, part) and int(part) >= low for part in parts):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return tuple(map(int, parts)) if sep else int(text)

    return parse


def _decimal(text: str) -> float:
    """An argparse type for a number of the corpus weight grammar ingest._WEIGHT."""
    if not re.fullmatch(_WEIGHT, text):
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {text!r}")
    return float(text)


_positive_int = _integers("a positive integer", low=1)
_seed = _integers("a non-negative integer", low=0)
_year = _integers("an integer year")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citewin",
        description="Citation-window sensitivity analysis of university productivity rankings.",
    )
    parser.add_argument("--version", action="version", version=f"citewin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus directory")
    p.add_argument("directory")

    def common(p: argparse.ArgumentParser, with_years: bool) -> None:
        p.add_argument("directory")
        p.add_argument("--out", dest="out_dir", metavar="OUT", required=True, help="output directory")
        p.add_argument("--period", dest="pub_period", metavar="PERIOD", default=DEFAULT_PERIOD,
                       type=_integers("a period YYYY-YYYY", sep="-", count=2))
        p.add_argument("--threshold", type=_decimal, default=DEFAULT_THRESHOLD)
        p.add_argument("--baseline", choices=BASELINE_RULES, default=DEFAULT_BASELINE)
        if with_years:
            p.add_argument("--years", type=_integers("comma-separated years", sep=","),
                           default=DEFAULT_YEARS)
            p.add_argument("--benchmark", dest="benchmark_year", metavar="BENCHMARK", type=_year,
                           default=DEFAULT_BENCHMARK)
            p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("rankings", help="productivity rankings for one observation year")
    common(p, with_years=False)
    p.add_argument("--obs-year", type=_year, default=DEFAULT_BENCHMARK)
    p.add_argument("--level", choices=("uda", "sds"), default="uda")

    p = sub.add_parser("sensitivity", help="rank-stability statistics across years")
    common(p, with_years=True)

    p = sub.add_parser("npc", help="top-vs-rest permutation tests and Fisher combination")
    common(p, with_years=True)
    p.add_argument("--top-percentile", type=_decimal, default=DEFAULT_TOP_PERCENTILE)
    p.add_argument("--permutations", dest="n_perm", metavar="PERMUTATIONS", type=_positive_int,
                   default=DEFAULT_PERMUTATIONS)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--config", dest="config_path", metavar="CONFIG", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    # parser dests are the commands' parameter names, looked up when main runs
    commands = {
        "validate": cmd_validate,
        "rankings": cmd_rankings,
        "sensitivity": lambda workers, **kwargs: cmd_sensitivity(**kwargs),  # --workers is ignored
        "npc": cmd_npc,
        "synth": cmd_synth,
    }
    try:
        if "out_dir" in args:  # before any input is read
            _check_out_dir(args["out_dir"])
        out = commands[args.pop("command")](**args)
    except (MissingInputError, ValueError, OSError) as exc:  # OSError: say, --out is a file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CitewinError, MemoryError) as exc:  # MemoryError: say, too many permutations
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
