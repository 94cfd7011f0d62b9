"""Command-line front end: validate, rankings, sensitivity, npc, synth.

Every analysis command writes its tables as CSV plus a manifest.json that
records the exact parameters, so a run can be reproduced bit-for-bit.
Exit codes: 0 success, 1 data/validation error, 2 usage or missing input.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .analysis import AnalysisRun, run_analysis
from .errors import AnalysisError, CitewinError, MissingInputError
from .ingest import load_corpus
from .npc import NpcCombinedResult, UdaGroups, max_rank_shift, npc_fisher_combine, top_partition
from .sensitivity import (
    no_change_and_small_shift_pcts,
    quartile_classes,
    quartile_shift_stats,
    rank_shifts,
    round_half_up,
    shift_descriptives,
    spearman_rho,
    stability_summary,
)
from .synth import SynthConfig, generate

logger = logging.getLogger(__name__)

DEFAULT_PERIOD = (2001, 2003)
DEFAULT_YEARS = (2004, 2005, 2006, 2007, 2008)
DEFAULT_BENCHMARK = 2008
DEFAULT_THRESHOLD = 0.5
DEFAULT_BASELINE = "aggregate"
DEFAULT_TOP_PERCENTILE = 80.0
DEFAULT_PERMUTATIONS = 10_000
DEFAULT_SEED = 42


# manifest.json records each of these, null where a command does not set it
MANIFEST_PARAMETERS = ("pub_period", "observation_years", "threshold", "baseline",
                       "benchmark_year", "level", "top_percentile", "n_perm", "seed")


# ---------------------------------------------------------------------------
# commands


def cmd_validate(directory: str) -> int:
    """Load and fully check a corpus directory; report findings."""
    try:
        corpus = load_corpus(directory)
    except MissingInputError as exc:
        print(f"MISSING INPUT: {exc}", file=sys.stderr)
        return 2
    except CitewinError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(corpus.pub_ids)} publications, "
        f"{len(corpus.researcher_ids)} researchers, "
        f"{len(corpus.link_pub)} authorship links, "
        f"{len(corpus.taxonomy.sds_ids)} SDSs in {len(corpus.taxonomy.uda_ids)} UDAs"
    )
    return 0


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
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, [obs_year], threshold, baseline, levels=(level,))
    return _write_run(
        out_dir, "rankings", directory, _analysis_tables(run), pub_period=pub_period,
        observation_years=[obs_year], threshold=threshold, baseline=baseline, level=level,
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
    years = _check_years(years, benchmark_year)
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, years, threshold, baseline)
    tables = {**_battery_tables(run, years, benchmark_year), **_analysis_tables(run)}
    return _write_run(
        out_dir, "sensitivity", directory, tables, pub_period=pub_period,
        observation_years=years, threshold=threshold, baseline=baseline,
        benchmark_year=benchmark_year,
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
    """Top-vs-rest permutation test per UDA plus the Fisher combination."""
    years = _check_years(years, benchmark_year)
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, years, threshold, baseline, levels=("uda",))

    groups = []
    for uda in run.scopes("uda"):
        bench = run.ranking("uda", uda, benchmark_year)
        try:
            top, _rest = top_partition(bench.scores(), top_percentile)
        except AnalysisError as exc:
            logger.warning("excluding UDA %s from the combined test: %s", uda, exc)
            continue
        ranks = {y: run.ranking("uda", uda, y).display_ranks() for y in years}
        values = {
            u: float(max_rank_shift({y: ranks[y][u] for y in years}, benchmark_year))
            for u in sorted(bench.universities())
        }
        groups.append(UdaGroups(uda_id=uda, values=values, top=top))
    if len(groups) < 2:
        raise AnalysisError(
            f"only {len(groups)} UDA(s) usable for the combined test; need at least 2"
        )
    result = npc_fisher_combine(groups, n_perm=n_perm, seed=seed, workers=workers)
    tables = {"npc_results.csv": _npc_rows(result, seed),
              "representativity.csv": run.report.csv_rows()}
    return _write_run(
        out_dir, "npc", directory, tables, pub_period=pub_period, observation_years=years,
        threshold=threshold, baseline=baseline, benchmark_year=benchmark_year,
        top_percentile=top_percentile, n_perm=n_perm, seed=seed,
    )


def cmd_synth(config_path: str, out_dir: str, seed: int | None = None) -> Path:
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


# ---------------------------------------------------------------------------
# output tables


def _write_run(
    out_dir: str | Path,
    command: str,
    directory: str,
    tables: Mapping[str, Sequence[Sequence[str]]],
    **parameters: object,
) -> Path:
    """Write each named table as a CSV file under out_dir, then manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        (out / name).write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    manifest = {
        "command": command,
        "tool_version": __version__,
        "input_dir": str(directory),
        "parameters": {name: parameters.get(name) for name in MANIFEST_PARAMETERS},
        "outputs": sorted(tables),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _fmt(x: float | None, decimals: int = 6) -> str:
    return "NA" if x is None else f"{x:.{decimals}f}"


def _analysis_tables(run: AnalysisRun) -> dict[str, list[list[str]]]:
    """rankings.csv, representativity.csv and medians.csv of an analysis run."""
    rankings = [["scope_level", "scope_id", "obs_year", "university_id", "score", "rank"]]
    for (level, scope, year) in sorted(run.rankings):
        for e in run.rankings[(level, scope, year)].entries:
            rankings.append([level, scope, str(year), e.university_id, _fmt(e.score), str(e.rank)])
    medians = [["pub_year", "category_id", "obs_year", "median"]]
    for year in sorted(run.median_tables):
        medians.extend(run.median_tables[year].csv_rows()[1:])
    return {"rankings.csv": rankings, "representativity.csv": run.report.csv_rows(),
            "medians.csv": medians}


def _battery_tables(
    run: AnalysisRun,
    years: list[int],
    benchmark_year: int,
) -> dict[str, list[list[str]]]:
    """The six rank-stability tables, each scope's rankings looked up once.

    Every statistic comes from its function in sensitivity.py; rows follow
    the scopes, uda before sds.
    """
    comparison = [y for y in years if y != benchmark_year]
    earliest = comparison[0]
    tables = {
        "shift_descriptives.csv": [["scope_level", "scope_id", "statistic", *map(str, comparison)]],
        "stability_summary.csv": [["scope_level", "scope_id", "n_universities", "pct_change",
                                   "average", "median", "std_dev", "max_ranking_variation"]],
        "spearman.csv": [["scope_level", "scope_id", *(f"rank_{y}" for y in comparison)]],
        "small_shift_pcts.csv": [["scope_level", "scope_id", "n_universities", "comparison_year",
                                  "no_change_pct", "leq3_pct"]],
        "quartile_stats.csv": [["scope_level", "scope_id", "measure", *map(str, comparison)]],
        "rank_ranges.csv": [["scope_level", "scope_id", "university_id", "min_rank", "max_rank"]],
    }
    shifts, summaries, spearman, small, quartiles, ranges = tables.values()
    for level in ("uda", "sds"):
        for scope in run.scopes(level):
            rankings = {y: run.ranking(level, scope, y) for y in years}
            bench = rankings[benchmark_year]
            stats = [
                shift_descriptives([a for _s, a in rank_shifts(rankings[y], bench).values()])
                for y in comparison
            ]
            for name in ("mean", "median", "std_dev", "skewness", "kurtosis"):
                shifts.append([level, scope, name, *(_fmt(getattr(s, name)) for s in stats)])
            summary = stability_summary(rankings, benchmark_year)
            summaries.append([
                level, scope, str(summary.n_universities),
                str(round_half_up(100.0 * summary.pct_any_change)),
                _fmt(summary.mean_shift_average), _fmt(summary.mean_shift_median),
                _fmt(summary.mean_shift_std_dev), str(summary.max_ranking_variation),
            ])
            spearman.append([level, scope, *(
                "NA" if len(rankings[y].entries) < 2 else _fmt(spearman_rho(rankings[y], bench))
                for y in comparison
            )])
            pcts = no_change_and_small_shift_pcts(rankings[earliest], bench)
            small.append([level, scope, str(len(bench.entries)), str(earliest), *map(str, pcts)])
            if len(bench.entries) < 4:
                logger.warning("skipping quartile stats for %s %s: fewer than 4 universities",
                               level, scope)
            else:
                classes = {y: quartile_classes(r.scores()) for y, r in rankings.items()}
                moves = quartile_shift_stats(classes, benchmark_year)
                quartiles.append([level, scope, "avg_class_shift",
                                  *(_fmt(moves[y].average_abs_shift) for y in comparison)])
                quartiles.append([level, scope, "outliers",
                                  *(str(moves[y].outliers) for y in comparison)])
            ranks = [r.display_ranks() for r in rankings.values()]
            for univ in sorted(bench.universities()):
                mine = [r[univ] for r in ranks]
                ranges.append([level, scope, univ, str(min(mine)), str(max(mine))])
    return tables


def _npc_rows(result: NpcCombinedResult, seed: int) -> list[list[str]]:
    """One row per discipline plus COMBINED; p_mc_se is the Monte Carlo
    standard error sqrt(p(1-p)/B) of p."""
    rows = [["uda_id", "observed_stat", "p_value", "p_mc_se", "direction", "n_perm", "seed"]]
    tests = [(t.scope_id, t.observed, t.p_value, t.direction) for t in result.partials]
    tests.append(("COMBINED", result.combined_statistic, result.combined_p, result.direction))
    for name, observed, p, direction in tests:
        se = math.sqrt(p * (1.0 - p) / result.n_perm)
        rows.append([name, _fmt(observed), format(p, ".6g"), format(se, ".6g"), direction,
                     str(result.n_perm), str(seed)])
    return rows


# ---------------------------------------------------------------------------
# argument parsing


def _parse_period(text: str) -> tuple[int, int]:
    try:
        start, _, end = text.partition("-")
        return int(start), int(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad period {text!r}, expected YYYY-YYYY") from None


def _parse_years(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(y) for y in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad years {text!r}, expected comma-separated") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
        p.add_argument("--period", dest="pub_period", metavar="PERIOD", type=_parse_period,
                       default=DEFAULT_PERIOD)
        p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
        p.add_argument("--baseline", choices=("aggregate", "mean"), default=DEFAULT_BASELINE)
        if with_years:
            p.add_argument("--years", type=_parse_years, default=DEFAULT_YEARS)
            p.add_argument("--benchmark", dest="benchmark_year", metavar="BENCHMARK", type=int,
                           default=DEFAULT_BENCHMARK)
            p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("rankings", help="productivity rankings for one observation year")
    common(p, with_years=False)
    p.add_argument("--obs-year", type=int, default=DEFAULT_BENCHMARK)
    p.add_argument("--level", choices=("uda", "sds"), default="uda")

    p = sub.add_parser("sensitivity", help="rank-stability statistics across years")
    common(p, with_years=True)

    p = sub.add_parser("npc", help="top-vs-rest permutation tests and Fisher combination")
    common(p, with_years=True)
    p.add_argument("--top-percentile", type=float, default=DEFAULT_TOP_PERCENTILE)
    p.add_argument("--permutations", dest="n_perm", metavar="PERMUTATIONS", type=_positive_int,
                   default=DEFAULT_PERMUTATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--config", dest="config_path", metavar="CONFIG", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
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
        out = commands[args.pop("command")](**args)
    except (MissingInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CitewinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(out, int):
        return out  # validate prints its own findings
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
