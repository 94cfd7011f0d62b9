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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every output set."""

    command: str
    input_dir: str
    pub_period: tuple[int, int]
    observation_years: tuple[int, ...]
    threshold: float
    baseline: str
    benchmark_year: int | None = None
    level: str | None = None
    top_percentile: float | None = None
    n_perm: int | None = None
    seed: int | None = None
    outputs: tuple[str, ...] = ()
    tool_version: str = __version__

    def write(self, out_dir: Path) -> None:
        payload = {
            "command": self.command,
            "tool_version": self.tool_version,
            "input_dir": self.input_dir,
            "parameters": {
                "pub_period": list(self.pub_period),
                "observation_years": list(self.observation_years),
                "threshold": self.threshold,
                "baseline": self.baseline,
                "benchmark_year": self.benchmark_year,
                "level": self.level,
                "top_percentile": self.top_percentile,
                "n_perm": self.n_perm,
                "seed": self.seed,
            },
            "outputs": sorted(self.outputs),
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


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
    out, outputs = _write_tables(out_dir, _analysis_tables(run))
    RunManifest(
        command="rankings",
        input_dir=str(directory),
        pub_period=pub_period,
        observation_years=(obs_year,),
        threshold=threshold,
        baseline=baseline,
        level=level,
        outputs=outputs,
    ).write(out)
    return out


def cmd_sensitivity(
    directory: str,
    out_dir: str,
    pub_period: tuple[int, int] = DEFAULT_PERIOD,
    years: Sequence[int] = DEFAULT_YEARS,
    benchmark_year: int = DEFAULT_BENCHMARK,
    threshold: float = DEFAULT_THRESHOLD,
    baseline: str = DEFAULT_BASELINE,
    workers: int = 1,
) -> Path:
    """Write the full rank-stability battery against the benchmark year."""
    years = sorted(set(years))
    if benchmark_year not in years:
        raise AnalysisError(f"benchmark year {benchmark_year} not among years {years}")
    if len(years) < 2:
        raise AnalysisError("sensitivity analysis needs at least two observation years")
    corpus = load_corpus(directory)
    run = run_analysis(corpus, pub_period, years, threshold, baseline, workers=workers)
    comparison = [y for y in years if y != benchmark_year]
    out, outputs = _write_tables(out_dir, {
        "shift_descriptives.csv": _shift_descriptives_rows(run, comparison, benchmark_year),
        "stability_summary.csv": _stability_rows(run, benchmark_year),
        "spearman.csv": _spearman_rows(run, comparison, benchmark_year),
        "small_shift_pcts.csv": _small_shift_rows(run, comparison, benchmark_year),
        "quartile_stats.csv": _quartile_rows(run, comparison, benchmark_year),
        "rank_ranges.csv": _rank_range_rows(run),
        **_analysis_tables(run),
    })
    RunManifest(
        command="sensitivity",
        input_dir=str(directory),
        pub_period=pub_period,
        observation_years=tuple(years),
        threshold=threshold,
        baseline=baseline,
        benchmark_year=benchmark_year,
        outputs=outputs,
    ).write(out)
    return out


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
    years = sorted(set(years))
    if benchmark_year not in years:
        raise AnalysisError(f"benchmark year {benchmark_year} not among years {years}")
    if len(years) < 2:
        raise AnalysisError("the rank-shift test needs at least two observation years")
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

    out, outputs = _write_tables(out_dir, {
        "npc_results.csv": _npc_rows(result, seed),
        "representativity.csv": run.report.csv_rows(),
    })
    RunManifest(
        command="npc",
        input_dir=str(directory),
        pub_period=pub_period,
        observation_years=tuple(years),
        threshold=threshold,
        baseline=baseline,
        benchmark_year=benchmark_year,
        top_percentile=top_percentile,
        n_perm=n_perm,
        seed=seed,
        outputs=outputs,
    ).write(out)
    return out


def cmd_synth(config_path: str, out_dir: str, seed: int | None = None) -> Path:
    config = SynthConfig.from_file(config_path)
    return generate(config, out_dir, seed=seed)


# ---------------------------------------------------------------------------
# table writers


def _write_tables(
    out_dir: str | Path, tables: Mapping[str, Sequence[Sequence[str]]]
) -> tuple[Path, tuple[str, ...]]:
    """Write each named table as a CSV file under out_dir; returns (dir, names)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        (out / name).write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return out, tuple(tables)


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


def _each_scope(run: AnalysisRun):
    for level in ("uda", "sds"):
        for scope in run.scopes(level):
            yield level, scope


def _shift_descriptives_rows(run, comparison_years, benchmark_year) -> list[list[str]]:
    header = ["scope_level", "scope_id", "statistic"] + [str(y) for y in comparison_years]
    rows = [header]
    for level, scope in _each_scope(run):
        bench = run.ranking(level, scope, benchmark_year)
        stats = {}
        for year in comparison_years:
            shifts = [a for _s, a in rank_shifts(run.ranking(level, scope, year), bench).values()]
            stats[year] = shift_descriptives(shifts)
        for name in ("mean", "median", "std_dev", "skewness", "kurtosis"):
            rows.append(
                [level, scope, name]
                + [_fmt(getattr(stats[y], name)) for y in comparison_years]
            )
    return rows


def _stability_rows(run, benchmark_year) -> list[list[str]]:
    rows = [["scope_level", "scope_id", "n_universities", "pct_change", "average", "median",
             "std_dev", "max_ranking_variation"]]
    for level, scope in _each_scope(run):
        rankings = {y: run.ranking(level, scope, y) for y in run.years_of(level, scope)}
        summary = stability_summary(rankings, benchmark_year)
        rows.append(
            [
                level,
                scope,
                str(summary.n_universities),
                str(round_half_up(100.0 * summary.pct_any_change)),
                _fmt(summary.mean_shift_average),
                _fmt(summary.mean_shift_median),
                _fmt(summary.mean_shift_std_dev),
                str(summary.max_ranking_variation),
            ]
        )
    return rows


def _spearman_rows(run, comparison_years, benchmark_year) -> list[list[str]]:
    header = ["scope_level", "scope_id"] + [f"rank_{y}" for y in comparison_years]
    rows = [header]
    for level, scope in _each_scope(run):
        bench = run.ranking(level, scope, benchmark_year)
        values = []
        for year in comparison_years:
            ranking = run.ranking(level, scope, year)
            if len(ranking.entries) < 2:
                values.append("NA")
            else:
                values.append(_fmt(spearman_rho(ranking, bench)))
        rows.append([level, scope] + values)
    return rows


def _small_shift_rows(run, comparison_years, benchmark_year) -> list[list[str]]:
    earliest = comparison_years[0]
    rows = [
        ["scope_level", "scope_id", "n_universities", "comparison_year", "no_change_pct", "leq3_pct"]
    ]
    for level, scope in _each_scope(run):
        bench = run.ranking(level, scope, benchmark_year)
        ranking = run.ranking(level, scope, earliest)
        no_change, small = no_change_and_small_shift_pcts(ranking, bench)
        rows.append(
            [level, scope, str(len(bench.entries)), str(earliest), str(no_change), str(small)]
        )
    return rows


def _quartile_rows(run, comparison_years, benchmark_year) -> list[list[str]]:
    header = ["scope_level", "scope_id", "measure"] + [str(y) for y in comparison_years]
    rows = [header]
    for level, scope in _each_scope(run):
        years = run.years_of(level, scope)
        if len(run.ranking(level, scope, benchmark_year).entries) < 4:
            logger.warning("skipping quartile stats for %s %s: fewer than 4 universities", level, scope)
            continue
        assignments = {
            y: quartile_classes(run.ranking(level, scope, y).scores()) for y in years
        }
        shifts = quartile_shift_stats(assignments, benchmark_year)
        rows.append(
            [level, scope, "avg_class_shift"]
            + [_fmt(shifts[y].average_abs_shift) for y in comparison_years]
        )
        rows.append(
            [level, scope, "outliers"] + [str(shifts[y].outliers) for y in comparison_years]
        )
    return rows


def _rank_range_rows(run) -> list[list[str]]:
    rows = [["scope_level", "scope_id", "university_id", "min_rank", "max_rank"]]
    for level, scope in _each_scope(run):
        years = run.years_of(level, scope)
        ranks_by_univ: dict[str, list[int]] = {}
        for year in years:
            for univ, rank in run.ranking(level, scope, year).display_ranks().items():
                ranks_by_univ.setdefault(univ, []).append(rank)
        for univ in sorted(ranks_by_univ):
            rows.append(
                [level, scope, univ, str(min(ranks_by_univ[univ])), str(max(ranks_by_univ[univ]))]
            )
    return rows


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
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--period", type=_parse_period, default=DEFAULT_PERIOD)
        p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
        p.add_argument("--baseline", choices=("aggregate", "mean"), default=DEFAULT_BASELINE)
        if with_years:
            p.add_argument("--years", type=_parse_years, default=DEFAULT_YEARS)
            p.add_argument("--benchmark", type=int, default=DEFAULT_BENCHMARK)
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("rankings", help="productivity rankings for one observation year")
    common(p, with_years=False)
    p.add_argument("--obs-year", type=int, default=DEFAULT_BENCHMARK)
    p.add_argument("--level", choices=("uda", "sds"), default="uda")

    p = sub.add_parser("sensitivity", help="rank-stability statistics across years")
    common(p, with_years=True)

    p = sub.add_parser("npc", help="top-vs-rest permutation tests and Fisher combination")
    common(p, with_years=True)
    p.add_argument("--top-percentile", type=float, default=DEFAULT_TOP_PERCENTILE)
    p.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.directory)
        if args.command == "rankings":
            out = cmd_rankings(
                args.directory,
                args.out,
                pub_period=args.period,
                obs_year=args.obs_year,
                level=args.level,
                threshold=args.threshold,
                baseline=args.baseline,
            )
        elif args.command == "sensitivity":
            out = cmd_sensitivity(
                args.directory,
                args.out,
                pub_period=args.period,
                years=args.years,
                benchmark_year=args.benchmark,
                threshold=args.threshold,
                baseline=args.baseline,
                workers=args.workers,
            )
        elif args.command == "npc":
            out = cmd_npc(
                args.directory,
                args.out,
                pub_period=args.period,
                years=args.years,
                benchmark_year=args.benchmark,
                threshold=args.threshold,
                baseline=args.baseline,
                top_percentile=args.top_percentile,
                n_perm=args.permutations,
                seed=args.seed,
                workers=args.workers,
            )
        else:
            out = cmd_synth(args.config, args.out, seed=args.seed)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CitewinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
