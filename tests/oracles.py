"""Brute-force reference implementations used to check the library.

Everything here is written independently of the package internals: plain
loops, exhaustive enumeration, and exact rational arithmetic where it
matters. Keep it slow and obvious.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from citewin.errors import AnalysisError


def fractional_ranks_desc(scores: Sequence[float]) -> list[float]:
    """Rank 1 = largest score; tied scores get the average of their positions."""
    ranks = []
    for s in scores:
        greater = sum(1 for t in scores if t > s)
        ties = sum(1 for t in scores if t == s)
        ranks.append(greater + (1 + ties) / 2)
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def spearman_brute(a_scores: Sequence[float], b_scores: Sequence[float]) -> float | None:
    """Pearson correlation of descending fractional ranks."""
    return pearson(fractional_ranks_desc(a_scores), fractional_ranks_desc(b_scores))


def perm_test_exhaustive(top: Sequence[float], rest: Sequence[float]) -> tuple[Fraction, Fraction]:
    """(observed statistic, two-sided p) by enumerating every labeling.

    Exact rational arithmetic, so >= comparisons never suffer rounding.
    """
    pool = [Fraction(v) for v in list(top) + list(rest)]
    k, n = len(top), len(pool)

    def stat(idx: tuple[int, ...]) -> Fraction:
        chosen = sum(pool[i] for i in idx)
        return chosen / k - (sum(pool) - chosen) / (n - k)

    t_obs = stat(tuple(range(k)))
    stats = [stat(idx) for idx in combinations(range(n), k)]
    count = sum(1 for t in stats if abs(t) >= abs(t_obs))
    return t_obs, Fraction(count, len(stats))


def significance_levels(values: Sequence[float]) -> list[float]:
    """For each element, the fraction of all elements >= it."""
    n = len(values)
    return [sum(1 for y in values if y >= x) / n for x in values]


# ---------------------------------------------------------------------------
# the NPC sampler as it was before the pipelined one: every block drawn and
# then ranked, a copy of the keys per member set, a strided top gather per
# group, and significance levels by sort and searchsorted. The pipelined
# sampler must reproduce every statistic and level of these bit for bit.


def group_stats(pool: np.ndarray, top_idx: np.ndarray) -> np.ndarray:
    """mean(top) - mean(rest) for each row of top indices into pool."""
    k = top_idx.shape[-1]
    top_sum = pool[top_idx].sum(axis=-1)
    return top_sum / k - (pool.sum() - top_sum) / (pool.size - k)


def significance_levels_sorted(abs_stats: np.ndarray) -> np.ndarray:
    """Empirical P(|T| >= t) within the given distribution, for each element."""
    ordered = np.sort(abs_stats)
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # start of each run of ties
    count_ge = abs_stats.size - first[np.searchsorted(ordered[first], abs_stats)]
    return count_ge / abs_stats.size


def sample_stats(prepared, n_all, n_perm, seed, workers, chunk_values):
    """Each group's statistic under n_perm shared random orderings of the
    n_all universities, with the observed labeling at index n_perm; prepared
    holds (values, observed top positions, positions in the universe)."""
    from concurrent.futures import ThreadPoolExecutor

    stats = [np.empty(n_perm + 1) for _ in prepared]
    member_sets: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for gi, (_values, _obs_idx, member_pos) in enumerate(prepared):
        member_sets.setdefault(member_pos.tobytes(), (member_pos, []))[1].append(gi)
    rng = np.random.default_rng(seed)
    done = 0

    def fill_rows(args) -> None:
        keys, start = args
        span = slice(start, start + len(keys))
        for member_pos, group_ids in member_sets.values():
            order = np.argsort(keys[:, member_pos], axis=1)
            for gi in group_ids:
                values, obs_idx, _pos = prepared[gi]
                stats[gi][span] = group_stats(values, order[:, : obs_idx.size])

    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while done < n_perm:
            rows = min(max(1, chunk_values // n_all), n_perm - done)
            block_keys = rng.random((rows, n_all))
            cuts = [rows * t // workers for t in range(workers + 1)]
            tasks = [(block_keys[lo:hi], done + lo) for lo, hi in zip(cuts, cuts[1:])]
            list((executor.map if executor else map)(fill_rows, tasks))
            done += rows
    finally:
        if executor is not None:
            executor.shutdown()

    for gi, (values, obs_idx, _pos) in enumerate(prepared):
        stats[gi][n_perm] = group_stats(values, obs_idx[None, :])[0]
    return stats


def moment_stats(xs: Sequence[float]) -> dict:
    """Population central-moment descriptives via exact rationals."""
    n = len(xs)
    vals = [Fraction(x) for x in xs]
    mean = sum(vals) / n
    m2 = sum((v - mean) ** 2 for v in vals) / n
    m3 = sum((v - mean) ** 3 for v in vals) / n
    m4 = sum((v - mean) ** 4 for v in vals) / n
    ordered = sorted(vals)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    out = {
        "mean": float(mean),
        "median": float(median),
        "std_dev": math.sqrt(m2),
        "skewness": None,
        "kurtosis": None,
    }
    if m2 > 0:
        out["skewness"] = float(m3) / float(m2) ** 1.5
        out["kurtosis"] = float(m4) / float(m2) ** 2 - 3.0
    return out


# ---------------------------------------------------------------------------
# the per-Ranking stability battery as it was before the grouped one: each
# statistic of one scope per call, over dicts and 1-D numpy arrays. The
# grouped battery in sensitivity.py must reproduce it bit for bit.


@dataclass(frozen=True)
class RankEntry:
    university_id: str
    score: float
    rank: int  # competition rank, 1 = highest score
    fractional_rank: float


@dataclass(frozen=True)
class Ranking:
    scope_level: str
    scope_id: str
    obs_year: int
    entries: tuple[RankEntry, ...]

    def display_ranks(self) -> dict[str, int]:
        return {e.university_id: e.rank for e in self.entries}

    def fractional_ranks(self) -> dict[str, float]:
        return {e.university_id: e.fractional_rank for e in self.entries}

    def scores(self) -> dict[str, float]:
        return {e.university_id: e.score for e in self.entries}

    def universities(self) -> frozenset[str]:
        return frozenset(e.university_id for e in self.entries)


@dataclass(frozen=True)
class QuartileAssignment:
    """Productivity class per university: 4 = top quartile down to 1."""

    boundaries: tuple[float, float, float]  # 25th, 50th, 75th percentile of the scores
    classes: Mapping[str, int]


@dataclass(frozen=True)
class ShiftStats:
    """Descriptive statistics of a shift distribution.

    Central moments use divisor n; skewness is m3/m2^1.5 and kurtosis is
    the excess m4/m2^2 - 3. Both are None when the variance is zero.
    """

    n: int
    mean: float
    median: float
    std_dev: float
    skewness: float | None
    kurtosis: float | None


@dataclass(frozen=True)
class StabilitySummary:
    """Per-scope stability of rankings across all observation years.

    pct_any_change is the fraction of universities whose rank moves at
    least once across the years. The average/median/std_dev are over each
    university's mean absolute shift against the benchmark (population
    std dev, consistent with ShiftStats). max_ranking_variation is
    the widest per-university rank range over all years.
    """

    n_universities: int
    pct_any_change: float
    mean_shift_average: float
    mean_shift_median: float
    mean_shift_std_dev: float
    max_ranking_variation: int


@dataclass(frozen=True)
class QuartileShiftStats:
    average_abs_shift: float
    outliers: int  # universities moving 2 or 3 classes


def rank_universities(
    scores: Mapping[str, float],
    scope_level: str = "",
    scope_id: str = "",
    obs_year: int = 0,
) -> Ranking:
    """Order universities by descending score with deterministic tie handling."""
    if not scores:
        raise ValueError("cannot rank an empty score map")
    for univ, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"non-finite score {score} for {univ!r}")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries: list[RankEntry] = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        # positions i+1 .. j (1-based) share the score
        fractional = (i + 1 + j) / 2
        for univ, score in ordered[i:j]:
            entries.append(RankEntry(univ, score, rank=i + 1, fractional_rank=fractional))
        i = j
    return Ranking(scope_level, scope_id, obs_year, tuple(entries))


def rank_shifts(ranking: Ranking, benchmark: Ranking) -> dict[str, tuple[int, int]]:
    """Per-university (signed, absolute) rank shift against the benchmark.

    Positive signed shift = ranked worse (larger rank number) than in the
    benchmark. Uses competition ranks. Both rankings must cover the same
    universities.
    """
    _require_same_universities(ranking, benchmark)
    ranks = ranking.display_ranks()
    bench = benchmark.display_ranks()
    return {
        univ: (ranks[univ] - bench[univ], abs(ranks[univ] - bench[univ]))
        for univ in sorted(ranks)
    }


def shift_descriptives(shifts: Sequence[float]) -> ShiftStats:
    if len(shifts) < 1:
        raise ValueError("need at least one shift")
    xs = np.asarray(shifts, dtype=float)
    mean = float(xs.mean())
    dev = xs - mean
    m2 = float((dev**2).mean())
    if m2 == 0.0:
        return ShiftStats(len(xs), mean, float(np.median(xs)), 0.0, None, None)
    m3 = float((dev**3).mean())
    m4 = float((dev**4).mean())
    return ShiftStats(
        n=len(xs),
        mean=mean,
        median=float(np.median(xs)),
        std_dev=math.sqrt(m2),
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2 - 3.0,
    )


def spearman_rho(ranking_a: Ranking, ranking_b: Ranking) -> float | None:
    """Rank correlation: Pearson correlation of the fractional ranks.

    Returns None (undefined) when either side has zero rank variance,
    i.e. all universities tied.
    """
    _require_same_universities(ranking_a, ranking_b)
    universities = sorted(ranking_a.universities())
    if len(universities) < 2:
        raise AnalysisError("rank correlation needs at least two universities")
    fa = ranking_a.fractional_ranks()
    fb = ranking_b.fractional_ranks()
    xs = np.array([fa[u] for u in universities])
    ys = np.array([fb[u] for u in universities])
    xd = xs - xs.mean()
    yd = ys - ys.mean()
    sx = float((xd**2).sum())
    sy = float((yd**2).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xd * yd).sum() / math.sqrt(sx * sy))


def stability_summary(
    rankings: Mapping[int, Ranking], benchmark_year: int
) -> StabilitySummary:
    if benchmark_year not in rankings:
        raise AnalysisError(f"benchmark year {benchmark_year} not among the rankings")
    if len(rankings) == 1:
        # only the benchmark itself: trivially no change anywhere
        n = len(rankings[benchmark_year].entries)
        return StabilitySummary(n, 0.0, 0.0, 0.0, 0.0, 0)
    years = sorted(rankings)
    benchmark = rankings[benchmark_year]
    universities = sorted(benchmark.universities())

    shifts_by_univ: dict[str, list[int]] = {u: [] for u in universities}
    for year in years:
        if year == benchmark_year:
            _require_same_universities(rankings[year], benchmark)
            continue
        for univ, (_signed, absolute) in rank_shifts(rankings[year], benchmark).items():
            shifts_by_univ[univ].append(absolute)

    ranks = [rankings[y].display_ranks() for y in years]
    ranks_by_univ = {u: [r[u] for r in ranks] for u in universities}
    changed = sum(1 for u in universities if len(set(ranks_by_univ[u])) > 1)
    mean_shifts = np.array([np.mean(shifts_by_univ[u]) for u in universities])
    return StabilitySummary(
        n_universities=len(universities),
        pct_any_change=changed / len(universities),
        mean_shift_average=float(mean_shifts.mean()),
        mean_shift_median=float(np.median(mean_shifts)),
        mean_shift_std_dev=float(mean_shifts.std()),
        max_ranking_variation=max(
            max(ranks_by_univ[u]) - min(ranks_by_univ[u]) for u in universities
        ),
    )


def no_change_and_small_shift_pcts(ranking: Ranking, benchmark: Ranking) -> tuple[int, int]:
    """Whole-number percentages of universities with shift 0 and shift <= 3."""
    shifts = [absolute for _signed, absolute in rank_shifts(ranking, benchmark).values()]
    n = len(shifts)
    no_change = sum(1 for s in shifts if s == 0)
    small = sum(1 for s in shifts if s <= 3)
    return round_half_up(100.0 * no_change / n), round_half_up(100.0 * small / n)


def quartile_classes(scores: Mapping[str, float]) -> QuartileAssignment:
    """Classify universities by score quartile.

    Boundaries are linear-interpolation percentiles of the score
    distribution; a university is in class 4 when its score lies strictly
    above the 75th-percentile boundary, and so on downward. Equal scores
    always land in the same class.
    """
    if len(scores) < 4:
        raise AnalysisError(f"quartile classes need at least 4 universities, got {len(scores)}")
    values = np.array([scores[u] for u in sorted(scores)])
    q25, q50, q75 = np.percentile(values, (25, 50, 75), method="linear").tolist()
    classes = {
        u: 1 + (scores[u] > q25) + (scores[u] > q50) + (scores[u] > q75) for u in sorted(scores)
    }
    return QuartileAssignment(boundaries=(q25, q50, q75), classes=classes)


def quartile_shift_stats(
    assignments: Mapping[int, QuartileAssignment], benchmark_year: int
) -> dict[int, QuartileShiftStats]:
    """Average absolute class shift and 2-3-class outlier count per year."""
    if benchmark_year not in assignments:
        raise AnalysisError(f"benchmark year {benchmark_year} not among the assignments")
    bench = assignments[benchmark_year].classes
    out: dict[int, QuartileShiftStats] = {}
    for year in sorted(assignments):
        if year == benchmark_year:
            continue
        classes = assignments[year].classes
        if set(classes) != set(bench):
            raise AnalysisError(f"university sets differ between {year} and {benchmark_year}")
        shifts = [abs(classes[u] - bench[u]) for u in sorted(bench)]
        out[year] = QuartileShiftStats(
            average_abs_shift=sum(shifts) / len(shifts),
            outliers=sum(1 for s in shifts if s >= 2),
        )
    return out


def _require_same_universities(a: Ranking, b: Ranking) -> None:
    ua, ub = a.universities(), b.universities()
    if ua != ub:
        only_a = sorted(ua - ub)
        only_b = sorted(ub - ua)
        raise AnalysisError(
            f"rankings cover different universities (only in first: {only_a}, "
            f"only in second: {only_b})"
        )


def round_half_up(x: float) -> int:
    """Nearest integer, halves rounded up (so 12.5 -> 13, unlike round())."""
    return int(math.floor(x + 0.5))


def battery_rows(rankings, years, benchmark_year):
    """The six stability tables from {(level, scope): {year: Ranking}}, rows in
    that order, statistics from the functions above; pct_change is rounded
    half up in exact rational arithmetic."""
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
    for (level, scope), by_year in rankings.items():
        bench = by_year[benchmark_year]
        stats = [
            shift_descriptives([a for _s, a in rank_shifts(by_year[y], bench).values()])
            for y in comparison
        ]
        for name in ("mean", "median", "std_dev", "skewness", "kurtosis"):
            shifts.append([level, scope, name, *(_fmt(getattr(s, name)) for s in stats)])
        summary = stability_summary(by_year, benchmark_year)
        n = summary.n_universities
        changed = round(summary.pct_any_change * n)
        summaries.append([
            level, scope, str(n), str(math.floor(Fraction(100 * changed, n) + Fraction(1, 2))),
            _fmt(summary.mean_shift_average), _fmt(summary.mean_shift_median),
            _fmt(summary.mean_shift_std_dev), str(summary.max_ranking_variation),
        ])
        spearman.append([level, scope, *(
            "NA" if len(by_year[y].entries) < 2 else _fmt(spearman_rho(by_year[y], bench))
            for y in comparison
        )])
        pcts = no_change_and_small_shift_pcts(by_year[earliest], bench)
        small.append([level, scope, str(len(bench.entries)), str(earliest), *map(str, pcts)])
        if len(bench.entries) >= 4:
            classes = {y: quartile_classes(r.scores()) for y, r in by_year.items()}
            moves = quartile_shift_stats(classes, benchmark_year)
            quartiles.append([level, scope, "avg_class_shift",
                              *(_fmt(moves[y].average_abs_shift) for y in comparison)])
            quartiles.append([level, scope, "outliers",
                              *(str(moves[y].outliers) for y in comparison)])
        ranks = [r.display_ranks() for r in by_year.values()]
        for univ in sorted(bench.universities()):
            mine = [r[univ] for r in ranks]
            ranges.append([level, scope, univ, str(min(mine)), str(max(mine))])
    return tables


def _fmt(x, decimals=6):
    return "NA" if x is None else f"{x:.{decimals}f}"


# ---------------------------------------------------------------------------
# the per-year analysis walk, built from the package's scalar definitions
# (impact.py, productivity.py): the reference the columnar core is checked
# against


def publications(corpus):
    """pub_id -> PublicationRecord of every publication, read from the columns: its
    categories in listed order and the citation counts of the years it was given."""
    from citewin.impact import PublicationRecord

    cats = [[] for _ in corpus.pub_ids]
    for p, cat, weight in zip(corpus.entry_pub.tolist(),
                              corpus.categories[corpus.entry_cat].tolist(),
                              corpus.entry_weight.tolist()):
        cats[p].append((cat, weight))
    years = corpus.obs_years.tolist()
    counts = [{y: n for y, n, has in zip(years, ns, given) if has}
              for ns, given in zip(corpus.counts.tolist(), corpus.present.tolist())]
    rows = zip(corpus.pub_ids.tolist(), corpus.pub_year.tolist(), cats, counts)
    return {p: PublicationRecord(p, y, tuple(c), n) for p, y, c, n in rows}


def pubs_by_cell(corpus):
    """(university, SDS) -> the cell's distinct pub_ids, sorted. A publication is
    listed once per cell, however many researchers of the cell co-authored it,
    and under the cell of each of its authors."""
    res = corpus.link_res
    cells = zip(corpus.universities[corpus.res_univ[res]].tolist(),
                corpus.sds_ids[corpus.res_sds[res]].tolist())
    out = {}
    for cell, pid in zip(cells, corpus.pub_ids[corpus.link_pub].tolist()):
        out.setdefault(cell, set()).add(pid)
    return {cell: tuple(sorted(pids)) for cell, pids in out.items()}


def cell_pubs(corpus, university_id, sds_id):
    """The distinct pub_ids of one (university, SDS) cell, sorted; () for a cell
    without publications."""
    return pubs_by_cell(corpus).get((university_id, sds_id), ())


def cell_staff(corpus):
    """(university, SDS) -> staff count of every staffed cell, read from the researcher columns."""
    cells = zip(corpus.universities[corpus.res_univ].tolist(),
                corpus.sds_ids[corpus.res_sds].tolist())
    return dict(sorted(Counter(cells).items()))


def sds_in_uda(corpus, uda_id):
    """The SDSs of one discipline, sorted."""
    return tuple(corpus.sds_ids[corpus.uda_ids[corpus.sds_uda] == uda_id].tolist())


def compute_cells(corpus, retained_sds, pub_period, obs_year, median_table):
    """All (university, SDS) productivity cells of the retained SDSs, SDS by SDS."""
    from citewin.productivity import scientific_strength, sds_productivity

    staff, pubs, index = cell_staff(corpus), publications(corpus), pubs_by_cell(corpus)
    cells = {}
    for sds_id in sorted(retained_sds):
        for univ in sorted(u for (u, s) in staff if s == sds_id):
            rs = staff[(univ, sds_id)]
            records = [pubs[pid] for pid in index.get((univ, sds_id), ())]
            ss = scientific_strength(records, pub_period, obs_year, median_table)
            cells[(univ, sds_id)] = sds_productivity(univ, sds_id, obs_year, ss, rs)
    return cells


def compute_baselines(cells, rule="aggregate"):
    from citewin.productivity import national_baseline

    by_sds = {}
    for cell in cells.values():
        by_sds.setdefault(cell.sds_id, []).append(cell)
    return {sds: national_baseline(group, rule) for sds, group in sorted(by_sds.items())}


def sds_scores(cells, sds_id):
    """university -> p for one SDS."""
    return {univ: cell.p for (univ, sds), cell in sorted(cells.items()) if sds == sds_id}


def uda_scores(corpus, cells, baselines, uda_id):
    """university -> UdaProductivity for one discipline."""
    from citewin.productivity import uda_productivity

    member_sds = set(sds_in_uda(corpus, uda_id))
    by_univ = {}
    for (univ, sds), cell in sorted(cells.items()):
        if sds in member_sds:
            by_univ.setdefault(univ, []).append(cell)
    return {
        univ: uda_productivity(univ, uda_id, group, baselines)
        for univ, group in sorted(by_univ.items())
    }


# ---------------------------------------------------------------------------
# the row-by-row corpus reader: csv.reader over each file, one row at a time,
# the reference the columnar ingest is checked against. Within a row the
# grammar of every field comes first, then the int64 range, then the values;
# a reference to an earlier file is checked at the row that makes it.

ID_RE = re.compile(r"[A-Za-z0-9_/-]+")
INT_RE = re.compile(r"-?[0-9]+")
WEIGHT_RE = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def read_corpus_rows(directory):
    """(publications by id, researcher rows, authorship rows, SDS -> UDA map) of a corpus
    directory."""
    from citewin.impact import PublicationRecord

    root = Path(directory)
    taxonomy = _read_fields(root / "fields.csv")
    researchers = _read_researchers(root / "researchers.csv", taxonomy)
    pubs = _read_publications(root / "publications.csv")
    _attach_citations(root / "citations.csv", pubs)
    links = _read_authorship(root / "authorship.csv", pubs, {r[0] for r in researchers})
    records = {pid: PublicationRecord(pid, y, c, n) for pid, (y, c, n) in pubs.items()}
    return records, researchers, links, taxonomy


def _read_rows(path, columns):
    """(line, values) of each non-blank row; ints converted, categories split."""
    from citewin.errors import ParseError

    header = [name for name, _kind in columns]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "file is empty, expected a header row") from None
        if first != header:
            raise ParseError(path, 1, f"bad header {first!r}, expected {header!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(columns):
                raise ParseError(path, line, f"expected {len(columns)} fields, got {len(row)}")
            for value, (name, kind) in zip(row, columns):
                if kind == "id" and not ID_RE.fullmatch(value):
                    raise ParseError(path, line, f"{name} {value!r} does not match [A-Za-z0-9_/-]+")
                if kind == "int" and not INT_RE.fullmatch(value):
                    raise ParseError(path, line, f"{name} {value!r} is not an integer")
                if kind == "categories":
                    _check_category_grammar(path, line, value)
            for value, (name, kind) in zip(row, columns):
                if kind == "int" and not -(2**63) <= int(value) < 2**63:
                    raise ParseError(path, line,
                                     f"{name} {value!r} is outside the 64-bit integer range")
            yield line, [
                int(v) if kind == "int" else _categories(v) if kind == "categories" else v
                for v, (_name, kind) in zip(row, columns)
            ]


def _check_category_grammar(path, line, spec):
    from citewin.errors import ParseError

    if not spec:
        raise ParseError(path, line, "categories field is empty")
    parts = spec.split(";")
    explicit = [":" in p for p in parts]
    if any(explicit) and not all(explicit):
        raise ParseError(path, line, f"mixed weighted/unweighted categories in {spec!r}")
    for part in parts:
        name, colon, raw = part.partition(":")
        if colon and not WEIGHT_RE.fullmatch(raw):
            raise ParseError(path, line, f"bad category weight {raw!r}")
        if not ID_RE.fullmatch(name):
            raise ParseError(path, line, f"category {name!r} does not match [A-Za-z0-9_/-]+")


def _categories(spec):
    parts = spec.split(";")
    out = []
    for part in parts:
        name, colon, raw = part.partition(":")
        out.append((name, float(raw) if colon else 1.0 / len(parts)))
    return out


def _read_fields(path):
    from citewin.errors import ParseError

    mapping = {}
    for line, (sds_id, uda_id) in _read_rows(path, [("sds_id", "id"), ("uda_id", "id")]):
        if sds_id in mapping:
            raise ParseError(path, line, f"duplicate sds_id {sds_id!r}")
        mapping[sds_id] = uda_id
    return mapping


def _read_researchers(path, taxonomy):
    from citewin.errors import IntegrityError, ParseError

    out, seen = [], set()
    columns = [("researcher_id", "id"), ("university_id", "id"), ("sds_id", "id")]
    for line, (rid, univ, sds) in _read_rows(path, columns):
        if rid in seen:
            raise ParseError(path, line, f"duplicate researcher_id {rid!r}")
        if sds not in taxonomy:
            raise IntegrityError(
                f"{path}:{line}: researcher {rid!r}: sds_id {sds!r} missing from taxonomy"
            )
        seen.add(rid)
        out.append((rid, univ, sds))
    return out


def _read_publications(path):
    """pub_id -> [pub_year, categories, counts]"""
    from citewin.errors import ParseError

    pubs = {}
    columns = [("pub_id", "id"), ("pub_year", "int"), ("categories", "categories")]
    for line, (pid, year, cats) in _read_rows(path, columns):
        if pid in pubs:
            raise ParseError(path, line, f"duplicate pub_id {pid!r}")
        seen = set()
        for name, weight in cats:
            if name in seen:
                raise ParseError(path, line, f"category {name!r} listed twice")
            seen.add(name)
            if not (0.0 < weight <= 1.0):
                raise ParseError(path, line, f"category weight {weight} outside (0, 1]")
        total = 0
        for _name, weight in cats:
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ParseError(path, line, f"category weights sum to {total}, expected 1")
        pubs[pid] = (year, tuple(cats), {})
    return pubs


def _attach_citations(path, pubs):
    from citewin.errors import ParseError

    columns = [("pub_id", "id"), ("obs_year", "int"), ("cum_citations", "int")]
    for line, (pid, obs_year, n) in _read_rows(path, columns):
        if pid not in pubs:
            raise ParseError(path, line, f"citation row references unknown pub_id {pid!r}")
        if n < 0:
            raise ParseError(path, line, f"negative citation count {n}")
        pub_year, _, counts = pubs[pid]
        if obs_year < pub_year:
            raise ParseError(
                path, line, f"obs_year {obs_year} precedes publication year {pub_year} of {pid!r}"
            )
        if obs_year in counts:
            raise ParseError(path, line, f"duplicate citation row for ({pid!r}, {obs_year})")
        # counts are cumulative; rows may arrive in any year order
        for other_year, other in counts.items():
            if (obs_year - other_year) * (n - other) < 0:
                raise ParseError(
                    path,
                    line,
                    f"cumulative citations of {pid!r} decrease between years "
                    f"{min(other_year, obs_year)} and {max(other_year, obs_year)}",
                )
        counts[obs_year] = n


def _read_authorship(path, pubs, researcher_ids):
    from citewin.errors import IntegrityError, ParseError

    out, seen = [], set()
    for line, (pid, rid) in _read_rows(path, [("pub_id", "id"), ("researcher_id", "id")]):
        if pid not in pubs:
            raise IntegrityError(f"{path}:{line}: authorship references unknown pub_id {pid!r}")
        if rid not in researcher_ids:
            raise IntegrityError(
                f"{path}:{line}: authorship references unknown researcher_id {rid!r}"
            )
        if (pid, rid) in seen:
            raise ParseError(path, line, f"duplicate authorship pair ({pid!r}, {rid!r})")
        seen.add((pid, rid))
        out.append((pid, rid))
    return out


# ---------------------------------------------------------------------------
# synthetic corpus generator: one tuple per row, one sorted copy per file


def generate_reference(config, out_dir, seed=None):
    """The tuple-per-row generator that `synth.generate` must match byte for byte."""
    from citewin.synth import category_of

    config.validate()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sds_list = config.sds_ids()
    sds_uda = {s: u for u, group in config.udas.items() for s in group}
    universities = [f"U{i:03d}" for i in range(1, config.n_universities + 1)]

    researchers: list[tuple[str, str, str]] = []  # (rid, university, sds)
    quality: dict[str, float] = {}
    lo, hi = config.staff_range
    for univ in universities:
        for sds in sds_list:
            staff = int(rng.integers(lo, hi + 1))
            for i in range(1, staff + 1):
                rid = f"{univ}-{sds}-{i:03d}"
                researchers.append((rid, univ, sds))
                quality[rid] = float(rng.lognormal(config.quality_mu, config.quality_sigma))

    by_other_university: dict[str, list[int]] = {
        univ: [i for i, (_r, u, _s) in enumerate(researchers) if u != univ]
        for univ in universities
    }

    pubs: list[tuple[str, int, str]] = []  # (pid, year, categories field)
    authorship: list[tuple[str, str]] = []
    citation_rows: list[tuple[str, int, int]] = []
    max_obs = max(config.observation_years)
    counter = 0
    for rid, univ, sds in researchers:
        profile = config.profile_for(sds)
        q = quality[rid]
        for year in range(config.pub_period[0], config.pub_period[1] + 1):
            for _ in range(int(rng.poisson(config.pub_rate * q))):
                counter += 1
                pid = f"P{counter:06d}"
                categories = category_of(sds)
                if config.multi_category_rate > 0 and rng.random() < config.multi_category_rate:
                    other = sds_list[int(rng.integers(len(sds_list)))]
                    if other != sds:
                        categories = f"{category_of(sds)}:0.5;{category_of(other)}:0.5"
                pubs.append((pid, year, categories))
                authorship.append((pid, rid))
                candidates = by_other_university[univ]
                if candidates and config.coauthor_rate > 0 and rng.random() < config.coauthor_rate:
                    co = researchers[candidates[int(rng.integers(len(candidates)))]][0]
                    authorship.append((pid, co))
                increments = [int(rng.poisson(q * profile[min(age, len(profile) - 1)]))
                              for age in range(max_obs - year + 1)]
                running = list(accumulate(increments))  # running[t - year]: citations by year t
                for obs_year in sorted(config.observation_years):  # never before `year`
                    citation_rows.append((pid, obs_year, running[obs_year - year]))

    write_rows_csv(out / "fields.csv", ["sds_id", "uda_id"], [[s, sds_uda[s]] for s in sds_list])
    write_rows_csv(
        out / "researchers.csv",
        ["researcher_id", "university_id", "sds_id"],
        [[r, u, s] for r, u, s in sorted(researchers)],
    )
    write_rows_csv(
        out / "publications.csv",
        ["pub_id", "pub_year", "categories"],
        [[p, str(y), c] for p, y, c in sorted(pubs)],
    )
    write_rows_csv(
        out / "authorship.csv",
        ["pub_id", "researcher_id"],
        [[p, r] for p, r in sorted(set(authorship))],
    )
    write_rows_csv(
        out / "citations.csv",
        ["pub_id", "obs_year", "cum_citations"],
        [[p, str(y), str(c)] for p, y, c in sorted(citation_rows)],
    )
    return out


def write_rows_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
