"""Reference answers and the output check behind ``failed`` and ``ok_frac``.

The reference is computed here, from the corpus files the benchmark
generated, by code that shares nothing with ``citewin``: the CSV parse,
the per-year medians and impact scores, the cell strengths, baselines and
discipline scores, the rankings, and an independent Monte Carlo run of the
top-vs-rest test. Scores follow the arithmetic order of the published
definitions (left-to-right sums over sorted keys), so at the code the
benchmark was defined on they match the program bit for bit and every rank
is identical; the program's outputs are then compared against them:

- exit codes and the expected output files;
- ranks per (level, scope, year, university) identical;
- scores and each discipline's ``observed_stat`` equal at printed precision,
  within 1 in the last digit;
- the staff-weighted mean of discipline productivity ``P`` equal to 1 per
  discipline and year, within printed precision;
- each NPC p-value within 4 Monte Carlo standard errors, plus 0.0005 for
  printing to 3 decimals, of the reference p-value. The check neither
  requires nor rejects a printed ``0.000``.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PERIOD = (2001, 2003)  # CLI default publication period
THRESHOLD = 0.5  # CLI default representativity threshold
TOP_PERCENTILE = 80.0  # CLI default top group for npc
REF_PERMUTATIONS = 200_000  # Monte Carlo draws of the reference NPC run
P_SLACK = 0.0005  # p-values print with 3 decimals
SCORE_DECIMALS = 6

RANKINGS_FILES = {"rankings.csv", "representativity.csv", "medians.csv", "manifest.json"}
SENSITIVITY_FILES = RANKINGS_FILES | {
    "shift_descriptives.csv",
    "stability_summary.csv",
    "spearman.csv",
    "small_shift_pcts.csv",
    "quartile_stats.csv",
    "rank_ranges.csv",
}
NPC_FILES = {"npc_results.csv", "representativity.csv", "manifest.json"}


@dataclass
class Corpus:
    """The five corpus files, parsed without the program's ingest."""

    sds_uda: dict[str, str]
    researchers: list[tuple[str, str, str]]  # (researcher, university, sds)
    pubs: dict[str, tuple[int, list[tuple[str, float]]]]  # pid -> (year, [(category, weight)])
    counts: dict[str, dict[int, int]]  # pid -> obs_year -> cumulative citations
    links: list[tuple[str, str]]  # (pid, researcher)


def _rows(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        yield from (row for row in reader if row)


def read_corpus(directory: Path) -> Corpus:
    sds_uda = dict(_rows(directory / "fields.csv"))
    researchers = [tuple(r) for r in _rows(directory / "researchers.csv")]
    pubs = {}
    for pid, year, spec in _rows(directory / "publications.csv"):
        parts = spec.split(";")
        cats = []
        for part in parts:
            name, sep, weight = part.partition(":")
            cats.append((name, float(weight) if sep else 1.0 / len(parts)))
        pubs[pid] = (int(year), cats)
    counts: dict[str, dict[int, int]] = {pid: {} for pid in pubs}
    for pid, year, n in _rows(directory / "citations.csv"):
        counts[pid][int(year)] = int(n)
    links = [tuple(r) for r in _rows(directory / "authorship.csv")]
    return Corpus(sds_uda, researchers, pubs, counts, links)


@dataclass
class Reference:
    corpus: Corpus
    years: tuple[int, ...]
    retained: set[str]
    cell_staff: dict[tuple[str, str], int]
    # (level, scope, year) -> {university: score}
    scores: dict[tuple[str, str, int], dict[str, float]] = field(default_factory=dict)
    ranks: dict[tuple[str, str, int], dict[str, int]] = field(default_factory=dict)

    def university_staff(self, uda: str) -> dict[str, int]:
        """Staff of each university over its retained SDSs of one discipline."""
        staff: dict[str, int] = {}
        for (univ, sds), rs in self.cell_staff.items():
            if sds in self.retained and self.corpus.sds_uda[sds] == uda:
                staff[univ] = staff.get(univ, 0) + rs
        return staff


def competition_ranks(scores: dict[str, float]) -> dict[str, int]:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: dict[str, int] = {}
    for pos, (univ, score) in enumerate(ordered):
        prev = ordered[pos - 1] if pos else None
        ranks[univ] = ranks[prev[0]] if prev and prev[1] == score else pos + 1
    return ranks


def build_reference(corpus: Corpus, years: tuple[int, ...]) -> Reference:
    """Scores and ranks at both levels for every observation year."""
    start, end = PERIOD
    staff_of_sds: dict[str, int] = {s: 0 for s in corpus.sds_uda}
    cell_of: dict[str, tuple[str, str]] = {}
    cell_staff: dict[tuple[str, str], int] = {}
    for rid, univ, sds in corpus.researchers:
        cell_of[rid] = (univ, sds)
        cell_staff[(univ, sds)] = cell_staff.get((univ, sds), 0) + 1
        staff_of_sds[sds] += 1
    publishing: set[str] = set()
    cell_pubs: dict[tuple[str, str], set[str]] = {}
    for pid, rid in corpus.links:
        if start <= corpus.pubs[pid][0] <= end:
            publishing.add(rid)
        cell_pubs.setdefault(cell_of[rid], set()).add(pid)
    publishing_of_sds: dict[str, int] = {s: 0 for s in corpus.sds_uda}
    for rid in publishing:
        publishing_of_sds[cell_of[rid][1]] += 1
    retained = {
        s for s, n in staff_of_sds.items() if n and publishing_of_sds[s] / n >= THRESHOLD
    }
    ref = Reference(corpus, years, retained, cell_staff)
    cells = sorted(c for c in cell_staff if c[1] in retained)  # (university, sds)
    in_period = {
        c: [p for p in sorted(cell_pubs.get(c, ())) if start <= corpus.pubs[p][0] <= end]
        for c in cells
    }

    for year in years:
        cited: dict[tuple[int, str], list[int]] = {}
        for pid in sorted(corpus.pubs):
            n = corpus.counts[pid][year]
            if n >= 1:
                pub_year, cats = corpus.pubs[pid]
                for cat, _w in cats:
                    cited.setdefault((pub_year, cat), []).append(n)
        medians = {k: float(statistics.median(v)) for k, v in cited.items()}
        impact: dict[str, float] = {}
        for pid, (pub_year, cats) in corpus.pubs.items():
            n = corpus.counts[pid][year]
            score = 0.0
            if n:
                for cat, w in cats:
                    score += w * (n / medians[(pub_year, cat)])
            impact[pid] = score

        p: dict[tuple[str, str], float] = {}
        ss: dict[tuple[str, str], float] = {}
        for c in cells:
            total = 0.0
            for pid in in_period[c]:
                total += impact[pid]
            ss[c] = total
            p[c] = total / cell_staff[c]
        by_sds: dict[str, list[tuple[str, str]]] = {}
        for univ, sds in cells:
            by_sds.setdefault(sds, []).append((univ, sds))
        p_bar = {}
        for sds in sorted(by_sds):
            group = sorted(by_sds[sds])
            p_bar[sds] = sum(ss[c] for c in group) / sum(cell_staff[c] for c in group)
            ref.scores[("sds", sds, year)] = {c[0]: p[c] for c in group}
        for uda in sorted(set(corpus.sds_uda.values())):
            by_univ: dict[str, list[tuple[str, str]]] = {}
            for c in cells:
                if corpus.sds_uda[c[1]] == uda:
                    by_univ.setdefault(c[0], []).append(c)
            values = {}
            for univ, group in sorted(by_univ.items()):
                rs_total = sum(cell_staff[c] for c in group)
                value = 0.0
                for c in sorted(group, key=lambda c: c[1]):
                    if p_bar[c[1]] != 0.0:
                        value += (p[c] / p_bar[c[1]]) * (cell_staff[c] / rs_total)
                values[univ] = value
            if values:
                ref.scores[("uda", uda, year)] = values
    ref.ranks = {key: competition_ranks(scores) for key, scores in ref.scores.items()}
    return ref


# ---------------------------------------------------------------------------
# reference top-vs-rest test


@dataclass
class NpcReference:
    """Reference partial tests (by discipline) and their Fisher combination."""

    observed: dict[str, float]
    p: dict[str, float]
    n_perm: int
    directions: dict[str, str]
    fisher_observed: float
    fisher_sorted: np.ndarray  # the combined statistic over every draw, observed included

    def combined_p_range(self, n_perm: int) -> tuple[float, float]:
        """Combined p-values within Monte Carlo error of the observed statistic.

        The Fisher statistic sums the logs of Monte Carlo p-values, so a run
        with ``n_perm`` draws places the observed statistic up to ``delta``
        away from where this reference places it, relative to the null
        draws. With discrete partial statistics the null distribution has
        atoms, and that shift alone can move an atom across the observed
        value; the answer is then anywhere between the two tail fractions.
        """
        rel = sum((1.0 - p) / max(p, 1.0 / (self.n_perm + 1)) for p in self.p.values())
        var = 4.0 * rel * (1.0 / n_perm + 1.0 / self.n_perm)
        delta = 4.0 * math.sqrt(2.0 * var)
        size = self.fisher_sorted.size

        def tail(x: float) -> float:
            return float(size - np.searchsorted(self.fisher_sorted, x, side="left")) / size

        return tail(self.fisher_observed + delta), tail(self.fisher_observed - delta)


def _group_stats(values: np.ndarray, top_idx: np.ndarray) -> np.ndarray:
    k = top_idx.shape[-1]
    top_sum = values[top_idx].sum(axis=-1)
    return top_sum / k - (values.sum() - top_sum) / (values.size - k)


def _direction(x: float) -> str:
    return "<" if x < 0 else (">" if x > 0 else "=")


def npc_reference(ref: Reference, benchmark_year: int, seed: int | list[int]) -> NpcReference:
    """Top-vs-rest test per discipline plus the Fisher combination.

    Same hypotheses as ``citewin npc``: the statistic is mean(top) -
    mean(rest) of each university's largest rank move against the benchmark
    year, and all disciplines are relabelled from one shared random ordering
    of the universities. The draws come from this module's own generator,
    so the program's p-values differ from these by Monte Carlo error only.
    """
    groups = []
    for uda in sorted({scope for (level, scope, _y) in ref.scores if level == "uda"}):
        bench = ref.scores[("uda", uda, benchmark_year)]
        members = sorted(bench)
        boundary = float(
            np.percentile(np.array([bench[u] for u in members]), TOP_PERCENTILE, method="linear")
        )
        top = [i for i, u in enumerate(members) if bench[u] > boundary]
        if not top or len(top) == len(members):
            continue
        bench_ranks = ref.ranks[("uda", uda, benchmark_year)]
        others = [y for y in ref.years if y != benchmark_year]
        values = np.array(
            [
                float(max(abs(ref.ranks[("uda", uda, y)][u] - bench_ranks[u]) for y in others))
                for u in members
            ]
        )
        groups.append((uda, members, values, np.array(top, dtype=np.intp)))

    universe = sorted({u for _uda, members, _v, _t in groups for u in members})
    position = {u: i for i, u in enumerate(universe)}
    member_pos = [np.array([position[u] for u in m], dtype=np.intp) for _g, m, _v, _t in groups]
    n_perm = REF_PERMUTATIONS
    stats = [np.empty(n_perm + 1) for _ in groups]
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_perm:
        rows = min(max(1, (1 << 20) // len(universe)), n_perm - done)
        keys = rng.random((rows, len(universe)))
        for gi, (_uda, _m, values, top) in enumerate(groups):
            k = top.size
            chosen = np.argpartition(keys[:, member_pos[gi]], k - 1, axis=1)[:, :k]
            stats[gi][done : done + rows] = _group_stats(values, chosen)
        done += rows
    for gi, (_uda, _m, values, top) in enumerate(groups):
        stats[gi][n_perm] = _group_stats(values, top[None, :])[0]

    lambdas = []
    for s in stats:
        a = np.abs(s)
        lambdas.append((a.size - np.searchsorted(np.sort(a), a, side="left")) / a.size)
    fisher = -2.0 * np.sum(np.log(lambdas), axis=0)
    observed = {g[0]: float(stats[gi][n_perm]) for gi, g in enumerate(groups)}
    directions = {uda: _direction(t) for uda, t in observed.items()}
    directions["COMBINED"] = _direction(sum(observed.values()))
    return NpcReference(
        observed=observed,
        p={g[0]: float(lambdas[gi][n_perm]) for gi, g in enumerate(groups)},
        n_perm=n_perm,
        directions=directions,
        fisher_observed=float(fisher[n_perm]),
        fisher_sorted=np.sort(fisher),
    )


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _printed_equal(text: str, value: float, decimals: int = SCORE_DECIMALS) -> bool:
    scale = 10**decimals
    return abs(round(float(text) * scale) - round(value * scale)) <= 1


def _missing_files(out_dir: Path, expected: set[str]) -> list[str]:
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    return [f"missing output {name}" for name in sorted(expected - present)]


def _csv_dicts(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_validate(ref: Reference, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"validate exit {code}, expected 0"]
    found = re.search(r"OK: (\d+) publications, (\d+) researchers", stdout)
    expected = (len(ref.corpus.pubs), len(ref.corpus.researchers))
    if not found or tuple(int(x) for x in found.groups()) != expected:
        return [f"validate reported {stdout.strip()!r}, expected counts {expected}"]
    return []


def check_reject(defect_line: int, code: int, stderr: str) -> list[str]:
    problems = []
    if code != 1:
        problems.append(f"defect corpus: exit {code}, expected 1")
    if f"citations.csv:{defect_line}" not in stderr:
        problems.append(f"defect corpus: stderr does not name citations.csv:{defect_line}")
    if "Traceback" in stderr:
        problems.append("defect corpus: traceback on stderr")
    return problems


def _check_rankings_csv(ref: Reference, path: Path, keys: list[tuple[str, str, int]]) -> list[str]:
    seen: dict[tuple[str, str, int], dict[str, tuple[str, str]]] = {}
    for row in _csv_dicts(path):
        key = (row["scope_level"], row["scope_id"], int(row["obs_year"]))
        seen.setdefault(key, {})[row["university_id"]] = (row["score"], row["rank"])
    problems = []
    if set(seen) != set(keys):
        problems.append(f"rankings.csv blocks {len(seen)}, expected {len(keys)}")
    for key in keys:
        got = seen.get(key, {})
        if set(got) != set(ref.scores[key]):
            problems.append(f"rankings.csv {key}: universities differ from the reference")
            continue
        for univ, (score, rank) in got.items():
            if int(rank) != ref.ranks[key][univ]:
                problems.append(f"rankings.csv {key} {univ}: rank {rank}, expected {ref.ranks[key][univ]}")
            if not _printed_equal(score, ref.scores[key][univ]):
                problems.append(f"rankings.csv {key} {univ}: score {score}, expected {ref.scores[key][univ]:.6f}")
        level, uda, year = key
        if level == "uda":
            staff = ref.university_staff(uda)
            mean = sum(staff[u] * float(s) for u, (s, _r) in got.items()) / sum(staff[u] for u in got)
            if abs(mean - 1.0) > 0.5 * 10**-SCORE_DECIMALS + 1e-12:
                problems.append(f"staff-weighted mean P of {uda} in {year} is {mean!r}, not 1")
    return problems[:20]


def check_rankings(ref: Reference, code: int, out_dir: Path, level: str, year: int) -> list[str]:
    if code != 0:
        return [f"rankings exit {code}, expected 0"]
    problems = _missing_files(out_dir, RANKINGS_FILES)
    keys = sorted(k for k in ref.scores if k[0] == level and k[2] == year)
    return problems or _check_rankings_csv(ref, out_dir / "rankings.csv", keys)


def check_sensitivity(ref: Reference, code: int, out_dir: Path) -> list[str]:
    if code != 0:
        return [f"sensitivity exit {code}, expected 0"]
    problems = _missing_files(out_dir, SENSITIVITY_FILES)
    return problems or _check_rankings_csv(ref, out_dir / "rankings.csv", sorted(ref.scores))


def _p_tolerance(p_ref: float, n_perm: int, n_ref: int) -> float:
    se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / n_perm + 1.0 / n_ref))
    return 4.0 * se + P_SLACK


def check_npc(ref: NpcReference, code: int, out_dir: Path, n_perm: int) -> list[str]:
    if code != 0:
        return [f"npc exit {code}, expected 0"]
    problems = _missing_files(out_dir, NPC_FILES)
    if problems:
        return problems
    rows = {row["uda_id"]: row for row in _csv_dicts(out_dir / "npc_results.csv")}
    if set(rows) != set(ref.p) | {"COMBINED"}:
        return [f"npc_results.csv disciplines {sorted(rows)}, expected {sorted(ref.p)} + COMBINED"]
    lo_sum = hi_sum = 0.0
    for uda, row in rows.items():
        if row["direction"] != ref.directions[uda]:
            problems.append(f"npc {uda}: direction {row['direction']}, expected {ref.directions[uda]}")
        p = float(row["p_value"])
        if uda == "COMBINED":
            lo, hi = ref.combined_p_range(n_perm)
            lo -= _p_tolerance(lo, n_perm, ref.n_perm)
            hi += _p_tolerance(hi, n_perm, ref.n_perm)
            if not lo <= p <= hi:
                problems.append(f"npc COMBINED: p {row['p_value']}, reference range [{lo:.6f}, {hi:.6f}]")
            continue
        p_ref = ref.p[uda]
        tol = _p_tolerance(p_ref, n_perm, ref.n_perm)
        if abs(p - p_ref) > tol:
            problems.append(f"npc {uda}: p {row['p_value']}, reference {p_ref:.6f} +- {tol:.6f}")
        if not _printed_equal(row["observed_stat"], ref.observed[uda]):
            problems.append(f"npc {uda}: observed_stat {row['observed_stat']}, expected {ref.observed[uda]:.6f}")
        # the combined statistic is -2 sum(log p) of the program's own Monte
        # Carlo p-values, so it can only be bounded through their tolerances
        lo_sum += math.log(min(1.0, p_ref + tol))
        hi_sum += math.log(max(1.0 / (n_perm + 1), p_ref - tol))
    combined = float(rows["COMBINED"]["observed_stat"])
    slack = 10**-SCORE_DECIMALS
    if not (-2.0 * lo_sum - slack <= combined <= -2.0 * hi_sum + slack):
        problems.append(
            f"npc COMBINED: statistic {combined}, outside [{-2 * lo_sum:.6f}, {-2 * hi_sum:.6f}]"
        )
    return problems
