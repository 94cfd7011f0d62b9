"""Reproducible synthetic corpus generator.

Publication counts are Poisson per researcher-year scaled by a lognormal
researcher quality; citation increments per calendar year are Poisson
with mean quality * profile[age], where the per-category accrual profile
models fast- or slow-maturing fields. With a fixed config and seed the
five CSV files are byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import MissingInputError, ParseError


@dataclass(frozen=True)
class SynthConfig:
    n_universities: int
    staff_range: tuple[int, int]  # staff per (university, SDS), inclusive bounds
    udas: Mapping[str, tuple[str, ...]]  # uda_id -> sds ids
    pub_period: tuple[int, int]
    observation_years: tuple[int, ...]
    pub_rate: float  # Poisson mean of publications per researcher-year (x quality)
    profiles: Mapping[str, tuple[float, ...]]  # name -> citation-rate multiplier by age
    sds_profiles: Mapping[str, str] = field(default_factory=dict)  # sds -> profile name
    default_profile: str = "default"
    quality_mu: float = 0.0
    quality_sigma: float = 0.5
    coauthor_rate: float = 0.1  # chance of one extra author from another university
    multi_category_rate: float = 0.0  # chance of a second category at weight 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n_universities < 1:
            raise ValueError("need at least one university")
        if not self.udas or any(not sds for sds in self.udas.values()):
            raise ValueError("every discipline needs at least one SDS")
        lo, hi = self.staff_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad staff range {self.staff_range}")
        start, end = self.pub_period
        if start > end:
            raise ValueError(f"empty publication period {self.pub_period}")
        if not self.observation_years:
            raise ValueError("need at least one observation year")
        if min(self.observation_years) < end:
            raise ValueError("observation years must not precede the publication period end")
        if self.pub_rate < 0 or self.coauthor_rate < 0 or self.multi_category_rate < 0:
            raise ValueError("rates must be nonnegative")
        if self.quality_sigma < 0:
            raise ValueError("quality sigma must be nonnegative")
        for name, profile in self.profiles.items():
            if not profile or any(r < 0 for r in profile):
                raise ValueError(f"profile {name!r} must be nonempty with nonnegative rates")
        for sds in self.sds_ids():
            if self.profile_for(sds) is None:
                raise ValueError(f"no accrual profile for SDS {sds!r}")

    def sds_ids(self) -> tuple[str, ...]:
        return tuple(sorted(s for group in self.udas.values() for s in group))

    def profile_for(self, sds_id: str) -> tuple[float, ...] | None:
        return self.profiles.get(self.sds_profiles.get(sds_id, self.default_profile))

    @staticmethod
    def from_dict(raw: Mapping) -> "SynthConfig":
        try:
            return SynthConfig(
                n_universities=int(raw["n_universities"]),
                staff_range=(int(raw["staff_range"][0]), int(raw["staff_range"][1])),
                udas={u: tuple(map(_name, s)) for u, s in raw["udas"].items()},
                pub_period=(int(raw["pub_period"][0]), int(raw["pub_period"][1])),
                observation_years=tuple(int(y) for y in raw["observation_years"]),
                pub_rate=float(raw["pub_rate"]),
                profiles={n: tuple(float(x) for x in p) for n, p in raw["profiles"].items()},
                sds_profiles={s: _name(p) for s, p in raw.get("sds_profiles", {}).items()},
                default_profile=_name(raw.get("default_profile", "default")),
                quality_mu=float(raw.get("quality_mu", 0.0)),
                quality_sigma=float(raw.get("quality_sigma", 0.5)),
                coauthor_rate=float(raw.get("coauthor_rate", 0.1)),
                multi_category_rate=float(raw.get("multi_category_rate", 0.0)),
                seed=int(raw.get("seed", 0)),
            )
        except (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad synthetic-corpus config: {exc!r}") from exc

    @staticmethod
    def from_file(path: str | Path) -> "SynthConfig":
        path = Path(path)
        if not path.is_file():
            raise MissingInputError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
        return SynthConfig.from_dict(raw)


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a name, got {value!r}")
    return value


def category_of(sds_id: str) -> str:
    return f"CAT_{sds_id}"


def generate(config: SynthConfig, out_dir: str | Path, seed: int | None = None) -> Path:
    """Write a five-file corpus directory; returns the directory path.

    Iteration order is fixed (sorted universities, SDSs, researchers), so
    output bytes depend only on (config, seed).
    """
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

    _write_csv(out / "fields.csv", ["sds_id", "uda_id"], [[s, sds_uda[s]] for s in sds_list])
    _write_csv(
        out / "researchers.csv",
        ["researcher_id", "university_id", "sds_id"],
        [[r, u, s] for r, u, s in sorted(researchers)],
    )
    _write_csv(
        out / "publications.csv",
        ["pub_id", "pub_year", "categories"],
        [[p, str(y), c] for p, y, c in sorted(pubs)],
    )
    _write_csv(
        out / "authorship.csv",
        ["pub_id", "researcher_id"],
        [[p, r] for p, r in sorted(set(authorship))],
    )
    _write_csv(
        out / "citations.csv",
        ["pub_id", "obs_year", "cum_citations"],
        [[p, str(y), str(c)] for p, y, c in sorted(citation_rows)],
    )
    return out


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
