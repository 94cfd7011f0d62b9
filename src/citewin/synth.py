"""Reproducible synthetic corpus generator.

Publication counts are Poisson per researcher-year scaled by a lognormal
researcher quality; citation increments per calendar year are Poisson
with mean quality * profile[age], where the per-category accrual profile
models fast- or slow-maturing fields. With a fixed config and seed the
five CSV files are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import MissingInputError, ParseError
from .ingest import _ID, FILES


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
        sds = [s for group in self.udas.values() for s in group]
        if bad := [name for name in (*self.udas, *sds) if not re.fullmatch(_ID, name)]:
            raise ValueError(f"udas: name {bad[0]!r} does not match {_ID}")
        for what, values in ("udas: SDS", sds), ("observation_years: year", self.observation_years):
            if twice := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ValueError(f"{what} {twice[0]!r} is listed more than once")
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
        self._check_fields()
        if self.pub_rate < 0 or self.coauthor_rate < 0 or self.multi_category_rate < 0:
            raise ValueError("rates must be nonnegative")
        if self.quality_sigma < 0:
            raise ValueError("quality sigma must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name, profile in self.profiles.items():
            if not profile or any(r < 0 for r in profile):
                raise ValueError(f"profile {name!r} must be nonempty with nonnegative rates")
        for sds in self.sds_ids():
            if self.profile_for(sds) is None:
                raise ValueError(f"no accrual profile for SDS {sds!r}")

    def _check_fields(self) -> None:
        """Reject a profile of an SDS that no UDA lists, or a non-finite float, naming the field."""
        if stray := self.sds_profiles.keys() - self.sds_ids():
            raise ValueError(f"sds_profiles: SDS {min(stray)!r} is not listed in udas")
        values = [(name, getattr(self, name)) for name in _FLOATS]
        values += [(f"profile {name!r}", r) for name, p in self.profiles.items() for r in p]
        if bad := [(name, value) for name, value in values if not math.isfinite(value)]:
            raise ValueError(f"{bad[0][0]} must be a finite number, got {bad[0][1]}")

    def sds_ids(self) -> tuple[str, ...]:
        return tuple(sorted(s for group in self.udas.values() for s in group))

    def profile_for(self, sds_id: str) -> tuple[float, ...] | None:
        return self.profiles.get(self.sds_profiles.get(sds_id, self.default_profile))

    @staticmethod
    def from_dict(raw: Mapping) -> "SynthConfig":
        try:
            parsed = {}
            for key, value in raw.items():
                if key not in _PARSERS:
                    raise ValueError(f"unknown key {key!r}")
                try:
                    parsed[key] = _PARSERS[key](value)
                except (TypeError, AttributeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{key}: {exc}") from exc
            config = SynthConfig(**parsed)
            config._check_fields()  # so the message names the config, as a bad type's does
            return config
        except (TypeError, AttributeError, ValueError, OverflowError) as exc:
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


def _typed(types: tuple[type, ...], what: str):
    """A parser that takes a value of one of `types`, never a bool, as the first of them."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"expected {what}, got {value!r}")
        return types[0](value)
    return parse


_name, _int = _typed((str,), "a name"), _typed((int,), "an integer")
_list, _float = _typed((list, tuple), "a list"), _typed((float, int), "a number")


def _pair(value) -> tuple[int, int]:
    if len(_list(value)) != 2:
        raise ValueError(f"expected two entries, got {value!r}")
    return _int(value[0]), _int(value[1])


_FLOATS = ("pub_rate", "quality_mu", "quality_sigma", "coauthor_rate", "multi_category_rate")
_PARSERS = {  # one per SynthConfig field; an absent optional field keeps its default
    "n_universities": _int,
    "staff_range": _pair,
    "udas": lambda udas: {u: tuple(map(_name, _list(s))) for u, s in udas.items()},
    "pub_period": _pair,
    "observation_years": lambda years: tuple(map(_int, _list(years))),
    "profiles": lambda profiles: {n: tuple(map(_float, _list(p))) for n, p in profiles.items()},
    "sds_profiles": lambda names: {s: _name(p) for s, p in names.items()},
    "default_profile": _name,
    "seed": _int,
    **dict.fromkeys(_FLOATS, _float),
}


def category_of(sds_id: str) -> str:
    return f"CAT_{sds_id}"


def generate(config: SynthConfig, out_dir: str | Path, seed: int | None = None) -> Path:
    """Write a five-file corpus directory; returns the directory path.

    Draws come in a fixed order (sorted universities, SDSs, researchers), so
    output bytes depend only on (config, seed). Each row is formatted once, as
    it is drawn; a publication's rows in each file form one block.
    """
    config.validate()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    integers, random, poisson = rng.integers, rng.random, rng.poisson

    sds_list = config.sds_ids()
    lo, hi = config.staff_range
    rids, researchers = [], []  # researcher ids; researchers.csv rows
    universities = []  # per university: (index of its first researcher, [(sds, ids, qualities)])
    for u in range(1, config.n_universities + 1):
        univ, groups = f"U{u:03d}", []
        universities.append((len(rids), groups))
        for sds in sds_list:
            staff = int(integers(lo, hi + 1))
            qualities = rng.lognormal(config.quality_mu, config.quality_sigma, size=staff).tolist()
            group = [f"{univ}-{sds}-{i:03d}" for i in range(1, staff + 1)]
            groups.append((sds, group, qualities))
            rids += group
            researchers += [f"{rid},{univ},{sds}" for rid in group]

    years = range(config.pub_period[0], config.pub_period[1] + 1)
    obs_years = sorted(config.observation_years)
    max_obs = obs_years[-1]
    # citation rows of a publication from year y; running[t - y] is its count by year t
    citation_rows = {y: "\n".join(f"{{0}},{t},{{1[{t - y}]}}" for t in obs_years) for y in years}
    pubs, authors, citations = [], [], []  # one block of rows per publication in each file
    add_pub, add_author, add_citation = pubs.append, authors.append, citations.append
    multi_rate, co_rate = config.multi_category_rate, config.coauthor_rate
    counter = 0
    for first, groups in universities:
        # coauthors come from outside this university's researchers rids[first:last]
        last = first + sum(len(group) for _s, group, _q in groups)
        n_other = len(rids) - (last - first)
        for sds, group, qualities in groups:
            profile, category = config.profile_for(sds), category_of(sds)
            rates = [profile[min(age, len(profile) - 1)] for age in range(max_obs - years[0] + 1)]
            by_year = [(year, rates[:max_obs - year + 1], citation_rows[year]) for year in years]
            for rid, q in zip(group, qualities):
                for year, year_rates, rows in by_year:
                    means = [q * rate for rate in year_rates]  # citation increments by age
                    try:
                        n_pubs = poisson(config.pub_rate * q)
                    except ValueError as exc:  # numpy draws no Poisson mean above about 9.2e18
                        raise ValueError(f"bad synthetic-corpus config: pub_rate {config.pub_rate}"
                                         " is too large for numpy's Poisson sampler") from exc
                    for _ in range(n_pubs):
                        counter += 1
                        pid = f"P{counter:06d}"
                        categories = category
                        if multi_rate > 0 and random() < multi_rate:
                            other = sds_list[integers(len(sds_list))]
                            if other != sds:
                                categories = f"{category}:0.5;{category_of(other)}:0.5"
                        add_pub(f"{pid},{year},{categories}")
                        if n_other and co_rate > 0 and random() < co_rate:
                            j = int(integers(n_other))  # the j-th researcher outside the block
                            co = rids[j if j < first else j + last - first]
                            add_author(f"{pid},{min(rid, co)}\n{pid},{max(rid, co)}")
                        else:
                            add_author(f"{pid},{rid}")
                        try:
                            add_citation(rows.format(pid, [*accumulate(map(poisson, means))]))
                        except ValueError as exc:
                            name = config.sds_profiles.get(sds, config.default_profile)
                            raise ValueError(f"bad synthetic-corpus config: profile {name!r} has a"
                                             " rate too large for numpy's Poisson sampler") from exc

    out = Path(out_dir)  # made only once every draw has succeeded
    out.mkdir(parents=True, exist_ok=True)
    fields = [f"{s},{uda}" for uda, group in config.udas.items() for s in group]
    tables = {"fields.csv": fields, "researchers.csv": researchers, "publications.csv": pubs,
              "authorship.csv": authors, "citations.csv": citations}
    for name, blocks in tables.items():
        _write_rows(out / name, ",".join(column for column, _kind in FILES[name]), blocks)
    return out


def _write_rows(path: Path, header: str, blocks: list[str]) -> None:
    """Write blocks of rows in key order: each starts with its key and a comma, which sorts below
    every id character, so P100000 < P1000000 < P100001 as strings and as keys. P{n:06d} ids
    follow generation order only below one million; `sorted` is linear on sorted input."""
    path.write_text("\n".join([header, *sorted(blocks)]) + "\n", encoding="utf-8")
