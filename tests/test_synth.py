"""Synthetic corpus generation: determinism, validity, accrual dynamics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from citewin.errors import MissingInputError, ParseError
from citewin.impact import compute_median_table
from citewin.ingest import load_corpus, representativity_filter
from citewin.synth import SynthConfig, category_of, generate

from conftest import stability_config
from oracles import compute_cells, rank_universities, sds_scores, spearman_rho

BASE = dict(
    n_universities=5,
    staff_range=[2, 4],
    udas={"UA": ["S1", "S2"], "UB": ["S3"]},
    pub_period=[2001, 2003],
    observation_years=[2004, 2005, 2006],
    pub_rate=1.0,
    profiles={"default": [0.5, 1.0, 0.8]},
    seed=7,
)


def config(**overrides) -> SynthConfig:
    raw = dict(BASE)
    raw.update(overrides)
    return SynthConfig.from_dict(raw)


def read_all(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


def test_generation_is_byte_deterministic(tmp_path):
    a = generate(config(), tmp_path / "a")
    b = generate(config(), tmp_path / "b")
    assert read_all(a) == read_all(b)


def test_seed_changes_output(tmp_path):
    a = generate(config(), tmp_path / "a")
    b = generate(config(), tmp_path / "b", seed=99)
    assert read_all(a) != read_all(b)


@pytest.mark.parametrize("seed", range(5))
def test_generated_corpora_load_cleanly(tmp_path, seed):
    root = generate(config(), tmp_path / f"c{seed}", seed=seed)
    corpus = load_corpus(root)
    assert len(corpus.publications) > 0
    # citations recorded for every observation year
    for pub in corpus.publications.values():
        assert set(pub.citation_counts) == {2004, 2005, 2006}


def test_zero_profile_means_zero_scores(tmp_path):
    root = generate(config(profiles={"default": [0.0]}), tmp_path / "zero")
    corpus = load_corpus(root)
    assert all(
        count == 0 for p in corpus.publications.values() for count in p.citation_counts.values()
    )
    table = compute_median_table(corpus, 2006)
    assert table.medians == {}
    cells = compute_cells(corpus, corpus.taxonomy.sds_ids, (2001, 2003), 2006, table)
    assert all(cell.ss == 0.0 and cell.p == 0.0 for cell in cells.values())


def test_multi_category_weights_parse(tmp_path):
    root = generate(config(multi_category_rate=0.5, seed=3), tmp_path / "mc")
    corpus = load_corpus(root)
    weighted = [
        p for p in corpus.publications.values() if len(p.category_weights) == 2
    ]
    assert weighted, "expected some two-category publications"
    assert all(w == 0.5 for p in weighted for _c, w in p.category_weights)


def test_config_validation():
    with pytest.raises(ValueError):
        config(n_universities=0).validate()
    with pytest.raises(ValueError):
        config(staff_range=[3, 2]).validate()
    with pytest.raises(ValueError):
        config(observation_years=[2002]).validate()
    with pytest.raises(ValueError):
        config(profiles={"default": []}).validate()
    with pytest.raises(ValueError):
        config(pub_rate=-1).validate()
    with pytest.raises(ValueError):
        config(sds_profiles={"S1": "missing"}).validate()
    with pytest.raises(ValueError, match="seed"):
        config(seed=-1).validate()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    cfg = SynthConfig.from_file(path)
    assert cfg == config()
    with pytest.raises(MissingInputError):
        SynthConfig.from_file(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        SynthConfig.from_file(bad)


def test_fast_profiles_stabilize_earlier_than_slow(tmp_path):
    """Fields whose citations arrive early settle their rankings sooner.

    Aggregated over 20 seeds, the mean first-window-vs-benchmark rank
    correlation in fast-accrual fields must exceed the slow-accrual one.
    """
    raw = dict(
        n_universities=10,
        staff_range=[3, 6],
        udas={"UF": ["F1", "F2"], "US": ["L1", "L2"]},
        pub_period=[2001, 2003],
        observation_years=[2004, 2005, 2006, 2007, 2008],
        pub_rate=1.2,
        profiles={"fast": [1.0, 0.5, 0.2, 0.1, 0.05], "slow": [0.1, 0.3, 0.6, 0.8, 1.0]},
        sds_profiles={"F1": "fast", "F2": "fast", "L1": "slow", "L2": "slow"},
        quality_sigma=0.7,
    )
    fast_rhos, slow_rhos = [], []
    for seed in range(20):
        root = generate(SynthConfig.from_dict(raw), tmp_path / f"s{seed}", seed=seed)
        corpus = load_corpus(root)
        retained = representativity_filter(corpus, (2001, 2003), 0.5).retained_sds()
        rankings = {}
        for year in (2004, 2008):
            table = compute_median_table(corpus, year)
            cells = compute_cells(corpus, retained, (2001, 2003), year, table)
            for sds in sorted(retained):
                scores = sds_scores(cells, sds)
                if len(scores) >= 2:
                    rankings[(sds, year)] = rank_universities(scores, "sds", sds, year)
        for sds in sorted(retained):
            if (sds, 2004) not in rankings or (sds, 2008) not in rankings:
                continue
            rho = spearman_rho(rankings[(sds, 2004)], rankings[(sds, 2008)])
            if rho is None:
                continue
            (fast_rhos if sds.startswith("F") else slow_rhos).append(rho)
    assert np.mean(fast_rhos) > np.mean(slow_rhos)


def test_stability_config_produces_usable_corpora(tmp_path):
    root = generate(stability_config(), tmp_path / "stab", seed=0)
    corpus = load_corpus(root)
    report = representativity_filter(corpus, (2001, 2003), 0.5)
    assert report.retained_sds() == set(corpus.taxonomy.sds_ids)
    assert category_of("SA1") == "CAT_SA1"
