"""Synthetic corpus generation: determinism, validity, accrual dynamics."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citewin.errors import MissingInputError, ParseError
from citewin.impact import compute_median_table
from citewin.ingest import load_corpus, representativity_filter
from citewin.synth import SynthConfig, _write_rows, category_of, generate

from conftest import small_null_config, stability_config
from oracles import (
    compute_cells,
    generate_reference,
    publications,
    rank_universities,
    sds_scores,
    spearman_rho,
    write_rows_csv,
)

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
    pubs = publications(load_corpus(root))
    assert len(pubs) > 0
    # citations recorded for every observation year
    for pub in pubs.values():
        assert set(pub.citation_counts) == {2004, 2005, 2006}


def test_zero_profile_means_zero_scores(tmp_path):
    root = generate(config(profiles={"default": [0.0]}), tmp_path / "zero")
    corpus = load_corpus(root)
    pubs = publications(corpus)
    assert all(
        count == 0 for p in pubs.values() for count in p.citation_counts.values()
    )
    table = compute_median_table(pubs, 2006)
    assert table.medians == {}
    cells = compute_cells(corpus, corpus.sds_ids.tolist(), (2001, 2003), 2006, table)
    assert all(cell.ss == 0.0 and cell.p == 0.0 for cell in cells.values())


def test_multi_category_weights_parse(tmp_path):
    root = generate(config(multi_category_rate=0.5, seed=3), tmp_path / "mc")
    weighted = [
        p for p in publications(load_corpus(root)).values() if len(p.category_weights) == 2
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
    for field, value in (("pub_rate", "nan"), ("quality_sigma", "inf"), ("coauthor_rate", "nan"),
                         ("multi_category_rate", "-inf"), ("quality_mu", "nan")):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {value}$"):
            dataclasses.replace(config(), **{field: float(value)}).validate()
    with pytest.raises(ValueError, match="^profile 'default' must be a finite number, got inf$"):
        dataclasses.replace(config(), profiles={"default": (1.0, math.inf)}).validate()


def test_directly_built_config_with_a_profile_of_an_unlisted_sds_writes_nothing(tmp_path):
    stray = dataclasses.replace(config(), sds_profiles={"ZZ": "default"})
    with pytest.raises(ValueError, match="^sds_profiles: SDS 'ZZ' is not listed in udas$"):
        stray.validate()
    with pytest.raises(ValueError, match="^sds_profiles: SDS 'ZZ' is not listed in udas$"):
        generate(stray, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"pub_rate": 1e300}, "pub_rate 1e+300 is too large"),
    ({"profiles": {"default": [0.5, 1e300, 0.8]}}, "profile 'default' has a rate too large"),
    ({"profiles": {"default": [0.5], "slow": [1e25]}, "sds_profiles": {"S3": "slow"}},
     "profile 'slow' has a rate too large"),
], ids=["pub_rate", "default_profile", "profile_of_one_sds"])
def test_rates_too_large_to_draw_name_the_field_and_write_nothing(tmp_path, overrides, message):
    # finite, so validate accepts them, but numpy draws no Poisson mean above about 9.2e18
    with pytest.raises(ValueError, match=f"^bad synthetic-corpus config: {re.escape(message)} "):
        generate(config(**overrides), tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


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


def test_config_reads_every_field():
    full = dataclasses.replace(
        config(), profiles={"default": (0.5, 1.0), "fast": (1.0,)}, sds_profiles={"S1": "fast"},
        default_profile="default", quality_mu=0.25, quality_sigma=0.7, coauthor_rate=0.3,
        multi_category_rate=0.2, seed=3)
    raw = json.loads(json.dumps(dataclasses.asdict(full)))
    assert raw.keys() == {f.name for f in dataclasses.fields(SynthConfig)}
    assert SynthConfig.from_dict(raw) == full


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
        report = representativity_filter(corpus, (2001, 2003), 0.5)
        retained = report.sds_ids[report.retained].tolist()
        rankings, pubs = {}, publications(corpus)
        for year in (2004, 2008):
            table = compute_median_table(pubs, year)
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
    assert set(report.sds_ids[report.retained].tolist()) == set(corpus.sds_ids.tolist())
    assert category_of("SA1") == "CAT_SA1"


# ---------------------------------------------------------------------------
# the generated bytes: pinned digests and the tuple-per-row reference generator

SYNTH_FILES = ("fields.csv", "researchers.csv", "publications.csv", "authorship.csv",
               "citations.csv")
PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def perfbench_config(name: str, n_universities: int) -> SynthConfig:
    raw = json.loads((PERFBENCH_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    return SynthConfig.from_dict({**raw, "n_universities": n_universities})


PINNED_CONFIGS = {
    "stability": stability_config,
    "small_null": small_null_config,
    "base": config,
    "mid@4": lambda: perfbench_config("mid", 4),
    "national@3": lambda: perfbench_config("national", 3),
}

SYNTH_SHA256 = {  # fields.csv, researchers.csv, publications.csv, authorship.csv, citations.csv
    ("stability", 1): (
        "b4dc3eb1686e42312dca568a9df1944ce1ad0b1a238f039b30f73c6fd1b99724",
        "4d9b7afda780619e8e7eb7799b8a7653bea69633b8e8e9e01b7186c7d10b5522",
        "bb21c9864031af961d0a74b86af42900aea4b1d0ed2ace80ce6eef5579e43faf",
        "1183684623fcb54acc96b11bb9363ca9c043a9a5f51b77eb2b05b56b0823bd66",
        "0b7181310d46d3a63e7740d7ddcfe3f82aac8288ef82c3430a52794b0e6456df",
    ),
    ("stability", 2): (
        "b4dc3eb1686e42312dca568a9df1944ce1ad0b1a238f039b30f73c6fd1b99724",
        "ef4e0942cec22303827da46ef3e434ba2ec6d930b0046951cac89f12e9e2525b",
        "c613cdd7eb0fb88e6d98defe09ecd316b9a9f04058cd0d1319074e3c87b2ab3e",
        "02d3c0b02a66c8983025a6970f24dbd20fa8e1442b71733c8054d35f9a476b2c",
        "f89735737c5b5697de29d138da2fa81183df5b8348852f4a1f6c63b31a1bf32f",
    ),
    ("stability", 3): (
        "b4dc3eb1686e42312dca568a9df1944ce1ad0b1a238f039b30f73c6fd1b99724",
        "645a3797fa13c5622c39f4975599f9a9d0dfa7179bb3e0e17a84aab55f4bde63",
        "158d20d25878fa903d820a10cd72930c2a3b5b8b02b174f63322d0d380b10ccf",
        "0e4e2e9f2d71347df45f93a70164a0929cc74ffe530727e65df0c61bddac3e01",
        "ed4b09e8d01db4bae86fb83c957f4fd3bc92be316de5d3392fcd2b443597f3de",
    ),
    ("small_null", 1): (
        "98a189d423e8fae861f5dcde4292b4e515b4f2e63f828ac80dbcbe80a741ec58",
        "00c759e1753cc1ae486c62788693b284e23580550c9810c2388d93e1b309819e",
        "f37879c3f216a35d9525cdca3ec8919091222a566e15ec11461d3c6eac8aaf9f",
        "57686af79f17e35fad9172bc0a58989ea56e9986fc954dea111b8486ccd93dad",
        "2711a3a20d0ca15fafdc3535dde161543da7255031692117f6f90e9d73894f5c",
    ),
    ("small_null", 2): (
        "98a189d423e8fae861f5dcde4292b4e515b4f2e63f828ac80dbcbe80a741ec58",
        "3a773cdc4fd7fb1aaff681c29d06d6d116b039cb9e6201ad2d373300f456d819",
        "2a57da810560bc4607e04124cb7c39154e05923eaacc764c09a0efd83c3ecdbb",
        "2c848886ff247fe625144559e7cbe91a22ee70178024a094a047b7ef582f2a46",
        "104d675ead1e0e92360236982f6661e81d6d7c2ce73e3a40ae9eb70fe11fe15e",
    ),
    ("small_null", 3): (
        "98a189d423e8fae861f5dcde4292b4e515b4f2e63f828ac80dbcbe80a741ec58",
        "1ca8151fcf888e7bbf9d2aa41f7d68e622d29c91f528e522e87cf44999793874",
        "2b465545e4c62beb7fcbc0532f5c1bac8e3c775090163b59504e40982145fbba",
        "3c94629cccdf0861098ef10ed482571e80c00a80d3ae9ff3e891bb5db6c11118",
        "af480cf927d4aad893981a54e6764dfdf7aaf920af08fdb502d71ec16f800b99",
    ),
    ("base", 1): (
        "29c86596521d8f34bb278411b4bc1c9bed7bb14d7244c3bd29f2f015c3ef87d6",
        "eba581795a61b566c99b36b7cf1b7cde06eb79bb36350f266f1752927d211e56",
        "2f31bd0d2def6586e4e7ca437a1747b62c2594e14d287b27216316ac441335f5",
        "43a13c2882d477cf3bd26bd85a2c77d063d493b9437ccdd8108da54f4413644a",
        "129ab116d7a47c57b235b22531348eed703f0ecce0ea366840ade20d12ffc57e",
    ),
    ("base", 2): (
        "29c86596521d8f34bb278411b4bc1c9bed7bb14d7244c3bd29f2f015c3ef87d6",
        "d99f1b94db0ac6e928b15657eedbd14d19e729daef3740c1a0dbd106297c55dc",
        "9e17d2700a78e5cd75fa93790c0d01cb32c4ad10b7934715494adfc5a59545ec",
        "524a5ddca8cd388c033953f79451c13869a719edb5432382cdde4ca8ef1328ac",
        "6bcae9e91b722e3a8fee6f662652f8008dae75583c0f5bfe09c23dec43747917",
    ),
    ("base", 3): (
        "29c86596521d8f34bb278411b4bc1c9bed7bb14d7244c3bd29f2f015c3ef87d6",
        "26f394a9ae584615f594632425e41a8db1946051c85ad187a4df44c1ad2136f4",
        "9daae8d8ef235888ca452895026d2566abaabc238d96d615f987af74d9df3041",
        "c1ed9fa8dc501ecf1de1eff35fc22a09cd705f763b5672135f75379edba4554e",
        "bec31cd53d10c39568bbc958fc89e3fe6aed7a3db7beda40bbecbd41fd25052a",
    ),
    ("mid@4", 1): (
        "8c2765eb8d90d96ed5119ab412822a2db1aaca13c15c2dbfa1e034448b523922",
        "9b8791f5d6dbd78657415c9e7a41cb7e8bc04af0ad36644e3be3591cbf79e87b",
        "63dcc61dd7a7185df4655ae0994b3e6bb32e3812b0b4bd78a682634a0ce2396c",
        "ef9a71085944b54d9c4936c1abcd9c8b90b1917ec47344c083449b770cf10415",
        "4307b800cdcf1b5977681d9711791190e6bf55e69403dabdcbbc56c88dd7acdd",
    ),
    ("mid@4", 2): (
        "8c2765eb8d90d96ed5119ab412822a2db1aaca13c15c2dbfa1e034448b523922",
        "75e1c732b13d36c051d12be57e1d000a9ed3b429422c9eedfe59d596f226382e",
        "432136674065a8571ddae7985bd150ccd7ec2a0c7f8171966cbc0c0a2f5bf815",
        "58783585179a5965faef1ad025ae79f05a902111b00c3825dad9478f6d72dad3",
        "5d49cafd09779dd7c9abb4277226214883192f6fc8f71760ff0ed05e29577ed8",
    ),
    ("mid@4", 3): (
        "8c2765eb8d90d96ed5119ab412822a2db1aaca13c15c2dbfa1e034448b523922",
        "145599da63b000ecb88783df03dc15839950fea058105b91545f81c5d1a9bd70",
        "e67e4bd68747de1c39f3033a621430eb333299a29493a9ecf37f79f386eafe22",
        "3aaf7e5d05b14049f43a27c34f2a577ee459e14f847749f837c073f089c6479c",
        "2302e18883a9b3398919ea475385c434b8d87fb4e341e751729c08065333b8e1",
    ),
    ("national@3", 1): (
        "f24fe84bcd0fa2e93c6b550b50879b9dd5c5419a87337606ae2b92f542c44c25",
        "5f2e0967bfd510fd90b5889d56a39ec7170df92d5773d7f00ac7a28cd20e2f20",
        "df2339ae3a19de84b1130784c1167ca1d5d565336e7efac090ddc511ff7db9a8",
        "ea603c02d7c8ce9ded35d7e037779da1c7d1b4039a45419afa7e271a9d4168f1",
        "ae194a38a72b965e9e0b5ca2a65901a74ba1e09e1d9ba2d934cf80cab38c9b1c",
    ),
    ("national@3", 2): (
        "f24fe84bcd0fa2e93c6b550b50879b9dd5c5419a87337606ae2b92f542c44c25",
        "f6819ad91d798780e4bdfb3c2227010c7c09c7c3cc18d5ce51e15b5ac68bd296",
        "d204dbe218a904319c246ce6c64c4d58a3cd4565aeea6a9425b773a486c8c982",
        "1b6fc05065188fbaa97b0639f831a3d54c61a312b72b44c681846295f1ed53fa",
        "c620a639b46b6633712ea3d7ba33a78113ca77a018363c7c7b89fbc69528940b",
    ),
    ("national@3", 3): (
        "f24fe84bcd0fa2e93c6b550b50879b9dd5c5419a87337606ae2b92f542c44c25",
        "79d949d939e1fa6ddfb28f60958b12f86200d95efeee21660a3a199cccbb415c",
        "6adc60fc15bec7e7db3d0848f1e05c937b7ee412d9fd79b396e4e7fd1420a804",
        "f2700b7e4c8d75b938c64638ff190341bae5327b7892209b662e27a6bfbb5194",
        "3e80b086947715e648039c1e9520613ef4511caceee3442a95079fe4986697e7",
    ),
}


@pytest.mark.parametrize("name, seed", list(SYNTH_SHA256), ids=lambda v: str(v))
def test_synth_bytes_frozen(tmp_path, name, seed):
    root = generate(PINNED_CONFIGS[name](), tmp_path / "corpus", seed=seed)
    digests = {f: hashlib.sha256((root / f).read_bytes()).hexdigest() for f in SYNTH_FILES}
    assert digests == dict(zip(SYNTH_FILES, SYNTH_SHA256[(name, seed)]))


def assert_same_bytes_as_reference(cfg: SynthConfig, seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fast = generate(cfg, Path(tmp) / "fast", seed=seed)
        reference = generate_reference(cfg, Path(tmp) / "reference", seed=seed)
        assert sorted(p.name for p in fast.iterdir()) == sorted(SYNTH_FILES)
        for name in SYNTH_FILES:
            assert (fast / name).read_bytes() == (reference / name).read_bytes(), name


EDGE_CASES = {
    "one_university": dict(n_universities=1, coauthor_rate=0.5, multi_category_rate=0.5),
    "no_coauthors": dict(coauthor_rate=0.0, multi_category_rate=0.3),
    "no_second_categories": dict(multi_category_rate=0.0, coauthor_rate=0.6),
    "always_second_category": dict(multi_category_rate=1.0, coauthor_rate=0.6),
    "one_researcher_each": dict(staff_range=[1, 1], coauthor_rate=0.9),
    "no_publications": dict(pub_rate=0.0),
    "unsorted_observation_years": dict(observation_years=[2006, 2004, 2005]),
    "profile_shorter_than_oldest_age": dict(profiles={"default": [0.4, 1.3]}),
    "many_universities": dict(n_universities=40, staff_range=[1, 2], pub_rate=0.3,
                              coauthor_rate=1.0),
    "prefix_sds_names": dict(udas={"UA": ["A", "A-0", "A/B"], "U-B": ["A0", "B_1"]},
                             coauthor_rate=0.5, multi_category_rate=0.5),
}


@pytest.mark.parametrize("overrides", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_generate_matches_reference_on_edge_cases(overrides, seed):
    assert_same_bytes_as_reference(config(**overrides), seed)


_NAMES = st.text(alphabet="AB0_/-", min_size=1, max_size=3)


@st.composite
def synth_configs(draw):
    sds = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    n_udas = draw(st.integers(1, len(sds)))
    uda_names = draw(st.lists(_NAMES, min_size=n_udas, max_size=n_udas, unique=True))
    udas = {u: sds[i::n_udas] for i, u in enumerate(uda_names)}
    start = draw(st.integers(1998, 2002))
    end = start + draw(st.integers(0, 2))
    lo = draw(st.integers(1, 3))
    rate = st.floats(0, 2, allow_nan=False)
    profiles = {"default": draw(st.lists(rate, min_size=1, max_size=6)),
                "other": draw(st.lists(rate, min_size=1, max_size=3))}
    return SynthConfig.from_dict(dict(
        n_universities=draw(st.integers(1, 5)),
        staff_range=[lo, lo + draw(st.integers(0, 2))],
        udas=udas,
        pub_period=[start, end],
        observation_years=draw(st.lists(st.integers(end, end + 6), min_size=1, max_size=4,
                                        unique=True)),
        pub_rate=draw(st.sampled_from([0.0, 0.4, 1.0, 2.5])),
        profiles=profiles,
        sds_profiles={s: "other" for s in draw(st.lists(st.sampled_from(sds), unique=True))},
        quality_mu=draw(st.floats(-1, 1)),
        quality_sigma=draw(st.floats(0, 1)),
        coauthor_rate=draw(st.sampled_from([0.0, 0.2, 0.7, 1.0])),
        multi_category_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
    ))


@settings(max_examples=60, deadline=None)
@given(cfg=synth_configs(), seed=st.integers(0, 2**32 - 1))
@example(cfg=config(n_universities=1, coauthor_rate=0.5), seed=1)
def test_generate_matches_reference_on_random_configs(cfg, seed):
    assert_same_bytes_as_reference(cfg, seed)


def test_row_blocks_sort_like_the_reference_tuples_past_one_million_ids(tmp_path):
    """Publication ids P{n:06d} stop sorting in generation order at P1000000;
    the blocks of each file must still come out in the reference tuple order."""
    rng = np.random.default_rng(0)
    obs_years = (999, 1000, 1002)  # widths differ: the blocks sort, not the lines
    pub_rows, link_rows, citation_rows = [], [], []
    pub_blocks, link_blocks, citation_blocks = [], [], []
    for n in range(999_990, 1_000_011):  # generation order
        pid, year, rid = f"P{n:06d}", 998, f"U{n % 7:03d}-S-001"
        pub_rows.append((pid, year, "CAT_S"))
        pub_blocks.append(f"{pid},{year},CAT_S")
        links = sorted({rid, f"U{n % 5:03d}-S-002"})
        link_rows += [(pid, r) for r in links]
        link_blocks.append("\n".join(f"{pid},{r}" for r in links))
        counts = np.cumsum(rng.integers(0, 3, size=len(obs_years))).tolist()
        citation_rows += [(pid, t, c) for t, c in zip(obs_years, counts)]
        citation_blocks.append("\n".join(f"{pid},{t},{c}" for t, c in zip(obs_years, counts)))
    assert sorted(pub_blocks) != pub_blocks  # generation order is not file order here
    for name, header, blocks, rows in [
        ("publications.csv", "pub_id,pub_year,categories", pub_blocks, pub_rows),
        ("authorship.csv", "pub_id,researcher_id", link_blocks, link_rows),
        ("citations.csv", "pub_id,obs_year,cum_citations", citation_blocks, citation_rows),
    ]:
        _write_rows(tmp_path / name, header, blocks)
        write_rows_csv(tmp_path / f"reference-{name}", header.split(","),
                       [[str(v) for v in row] for row in sorted(set(rows))])
        assert (tmp_path / name).read_bytes() == (tmp_path / f"reference-{name}").read_bytes()
