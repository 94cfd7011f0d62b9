"""The column cache beside each corpus: a hit gives exactly the corpus a full parse
gives, and a damaged, stale or foreign cache is a miss that parses the files again."""

from __future__ import annotations

import errno
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from citewin import ingest
from citewin.cli import main
from citewin.errors import IntegrityError, ParseError
from citewin.ingest import CACHE_NAME, FILES, Corpus, load_corpus
from citewin.synth import generate

from conftest import random_corpus_rows, stability_config, write_corpus_dir
from oracles import publications

SMALL_ROWS = dict(
    publications=[("P1", 2001, "K1"), ("P2", 2002, "K1:0.5;K2:0.5"), ("P3", 2003, "K1;K2")],
    citations=[("P1", 2004, 2), ("P1", 2005, 3), ("P2", 2004, 0), ("P2", 2005, 1),
               ("P3", 2004, 1), ("P3", 2005, 1)],
    authorship=[("P1", "R1"), ("P2", "R2"), ("P3", "R3"), ("P3", "R4")],
    researchers=[("R1", "U1", "S1"), ("R2", "U1", "S2"), ("R3", "U2", "S1"), ("R4", "U2", "S2")],
    fields=[("S1", "UA"), ("S2", "UA")],
)


def small_corpus(tmp_path: Path) -> Path:
    return write_corpus_dir(tmp_path / "corpus", **SMALL_ROWS)


def cold_load(root: Path, scratch: Path) -> Corpus:
    """load_corpus of a copy of the five files under root, with no cache beside them."""
    scratch.mkdir()
    for name in FILES:
        shutil.copyfile(root / name, scratch / name)
    return load_corpus(scratch)


def parse_forbidden(*_args, **_kwargs):
    raise AssertionError("the corpus files were parsed")


def hit(root: Path, monkeypatch) -> Corpus:
    """load_corpus of root, failing if it parses any file."""
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_checked", parse_forbidden)
        return load_corpus(root)


def assert_same_corpus(expected: Corpus, got: Corpus) -> None:
    for field in fields(Corpus):
        want, have = getattr(expected, field.name), getattr(got, field.name)
        assert (have.dtype, have.shape) == (want.dtype, want.shape), field.name
        assert np.array_equal(have, want), field.name
        assert not have.flags.writeable, field.name


def leftovers(root: Path) -> list[str]:
    """Every file under root besides the five corpus files and the cache."""
    return sorted(set(os.listdir(root)) - {*FILES, CACHE_NAME})


def cached_arrays(root: Path) -> dict[str, np.ndarray]:
    with np.load(root / CACHE_NAME) as npz:
        return {name: npz[name] for name in npz.files}


CORPORA = {
    "small": small_corpus,
    **{f"random{seed}": (lambda tmp, seed=seed: write_corpus_dir(
        tmp / "corpus", **random_corpus_rows(seed))) for seed in range(4)},
    "synth": lambda tmp: generate(stability_config(), tmp / "corpus", seed=6),
    "no_publications": lambda tmp: write_corpus_dir(
        tmp / "corpus", [], [], [], SMALL_ROWS["researchers"], SMALL_ROWS["fields"]),
}


@pytest.mark.parametrize("make", list(CORPORA.values()), ids=list(CORPORA))
def test_hit_equals_a_cold_parse_in_every_field(tmp_path, monkeypatch, make):
    root = make(tmp_path)
    first = load_corpus(root)
    assert (root / CACHE_NAME).is_file() and leftovers(root) == []
    cold = cold_load(root, tmp_path / "cold")
    assert_same_corpus(cold, first)
    assert_same_corpus(cold, hit(root, monkeypatch))
    assert_same_corpus(cold, hit(root, monkeypatch))


def test_crlf_corpus_hit_equals_its_cold_parse(tmp_path, monkeypatch):
    root = small_corpus(tmp_path)
    for name in FILES:
        (root / name).write_bytes((root / name).read_bytes().replace(b"\n", b"\r\n"))
    cold = load_corpus(root)
    assert_same_corpus(cold, hit(root, monkeypatch))
    assert_same_corpus(cold_load(root, tmp_path / "lf"), cold)


def test_cache_holds_exactly_the_corpus_columns_and_the_key(tmp_path):
    root = small_corpus(tmp_path)
    load_corpus(root)
    arrays = cached_arrays(root)
    assert set(arrays) == {field.name for field in fields(Corpus)} | {"key"}
    assert set(ingest._LAYOUT) == {field.name for field in fields(Corpus)}
    assert arrays["key"].shape == () and len(arrays["key"].item()) == 64


def _rewrite(root: Path, edit) -> None:
    arrays = cached_arrays(root)
    edit(arrays)
    (root / CACHE_NAME).unlink()
    with open(root / CACHE_NAME, "wb") as out:
        np.savez(out, **arrays)


def _put(path: Path, data: bytes) -> None:
    path.write_bytes(data)


UNPICKLED = []


def _record_unpickling() -> str:
    UNPICKLED.append(True)
    return "P9"


class _Trap:
    """Unpickling it would call _record_unpickling."""

    def __reduce__(self):
        return _record_unpickling, ()


DAMAGE = {
    "truncated": lambda root: _put(root / CACHE_NAME, (root / CACHE_NAME).read_bytes()[:500]),
    "empty": lambda root: _put(root / CACHE_NAME, b""),
    "not_a_zip": lambda root: _put(root / CACHE_NAME, b"pub_id,pub_year\n"),
    "flipped_data_byte": lambda root: _put(root / CACHE_NAME, _flip(
        (root / CACHE_NAME).read_bytes(),
        (root / CACHE_NAME).read_bytes().index("P2".encode("utf-32-le")))),
    "pickled_column": lambda root: _rewrite(
        root, lambda a: a.update(pub_ids=np.array([*a["pub_ids"], _Trap()], dtype=object))),
    "missing_column": lambda root: _rewrite(root, lambda a: a.pop("link_res")),
    "extra_column": lambda root: _rewrite(root, lambda a: a.update(extra=np.arange(3))),
    "wrong_dtype_kind": lambda root: _rewrite(
        root, lambda a: a.update(counts=a["counts"].astype(float))),
    "wrong_ndim": lambda root: _rewrite(root, lambda a: a.update(counts=a["counts"].ravel())),
    "key_of_other_files": lambda root: _rewrite(root, lambda a: a.update(key=np.array("0" * 64))),
    "key_not_a_string": lambda root: _rewrite(root, lambda a: a.update(key=np.arange(64))),
    "directory": lambda root: ((root / CACHE_NAME).unlink(), (root / CACHE_NAME).mkdir()),
}


def _flip(data: bytes, position: int, mask: int = 0xFF) -> bytes:
    return data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]


@pytest.mark.parametrize("damage", list(DAMAGE.values()), ids=list(DAMAGE))
def test_damaged_cache_is_a_miss_that_gives_the_cold_result(tmp_path, damage):
    root = small_corpus(tmp_path)
    cold = load_corpus(root)
    damage(root)
    assert_same_corpus(cold, load_corpus(root))
    assert leftovers(root) == [] and UNPICKLED == []
    if (root / CACHE_NAME).is_file():  # the miss wrote a whole cache in its place
        assert ingest._read_cache(root / CACHE_NAME, cached_arrays(root)["key"].item())


def test_no_flipped_byte_changes_a_column(tmp_path):
    """The low bit of every seventh byte of a cache flipped in turn, headers and data alike
    (in an array header, a digit of a shape becomes another digit): each read either misses
    or, where zipfile ignores the byte (a local header's copy of a size, say), returns the
    same columns."""
    root = small_corpus(tmp_path)
    load_corpus(root)
    path = root / CACHE_NAME
    good, key = path.read_bytes(), cached_arrays(root)["key"].item()
    expected = ingest._read_cache(path, key)
    assert expected is not None
    positions, hits = range(0, len(good), 7), 0
    for position in positions:
        path.write_bytes(_flip(good, position, 0x01))
        got = ingest._read_cache(path, key)
        if got is not None:
            hits += 1
            assert got.keys() == expected.keys(), position
            for name, column in got.items():
                assert column.dtype == expected[name].dtype, (position, name)
                assert np.array_equal(column, expected[name]), (position, name)
    assert 0 < hits < len(positions) // 2


def test_shrunk_shape_in_an_array_header_is_a_miss(tmp_path):
    """zipfile checks a member's CRC-32 only once the member is read to its end, and numpy
    reads only as many bytes as the header asks for; each member is read whole, so a
    header that asks for fewer rows than it holds is a miss too."""
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    cold = load_corpus(root)
    path = root / CACHE_NAME
    data, key = path.read_bytes(), cached_arrays(root)["key"].item()
    start = data.index(b"'shape': (", data.index(b"counts.npy")) + len(b"'shape': (")
    end = data.index(b",", start)
    rows = int(data[start:end])
    assert rows == len(cold.pub_ids) and cold.counts.nbytes > 4096
    shrunk = str(rows - 1).rjust(end - start).encode()  # the header keeps its length
    path.write_bytes(data[:start] + shrunk + data[end:])
    assert ingest._read_cache(path, key) is None
    assert_same_corpus(cold, load_corpus(root))


@pytest.mark.parametrize("edit, error, message", [
    (lambda t: t.replace("P2,2005,1", "P2,2005,x"), ParseError,
     r"citations\.csv:5: cum_citations 'x' is not an integer"),
    (lambda t: t.replace("P3,R4", "P3,R9"), IntegrityError,
     r"authorship\.csv:5: authorship references unknown researcher_id 'R9'"),
], ids=["parse", "integrity"])
def test_invalid_corpus_writes_no_cache_and_keeps_its_message(tmp_path, edit, error, message):
    root = small_corpus(tmp_path)
    for name in FILES:
        path = root / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    for _ in range(2):
        with pytest.raises(error, match=message):
            load_corpus(root)
        assert sorted(os.listdir(root)) == sorted(FILES)


def test_corpus_made_invalid_after_caching_is_reported_not_served(tmp_path):
    root = small_corpus(tmp_path)
    load_corpus(root)
    stale = (root / CACHE_NAME).read_bytes()
    path = root / "citations.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("P2,2005,1", "P2,2005,-1"),
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"citations\.csv:5: negative citation count -1"):
        load_corpus(root)
    assert (root / CACHE_NAME).read_bytes() == stale and leftovers(root) == []


@pytest.mark.parametrize("name", list(FILES))
def test_edited_byte_in_any_file_is_a_miss(tmp_path, monkeypatch, name):
    root = small_corpus(tmp_path)
    before = load_corpus(root)
    path = root / name
    path.write_bytes(path.read_bytes() + b"\n")  # a trailing blank line: the same corpus
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_checked", parse_forbidden)
        with pytest.raises(AssertionError, match="parsed"):
            load_corpus(root)
    assert_same_corpus(before, load_corpus(root))
    assert_same_corpus(before, hit(root, monkeypatch))


def test_edited_count_is_read_from_the_files_not_the_cache(tmp_path):
    root = small_corpus(tmp_path)
    assert publications(load_corpus(root))["P1"].citation_counts == {2004: 2, 2005: 3}
    path = root / "citations.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("P1,2005,3", "P1,2005,4"),
                    encoding="utf-8")
    assert publications(load_corpus(root))["P1"].citation_counts == {2004: 2, 2005: 4}


# the files of the checks and of the Corpus type: a module that takes the type over joins the key
CODE = sorted({"ingest.py", f"{Corpus.__module__.rpartition('.')[2]}.py"})


@pytest.mark.parametrize("edited", [None, *CODE])
def test_changed_checking_code_is_a_miss(tmp_path, monkeypatch, edited):
    """The key covers the bytes of the checks and of the Corpus type: the same code hits,
    and one more byte in any of their files misses."""
    root = small_corpus(tmp_path)
    cold = load_corpus(root)
    code = tmp_path / "code"
    code.mkdir()
    for name in CODE:
        source = (Path(ingest.__file__).with_name(name)).read_bytes()
        (code / name).write_bytes(source + b"\n" if name == edited else source)
    monkeypatch.setattr(ingest, "__file__", str(code / "ingest.py"))
    if edited is None:
        assert_same_corpus(cold, hit(root, monkeypatch))
        return
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_checked", parse_forbidden)
        with pytest.raises(AssertionError, match="parsed"):
            load_corpus(root)
    assert_same_corpus(cold, load_corpus(root))
    assert_same_corpus(cold, hit(root, monkeypatch))


def _savez_fails(code: int, partial: bool):
    real = np.savez

    def savez(file, *args, **kwargs):
        if partial:  # some bytes reach the disk before the error
            real(file, *args, **kwargs)
        raise OSError(code, os.strerror(code), str(file))

    return savez


@pytest.mark.parametrize("fault", ["read_only_directory", "full_disk", "rename_refused"])
def test_failed_cache_write_still_loads_and_leaves_nothing(tmp_path, monkeypatch, fault):
    root = small_corpus(tmp_path)
    cold = cold_load(root, tmp_path / "cold")
    if fault == "read_only_directory":
        monkeypatch.setattr(np, "savez", _savez_fails(errno.EROFS, partial=False))
    elif fault == "full_disk":
        monkeypatch.setattr(np, "savez", _savez_fails(errno.ENOSPC, partial=True))
    else:
        def refuse(*_args):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(ingest.os, "replace", refuse)
    assert_same_corpus(cold, load_corpus(root))
    assert sorted(os.listdir(root)) == sorted(FILES)


def test_unwritable_directory_loads(tmp_path):
    """A superuser can still write a directory without write permission; anyone else
    gets the corpus and no cache."""
    root = small_corpus(tmp_path)
    cold = cold_load(root, tmp_path / "cold")
    root.chmod(0o555)
    try:
        writable = os.access(root, os.W_OK)
        assert_same_corpus(cold, load_corpus(root))
        assert leftovers(root) == [] and (root / CACHE_NAME).exists() == writable
    finally:
        root.chmod(0o755)


def test_threads_cold_loading_one_corpus_leave_one_whole_cache(tmp_path, monkeypatch):
    root = generate(stability_config(), tmp_path / "corpus", seed=6)
    start, results = threading.Barrier(2), [None, None]

    def load(i: int) -> None:
        start.wait(timeout=60)
        results[i] = load_corpus(root)

    threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    cold = cold_load(root, tmp_path / "cold")
    for corpus in results:
        assert_same_corpus(cold, corpus)
    assert sorted(os.listdir(root)) == sorted([*FILES, CACHE_NAME])
    assert_same_corpus(cold, hit(root, monkeypatch))


def test_validate_reports_the_same_from_the_cache(tmp_path, capsys, monkeypatch):
    root = small_corpus(tmp_path)
    assert main(["validate", str(root)]) == 0
    first = capsys.readouterr()
    monkeypatch.setattr(ingest, "_checked", parse_forbidden)
    assert main(["validate", str(root)]) == 0
    assert capsys.readouterr() == first


def test_corpus_failing_a_check_computes_no_key(tmp_path):
    """Without a cache file, a load that fails a check never hashes, so it never loads
    hashlib and OpenSSL, which cost a rejected corpus about 4 ms and 3.6 MB."""
    root = small_corpus(tmp_path)
    path = root / "citations.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("P2,2005,1", "P2,2005,x"),
                    encoding="utf-8")
    script = (
        "import sys\n"
        "from citewin.errors import ParseError\n"
        "from citewin.ingest import load_corpus\n"
        "try:\n"
        f"    load_corpus({str(root)!r})\n"
        "except ParseError:\n"
        "    print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_load_computes_the_cache_key_at_most_once(tmp_path, monkeypatch):
    calls = []
    real_key = ingest._cache_key
    monkeypatch.setattr(ingest, "_cache_key", lambda data: calls.append(1) or real_key(data))
    root = small_corpus(tmp_path)
    load_corpus(root)  # no cache yet: the key is computed to write one
    path = root / "citations.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("P2,2005,1", "P2,2005,2"),
                    encoding="utf-8")
    calls.clear()
    load_corpus(root)  # stale: the key that missed is the one written
    assert len(calls) == 1
    calls.clear()
    hit(root, monkeypatch)
    assert len(calls) == 1
    failing = write_corpus_dir(tmp_path / "failing", **{
        **SMALL_ROWS, "citations": [*SMALL_ROWS["citations"], ("P9", 2004, 1)]})
    calls.clear()
    with pytest.raises(ParseError):
        load_corpus(failing)
    assert calls == []
