"""The atomic-write primitive: commit on rename, never a torn file; and
``canonical_json``, the bytes of ``json.dumps(sort_keys=True, indent=2)``
plus a newline, with no reference cycles left behind."""

import gc
import json
import os
import stat

import pytest

from repro.resilience import atomic, faults
from repro.resilience.atomic import atomic_open, canonical_json, write_atomic


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


def test_write_atomic_replaces_contents(tmp_path):
    path = tmp_path / "blob"
    write_atomic(path, b"old")
    write_atomic(str(path), b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["blob"]


def test_text_mode_streams_into_the_file(tmp_path):
    path = tmp_path / "events.jsonl"
    with atomic_open(path, "w", encoding="utf-8") as handle:
        for line in ("a", "b"):
            handle.write(line + "\n")
    assert path.read_text(encoding="utf-8") == "a\nb\n"


def test_flush_fsync_fault_rename_order(tmp_path, monkeypatch):
    calls = []

    def record_fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            assert os.path.samestat(info, os.stat(tmp_path))
            calls.append("fsync-dir")
        else:
            calls.append("fsync")

    monkeypatch.setattr(atomic.os, "fsync", record_fsync)
    real_replace = os.replace
    monkeypatch.setattr(atomic.os, "replace", lambda src, dst: (
        calls.append(("replace", os.path.basename(src),
                      os.path.basename(dst))), real_replace(src, dst)))
    monkeypatch.setattr(atomic.faults, "fire",
                        lambda site: calls.append(("fire", site)))
    write_atomic(tmp_path / "plain", b"x")
    with atomic_open(tmp_path / "state.npz", fault_site="site") as handle:
        handle.write(b"y")
    assert calls == ["fsync", ("replace", "plain.tmp", "plain"), "fsync-dir",
                     "fsync", ("fire", "site"),
                     ("replace", "state.npz.tmp", "state.npz"), "fsync-dir"]


def test_failed_write_leaves_tmp_and_old_file(tmp_path):
    path = tmp_path / "record.json"
    write_atomic(path, b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write(b"half")
            raise RuntimeError("disk full")
    assert path.read_bytes() == b"old"
    assert (tmp_path / "record.json.tmp").exists()


def test_kill_at_fault_site_keeps_old_file(tmp_path):
    path = tmp_path / "state.npz"
    write_atomic(path, b"old")
    with faults.injected(faults.kill_at("serialization.pre_rename")):
        with pytest.raises(faults.SimulatedKill):
            with atomic_open(path,
                             fault_site="serialization.pre_rename") as h:
                h.write(b"new")
    assert path.read_bytes() == b"old"
    assert (tmp_path / "state.npz.tmp").read_bytes() == b"new"


# -- canonical_json ------------------------------------------------------

CORPUS = [
    {},
    [],
    (),
    None,
    True,
    False,
    0,
    -7,
    2 ** 70,
    1e-7,
    1e16,
    -0.0,
    0.1 + 0.2,
    float("nan"),
    float("inf"),
    float("-inf"),
    "",
    "plain",
    "café ☃ \U0001f600 \"quoted\" back\\slash\ttab\nnewline\x00",
    {"b": [1, 2.5, {"z": None, "a": []}], "a": {}, "é": "ü"},
    [[], [[]], {}, [{}], {"k": {}}],
    {"nested": {"deeper": {"deepest": [1, [2, [3, (4, 5)]]]}}},
    {"flags": [True, False, None], "nums": [1e-7, 1e16, 1e300, -1.5e-300]},
    {"10": 1, "9": 2, "a": 3, "B": 4},
    {2: "two", 10: "ten", 1: "one"},
    {1.5: "x", 0.25: "y", float("inf"): "z"},
    {True: "bool key"},
    {None: "null key"},
    {"report": {"sections": [{"name": "acf", "mse": 0.0012,
                              "skipped": False}], "version": 3}},
]


@pytest.mark.parametrize("value", CORPUS, ids=lambda v: repr(v)[:40])
def test_bytes_match_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert canonical_json(value).encode("utf-8") == expected.encode("utf-8")


def test_unsupported_values_raise_like_json():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": object()})
    with pytest.raises(TypeError, match="keys must be"):
        canonical_json({(1, 2): "tuple key"})


def test_a_call_leaves_no_cyclic_garbage():
    document = {"metrics": [{"name": f"m{i}", "value": i * 0.5,
                             "tags": {"unit": "ms", "ok": True}}
                            for i in range(20)], "empty": [], "none": None}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        canonical_json(document)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
