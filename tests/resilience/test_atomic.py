"""The atomic-write primitive: commit on rename, never a torn file."""

import os

import pytest

from repro.resilience import atomic, faults
from repro.resilience.atomic import atomic_open, write_atomic


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
    monkeypatch.setattr(atomic.os, "fsync",
                        lambda fd: calls.append("fsync"))
    real_replace = os.replace
    monkeypatch.setattr(atomic.os, "replace", lambda src, dst: (
        calls.append(("replace", os.path.basename(src),
                      os.path.basename(dst))), real_replace(src, dst)))
    monkeypatch.setattr(atomic.faults, "fire",
                        lambda site: calls.append(("fire", site)))
    write_atomic(tmp_path / "plain", b"x")
    with atomic_open(tmp_path / "state.npz", fault_site="site") as handle:
        handle.write(b"y")
    assert calls == ["fsync", ("replace", "plain.tmp", "plain"),
                     "fsync", ("fire", "site"),
                     ("replace", "state.npz.tmp", "state.npz")]


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
