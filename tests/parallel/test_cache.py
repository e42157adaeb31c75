"""SweepCache: round-trips, key invalidation, corruption tolerance."""

from __future__ import annotations

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.backends import get_backend, read_model
from repro.core.config import DGConfig
from repro.experiments.configs import TINY, make_dataset
from repro.data.simulators import generate_gcut
from repro.parallel.cache import (SweepCache, cell_cache_key,
                                  config_fingerprint, dataset_fingerprint)


class TestFingerprints:
    def test_config_fingerprint_stable(self):
        config = DGConfig(sample_len=4)
        assert config_fingerprint(config) == config_fingerprint(config)
        assert config_fingerprint(config) == config_fingerprint(
            dataclasses.asdict(config))

    def test_config_change_invalidates(self):
        base = DGConfig(sample_len=4)
        changed = DGConfig(sample_len=4, iterations=base.iterations + 1)
        assert config_fingerprint(base) != config_fingerprint(changed)

    def test_dict_key_order_irrelevant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})

    def test_dataset_fingerprint_stable_and_sensitive(self):
        data = generate_gcut(12, np.random.default_rng(0), max_length=8)
        same = generate_gcut(12, np.random.default_rng(0), max_length=8)
        other = generate_gcut(12, np.random.default_rng(1), max_length=8)
        assert dataset_fingerprint(data) == dataset_fingerprint(same)
        assert dataset_fingerprint(data) != dataset_fingerprint(other)

    def test_cell_key_varies_with_every_component(self):
        base = cell_cache_key("dg", "cfg", "data", 0)
        assert base != cell_cache_key("ar", "cfg", "data", 0)
        assert base != cell_cache_key("dg", "cfg2", "data", 0)
        assert base != cell_cache_key("dg", "cfg", "data2", 0)
        assert base != cell_cache_key("dg", "cfg", "data", 1)
        assert base != cell_cache_key("dg", "cfg", "data", None)


@pytest.fixture(scope="module")
def hmm_blob():
    """A fitted HMM's model archive bytes: what a sweep cell caches."""
    backend = get_backend("hmm")
    data = make_dataset("gcut", TINY, seed=0)
    model = backend.from_config(data.schema,
                                backend.make_config("gcut", TINY, seed=1))
    backend.fit(model, data)
    return backend.save_bytes(model)


class _CreatesMarker:
    """Unpickling this runs ``open(path, "w")``: any unpickling of the
    cache entry leaves the marker file behind."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return open, (self.path, "w")


class TestSweepCache:
    def test_round_trip(self, tmp_path, hmm_blob):
        cache = SweepCache(tmp_path / "cache")
        key = cell_cache_key("hmm", "a", "b", 0)
        cache.put(key, hmm_blob)
        assert key in cache
        assert os.listdir(cache.root) == [f"{key}.npz"]
        restored = cache.get(key)
        assert restored == hmm_blob
        model, backend = read_model(restored)
        assert backend.name == "hmm"
        assert backend.save_bytes(model) == hmm_blob

    def test_miss_returns_none(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path,
                                                        hmm_blob):
        cache = SweepCache(tmp_path / "cache")
        key = cell_cache_key("hmm", "a", "b", 0)
        cache.put(key, hmm_blob)
        with open(cache._path(key), "wb") as handle:
            handle.write(hmm_blob[:len(hmm_blob) // 2])
        assert cache.get(key) is None
        assert key not in cache  # removed, so a re-put can heal it

    def test_npz_that_is_not_a_model_reads_as_miss(self, tmp_path):
        from repro.npz import write_npz

        cache = SweepCache(tmp_path / "cache")
        key = cell_cache_key("hmm", "a", "b", 0)
        cache.put(key, write_npz({"weights": np.arange(4.0)}))
        assert cache.get(key) is None
        assert key not in cache

    def test_pickled_entry_is_never_unpickled(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        key = cell_cache_key("hmm", "a", "b", 0)
        marker = tmp_path / "unpickled"
        with open(cache._path(key), "wb") as handle:
            pickle.dump(_CreatesMarker(str(marker)), handle)
        assert cache.get(key) is None
        assert key not in cache
        assert not marker.exists()

    def test_clear(self, tmp_path, hmm_blob):
        cache = SweepCache(tmp_path / "cache")
        for seed in range(3):
            cache.put(cell_cache_key("hmm", "a", "b", seed), hmm_blob)
        assert cache.clear() == 3
        assert cache.get(cell_cache_key("hmm", "a", "b", 0)) is None

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path, hmm_blob):
        """A crash between put()'s write and its atomic rename leaves a
        ``*.npz.tmp`` orphan; clear() must remove it (it is never read
        and would otherwise leak forever) without counting it as an
        entry."""
        cache = SweepCache(tmp_path / "cache")
        cache.put(cell_cache_key("hmm", "a", "b", 0), hmm_blob)
        orphan = cache._path(cell_cache_key("hmm", "a", "b", 1)) + ".tmp"
        with open(orphan, "wb") as handle:
            handle.write(hmm_blob[:100])
        assert cache.clear() == 1           # orphans are not entries
        assert not os.path.exists(orphan)
        assert os.listdir(cache.root) == []

    def test_orphaned_tmp_is_not_a_hit(self, tmp_path, hmm_blob):
        cache = SweepCache(tmp_path / "cache")
        key = cell_cache_key("hmm", "a", "b", 2)
        with open(cache._path(key) + ".tmp", "wb") as handle:
            handle.write(hmm_blob)
        assert key not in cache
        assert cache.get(key) is None
