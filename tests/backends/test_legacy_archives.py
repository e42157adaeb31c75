"""Pinned legacy archives: models saved before ``repro-model`` keep loading.

``legacy/<backend>.npz`` were written by the three earlier formats (see
``legacy/make_legacy_archives.py``).  Each must load through the reader's
frozen translator with every array and every metadata field intact, and
re-save as a current-format archive that generates bit-identically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend, load_model_bytes, sniff_backend
from repro.backends.archive import FORMAT, VERSION, read_meta
from repro.core import DoppelGANger
from repro.data.schema import schema_to_dict
from repro.nn.serialization import bytes_to_arrays
from repro.serve.registry import ModelRegistry
from tests.serve.conftest import assert_datasets_identical

LEGACY = Path(__file__).resolve().parent / "legacy"
ALL_BACKENDS = ("doppelganger", "dlgan", "hmm", "ar", "rnn", "naive_gan")


def _fixture(name: str) -> tuple[bytes, dict, dict]:
    blob = (LEGACY / f"{name}.npz").read_bytes()
    arrays = bytes_to_arrays(blob)
    meta = json.loads(bytes(arrays.pop("__meta__").tobytes()).decode())
    return blob, meta, arrays


def _state_arrays(model) -> dict:
    _, modules, extras = model.archive_state()
    arrays = {f"{prefix}::{key}": value
              for prefix, module in modules.items()
              for key, value in module.state_dict().items()}
    arrays.update(extras)
    return arrays


def _assert_matches_fixture(model, meta: dict, arrays: dict) -> None:
    restored = _state_arrays(model)
    assert sorted(restored) == sorted(arrays)
    for key, value in arrays.items():
        assert restored[key].dtype == value.dtype, key
        assert np.array_equal(restored[key], value), key
    assert schema_to_dict(model.schema) == meta["schema"]
    assert model.encoder.state() == meta["encoder"]
    config = json.loads(json.dumps(model.archive_state()[0]))
    if "hyper" in meta:
        # Baselines stored partial constructor kwargs; the rest default.
        assert {key: config[key] for key in meta["hyper"]} == meta["hyper"]
    else:
        assert config == meta["config"]


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestLegacyArchives:
    def test_fixture_is_small_and_in_its_legacy_format(self, name):
        blob, meta, _ = _fixture(name)
        assert len(blob) < 64 * 1024
        if name == "doppelganger":
            assert not {"format", "kind"} & set(meta)
        elif name == "dlgan":
            assert meta["format"] == "repro-dlgan"
        else:
            assert "kind" in meta
        assert sniff_backend(blob) == name

    def test_loads_every_array_and_field_exactly(self, name):
        blob, meta, arrays = _fixture(name)
        model, backend = load_model_bytes(blob)
        assert backend.name == name
        _assert_matches_fixture(model, meta, arrays)
        # The translated flag agrees with what the writer records.
        assert read_meta(blob)["leaks_training_attributes"] == \
            ("sampler::rows" in arrays)

    def test_resave_is_current_format_and_generates_identically(self, name):
        blob, _, _ = _fixture(name)
        legacy, backend = load_model_bytes(blob)
        resaved = backend.save_bytes(legacy)
        meta = read_meta(resaved)
        assert (meta["format"], meta["version"], meta["backend"]) == \
            (FORMAT, VERSION, name)
        current = backend.load_bytes(resaved)
        assert backend.save_bytes(current) == resaved
        assert_datasets_identical(
            backend.generate(current, 6, rng=np.random.default_rng(9)),
            backend.generate(legacy, 6, rng=np.random.default_rng(9)))


class TestLegacyDoppelGANger:
    def test_loads_through_doppelganger_load(self):
        _, meta, arrays = _fixture("doppelganger")
        _assert_matches_fixture(
            DoppelGANger.load(LEGACY / "doppelganger.npz"), meta, arrays)

    def test_loads_through_an_untagged_registry_manifest(self, tmp_path):
        blob, meta, arrays = _fixture("doppelganger")
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("legacy", blob)
        # Rewrite the manifest as a pre-backend-tag registry had it.
        path = os.path.join(registry.root, "models", "legacy.json")
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for entry in manifest["versions"]:
            entry.pop("backend")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        model = registry.load("legacy@1")
        _assert_matches_fixture(model, meta, arrays)
        direct = get_backend("doppelganger").load_bytes(blob)
        assert_datasets_identical(
            model.generate(6, rng=np.random.default_rng(4)),
            direct.generate(6, rng=np.random.default_rng(4)))
