"""Registry backend tags: compat with untagged manifests, dispatch."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.backends import get_backend
from repro.experiments.configs import TINY, make_dataset
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import (CorruptModelBlob, ModelRegistry,
                                  RegistryError)
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


@pytest.fixture(scope="module")
def regime_data():
    return make_dataset("regime", TINY, seed=7)


@pytest.fixture(scope="module")
def hmm_model(regime_data):
    backend = get_backend("hmm")
    model = backend.from_config(regime_data.schema,
                                backend.make_config("regime", TINY, seed=2))
    backend.fit(model, regime_data)
    return model


@pytest.fixture(scope="module")
def dlgan_model(regime_data):
    backend = get_backend("dlgan")
    model = backend.from_config(
        regime_data.schema,
        backend.make_config("regime", TINY, seed=2, iterations=3,
                            pattern_hidden=(16,), refine_hidden=(12,),
                            discriminator_hidden=(16,)))
    backend.fit(model, regime_data)
    return model


def _strip_backend_tags(registry: ModelRegistry, name: str) -> None:
    """Rewrite a manifest as a pre-backend-tag registry would have it."""
    path = os.path.join(registry.root, "models", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for entry in manifest["versions"]:
        entry.pop("backend", None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


class TestBackendTags:
    def test_publish_tags_non_dg_models(self, registry, hmm_model,
                                        dlgan_model):
        assert registry.publish("h", hmm_model).backend == "hmm"
        assert registry.publish("d", dlgan_model).backend == "dlgan"

    def test_publish_normalizes_aliases(self, registry, trained_dg_gcut):
        record = registry.publish("m", trained_dg_gcut, backend="dg")
        assert record.backend == "doppelganger"

    def test_publish_sniffs_raw_bytes(self, registry, dlgan_model):
        blob = get_backend("dlgan").save_bytes(dlgan_model)
        assert registry.publish("raw", blob).backend == "dlgan"

    def test_load_round_trips_every_tag(self, registry, hmm_model,
                                        dlgan_model, trained_dg_gcut):
        for name, model in [("h", hmm_model), ("d", dlgan_model),
                            ("g", trained_dg_gcut)]:
            registry.publish(name, model)
            restored = registry.load(f"{name}@latest")
            assert_datasets_identical(
                restored.generate(5, rng=np.random.default_rng(8)),
                model.generate(5, rng=np.random.default_rng(8)))


class TestLegacyManifests:
    """Registries written before backend tags existed keep working."""

    def test_untagged_entry_defaults_to_doppelganger(self, registry,
                                                     trained_dg_gcut):
        registry.publish("legacy", trained_dg_gcut)
        _strip_backend_tags(registry, "legacy")
        assert registry.resolve("legacy").backend == "doppelganger"

    def test_untagged_entry_loads_byte_identically(self, registry,
                                                   trained_dg_gcut):
        registry.publish("legacy", trained_dg_gcut)
        _strip_backend_tags(registry, "legacy")
        restored = registry.load("legacy@1")
        assert_datasets_identical(
            restored.generate(6, rng=np.random.default_rng(3)),
            trained_dg_gcut.generate(6, rng=np.random.default_rng(3)))


class TestLoadErrors:
    def test_unknown_tag_raises_naming_it(self, registry, trained_dg_gcut):
        registry.publish("m", trained_dg_gcut)
        path = os.path.join(registry.root, "models", "m.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["versions"][-1]["backend"] = "from-the-future"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(RegistryError, match="from-the-future"):
            registry.load("m@latest")

    def test_wrong_tag_surfaces_as_corrupt_blob(self, registry,
                                                hmm_model):
        # An hmm archive force-tagged as dlgan fails the decode with a
        # message naming the backend that was tried.
        blob = get_backend("hmm").save_bytes(hmm_model)
        registry.publish("m", blob, backend="dlgan")
        with pytest.raises(CorruptModelBlob, match="dlgan"):
            registry.load("m@latest")

    def test_garbage_bytes_fail_at_load_not_publish(self, registry):
        record = registry.publish("junk", b"hash-consistent garbage")
        with pytest.raises(CorruptModelBlob):
            registry.load(record)


class TestPublishRefusesNonFinite:
    """The model writer checks every parameter and extra array, so a
    diverged model never reaches a registry."""

    def test_poisoned_weight_is_refused_before_any_write(
            self, registry, trained_dg_gcut):
        backend = get_backend("doppelganger")
        model = backend.load_bytes(backend.save_bytes(trained_dg_gcut))
        name, param = next(iter(model.discriminator.named_parameters()))
        param.data[0, 0] = np.nan
        with pytest.raises(ValueError,
                           match=rf"'discriminator' parameter '{name}'"):
            registry.publish("poisoned", model)
        for directory in ("blobs", "models"):
            assert os.listdir(os.path.join(registry.root, directory)) == []

    def test_poisoned_extra_array_is_named(self, hmm_model):
        backend = get_backend("hmm")
        model = backend.load_bytes(backend.save_bytes(hmm_model))
        model.hmm.means = model.hmm.means.copy()
        model.hmm.means[0, 0] = np.inf
        with pytest.raises(ValueError, match="'hmm' parameter 'means'"):
            backend.save_bytes(model)


class TestOpaqueBatching:
    """Backends without block-generation hooks still serve
    deterministically through the MicroBatcher."""

    def test_served_equals_direct_for_hmm(self, hmm_model):
        with MicroBatcher(hmm_model) as batcher:
            assert not batcher._block_mode
            served = batcher.generate(7, seed=41)
        direct = hmm_model.generate(7, rng=np.random.default_rng(41))
        assert_datasets_identical(served, direct)

    def test_served_equals_direct_for_dlgan(self, dlgan_model):
        with MicroBatcher(dlgan_model) as batcher:
            served = batcher.generate(9, seed=5)
        direct = dlgan_model.generate(9, rng=np.random.default_rng(5))
        assert_datasets_identical(served, direct)

    def test_empty_request_in_opaque_mode(self, hmm_model):
        with MicroBatcher(hmm_model) as batcher:
            served = batcher.generate(0, seed=1)
        assert len(served) == 0
