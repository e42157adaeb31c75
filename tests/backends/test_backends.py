"""The GeneratorBackend seam: registry, round-trips, sniffing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (DEFAULT_BACKEND, UnknownBackend,
                            backend_for_model, backend_names, get_backend,
                            load_model_bytes, register_backend,
                            sniff_backend)
from repro.backends.base import GeneratorBackend
from repro.experiments.configs import TINY, make_dataset

ALL_BACKENDS = ("doppelganger", "dlgan", "hmm", "ar", "rnn", "naive_gan")


@pytest.fixture(scope="module")
def gcut_tiny():
    return make_dataset("gcut", TINY, seed=3)


@pytest.fixture(scope="module")
def fitted(gcut_tiny):
    """One fitted model per registered backend (trained once, shared)."""
    models = {}
    for name in ALL_BACKENDS:
        backend = get_backend(name)
        config = backend.make_config("gcut", TINY, seed=11)
        model = backend.from_config(gcut_tiny.schema, config)
        backend.fit(model, gcut_tiny)
        models[name] = model
    return models


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(ALL_BACKENDS) <= set(backend_names())

    def test_alias_resolves_to_same_backend(self):
        assert get_backend("dg") is get_backend("doppelganger")

    def test_aliases_hidden_from_canonical_listing(self):
        assert "dg" not in backend_names()
        assert "dg" in backend_names(include_aliases=True)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(UnknownBackend, match="doppelganger"):
            get_backend("no_such_architecture")

    def test_default_backend_is_doppelganger(self):
        assert DEFAULT_BACKEND == "doppelganger"

    def test_reregistration_replaces(self):
        class Fake(GeneratorBackend):
            name = "hmm"

            def make_config(self, dataset_name, scale, seed=None, **o):
                return {}

            def from_config(self, schema, config):
                raise NotImplementedError

            def save_bytes(self, model):
                raise NotImplementedError

            def load_bytes(self, blob):
                raise NotImplementedError

        original = get_backend("hmm")
        fake = Fake()
        try:
            register_backend(fake)
            assert get_backend("hmm") is fake
        finally:
            register_backend(original)
        assert get_backend("hmm") is original

    def test_backend_for_model(self, fitted):
        for name, model in fitted.items():
            assert backend_for_model(model).name == name

    def test_backend_for_unowned_object(self):
        with pytest.raises(UnknownBackend, match="dict"):
            backend_for_model({})


class TestRoundTrips:
    """Every backend honours the persistence + determinism contract."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_save_load_byte_identity(self, fitted, name):
        backend = get_backend(name)
        blob = backend.save_bytes(fitted[name])
        restored = backend.load_bytes(blob)
        assert backend.save_bytes(restored) == blob

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_restored_model_generates_identically(self, fitted, name):
        backend = get_backend(name)
        restored = backend.load_bytes(backend.save_bytes(fitted[name]))
        a = backend.generate(fitted[name], 6,
                             rng=np.random.default_rng(21))
        b = backend.generate(restored, 6, rng=np.random.default_rng(21))
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.lengths, b.lengths)
        for left, right in zip(a.features, b.features):
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_generate_deterministic_per_seed(self, fitted, name):
        backend = get_backend(name)
        a = backend.generate(fitted[name], 5,
                             rng=np.random.default_rng(4))
        b = backend.generate(fitted[name], 5,
                             rng=np.random.default_rng(4))
        assert np.array_equal(a.attributes, b.attributes)
        for left, right in zip(a.features, b.features):
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("name", backend_names())
    def test_rngless_generate_starts_from_the_configured_seed(
            self, fitted, name):
        """Without an ``rng`` a loaded model draws from its configured
        seed (11, from ``make_config``), never from OS entropy."""
        blob = get_backend(name).save_bytes(fitted[name])
        first, _ = load_model_bytes(blob)
        second, _ = load_model_bytes(blob)
        a, b = first.generate(8), second.generate(8)
        expected = [b]
        if name != "doppelganger":
            # DoppelGANger builds its initial weights from the same
            # stream, so its rng-less draws start after them.
            expected.append(
                first.generate(8, rng=np.random.default_rng(11)))
        for other in expected:
            assert np.array_equal(a.attributes, other.attributes)
            assert np.array_equal(a.lengths, other.lengths)
            for left, right in zip(a.features, other.features):
                assert np.array_equal(left, right)


class TestSniffing:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_sniff_every_backend_archive(self, fitted, name):
        blob = get_backend(name).save_bytes(fitted[name])
        assert sniff_backend(blob) == name

    def test_sniff_garbage_raises(self):
        with pytest.raises(ValueError, match="npz"):
            sniff_backend(b"not an archive at all")

    @pytest.mark.parametrize("meta, match", [
        ({"format": "repro-model", "version": 2}, "version 2"),
        ({"format": "repro-training-state"}, "not a model format"),
        ({"kind": "XYZ"}, "unknown baseline kind"),
        ([1, 2], "not a JSON object"),
    ])
    def test_sniff_rejects_non_model_meta(self, meta, match):
        import json

        from repro.nn.serialization import arrays_to_bytes
        blob = arrays_to_bytes({"__meta__": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)})
        with pytest.raises(ValueError, match=match):
            sniff_backend(blob)

    def test_load_model_bytes_returns_model_and_backend(self, fitted):
        backend = get_backend("dlgan")
        blob = backend.save_bytes(fitted["dlgan"])
        model, found = load_model_bytes(blob)
        assert found is backend
        assert backend.owns_model(model)


class TestMakeConfig:
    def test_configs_are_json_serializable(self):
        import json

        for name in ALL_BACKENDS:
            config = get_backend(name).make_config("gcut", TINY, seed=1)
            assert isinstance(config, dict)
            json.dumps(config)

    def test_seed_lands_in_config(self):
        for name in ALL_BACKENDS:
            config = get_backend(name).make_config("gcut", TINY, seed=99)
            assert config.get("seed", config.get("n_iter")) is not None
            if "seed" in config:
                assert config["seed"] == 99

    def test_inapplicable_overrides_ignored(self):
        # A DoppelGANger-only knob must not break the other backends.
        for name in ALL_BACKENDS:
            get_backend(name).make_config(
                "gcut", TINY, use_auxiliary_discriminator=False)
