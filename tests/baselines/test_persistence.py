"""Tests for baseline save/load through the model archive."""

import json

import numpy as np
import pytest

from repro.backends import get_backend
from repro.baselines import (ARBaseline, HMMBaseline, NaiveGANBaseline,
                             RNNBaseline)
from repro.nn.serialization import bytes_to_arrays

NAMES = ["hmm", "ar", "rnn", "naive_gan"]


def fitted_models(dataset):
    models = [
        HMMBaseline(n_states=4, n_iter=3, seed=0),
        ARBaseline(p=2, hidden=(16,), iterations=10, batch_size=16, seed=0),
        RNNBaseline(hidden_size=12, iterations=5, batch_size=16, seed=0),
        NaiveGANBaseline(noise_dim=6, generator_hidden=(16,),
                         discriminator_hidden=(16,), iterations=5,
                         batch_size=16, seed=0),
    ]
    for model in models:
        model.fit(dataset)
    return models


@pytest.fixture(scope="module")
def models(tiny_gcut):
    return fitted_models(tiny_gcut)


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(4), ids=NAMES)
    def test_identical_generation_after_reload(self, models, index):
        model = models[index]
        backend = get_backend(NAMES[index])
        loaded = backend.load_bytes(backend.save_bytes(model))
        a = model.generate(8, rng=np.random.default_rng(3))
        b = loaded.generate(8, rng=np.random.default_rng(3))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.lengths, b.lengths)

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError, match="fitted"):
            get_backend("hmm").save_bytes(HMMBaseline())

    def test_metadata_flags_attribute_leak(self, models):
        """Baseline parameter files embed raw training attributes; the
        archive must say so (the privacy caveat of §5.0.1)."""
        blob = get_backend("hmm").save_bytes(models[0])
        meta = json.loads(bytes_to_arrays(blob)["__meta__"].tobytes())
        assert meta["leaks_training_attributes"] is True
        assert meta["backend"] == "hmm"
        # The config is the full constructor kwargs.
        assert meta["config"] == {"n_states": 4, "n_iter": 3, "seed": 0}
