"""Tests for the teacher-forced RNN baseline."""

import numpy as np
import pytest

from repro.baselines.rnn import RNNBaseline
from repro.data.dataset import padding_mask
from repro.nn import grad
from tests.nn import oracle


def small_rnn(**kw):
    defaults = dict(hidden_size=16, iterations=20, batch_size=16, seed=0)
    defaults.update(kw)
    return RNNBaseline(**defaults)


class TestRNNBaseline:
    def test_fit_generate(self, tiny_gcut):
        model = small_rnn()
        model.fit(tiny_gcut)
        syn = model.generate(20, rng=np.random.default_rng(0))
        assert len(syn) == 20
        assert syn.schema == tiny_gcut.schema

    def test_loss_decreases(self, tiny_gcut):
        model = small_rnn(iterations=60)
        model.fit(tiny_gcut)
        assert np.mean(model.loss_history[-5:]) < np.mean(
            model.loss_history[:5])

    def test_fused_loss_matches_step_by_step_oracle(self, tiny_gcut):
        """The one-scan teacher-forced loss equals the loss composed one
        time step at a time, in value and in every parameter gradient."""
        model = small_rnn(iterations=3)
        model.fit(tiny_gcut)
        encoded = model.encoder.transform(tiny_gcut)
        idx = np.arange(12)
        feats = encoded.features[idx]
        mask = padding_mask(encoded.lengths, feats.shape[1])[idx]
        attrs = encoded.attributes[idx]
        params = model.cell.parameters() + model.readout.parameters()

        fused = model._fused_loss(attrs, feats, mask)
        reference = oracle.rnn_step_loss(model, attrs, feats, mask)
        assert abs(fused.item() - reference.item()) <= 1e-12
        for gf, gr in zip(grad(fused, params), grad(reference, params)):
            np.testing.assert_allclose(gf.data, gr.data, rtol=0,
                                       atol=1e-10)

    def test_limited_randomness(self, tiny_gcut):
        """The paper's observed weakness: conditioned on the same attribute
        and first record, generation is deterministic."""
        model = small_rnn()
        model.fit(tiny_gcut)
        a = model.generate(30, rng=np.random.default_rng(5))
        b = model.generate(30, rng=np.random.default_rng(5))
        assert np.allclose(a.features, b.features)

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            small_rnn().generate(2)

    def test_works_on_fixed_length_data(self, tiny_wwt):
        model = small_rnn(iterations=10)
        model.fit(tiny_wwt)
        syn = model.generate(5, rng=np.random.default_rng(0))
        assert len(syn) == 5
