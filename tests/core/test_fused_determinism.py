"""Bit-level determinism: fused kernels must not change the training math.

Trains the same seeded DoppelGANger twice -- once as shipped, once with
its layers on the op-composed oracle (tests/nn/oracle.py) -- and requires
the loss traces to agree to <=1e-9.  The two paths differ only in how the
identical arithmetic is scheduled (batched GEMMs and single-node scans vs
op-by-op graphs), so any real divergence is a kernel bug.
"""

import contextlib

import numpy as np

from repro.core import DoppelGANger
from repro.data.simulators import generate_wwt
from repro.nn import grad, profiler, Tensor
from repro.nn import functional as F
from tests.conftest import tiny_dg_config
from tests.nn.oracle import reference_layers


def _loss_trace(fused: bool) -> tuple[list[float], list[float], list[float]]:
    data = generate_wwt(48, np.random.default_rng(5), length=14,
                        long_period=7)
    config = tiny_dg_config(sample_len=7, iterations=5, batch_size=12)
    with contextlib.nullcontext() if fused else reference_layers():
        model = DoppelGANger(data.schema, config)
        history = model.fit(data, log_every=1)
    return history.d_loss, history.g_loss, history.wasserstein


class TestFusedDeterminism:
    def test_seeded_loss_trace_identical_fused_vs_reference(self):
        d_f, g_f, w_f = _loss_trace(fused=True)
        d_r, g_r, w_r = _loss_trace(fused=False)
        assert len(d_f) == len(d_r) > 0
        np.testing.assert_allclose(d_f, d_r, rtol=0, atol=1e-9)
        np.testing.assert_allclose(g_f, g_r, rtol=0, atol=1e-9)
        np.testing.assert_allclose(w_f, w_r, rtol=0, atol=1e-9)

    def test_oracle_training_calls_no_fused_kernel(self):
        """The comparison above is not vacuous: the oracle run composes
        ops only."""
        data = generate_wwt(24, np.random.default_rng(5), length=14,
                            long_period=7)
        config = tiny_dg_config(sample_len=7, iterations=1, batch_size=12)
        with reference_layers(), profiler.profile() as prof:
            DoppelGANger(data.schema, config).fit(data)
        calls = prof.stats()
        assert "matmul" in calls
        assert not {"linear", "lstm_cell", "lstm_sequence"} & set(calls)

    def test_same_seed_same_path_is_bitwise_identical(self):
        first = _loss_trace(fused=True)
        second = _loss_trace(fused=True)
        for a, b in zip(first, second):
            assert a == b


class TestGradientPenaltySecondOrderFused:
    def test_discriminator_gp_matches_finite_difference(self):
        """WGAN-GP second-order check through the refactored critic path."""
        from repro.core.discriminator import Discriminator

        rng = np.random.default_rng(0)
        critic = Discriminator(attribute_dim=2, minmax_dim=0, feature_dim=3,
                               max_length=2, hidden=(8,), rng=rng)
        x = Tensor(rng.normal(size=(5, critic.input_dim)),
                   requires_grad=True)

        def penalty_value() -> float:
            xt = Tensor(x.data, requires_grad=True)
            (gg,) = grad(critic(xt).sum(), [xt])
            n = np.sqrt((gg.data ** 2).sum(axis=1) + 1e-12)
            return float(((n - 1) ** 2).mean())

        (g,) = grad(critic(x).sum(), [x], create_graph=True)
        norms = F.gradient_penalty_norm(g)
        penalty = ((norms - Tensor(1.0)) ** 2).mean()
        weights = [p for p in critic.parameters() if p.ndim == 2]
        analytic = grad(penalty, weights, allow_unused=True)

        eps = 1e-5
        for w, ga in zip(weights, analytic):
            expected = np.zeros_like(w.data)
            flat = w.data.reshape(-1)
            gflat = expected.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = penalty_value()
                flat[i] = orig - eps
                down = penalty_value()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * eps)
            assert np.allclose(ga.data, expected, atol=1e-4)
