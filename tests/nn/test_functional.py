"""Tests for higher-level differentiable functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, grad
from repro.nn import functional as F


RNG = np.random.default_rng(3)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        out = F.softmax(x)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_large_logits_stable(self):
        x = Tensor(np.array([[1000.0, 1001.0], [-1000.0, -999.0]]))
        out = F.softmax(x)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_gradient_matches_jacobian(self):
        logits = RNG.normal(size=(1, 4))
        t = Tensor(logits.copy(), requires_grad=True)
        out = F.softmax(t)
        v = RNG.normal(size=(1, 4))
        (g,) = grad(out, [t], grad_output=v)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        expected = p * (v - (v * p).sum())
        assert np.allclose(g.data, expected, atol=1e-10)

    def test_axis_argument(self):
        x = Tensor(RNG.normal(size=(3, 4, 5)))
        out = F.softmax(x, axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = Tensor(RNG.normal(size=(4, 6)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data),
                           atol=1e-12)

    def test_stable_at_extremes(self):
        x = Tensor(np.array([[500.0, -500.0]]))
        out = F.log_softmax(x)
        assert np.all(np.isfinite(out.data))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((3, 5)))
        loss = F.cross_entropy(logits, np.eye(5)[[0, 1, 2]])
        assert np.isclose(loss.item(), np.log(5))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.eye(3)[[1, 2]])
        assert loss.item() < 1e-8

    def test_gradient_is_softmax_minus_onehot(self):
        logits = RNG.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        onehot = np.eye(3)[labels]
        t = Tensor(logits.copy(), requires_grad=True)
        (g,) = grad(F.cross_entropy(t, onehot), [t])
        p = np.exp(logits - logits.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        assert np.allclose(g.data, (p - onehot) / 4, atol=1e-10)

    def test_one_hot_equals_gathered_form_bitwise(self):
        logits = RNG.normal(size=(32, 6)) * 40.0
        labels = RNG.integers(0, 6, size=32)
        t = Tensor(logits, requires_grad=True)
        loss = F.cross_entropy(t, np.eye(6)[labels])
        (g,) = grad(loss, [t])
        u = Tensor(logits, requires_grad=True)
        gathered = -F.log_softmax(u)[np.arange(32), labels].mean()
        (h,) = grad(gathered, [u])
        assert loss.data.tobytes() == gathered.data.tobytes()
        assert g.data.tobytes() == h.data.tobytes()


class TestMSE:
    def test_known_value(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 4.0]))
        assert np.isclose(loss.item(), (1 + 4) / 2)

    def test_zero_at_equal(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        assert F.mse_loss(x, Tensor(x.data.copy())).item() == 0.0


class TestNorms:
    def test_l2_norm_matches_numpy(self):
        x = RNG.normal(size=(4, 5))
        out = F.l2_norm(Tensor(x), axis=1)
        assert np.allclose(out.data, np.linalg.norm(x, axis=1), atol=1e-6)

    def test_gradient_penalty_norm_flattens(self):
        g = RNG.normal(size=(3, 4, 5))
        out = F.gradient_penalty_norm(Tensor(g))
        expected = np.linalg.norm(g.reshape(3, -1), axis=1)
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_l2_norm_finite_gradient_at_zero(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = F.l2_norm(t, axis=1)
        (g,) = grad(out.sum(), [t])
        assert np.all(np.isfinite(g.data))


class TestBCE:
    def test_matches_naive_formula(self):
        logits = RNG.normal(size=(6,))
        targets = RNG.uniform(size=(6,))
        loss = F.binary_cross_entropy_with_logits(Tensor(logits),
                                                  Tensor(targets))
        p = 1 / (1 + np.exp(-logits))
        naive = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert np.isclose(loss.item(), naive, atol=1e-10)

    def test_stable_at_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), Tensor([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-8


class TestLeakyRelu:
    def test_values(self):
        out = F.leaky_relu(Tensor([-2.0, 3.0]), negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 3.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
def test_softmax_probabilities_property(logits):
    out = F.softmax(Tensor(np.array([logits])))
    assert np.all(out.data >= 0)
    assert np.isclose(out.data.sum(), 1.0)
