"""Parity and gradcheck tests for the fused kernels (repro.nn.kernels).

Every fused kernel is checked three ways: forward parity against the
op-composed oracle (tests/nn/oracle.py), gradient parity against the
oracle, and gradients against central finite differences (the same
pattern as tests/nn/test_double_backprop.py).
"""

import numpy as np
import pytest

from repro.nn import LSTM, MLP, Linear, LSTMCell, Tensor, grad, kernels, ops
from tests.nn import oracle

RNG = np.random.default_rng(99)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def _oracle_lstm(lstm: LSTM, x: Tensor, state) -> Tensor:
    cell = lstm.cell
    return oracle.lstm_sequence(x, *state, cell.weight_ih, cell.weight_hh,
                                cell.bias)


class TestFusedLinear:
    def test_forward_matches_reference(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(7, 5)))
        fused = layer(x)
        reference = oracle.linear(x, layer.weight, layer.bias)
        assert np.array_equal(fused.data, reference.data)

    def test_gradients_match_reference_and_finite_difference(self):
        layer = Linear(4, 3, rng=np.random.default_rng(1))
        x = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
        wanted = [x, layer.weight, layer.bias]

        g_fused = grad((layer(x) ** 2).sum(), wanted)
        g_ref = grad((oracle.linear(x, layer.weight, layer.bias) ** 2).sum(),
                     wanted)
        for gf, gr in zip(g_fused, g_ref):
            assert np.allclose(gf.data, gr.data, atol=1e-12)

        def value() -> float:
            out = x.data @ layer.weight.data + layer.bias.data
            return float((out ** 2).sum())

        for tensor, gf in zip(wanted, g_fused):
            expected = numeric_grad(value, tensor.data)
            assert np.allclose(gf.data, expected, atol=1e-4)

    def test_second_order_through_fused_linear(self):
        # The critic path must support double backprop through fused linear.
        mlp = MLP(4, [8], 1, activation="tanh", rng=np.random.default_rng(2))
        x = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
        (g1,) = grad(mlp(x).sum(), [x], create_graph=True)
        penalty = (g1 ** 2).sum()
        weights = [p for p in mlp.parameters() if p.ndim == 2]
        analytic = grad(penalty, weights, allow_unused=True)

        def penalty_value() -> float:
            xt = Tensor(x.data, requires_grad=True)
            (gg,) = grad(oracle.mlp(mlp, xt).sum(), [xt])
            return float((gg.data ** 2).sum())

        for w, ga in zip(weights, analytic):
            expected = numeric_grad(penalty_value, w.data)
            assert np.allclose(ga.data, expected, atol=1e-4)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            kernels.linear(Tensor(np.zeros((2, 3, 4))),
                           Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


class TestFusedLSTMCell:
    def _cell(self, seed=3):
        return LSTMCell(3, 5, rng=np.random.default_rng(seed))

    def test_forward_matches_reference(self):
        cell = self._cell()
        x = Tensor(RNG.normal(size=(4, 3)))
        state = cell.initial_state(4)
        hf, cf = cell(x, state)
        hr, cr = oracle.lstm_cell(x, *state, cell.weight_ih, cell.weight_hh,
                                  cell.bias)
        assert np.array_equal(hf.data, hr.data)
        assert np.array_equal(cf.data, cr.data)

    def test_gradients_match_reference(self):
        cell = self._cell()
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        h0 = Tensor(RNG.normal(size=(4, 5)) * 0.3, requires_grad=True)
        c0 = Tensor(RNG.normal(size=(4, 5)) * 0.3, requires_grad=True)
        wanted = [x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias]

        def loss_through(step):
            # Two chained steps so h AND c both carry gradient backwards.
            h, c = step(x, (h0, c0))
            h, c = step(x, (h, c))
            return (h * h).sum() + (c * c).sum()

        def reference_step(x, state):
            return oracle.lstm_cell(x, *state, cell.weight_ih,
                                    cell.weight_hh, cell.bias)

        g_fused = grad(loss_through(cell), wanted)
        g_ref = grad(loss_through(reference_step), wanted)
        for gf, gr in zip(g_fused, g_ref):
            assert np.allclose(gf.data, gr.data, atol=1e-10)

    def test_gradients_match_finite_difference(self):
        cell = self._cell(seed=4)
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        h0 = Tensor(RNG.normal(size=(2, 5)) * 0.2, requires_grad=True)
        c0 = Tensor(RNG.normal(size=(2, 5)) * 0.2, requires_grad=True)
        wanted = [x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias]
        h, c = cell(x, (h0, c0))
        g_fused = grad((h * h).sum() + (c * c).sum(), wanted)

        def value() -> float:
            h, c = oracle.lstm_cell(Tensor(x.data), Tensor(h0.data),
                                    Tensor(c0.data), cell.weight_ih,
                                    cell.weight_hh, cell.bias)
            return float((h.data ** 2).sum() + (c.data ** 2).sum())

        for tensor, gf in zip(wanted, g_fused):
            expected = numeric_grad(value, tensor.data)
            assert np.allclose(gf.data, expected, atol=1e-4)

    def test_higher_order_raises_with_clear_message(self):
        cell = self._cell()
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        h, _ = cell(x, cell.initial_state(2))
        with pytest.raises(RuntimeError, match="first-order"):
            grad((h * h).sum(), [x], create_graph=True)


class TestFusedLSTMSequence:
    def _lstm(self, seed=5):
        return LSTM(3, 4, rng=np.random.default_rng(seed))

    def test_forward_matches_reference(self):
        lstm = self._lstm()
        x = Tensor(RNG.normal(size=(4, 6, 3)))
        fused = lstm(x)
        reference = _oracle_lstm(lstm, x, lstm.cell.initial_state(4))
        assert fused.shape == (4, 6, 4)
        assert np.allclose(fused.data, reference.data, atol=1e-14)

    def test_gradients_match_reference_all_parameters(self):
        lstm = self._lstm(seed=6)
        cell = lstm.cell
        x = Tensor(RNG.normal(size=(3, 5, 3)), requires_grad=True)
        h0 = Tensor(RNG.normal(size=(3, 4)) * 0.3, requires_grad=True)
        c0 = Tensor(RNG.normal(size=(3, 4)) * 0.3, requires_grad=True)
        wanted = [x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias]
        g_fused = grad((lstm(x, (h0, c0)) ** 2).sum(), wanted)
        g_ref = grad((_oracle_lstm(lstm, x, (h0, c0)) ** 2).sum(), wanted)
        for gf, gr in zip(g_fused, g_ref):
            assert gf.shape == gr.shape
            assert np.allclose(gf.data, gr.data, atol=1e-10)
            assert float(np.abs(gf.data).sum()) > 0  # gradient actually flows

    def test_gradients_match_finite_difference(self):
        lstm = self._lstm(seed=7)
        cell = lstm.cell
        x = Tensor(RNG.normal(size=(2, 4, 3)), requires_grad=True)
        h0 = Tensor(RNG.normal(size=(2, 4)) * 0.2, requires_grad=True)
        c0 = Tensor(RNG.normal(size=(2, 4)) * 0.2, requires_grad=True)
        wanted = [x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias]
        g_fused = grad((lstm(x, (h0, c0)) ** 2).sum(), wanted)

        def value() -> float:
            out = _oracle_lstm(lstm, Tensor(x.data),
                               (Tensor(h0.data), Tensor(c0.data)))
            return float((out.data ** 2).sum())

        for tensor, gf in zip(wanted, g_fused):
            expected = numeric_grad(value, tensor.data)
            assert np.allclose(gf.data, expected, atol=1e-4)

    def test_higher_order_raises_with_clear_message(self):
        lstm = self._lstm()
        x = Tensor(RNG.normal(size=(2, 3, 3)), requires_grad=True)
        out = lstm(x)
        with pytest.raises(RuntimeError, match="higher-order gradients "
                           r"\(create_graph=True\) through the LSTM kernels "
                           "are not supported"):
            grad((out ** 2).sum(), [x], create_graph=True)

    def test_graph_node_reduction_per_lstm_step(self):
        """One graph node for the whole scan instead of ~17 per step."""

        def count_nodes(root: Tensor) -> int:
            seen, stack = set(), [root]
            while stack:
                node = stack.pop()
                if id(node) in seen or node.is_leaf:
                    continue
                seen.add(id(node))
                stack.extend(node._parents)
            return len(seen)

        lstm = LSTM(3, 4, rng=np.random.default_rng(8))
        steps = 6
        x = Tensor(RNG.normal(size=(2, steps, 3)), requires_grad=True)
        fused_nodes = count_nodes(lstm(x))
        reference_nodes = count_nodes(
            _oracle_lstm(lstm, x, lstm.cell.initial_state(2)))
        assert fused_nodes == 1
        assert reference_nodes >= 3 * steps

    def test_rejects_non_3d(self):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch, time, features"):
            kernels.lstm_sequence(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((2, 4))),
                                  Tensor(np.zeros((2, 4))),
                                  cell.weight_ih, cell.weight_hh, cell.bias)


class TestSigmoidInto:
    def test_bitwise_equal_to_stable_sigmoid(self):
        """The buffered one-divide sigmoid the LSTM scan uses gives the
        same bits as ops' stable sigmoid, at the clip edges, at the signed
        zeros and on non-finite inputs too."""
        special = [0.0, -0.0, 499.9, -499.9, 500.0, -500.0, 501.0, -501.0,
                   np.inf, -np.inf, np.nan]
        x = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                            np.linspace(-800.0, 800.0, 1601), special])
        out, tmp = np.empty_like(x), np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool)
        got = kernels._sigmoid_into(x, out, tmp, mask)
        want = ops._sigmoid_stable(x)
        assert got is out
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
