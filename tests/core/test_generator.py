"""Tests for the three DoppelGANger generator networks."""

import numpy as np
import pytest

from repro.core.generator import (AttributeGenerator, BlockActivation,
                                  FeatureGenerator, MinMaxGenerator,
                                  OutputBlock)
from repro.nn import Tensor, grad
from repro.nn.plan import PlanFunction
from tests.nn import oracle


RNG = np.random.default_rng(21)


class TestOutputBlock:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="kind"):
            OutputBlock(3, "softplus")

    def test_dimension_validated(self):
        with pytest.raises(ValueError, match="dimension"):
            OutputBlock(0, "softmax")


class TestBlockActivation:
    def test_softmax_blocks_sum_to_one(self):
        act = BlockActivation([OutputBlock(3, "softmax"),
                               OutputBlock(2, "softmax")])
        out = act(Tensor(RNG.normal(size=(5, 5))))
        assert np.allclose(out.data[:, :3].sum(axis=1), 1.0)
        assert np.allclose(out.data[:, 3:].sum(axis=1), 1.0)

    def test_sigmoid_block_in_unit_interval(self):
        act = BlockActivation([OutputBlock(2, "sigmoid")])
        out = act(Tensor(RNG.normal(size=(4, 2)) * 10))
        assert out.data.min() >= 0 and out.data.max() <= 1

    def test_tanh_block_range(self):
        act = BlockActivation([OutputBlock(2, "tanh")])
        out = act(Tensor(RNG.normal(size=(4, 2)) * 10))
        assert out.data.min() >= -1 and out.data.max() <= 1

    def test_works_on_3d_input(self):
        act = BlockActivation([OutputBlock(2, "softmax"),
                               OutputBlock(1, "sigmoid")])
        out = act(Tensor(RNG.normal(size=(4, 6, 3))))
        assert out.shape == (4, 6, 3)
        assert np.allclose(out.data[:, :, :2].sum(axis=2), 1.0)


def _blocks(*spec) -> list[OutputBlock]:
    return [OutputBlock(dim, kind) for dim, kind in spec]


#: Layouts whose per-block and grouped evaluation must agree bit for bit:
#: a feature generator's records (wide softmax blocks repeated per
#: record), a 2-wide flag next to elementwise blocks, softmax blocks
#: wider than one pairwise-summation block (128), a lone block and one
#: block per kind.
PARITY_LAYOUTS = {
    "records": _blocks((9, "softmax"), (1, "sigmoid"), (12, "softmax"),
                       (1, "tanh"), (2, "softmax")) * 3,
    "flags": _blocks((1, "sigmoid"), (1, "sigmoid"), (2, "softmax")) * 4,
    "very_wide": _blocks((130, "softmax"), (3, "tanh"), (130, "softmax")),
    "single": _blocks((5, "sigmoid")),
    "one_per_kind": _blocks((3, "tanh"), (8, "softmax"), (2, "sigmoid")),
}


def _activation_and_input_grad(act, x, upstream):
    xt = Tensor(x, requires_grad=True)
    out = act(xt)
    (gx,) = grad(out, [xt], grad_output=Tensor(upstream))
    return out, gx


def _assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestBlockActivationParity:
    """:class:`BlockActivation` against the per-block oracle, forward and
    input gradient, bit for bit: eagerly and replayed from a plan."""

    @pytest.mark.parametrize("bound", [None, 3.0])
    @pytest.mark.parametrize("layout", sorted(PARITY_LAYOUTS))
    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    def test_matches_per_block_oracle(self, layout, bound, lead):
        act = BlockActivation(PARITY_LAYOUTS[layout], logit_bound=bound)
        rng = np.random.default_rng(len(layout) + len(lead))
        x = rng.normal(size=lead + (act.dimension,)) * 4
        upstream = rng.normal(size=x.shape)
        out, gx = _activation_and_input_grad(act, x, upstream)
        ref_out, ref_gx = _activation_and_input_grad(
            lambda t: oracle.block_activation(act, t), x, upstream)
        _assert_same_bytes(out.data, ref_out.data)
        _assert_same_bytes(gx.data, ref_gx.data)

        def fn(x_arr, g_arr):
            return _activation_and_input_grad(act, x_arr, g_arr)

        plan = PlanFunction(fn)
        plan((x, upstream))  # trace
        replayed = plan((x.copy(), upstream.copy()))
        assert plan.stats["replays"] == 1
        _assert_same_bytes(replayed[0], ref_out.data)
        _assert_same_bytes(replayed[1], ref_gx.data)


class TestAttributeGenerator:
    def test_output_shape_and_blocks(self):
        gen = AttributeGenerator([OutputBlock(3, "softmax"),
                                  OutputBlock(1, "sigmoid")],
                                 noise_dim=4, hidden=(16,), rng=RNG)
        z = gen.sample_noise(6, np.random.default_rng(0))
        out = gen(z)
        assert out.shape == (6, 4)
        assert np.allclose(out.data[:, :3].sum(axis=1), 1.0)

    def test_noise_shape(self):
        gen = AttributeGenerator([OutputBlock(2, "softmax")], noise_dim=5,
                                 hidden=(8,), rng=RNG)
        assert gen.sample_noise(3, np.random.default_rng(0)).shape == (3, 5)


class TestMinMaxGenerator:
    def test_output_shape(self):
        gen = MinMaxGenerator(attribute_dim=4, minmax_dim=2, noise_dim=3,
                              hidden=(8,), target_range="zero_one", rng=RNG)
        attrs = Tensor(RNG.uniform(size=(5, 4)))
        out = gen(attrs, gen.sample_noise(5, np.random.default_rng(0)))
        assert out.shape == (5, 2)
        assert out.data.min() >= 0 and out.data.max() <= 1

    def test_zero_width_when_disabled(self):
        gen = MinMaxGenerator(attribute_dim=4, minmax_dim=0, noise_dim=3,
                              hidden=(8,), target_range="zero_one", rng=RNG)
        attrs = Tensor(RNG.uniform(size=(5, 4)))
        out = gen(attrs, gen.sample_noise(5, np.random.default_rng(0)))
        assert out.shape == (5, 0)
        assert not gen.parameters()


class TestFeatureGenerator:
    def make(self, sample_len=3, max_length=12):
        return FeatureGenerator(
            attribute_dim=4, minmax_dim=2,
            feature_blocks=[OutputBlock(1, "sigmoid"),
                            OutputBlock(2, "softmax")],
            max_length=max_length, sample_len=sample_len, noise_dim=3,
            rnn_units=8, mlp_hidden=(8,), rng=RNG)

    def test_output_shape_includes_flags(self):
        gen = self.make()
        attrs = Tensor(RNG.uniform(size=(5, 4)))
        mm = Tensor(RNG.uniform(size=(5, 2)))
        z = gen.sample_noise(5, np.random.default_rng(0))
        out = gen(attrs, mm, z)
        # step dim = 1 + 2 features + 2 flags
        assert out.shape == (5, 12, 5)

    def test_flag_channels_are_probabilities(self):
        gen = self.make()
        attrs = Tensor(RNG.uniform(size=(3, 4)))
        mm = Tensor(RNG.uniform(size=(3, 2)))
        out = gen(attrs, mm, gen.sample_noise(3, np.random.default_rng(0)))
        flags = out.data[:, :, -2:]
        assert np.allclose(flags.sum(axis=2), 1.0)

    def test_sample_len_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            self.make(sample_len=5, max_length=12)

    def test_pass_count(self):
        gen = self.make(sample_len=4, max_length=12)
        assert gen.passes == 3
        z = gen.sample_noise(2, np.random.default_rng(0))
        assert z.shape == (2, 3, 3)

    def test_forward_and_gradients_match_per_pass_oracle(self):
        """One lstm_sequence node plus one batched head equals the scan
        composed pass by pass, in the output and every gradient."""
        gen = self.make(sample_len=4, max_length=12)
        rng = np.random.default_rng(1)
        attrs = Tensor(rng.uniform(size=(5, 4)), requires_grad=True)
        mm = Tensor(rng.uniform(size=(5, 2)), requires_grad=True)
        z = Tensor(gen.sample_noise(5, rng).data, requires_grad=True)
        weights = Tensor(rng.normal(size=(5, 12, gen.step_dim)))
        wanted = [attrs, mm, z, *gen.parameters()]

        fused = gen(attrs, mm, z)
        reference = oracle.feature_generator(gen, attrs, mm, z)
        np.testing.assert_allclose(fused.data, reference.data, rtol=0,
                                   atol=1e-12)
        g_fused = grad((fused * weights).sum(), wanted)
        g_ref = grad((reference * weights).sum(), wanted)
        for gf, gr in zip(g_fused, g_ref):
            assert float(np.abs(gf.data).sum()) > 0
            np.testing.assert_allclose(gf.data, gr.data, rtol=0,
                                       atol=1e-10)

    def test_attributes_influence_features(self):
        """Conditioning is fed at every step: different attrs, same noise
        must give different series."""
        gen = self.make()
        rng = np.random.default_rng(0)
        z = gen.sample_noise(1, rng)
        mm = Tensor(np.full((1, 2), 0.5))
        out_a = gen(Tensor(np.array([[1.0, 0, 0, 0]])), mm, z)
        out_b = gen(Tensor(np.array([[0.0, 0, 0, 1.0]])), mm, z)
        assert not np.allclose(out_a.data, out_b.data)


class TestLogitBound:
    def test_bound_limits_outputs(self):
        act = BlockActivation([OutputBlock(2, "sigmoid")], logit_bound=3.0)
        out = act(Tensor(np.full((4, 2), 100.0)))
        ceiling = 1 / (1 + np.exp(-3.0))
        assert np.all(out.data <= ceiling + 1e-12)
        assert np.all(out.data > 0.9)

    def test_bound_is_transparent_for_small_logits(self):
        unbounded = BlockActivation([OutputBlock(2, "sigmoid")])
        bounded = BlockActivation([OutputBlock(2, "sigmoid")],
                                  logit_bound=50.0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 2)))
        assert np.allclose(unbounded(x).data, bounded(x).data, atol=1e-3)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="logit_bound"):
            BlockActivation([OutputBlock(2, "sigmoid")], logit_bound=0.0)
