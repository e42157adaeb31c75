"""Compiled-vs-eager byte identity (the PR-8 plan-compiler contract).

Training under the trace-and-replay plan compiler must be *bit-identical*
to eager execution -- losses, trained parameters, and generated bytes --
on every simulator schema.  The serving path (``_generate_block``, the
MicroBatcher hot path) is held to the same standard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.data import simulators as sims
from repro.nn.plan import plan_mode
from tests.conftest import tiny_dg_config


def _dataset(name):
    rng = np.random.default_rng(5)
    if name == "gcut":
        return sims.generate_gcut(48, rng, max_length=12)
    if name == "wwt":
        return sims.generate_wwt(48, rng, length=12)
    return sims.generate_mba(48, rng, length=12)


def _train_and_generate(dataset, compiled: bool, **overrides):
    with plan_mode(compiled):
        model = DoppelGANger(dataset.schema, tiny_dg_config(
            **{"iterations": 3, "batch_size": 12, **overrides}))
        history = model.fit(dataset, log_every=1)
        out = model.generate_encoded(20, rng=np.random.default_rng(9))
    params = [p.data.copy() for p in
              (model.trainer.generator_params
               + model.trainer.discriminator_params)]
    return model, history, out, params


class TestCompiledEqualsEager:
    @pytest.mark.parametrize("simulator", ["gcut", "wwt", "mba"])
    def test_training_and_generation_bitwise(self, simulator):
        dataset = _dataset(simulator)
        model_c, hist_c, out_c, params_c = _train_and_generate(
            dataset, compiled=True)
        _, hist_e, out_e, params_e = _train_and_generate(
            dataset, compiled=False)
        assert hist_c.d_loss == hist_e.d_loss
        assert hist_c.g_loss == hist_e.g_loss
        assert hist_c.wasserstein == hist_e.wasserstein
        for pc, pe in zip(params_c, params_e):
            assert np.array_equal(pc, pe)
        for ac, ae in zip(out_c, out_e):
            assert np.array_equal(ac, ae)
        # The identity is not vacuous: the compiled run actually replayed.
        d_plan = model_c.trainer.__dict__.get("_d_plan")
        assert d_plan is not None and d_plan.stats["replays"] >= 1
        assert d_plan.stats["fallbacks"] == 0

    def test_without_the_minmax_generator_every_step_replays(self):
        """The zero-width min/max inputs and outputs hold no values, so
        they do not push the steps back to the eager tape."""
        dataset = _dataset("wwt")
        model_c, hist_c, out_c, params_c = _train_and_generate(
            dataset, compiled=True, use_minmax_generator=False)
        _, hist_e, out_e, params_e = _train_and_generate(
            dataset, compiled=False, use_minmax_generator=False)
        assert hist_c.d_loss == hist_e.d_loss
        assert hist_c.g_loss == hist_e.g_loss
        for pc, pe in zip(params_c, params_e):
            assert np.array_equal(pc, pe)
        for ac, ae in zip(out_c, out_e):
            assert np.array_equal(ac, ae)
        for name in ("_d_plan", "_g_plan", "_w_plan"):
            stats = model_c.trainer.__dict__[name].stats
            assert stats["fallbacks"] == 0 and stats["replays"] > 0, name

    def test_conditioned_generation_bitwise(self):
        dataset = _dataset("gcut")
        model, _, _, _ = _train_and_generate(dataset, compiled=True)
        attrs = dataset.attributes[:15]
        with plan_mode(True):
            compiled = model.generate_encoded(
                15, rng=np.random.default_rng(2), attributes=attrs)
        with plan_mode(False):
            eager = model.generate_encoded(
                15, rng=np.random.default_rng(2), attributes=attrs)
        for c, e in zip(compiled, eager):
            assert np.array_equal(c, e)


class TestServingPlan:
    def test_served_block_path_replays_and_matches_direct(self):
        """The MicroBatcher executes ``model._generate_block``; repeated
        same-size blocks must replay the generation plan and still match
        direct eager generation byte-for-byte."""
        from repro.serve.batcher import MicroBatcher

        dataset = _dataset("gcut")
        model, _, _, _ = _train_and_generate(dataset, compiled=True)
        with plan_mode(True), MicroBatcher(model) as batcher:
            served = [batcher.generate(12, seed=s) for s in range(3)]
        plan = model.__dict__.get("_gen_plan_uncond")
        assert plan is not None and plan.stats["replays"] >= 1
        with plan_mode(False):
            for seed, got in enumerate(served):
                direct = model.generate(
                    12, rng=np.random.default_rng(seed))
                assert np.array_equal(got.attributes, direct.attributes)
                assert np.array_equal(got.features, direct.features)
                assert np.array_equal(got.lengths, direct.lengths)

    def test_sharded_generation_after_plans_exist_matches_serial(self):
        """Sharded generation ships the model to workers as archive bytes
        after its plans exist; the workers trace their own plans and the
        output is unchanged."""
        dataset = _dataset("gcut")
        model, _, _, _ = _train_and_generate(dataset, compiled=True)
        with plan_mode(True):
            serial = model.generate_encoded(
                30, rng=np.random.default_rng(4), workers=1)
            sharded = model.generate_encoded(
                30, rng=np.random.default_rng(4), workers=2)
        for a, b in zip(serial, sharded):
            assert np.array_equal(a, b)

