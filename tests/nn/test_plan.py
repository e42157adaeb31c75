"""Plan compiler: trace/replay identity, guards, fallback behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, grad, no_grad, profiler
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.layers import MLP
from repro.nn.plan import PlanFunction, plan_mode


def _mlp_fn(mlp):
    def fn(x):
        out = mlp(Tensor(x))
        return (out,)
    return fn


def _make_mlp(activation="relu"):
    return MLP(6, [8, 8], 3, activation=activation,
               rng=np.random.default_rng(0))


class TestReplayIdentity:
    def test_mlp_forward_bitwise(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp))
        x = np.random.default_rng(1).normal(size=(5, 6))
        first = plan((x,))[0].copy()       # trace (eager)
        eager = mlp(Tensor(x.copy())).data
        replayed = plan((x,))[0]
        assert plan.stats == {"traces": 1, "replays": 1, "eager_calls": 0,
                              "fallbacks": 0}
        np.testing.assert_array_equal(first, eager)
        np.testing.assert_array_equal(replayed, eager)

    @pytest.mark.parametrize("activation",
                             ["relu", "tanh", "sigmoid", "leaky_relu"])
    def test_gradients_bitwise(self, activation):
        mlp = _make_mlp(activation)
        params = mlp.parameters()

        def fn(x, y):
            pred = mlp(Tensor(x))
            loss = ((pred - Tensor(y)) * (pred - Tensor(y))).mean()
            return (loss,) + tuple(grad(loss, params, allow_unused=True))

        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
        plan = PlanFunction(fn, params=params)
        traced = [a.copy() for a in plan((x, y))]
        replayed = plan((x, y))
        with plan_mode(False):
            eager = plan((x, y))
        assert plan.stats["replays"] == 1
        for t, r, e in zip(traced, replayed, eager):
            np.testing.assert_array_equal(t, e)
            np.testing.assert_array_equal(r, e)

    def test_softmax_and_reductions_bitwise(self):
        def fn(x):
            sm = F.softmax(Tensor(x), axis=-1)
            return (sm, sm.sum(axis=0))

        x = np.random.default_rng(3).normal(size=(4, 5)) * 30
        plan = PlanFunction(fn)
        traced = [a.copy() for a in plan((x,))]
        replayed = plan((x,))
        for t, r in zip(traced, replayed):
            np.testing.assert_array_equal(t, r)

    def test_double_backprop_bitwise(self):
        """Gradient-of-gradient (the WGAN-GP pattern) replays identically."""
        mlp = _make_mlp("tanh")
        params = mlp.parameters()

        def fn(x):
            inp = Tensor(x)
            inp.requires_grad = True
            out = mlp(inp).sum()
            (g,) = grad(out, [inp], create_graph=True)
            penalty = (g * g).sum()
            return (penalty,) + tuple(grad(penalty, params,
                                           allow_unused=True))

        x = np.random.default_rng(4).normal(size=(3, 6))
        plan = PlanFunction(fn, params=params)
        traced = [None if a is None else a.copy() for a in plan((x,))]
        replayed = plan((x,))
        assert plan.stats["replays"] == 1
        for t, r in zip(traced, replayed):
            if t is None:
                assert r is None
            else:
                np.testing.assert_array_equal(t, r)


class TestParameterLiveness:
    def test_param_update_visible_on_replay(self):
        p = Parameter(np.ones((3, 3)))

        def fn(x):
            return (ops.matmul(Tensor(x), p),)

        plan = PlanFunction(fn, params=[p])
        x = np.eye(3)
        plan((x,))
        p.data -= 0.5                      # in-place optimizer-style update
        np.testing.assert_array_equal(plan((x,))[0], np.full((3, 3), 0.5))

    def test_param_rebinding_visible_on_replay(self):
        """load_state_dict rebinds p.data to a new array; the plan must
        re-read the attribute, not hold the traced array."""
        p = Parameter(np.ones((3, 3)))

        def fn(x):
            return (ops.matmul(Tensor(x), p),)

        plan = PlanFunction(fn, params=[p])
        plan((np.eye(3),))
        p.data = np.full((3, 3), 2.0)      # fresh array, new id
        np.testing.assert_array_equal(plan((np.eye(3),))[0],
                                      np.full((3, 3), 2.0))


class TestGuardsAndFallback:
    def test_shape_change_retraces(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp))
        plan((np.zeros((4, 6)),))
        plan((np.zeros((7, 6)),))
        assert plan.stats["traces"] == 2
        plan((np.zeros((4, 6)),))
        assert plan.stats["replays"] == 1

    def test_unconsumed_input_falls_back(self):
        def fn(x, unused):
            return (ops.relu(Tensor(x)),)

        plan = PlanFunction(fn)
        x, unused = np.ones((2, 2)), np.ones(3)
        first = plan((x, unused))[0].copy()
        again = plan((x, unused))[0]
        assert plan.stats["fallbacks"] == 1
        assert plan.stats["eager_calls"] == 1
        np.testing.assert_array_equal(first, again)

    def test_input_returned_as_is_is_not_unconsumed(self):
        def fn(x, y):
            return (Tensor(x), ops.relu(Tensor(y)))

        plan = PlanFunction(fn)
        x, y = np.ones((2, 2)), -np.ones((2, 2))
        plan((x, y))
        out = plan((x, y))
        assert plan.stats["replays"] == 1
        np.testing.assert_array_equal(out[0], x)
        # Returned inputs are copied: mutating the result must not touch
        # the caller's array.
        out[0][0, 0] = 99.0
        assert x[0, 0] == 1.0

    def test_duplicate_input_array_falls_back(self):
        def fn(a, b):
            return (ops.add(Tensor(a), Tensor(b)),)

        plan = PlanFunction(fn)
        x = np.ones((2, 2))
        out = plan((x, x))[0]
        assert plan.stats["fallbacks"] == 1
        np.testing.assert_array_equal(out, 2 * x)

    def test_disabled_plan_runs_eager(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp))
        x = np.zeros((2, 6))
        with plan_mode(False):
            plan((x,))
            plan((x,))
        assert plan.stats == {"traces": 0, "replays": 0, "eager_calls": 2,
                              "fallbacks": 0}

    def test_max_plans_cap(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp), max_plans=2)
        for batch in (1, 2, 3, 4):
            plan((np.zeros((batch, 6)),))
        assert plan.stats["traces"] == 2
        assert plan.stats["eager_calls"] == 2


class TestArenaSafety:
    def test_copy_outputs_do_not_alias_across_replays(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp), copy_outputs=True)
        a = np.random.default_rng(5).normal(size=(3, 6))
        b = np.random.default_rng(6).normal(size=(3, 6))
        plan((a,))
        first = plan((a,))[0]
        snapshot = first.copy()
        plan((b,))                          # overwrites the arena
        np.testing.assert_array_equal(first, snapshot)

    def test_uncopied_outputs_valid_until_next_replay(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp))
        x = np.random.default_rng(7).normal(size=(3, 6))
        plan((x,))
        out = plan((x,))[0]
        np.testing.assert_array_equal(out, mlp(Tensor(x.copy())).data)

    def test_caller_mutation_of_outputs_is_safe(self):
        """Mutating a replay output (clip_grad_norm style) cannot corrupt
        later replays: every buffer is fully rewritten."""
        mlp = _make_mlp()
        params = mlp.parameters()

        def fn(x):
            loss = mlp(Tensor(x)).sum()
            return tuple(grad(loss, params, allow_unused=True))

        plan = PlanFunction(fn, params=params)
        x = np.random.default_rng(8).normal(size=(3, 6))
        plan((x,))
        reference = [g.copy() for g in plan((x,))]
        for g in plan((x,)):
            g *= 0.0                        # in-place caller mutation
        for ref, fresh in zip(reference, plan((x,))):
            np.testing.assert_array_equal(ref, fresh)


class TestProfilerIntegration:
    def test_replay_reports_allocs_through_profiler(self):
        mlp = _make_mlp()
        plan = PlanFunction(_mlp_fn(mlp))
        x = np.zeros((3, 6))
        plan((x,))
        with profiler.profile() as prof:
            plan((x,))
        stats = prof.stats()
        assert stats, "replay should record per-op entries"
        assert plan.stats["replays"] == 1
        assert "matmul" in stats or "linear" in stats
        # Replay allocation total matches the compiled plan's own count.
        assert prof.total_allocs() == plan.allocs_per_replay()

    def test_replay_allocates_far_less_than_eager(self):
        mlp = _make_mlp()
        params = mlp.parameters()

        def fn(x):
            loss = mlp(Tensor(x)).sum()
            return (loss,) + tuple(grad(loss, params, allow_unused=True))

        plan = PlanFunction(fn, params=params)
        x = np.random.default_rng(9).normal(size=(4, 6))
        with profiler.profile() as prof:
            plan((x,))                      # trace == eager execution
        eager_allocs = prof.total_allocs()
        assert plan.allocs_per_replay() * 10 <= eager_allocs


class TestBufferPlanning:
    def _replay_and_eager(self, fn, *inputs):
        plan = PlanFunction(fn)
        plan(inputs)                         # trace
        with profiler.profile() as prof:
            replayed = [a.copy() for a in plan(inputs)]
        with plan_mode(False):
            eager = plan(inputs)
        assert plan.stats["replays"] == 1
        for r, e in zip(replayed, eager):
            assert r.tobytes() == e.tobytes()
        return plan, prof.stats()

    def test_dead_multi_output_step_is_dropped(self):
        """``maximum`` records its two gradient masks as one two-output
        step; with no backward nothing reads them, so the replay skips
        that step and still matches the eager tape byte for byte."""
        def fn(x):
            m = ops.maximum(Tensor(x), Tensor(0.25))
            return ((m * Tensor(3.0)).sum(axis=0), ops.tanh(m))

        x = np.random.default_rng(10).normal(size=(5, 4))
        _, stats = self._replay_and_eager(fn, x)
        assert "maximum.mask" not in stats
        assert stats["maximum"]["calls"] == 1

    def test_chain_reuses_pooled_buffers(self):
        def fn(x):
            y = Tensor(x)
            for _ in range(8):
                y = ops.exp(ops.tanh(y) * Tensor(0.5))
            return (y,)

        x = np.random.default_rng(11).normal(size=(6, 5))
        plan, _ = self._replay_and_eager(fn, x)
        # 16 same-shape intermediates fit in three buffers (the returned
        # one included); constants are the 0-d 0.5 snapshots.
        assert plan.arena_bytes() <= 3 * x.nbytes + 8 * 8

    def test_view_keeps_its_storage_alive(self):
        """``a``'s last direct read is the transpose, but the view is read
        later: ``b`` must not be given ``a``'s buffer before then."""
        def fn(x):
            t = Tensor(x)
            a = t * Tensor(2.0)
            view = ops.transpose(a)
            b = t + Tensor(1.0)
            return (view * ops.transpose(b),)

        x = np.random.default_rng(12).normal(size=(4, 3))
        self._replay_and_eager(fn, x)

    def test_arena_bytes_before_any_plan(self):
        assert PlanFunction(_mlp_fn(_make_mlp())).arena_bytes() is None
