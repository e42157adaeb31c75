"""Tests for the op-level profiler (repro.nn.profiler)."""

import numpy as np

from repro.nn import MLP, Tensor, grad, profiler


RNG = np.random.default_rng(17)


class TestOpProfiler:
    def test_inactive_by_default_records_nothing(self):
        profiler.PROFILER.reset()
        mlp = MLP(3, [4], 2, rng=np.random.default_rng(0))
        mlp(Tensor(RNG.normal(size=(2, 3))))
        assert profiler.PROFILER.total_calls() == 0

    def test_profile_context_records_forward_and_backward(self):
        mlp = MLP(3, [4], 2, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        with profiler.profile() as prof:
            loss = (mlp(x) ** 2).sum()
            grad(loss, mlp.parameters(), allow_unused=True)
        stats = prof.stats()
        assert "linear" in stats  # fused forward
        assert "matmul" in stats  # differentiable linear VJP
        assert all(entry["calls"] >= 1 and entry["seconds"] >= 0.0
                   for entry in stats.values())
        # Deactivated on exit.
        before = prof.total_calls()
        mlp(Tensor(RNG.normal(size=(2, 3))))
        assert prof.total_calls() == before

    def test_fused_lstm_records_kernel_and_backward(self):
        from repro.nn import LSTM
        lstm = LSTM(3, 4, rng=np.random.default_rng(1))
        x = Tensor(RNG.normal(size=(2, 5, 3)), requires_grad=True)
        with profiler.profile() as prof:
            grad((lstm(x) ** 2).sum(), [x])
        stats = prof.stats()
        assert stats["lstm_sequence"]["calls"] == 1
        assert stats["lstm_sequence.backward"]["calls"] == 1

    def test_summary_is_sorted_and_aligned(self):
        with profiler.profile() as prof:
            prof.record("slow_op", 2.0)
            prof.record("fast_op", 0.5)
        lines = prof.summary().splitlines()
        assert lines[0].split() == ["op", "calls", "seconds", "allocs"]
        assert lines[1].startswith("slow_op")
        assert lines[2].startswith("fast_op")
        assert prof.summary(top=1).count("\n") == 1

    def test_profiled_fit_records_lstm_sequence(self, tiny_gcut):
        from repro.core import DoppelGANger
        from tests.conftest import tiny_dg_config
        model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=2))
        with profiler.profile() as prof:
            model.fit(tiny_gcut)
        assert prof.stats()["lstm_sequence"]["calls"] > 0


class TestStatsOrdering:
    def test_seconds_ties_break_by_op_name(self):
        """Equal-seconds ops sort alphabetically, so reports are stable
        regardless of recording (insertion) order."""
        from repro.nn.profiler import OpProfiler
        prof = OpProfiler()
        prof.record("tanh", 0.5)
        prof.record("add", 0.5)
        prof.record("matmul", 0.5)
        prof.record("exp", 1.0)
        assert list(prof.stats()) == ["exp", "add", "matmul", "tanh"]

    def test_reversed_insertion_gives_same_order(self):
        from repro.nn.profiler import OpProfiler
        a, b = OpProfiler(), OpProfiler()
        for name in ("add", "mul", "sum"):
            a.record(name, 0.25)
        for name in ("sum", "mul", "add"):
            b.record(name, 0.25)
        assert list(a.stats()) == list(b.stats())
