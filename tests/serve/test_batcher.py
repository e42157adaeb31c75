"""MicroBatcher: determinism, FIFO turns, backpressure, drain."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry, use
from repro.serve.batcher import BatcherClosed, MicroBatcher, QueueFull
from tests.serve.conftest import assert_datasets_identical


@pytest.fixture
def batcher(trained_dg_gcut):
    with MicroBatcher(trained_dg_gcut) as b:
        yield b


class _HeldModel:
    """Context: the model's block execution parks on an Event and logs
    each block's size in the order blocks run."""

    def __init__(self, monkeypatch, model):
        self.release = threading.Event()
        self.started = threading.Event()
        self.sizes = []
        original = type(model)._generate_block

        def held(size, noise, cond):
            self.sizes.append(size)
            self.started.set()
            assert self.release.wait(20), "test forgot to release"
            return original(model, size, noise, cond)

        monkeypatch.setattr(model, "_generate_block", held)


class _Call(threading.Thread):
    """``batcher.generate(n, seed)`` on its own thread, the way a
    connection handler runs it."""

    def __init__(self, batcher, n, seed):
        super().__init__(daemon=True)
        self.batcher, self.n, self.seed = batcher, n, seed
        self.dataset = self.error = None
        self.start()

    def run(self):
        try:
            self.dataset = self.batcher.generate(self.n, self.seed)
        except BaseException as exc:  # re-raised by result()
            self.error = exc

    def result(self, timeout=60):
        self.join(timeout)
        assert not self.is_alive(), "request never finished"
        if self.error is not None:
            raise self.error
        return self.dataset


def _await_queued_rows(batcher, rows, timeout=10.0):
    """Block until ``rows`` rows are admitted (so admission order is
    fixed before the test goes on)."""
    deadline = time.monotonic() + timeout
    while batcher._queued_rows != rows:
        assert time.monotonic() < deadline, batcher._queued_rows
        time.sleep(0.001)


class TestDeterminism:
    def test_served_equals_direct_multi_block(self, batcher,
                                              trained_dg_gcut):
        # 37 rows = blocks of 16 + 16 + 5 at the model's batch size.
        served = batcher.generate(37, seed=99)
        direct = trained_dg_gcut.generate(
            37, rng=np.random.default_rng(99))
        assert_datasets_identical(served, direct)

    def test_concurrent_requests_each_identical(self, batcher,
                                                trained_dg_gcut):
        calls = {seed: _Call(batcher, 8 + seed, seed)
                 for seed in range(8)}
        for seed, call in calls.items():
            direct = trained_dg_gcut.generate(
                8 + seed, rng=np.random.default_rng(seed))
            assert_datasets_identical(call.result(timeout=120), direct)

    def test_n_zero_completes_immediately(self, batcher):
        assert len(batcher.generate(0, seed=1)) == 0

    def test_negative_n_rejected(self, batcher):
        with pytest.raises(ValueError):
            batcher.generate(-1, seed=0)

    def test_stages_time_the_turn_the_passes_and_the_decode(
            self, batcher):
        stages = {}
        batcher.generate(20, seed=4, stages=stages)
        assert set(stages) == {"queue", "model", "assemble"}
        assert all(value >= 0.0 for value in stages.values())


class TestTurns:
    def test_runs_on_the_calling_thread(self, monkeypatch,
                                        trained_dg_gcut):
        original = type(trained_dg_gcut)._generate_block
        threads = []

        def recording(size, noise, cond):
            threads.append(threading.current_thread())
            return original(trained_dg_gcut, size, noise, cond)

        monkeypatch.setattr(trained_dg_gcut, "_generate_block", recording)
        with MicroBatcher(trained_dg_gcut) as batcher:
            batcher.generate(20, seed=1)
        assert threads == [threading.current_thread()] * 2

    def test_queued_requests_finish_in_admission_order(
            self, monkeypatch, trained_dg_gcut):
        """With the turn held, three queued requests run (and finish)
        one at a time in the order they were admitted."""
        held = _HeldModel(monkeypatch, trained_dg_gcut)
        with MicroBatcher(trained_dg_gcut) as batcher:
            first = _Call(batcher, 1, seed=0)
            assert held.started.wait(10)
            queued = []
            for n in (5, 3, 7):
                queued.append(_Call(batcher, n, seed=n))
                _await_queued_rows(batcher, 1 + sum(c.n for c in queued))
            held.release.set()
            served = [call.result(timeout=30) for call in [first] + queued]
        assert held.sizes == [1, 5, 3, 7]
        for call, dataset in zip([first] + queued, served):
            direct = trained_dg_gcut.generate(
                call.n, rng=np.random.default_rng(call.seed))
            assert_datasets_identical(dataset, direct)

    def test_many_threads_never_overlap_passes(self, monkeypatch,
                                               trained_dg_gcut):
        """Stress: more callers than cores, switching threads as often
        as the interpreter allows; no two passes of one model ever run
        at once and every count balances."""
        original = type(trained_dg_gcut)._generate_block
        active, peak = [0], [0]

        def counted(size, noise, cond):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            try:
                return original(trained_dg_gcut, size, noise, cond)
            finally:
                active[0] -= 1

        monkeypatch.setattr(trained_dg_gcut, "_generate_block", counted)
        registry = MetricsRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use(registry), MicroBatcher(trained_dg_gcut) as batcher:
                calls = [_Call(batcher, 1 + seed % 20, seed)
                         for seed in range(24)]
                served = [call.result(timeout=120) for call in calls]
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1
        dump = registry.dump()
        assert dump["counters"]["serve.completed"] == 24
        assert dump["counters"]["serve.samples"] == sum(
            call.n for call in calls)
        assert dump["gauges"]["serve.queue_rows"] == 0
        for call, dataset in zip(calls, served):
            direct = trained_dg_gcut.generate(
                call.n, rng=np.random.default_rng(call.seed))
            assert_datasets_identical(dataset, direct)


class TestBackpressure:
    def test_full_queue_sheds_with_queue_full(self, monkeypatch,
                                              trained_dg_gcut):
        held = _HeldModel(monkeypatch, trained_dg_gcut)
        registry = MetricsRegistry()
        with use(registry), \
                MicroBatcher(trained_dg_gcut, max_queue_rows=40) as batcher:
            first = _Call(batcher, 16, seed=1)   # holds the turn
            assert held.started.wait(10)
            second = _Call(batcher, 16, seed=2)  # queued: 32/40 rows
            _await_queued_rows(batcher, 32)
            with pytest.raises(QueueFull, match="full"):
                batcher.generate(16, seed=3)     # 48 > 40: shed
            assert QueueFull.code == "busy"
            assert registry.counter("serve.shed").value == 1
            held.release.set()
            assert len(first.result(timeout=30)) == 16
            assert len(second.result(timeout=30)) == 16
        # shed requests never consumed queue budget
        assert registry.counter("serve.requests").value == 2

    def test_oversized_single_request_is_shed_not_hung(
            self, trained_dg_gcut):
        with MicroBatcher(trained_dg_gcut, max_queue_rows=8) as batcher:
            with pytest.raises(QueueFull):
                batcher.generate(9, seed=0)


class TestShutdown:
    def test_drain_completes_admitted_work(self, monkeypatch,
                                           trained_dg_gcut):
        held = _HeldModel(monkeypatch, trained_dg_gcut)
        batcher = MicroBatcher(trained_dg_gcut)
        first = _Call(batcher, 16, seed=1)
        assert held.started.wait(10)
        second = _Call(batcher, 16, seed=2)
        _await_queued_rows(batcher, 32)
        closer = threading.Thread(target=batcher.close,
                                  kwargs={"drain": True})
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # waits for the admitted requests
        held.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        direct = trained_dg_gcut.generate(16,
                                          rng=np.random.default_rng(2))
        assert_datasets_identical(second.result(timeout=1), direct)
        assert first.result(timeout=1) is not None

    def test_no_drain_fails_queued_requests(self, monkeypatch,
                                            trained_dg_gcut):
        held = _HeldModel(monkeypatch, trained_dg_gcut)
        batcher = MicroBatcher(trained_dg_gcut)
        in_flight = _Call(batcher, 16, seed=1)
        assert held.started.wait(10)
        queued = _Call(batcher, 16, seed=2)
        _await_queued_rows(batcher, 32)
        closer = threading.Thread(target=batcher.close,
                                  kwargs={"drain": False})
        closer.start()
        with pytest.raises(BatcherClosed):
            queued.result(timeout=10)
        held.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # the request already holding the turn still completes
        assert len(in_flight.result(timeout=1)) == 16

    def test_generate_after_close_is_rejected(self, trained_dg_gcut):
        batcher = MicroBatcher(trained_dg_gcut)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.generate(1, seed=0)
        assert BatcherClosed.code == "shutting_down"

    def test_close_is_idempotent(self, trained_dg_gcut):
        batcher = MicroBatcher(trained_dg_gcut)
        batcher.close()
        batcher.close()


class TestFailureIsolation:
    def test_block_failure_fails_only_that_request(self, monkeypatch,
                                                   trained_dg_gcut):
        original = type(trained_dg_gcut)._generate_block
        calls = {"count": 0}

        def flaky(size, noise, cond):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("injected block failure")
            return original(trained_dg_gcut, size, noise, cond)

        monkeypatch.setattr(trained_dg_gcut, "_generate_block", flaky)
        with MicroBatcher(trained_dg_gcut) as batcher:
            with pytest.raises(RuntimeError, match="injected"):
                batcher.generate(4, seed=1)
            # the failed request gave up its turn; the next one runs
            assert len(batcher.generate(4, seed=2)) == 4


class TestMetrics:
    def test_counters_and_latency_histogram(self, trained_dg_gcut):
        registry = MetricsRegistry()
        with use(registry), MicroBatcher(trained_dg_gcut) as batcher:
            batcher.generate(20, seed=1)
            batcher.generate(4, seed=2)
        dump = registry.dump()
        assert dump["counters"]["serve.requests"] == 2
        assert dump["counters"]["serve.completed"] == 2
        assert dump["counters"]["serve.samples"] == 24
        assert dump["counters"]["serve.model_passes"] == 3  # 16+4 and 4
        assert dump["histograms"]["serve.latency_seconds"]["count"] == 2
        assert dump["gauges"]["serve.queue_rows"] == 0
