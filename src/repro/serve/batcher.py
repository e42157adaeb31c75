"""Per-model admission gate for online generation.

Each ``generate(n, seed)`` request runs on the thread that asked for it
(a :class:`~repro.serve.server.Server` connection handler); the batcher
only decides *when*.  Three properties drive the design:

**Determinism by construction.**  A served request must be byte-identical
to a direct :meth:`DoppelGANger.generate` call with the same seed (the
contract CI enforces).  That rules out concatenating rows from several
requests into one forward pass, because BLAS gemm results depend on the
row count of the pass: on this substrate a ``(8,16)@(16,2)`` product and
the same rows computed in a ``(3,16)@(16,2)`` product differ in the last
ulp (OpenBLAS dispatches different kernels by shape; measured in
``docs/serving.md``).  So each request is planned into exactly the
blocks direct generation would run
(:func:`repro.parallel.generation.plan_request`, noise drawn from the
request's own seeded rng in plan order) and runs them alone.

**One request at a time, in admission order.**  Admitted requests form a
FIFO; only its head holds the *turn* and runs its blocks and decode.  The
model's generation plans (their arenas) are therefore never used by two
threads at once, and requests finish in the order they were admitted.

**Bounded admission.**  :meth:`MicroBatcher.generate` raises
:class:`QueueFull` once ``max_queue_rows`` rows are admitted and not yet
finished -- requests are shed at the door with an explicit error, never
parked on an unbounded queue (the server maps this to the ``busy``
protocol code).  ``close(drain=True)`` stops admission and returns once
everything admitted has finished.

The throughput win over batch-size-1 serving comes from the batch
dimension itself: on the numpy substrate a forward pass costs nearly the
same for 1 row as for ``batch_size`` rows (Python graph overhead
dominates), so serving a 16-object request as one 16-row block instead of
16 single-row passes is ~an order of magnitude cheaper.  perfbench's
traced ``serve.small.model_passes_per_request`` metric reads 1 pass per
n=16 request.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.observability import metrics as obs_metrics
from repro.observability.metrics import LATENCY_BUCKETS
from repro.parallel.generation import plan_request

__all__ = ["MicroBatcher", "QueueFull", "BatcherClosed"]


class QueueFull(RuntimeError):
    """Admission queue is at capacity; the request was shed, not queued."""

    code = "busy"


class BatcherClosed(RuntimeError):
    """The batcher is shutting down and no longer accepts requests."""

    code = "shutting_down"


class _Turn:
    """One admitted request's place in the queue."""

    __slots__ = ("rows", "dropped")

    def __init__(self, rows: int):
        self.rows = rows
        self.dropped = False  # set by close(drain=False) before its turn


class MicroBatcher:
    """Run generation requests against one model, one at a time.

    Args:
        model: A trained model of any registered backend.  Models with
            DoppelGANger's block API (``_draw_block_noise`` /
            ``_generate_block``) run their planned blocks; any other
            model runs in *opaque* mode, where each request executes as
            one ``generate(n, rng)`` call (byte-identical to direct
            generation by construction).
        max_queue_rows: Admission bound; :meth:`generate` beyond it
            raises :class:`QueueFull`.
        name: Label used in error messages.
    """

    def __init__(self, model, *, max_queue_rows: int = 4096,
                 name: str = "model"):
        if max_queue_rows < 1:
            raise ValueError("max_queue_rows must be >= 1")
        self.model = model
        self.name = str(name)
        self._block_mode = (hasattr(model, "_generate_block")
                            and hasattr(model, "_draw_block_noise"))
        self.max_queue_rows = int(max_queue_rows)
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        # Admitted, unfinished requests; the head holds the turn.
        self._queue: deque[_Turn] = deque()
        self._queued_rows = 0
        self._closed = False

    def generate(self, n: int, seed: int, stages: dict | None = None):
        """Serve ``generate(n, seed)``; returns a
        :class:`~repro.data.dataset.TimeSeriesDataset` byte-identical to
        ``model.generate(n, rng=default_rng(seed))``.

        Raises :class:`QueueFull` when admission would exceed
        ``max_queue_rows`` and :class:`BatcherClosed` after
        :meth:`close` (or when ``close(drain=False)`` drops the request
        before its turn).  ``stages``, when given, receives the seconds
        spent waiting for the turn (``queue``), in model passes
        (``model``) and decoding (``assemble``).
        """
        n = int(n)
        if n < 0:
            raise ValueError("n must be >= 0")
        # Plan (and draw noise) outside the lock: rng work per request
        # is independent, only queue accounting needs exclusion.
        plan = (plan_request(self.model, n, np.random.default_rng(seed))
                if self._block_mode else None)
        with self._lock:
            if self._closed:
                raise BatcherClosed(
                    f"batcher {self.name!r} is shutting down")
            if self._queued_rows + n > self.max_queue_rows:
                obs_metrics.counter("serve.shed").inc()
                raise QueueFull(
                    f"admission queue of batcher {self.name!r} is full "
                    f"({self._queued_rows}/{self.max_queue_rows} rows "
                    f"queued, request adds {n}); retry later")
            obs_metrics.counter("serve.requests").inc()
            if n == 0:
                return self._assemble([])
            turn = _Turn(n)
            self._queue.append(turn)
            self._queued_rows += n
            obs_metrics.gauge("serve.queue_rows").set(self._queued_rows)
            admitted = time.perf_counter()
            while not turn.dropped and self._queue[0] is not turn:
                self._turn.wait()
            if turn.dropped:
                raise BatcherClosed(f"batcher {self.name!r} shut down "
                                    f"before this request ran")
        started = time.perf_counter()
        passes = None
        try:
            if plan is None:
                parts = [self.model.generate(
                    n, rng=np.random.default_rng(seed))]
            else:
                parts = [self.model._generate_block(b.size, b.noise,
                                                    b.cond)
                         for b in plan]
            passed = time.perf_counter()
            dataset = self._assemble(parts)
            finished = time.perf_counter()
            passes = len(parts)
        finally:
            self._release(turn, passes, admitted)
        if stages is not None:
            stages["queue"] = started - admitted
            stages["model"] = passed - started
            stages["assemble"] = finished - passed
        return dataset

    def _assemble(self, parts: list):
        """Concatenate a request's blocks and decode.

        Decoding happens on the full ``(n, ...)`` arrays, exactly as
        :meth:`DoppelGANger.generate` does after its own block loop.
        In opaque mode the single part already *is* the decoded dataset.
        """
        if not self._block_mode and parts:
            return parts[0]
        encoder = self.model.encoder
        if parts:
            attrs, minmax, features = (
                np.concatenate([part[i] for part in parts])
                for i in range(3))
        else:
            attrs = np.zeros((0, encoder.attribute_dim))
            minmax = np.zeros((0, encoder.minmax_dim))
            features = np.zeros((0, self.model.schema.max_length,
                                 encoder.feature_dim))
        return encoder.inverse(attrs, minmax, features)

    def _release(self, turn: _Turn, passes: int | None,
                 admitted: float) -> None:
        """Pass the turn on; count the request unless it failed
        (``passes is None``)."""
        with self._lock:
            self._queue.popleft()
            self._queued_rows -= turn.rows
            obs_metrics.gauge("serve.queue_rows").set(self._queued_rows)
            if passes is not None:
                obs_metrics.counter("serve.model_passes").inc(passes)
                obs_metrics.counter("serve.samples").inc(turn.rows)
                obs_metrics.counter("serve.completed").inc()
                obs_metrics.histogram(
                    "serve.latency_seconds", LATENCY_BUCKETS).observe(
                    time.perf_counter() - admitted)
            self._turn.notify_all()

    def close(self, drain: bool = True, timeout: float | None = None
              ) -> None:
        """Stop admission; optionally let everything admitted finish.

        With ``drain=True`` (the default) this returns once every
        admitted request has finished (or ``timeout`` seconds pass).
        With ``drain=False`` every request not yet holding the turn
        raises :class:`BatcherClosed`; the one running still completes.
        """
        with self._lock:
            self._closed = True
            if not drain:
                while len(self._queue) > 1:
                    dropped = self._queue.pop()
                    dropped.dropped = True
                    self._queued_rows -= dropped.rows
                obs_metrics.gauge("serve.queue_rows").set(
                    self._queued_rows)
                self._turn.notify_all()
            self._turn.wait_for(lambda: not self._queue, timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
