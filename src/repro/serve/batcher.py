"""Micro-batching request scheduler for online generation.

Concurrent ``generate(n, seed)`` requests are coalesced into bounded
execution *bundles* that a single worker thread drains through the model,
instead of each request paying its own scheduling round-trip.  Three
properties drive the design:

**Determinism by construction.**  A served request must be byte-identical
to a direct :meth:`DoppelGANger.generate` call with the same seed, no
matter how many other requests it was coalesced with (the contract CI
enforces).  That rules out the obvious trick -- concatenating rows from
several requests into one forward pass -- because BLAS gemm results
depend on the row count of the pass: on this substrate a ``(8,16)@(16,2)``
product and the same rows computed in a ``(3,16)@(16,2)`` product differ
in the last ulp (OpenBLAS dispatches different kernels by shape; measured
in ``docs/serving.md``).  So the batcher never repacks rows: each request
is planned into exactly the blocks direct generation would run
(:func:`repro.parallel.generation.plan_request`, noise drawn from the
request's own seeded rng in plan order), and coalescing happens at the
*block* level -- many requests' blocks execute back-to-back in one worker
wake-up, on one thread, against one model.

**Work-conserving flush.**  The worker assembles a bundle of up to
``max_batch_rows`` queued rows and runs it as soon as it wakes.  An
optional ``max_wait_ms`` deadline (measured from the oldest queued block)
holds a partial bundle open instead; it is off by default because rows
are never merged across requests, so holding a bundle saves at most a
worker wake-up and never a model pass.

**Bounded admission.**  ``submit`` rejects with :class:`QueueFull` once
``max_queue_rows`` rows are queued -- requests are shed at the door with
an explicit error, never parked on an unbounded queue (the server maps
this to the ``busy`` protocol code).  ``close(drain=True)`` stops
admission and completes everything already queued before returning.

The throughput win over batch-size-1 serving comes from the batch
dimension itself: on the numpy substrate a forward pass costs nearly the
same for 1 row as for ``batch_size`` rows (Python graph overhead
dominates), so serving a 16-object request as one 16-row block instead of
16 single-row passes is ~an order of magnitude cheaper.  perfbench's
traced ``serve.small.model_passes_per_request`` metric reads 1 pass per
n=16 request at the default planning.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.observability import metrics as obs_metrics
from repro.observability.metrics import LATENCY_BUCKETS
from repro.parallel.generation import plan_request

__all__ = ["MicroBatcher", "QueueFull", "BatcherClosed", "StagedFuture"]


class QueueFull(RuntimeError):
    """Admission queue is at capacity; the request was shed, not queued."""

    code = "busy"


class BatcherClosed(RuntimeError):
    """The batcher is shutting down and no longer accepts requests."""

    code = "shutting_down"


class StagedFuture(Future):
    """A request's Future plus its timings: ``admitted``, the
    ``time.perf_counter()`` at which it entered the queue (or completed,
    for ``n == 0``), set before :meth:`MicroBatcher.submit` returns; and
    ``stages``, the seconds the worker spent on it, keyed ``model`` (its
    blocks' passes) and ``assemble`` (decoding the concatenated blocks),
    filled in before the Future resolves."""

    def __init__(self):
        super().__init__()
        self.admitted = 0.0
        self.stages: dict[str, float] = {}


@dataclass
class _Pending:
    """One admitted request and its partially filled output."""

    n: int
    future: StagedFuture
    parts: list  # (attrs, minmax, features) triple per block, plan order
    remaining: int  # blocks still to execute
    rows_done: int = 0


@dataclass
class _Block:
    """One executable unit: a planned block of a pending request."""

    pending: _Pending
    index: int
    size: int
    noise: tuple
    cond: object = None


@dataclass
class _Bundle:
    blocks: list = field(default_factory=list)
    rows: int = 0


class MicroBatcher:
    """Coalesce concurrent generation requests against one model.

    Args:
        model: A trained model of any registered backend.  Models with
            DoppelGANger's block API (``_draw_block_noise`` /
            ``_generate_block``) get block-level coalescing; any other
            model runs in *opaque* mode, where each request executes as
            one ``generate(n, rng)`` call (trivially byte-identical to
            direct generation, coalescing only across requests).
        max_batch_rows: Target rows per execution bundle *and* the block
            size requests are planned with (clamped to the model's
            ``batch_size``).  The default (``None``) uses the model's
            configured ``batch_size`` -- the only planning that keeps the
            served-equals-direct determinism contract.  ``1`` is the
            degraded per-sample mode benchmarked as "batching off".
        max_wait_ms: Deadline for flushing a partial bundle, measured
            from the oldest queued block's admission.  ``0`` (default)
            flushes whatever is queued as soon as the worker wakes.
        max_queue_rows: Admission bound; ``submit`` beyond it raises
            :class:`QueueFull`.
        name: Label used in thread names and error messages.
    """

    #: Rows per bundle for models without block-level generation.
    OPAQUE_BATCH_ROWS = 64

    def __init__(self, model, *, max_batch_rows: int | None = None,
                 max_wait_ms: float = 0.0, max_queue_rows: int = 4096,
                 name: str = "model"):
        if max_batch_rows is not None and max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        if max_queue_rows < 1:
            raise ValueError("max_queue_rows must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.model = model
        self.name = str(name)
        # Models exposing DoppelGANger's block API get block-level
        # coalescing; any other backend's model falls back to *opaque*
        # requests -- each request runs as one model.generate(n, rng)
        # call with its own seeded rng, which is byte-identical to
        # direct generation by construction (no repacking to undo).
        self._block_mode = (hasattr(model, "_generate_block")
                            and hasattr(model, "_draw_block_noise"))
        if self._block_mode:
            model_batch = int(model.config.batch_size)
            self.max_batch_rows = int(max_batch_rows or model_batch)
            self.plan_rows = min(self.max_batch_rows, model_batch)
        else:
            self.max_batch_rows = int(max_batch_rows
                                      or self.OPAQUE_BATCH_ROWS)
            self.plan_rows = self.max_batch_rows
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_rows = int(max_queue_rows)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque[_Block] = deque()
        self._queued_rows = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"repro-serve-batcher-{self.name}",
            daemon=True)
        self._worker.start()

    @property
    def deterministic(self) -> bool:
        """Whether served output matches direct ``generate()`` byte-wise."""
        if not self._block_mode:
            return True  # whole-request execution, nothing is repacked
        return self.plan_rows == int(self.model.config.batch_size)

    # -- admission -----------------------------------------------------------
    def submit(self, n: int, seed: int) -> StagedFuture:
        """Admit a ``generate(n, seed)`` request; returns its Future.

        The Future resolves to a
        :class:`~repro.data.dataset.TimeSeriesDataset` and carries the
        request's stage timings (:class:`StagedFuture`).  Raises
        :class:`QueueFull` when admission would exceed
        ``max_queue_rows`` and :class:`BatcherClosed` after
        :meth:`close`.
        """
        n = int(n)
        if n < 0:
            raise ValueError("n must be >= 0")
        if self._block_mode:
            # Plan (and draw noise) outside the lock: rng work per
            # request is independent, only queue accounting needs
            # exclusion.
            rng = np.random.default_rng(int(seed))
            plan = plan_request(self.model, n, rng,
                                block_rows=self.plan_rows)
            blocks = [(b.size, b.noise, b.cond) for b in plan]
        else:
            # Opaque mode: the whole request is one executable unit,
            # carrying its seed instead of pre-drawn noise.
            blocks = [(n, (int(seed),), None)] if n else []
        future = StagedFuture()
        pending = _Pending(n=n, future=future,
                           parts=[None] * len(blocks),
                           remaining=len(blocks))
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
            if not blocks:
                # n == 0: nothing to execute, complete immediately.
                future.admitted = time.perf_counter()
                future.set_result(self._assemble(pending))
                return future
            for index, (size, noise, cond) in enumerate(blocks):
                self._queue.append(_Block(pending=pending, index=index,
                                          size=size, noise=noise,
                                          cond=cond))
            self._queued_rows += n
            future.admitted = time.perf_counter()
            obs_metrics.gauge("serve.queue_rows").set(self._queued_rows)
            self._work.notify()
        return future

    # -- worker --------------------------------------------------------------
    def _take_bundle(self) -> _Bundle | None:
        """Wait for work, honour the flush deadline, pop one bundle.

        Returns ``None`` when closed and fully drained.
        """
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._work.wait()
            # Deadline flush: hold a partial bundle open (up to
            # max_wait_ms from the oldest block's admission) to let
            # concurrent requests coalesce into the same wake-up.
            if self.max_wait_ms > 0 and not self._closed:
                while (self._queued_rows < self.max_batch_rows
                       and not self._closed):
                    # Re-derive the deadline from the *current* queue head
                    # every iteration: a spurious wakeup (or any notify
                    # that does not fill the bundle) must not reset the
                    # clock, and the head block's admission time bounds
                    # how long any queued request can be held.
                    deadline = (self._queue[0].pending.future.admitted
                                + self.max_wait_ms / 1000.0)
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._work.wait(timeout=remaining)
            bundle = _Bundle()
            while self._queue and (not bundle.blocks
                                   or bundle.rows + self._queue[0].size
                                   <= self.max_batch_rows):
                block = self._queue.popleft()
                bundle.blocks.append(block)
                bundle.rows += block.size
            return bundle

    def _assemble(self, pending: _Pending):
        """Concatenate a finished request's blocks and decode.

        Decoding happens on the full ``(n, ...)`` arrays, exactly as
        :meth:`DoppelGANger.generate` does after its own block loop.
        In opaque mode the single part already *is* the decoded dataset.
        """
        encoder = self.model.encoder
        if not self._block_mode and pending.parts:
            return pending.parts[0]
        if pending.parts:
            attrs, minmax, features = (
                np.concatenate([part[i] for part in pending.parts])
                for i in range(3))
        else:
            attrs = np.zeros((0, encoder.attribute_dim))
            minmax = np.zeros((0, encoder.minmax_dim))
            features = np.zeros((0, self.model.schema.max_length,
                                 encoder.feature_dim))
        return encoder.inverse(attrs, minmax, features)

    @staticmethod
    def _settle(future: Future, result=None, exc=None) -> None:
        """Resolve a future, tolerating a concurrent cancel."""
        try:
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        except Exception:  # already cancelled/settled: result is dropped
            pass

    def _run(self) -> None:
        while True:
            bundle = self._take_bundle()
            if bundle is None:
                return
            finished: list[_Pending] = []
            for block in bundle.blocks:
                pending = block.pending
                if pending.future.done():  # failed or cancelled earlier
                    continue
                stages = pending.future.stages
                started = time.perf_counter()
                try:
                    if self._block_mode:
                        part = self.model._generate_block(block.size,
                                                          block.noise,
                                                          block.cond)
                    else:
                        part = self.model.generate(
                            block.size,
                            rng=np.random.default_rng(block.noise[0]))
                except BaseException as exc:  # surface, don't kill worker
                    self._settle(pending.future, exc=exc)
                    continue
                stages["model"] = (stages.get("model", 0.0)
                                   + time.perf_counter() - started)
                pending.parts[block.index] = part
                pending.rows_done += block.size
                pending.remaining -= 1
                if pending.remaining == 0:
                    finished.append(pending)
            for pending in finished:
                started = time.perf_counter()
                try:
                    result = self._assemble(pending)
                except BaseException as exc:
                    self._settle(pending.future, exc=exc)
                    continue
                pending.future.stages["assemble"] = \
                    time.perf_counter() - started
                self._settle(pending.future, result=result)
            now = time.perf_counter()
            with self._lock:
                self._queued_rows -= bundle.rows
                obs_metrics.gauge("serve.queue_rows").set(
                    self._queued_rows)
                obs_metrics.counter("serve.batches").inc()
                obs_metrics.counter("serve.model_passes").inc(
                    len(bundle.blocks))
                obs_metrics.counter("serve.samples").inc(bundle.rows)
                obs_metrics.counter("serve.completed").inc(len(finished))
                latency = obs_metrics.histogram("serve.latency_seconds",
                                                LATENCY_BUCKETS)
                for pending in finished:
                    latency.observe(now - pending.future.admitted)

    # -- shutdown ------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None
              ) -> None:
        """Stop admission; optionally finish everything already queued.

        With ``drain=True`` (the default) every admitted request
        completes before the worker exits.  With ``drain=False`` queued
        requests fail with :class:`BatcherClosed`; the block currently
        executing (if any) still completes.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                if not drain:
                    dropped = {id(b.pending): b.pending
                               for b in self._queue}
                    self._queued_rows -= sum(b.size for b in self._queue)
                    self._queue.clear()
                    for pending in dropped.values():
                        self._settle(pending.future, exc=BatcherClosed(
                            f"batcher {self.name!r} shut down before "
                            f"this request ran"))
            self._work.notify_all()
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
