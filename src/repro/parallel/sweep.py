"""Process-parallel execution of sweep cells.

A *cell* is one (dataset, model, seed) training job.  The grid of
EXPERIMENTS.md -- 5 models x 3 datasets plus ablations -- is embarrassingly
parallel across cells, and re-training many seeds per configuration is the
dominant cost of honest GAN evaluation, so this module farms cells to
worker subprocesses via :class:`repro.parallel.pool.ProcessPool`.

Determinism contract:

- cells are enumerated in a fixed order (dataset-major, then model, then
  replica), and per-cell training seeds are derived by
  ``np.random.SeedSequence(base_seed).spawn(n_cells)`` -- decorrelated
  streams that do not depend on which worker runs which cell;
- every cell trains through :func:`repro.experiments.harness.train_model`
  (the code path behind ``get_model``), inline for ``workers=1`` or in a
  worker otherwise, so ``workers=1`` and ``workers=N`` produce
  bit-identical models;
- results are reassembled in cell order, never completion order.

A trained model leaves its cell as model archive bytes (the backend's
``save_bytes``, :mod:`repro.backends.archive`), the one format the CLI,
the registry and the sweep cache also use; the parent decodes every blob,
fresh or cached, so a sweep returns the same kind of model at any worker
count and on a cache hit.  Failures cross the process boundary as
:class:`~repro.resilience.failures.FailureRecord` instances inside the
cell outcome -- a diverging model in a worker never aborts the sweep, and
a model with a non-finite parameter, which the archive refuses, is that
cell's failure.  Every outcome also carries a :class:`CellTiming` with
wall/CPU seconds measured inside the worker.

Telemetry rides the same plumbing: when ``run_cells`` receives a
``telemetry=(root, run_id)`` spec, each worker writes its cell's events
and metric dump to per-cell files under ``root/cells/`` (in whichever
process it runs), and the parent emits cache and dispatch events into its
own stream.  The parent's :class:`~repro.observability.TelemetryRun`
merges everything in cell-enumeration order, so the canonical log is
worker-count invariant.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability.telemetry import (cell_log_path,
                                           write_cell_metrics)
from repro.parallel.cache import (SweepCache, cell_cache_key,
                                  config_fingerprint, dataset_fingerprint)
from repro.parallel.pool import ProcessPool
from repro.resilience.failures import FailureRecord

__all__ = ["SweepCell", "CellTiming", "CellOutcome", "build_cells",
           "run_cells", "cell_id"]


def cell_id(label) -> str:
    """Canonical string id of a cell label (``dataset/model[/replica]``)."""
    if isinstance(label, tuple):
        return "/".join(str(part) for part in label)
    return str(label)


@dataclass(frozen=True)
class SweepCell:
    """One training job of a sweep.

    ``seed`` is the training seed override (None keeps the scale default);
    ``label`` is the key the trained model appears under in the sweep
    result: ``(dataset, model)`` for single-seed sweeps, or
    ``(dataset, model, replica)`` for multi-seed sweeps.
    """

    dataset: str
    model: str
    seed: int | None
    label: tuple


@dataclass
class CellTiming:
    """Wall/CPU accounting for one cell, measured where it ran."""

    wall: float
    cpu: float
    cached: bool = False
    failed: bool = False
    pid: int = 0

    def row(self, label: tuple) -> list:
        """Render as a row for the report's timing table."""
        status = ("cached" if self.cached
                  else "failed" if self.failed else "trained")
        seed = label[2] if len(label) > 2 else "-"
        return [label[0], label[1], seed, status,
                round(self.wall, 3), round(self.cpu, 3)]


@dataclass
class CellOutcome:
    """What one worker returns for one cell: the fitted model's archive
    bytes, or the failure that stopped it."""

    label: tuple
    blob: bytes | None
    failure: FailureRecord | None
    timing: CellTiming


def build_cells(dataset_names, model_names, seeds,
                base_seed: int) -> list[SweepCell]:
    """Enumerate sweep cells in deterministic order with spawned seeds.

    Args:
        seeds: ``None`` -> one cell per (dataset, model) using the scale's
            default seed.  An ``int k`` -> k replicas per pair, each with a
            decorrelated seed spawned from ``SeedSequence(base_seed)``.  A
            sequence of ints -> one replica per given seed, trained with
            exactly that seed.
        base_seed: Root entropy for spawned replica seeds.
    """
    pairs = [(d, m) for d in dataset_names for m in model_names]
    if seeds is None:
        return [SweepCell(d, m, None, (d, m)) for d, m in pairs]
    if isinstance(seeds, (int, np.integer)):
        replicas = int(seeds)
        if replicas < 1:
            raise ValueError("seeds must be >= 1 replicas")
        children = np.random.SeedSequence(base_seed).spawn(
            len(pairs) * replicas)
        cells = []
        for i, (d, m) in enumerate(pairs):
            for r in range(replicas):
                child = children[i * replicas + r]
                seed = int(child.generate_state(1, dtype=np.uint32)[0])
                cells.append(SweepCell(d, m, seed, (d, m, r)))
        return cells
    explicit = [int(s) for s in seeds]
    return [SweepCell(d, m, s, (d, m, s))
            for d, m in pairs for s in explicit]


def _cell_config(cell: SweepCell, scale, config_overrides: dict) -> dict:
    """The full, fingerprintable configuration of one cell.

    Delegates to the cell's backend so every architecture -- not just
    DoppelGANger -- contributes its complete hyper-parameter set to the
    on-disk cache key.  The canonical backend name is part of the key,
    so an alias (``dg``) and its canonical form share cache entries.
    """
    from repro.backends import get_backend

    backend = get_backend(cell.model)
    config = backend.make_config(cell.dataset, scale, seed=cell.seed,
                                 **config_overrides)
    return {"backend": backend.name, "config": config}


def _run_cell(payload) -> CellOutcome:
    """Worker entry point: train and encode one cell, catching failures
    structurally.

    The failure record is handed back in the outcome, never added to this
    process's failure list: the parent records it once, whether the cell
    ran inline or in a worker.
    """
    cell, scale, config_overrides, telemetry = payload
    from repro.backends import get_backend
    from repro.experiments import harness

    if telemetry is not None:
        return _run_cell_with_telemetry(cell, scale, config_overrides,
                                        telemetry)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    model = blob = failure = None
    records = []
    try:
        model = harness.train_model(records.append, cell.dataset,
                                    cell.model, scale, seed=cell.seed,
                                    **config_overrides)
        blob = get_backend(cell.model).save_bytes(model)
    except Exception as exc:
        # train_model hands its record over as it raises; a refused
        # encode (a non-finite parameter) gets one here.
        failure = records[0] if records else FailureRecord.from_exception(
            cell.dataset, cell.model, exc, model=model)
    timing = CellTiming(wall=time.perf_counter() - wall0,
                        cpu=time.process_time() - cpu0,
                        failed=failure is not None, pid=os.getpid())
    return CellOutcome(label=cell.label, blob=blob, failure=failure,
                       timing=timing)


def _run_cell_with_telemetry(cell, scale, config_overrides,
                             telemetry) -> CellOutcome:
    """Run one cell inside its own event-log/metrics scope.

    The cell's stream goes to ``root/cells/<label>.jsonl`` and its metric
    dump to ``root/cells/<label>.metrics.json`` -- written wherever the
    cell runs (worker subprocess or inline), then merged by the parent.
    A fresh registry per cell keeps the dump independent of which other
    cells shared the process.
    """
    root, run_id = telemetry
    label_id = cell_id(cell.label)
    registry = obs_metrics.MetricsRegistry()
    with obs_events.EventLog(cell_log_path(root, cell.label),
                             run_id=run_id, cell=label_id) as log, \
            obs_events.capture(log), obs_metrics.use(registry):
        log.emit("cell.start", {"dataset": cell.dataset,
                                "model": cell.model,
                                "seed": cell.seed})
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcome = _run_cell((cell, scale, config_overrides, None))
        timing = outcome.timing
        if outcome.failure is not None:
            f = outcome.failure
            log.emit("cell.failure",
                     {"dataset": f.dataset, "model": f.model,
                      "exception_type": f.exception_type,
                      "message": f.message, "iteration": f.iteration,
                      "retries": f.retries},
                     volatile={"elapsed": f.elapsed})
        log.emit("cell.finish",
                 {"status": "failed" if outcome.failure is not None
                  else "trained"},
                 volatile={"wall": time.perf_counter() - wall0,
                           "cpu": time.process_time() - cpu0,
                           "pid": os.getpid()})
    write_cell_metrics(root, cell.label, registry)
    return outcome


def run_cells(cells: list[SweepCell], scale, config_overrides: dict,
              workers: int = 1, cache_dir=None,
              telemetry=None) -> list[CellOutcome]:
    """Execute cells (cache, then pool), returning outcomes in cell order.

    Cache hits are resolved in the calling process and never dispatched;
    fresh results are written back to the cache.  ``workers=1`` runs every
    cell inline through the identical worker code path.

    Args:
        telemetry: Optional ``(root, run_id)`` spec: workers write
            per-cell event/metric files under ``root/cells/`` and the
            parent emits cache hit/miss events into its current log.
    """
    cache = SweepCache(cache_dir) if cache_dir is not None else None
    keys: dict[tuple, str] = {}
    outcomes: dict[tuple, CellOutcome] = {}
    pending: list[SweepCell] = []

    if cache is not None:
        from repro.experiments.harness import get_dataset

        dataset_fps = {name: dataset_fingerprint(get_dataset(name, scale))
                       for name in {c.dataset for c in cells}}
        for cell in cells:
            key = cell_cache_key(
                cell.model,
                config_fingerprint(_cell_config(cell, scale,
                                                config_overrides)),
                dataset_fps[cell.dataset], cell.seed)
            keys[cell.label] = key
            wall0 = time.perf_counter()
            blob = cache.get(key)
            if blob is not None:
                obs_events.emit("cache.hit", {"cell": cell_id(cell.label)})
                outcomes[cell.label] = CellOutcome(
                    label=cell.label, blob=blob, failure=None,
                    timing=CellTiming(wall=time.perf_counter() - wall0,
                                      cpu=0.0, cached=True,
                                      pid=os.getpid()))
            else:
                obs_events.emit("cache.miss", {"cell": cell_id(cell.label)})
                pending.append(cell)
    else:
        pending = list(cells)

    payloads = [(cell, scale, config_overrides, telemetry)
                for cell in pending]
    for outcome in ProcessPool(workers).map(_run_cell, payloads):
        outcomes[outcome.label] = outcome
        if cache is not None and outcome.blob is not None:
            cache.put(keys[outcome.label], outcome.blob)
            obs_events.emit("cache.store",
                            {"cell": cell_id(outcome.label)})
    return [outcomes[cell.label] for cell in cells]
