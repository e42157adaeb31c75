"""Shared benchmark harness.

Training a GAN is expensive relative to the metrics computed on it, and many
figures evaluate the *same* trained models, so this module memoises datasets
and trained models per (dataset, model) key within the process.  The caches
are LRU-bounded (:func:`configure_cache`) so long sweeps cannot grow memory
without limit.  Benchmarks print the same rows/series the paper reports via
:func:`print_table`.

Failure isolation: a model that diverges or raises while it is built or
fit is turned into a structured
:class:`~repro.resilience.failures.FailureRecord`, recorded once in
:func:`get_failures`, so one bad model cannot abort a multi-model
comparison.  :func:`run_sweep` runs every sweep, serial or parallel, through
the cell layer of :mod:`repro.parallel.sweep`.  To see where a fit spends
its time, wrap it in ``with repro.nn.profile() as prof:`` and print
``prof.summary()``.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.configs import BENCH, BenchScale, make_dataset
from repro.resilience.failures import FailureRecord
from repro.resilience.faults import SimulatedKill

__all__ = ["MODEL_NAMES", "get_dataset", "get_model", "get_split",
           "print_table", "print_series", "clear_cache", "configure_cache",
           "get_failures", "run_sweep", "SweepResult", "LRUCache"]

# Paper display names, in the order figures list them; ``dg`` is the
# historical short name (an alias of the ``doppelganger`` backend).
MODEL_NAMES = {
    "dg": "DoppelGANger",
    "doppelganger": "DoppelGANger",
    "dlgan": "DLGAN",
    "ar": "AR",
    "rnn": "RNN",
    "hmm": "HMM",
    "naive_gan": "Naive GAN",
}


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    Reads refresh recency; inserting past ``maxsize`` evicts the coldest
    entry.  This bounds the harness's memory during long sweeps where
    hundreds of (dataset, model, overrides) keys would otherwise pile up.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key):
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def keys(self):
        return list(self._data.keys())

    def clear(self) -> None:
        self._data.clear()

    def set_maxsize(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        while len(self._data) > maxsize:
            self._data.popitem(last=False)


_DATASETS = LRUCache(8)
_MODELS = LRUCache(16)
_SPLITS = LRUCache(8)
_FAILURES: list[FailureRecord] = []


def clear_cache() -> None:
    """Drop all memoised datasets/models and failure records."""
    _DATASETS.clear()
    _MODELS.clear()
    _SPLITS.clear()
    _FAILURES.clear()


def configure_cache(max_datasets: int | None = None,
                    max_models: int | None = None,
                    max_splits: int | None = None) -> None:
    """Re-bound the harness caches (evicting immediately if shrinking)."""
    if max_datasets is not None:
        _DATASETS.set_maxsize(max_datasets)
    if max_models is not None:
        _MODELS.set_maxsize(max_models)
    if max_splits is not None:
        _SPLITS.set_maxsize(max_splits)


def get_failures() -> list[FailureRecord]:
    """Failure records accumulated by :func:`get_model` this process."""
    return list(_FAILURES)


def get_dataset(name: str, scale: BenchScale = BENCH):
    key = (name, scale)
    if key not in _DATASETS:
        _DATASETS[key] = make_dataset(name, scale)
    return _DATASETS[key]


def get_split(dataset_name: str, model_name: str, scale: BenchScale = BENCH):
    """Figure-10 split with synthetic halves from the named model."""
    from repro.data.splits import make_split, synthesize_split

    key = (dataset_name, model_name, scale)
    if key not in _SPLITS:
        rng = np.random.default_rng(scale.seed + 1)
        split = make_split(get_dataset(dataset_name, scale), rng)
        model = get_model(dataset_name, model_name, scale,
                          train_data=split.train_real)
        _SPLITS[key] = synthesize_split(
            split, model, rng=np.random.default_rng(scale.seed + 2))
    return _SPLITS[key]


def _build_model(dataset_name: str, model_name: str, scale: BenchScale,
                 schema, seed: int | None = None, **config_overrides):
    """Construct an untrained model through the backend registry."""
    from repro.backends import get_backend

    backend = get_backend(model_name)
    config = backend.make_config(dataset_name, scale, seed=seed,
                                 **config_overrides)
    return backend.from_config(schema, config)


def get_model(dataset_name: str, model_name: str, scale: BenchScale = BENCH,
              train_data=None, cache_tag: str = "", seed: int | None = None,
              **config_overrides):
    """Train (or fetch the cached) model for a dataset.

    ``model_name`` is any registered backend name or alias (``dg`` is
    an alias of ``doppelganger``); the cache key uses the canonical
    backend name so aliases share one entry.  ``config_overrides`` that
    do not apply to the chosen architecture are ignored by its backend;
    give ablation variants a distinct ``cache_tag``.  ``seed`` overrides
    the scale's training seed for any model type (used by multi-seed
    sweeps).  A custom ``train_data`` is keyed by its content
    fingerprint, so two equal datasets share a cache entry regardless of
    object identity.  A failure is added to :func:`get_failures` and
    re-raised.
    """
    return train_model(_FAILURES.append, dataset_name, model_name, scale,
                       train_data=train_data, cache_tag=cache_tag,
                       seed=seed, **config_overrides)


def _model_key(dataset_name: str, model_name: str, scale: BenchScale,
               cache_tag: str, seed: int | None, config_overrides: dict,
               train_data=None) -> tuple:
    """The memo key of :func:`train_model`'s model for these arguments."""
    from repro.backends import get_backend
    from repro.parallel.cache import dataset_fingerprint

    return (dataset_name, get_backend(model_name).name, scale, cache_tag,
            seed, tuple(sorted(config_overrides.items())),
            dataset_fingerprint(train_data) if train_data is not None
            else None)


def train_model(on_failure, dataset_name: str, model_name: str,
                scale: BenchScale = BENCH, train_data=None,
                cache_tag: str = "", seed: int | None = None,
                **config_overrides):
    """:func:`get_model` with the failure record handed to the caller.

    Any exception raised while the model is built or fit (other than a
    :class:`~repro.resilience.faults.SimulatedKill`) first passes its
    :class:`FailureRecord` to ``on_failure`` and then propagates.  The
    sweep's cells use this so that the parent process records each
    failure exactly once, wherever the cell ran.
    """
    # monotonic: wall-clock adjustments must not produce negative elapsed
    # (matches serve/batcher.py timing).
    model, started = None, time.monotonic()
    try:
        key = _model_key(dataset_name, model_name, scale, cache_tag, seed,
                         config_overrides, train_data)
        if key in _MODELS:
            return _MODELS[key]
        data = train_data if train_data is not None else get_dataset(
            dataset_name, scale)
        model = _build_model(dataset_name, model_name, scale, data.schema,
                             seed=seed, **config_overrides)
        started = time.monotonic()
        model.fit(data)
    except SimulatedKill:
        raise
    except Exception as exc:
        record = FailureRecord.from_exception(
            dataset_name, model_name, exc, model=model,
            elapsed=time.monotonic() - started)
        on_failure(record)
        print(f"[harness] FAILED {MODEL_NAMES.get(model_name, model_name)} "
              f"on {dataset_name}: {record.exception_type}: "
              f"{record.message}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - started
    print(f"[harness] trained {MODEL_NAMES.get(model_name, model_name)} "
          f"on {dataset_name}{' (' + cache_tag + ')' if cache_tag else ''} "
          f"in {elapsed:.1f}s", file=sys.stderr)
    _MODELS[key] = model
    return model


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`: models, isolated failures, timings.

    ``models`` maps ``(dataset, model)`` -- or ``(dataset, model, seed)``
    for multi-seed sweeps -- to the trained model, decoded from its model
    archive (so ``generate`` without an ``rng`` starts from the model's
    configured seed, as a registry-loaded model does); ``timings`` maps the
    same keys to :class:`~repro.parallel.sweep.CellTiming` records
    measured where each cell ran (worker or parent process).
    ``quality`` (filled when ``run_sweep(quality=...)``) maps the same
    keys to :class:`~repro.quality.QualityReport` instances computed in
    the parent process -- so they are identical at any worker count.
    """

    models: dict = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    @property
    def failed_keys(self) -> list[tuple[str, str]]:
        return [(f.dataset, f.model) for f in self.failures]


def _run_sweep_cells(cells, scale, config_overrides: dict, workers: int,
                     cache_dir, isolate: bool,
                     telemetry=None) -> SweepResult:
    """Execute built cells through the parallel layer into a SweepResult.

    Every cell trains before a failure is acted on.  Each failure is
    added to :func:`get_failures` once; with ``isolate=False`` the first
    one in cell order then raises.  Each model is decoded from the
    archive bytes its cell returned, whether it trained inline, in a
    worker or came from the cache.  A cell that trained inline left its
    model in this process's memo; the decoded model replaces it there, so
    the process keeps one copy and a repeated sweep still does not
    retrain.
    """
    from repro.backends import read_model
    from repro.parallel.sweep import run_cells

    result = SweepResult()
    outcomes = run_cells(cells, scale, config_overrides, workers=workers,
                         cache_dir=cache_dir, telemetry=telemetry)
    for cell, outcome in zip(cells, outcomes):
        result.timings[outcome.label] = outcome.timing
        if outcome.failure is None:
            model = result.models[outcome.label] = read_model(
                outcome.blob)[0]
            key = _model_key(cell.dataset, cell.model, scale, "", cell.seed,
                             config_overrides)
            if key in _MODELS:
                _MODELS[key] = model
            continue
        _FAILURES.append(outcome.failure)
        if not isolate:
            raise RuntimeError(
                f"sweep cell {outcome.label} failed: "
                f"{outcome.failure.exception_type}: "
                f"{outcome.failure.message}")
        result.failures.append(outcome.failure)
    return result


@contextmanager
def _telemetry_scope(root, cells, workers: int, **start):
    """Scope a sweep in a telemetry run at ``root`` (none for ``None``).

    Yields the ``(root, run_id)`` spec the cells write their streams
    under; on a clean exit the run merges them into its canonical
    exports.
    """
    if root is None:
        yield None
        return
    from repro.observability import TelemetryRun, emit

    with TelemetryRun(root, run_id="sweep") as run:
        emit("sweep.start", start, volatile={"workers": workers})
        yield run.root, run.run_id
    run.finalize(cell_labels=[c.label for c in cells])


def _score_sweep(result: SweepResult, scale: BenchScale,
                 quality) -> None:
    """Fill ``result.quality`` with one QualityReport per trained cell.

    Runs in the parent process *after* the models come back, generating
    from a fresh seeded rng per cell -- since the trained models are
    bit-identical at any worker count, so are the reports.  ``quality``
    is ``True`` for defaults or a dict of :class:`QualityReport` kwargs
    plus ``n`` (objects generated per cell) and ``seed``; the expensive
    ``downstream`` section defaults to off in sweeps.
    """
    from repro.quality import QualityReport

    kwargs = dict(quality) if isinstance(quality, dict) else {}
    n = int(kwargs.pop("n", 64))
    seed = int(kwargs.pop("seed", scale.seed))
    kwargs.setdefault("downstream", False)
    for key in sorted(result.models, key=str):
        dataset_name = key[0] if isinstance(key, tuple) else str(key)
        real = get_dataset(dataset_name, scale)
        synthetic = result.models[key].generate(
            n, rng=np.random.default_rng(seed))
        result.quality[key] = QualityReport(real, synthetic, seed=seed,
                                            **kwargs)


def run_sweep(dataset_names, model_names, scale: BenchScale = BENCH,
              isolate: bool = True, verbose: bool = True, workers: int = 1,
              seeds=None, cache_dir=None, telemetry=None, quality=False,
              **config_overrides) -> SweepResult:
    """Train every (dataset, model[, seed]) cell, isolating failures.

    Every sweep runs its cells through :func:`repro.parallel.sweep.
    run_cells`, whatever the worker count.  With ``isolate=True`` (the
    default) a model whose build or ``fit`` raises is recorded as a
    :class:`FailureRecord` and the sweep continues with the remaining
    cells; the failures are printed as a summary table at the end
    instead of aborting with a traceback.  With ``isolate=False`` every
    cell still trains, and then the sweep raises ``RuntimeError("sweep
    cell <label> failed: <type>: <message>")`` for the first failed
    cell.  Either way each failure is added to :func:`get_failures` once.

    Args:
        workers: Worker subprocesses to farm cells to.  ``workers=1`` runs
            every cell inline, sharing this process's model and dataset
            caches; any worker count produces bit-identical models (see
            docs/architecture.md, "Parallel execution").
        seeds: ``None`` for one cell per pair at the scale's seed; an int
            ``k`` for k replicas with decorrelated spawned seeds; or an
            explicit list of training seeds.  Multi-seed cells are keyed
            ``(dataset, model, replica-or-seed)`` in the result.
        cache_dir: Optional directory for the on-disk result cache keyed
            by (config hash, dataset fingerprint, seed); cached cells are
            skipped and marked ``cached`` in the timing table.
        quality: ``True`` (or a dict of :class:`~repro.quality.
            QualityReport` kwargs plus ``n``/``seed``) to score every
            trained cell with a quality report, computed in the parent
            so it is worker-count invariant; sweep reports then rank
            cells by overall score (see render_sweep_report).
        telemetry: Optional directory for a telemetry run.  Cells write
            per-cell event/metric files and the parent merges them into
            ``events.jsonl`` / ``metrics.json`` / ``report.md`` -- all
            deterministic and worker-count invariant (see
            docs/observability.md).  Cells already memoised in this
            process's harness cache skip training (and its events), so
            start from a fresh process or :func:`clear_cache` for
            byte-comparable logs.
    """
    from repro.observability import emit
    from repro.parallel.sweep import build_cells

    cells = build_cells(dataset_names, model_names, seeds, scale.seed)
    with _telemetry_scope(
            telemetry, cells, workers, datasets=list(dataset_names),
            models=list(model_names),
            seeds=None if seeds is None
            else int(seeds) if isinstance(seeds, (int, np.integer))
            else [int(s) for s in seeds],
            cached=cache_dir is not None) as spec:
        result = _run_sweep_cells(cells, scale, config_overrides, workers,
                                  cache_dir, isolate, telemetry=spec)
        if spec is not None:
            emit("sweep.finish", {"trained": len(result.models),
                                  "failed": len(result.failures)})
    if quality:
        _score_sweep(result, scale, quality)
    if verbose and result.failures:
        print_table(
            "Sweep failures",
            ["dataset", "model", "exception", "iteration", "retries",
             "message"],
            [f.row() for f in result.failures])
    return result


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned table mirroring one of the paper's tables."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def print_series(title: str, x_label: str, x_values, series: dict) -> None:
    """Print figure-style series: one column of x, one per curve."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    print_table(title, headers, rows)
