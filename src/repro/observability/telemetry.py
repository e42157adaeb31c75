"""Telemetry run directories: the on-disk layout shared by all surfaces.

A telemetry run is a directory::

    DIR/
      parent.jsonl            # raw event stream of the owning process
      cells/<cell>.jsonl      # raw per-cell streams (sweep workers)
      cells/<cell>.metrics.json
      events.jsonl            # canonical merged log (deterministic)
      metrics.json            # merged metric dump (deterministic)
      report.md               # rendered run report (deterministic)

The raw files keep everything (timings, pids, transient events) for
debugging; ``events.jsonl`` / ``metrics.json`` / ``report.md`` are the
canonical exports that CI compares byte-for-byte across runs and worker
counts.

:class:`TelemetryRun` is the owner-side handle: entering it installs an
:class:`~repro.observability.events.EventLog` and a fresh
:class:`~repro.observability.metrics.MetricsRegistry` as the process-local
collection targets; :meth:`finalize` performs the cross-process
aggregation (merge cell logs in cell order, sum cell metric dumps) and
writes the canonical files.
"""

from __future__ import annotations

import json
import os
import re

from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.observability.report import render_run_report
from repro.resilience.atomic import atomic_open, canonical_json

__all__ = ["TelemetryRun", "cell_slug", "cell_log_path",
           "cell_metrics_path", "write_cell_metrics", "telemetry_active"]

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def telemetry_active() -> bool:
    """Whether any telemetry sink (events or metrics) is collecting."""
    return _events.enabled() or _metrics.enabled()


def cell_slug(label) -> str:
    """Filesystem-safe name for a sweep-cell label tuple."""
    if isinstance(label, tuple):
        label = "_".join(str(part) for part in label)
    return _SLUG_RE.sub("-", str(label))


def cell_log_path(root: str | os.PathLike, label) -> str:
    return os.path.join(os.fspath(root), "cells",
                        f"{cell_slug(label)}.jsonl")


def cell_metrics_path(root: str | os.PathLike, label) -> str:
    return os.path.join(os.fspath(root), "cells",
                        f"{cell_slug(label)}.metrics.json")


def write_cell_metrics(root: str | os.PathLike, label,
                       registry: _metrics.MetricsRegistry) -> None:
    """Atomically dump one cell's registry next to its event file."""
    path = cell_metrics_path(root, label)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with atomic_open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.dump(), handle, sort_keys=True)


class TelemetryRun:
    """Owns one telemetry directory for the duration of a run.

    Use as a context manager around the instrumented work::

        with TelemetryRun(out_dir, run_id="train") as run:
            model.fit(data)
        run.finalize()
    """

    def __init__(self, root: str | os.PathLike, run_id: str = "run"):
        self.root = os.fspath(root)
        self.run_id = str(run_id)
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(os.path.join(self.root, "cells"), exist_ok=True)
        self.log = _events.EventLog(os.path.join(self.root, "parent.jsonl"),
                                    run_id=self.run_id)
        self.registry = _metrics.MetricsRegistry()
        self._events_ctx = None
        self._metrics_ctx = None

    # -- scope management ----------------------------------------------------
    def __enter__(self) -> "TelemetryRun":
        self._events_ctx = _events.capture(self.log)
        self._metrics_ctx = _metrics.use(self.registry)
        self._events_ctx.__enter__()
        self._metrics_ctx.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._metrics_ctx.__exit__(*exc)
        self._events_ctx.__exit__(*exc)
        self.log.close()

    # -- paths for cell workers ----------------------------------------------
    def cell_log_path(self, label) -> str:
        return cell_log_path(self.root, label)

    def cell_metrics_path(self, label) -> str:
        return cell_metrics_path(self.root, label)

    # -- aggregation ---------------------------------------------------------
    def finalize(self, cell_labels=None) -> dict:
        """Merge raw streams and write the canonical exports.

        Args:
            cell_labels: Cell labels in enumeration order (a sweep's build
                order); ``None`` for single-process runs without cells.

        Returns:
            ``{"events": path, "metrics": path, "report": path}``.
        """
        self.log.close()
        cell_labels = list(cell_labels or [])
        parent = _events.read_events(self.log.path)
        cell_streams = [_events.read_events(self.cell_log_path(label))
                        for label in cell_labels]
        merged = _events.merge_event_logs(parent, cell_streams)
        events_path = os.path.join(self.root, "events.jsonl")
        _events.write_canonical(events_path, merged)

        dumps = [self.registry.dump()]
        for label in cell_labels:
            try:
                with open(self.cell_metrics_path(label),
                          encoding="utf-8") as handle:
                    dumps.append(json.load(handle))
            except (FileNotFoundError, ValueError):
                continue
        merged_metrics = _metrics.merge_dumps(dumps)
        metrics_path = os.path.join(self.root, "metrics.json")
        with atomic_open(metrics_path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(merged_metrics))

        report_path = os.path.join(self.root, "report.md")
        report = render_run_report(merged, merged_metrics,
                                   title=f"Run report: {self.run_id}")
        with atomic_open(report_path, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        return {"events": events_path, "metrics": metrics_path,
                "report": report_path}
