"""Run-scoped JSONL event log with deterministic, mergeable ordering.

Every production layer that used to keep private state -- the trainer, the
sentinel, checkpointing, the sweep dispatcher, sharded generation -- emits
structured events here instead of ad-hoc prints.  The design is driven by
two hard requirements (see docs/observability.md):

1. **Determinism**: two runs with the same config+seed must produce
   byte-identical canonical logs, so an event's ``payload`` may only hold
   values that are pure functions of (config, seed, data).  Anything
   run-dependent -- wall-clock timings, PIDs, filesystem paths -- goes in
   the ``volatile`` side-channel, which the canonical exporter strips.
   Events that only exist in some execution modes (e.g. shard dispatch,
   which depends on the worker count) are marked ``transient`` and are
   dropped entirely from the canonical view.
2. **Worker invariance**: a sweep's workers write *per-cell* event files
   that the parent merges in cell-enumeration order (never completion
   order), so the merged log is identical for any worker count -- the same
   contract :mod:`repro.parallel` already enforces for the models
   themselves.

Appends are a single buffered ``write`` + ``flush`` of one complete line to
a file opened in append mode, so a crash can truncate at most the final
line and concurrent writers (which never share a file by construction)
cannot interleave partial records.

Instrumented code does not thread an ``EventLog`` through every signature;
it calls the module-level :func:`emit`, which resolves against the log
installed by :func:`capture` (mirroring :mod:`repro.nn.profiler`).  With no
log installed, :func:`emit` is one ``None`` check.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

from repro.resilience.atomic import atomic_open

__all__ = ["Event", "EventLog", "capture", "current", "enabled", "emit",
           "read_events", "merge_event_logs", "write_canonical",
           "canonical_line"]


@dataclass
class Event:
    """One structured record.

    Args:
        seq: Monotonic sequence number within the emitting log.
        run: Run identifier (deterministic; chosen by the run owner).
        cell: Sweep-cell identifier (``"dataset/model[/replica]"``) or
            ``None`` for run-level events.
        kind: Dotted event type, e.g. ``"train.iteration"``.
        payload: Deterministic fields (config/seed-reproducible only).
        volatile: Run-dependent fields (timings, pids, paths); stripped
            from the canonical export.
        transient: Whole event is execution-mode-dependent; dropped from
            the canonical export.
    """

    seq: int
    run: str
    cell: str | None
    kind: str
    payload: dict = field(default_factory=dict)
    volatile: dict | None = None
    transient: bool = False

    def to_json(self, canonical: bool = False) -> str:
        record = {"seq": self.seq, "run": self.run, "cell": self.cell,
                  "kind": self.kind, "payload": self.payload}
        if not canonical:
            if self.volatile:
                record["volatile"] = self.volatile
            if self.transient:
                record["transient"] = True
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Event":
        record = json.loads(line)
        return cls(seq=int(record["seq"]), run=record["run"],
                   cell=record.get("cell"), kind=record["kind"],
                   payload=record.get("payload", {}),
                   volatile=record.get("volatile"),
                   transient=bool(record.get("transient", False)))


def canonical_line(event: Event) -> str:
    """The byte sequence an event contributes to the canonical log."""
    return event.to_json(canonical=True)


class EventLog:
    """Append-only JSONL sink with monotonic per-log sequence numbers."""

    def __init__(self, path: str | os.PathLike, run_id: str = "run",
                 cell: str | None = None):
        self.path = os.fspath(path)
        self.run_id = str(run_id)
        self.cell = cell
        self._seq = 0
        self.events: list[Event] = []
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, kind: str, payload: dict | None = None,
             volatile: dict | None = None,
             transient: bool = False) -> Event:
        """Append one event; returns it (with its sequence number)."""
        event = Event(seq=self._seq, run=self.run_id, cell=self.cell,
                      kind=kind, payload=dict(payload or {}),
                      volatile=dict(volatile) if volatile else None,
                      transient=transient)
        self._seq += 1
        self.events.append(event)
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()
        return event

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- current log (scope-based, like the op profiler) -------------------------

_CURRENT: EventLog | None = None


def current() -> EventLog | None:
    """The installed event log, or None when event capture is disabled."""
    return _CURRENT


def enabled() -> bool:
    """Whether an event log is currently capturing."""
    return _CURRENT is not None


@contextlib.contextmanager
def capture(log: EventLog | None):
    """Route :func:`emit` calls to ``log`` for the duration of the block."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = log
    try:
        yield log
    finally:
        _CURRENT = previous


def emit(kind: str, payload: dict | None = None,
         volatile: dict | None = None, transient: bool = False
         ) -> Event | None:
    """Emit into the current log; fast no-op when none is installed."""
    if _CURRENT is None:
        return None
    return _CURRENT.emit(kind, payload, volatile=volatile,
                         transient=transient)


# -- files and merging -------------------------------------------------------

def read_events(path: str | os.PathLike) -> list[Event]:
    """Parse a JSONL event file; a truncated final line is skipped."""
    events: list[Event] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(Event.from_json(line))
                except (ValueError, KeyError):
                    # A crash mid-append can leave one partial final line;
                    # anything before it is intact.
                    break
    except FileNotFoundError:
        pass
    return events


def merge_event_logs(parent_events: list[Event],
                     cell_event_lists: list[list[Event]]) -> list[Event]:
    """Merge a run's event streams into one deterministic order.

    Order: the parent's events in their own sequence order, then each
    cell's events in cell-enumeration order (the caller passes cells in
    build order).  Transient events are dropped and the global sequence is
    renumbered, so the result is invariant to which process ran which cell
    and to the worker count.
    """
    merged: list[Event] = []
    for source in [parent_events] + list(cell_event_lists):
        for event in sorted(source, key=lambda e: e.seq):
            if event.transient:
                continue
            merged.append(Event(seq=len(merged), run=event.run,
                                cell=event.cell, kind=event.kind,
                                payload=event.payload,
                                volatile=event.volatile))
    return merged


def write_canonical(path: str | os.PathLike, events: list[Event]) -> None:
    """Atomically write the canonical (deterministic) JSONL view."""
    with atomic_open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(canonical_line(event) + "\n")
