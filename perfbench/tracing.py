"""In-memory spans recorded around calls into the program's public APIs.

The benchmark never instruments ``src/``: a span brackets one call made
from the benchmark's own files.  Spans live in a list until the run ends
and are then written out in one piece, so recording costs two clock reads
and one append.  Untraced runs use :data:`NULL`, whose ``span`` is a
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time

__all__ = ["Tracer", "NULL", "percentile"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 when empty."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tracer:
    """Records ``(id, parent, op, name, start, end)`` spans.

    Spans opened inside another span are its children; ``op`` ties every
    span of one operation together (``"<stream>:<index>"``).
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op_id, "name": name, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def record(self, name: str, seconds: float) -> None:
        """Add a closed span of a measured duration (no children)."""
        now = time.perf_counter()
        self.spans.append({"id": len(self.spans),
                           "parent": self._stack[-1] if self._stack
                           else None, "op": self.op_id, "name": name,
                           "start": now - seconds, "end": now})

    # -- analysis ------------------------------------------------------------
    def durations(self, name: str, op_prefix: str = "") -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (s["op"] or "").startswith(op_prefix)]

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the time its children cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] = (child.get(s["parent"], 0.0)
                                      + s["end"] - s["start"])
        return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans if s["end"] is not None}

    def child_share(self, name: str, op_prefix: str) -> list[float]:
        """Per span ``name``: share of its duration its children cover."""
        selfs = self.self_times()
        return [1.0 - selfs[s["id"]] / (s["end"] - s["start"])
                for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (s["op"] or "").startswith(op_prefix)
                and s["end"] > s["start"]]

    def layer_self_ms(self, op_prefix: str) -> dict[str, float]:
        """Median self time in ms of every span name within one stream."""
        selfs = self.self_times()
        by_name: dict[str, list[float]] = {}
        for s in self.spans:
            if s["end"] is not None and (s["op"] or "").startswith(
                    op_prefix):
                by_name.setdefault(s["name"], []).append(selfs[s["id"]])
        return {name: 1e3 * percentile(values, 50)
                for name, values in sorted(by_name.items())}

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


class _NullTracer:
    """Tracing off: the same interface, recording nothing."""

    enabled = False
    op_id = None
    _NOOP = contextlib.nullcontext()

    def span(self, name: str):
        return self._NOOP

    def record(self, name: str, seconds: float) -> None:
        pass


NULL = _NullTracer()
