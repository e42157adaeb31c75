"""Length-prefixed JSON + npz framing for the serving loopback protocol.

One frame carries a JSON *header* and an optional binary *payload*::

    +------+---------+----------------+----------------+--------+---------+
    | RSRV | version | header length  | payload length | header | payload |
    | 4 B  |   1 B   |  4 B big-end.  |  8 B big-end.  | JSON   |  bytes  |
    +------+---------+----------------+----------------+--------+---------+

Headers are small structured facts (op, model spec, n, seed, status,
error code); payloads are npz archives -- a generated
:class:`~repro.data.dataset.TimeSeriesDataset` serialized with its own
``save``/``load`` format, so a consumer needs nothing serving-specific to
read what it receives.  Both directions use the same framing.

Malformed input (bad magic, oversized lengths, truncation, non-JSON
header) raises :class:`ProtocolError`; servers drop the connection,
clients surface the error.  Error *responses* are well-formed frames with
``status="error"`` and a machine-readable ``code``:

- ``busy`` -- admission queue full; the request was shed (backpressure).
- ``shutting_down`` -- server is draining; retry against a new server.
- ``model_not_found`` -- unknown model spec.
- ``job_not_found`` -- unknown job id (``status``/``cancel``).
- ``jobs_disabled`` -- the server was started without a job store.
- ``rate_limited`` -- the client's token bucket is empty; the fleet
  router shed the request before routing it (quota, not capacity).
- ``bad_request`` -- malformed op/arguments.
- ``internal`` -- unexpected server-side failure.

Two additional codes never cross the wire; clients synthesize them when
the *transport* fails so callers always see a :class:`ServeError` with a
machine-readable code instead of a raw socket exception:

- ``timeout`` -- connect or read exceeded the client's timeout.
- ``connection`` -- the connection was refused, reset, or closed
  mid-request.

Every ``generate`` is checked by :func:`validate_generate`, whether a
single server or a fleet router receives it, and served requests time
their stages through :func:`observe_stages`.
"""

from __future__ import annotations

import json
import struct
import threading
import time

from repro.data.dataset import TimeSeriesDataset
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import LATENCY_BUCKETS

__all__ = ["MAGIC", "VERSION", "MAX_HEADER_BYTES", "MAX_PAYLOAD_BYTES",
           "ProtocolError", "write_message", "read_message",
           "read_message_timed", "dataset_to_bytes", "dataset_from_bytes",
           "validate_generate", "observe_stages", "SERVE_STAGES",
           "FLEET_STAGES",
           "ERR_BUSY", "ERR_SHUTTING_DOWN", "ERR_MODEL_NOT_FOUND",
           "ERR_BAD_REQUEST", "ERR_INTERNAL", "ERR_JOB_NOT_FOUND",
           "ERR_JOBS_DISABLED", "ERR_RATE_LIMITED", "ERR_TIMEOUT",
           "ERR_CONNECTION"]

MAGIC = b"RSRV"
VERSION = 1
_PREFIX = struct.Struct(">4sBIQ")

MAX_HEADER_BYTES = 1 << 20  # 1 MiB of JSON is already absurd
MAX_PAYLOAD_BYTES = 1 << 33  # 8 GiB hard cap per frame

ERR_BUSY = "busy"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_MODEL_NOT_FOUND = "model_not_found"
ERR_JOB_NOT_FOUND = "job_not_found"
ERR_JOBS_DISABLED = "jobs_disabled"
ERR_RATE_LIMITED = "rate_limited"
ERR_BAD_REQUEST = "bad_request"
ERR_INTERNAL = "internal"

# Client-side transport codes (never sent by a server).
ERR_TIMEOUT = "timeout"
ERR_CONNECTION = "connection"


class ProtocolError(ValueError):
    """The byte stream does not follow the framing above."""


def write_message(wfile, header: dict, payload: bytes = b"") -> None:
    """Frame and write one message to a binary file-like object."""
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(head)} bytes exceeds the "
                            f"{MAX_HEADER_BYTES}-byte cap")
    wfile.write(_PREFIX.pack(MAGIC, VERSION, len(head), len(payload)))
    wfile.write(head)
    if payload:
        wfile.write(payload)
    wfile.flush()


def _read_exact(rfile, n: int, what: str) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame while reading {what} "
                f"({n - remaining}/{n} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(rfile) -> tuple[dict, bytes]:
    """Read one frame; returns ``(header, payload)``.

    Raises :class:`EOFError` on a clean end-of-stream before any byte of
    a frame, and :class:`ProtocolError` on anything malformed.
    """
    header, payload, _ = read_message_timed(rfile)
    return header, payload


def read_message_timed(rfile) -> tuple[dict, bytes, float]:
    """:func:`read_message` plus the ``time.perf_counter()`` at which the
    frame's first byte arrived (servers time a request from there)."""
    first = rfile.read(1)
    if not first:
        raise EOFError("end of stream")
    arrived = time.perf_counter()
    prefix = first + _read_exact(rfile, _PREFIX.size - 1, "frame prefix")
    magic, version, head_len, payload_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} "
                            f"(expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version} "
                            f"(this side speaks {VERSION})")
    if head_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header of {head_len} bytes exceeds "
                            f"the {MAX_HEADER_BYTES}-byte cap")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"declared payload of {payload_len} bytes "
                            f"exceeds the {MAX_PAYLOAD_BYTES}-byte cap")
    head = _read_exact(rfile, head_len, "header")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    payload = _read_exact(rfile, payload_len, "payload") \
        if payload_len else b""
    return header, payload, arrived


# -- requests ----------------------------------------------------------------

def validate_generate(header: dict, max_request_n: int):
    """Check a ``generate`` header's ``n`` and ``seed``.

    Returns ``(spec, n, seed)``, or the ``bad_request`` message when ``n``
    is not a non-negative integer, exceeds ``max_request_n``, or the seed
    is not a non-negative integer.  ``seed`` defaults to 0; ``spec`` is
    returned unchecked (model lookup reports unknown specs).
    """
    spec = header.get("model")
    n, seed = header.get("n"), header.get("seed", 0)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        return f"n must be a non-negative integer, got {n!r}"
    if n > max_request_n:
        return (f"n={n} exceeds the per-request cap of {max_request_n}; "
                f"split the request")
    if not isinstance(seed, int) or isinstance(seed, bool):
        return f"seed must be an integer, got {seed!r}"
    if seed < 0:  # numpy's default_rng rejects negative seeds
        return f"seed must be non-negative, got {seed!r}"
    return spec, n, seed


#: Stages a replica times for each served ``generate``, in order:
#: frame read, validation + planning + queue insert, wait for the model's
#: turn (earlier requests' passes), model passes, decoding, npz encoding,
#: response write.  All run on the connection's thread and consecutive
#: timestamps bound them, so they tile the request.
SERVE_STAGES = ("read", "admit", "queue", "model", "assemble", "encode",
                "write")
#: Stages a fleet router times for each routed ``generate``.
FLEET_STAGES = ("validate", "route", "forward")

# Histograms are not thread-safe, and every connection's handler thread
# observes its own requests' stages.
_STAGE_LOCK = threading.Lock()


def observe_stages(prefix: str, request: float | None = None,
                   **seconds: float) -> None:
    """Observe each ``stage=seconds`` on the current metrics registry's
    ``<prefix>.stage_seconds.<stage>`` histogram, and ``request`` (the
    whole request's seconds) on ``<prefix>.request_seconds``; all on
    ``LATENCY_BUCKETS``.  A no-op when no metrics scope is installed.
    """
    if not obs_metrics.enabled():
        return
    with _STAGE_LOCK:
        for stage, value in seconds.items():
            obs_metrics.histogram(f"{prefix}.stage_seconds.{stage}",
                                  LATENCY_BUCKETS).observe(value)
        if request is not None:
            obs_metrics.histogram(f"{prefix}.request_seconds",
                                  LATENCY_BUCKETS).observe(request)


# -- payload codecs ----------------------------------------------------------

def dataset_to_bytes(dataset: TimeSeriesDataset) -> bytes:
    """Serialize a dataset to npz bytes (the generate-response payload)."""
    return dataset.to_bytes()


def dataset_from_bytes(blob: bytes) -> TimeSeriesDataset:
    """Inverse of :func:`dataset_to_bytes`."""
    try:
        return TimeSeriesDataset.from_bytes(blob)
    except ValueError as exc:
        raise ProtocolError(
            f"response payload does not decode as a dataset "
            f"({exc})") from exc
