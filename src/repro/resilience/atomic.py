"""The one atomic-write primitive: temp file, flush, fsync, ``os.replace``.

Every durable file the package writes -- checkpoints, registry blobs and
manifests, job records and receipts, sweep-cache entries, telemetry
exports, a server's port file -- goes through :func:`atomic_open` or
:func:`write_atomic`.  Data is written to ``<path>.tmp`` in the same
directory, flushed and fsynced, then renamed over ``path``, so a crash
leaves either the old file or the new one, never a torn mix.  A write
that raises leaves its ``.tmp`` behind and ``path`` untouched.

The parent directory is not fsynced after the rename, so a power loss
can still roll the rename back (the old file stays whole).

:func:`canonical_json` is the one spelling of the JSON documents those
files hold: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import contextlib
import json
import os

from repro.resilience import faults

__all__ = ["atomic_open", "write_atomic", "canonical_json"]


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "wb", *,
                fault_site: str | None = None, **kwargs):
    """Open ``<path>.tmp`` for writing; on a clean exit move it to ``path``.

    ``mode`` and ``kwargs`` go to :func:`open` (``"w"`` with
    ``encoding=`` for text).  ``fault_site`` names a
    :mod:`repro.resilience.faults` site fired between write and rename.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, mode, **kwargs) as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    if fault_site is not None:
        faults.fire(fault_site)
    os.replace(tmp, path)


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Atomically replace ``path``'s contents with ``data``."""
    with atomic_open(path) as handle:
        handle.write(data)


def canonical_json(value) -> str:
    """``value`` as canonical JSON: sorted keys, two-space indent, and a
    trailing newline, so equal documents are equal bytes."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"
