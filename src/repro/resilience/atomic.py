"""The one atomic-write primitive: temp file, flush, fsync, ``os.replace``.

Every durable file the package writes -- checkpoints, registry blobs and
manifests, job records and receipts, sweep-cache entries, telemetry
exports, a server's port file -- goes through :func:`atomic_open` or
:func:`write_atomic`.  Data is written to ``<path>.tmp`` in the same
directory, flushed and fsynced, then renamed over ``path``, so a crash
leaves either the old file or the new one, never a torn mix.  A write
that raises leaves its ``.tmp`` behind and ``path`` untouched.

The parent directory is fsynced after the rename, so once the call
returns the new name survives a power loss too.

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
    _fsync_directory(os.path.dirname(path) or ".")


def write_atomic(path: str | os.PathLike, data: bytes, *,
                 fault_site: str | None = None) -> None:
    """Atomically replace ``path``'s contents with ``data`` (``fault_site``
    as for :func:`atomic_open`)."""
    with atomic_open(path, fault_site=fault_site) as handle:
        handle.write(data)


def _fsync_directory(directory: str) -> None:
    """Make a rename inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def canonical_json(value) -> str:
    """``value`` as canonical JSON: sorted keys, two-space indent, and a
    trailing newline, so equal documents are equal bytes.

    The bytes are ``json.dumps(value, sort_keys=True, indent=2) + "\n"``.
    With an indent, :mod:`json` runs its pure-Python encoder, whose
    mutually recursive closures leave reference cycles behind on every
    call; this plain recursion builds the same text and leaves none.
    """
    parts: list[str] = []
    _encode(value, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _scalar_text(value) -> str | None:
    """JSON text of a str, None, bool, int or float (json's spellings,
    ``allow_nan=True``); None for anything else."""
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _encode(value, parts: list, newline: str) -> None:
    """Append ``value``'s JSON to ``parts``; ``newline`` is a line break
    plus the indent of the line ``value`` starts on."""
    text = _scalar_text(value)
    if text is not None:
        parts.append(text)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _encode(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            key_text = key if isinstance(key, str) else _scalar_text(key)
            if key_text is None:
                raise TypeError(f"keys must be str, int, float, bool or "
                                f"None, not {key.__class__.__name__}")
            parts.append(separator)
            parts.append(_encode_string(key_text))
            parts.append(": ")
            _encode(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


_INFINITY = float("inf")
_encode_string = json.encoder.encode_basestring_ascii
