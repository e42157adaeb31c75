"""npz building blocks: in-memory archives, atomic writes, training state.

Every archive here is encoded and decoded by :mod:`repro.npz`, which
writes the bytes ``np.savez`` would and reads them strictly: a damaged,
compressed or pickled archive raises :class:`ValueError`.

Model archives -- the "release model parameters" step of the paper's
workflow (Figure 2) -- have one format for every backend, written and read
only by :mod:`repro.backends.archive`; it encodes them with
:func:`arrays_to_bytes` and decodes them with :func:`bytes_to_arrays`.

Training-state archives (:func:`save_training_state`) hold everything
needed to continue a run bit-identically: every module parameter, every
optimizer moment, the RNG bit-generator state, and the iteration counter.
They back checkpoint/resume in :mod:`repro.resilience`.  Writes are atomic
(temp file + ``os.replace``) so a process killed mid-write can never leave
a truncated checkpoint behind -- the previous checkpoint survives intact.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.nn.layers import Module
from repro.nn.optim import Optimizer
from repro.npz import read_npz, write_npz

__all__ = ["save_npz_atomic", "arrays_to_bytes", "bytes_to_arrays",
           "save_training_state", "load_training_state", "TrainingState"]

_STATE_FORMAT = "repro-training-state"
_STATE_VERSION = 1


# -- in-memory archives ------------------------------------------------------

def arrays_to_bytes(arrays: dict) -> bytes:
    """Serialize named arrays to ``.npz`` bytes (no filesystem touch).

    Used to ship model state across process boundaries -- e.g. handing a
    trained generator to the sharded-generation workers of
    :mod:`repro.parallel.generation` -- without a temp file per worker.
    """
    return write_npz(arrays)


def bytes_to_arrays(blob: bytes, names=None) -> dict:
    """Inverse of :func:`arrays_to_bytes`; raises ValueError on corruption.

    With ``names``, only those entries (where present) are returned.
    """
    try:
        arrays = read_npz(blob)
    except ValueError as exc:
        raise ValueError(
            f"cannot decode npz archive: the bytes are missing, corrupted, "
            f"or truncated ({exc})") from exc
    if names is None:
        return arrays
    return {name: arrays[name] for name in arrays if name in names}


# -- atomic writes -----------------------------------------------------------

def save_npz_atomic(path: str | os.PathLike, arrays: dict) -> None:
    """Write an ``.npz`` archive atomically (temp file + rename).

    The archive is written to ``<path>.tmp`` in the same directory,
    flushed and fsynced, then moved over ``path`` with :func:`os.replace`
    (see :func:`repro.resilience.atomic.atomic_open`).  A crash at any
    point leaves either the old file or the new file -- never a truncated
    mix.  The ``serialization.pre_rename`` fault site (see
    :mod:`repro.resilience.faults`) fires between write and rename so
    tests can prove that property.
    """
    # Imported lazily: repro.resilience.checkpoint imports this module.
    from repro.resilience.atomic import write_atomic
    write_atomic(path, write_npz(arrays),
                 fault_site="serialization.pre_rename")


# -- full training state -----------------------------------------------------

class TrainingState:
    """Decoded contents of a training-state archive."""

    def __init__(self, iteration: int, rng_state: dict,
                 module_states: dict, optimizer_states: dict,
                 extra_arrays: dict, extra_meta: dict):
        self.iteration = iteration
        self.rng_state = rng_state
        self.module_states = module_states
        self.optimizer_states = optimizer_states
        self.extra_arrays = extra_arrays
        self.extra_meta = extra_meta


def save_training_state(path: str | os.PathLike, *,
                        modules: dict[str, Module],
                        optimizers: dict[str, Optimizer],
                        rng: np.random.Generator,
                        iteration: int,
                        extra_arrays: dict | None = None,
                        extra_meta: dict | None = None) -> None:
    """Atomically snapshot a full training run to ``path``.

    Args:
        modules: Named modules whose parameters to save.
        optimizers: Named optimizers whose moments/hyper-state to save.
        rng: The training RNG; its bit-generator state is captured so a
            resumed run draws the identical noise sequence.
        iteration: Completed-iteration counter to resume from.
        extra_arrays: Additional named float arrays (e.g. loss traces).
        extra_meta: Additional JSON-serializable metadata.
    """
    arrays: dict[str, np.ndarray] = {}
    optim_meta: dict[str, dict] = {}
    for name, module in modules.items():
        for pname, value in module.state_dict().items():
            arrays[f"module::{name}::{pname}"] = value
    for name, optimizer in optimizers.items():
        scalars = {}
        for key, value in optimizer.state_dict().items():
            if isinstance(value, list):
                for i, arr in enumerate(value):
                    arrays[f"optim::{name}::{key}::{i}"] = arr
            else:
                scalars[key] = value
        optim_meta[name] = scalars
    for key, value in (extra_arrays or {}).items():
        arrays[f"extra::{key}"] = np.asarray(value)
    meta = {
        "format": _STATE_FORMAT,
        "version": _STATE_VERSION,
        "iteration": int(iteration),
        "rng_state": rng.bit_generator.state,
        "optimizers": optim_meta,
        "extra": extra_meta or {},
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    save_npz_atomic(path, arrays)


def load_training_state(path: str | os.PathLike) -> TrainingState:
    """Read a training-state archive written by :func:`save_training_state`.

    Raises a clear :class:`ValueError` for missing, truncated, corrupted,
    or wrong-format files.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = read_npz(handle.read())
    except (OSError, ValueError) as exc:
        raise ValueError(
            f"cannot read training state {path!r}: the file is missing, "
            f"corrupted, or truncated ({exc})") from exc
    if "__meta__" not in raw:
        raise ValueError(f"{path!r} is not a training-state archive "
                         f"(no __meta__ entry)")
    try:
        meta = json.loads(bytes(raw.pop("__meta__").tobytes()).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"training state {path!r} has a corrupted metadata block "
            f"({exc})") from exc
    if meta.get("format") != _STATE_FORMAT:
        raise ValueError(f"{path!r} is not a training-state archive "
                         f"(format={meta.get('format')!r})")

    module_states: dict[str, dict] = {}
    optim_arrays: dict[str, dict[str, dict[int, np.ndarray]]] = {}
    extra_arrays: dict[str, np.ndarray] = {}
    for name, value in raw.items():
        kind, _, rest = name.partition("::")
        if kind == "module":
            mod, _, pname = rest.partition("::")
            module_states.setdefault(mod, {})[pname] = value
        elif kind == "optim":
            opt, _, tail = rest.partition("::")
            key, _, index = tail.partition("::")
            optim_arrays.setdefault(opt, {}).setdefault(
                key, {})[int(index)] = value
        elif kind == "extra":
            extra_arrays[rest] = value

    optimizer_states: dict[str, dict] = {}
    for opt, scalars in meta.get("optimizers", {}).items():
        state = dict(scalars)
        for key, indexed in optim_arrays.get(opt, {}).items():
            state[key] = [indexed[i] for i in sorted(indexed)]
        optimizer_states[opt] = state

    return TrainingState(iteration=int(meta["iteration"]),
                         rng_state=meta["rng_state"],
                         module_states=module_states,
                         optimizer_states=optimizer_states,
                         extra_arrays=extra_arrays,
                         extra_meta=meta.get("extra", {}))
