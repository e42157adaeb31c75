"""Checkpoint/resume and in-memory rollback snapshots for the adversarial
training loop (:class:`repro.core.adversarial.AdversarialLoop`).

Two flavours of the same capture:

- **Disk checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`)
  go through :func:`repro.nn.serialization.save_training_state`, so a run
  killed at any point -- including mid-write -- resumes from its last
  complete checkpoint with a bit-identical loss trace.
- **In-memory snapshots** (:func:`snapshot_trainer` /
  :func:`restore_trainer`) back the divergence sentinel's rollback: cheap
  enough to refresh every few iterations, no filesystem involved.

Both capture every module the loop names (``loop.modules``), both Adam
states (``loop.optimizers``: moments + step count), the RNG bit-generator
state, the iteration counter, and the loss history -- the complete
closure of the training loop, whichever GAN it trains.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.serialization import load_training_state, save_training_state
from repro.observability import events as obs_events

__all__ = ["snapshot_trainer", "restore_trainer", "save_checkpoint",
           "load_checkpoint", "checkpoint_iteration",
           "trainer_params_finite", "nonfinite_parameter"]

_TRACE_FIELDS = ("iterations", "d_loss", "g_loss", "wasserstein")
_COUNTER_FIELDS = ("nan_events", "runaway_events", "step_faults",
                   "rollbacks", "lr_decays", "resumes")


def nonfinite_parameter(loop) -> str | None:
    """``"<module>::<param>"`` of the first parameter holding a NaN or
    Inf among the loop's modules, or ``None`` when all are finite."""
    for name, module in loop.modules.items():
        for pname, p in module.named_parameters():
            if not np.all(np.isfinite(p.data)):
                return f"{name}::{pname}"
    return None


def trainer_params_finite(loop) -> bool:
    """True when every parameter of the loop's modules is finite.

    Used to refuse to snapshot a silently poisoned state (NaN weights
    whose loss has not blown up *yet*) -- rolling back to such a snapshot
    would loop forever.
    """
    return nonfinite_parameter(loop) is None


# -- in-memory snapshots (sentinel rollback) --------------------------------

def snapshot_trainer(loop, iteration: int, history) -> dict:
    """Deep-copy the full training state into a plain dict."""
    return {
        "iteration": int(iteration),
        "modules": {name: module.state_dict()
                    for name, module in loop.modules.items()},
        "optimizers": {name: opt.state_dict()
                       for name, opt in loop.optimizers.items()},
        "rng_state": copy.deepcopy(loop.rng.bit_generator.state),
        "traces": {f: list(getattr(history, f)) for f in _TRACE_FIELDS},
    }


def restore_trainer(loop, snapshot: dict, history) -> int:
    """Restore a snapshot in place; returns its iteration counter.

    History *traces* are truncated back to the snapshot point, but the
    instability counters (rollbacks, nan_events, ...) are left untouched:
    they describe the whole run, including the failures being rolled back.
    """
    for name, module in loop.modules.items():
        module.load_state_dict(snapshot["modules"][name])
    for name, opt in loop.optimizers.items():
        opt.load_state_dict(snapshot["optimizers"][name])
    loop.rng.bit_generator.state = copy.deepcopy(snapshot["rng_state"])
    for field in _TRACE_FIELDS:
        getattr(history, field)[:] = snapshot["traces"][field]
    return snapshot["iteration"]


# -- disk checkpoints (kill/resume) -----------------------------------------

def save_checkpoint(loop, path, iteration: int, history) -> None:
    """Atomically write a resumable checkpoint of ``loop`` to ``path``."""
    extra_arrays = {f"history_{field}": np.asarray(
        getattr(history, field),
        dtype=np.int64 if field == "iterations" else np.float64)
        for field in _TRACE_FIELDS}
    extra_meta = {"counters": {f: int(getattr(history, f))
                               for f in _COUNTER_FIELDS}}
    save_training_state(path, modules=loop.modules,
                        optimizers=loop.optimizers,
                        rng=loop.rng, iteration=iteration,
                        extra_arrays=extra_arrays, extra_meta=extra_meta)
    # The destination path varies run-to-run (tmp dirs), so it rides in
    # the volatile side-channel; the iteration is the deterministic fact.
    obs_events.emit("checkpoint.save", {"iteration": int(iteration)},
                    volatile={"path": str(path)})


def checkpoint_iteration(path) -> int:
    """The completed-iteration count a checkpoint at ``path`` holds."""
    return load_training_state(path).iteration


def load_checkpoint(loop, path, history) -> int:
    """Restore ``loop`` and ``history`` from ``path``.

    Returns the iteration to resume from (the number of completed
    iterations at save time).  Raises :class:`ValueError` on corrupted
    files or on checkpoints whose shapes do not match the loop.
    """
    state = load_training_state(path)
    modules = loop.modules
    missing = sorted(set(modules) - set(state.module_states))
    unexpected = sorted(set(state.module_states) - set(modules))
    if missing or unexpected:
        raise ValueError(
            f"checkpoint {path!r} does not match this loop: missing "
            f"modules {missing}, unexpected modules {unexpected}")
    for name, module in modules.items():
        module.load_state_dict(state.module_states[name])
    for name, opt in loop.optimizers.items():
        if name not in state.optimizer_states:
            raise ValueError(f"checkpoint {path!r} has no state for "
                             f"optimizer {name!r}")
        opt.load_state_dict(state.optimizer_states[name])
    loop.rng.bit_generator.state = state.rng_state
    for field in _TRACE_FIELDS:
        cast = int if field == "iterations" else float
        getattr(history, field)[:] = [
            cast(v) for v in state.extra_arrays[f"history_{field}"]]
    for field, value in state.extra_meta.get("counters", {}).items():
        if field in _COUNTER_FIELDS:
            setattr(history, field, int(value))
    # Resuming is an execution-mode fact (a fresh run has no such event),
    # so it is transient: it never appears in the canonical log, keeping
    # kill/resume runs byte-identical to uninterrupted ones.
    obs_events.emit("checkpoint.load", {"iteration": int(state.iteration)},
                    volatile={"path": str(path)}, transient=True)
    return state.iteration
