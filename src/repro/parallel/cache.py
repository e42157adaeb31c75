"""Disk-backed result cache for sweep cells.

Honest evaluation means re-training many models per configuration; the
cache makes repeated sweeps over the same grid free.  Each trained model is
stored as its model archive bytes (:mod:`repro.backends.archive`, the same
format as the CLI, registry and sharded generation) in ``<key>.npz``, under
a key derived from everything that determines the training outcome:

- the **config fingerprint** -- a SHA-256 of the canonical JSON of the
  model's full configuration (DGConfig fields for DoppelGANger,
  constructor kwargs for baselines), so any hyperparameter change
  invalidates the entry;
- the **dataset fingerprint** -- a SHA-256 of the dataset's npz bytes
  (schema and arrays), so a different or regenerated dataset invalidates
  the entry;
- the **seed** the cell was trained with.

Entries are written atomically and read through the strict npz reader, so
nothing in the cache directory is ever unpickled.  An entry that does not
decode as a model archive reads as a miss (and is removed) rather than an
error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from repro.observability import events as obs_events
from repro.resilience.atomic import canonical_json, write_atomic

__all__ = ["SweepCache", "dataset_fingerprint", "config_fingerprint",
           "cell_cache_key"]


def config_fingerprint(config) -> str:
    """SHA-256 fingerprint of a model configuration.

    Accepts a dataclass (e.g. :class:`repro.core.config.DGConfig`) or a
    plain dict of constructor kwargs.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def dataset_fingerprint(dataset) -> str:
    """SHA-256 fingerprint of a raw :class:`TimeSeriesDataset`."""
    return hashlib.sha256(dataset.to_bytes()).hexdigest()


def cell_cache_key(model_name: str, config_fp: str, dataset_fp: str,
                   seed) -> str:
    """Key of one sweep cell: (model, config hash, dataset hash, seed)."""
    material = f"{model_name}|{config_fp}|{dataset_fp}|{seed}"
    return hashlib.sha256(material.encode()).hexdigest()


class SweepCache:
    """Filesystem store mapping cell keys to model archive bytes."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    def __contains__(self, key: str) -> bool:
        # Only a completed entry counts: an orphaned ``<key>.npz.tmp``
        # left by a crash mid-``put`` is not a hit.
        return os.path.exists(self._path(key))

    def get(self, key: str) -> bytes | None:
        """Return the archive bytes cached under ``key``, or None on a
        miss or an entry that is not a model archive."""
        from repro.backends import read_meta

        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        try:
            read_meta(blob)
        except ValueError:
            # A damaged entry must never poison a sweep.  Corruption
            # reflects a previous run, not this run's config+seed, so the
            # event is transient (raw stream only).
            obs_events.emit("cache.corrupt", {}, volatile={"key": key},
                            transient=True)
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Atomically store model archive bytes under ``key``."""
        write_atomic(self._path(key), blob)

    def clear(self) -> int:
        """Remove every entry; returns the number removed.

        Also sweeps orphaned ``*.npz.tmp`` files left behind by a crash
        between ``put()``'s write and its atomic ``os.replace`` -- they
        would otherwise leak forever (they are never read, and ``put``
        always writes its own fresh temp file).  Orphans do not count
        toward the returned number of removed *entries*.
        """
        removed = 0
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.endswith(".npz"):
                os.remove(path)
                removed += 1
            elif name.endswith(".npz.tmp"):
                try:
                    os.remove(path)
                except OSError:
                    pass
        return removed
