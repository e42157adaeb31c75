"""Disk-backed result cache for sweep cells.

Honest evaluation means re-training many models per configuration; the
cache makes repeated sweeps over the same grid free.  Each trained model is
stored under a key derived from everything that determines the training
outcome:

- the **config fingerprint** -- a canonical-JSON SHA-256 of the model's
  full configuration (DGConfig fields for DoppelGANger, constructor kwargs
  for baselines), so any hyperparameter change invalidates the entry;
- the **dataset fingerprint** -- a SHA-256 over the schema declaration and
  the raw attribute/feature/length bytes, so a different or regenerated
  dataset invalidates the entry;
- the **seed** the cell was trained with.

Entries are written atomically (temp file + ``os.replace``), and a corrupt
or unreadable entry reads as a miss (and is removed) rather than an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle

from repro.observability import events as obs_events
from repro.resilience.atomic import atomic_open

__all__ = ["SweepCache", "dataset_fingerprint", "config_fingerprint",
           "cell_cache_key"]


def _canonical_json(value) -> str:
    """Deterministic JSON for hashing (sorted keys, tuples as lists)."""
    def default(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        if isinstance(obj, tuple):
            return list(obj)
        raise TypeError(f"unhashable config value: {obj!r}")
    return json.dumps(value, sort_keys=True, default=default)


def config_fingerprint(config) -> str:
    """SHA-256 fingerprint of a model configuration.

    Accepts a dataclass (e.g. :class:`repro.core.config.DGConfig`), a
    plain dict of constructor kwargs, or any JSON-serializable value.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def dataset_fingerprint(dataset) -> str:
    """SHA-256 fingerprint of a raw :class:`TimeSeriesDataset`."""
    from repro.data.schema import schema_to_dict

    digest = hashlib.sha256()
    digest.update(_canonical_json(schema_to_dict(dataset.schema)).encode())
    for array in (dataset.attributes, dataset.features, dataset.lengths):
        contiguous = array if array.flags["C_CONTIGUOUS"] else \
            array.copy(order="C")
        digest.update(str(array.shape).encode())
        digest.update(contiguous.tobytes())
    return digest.hexdigest()


def cell_cache_key(model_name: str, config_fp: str, dataset_fp: str,
                   seed) -> str:
    """Key of one sweep cell: (model, config hash, dataset hash, seed)."""
    material = f"{model_name}|{config_fp}|{dataset_fp}|{seed}"
    return hashlib.sha256(material.encode()).hexdigest()


class SweepCache:
    """Filesystem store mapping cell keys to pickled trained models."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def __contains__(self, key: str) -> bool:
        # Only a completed entry counts: an orphaned ``<key>.pkl.tmp``
        # left by a crash mid-``put`` is not a hit.
        return os.path.exists(self._path(key))

    def get(self, key: str):
        """Return the cached model for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated or unpicklable entry must never poison a sweep.
            # Corruption reflects a previous run's crash, not this run's
            # config+seed, so the event is transient (raw stream only).
            obs_events.emit("cache.corrupt", {}, volatile={"key": key},
                            transient=True)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key: str, model) -> None:
        """Atomically store ``model`` under ``key``."""
        with atomic_open(self._path(key)) as handle:
            pickle.dump(model, handle)

    def clear(self) -> int:
        """Remove every entry; returns the number removed.

        Also sweeps orphaned ``*.pkl.tmp`` files left behind by a crash
        between ``put()``'s write and its atomic ``os.replace`` -- they
        would otherwise leak forever (they are never read, and ``put``
        always writes its own fresh temp file).  Orphans do not count
        toward the returned number of removed *entries*.
        """
        removed = 0
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.endswith(".pkl"):
                os.remove(path)
                removed += 1
            elif name.endswith(".pkl.tmp"):
                try:
                    os.remove(path)
                except OSError:
                    pass
        return removed
