"""Pluggable generator backends: DoppelGANger is one of many.

Importing this package registers the built-in architectures:

- ``doppelganger`` (alias ``dg``) -- the paper's reference model,
- ``dlgan`` -- the dual-layer discrete+continuous generator,
- ``hmm`` / ``ar`` / ``rnn`` / ``naive_gan`` -- the §5.0.1 baselines.

Third-party architectures plug in with
``register_backend(MyBackend())``; everything above the model layer
(harness, sweep, registry, CLI) dispatches by name from then on.

Every backend's models save in the one model archive format of
:mod:`repro.backends.archive`, whose ``__meta__`` names the backend, so a
blob or a file on disk routes to its loader by its tag
(:func:`sniff_backend`, :func:`load_model_bytes`).  Archives written
before the format existed load through its frozen legacy translator.
"""

from __future__ import annotations

from repro.backends.archive import read_meta, read_model
from repro.backends.base import (DEFAULT_BACKEND, FitOptions,
                                 GeneratorBackend, UnknownBackend,
                                 backend_for_model, backend_names,
                                 get_backend, register_backend)
from repro.backends.baselines import BASELINE_BACKENDS, BaselineBackend
from repro.backends.dlgan import DLGAN, DLGANBackend, DLGANConfig
from repro.backends.doppelganger import DoppelGANgerBackend

__all__ = [
    "GeneratorBackend", "UnknownBackend", "DEFAULT_BACKEND", "FitOptions",
    "register_backend", "get_backend", "backend_names",
    "backend_for_model",
    "DoppelGANgerBackend", "DLGANBackend", "BaselineBackend",
    "DLGAN", "DLGANConfig",
    "sniff_backend", "load_model_bytes", "load_model_file",
]

register_backend(DoppelGANgerBackend())
register_backend(DLGANBackend())
for _backend in BASELINE_BACKENDS:
    register_backend(_backend)


def sniff_backend(blob: bytes) -> str:
    """The backend name a serialized model blob's tag names.

    Raises :class:`ValueError` when the blob is not a model archive.
    """
    return read_meta(blob)["backend"]


def load_model_bytes(blob: bytes):
    """Load a serialized model of any registered backend.

    Returns ``(model, backend)`` so callers that need to re-serialize or
    tag the model don't have to sniff twice.
    """
    return read_model(blob)


def load_model_file(path):
    """:func:`load_model_bytes` over a filesystem path."""
    with open(path, "rb") as handle:
        return load_model_bytes(handle.read())
