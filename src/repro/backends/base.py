"""The ``GeneratorBackend`` seam: one interface, many architectures.

The paper frames DoppelGANger as one point in a design space of
time-series generators and explicitly leaves architecture choice open
(§7).  Everything above the model layer -- the experiment harness, the
process-parallel sweep, the serving registry, and the CLI -- only needs
five capabilities from a generator:

- build a model from a (schema, config) pair,
- fit it on a :class:`~repro.data.dataset.TimeSeriesDataset` (GAN
  backends honour one :class:`FitOptions` object of resilience switches),
- sample ``n`` synthetic objects deterministically from an rng,
- serialize the fitted model to bytes, and restore it from bytes.

:class:`GeneratorBackend` names exactly that contract, and the registry
(:func:`register_backend` / :func:`get_backend`) makes architectures
addressable by name so a sweep over ``["doppelganger", "dlgan", "hmm"]``
is an architecture bake-off with no special cases.

Contract notes (see docs/backends.md for the full rules):

- ``make_config`` must return a plain JSON-serializable dict -- it is
  fingerprinted by :func:`repro.parallel.cache.config_fingerprint` to key
  the sweep result cache, so any field that changes training must appear
  in it.
- ``save_bytes``/``load_bytes`` are concrete: every backend's models
  share the one archive format of :mod:`repro.backends.archive`, which
  the backend's ``model_class`` joins through ``archive_state`` /
  ``from_archive``.  ``save_bytes(load_bytes(b)) == b`` for any
  current-format blob, and the restored model generates bit-identically
  to the original for the same rng.  The serving registry and the
  sharded-generation workers both rely on this.
- ``generate`` must be a pure function of (model state, rng): the same
  seeded rng always yields the same dataset, on any host, in any
  process.  The sweep digests and the serving determinism battery
  enforce this.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.adversarial import FitOptions
from repro.data.dataset import TimeSeriesDataset
from repro.data.schema import DataSchema

__all__ = ["GeneratorBackend", "UnknownBackend", "register_backend",
           "get_backend", "backend_names", "backend_for_model",
           "DEFAULT_BACKEND", "FitOptions"]

#: Tag assumed for archives published before backend tags existed.
DEFAULT_BACKEND = "doppelganger"


class UnknownBackend(ValueError):
    """No backend is registered under the requested name."""


class GeneratorBackend(abc.ABC):
    """One generative architecture behind the common five-method seam.

    A backend object is stateless: it describes *how* to build, train,
    and (de)serialize models of one architecture.  The models themselves
    carry all fitted state.
    """

    #: Canonical registry name (also the archive tag in the serving
    #: registry manifest and the ``--backend`` CLI value).
    name: str = "backend"

    #: Extra names the backend answers to (e.g. ``dg``).
    aliases: tuple[str, ...] = ()

    #: The model type this backend builds, saves and restores.
    model_class: type = object

    #: Whether models train through the adversarial loop
    #: (:mod:`repro.core.adversarial`) and so honour every
    #: :class:`FitOptions` field: checkpoints, resume, the sentinel.
    adversarial: bool = False

    # -- construction ------------------------------------------------------
    @abc.abstractmethod
    def make_config(self, dataset_name: str, scale, seed: int | None = None,
                    **overrides) -> dict:
        """Bench-scale config for one dataset, as a fingerprintable dict.

        ``overrides`` that do not apply to this architecture are ignored
        (a sweep passes the same overrides to every backend).  ``seed``
        overrides the scale's training seed.
        """

    @abc.abstractmethod
    def from_config(self, schema: DataSchema, config: dict):
        """Instantiate an untrained model from a ``make_config`` dict."""

    def train_config(self, schema: DataSchema, *, iterations: int,
                     batch_size: int, hidden: int, seed: int,
                     **overrides) -> dict:
        """Config of a command-line or job training run: the bench-scale
        config with the run's iteration count, batch size, layer width
        and seed applied where the architecture has a matching knob
        (``overrides`` that do not apply are ignored)."""
        from repro.experiments.configs import BENCH

        width = (hidden, hidden)
        return self.make_config(
            "custom", BENCH, seed=seed, iterations=iterations,
            batch_size=batch_size, hidden=width, generator_hidden=width,
            discriminator_hidden=width, **overrides)

    # -- training and sampling ---------------------------------------------
    def fit(self, model, dataset: TimeSeriesDataset,
            options: FitOptions | None = None):
        """Train ``model`` on ``dataset``.

        Adversarial backends pass ``options`` to ``model.fit``; the others
        reject any non-default value.
        """
        if self.adversarial:
            return model.fit(dataset, options=options)
        if options is not None and options != FitOptions():
            raise ValueError(
                f"the {self.name} backend does not train adversarially, so "
                f"it supports no checkpoint, resume, sentinel or history "
                f"options")
        return model.fit(dataset)

    def generate(self, model, n: int,
                 rng: np.random.Generator | None = None,
                 workers: int = 1) -> TimeSeriesDataset:
        """Sample ``n`` objects; ``workers`` is advisory (ignored unless
        the architecture supports sharded generation)."""
        return model.generate(n, rng=rng)

    # -- persistence -------------------------------------------------------
    def save_bytes(self, model) -> bytes:
        """Serialize a fitted model to the one model archive format."""
        from repro.backends.archive import write_model
        return write_model(model, self.name)

    def load_bytes(self, blob: bytes):
        """Inverse of :meth:`save_bytes`; an archive of another backend
        raises :class:`ValueError` naming this one."""
        from repro.backends.archive import read_model
        return read_model(blob, expected=self)[0]

    def owns_model(self, model) -> bool:
        """Whether ``model`` is exactly this backend's model type
        (subclasses may carry state the archive does not cover)."""
        return type(model) is self.model_class

    def describe(self) -> str:
        """One-line human description (docs, CLI listings)."""
        return self.__doc__.strip().splitlines()[0] if self.__doc__ else ""


_REGISTRY: dict[str, GeneratorBackend] = {}
_CANONICAL: dict[str, GeneratorBackend] = {}


def register_backend(backend: GeneratorBackend) -> GeneratorBackend:
    """Register ``backend`` under its name and aliases.

    Re-registering the same name replaces the previous entry (so tests
    can install instrumented doubles); returns the backend for chaining.
    """
    _CANONICAL[backend.name] = backend
    for name in (backend.name, *backend.aliases):
        _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> GeneratorBackend:
    """Resolve a backend by canonical name or alias.

    Raises :class:`UnknownBackend` listing what is registered -- the
    message a user sees for a typo'd ``--backend`` or a registry archive
    tagged by a newer version of the code.
    """
    backend = _REGISTRY.get(str(name))
    if backend is None:
        known = ", ".join(sorted(_CANONICAL))
        raise UnknownBackend(
            f"no generator backend named {name!r} is registered "
            f"(available: {known})")
    return backend


def backend_names(include_aliases: bool = False) -> list[str]:
    """Registered backend names, sorted (canonical only by default)."""
    if include_aliases:
        return sorted(_REGISTRY)
    return sorted(_CANONICAL)


def backend_for_model(model) -> GeneratorBackend:
    """The backend whose model type ``model`` is an instance of.

    Raises :class:`UnknownBackend` when no registered backend claims it.
    """
    for backend in _CANONICAL.values():
        if backend.owns_model(model):
            return backend
    raise UnknownBackend(
        f"no registered backend owns models of type "
        f"{type(model).__name__!r} (available: "
        f"{', '.join(sorted(_CANONICAL))})")
