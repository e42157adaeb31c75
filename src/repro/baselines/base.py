"""Shared interface for all generative models (§5.0.1 baselines).

Every baseline follows the paper's recipe for attributes: they are drawn
from the empirical (multinomial) distribution of the training data, jointly
across attribute fields, independent of the generated time series.  Each
baseline then generates features (and generation flags, §4.1.1) its own way.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.dataset import TimeSeriesDataset
from repro.data.encoding import DataEncoder
from repro.data.schema import DataSchema

__all__ = ["GenerativeModel", "EmpiricalAttributeSampler"]


class GenerativeModel(abc.ABC):
    """Common fit/generate interface shared with DoppelGANger.

    Also the baselines' side of the model archive
    (:mod:`repro.backends.archive`): :meth:`archive_state` and
    :meth:`from_archive` are shared, and each subclass supplies
    :meth:`_config` (its full constructor kwargs), :meth:`_modules`,
    :meth:`_arrays` and :meth:`_restore`.  A baseline with an
    ``attribute_sampler`` stores its rows as ``sampler::rows``: these
    archives carry raw training attributes (the §5.0.1 caveat), which the
    archive records as ``leaks_training_attributes``.
    """

    name: str = "model"

    @abc.abstractmethod
    def fit(self, dataset: TimeSeriesDataset):
        """Train on a raw dataset."""

    @abc.abstractmethod
    def generate(self, n: int,
                 rng: np.random.Generator | None = None) -> TimeSeriesDataset:
        """Sample ``n`` synthetic objects."""

    # -- model archive -----------------------------------------------------
    def archive_state(self) -> tuple[dict, dict, dict]:
        """(config, named modules, extra arrays) for the model archive."""
        if self.encoder is None:
            raise RuntimeError("model must be fitted before saving")
        arrays = {}
        if hasattr(self, "attribute_sampler"):
            arrays["sampler::rows"] = self.attribute_sampler._rows
        arrays.update(self._arrays())
        return self._config(), self._modules(), arrays

    @classmethod
    def from_archive(cls, schema: DataSchema, config: dict,
                     encoder_state: dict, arrays: dict) -> "GenerativeModel":
        """An unloaded model rebuilt from archive metadata and arrays."""
        model = cls(**{key: tuple(value) if isinstance(value, list)
                       else value for key, value in config.items()})
        model.schema = schema
        model.encoder = make_baseline_encoder(schema).load_state(
            encoder_state)
        if hasattr(model, "attribute_sampler"):
            model.attribute_sampler._rows = arrays["sampler::rows"]
        model._restore(arrays)
        return model

    @abc.abstractmethod
    def _config(self) -> dict:
        """Full constructor kwargs, JSON-serializable."""

    def _modules(self) -> dict:
        """Named modules whose parameters the archive stores."""
        return {}

    def _arrays(self) -> dict:
        """Named fitted arrays outside modules (beyond the sampler)."""
        return {}

    @abc.abstractmethod
    def _restore(self, arrays: dict) -> None:
        """Set fitted arrays and build (unloaded) modules on a model whose
        schema and encoder were just restored."""


class EmpiricalAttributeSampler:
    """Bootstrap sampler over training attribute rows.

    Sampling full rows preserves the *joint* attribute distribution, which
    is why the paper notes these baselines "trivially learn a perfect
    attribute distribution".
    """

    def __init__(self):
        self._rows: np.ndarray | None = None

    def fit(self, dataset: TimeSeriesDataset) -> "EmpiricalAttributeSampler":
        self._rows = dataset.attributes.copy()
        return self

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self._rows is None:
            raise RuntimeError("sampler not fitted")
        idx = rng.integers(0, len(self._rows), size=n)
        return self._rows[idx]


def make_baseline_encoder(schema: DataSchema) -> DataEncoder:
    """Encoder used by baselines: global normalisation, no min/max trick."""
    return DataEncoder(schema, auto_normalize=False, target_range="zero_one")
