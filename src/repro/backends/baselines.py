"""Thin :class:`GeneratorBackend` adapters over the §5.0.1 baselines.

Each baseline already implements ``fit``/``generate`` and the model
archive hooks (``archive_state``/``from_archive``), so an adapter only
names the class.
"""

from __future__ import annotations

from repro.backends.base import GeneratorBackend
from repro.baselines import (ARBaseline, HMMBaseline, NaiveGANBaseline,
                             RNNBaseline)
from repro.data.schema import DataSchema

__all__ = ["BaselineBackend", "BASELINE_BACKENDS"]

_CLASSES = {
    "hmm": HMMBaseline,
    "ar": ARBaseline,
    "rnn": RNNBaseline,
    "naive_gan": NaiveGANBaseline,
}


class BaselineBackend(GeneratorBackend):
    """Adapter exposing one baseline class behind the backend seam."""

    def __init__(self, name: str):
        if name not in _CLASSES:
            raise ValueError(f"unknown baseline {name!r}")
        self.name = name
        self.model_class = _CLASSES[name]
        self.adversarial = name == "naive_gan"

    def make_config(self, dataset_name: str, scale, seed: int | None = None,
                    **overrides) -> dict:
        """Constructor kwargs for the baseline at this scale.

        Sweep-wide ``overrides`` target DoppelGANger-style configs; only
        keys the baseline constructor actually accepts are applied here,
        the rest are ignored (matching the pre-backend harness
        behaviour, where baselines never saw config overrides).
        """
        from repro.experiments.configs import baseline_kwargs

        kwargs = baseline_kwargs(self.name, scale)
        kwargs.update({k: v for k, v in overrides.items() if k in kwargs})
        if seed is not None:
            kwargs["seed"] = seed
        return kwargs

    def from_config(self, schema: DataSchema, config: dict):
        # Baselines learn the schema at fit() time; construction only
        # needs the hyper-parameters.
        return self.model_class(**dict(config))


BASELINE_BACKENDS = tuple(BaselineBackend(name) for name in _CLASSES)
