"""DoppelGANger as the reference :class:`GeneratorBackend`.

The model class itself (:class:`repro.core.doppelganger.DoppelGANger`)
already implements every capability the seam needs; this adapter only
maps the interface names and keeps the bench-scale config construction
(:func:`repro.experiments.configs.make_dg_config`) addressable by
backend name.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import FitOptions, GeneratorBackend
from repro.core.config import DGConfig
from repro.core.doppelganger import (DoppelGANger, config_from_dict,
                                     config_to_dict)
from repro.data.schema import DataSchema

__all__ = ["DoppelGANgerBackend"]


class DoppelGANgerBackend(GeneratorBackend):
    """The paper's architecture: decoupled attribute/min-max/feature
    generators with a batched RNN and WGAN-GP training (Figure 6)."""

    name = "doppelganger"
    aliases = ("dg",)
    model_class = DoppelGANger
    adversarial = True

    def make_config(self, dataset_name: str, scale, seed: int | None = None,
                    **overrides) -> dict:
        from repro.experiments.configs import make_dg_config

        if seed is not None:
            overrides = {**overrides, "seed": seed}
        return config_to_dict(make_dg_config(dataset_name, scale,
                                             **overrides))

    def train_config(self, schema: DataSchema, *, iterations: int,
                     batch_size: int, hidden: int, seed: int,
                     sample_len: int | None = None, **overrides) -> dict:
        """Every layer ``hidden`` wide (the LSTM 3/4 of that), and ``S``
        chosen for ~25 RNN passes unless ``sample_len`` is given."""
        sample_len = sample_len or DGConfig.recommended_sample_len(
            schema.max_length, target_passes=25)
        width = (hidden, hidden)
        return config_to_dict(DGConfig(
            sample_len=sample_len, attribute_hidden=width,
            minmax_hidden=width, feature_rnn_units=max(hidden * 3 // 4, 8),
            feature_mlp_hidden=(hidden,), discriminator_hidden=width,
            aux_discriminator_hidden=width, batch_size=batch_size,
            iterations=iterations, seed=seed, **overrides))

    def fit(self, model: DoppelGANger, dataset,
            options: FitOptions | None = None):
        options = options or FitOptions()
        return model.fit(dataset, train_state_path=options.checkpoint_path,
                         checkpoint_every=options.checkpoint_every,
                         resume_from=options.resume_from,
                         sentinel=options.sentinel,
                         history_window=options.history_window)

    def from_config(self, schema: DataSchema, config) -> DoppelGANger:
        if not isinstance(config, DGConfig):
            config = config_from_dict(dict(config))
        return DoppelGANger(schema, config)

    def generate(self, model: DoppelGANger, n: int,
                 rng: np.random.Generator | None = None,
                 workers: int = 1):
        return model.generate(n, rng=rng, workers=workers)
