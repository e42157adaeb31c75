"""The tiny-gcut DoppelGANger the serving and fleet smokes train.

Import it from a script in this directory (``python benchmarks/<smoke>.py``
puts the directory on ``sys.path``)::

    from tiny_model import train_tiny_model
"""

from __future__ import annotations

import numpy as np

from repro.core import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut

__all__ = ["train_tiny_model"]


def train_tiny_model(seed: int = 7) -> DoppelGANger:
    """Train the benchmark model: TINY-scale DoppelGANger on GCUT."""
    data = generate_gcut(80, np.random.default_rng(3), max_length=16)
    config = DGConfig(
        sample_len=4, batch_size=16, iterations=40,
        attribute_hidden=(24, 24), minmax_hidden=(24, 24),
        feature_rnn_units=24, feature_mlp_hidden=(24,),
        discriminator_hidden=(32, 32), aux_discriminator_hidden=(32, 32),
        seed=seed,
    )
    model = DoppelGANger(data.schema, config)
    model.fit(data)
    return model
