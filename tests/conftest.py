"""Shared fixtures: RNGs, tiny datasets, and a tiny trained DoppelGANger.

Everything here is sized for seconds-scale test runs; benchmark-scale
training lives in benchmarks/.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DGConfig, DoppelGANger
from repro.data.simulators import generate_gcut, generate_mba, generate_wwt


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_wwt():
    return generate_wwt(60, np.random.default_rng(1), length=28,
                        long_period=14)


@pytest.fixture(scope="session")
def tiny_mba():
    return generate_mba(60, np.random.default_rng(2), length=16)


@pytest.fixture(scope="session")
def tiny_gcut():
    return generate_gcut(80, np.random.default_rng(3), max_length=16)


def tiny_dg_config(**overrides) -> DGConfig:
    defaults = dict(
        sample_len=4, batch_size=16, iterations=40,
        attribute_hidden=(24, 24), minmax_hidden=(24, 24),
        feature_rnn_units=24, feature_mlp_hidden=(24,),
        discriminator_hidden=(32, 32), aux_discriminator_hidden=(32, 32),
        seed=7,
    )
    defaults.update(overrides)
    return DGConfig(**defaults)


@pytest.fixture(scope="session")
def trained_dg_gcut(tiny_gcut):
    """A DoppelGANger trained briefly on the tiny GCUT set (shared)."""
    model = DoppelGANger(tiny_gcut.schema, tiny_dg_config())
    model.fit(tiny_gcut)
    return model
