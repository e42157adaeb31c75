"""Golden byte pins for ``DataEncoder.inverse``.

The tiny-gcut pins cover one layout of continuous features; these cover
the rest: ``log_transform`` fields (``expm1`` plus the clamp at 0),
declared, half-declared and absent bounds, ``minus_one_one`` targets,
auto-normalisation on and off, degenerate (zero-span) samples, and
categorical features between continuous ones.  Each pin is a sha256 of
the decoded arrays, taken from the per-feature decoder; any rewrite of
``inverse`` must reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DGConfig, DoppelGANger
from repro.data.dataset import TimeSeriesDataset
from repro.data.encoding import DataEncoder
from repro.data.schema import CategoricalSpec, ContinuousSpec, DataSchema

#: (auto_normalize, target_range) -> digest of ``inverse`` on fixed
#: encoded arrays.
INVERSE_SHAS = {
    (True, "zero_one"):
        "1b03a4f26caf6a08666478e7ca633c7921b1b0cbf1c26be980f3e126bbf3b3fb",
    (True, "minus_one_one"):
        "fd954b0fa0afb9f448f2e809020b6c50943858eb297c2478e16e1048c81bd0c6",
    (False, "zero_one"):
        "732af7e4afac045a58711cf06adaffdb30e20d1167f7bbf8f1c52d91f6f994e1",
    (False, "minus_one_one"):
        "d1350563faf8197ce08fdb69ed718dfe759936a9e09b4ca1d1d5c2f589559b2c",
}
#: (use_minmax_generator, target_range) -> digest of a tiny seeded fit's
#: ``generate(16)``.
GENERATE_SHAS = {
    (True, "minus_one_one"):
        "250378634d10dae0436f7c341b86b67d928b5614b5ba469fa938592e6c10f563",
    (False, "zero_one"):
        "056708bdce399b8116de1ae3c9f8f54db004b51a0956cdef8a97c9ee8ba388ce",
}


def mixed_schema(max_length: int = 8) -> DataSchema:
    return DataSchema(
        attributes=(CategoricalSpec("site", ("a", "b", "c")),
                    ContinuousSpec("size", low=0.0, high=10.0),
                    ContinuousSpec("volume", log_transform=True)),
        features=(ContinuousSpec("bytes", low=0.0, log_transform=True),
                  CategoricalSpec("state", ("up", "down", "idle", "gone")),
                  ContinuousSpec("load", high=5.0),
                  ContinuousSpec("delta", normalization="minus_one_one"),
                  CategoricalSpec("flag", ("off", "on")),
                  ContinuousSpec("ratio", low=-2.0, high=2.0),
                  ContinuousSpec("count", log_transform=True)),
        max_length=max_length)


def mixed_dataset(n: int = 40, max_length: int = 8) -> TimeSeriesDataset:
    schema = mixed_schema(max_length)
    rng = np.random.default_rng(21)
    attributes = np.column_stack([rng.integers(0, 3, n),
                                  rng.uniform(0.0, 10.0, n),
                                  rng.lognormal(2.0, 1.0, n)])
    features = np.zeros((n, max_length, 7))
    lengths = rng.integers(1, max_length + 1, n)
    for i, length in enumerate(lengths):
        features[i, :length, 0] = rng.lognormal(3.0, 2.0, length)
        features[i, :length, 1] = rng.integers(0, 4, length)
        features[i, :length, 2] = rng.uniform(-1.0, 5.0, length)
        features[i, :length, 3] = rng.normal(size=length)
        features[i, :length, 4] = rng.integers(0, 2, length)
        features[i, :length, 5] = rng.uniform(-2.0, 2.0, length)
        # Some series are constant: their per-sample span is zero.
        features[i, :length, 6] = (np.full(length, 7.0) if i % 4 == 0
                                   else rng.poisson(20.0, length))
    return TimeSeriesDataset(schema, attributes, features, lengths)


def _digest(dataset: TimeSeriesDataset) -> str:
    digest = hashlib.sha256()
    for array in (dataset.attributes, dataset.features, dataset.lengths):
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _encoded_inputs(encoder: DataEncoder, n: int = 24):
    """Encoded arrays that reach every branch of ``inverse``: values past
    both ends of the target range, half-ranges at and below zero (so the
    sample is degenerate), and end flags at every step."""
    rng = np.random.default_rng(8)
    tmax = encoder.schema.max_length
    attributes = rng.uniform(-1.5, 1.5, (n, encoder.attribute_dim))
    minmax = rng.uniform(-1.5, 1.5, (n, encoder.minmax_dim))
    minmax[::3, 1::2] = -1.0
    minmax[1::5, 1::2] = 0.0
    minmax[2::7, 1::2] = 1e-12
    features = rng.uniform(-1.5, 1.5, (n, tmax, encoder.feature_dim))
    return attributes, minmax, features


@pytest.mark.parametrize("auto_normalize, target_range", list(INVERSE_SHAS))
def test_inverse_is_pinned(auto_normalize, target_range):
    data = mixed_dataset()
    encoder = DataEncoder(data.schema, auto_normalize=auto_normalize,
                          target_range=target_range).fit(data)
    decoded = encoder.inverse(*_encoded_inputs(encoder))
    assert _digest(decoded) == INVERSE_SHAS[auto_normalize, target_range]


@pytest.mark.parametrize("minmax, target_range", list(GENERATE_SHAS))
def test_generation_on_mixed_schema_is_pinned(minmax, target_range):
    data = mixed_dataset()
    model = DoppelGANger(data.schema, DGConfig(
        sample_len=2, batch_size=8, iterations=4, attribute_hidden=(12,),
        minmax_hidden=(12,), feature_rnn_units=8, feature_mlp_hidden=(12,),
        discriminator_hidden=(16,), aux_discriminator_hidden=(16,),
        use_minmax_generator=minmax, target_range=target_range, seed=2))
    model.fit(data)
    synthetic = model.generate(16, rng=np.random.default_rng(4))
    assert _digest(synthetic) == GENERATE_SHAS[minmax, target_range]
