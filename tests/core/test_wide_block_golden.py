"""Golden byte pins for DoppelGANger on wide softmax output blocks.

The feature generator emits ``sample_len`` records per pass, so every
categorical feature contributes ``sample_len`` softmax blocks of its
width to one activation.  A softmax over 8 or more columns reduces with
numpy's pairwise summation, whose grouping depends on the array layout,
so how those blocks are sliced, gathered and reduced is visible in the
last bits of every output and gradient.  The schema below has 9- and
12-wide categorical features (and two 9-wide attributes) at
``sample_len`` 2; a tiny seeded fit plus ``generate`` must keep these
bytes with the logit bound on and off.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DGConfig, DoppelGANger
from repro.data.dataset import TimeSeriesDataset
from repro.data.schema import CategoricalSpec, ContinuousSpec, DataSchema

#: (logit bound, target range) -> digest of parameters, loss traces and
#: a generated sample.
SHAS = {
    (None, "zero_one"):
        "bb182fd9371cefd47068b95d0e779b0e4576a455572a0c5dbd2acca84691b0fd",
    (4.0, "minus_one_one"):
        "28fc715d4847aef608d916e17a2c5af3365429689b7efffcfd0f185a7c9dbb00",
}


def _categorical(name: str, width: int) -> CategoricalSpec:
    return CategoricalSpec(name, tuple(f"{name}{i}" for i in range(width)))


def wide_dataset(n: int = 40, max_length: int = 8) -> TimeSeriesDataset:
    schema = DataSchema(
        attributes=(_categorical("site", 9), _categorical("zone", 9),
                    ContinuousSpec("weight")),
        features=(_categorical("state", 9), ContinuousSpec("load"),
                  _categorical("mode", 12),
                  ContinuousSpec("delta", normalization="minus_one_one")),
        max_length=max_length)
    rng = np.random.default_rng(11)
    attributes = np.column_stack([rng.integers(0, 9, n),
                                  rng.integers(0, 9, n),
                                  rng.gamma(2.0, 3.0, n)])
    features = np.zeros((n, max_length, 4))
    lengths = rng.integers(2, max_length + 1, n)
    for i, length in enumerate(lengths):
        features[i, :length, 0] = rng.integers(0, 9, length)
        features[i, :length, 1] = rng.uniform(0.0, 5.0, length)
        features[i, :length, 2] = rng.integers(0, 12, length)
        features[i, :length, 3] = rng.normal(size=length)
    return TimeSeriesDataset(schema, attributes, features, lengths)


def _digest(model: DoppelGANger, synthetic) -> str:
    digest = hashlib.sha256()
    trainer = model.trainer
    for p in trainer.generator_params + trainer.discriminator_params:
        digest.update(np.ascontiguousarray(p.data).tobytes())
    history = model.history
    for trace in (history.d_loss, history.g_loss, history.wasserstein):
        digest.update(np.asarray(trace, dtype=np.float64).tobytes())
    for array in (synthetic.attributes, synthetic.features,
                  synthetic.lengths):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("bound, target_range", list(SHAS))
def test_wide_softmax_fit_and_generate_are_pinned(bound, target_range):
    data = wide_dataset()
    model = DoppelGANger(data.schema, DGConfig(
        sample_len=2, batch_size=8, iterations=6, attribute_hidden=(16,),
        minmax_hidden=(16,), feature_rnn_units=12, feature_mlp_hidden=(16,),
        discriminator_hidden=(24, 24), aux_discriminator_hidden=(24,),
        generator_logit_bound=bound, target_range=target_range, seed=5))
    model.fit(data, log_every=1)
    assert len(model.history.d_loss) == 6
    step_kinds = [(b.kind, b.dimension)
                  for b in model.feature_generator.activation.blocks]
    assert step_kinds.count(("softmax", 9)) == 2
    assert step_kinds.count(("softmax", 12)) == 2
    synthetic = model.generate(12, rng=np.random.default_rng(3))
    assert _digest(model, synthetic) == SHAS[bound, target_range]
