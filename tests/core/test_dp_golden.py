"""Golden byte pins for DP-SGD training (§5.3.1).

A tiny seeded DoppelGANger fit with per-microbatch clipping and noise on
the critic updates must keep producing exactly these parameters and loss
traces: one microbatch per example, and a microbatch size that leaves a
ragged last microbatch (16 = 3 * 5 + 1).  Any rewrite of the DP critic
step (compiled microbatches, flat gradient buffers) must reproduce them
bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.core.config import DPTrainingConfig
from tests.conftest import tiny_dg_config


def _digest(model: DoppelGANger) -> str:
    digest = hashlib.sha256()
    modules = model.trainer.modules
    for name in sorted(modules):
        for key, value in sorted(modules[name].state_dict().items()):
            digest.update(f"{name}::{key}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    history = model.history
    for trace in (history.d_loss, history.g_loss, history.wasserstein):
        digest.update(np.asarray(trace, dtype=np.float64).tobytes())
    return digest.hexdigest()


DP_SHAS = {
    1: "275ace3a6207facc618b7938d8a41a3bb7fba67013d4238f30f2211a464d1cef",
    3: "af0c725b7116b21bbdaa61737a0ba3d384012a31bb06292a9c4abcc86339001c",
}


@pytest.mark.parametrize("microbatch_size", sorted(DP_SHAS))
def test_dp_fit_is_pinned(tiny_gcut, microbatch_size):
    config = tiny_dg_config(iterations=3, batch_size=16, seed=11)
    config.dp = DPTrainingConfig(l2_norm_clip=0.8, noise_multiplier=1.1,
                                 microbatch_size=microbatch_size)
    model = DoppelGANger(tiny_gcut.schema, config)
    model.fit(tiny_gcut, log_every=1)
    assert len(model.history.d_loss) == 3
    assert _digest(model) == DP_SHAS[microbatch_size]
