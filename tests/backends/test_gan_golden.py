"""Golden byte pins for the GAN training loops outside ``DGTrainer``.

A tiny seeded ``DLGAN.fit``, ``NaiveGANBaseline.fit`` and
``DoppelGANger.retrain_attribute_generator`` must keep producing exactly
these parameters and loss traces.  The pins were taken from the
hand-written eager loops; any rewrite of those loops (shared loop, plan
replay) must reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends.dlgan import DLGAN, DLGANConfig
from repro.baselines.naive_gan import NaiveGANBaseline
from repro.core import DoppelGANger
from repro.experiments.configs import TINY, make_dataset
from tests.conftest import tiny_dg_config


def _digest(modules: dict, *traces) -> str:
    digest = hashlib.sha256()
    for name in sorted(modules):
        for key, value in sorted(modules[name].state_dict().items()):
            digest.update(f"{name}::{key}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    for trace in traces:
        digest.update(np.asarray(trace, dtype=np.float64).tobytes())
    return digest.hexdigest()


DLGAN_SHA = ("5644ec5e434f619d70be8709437fa260"
             "d54889c34f0515f5eb7c4f2e16889525")
NAIVE_GAN_SHA = ("867ddd0d8ebdb77f3e3e9544754268863"
                 "093d4d7fd0cede99da24c63c1a449a7")
RETRAIN_SHAS = {
    True: "2285f509303be4dff12daf525867c932d0a7349b739bb84422c3bd70b8d7748a",
    False: "530b3974500d1c34c5e481a75da5a2b9a22bc9c643dbed74cdf1348dcdca6737",
}


@pytest.fixture(scope="module")
def regime_data():
    return make_dataset("regime", TINY, seed=9)


def test_dlgan_fit_is_pinned(regime_data):
    model = DLGAN(regime_data.schema, DLGANConfig(
        levels=4, noise_dim=6, refine_noise_dim=4, pattern_hidden=(16,),
        refine_hidden=(12,), discriminator_hidden=(16,), iterations=6,
        batch_size=8, seed=5))
    model.fit(regime_data)
    assert len(model.loss_history["pattern"]) == 6
    assert len(model.loss_history["refine"]) == 6
    assert _digest(model._named_modules(), model.loss_history["pattern"],
                   model.loss_history["refine"]) == DLGAN_SHA


def test_naive_gan_fit_is_pinned(tiny_gcut):
    model = NaiveGANBaseline(noise_dim=8, generator_hidden=(16, 16),
                             discriminator_hidden=(16, 16), iterations=8,
                             batch_size=16, seed=3)
    model.fit(tiny_gcut)
    assert len(model.loss_history) == 8
    assert _digest(model._modules(), model.loss_history) == NAIVE_GAN_SHA


@pytest.mark.parametrize("aux", [True, False])
def test_retrain_attribute_generator_is_pinned(tiny_gcut, aux):
    model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(
        iterations=2, seed=4, use_auxiliary_discriminator=aux))
    model.fit(tiny_gcut)
    target = np.tile([[0.0], [2.0], [2.0]], (20, 1))
    losses = model.retrain_attribute_generator(
        target, iterations=7, rng=np.random.default_rng(6))
    assert len(losses) == 7
    modules = {"attribute_generator": model.attribute_generator,
               "discriminator": model.discriminator}
    if aux:
        modules["aux_discriminator"] = model.aux_discriminator
    assert _digest(modules, losses) == RETRAIN_SHAS[aux]
