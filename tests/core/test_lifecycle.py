"""A fitted, generated-from GAN is freed by reference counting alone.

A model owns its trainer, step and generation plans, and their
preallocated arenas.  Anything in that web that points back at its owner
(a plan closing over a bound method of its model, a VJP closure over its
own output node) makes a discarded model a reference cycle, alive until
the next full garbage-collection pass.  With the collector off, ``del``
must free the model at once, and a collection afterwards must find no
tensor left behind.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.backends.dlgan import DLGAN, DLGANConfig
from repro.baselines.naive_gan import NaiveGANBaseline
from repro.core import DoppelGANger
from repro.nn import Tensor
from tests.conftest import tiny_dg_config

MODELS = {
    "doppelganger": lambda schema: DoppelGANger(
        schema, tiny_dg_config(iterations=3, seed=2)),
    "dlgan": lambda schema: DLGAN(schema, DLGANConfig(
        levels=4, noise_dim=6, refine_noise_dim=4, pattern_hidden=(16,),
        refine_hidden=(12,), discriminator_hidden=(16,), iterations=3,
        batch_size=8, seed=5)),
    "naive_gan": lambda schema: NaiveGANBaseline(
        noise_dim=8, generator_hidden=(16, 16),
        discriminator_hidden=(16, 16), iterations=3, batch_size=16,
        seed=3),
}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _cyclic_tensors() -> list:
    """Tensors (Parameters included) a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_is_freed_on_del(name, tiny_gcut, collector_off):
    model = MODELS[name](tiny_gcut.schema)
    model.fit(tiny_gcut)
    model.generate(20, rng=np.random.default_rng(0))
    alive = weakref.ref(model)
    del model
    # A bool, not the model: a failing assert must not keep it alive.
    freed = alive() is None
    assert freed, f"{name} survived del: it is in a reference cycle"
    assert _cyclic_tensors() == []
