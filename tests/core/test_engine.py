"""The engine on perfbench's ``train-wwt`` config, eager and compiled.

WWT at length 224 (32 LSTM passes at ``sample_len`` 7), 96 objects,
batch 32, 48 LSTM units: long enough that the recurrent scan dominates a
training step.  Each mode trains a fresh seeded model for one warm
iteration (which traces the plans in compiled mode), profiles one
steady-state iteration, then trains a few more:

- ``fused``: the fused kernels on the eager tape (``plan_mode(False)``);
- ``compiled``: the same kernels replayed from traced plans.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.experiments.configs import BENCH, make_dataset, make_dg_config
from repro.nn import profiler
from repro.nn.plan import plan_mode

SCALE = dataclasses.replace(BENCH, wwt_length=224)
STEPS = 3


def _iteration(trainer, encoded) -> None:
    for _ in range(trainer.config.discriminator_steps):
        trainer.discriminator_step(encoded)
    trainer.generator_step()


def _params_sha(trainer) -> str:
    digest = hashlib.sha256()
    for p in trainer.generator_params + trainer.discriminator_params:
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def _run(compiled: bool, steps: int) -> dict:
    data = make_dataset("wwt", SCALE, n=96)
    config = make_dg_config("wwt", SCALE, iterations=1)
    with plan_mode(compiled):
        model = DoppelGANger(data.schema, config)
        model.fit(data)  # the warm iteration
        encoded = model.encoder.transform(data)
        with profiler.profile() as prof:
            _iteration(model.trainer, encoded)
        for _ in range(steps):
            _iteration(model.trainer, encoded)
    plans = {attr: model.trainer.__dict__.get(attr)
             for attr in ("_d_plan", "_g_plan", "_w_plan")}
    return {"ops": prof.total_calls(), "allocs": prof.total_allocs(),
            "sha": _params_sha(model.trainer),
            "arena_bytes": {attr.strip("_"): plan.arena_bytes()
                            for attr, plan in plans.items()
                            if plan is not None}}


@pytest.fixture(scope="module")
def runs():
    return {"fused": _run(False, STEPS), "compiled": _run(True, STEPS)}


def test_compiled_training_is_byte_identical_to_eager(runs):
    assert runs["compiled"]["sha"] == runs["fused"]["sha"]


def test_compiled_step_allocates_nothing(runs):
    assert runs["compiled"]["allocs"] == 0
    assert runs["fused"]["allocs"] > 0  # the profiler does count them


def test_step_op_and_alloc_counts_are_pinned(runs):
    """Per-iteration engine ops and allocations; equal on every host and
    BLAS thread count.  The op-composed layers recorded 11596 ops and
    9035 allocations for the same iteration."""
    assert (runs["fused"]["ops"], runs["fused"]["allocs"]) == (664, 508)
    assert (runs["compiled"]["ops"], runs["compiled"]["allocs"]) == (564, 0)


def test_plan_arena_bytes_are_pinned(runs):
    """Bytes each compiled step plan preallocates: pooled buffers (slot
    outputs and LSTM kernel scratch alike) and constant snapshots.
    Before buffer planning each traced slot had a buffer of its own:
    14162464 (d), 18762888 (g) and 557616 (w) bytes."""
    assert runs["compiled"]["arena_bytes"] == {
        "d_plan": 4327696, "g_plan": 7625624, "w_plan": 385320}
