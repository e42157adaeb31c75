"""Compiled plan programs shared across models of one architecture.

A keyed :class:`~repro.nn.plan.PlanFunction` looks its program up in a
process-wide cache before tracing, so a second model of one architecture
only binds fresh buffers to the first one's program.  These tests pin
what makes that safe: independently traced programs of one key are
equal, anything that changes the schedule changes the key, a warm fit is
byte-identical to a cold one, bindings of one program run concurrently,
and the cache keeps no model alive.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import weakref

import numpy as np
import pytest

from repro.backends.dlgan import DLGAN, DLGANConfig
from repro.baselines.naive_gan import NaiveGANBaseline
from repro.core import DoppelGANger
from repro.data.dataset import TimeSeriesDataset
from repro.data.schema import CategoricalSpec, ContinuousSpec, DataSchema
from repro.data.simulators import generate_gcut, generate_mba, generate_wwt
from repro.downstream.classifiers import MLPClassifier
from repro.downstream.regressors import MLPRegressor
from repro.experiments.configs import TINY, make_dataset
from repro.nn import Tensor
from repro.nn import plan as plan_module
from repro.nn.plan import PlanFunction, clear_program_cache
from tests.conftest import tiny_dg_config


class _RecordingProgram(plan_module._Program):
    """A program that keeps its trace records, for :func:`fingerprint`."""

    __slots__ = ("steps",)

    def __init__(self, builder):
        super().__init__(builder)
        self.steps = builder.steps


@pytest.fixture(autouse=True)
def _cold_cache(monkeypatch):
    monkeypatch.setattr(plan_module, "_Program", _RecordingProgram)
    clear_program_cache()
    yield
    clear_program_cache()


def _feed(digest, value) -> None:
    """Hash ``value`` exactly: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        digest.update(f"array{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(f"{type(value).__name__}{len(value)}(".encode())
        for item in value:
            _feed(digest, item)
        digest.update(b")")
    elif isinstance(value, dict):
        digest.update(f"dict{len(value)}(".encode())
        for key in sorted(value, key=repr):
            _feed(digest, key)
            _feed(digest, value[key])
        digest.update(b")")
    else:
        digest.update(f"{type(value).__name__}:{value!r};".encode())


def fingerprint(program) -> str:
    """Step names, operands, static arguments, constant bytes and arena
    layout of a program."""
    digest = hashlib.sha256()
    for step in program.steps:
        _feed(digest, (step.name, step.in_refs, step.in_meta, step.static,
                       step.out_slots, step.out_meta))
    _feed(digest, (program.consts, program.flats, program.views,
                   program.workspaces, program.input_slots,
                   program.param_slots, program.out_refs,
                   program.arena_bytes))
    return digest.hexdigest()


def cached_programs() -> dict:
    """Cache key -> fingerprint of every cached program."""
    return {key: fingerprint(program)
            for key, program in plan_module._PROGRAMS.items()}


def _wide_dataset(width: int, seed: int, n: int = 24,
                  max_length: int = 6) -> TimeSeriesDataset:
    schema = DataSchema(
        attributes=(CategoricalSpec("site", tuple(
            f"s{i}" for i in range(width))), ContinuousSpec("weight")),
        features=(ContinuousSpec("load"),), max_length=max_length)
    rng = np.random.default_rng(seed)
    attributes = np.column_stack([rng.integers(0, width, n),
                                  rng.gamma(2.0, 3.0, n)])
    lengths = rng.integers(2, max_length + 1, n)
    features = np.zeros((n, max_length, 1))
    for i, length in enumerate(lengths):
        features[i, :length, 0] = rng.uniform(0.0, 5.0, length)
    return TimeSeriesDataset(schema, attributes, features, lengths)


_SIMULATORS = {
    "gcut": lambda rng: generate_gcut(40, rng, max_length=12),
    "wwt": lambda rng: generate_wwt(40, rng, length=16, long_period=8),
    "mba": lambda rng: generate_mba(40, rng, length=12),
}


def _dg_release(data, seed: int, **overrides) -> DoppelGANger:
    """A tiny DoppelGANger fit, a generation and an attribute retraining."""
    model = DoppelGANger(data.schema, tiny_dg_config(
        iterations=2, seed=seed, **overrides))
    model.fit(data)
    model.generate(20, rng=np.random.default_rng(seed))
    model.retrain_attribute_generator(
        data.attributes[: len(data) // 2], iterations=2,
        rng=np.random.default_rng(seed))
    return model


def _dlgan(data, seed: int) -> DLGAN:
    model = DLGAN(data.schema, DLGANConfig(
        levels=4, noise_dim=6, refine_noise_dim=4, pattern_hidden=(16,),
        refine_hidden=(12,), discriminator_hidden=(16,), iterations=3,
        batch_size=8, seed=seed))
    return model.fit(data)


def _naive(data, seed: int) -> NaiveGANBaseline:
    return NaiveGANBaseline(
        noise_dim=8, generator_hidden=(16, 16),
        discriminator_hidden=(16, 16), iterations=3, batch_size=16,
        seed=seed).fit(data)


def _downstream(data, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 5))
    MLPClassifier(hidden=(8,), iterations=4, batch_size=16,
                  seed=seed).fit(x, (x[:, 0] > 0).astype(int))
    MLPRegressor(hidden=(8,), iterations=4, batch_size=16,
                 seed=seed).fit(x, x[:, :2])


def _regime(seed: int):
    return make_dataset("regime", TINY, seed=seed)


# (dataset factory taking a seed, trainer taking (data, seed))
_ARCHITECTURES = {
    **{f"dg-{name}": (
        (lambda make: lambda seed: make(np.random.default_rng(seed)))(make),
        _dg_release) for name, make in _SIMULATORS.items()},
    "dlgan": (_regime, _dlgan),
    "naive_gan": (
        lambda seed: generate_gcut(40, np.random.default_rng(seed),
                                   max_length=12), _naive),
    "downstream_mlp": (lambda seed: None, _downstream),
}


class TestVerification:
    """(a) Two independently traced models of one key give equal
    programs."""

    @pytest.mark.parametrize("arch", sorted(_ARCHITECTURES))
    def test_independent_traces_are_equal(self, arch):
        make_data, train = _ARCHITECTURES[arch]
        data_a, data_b = make_data(1), make_data(2)
        if data_a is not None:
            assert data_a.schema == data_b.schema
        train(data_a, 1)
        first = cached_programs()
        assert first
        clear_program_cache()
        train(data_b, 2)
        assert cached_programs() == first

    def test_a_warm_model_records_no_trace(self, tiny_gcut):
        first = _dg_release(tiny_gcut, 1)
        cached = dict(plan_module._PROGRAMS)
        second = _dg_release(tiny_gcut, 2)
        for model in (first, second):
            plans = {name: plan
                     for owner in (model, model.trainer)
                     for name, plan in vars(owner).items()
                     if isinstance(plan, PlanFunction)}
            assert {"_d_plan", "_g_plan", "_w_plan",
                    "_gen_plan_uncond"} <= set(plans)
            traces = {name: plan.stats["traces"]
                      for name, plan in plans.items()}
            if model is second:
                assert set(traces.values()) == {0}, traces
            for plan in plans.values():
                program = plan._latest_binding().program
                assert program in cached.values()
        assert plan_module._PROGRAMS.keys() == cached.keys()


def _keys_of(run) -> set:
    clear_program_cache()
    run()
    return set(plan_module._PROGRAMS)


def _plan_keys(model) -> set:
    """The program key of every signature a model's plans have seen,
    including signatures that fell back to eager."""
    keys = set()
    for owner in (model, model.trainer):
        for plan in vars(owner).values():
            if isinstance(plan, PlanFunction):
                for signature in plan._plans:
                    keys.add(plan.program_key(
                        [np.empty(shape, dtype) for shape, dtype
                         in signature]))
    return keys


class TestMutation:
    """(b) Whatever changes the recorded schedule changes the key."""

    @staticmethod
    def _fit(data, **overrides) -> set:
        model = DoppelGANger(data.schema, tiny_dg_config(
            **{"iterations": 1, **overrides}))
        model.fit(data)
        model.generate(5, rng=np.random.default_rng(0))
        return _plan_keys(model)

    @pytest.mark.parametrize("override", [
        {"generator_logit_bound": 4.0},
        {"use_minmax_generator": False},
        {"loss_type": "vanilla"},
    ])
    def test_config_change_gives_new_keys(self, tiny_gcut, override):
        base = self._fit(tiny_gcut)
        changed = self._fit(tiny_gcut, **override)
        assert len(base) == len(changed) == 4
        assert not base & changed

    def test_seed_and_iterations_keep_keys(self, tiny_gcut):
        assert self._fit(tiny_gcut, seed=1) == \
            self._fit(tiny_gcut, seed=2, iterations=3)

    def test_categorical_width_gives_new_keys(self):
        def fit(width):
            return self._fit(_wide_dataset(width, seed=0), batch_size=8,
                             sample_len=2)
        narrow, wide = fit(3), fit(4)
        assert len(narrow) == len(wide) == 4
        assert not narrow & wide

    def test_downstream_loss_gives_new_keys(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        onehot = np.eye(2)[(x[:, 0] > 0).astype(int)]
        classifier = _keys_of(lambda: MLPClassifier(
            hidden=(8,), iterations=2, batch_size=16).fit(
                x, (x[:, 0] > 0).astype(int)))
        regressor = _keys_of(lambda: MLPRegressor(
            hidden=(8,), iterations=2, batch_size=16).fit(x, onehot))
        assert classifier and regressor and not classifier & regressor

    def test_copy_outputs_gives_a_new_key(self):
        def fn(x):
            return (Tensor(x) * 2.0,)
        inputs = (np.ones((2, 3)),)
        keys = {PlanFunction(fn, key="k", copy_outputs=copy)
                .program_key(inputs) for copy in (False, True)}
        assert len(keys) == 2
        assert PlanFunction(fn).program_key(inputs) is None


def _dg_bytes(model: DoppelGANger) -> bytes:
    trainer = model.trainer
    parts = [np.ascontiguousarray(p.data).tobytes()
             for p in trainer.generator_params + trainer.discriminator_params]
    history = model.history
    parts += [np.asarray(trace, dtype=np.float64).tobytes()
              for trace in (history.d_loss, history.g_loss,
                            history.wasserstein)]
    synthetic = model.generate(30, rng=np.random.default_rng(5))
    parts += [np.ascontiguousarray(a).tobytes()
              for a in (synthetic.attributes, synthetic.features,
                        synthetic.lengths)]
    return b"".join(parts)


class TestColdVersusWarm:
    """(c) A model fitted right after another of its architecture is
    byte-identical to one fitted in a fresh cache."""

    def test_doppelganger(self, tiny_gcut):
        def fit(seed):
            model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(
                iterations=6, seed=seed))
            model.fit(tiny_gcut, log_every=1)
            return model
        cold = _dg_bytes(fit(8))
        clear_program_cache()
        fit(7)
        warm_model = fit(8)
        assert warm_model.trainer._d_plan.stats["traces"] == 0
        assert _dg_bytes(warm_model) == cold

    def test_downstream_mlp(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 4))
        y = (x[:, 1] > 0).astype(int)

        def params(seed):
            net = MLPClassifier(hidden=(8, 8), iterations=6, batch_size=16,
                                seed=seed).fit(x, y)._net
            return b"".join(p.data.tobytes() for p in net.parameters())
        cold = params(3)
        clear_program_cache()
        params(2)
        assert params(3) == cold


class TestThreads:
    """(d) Two bindings of one program replay concurrently."""

    def test_concurrent_generation_equals_serial(self, tiny_gcut):
        models = []
        for seed in (1, 2):
            model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(
                iterations=2, seed=seed))
            model.fit(tiny_gcut)
            models.append(model)

        def sample(model, i):
            s = model.generate(40, rng=np.random.default_rng(i))
            return s.attributes.tobytes() + s.features.tobytes()

        serial = [[sample(m, i) for i in range(6)] for m in models]
        programs = [m._gen_plan_uncond._latest_binding().program
                    for m in models]
        assert programs[0] is programs[1]
        results = [None, None]
        barrier = threading.Barrier(2)

        def worker(index):
            barrier.wait()
            results[index] = [sample(models[index], i) for i in range(6)]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == serial


class TestNoLeak:
    """(e) The cache holds programs only: no model, no buffers."""

    def test_model_dies_while_its_programs_stay(self, tiny_gcut):
        model = DoppelGANger(tiny_gcut.schema, tiny_dg_config(iterations=2))
        model.fit(tiny_gcut)
        model.generate(10, rng=np.random.default_rng(0))
        ref = weakref.ref(model)
        trainer_ref = weakref.ref(model.trainer)
        keys = set(plan_module._PROGRAMS)
        del model
        gc.collect()
        assert ref() is None and trainer_ref() is None
        assert set(plan_module._PROGRAMS) == keys and keys

    def test_cache_stays_within_its_bound(self):
        def fn(x):
            return (Tensor(x) + 1.0,)
        inputs = (np.zeros(3),)
        for i in range(plan_module.MAX_PROGRAMS + 5):
            PlanFunction(fn, key=("bound", i))(inputs)
        assert len(plan_module._PROGRAMS) == plan_module.MAX_PROGRAMS
        # Least recently used first out.
        assert ("bound", 0) not in {k[0] for k in plan_module._PROGRAMS}
