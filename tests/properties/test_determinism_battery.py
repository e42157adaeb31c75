"""The PR-4 determinism battery.

Three guarantees, each enforced byte-for-byte:

1. Two runs with the same config+seed produce byte-identical canonical
   event logs and metric dumps.
2. Telemetry is inert: parameters trained with telemetry on are
   bit-identical to parameters trained with it off.
3. A serial sweep and a 2-worker sweep merge to the same ordered log.
"""

import filecmp

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.experiments.configs import TINY
from repro.experiments.harness import clear_cache, run_sweep
from repro.observability import TelemetryRun
from tests.conftest import tiny_dg_config


@pytest.fixture(autouse=True)
def fresh_harness():
    clear_cache()
    yield
    clear_cache()


def _fit_with_telemetry(dataset, out):
    model = DoppelGANger(dataset.schema, tiny_dg_config(iterations=4))
    with TelemetryRun(out, run_id="train") as run:
        model.fit(dataset, log_every=1)
    run.finalize()
    return model


def _params(model):
    return [p.data for p in (model.trainer.generator_params
                             + model.trainer.discriminator_params)]


class TestTrainingDeterminism:
    def test_same_config_seed_gives_byte_identical_exports(
            self, tiny_gcut, tmp_path):
        _fit_with_telemetry(tiny_gcut, tmp_path / "a")
        _fit_with_telemetry(tiny_gcut, tmp_path / "b")
        for name in ("events.jsonl", "metrics.json", "report.md"):
            assert filecmp.cmp(tmp_path / "a" / name,
                               tmp_path / "b" / name,
                               shallow=False), f"{name} differs"

    def test_telemetry_is_inert(self, tiny_gcut, tmp_path):
        plain = DoppelGANger(tiny_gcut.schema,
                             tiny_dg_config(iterations=4))
        plain.fit(tiny_gcut, log_every=1)
        observed = _fit_with_telemetry(tiny_gcut, tmp_path / "t")
        for pa, pb in zip(_params(plain), _params(observed)):
            assert np.array_equal(pa, pb)

    def test_different_seed_changes_the_log(self, tiny_gcut, tmp_path):
        """The determinism above is not vacuous: the canonical log does
        depend on the training trajectory."""
        _fit_with_telemetry(tiny_gcut, tmp_path / "a")
        model = DoppelGANger(tiny_gcut.schema,
                             tiny_dg_config(iterations=4, seed=99))
        with TelemetryRun(tmp_path / "b", run_id="train") as run:
            model.fit(tiny_gcut, log_every=1)
        run.finalize()
        assert not filecmp.cmp(tmp_path / "a" / "events.jsonl",
                               tmp_path / "b" / "events.jsonl",
                               shallow=False)


class TestSweepWorkerInvariance:
    def test_serial_and_two_worker_sweeps_merge_identically(
            self, tmp_path):
        """The tentpole guarantee: the canonical exports are invariant to
        the worker count.  The harness model cache is cleared between the
        runs so both actually train."""
        for workers, out in ((1, tmp_path / "w1"), (2, tmp_path / "w2")):
            clear_cache()
            result = run_sweep(["gcut"], ["dg", "hmm"], scale=TINY,
                               verbose=False, workers=workers,
                               telemetry=str(out))
            assert not result.failures
        for name in ("events.jsonl", "metrics.json", "report.md"):
            assert filecmp.cmp(tmp_path / "w1" / name,
                               tmp_path / "w2" / name,
                               shallow=False), f"{name} differs"


class TestGenerationWorkerInvariance:
    def test_generation_telemetry_is_worker_count_invariant(
            self, trained_dg_gcut, tmp_path):
        outputs = []
        for workers, out in ((1, tmp_path / "g1"), (2, tmp_path / "g2")):
            with TelemetryRun(out, run_id="generate") as run:
                data = trained_dg_gcut.generate(
                    10, rng=np.random.default_rng(0), workers=workers)
            run.finalize()
            outputs.append(data)
        assert filecmp.cmp(tmp_path / "g1" / "events.jsonl",
                           tmp_path / "g2" / "events.jsonl",
                           shallow=False)
        assert np.array_equal(outputs[0].features, outputs[1].features)
