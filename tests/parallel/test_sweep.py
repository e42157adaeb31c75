"""Parallel sweeps: determinism vs serial, failures, caching, timings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.experiments.configs import TINY
from repro.experiments.harness import clear_cache, run_sweep
from repro.experiments.report import (render_sweep_report, sweep_digest,
                                      timing_summary)
from repro.parallel.sweep import build_cells
from repro.resilience.failures import FailureRecord


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_cache()
    yield
    clear_cache()


class TestBuildCells:
    def test_default_one_cell_per_pair(self):
        cells = build_cells(["gcut", "wwt"], ["hmm", "ar"], None, 42)
        assert [c.label for c in cells] == [
            ("gcut", "hmm"), ("gcut", "ar"), ("wwt", "hmm"), ("wwt", "ar")]
        assert all(c.seed is None for c in cells)

    def test_replica_seeds_deterministic_and_distinct(self):
        first = build_cells(["gcut"], ["hmm", "ar"], 3, 42)
        second = build_cells(["gcut"], ["hmm", "ar"], 3, 42)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert len({c.seed for c in first}) == len(first)
        assert [c.label for c in first[:3]] == [
            ("gcut", "hmm", 0), ("gcut", "hmm", 1), ("gcut", "hmm", 2)]

    def test_replica_seeds_change_with_base_seed(self):
        a = build_cells(["gcut"], ["hmm"], 2, 42)
        b = build_cells(["gcut"], ["hmm"], 2, 43)
        assert [c.seed for c in a] != [c.seed for c in b]

    def test_explicit_seed_list(self):
        cells = build_cells(["gcut"], ["hmm"], [11, 22], 42)
        assert [(c.seed, c.label) for c in cells] == [
            (11, ("gcut", "hmm", 11)), (22, ("gcut", "hmm", 22))]

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            build_cells(["gcut"], ["hmm"], 0, 42)


class TestParallelEqualsSerial:
    def test_worker_count_does_not_change_models(self):
        models = ["hmm", "ar", "rnn", "naive_gan", "dg"]
        serial = run_sweep(["gcut"], models, scale=TINY, seeds=2,
                           verbose=False)
        clear_cache()
        parallel = run_sweep(["gcut"], models, scale=TINY, seeds=2,
                             workers=2, verbose=False)
        assert not serial.failures and not parallel.failures
        assert len(serial.models) == 10
        assert sweep_digest(serial.models) == sweep_digest(parallel.models)

    def test_report_is_byte_identical(self):
        serial = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY,
                           verbose=False)
        clear_cache()
        parallel = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY,
                             workers=2, verbose=False)
        assert render_sweep_report(serial) == render_sweep_report(parallel)

    def test_multi_seed_parallel_matches_multi_seed_serial(self):
        serial = run_sweep(["gcut"], ["hmm"], scale=TINY, seeds=2,
                           workers=1, verbose=False)
        clear_cache()
        parallel = run_sweep(["gcut"], ["hmm"], scale=TINY, seeds=2,
                             workers=2, verbose=False)
        assert sorted(serial.models) == [("gcut", "hmm", 0),
                                         ("gcut", "hmm", 1)]
        assert sweep_digest(serial.models) == sweep_digest(parallel.models)


class TestFailurePropagation:
    def test_worker_failure_crosses_process_boundary(self):
        result = run_sweep(["gcut"], ["hmm", "no_such_model"], scale=TINY,
                           workers=2, verbose=False)
        assert ("gcut", "hmm") in result.models
        assert ("gcut", "no_such_model") not in result.models
        assert len(result.failures) == 1
        record = result.failures[0]
        assert isinstance(record, FailureRecord)
        assert record.dataset == "gcut"
        assert record.model == "no_such_model"
        assert "no_such_model" in record.message
        assert result.timings[("gcut", "no_such_model")].failed

    def test_isolate_false_raises(self):
        with pytest.raises(RuntimeError, match="no_such_model"):
            run_sweep(["gcut"], ["no_such_model"], scale=TINY, workers=2,
                      isolate=False, verbose=False)

    @pytest.mark.parametrize("models, options", [
        (["hmm"], {}),
        (["hmm"], {"seeds": [0]}),
        (["hmm"], {"workers": 2}),          # one cell runs inline
        (["hmm", "ar"], {"workers": 2}),    # two cells, two workers
    ], ids=["default", "seed-list", "workers2-one-cell",
            "workers2-two-cells"])
    def test_each_failure_is_recorded_once(self, models, options,
                                           monkeypatch):
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments.harness import get_failures

        # Forked workers inherit the patched fit.
        monkeypatch.setenv("REPRO_MP_START", "fork")
        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        result = run_sweep(["gcut"], models, scale=TINY, verbose=False,
                           **options)
        assert len(result.models) == len(models) - 1
        assert [f.message for f in result.failures] == ["boom"]
        assert get_failures() == result.failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_parameter_is_one_failure(self, workers,
                                                 monkeypatch):
        """A fit that leaves a NaN parameter is refused by the model
        archive: the cell is one failure naming the module and the
        parameter, not a model."""
        from repro.baselines import ARBaseline
        from repro.experiments.harness import get_failures

        fit = ARBaseline.fit

        def diverging_fit(self, dataset):
            fit(self, dataset)
            dict(self.mlp.named_parameters())["layers.1.bias"].data[0] = \
                np.nan
            return self

        monkeypatch.setenv("REPRO_MP_START", "fork")
        monkeypatch.setattr(ARBaseline, "fit", diverging_fit)
        result = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY,
                           workers=workers, verbose=False)
        assert list(result.models) == [("gcut", "hmm")]
        (record,) = result.failures
        assert (record.dataset, record.model) == ("gcut", "ar")
        assert record.exception_type == "ValueError"
        assert "'mlp' parameter 'layers.1.bias'" in record.message
        assert result.timings[("gcut", "ar")].failed
        assert get_failures() == result.failures

    def test_isolate_false_trains_every_cell_then_raises(self, monkeypatch):
        from unittest import mock
        from repro.baselines import HMMBaseline
        from repro.experiments import harness

        monkeypatch.setattr(HMMBaseline, "fit",
                            mock.Mock(side_effect=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match=(
                r"^sweep cell \('gcut', 'hmm'\) failed: "
                r"RuntimeError: boom$")):
            run_sweep(["gcut"], ["hmm", "ar"], scale=TINY, isolate=False,
                      verbose=False)
        # The cell after the failed one trained before the sweep raised.
        assert [key[1] for key in harness._MODELS.keys()] == ["ar"]
        assert [f.model for f in harness.get_failures()] == ["hmm"]


class TestCacheIntegration:
    def test_second_sweep_hits_cache_with_identical_models(self, tmp_path):
        cache_dir = tmp_path / "cells"
        first = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY, workers=2,
                          cache_dir=cache_dir, verbose=False)
        assert not any(t.cached for t in first.timings.values())
        clear_cache()
        second = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY, workers=2,
                           cache_dir=cache_dir, verbose=False)
        assert all(t.cached for t in second.timings.values())
        assert sweep_digest(first.models) == sweep_digest(second.models)

    def test_seed_change_invalidates_cache(self, tmp_path):
        cache_dir = tmp_path / "cells"
        run_sweep(["gcut"], ["hmm"], scale=TINY, seeds=[1],
                  cache_dir=cache_dir, verbose=False)
        clear_cache()
        other = run_sweep(["gcut"], ["hmm"], scale=TINY, seeds=[2],
                          cache_dir=cache_dir, verbose=False)
        assert not any(t.cached for t in other.timings.values())

    def test_scale_change_invalidates_cache(self, tmp_path):
        from dataclasses import replace

        cache_dir = tmp_path / "cells"
        run_sweep(["gcut"], ["hmm"], scale=TINY, seeds=[1],
                  cache_dir=cache_dir, verbose=False)
        clear_cache()
        bigger = replace(TINY, n_samples=TINY.n_samples + 2)
        other = run_sweep(["gcut"], ["hmm"], scale=bigger, seeds=[1],
                          cache_dir=cache_dir, verbose=False)
        assert not any(t.cached for t in other.timings.values())


def _assert_same_generation(a, b) -> None:
    for name in ("attributes", "features", "lengths"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDecodedModels:
    """Every sweep model is decoded from its model archive, so one asked
    to generate without an ``rng`` starts from its configured seed,
    wherever it came from: inline, a worker or the cache."""

    @pytest.fixture
    def sweeps(self, tmp_path):
        cache_dir = tmp_path / "cells"
        serial = run_sweep(["gcut"], ["dg"], scale=TINY,
                           cache_dir=cache_dir, verbose=False)
        clear_cache()
        parallel = run_sweep(["gcut"], ["dg", "hmm"], scale=TINY,
                             workers=2, verbose=False)
        clear_cache()
        cached = run_sweep(["gcut"], ["dg"], scale=TINY, workers=2,
                           cache_dir=cache_dir, verbose=False)
        assert all(t.cached for t in cached.timings.values())
        return [result.models[("gcut", "dg")]
                for result in (serial, parallel, cached)]

    def test_rngless_generate_is_equal_serial_parallel_and_cached(
            self, sweeps):
        serial, parallel, cached = (model.generate(8) for model in sweeps)
        _assert_same_generation(serial, parallel)
        _assert_same_generation(serial, cached)

    def test_rngless_generate_matches_a_loaded_archive(self, sweeps):
        from repro.backends import load_model_bytes

        blob = get_backend("dg").save_bytes(sweeps[0])
        for model in sweeps:
            loaded = load_model_bytes(blob)[0]
            _assert_same_generation(model.generate(8), loaded.generate(8))


class TestSerialSweepKeepsOneCopy:
    """A cell trained inline leaves its model in the harness memo; the
    process keeps only the copy decoded from the cell's archive."""

    def test_memo_holds_the_decoded_model(self):
        from repro.experiments import harness

        result = run_sweep(["gcut"], ["dg"], scale=TINY, verbose=False)
        memo = [harness._MODELS[key] for key in harness._MODELS.keys()]
        assert len(memo) == 1
        assert memo[0] is result.models[("gcut", "dg")]

    def test_repeated_serial_sweep_does_not_retrain(self, monkeypatch):
        from repro.core import DoppelGANger

        first = run_sweep(["gcut"], ["dg"], scale=TINY, verbose=False)

        def refuse(*args, **kwargs):
            raise AssertionError("the memoised cell was retrained")

        monkeypatch.setattr(DoppelGANger, "fit", refuse)
        second = run_sweep(["gcut"], ["dg"], scale=TINY, verbose=False)
        assert not second.failures
        backend = get_backend("dg")
        assert backend.save_bytes(second.models[("gcut", "dg")]) == \
            backend.save_bytes(first.models[("gcut", "dg")])


class TestTimings:
    def test_inline_sweep_records_timings(self):
        result = run_sweep(["gcut"], ["hmm"], scale=TINY, verbose=False)
        timing = result.timings[("gcut", "hmm")]
        assert timing.wall >= 0 and timing.cpu >= 0 and not timing.failed

    def test_timing_summary_renders(self):
        result = run_sweep(["gcut"], ["hmm"], scale=TINY, verbose=False)
        text = timing_summary(result.timings)
        assert "gcut/hmm" in text and "| ok |" in text
        assert timing_summary({}) == ""

    def test_parallel_timings_carry_worker_pids(self):
        import os

        result = run_sweep(["gcut"], ["hmm", "ar"], scale=TINY, workers=2,
                           verbose=False)
        pids = {t.pid for t in result.timings.values()}
        assert os.getpid() not in pids
