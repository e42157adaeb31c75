"""Trainer instrumentation tests: event stream contents and inertness.

Includes the acceptance-criterion regression: a fault-injected divergence
must leave a machine-readable ``sentinel.rollback`` event carrying the
iteration, trigger, and learning-rate-decay fields.
"""

import numpy as np
import pytest

from repro.core import DoppelGANger
from repro.nn import profile
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry
from repro.resilience import SentinelPolicy, faults
from tests.conftest import tiny_dg_config


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


def _fresh(dataset, **overrides):
    return DoppelGANger(dataset.schema,
                        tiny_dg_config(iterations=6, **overrides))


def _fit_with_events(dataset, tmp_path, **fit_kwargs):
    model = _fresh(dataset)
    with EventLog(tmp_path / "log.jsonl", run_id="t") as log, \
            obs_events.capture(log):
        history = model.fit(dataset, log_every=1, **fit_kwargs)
    return model, history, log.events


class TestTrainingEvents:
    def test_start_iterations_finish(self, tiny_gcut, tmp_path):
        _, _, events = _fit_with_events(tiny_gcut, tmp_path)
        kinds = [e.kind for e in events]
        assert kinds[0] == "train.start"
        assert kinds.count("train.iteration") == 6
        assert kinds[-1] == "train.finish"

    def test_start_payload_captures_run_parameters(self, tiny_gcut,
                                                   tmp_path):
        _, _, events = _fit_with_events(tiny_gcut, tmp_path)
        start = events[0].payload
        assert start["iterations"] == 6
        assert start["start_iteration"] == 0
        assert start["batch_size"] == 16
        assert start["seed"] == 7
        assert start["sentinel"] is False

    def test_iteration_payload_fields(self, tiny_gcut, tmp_path):
        _, history, events = _fit_with_events(tiny_gcut, tmp_path)
        steps = [e for e in events if e.kind == "train.iteration"]
        for i, e in enumerate(steps):
            p = e.payload
            assert p["iteration"] == i
            for key in ("d_loss", "g_loss", "wasserstein", "d_grad_norm",
                        "g_grad_norm", "g_lr", "d_lr"):
                assert key in p, f"missing {key}"
            assert np.isfinite(p["d_grad_norm"])
            assert p["d_grad_norm"] > 0
        # The event stream and the history agree on the losses.
        assert steps[-1].payload["d_loss"] == history.d_loss[-1]

    def test_finish_payload_counts(self, tiny_gcut, tmp_path):
        _, _, events = _fit_with_events(tiny_gcut, tmp_path)
        finish = events[-1].payload
        assert finish["iterations"] == 6
        assert finish["rollbacks"] == 0
        assert finish["nan_events"] == 0

    def test_checkpoint_saves_emit_events(self, tiny_gcut, tmp_path):
        _, _, events = _fit_with_events(
            tiny_gcut, tmp_path, train_state_path=tmp_path / "ck.npz",
            checkpoint_every=3)
        saves = [e for e in events if e.kind == "checkpoint.save"]
        assert [e.payload["iteration"] for e in saves] == [3, 6]
        # Paths vary run-to-run, so they ride in the volatile channel.
        assert all("path" in e.volatile for e in saves)
        assert all("path" not in e.payload for e in saves)

    def test_profiler_spans_attach_to_event_log(self, tiny_gcut, tmp_path):
        model = _fresh(tiny_gcut)
        model.encoder.fit(tiny_gcut)
        model._build()
        encoded = model.encoder.transform(tiny_gcut)
        with EventLog(tmp_path / "log.jsonl") as log, \
                obs_events.capture(log):
            with profile() as prof:
                model.trainer.train(encoded, iterations=2, log_every=1)
            prof.publish(log.emit)
        ops = [e for e in log.events if e.kind == "profile.op"]
        assert ops, "profiled op spans should be published as events"
        names = [e.payload["op"] for e in ops]
        assert names == sorted(names)  # deterministic order
        assert all(e.payload["calls"] > 0 for e in ops)
        assert all("seconds" in (e.volatile or {}) for e in ops)


class TestSentinelRollbackEvent:
    def test_injected_nan_leaves_machine_readable_rollback(
            self, tiny_gcut, tmp_path):
        """Regression for the PR-4 acceptance criterion: the rollback is
        an event with structured fields, not just a log line."""
        model = _fresh(tiny_gcut)
        with EventLog(tmp_path / "log.jsonl") as log, \
                obs_events.capture(log), \
                faults.injected(faults.nan_at("trainer.critic_loss",
                                              step=4)):
            history = model.fit(tiny_gcut, log_every=1,
                                sentinel=SentinelPolicy(max_retries=2))
        assert history.rollbacks == 1

        triggers = [e for e in log.events if e.kind == "sentinel.trigger"]
        assert triggers and triggers[0].payload["reason"] == "nan"

        rollbacks = [e for e in log.events if e.kind == "sentinel.rollback"]
        assert len(rollbacks) == 1
        p = rollbacks[0].payload
        assert p["iteration"] == 4          # where the fault hit
        assert p["trigger"] == "nan"
        assert p["restored_iteration"] <= 4
        assert p["retries"] == 1
        assert 0.0 < p["lr_decay"] <= 1.0
        assert p["g_lr"] > 0 and p["d_lr"] > 0
        assert isinstance(p["reseeded"], bool)

    def test_rollback_counter_incremented(self, tiny_gcut, tmp_path):
        model = _fresh(tiny_gcut)
        registry = MetricsRegistry()
        with obs_metrics.use(registry), \
                faults.injected(faults.nan_at("trainer.critic_loss",
                                              step=2)):
            model.fit(tiny_gcut, log_every=1,
                      sentinel=SentinelPolicy(max_retries=2))
        dump = registry.dump()
        assert dump["counters"]["train.rollbacks"] == 1
        assert dump["counters"]["sentinel.triggers.nan"] == 1


class TestMetricsCollection:
    def test_registry_collects_training_instruments(self, tiny_gcut):
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            _fresh(tiny_gcut).fit(tiny_gcut, log_every=1)
        dump = registry.dump()
        assert dump["counters"]["train.iterations"] == 6
        assert dump["histograms"]["train.d_loss"]["count"] == 6
        assert dump["histograms"]["train.d_grad_norm"]["count"] == 6
        assert dump["gauges"]["train.g_lr"] == pytest.approx(0.001)


class TestInertness:
    def test_disabled_telemetry_skips_grad_norms(self, tiny_gcut):
        """grad_norm is a pure read but still costs a pass over every
        gradient; with telemetry off it must not run at all."""
        model = _fresh(tiny_gcut)
        model.fit(tiny_gcut, log_every=1)
        assert model.trainer._last_d_grad_norm is None
        assert model.trainer._last_g_grad_norm is None

    def test_parameters_bit_identical_with_and_without(self, tiny_gcut,
                                                       tmp_path):
        plain = _fresh(tiny_gcut)
        plain.fit(tiny_gcut, log_every=1)
        observed = _fresh(tiny_gcut)
        registry = MetricsRegistry()
        with EventLog(tmp_path / "log.jsonl") as log, \
                obs_events.capture(log), obs_metrics.use(registry):
            observed.fit(tiny_gcut, log_every=1)
        for pa, pb in zip(plain.trainer.generator_params
                          + plain.trainer.discriminator_params,
                          observed.trainer.generator_params
                          + observed.trainer.discriminator_params):
            assert (pa.data == pb.data).all()
