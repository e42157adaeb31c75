"""The one adversarial loop, through every GAN backend.

Each GAN backend (DoppelGANger, DLGAN, the naive GAN) trains through
:class:`repro.core.adversarial.AdversarialLoop` and so gets the same
guarantees: in-process kill-and-resume is byte-identical, a poisoned
parameter is refused at the end of training, and ``train.*`` telemetry is
emitted.  The non-GAN backends reject resilience options with one error.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.backends import FitOptions, get_backend
from repro.experiments.configs import TINY, make_dataset
from repro.observability import events as obs_events
from repro.resilience import TrainingDiverged, faults

ITERATIONS = 6
GANS = ["doppelganger", "dlgan", "naive_gan"]


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def data():
    return make_dataset("regime", TINY, seed=3)


def _model(name, data):
    backend = get_backend(name)
    config = backend.train_config(data.schema, iterations=ITERATIONS,
                                  batch_size=8, hidden=8, seed=2)
    return backend, backend.from_config(data.schema, config)


def _modules(model) -> dict:
    return model.archive_state()[1]


def _last_step(name) -> int:
    # DLGAN numbers its refinement stage on from its pattern stage.
    return 2 * ITERATIONS - 1 if name == "dlgan" else ITERATIONS - 1


@pytest.mark.parametrize("name", GANS)
def test_kill_and_resume_is_byte_identical(name, data, tmp_path):
    backend, control = _model(name, data)
    backend.fit(control, data)

    ck = tmp_path / "state.npz"
    options = FitOptions(checkpoint_path=ck, checkpoint_every=2)
    kill_at = _last_step(name) - 1
    _, victim = _model(name, data)
    with faults.injected(faults.kill_at("trainer.step", step=kill_at)):
        with pytest.raises(faults.SimulatedKill):
            backend.fit(victim, data, options)
    _, resumed = _model(name, data)
    backend.fit(resumed, data, FitOptions(checkpoint_path=ck,
                                          checkpoint_every=2,
                                          resume_from=ck))
    assert resumed.history.resumes == 1
    assert backend.save_bytes(resumed) == backend.save_bytes(control)
    assert resumed.history.g_loss == control.history.g_loss


@pytest.mark.parametrize("name", GANS)
def test_poisoned_parameter_is_refused_at_the_end(name, data, monkeypatch):
    """A weight turned NaN before the last iteration (with no sentinel to
    roll it back) must not come back as a trained model."""
    backend, model = _model(name, data)
    real_fire = faults.fire
    poisoned = []

    def fire(site, step=None, value=None):
        if site == "trainer.step" and step == _last_step(name):
            module, param = next(iter(_modules(model).items()))
            pname, p = param.named_parameters()[0]
            p.data.flat[0] = np.nan
            poisoned.append(f"{module}::{pname}")
        return real_fire(site, step=step, value=value)

    monkeypatch.setattr(faults, "fire", fire)
    with pytest.raises(TrainingDiverged,
                       match="non-finite values in parameter") as info:
        backend.fit(model, data)
    assert len(poisoned) == 1
    named = re.search(r"parameter (\S+);", str(info.value)).group(1)
    assert named == poisoned[0]


@pytest.mark.parametrize("name", ["dlgan", "naive_gan"])
def test_mlp_gans_emit_train_telemetry(name, data, tmp_path):
    backend, model = _model(name, data)
    with obs_events.EventLog(tmp_path / "log.jsonl") as log, \
            obs_events.capture(log):
        backend.fit(model, data)
    kinds = [e.kind for e in log.events]
    assert kinds.count("train.iteration") == _last_step(name) + 1
    assert kinds[-1] == "train.finish"


@pytest.mark.parametrize("name", GANS)
def test_mlp_gans_honour_the_history_window(name, data):
    # DoppelGANger's backend translates FitOptions into fit keywords by
    # hand, so it is checked here too.  A window of one trims every GAN's
    # trace, even DoppelGANger's two points at its default log_every.
    backend, model = _model(name, data)
    backend.fit(model, data, FitOptions(history_window=1))
    assert model.history.iterations == [_last_step(name)]


@pytest.mark.parametrize("name", GANS)
def test_sentinel_option_rolls_back_one_injected_nan(name, data):
    backend, model = _model(name, data)
    with faults.injected(faults.nan_at("trainer.critic_loss", step=3)):
        backend.fit(model, data, FitOptions(sentinel=True))
    assert model.history.rollbacks == 1
    assert model.history.nan_events == 1


@pytest.mark.parametrize("name", ["hmm", "ar", "rnn"])
@pytest.mark.parametrize("options", [
    FitOptions(sentinel=True),
    FitOptions(checkpoint_path="state.npz", checkpoint_every=2),
    FitOptions(resume_from="state.npz"),
    FitOptions(history_window=10),
])
def test_non_gan_backends_reject_loop_options(name, options, data):
    backend, model = _model(name, data)
    with pytest.raises(ValueError, match="does not train adversarially"):
        backend.fit(model, data, options)
    backend.fit(model, data, FitOptions())  # the default is accepted
