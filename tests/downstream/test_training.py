"""The downstream MLPs train through one compiled plan per fit.

A silent fall-back to eager execution keeps every byte identical, so no
determinism test would notice it; only the release benchmark would.  These
tests pin the plan's coverage directly.
"""

import numpy as np
import pytest

import repro.downstream._training as training
from repro.downstream import MLPClassifier, MLPRegressor
from repro.nn.plan import plan_mode


@pytest.fixture
def plans(monkeypatch):
    """Every PlanFunction the training loop builds, in order."""
    built = []

    class Recording(training.PlanFunction):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(training, "PlanFunction", Recording)
    return built


def _data(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(50, 6))
    return x, (x[:, 0] > 0).astype(np.int64) + (x[:, 1] > 1)


def _assert_fully_compiled(plan, iterations):
    assert plan.stats == {"traces": 1, "replays": iterations - 1,
                          "eager_calls": 0, "fallbacks": 0}
    assert plan.allocs_per_replay() == 0


def test_classifier_fit_is_one_plan(plans):
    x, y = _data()
    MLPClassifier(hidden=(16, 16), iterations=25).fit(x, y)
    assert len(plans) == 1
    _assert_fully_compiled(plans[0], 25)


def test_regressor_fit_is_one_plan(plans):
    x, _ = _data()
    MLPRegressor(hidden=(16,), iterations=25).fit(x[:, :4], x[:, 4:])
    assert len(plans) == 1
    _assert_fully_compiled(plans[0], 25)


def _params(model) -> bytes:
    return b"".join(p.data.tobytes() for p in model._net.parameters())


def test_compiled_fit_matches_eager():
    x, y = _data(1)
    fits = [
        lambda: MLPClassifier(hidden=(8,), iterations=12).fit(x, y),
        lambda: MLPRegressor(hidden=(8,), iterations=12).fit(x[:, :4],
                                                             x[:, 4:]),
    ]
    for fit in fits:
        with plan_mode(False):
            eager = _params(fit())
        assert _params(fit()) == eager
