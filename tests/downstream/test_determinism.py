"""Downstream predictors are deterministic: bit-identical predictions
across repeated runs.

The quality report's downstream property (and the TSTR figures) are only
byte-reproducible if every predictor is; this battery pins that contract
at the predictor level, where a regression is cheapest to localise.
"""

import numpy as np
import pytest

from repro.downstream import (default_classifiers, default_regressors,
                              event_prediction_features,
                              forecasting_arrays)


@pytest.fixture(scope="module")
def classification_arrays(tiny_gcut):
    x, y = event_prediction_features(tiny_gcut,
                                     attribute="end_event_type")
    return x[:60], y[:60], x[60:], y[60:]


@pytest.fixture(scope="module")
def regression_arrays(tiny_gcut):
    feature = next(f.name for f in tiny_gcut.schema.features
                   if not f.is_categorical)
    x, y = forecasting_arrays(tiny_gcut, feature, 8, 4)
    return x[:60], y[:60], x[60:], y[60:]


def _classifier_predictions(arrays, seed=0):
    x_train, y_train, x_test, _ = arrays
    return {model.name: model.fit(x_train, y_train).predict(x_test)
            for model in default_classifiers(seed=seed,
                                             mlp_iterations=30)}


def _regressor_predictions(arrays, seed=0):
    x_train, y_train, x_test, _ = arrays
    out = {}
    for model in default_regressors(seed=seed, mlp_iterations=30):
        model.fit(x_train, y_train)
        out[model.name] = model.predict(x_test)
    return out


class TestRunToRun:
    def test_classifiers_bit_identical(self, classification_arrays):
        first = _classifier_predictions(classification_arrays)
        second = _classifier_predictions(classification_arrays)
        assert set(first) == set(second)
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_regressors_bit_identical(self, regression_arrays):
        first = _regressor_predictions(regression_arrays)
        second = _regressor_predictions(regression_arrays)
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_seed_changes_mlp(self, classification_arrays):
        """The seed is real: the MLP's fit actually depends on it."""
        a = _classifier_predictions(classification_arrays, seed=0)
        b = _classifier_predictions(classification_arrays, seed=1)
        assert any(not np.array_equal(a[name], b[name]) for name in a)

