"""Golden byte pins for the downstream predictors and the quality report.

The downstream property of every quality report trains an MLP and a CART
tree twice per release, so both are performance-sensitive -- and both must
stay byte-for-byte reproducible while they are optimised.  These pins were
taken from the straightforward implementations (eager MLP training with an
indexed cross-entropy, a per-threshold Python loop for CART's split
search); any rewrite must reproduce them exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.data.simulators import generate_gcut
from repro.downstream import (DecisionTreeClassifier, MLPClassifier,
                              MLPRegressor, event_prediction_features,
                              forecasting_arrays)
from repro.quality import QualityReport


def _params_sha(model) -> str:
    digest = hashlib.sha256()
    for p in model._net.parameters():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def _tree_sha(tree) -> str:
    return hashlib.sha256(repr(tree._tree).encode()).hexdigest()


def _leaf_sizes(node, x):
    """Row count of the smaller side of every split of ``node`` over ``x``."""
    if node[0] == "leaf":
        return []
    _, feature, threshold, left, right = node
    mask = x[:, feature] <= threshold
    return ([int(min(mask.sum(), (~mask).sum()))]
            + _leaf_sizes(left, x[mask]) + _leaf_sizes(right, x[~mask]))


@pytest.fixture(scope="module")
def gcut_events(tiny_gcut):
    return event_prediction_features(tiny_gcut, attribute="end_event_type")


@pytest.fixture(scope="module")
def wwt_forecast(tiny_wwt):
    return forecasting_arrays(tiny_wwt, "daily_views", 14, 7)


@pytest.fixture(scope="module")
def tie_corpus():
    """Integer features with heavy ties, plus a five-row cluster of its own
    class; the grown tree splits at exactly ``min_samples_leaf`` rows."""
    rng = np.random.default_rng(11)
    x = rng.integers(0, 4, size=(120, 5)).astype(np.float64)
    y = (x[:, 0] + x[:, 1] > 3).astype(np.int64) + (x[:, 2] == 0)
    x[:5, 3] = -1.0
    y[:5] = 3
    return x, y


MLP_CLASSIFIER_SHAS = {
    0: "0697897a07cc63de6dbcb742851efd9331cd87e293025e5ed6e9e194b947ec6f",
    1: "7783bd7991a550dcdcf9fd58221d2938e338be94af22bf868db10c62993c1cac",
}
MLP_REGRESSOR_SHAS = {
    0: "8f2257b7bc5c02038197772d5ab42e13e40b25f19ee457a67543bc9f0e582888",
    1: "cee00e665393f8a614e2463a4c1a77c60c5af6c547f6bb87ac8e6a8db86de6be",
}
TREE_SHAS = {
    "gcut": "2f63834050965627c7b87dd5fe726c31c97d4950ab13641e965b122ebb451b4e",
    "wwt": "0be3ce90d332b68e1eefdf8b128e99e5c52766f3921de3db88098d97a0758132",
    "ties": "36cb54f9530034ce6c4d93ddebaf4b22a86606957fe5268386545436f1698e9c",
}
REPORT_SHA = ("994126232083dbf674f1a07c6313af60"
              "cb3d3840586c8a6834b4370dd4c6e72b")


@pytest.mark.parametrize("seed", [0, 1])
def test_mlp_classifier_params(gcut_events, seed):
    x, y = gcut_events
    model = MLPClassifier(iterations=60, seed=seed).fit(x, y)
    assert _params_sha(model) == MLP_CLASSIFIER_SHAS[seed]


@pytest.mark.parametrize("seed", [0, 1])
def test_mlp_regressor_params(wwt_forecast, seed):
    x, y = wwt_forecast
    model = MLPRegressor(hidden=(32, 32), iterations=60, seed=seed).fit(x, y)
    assert _params_sha(model) == MLP_REGRESSOR_SHAS[seed]


def test_tree_gcut(gcut_events):
    x, y = gcut_events
    assert _tree_sha(DecisionTreeClassifier().fit(x, y)) == TREE_SHAS["gcut"]


def test_tree_many_classes(tiny_wwt):
    """Nine classes: the Gini sums run over more than eight terms."""
    x, y = event_prediction_features(tiny_wwt, attribute="wikipedia_domain")
    tree = DecisionTreeClassifier(min_samples_leaf=2).fit(x, y)
    assert _tree_sha(tree) == TREE_SHAS["wwt"]


def test_tree_ties(tie_corpus):
    x, y = tie_corpus
    tree = DecisionTreeClassifier(min_samples_leaf=5).fit(x, y)
    assert 5 in _leaf_sizes(tree._tree, x)
    assert _tree_sha(tree) == TREE_SHAS["ties"]


def test_quality_report_json(tiny_gcut):
    synthetic = generate_gcut(80, np.random.default_rng(6), max_length=16)
    holdout = generate_gcut(40, np.random.default_rng(5), max_length=16)
    report = QualityReport(tiny_gcut, synthetic, holdout=holdout, seed=2)
    assert "downstream" in report.property_scores()
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == REPORT_SHA
