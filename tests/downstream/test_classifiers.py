"""Tests for the from-scratch classifiers."""

import numpy as np
import pytest

from repro.downstream import accuracy, default_classifiers
from repro.downstream.classifiers import (DecisionTreeClassifier,
                                          GaussianNaiveBayes, LinearSVM,
                                          LogisticRegression, MLPClassifier)


_CENTRE_RNG = np.random.default_rng(123)
_CENTRES = _CENTRE_RNG.normal(size=(3, 4)) * 4.0


def blobs(n_per_class=60, n_classes=3, d=4, seed=0):
    """Gaussian blobs around fixed class centres (same across seeds)."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(_CENTRES[c, :d] + rng.normal(size=(n_per_class, d)))
        ys.append(np.full(n_per_class, c))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(x))
    return x[order], y[order]


ALL_CLASSIFIERS = [
    MLPClassifier(iterations=200, seed=0),
    GaussianNaiveBayes(),
    LogisticRegression(),
    DecisionTreeClassifier(),
    LinearSVM(),
]


@pytest.mark.parametrize("model", ALL_CLASSIFIERS,
                         ids=[m.name for m in ALL_CLASSIFIERS])
class TestAllClassifiers:
    def test_beats_chance_on_separable_blobs(self, model):
        x, y = blobs()
        x_test, y_test = blobs(seed=1)
        model.fit(x, y)
        assert accuracy(model, x_test, y_test) > 0.85

    def test_predict_shape_and_label_set(self, model):
        x, y = blobs()
        model.fit(x, y)
        pred = model.predict(x[:10])
        assert pred.shape == (10,)
        assert set(pred) <= set(y)

    def test_handles_nonconsecutive_labels(self, model):
        x, y = blobs(n_classes=2)
        y = np.where(y == 0, 5, 9)  # labels {5, 9}
        model.fit(x, y)
        assert set(model.predict(x)) <= {5, 9}


class TestDecisionTree:
    def test_learns_axis_aligned_rule(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(300, 3))
        y = (x[:, 1] > 0.2).astype(int)
        tree = DecisionTreeClassifier(max_depth=3)
        tree.fit(x, y)
        assert accuracy(tree, x, y) > 0.95

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(100, 2))
        y = rng.integers(0, 2, 100)
        tree = DecisionTreeClassifier(max_depth=1)
        tree.fit(x, y)

        def depth(node):
            if node[0] == "leaf":
                return 0
            return 1 + max(depth(node[3]), depth(node[4]))
        assert depth(tree._tree) <= 1

    def test_pure_node_becomes_leaf(self):
        x = np.random.default_rng(0).uniform(size=(50, 2))
        y = np.zeros(50, dtype=int)
        tree = DecisionTreeClassifier()
        tree.fit(x, y)
        assert tree._tree[0] == "leaf"


def _scan_best_split(tree, x, y):
    """Reference CART split search: a running-count scan over every cut of
    every feature, keeping the first strictly better Gini gain."""
    n, d = x.shape
    k = len(tree._classes)

    def gini(counts):
        p = counts / counts.sum()
        return float(1.0 - (p * p).sum())

    best_gain, best = 0.0, (None, None)
    parent = gini(np.bincount(y, minlength=k))
    for j in range(d):
        order = np.argsort(x[:, j], kind="mergesort")
        xs, ys = x[order, j], y[order]
        left = np.zeros(k)
        right = np.bincount(ys, minlength=k).astype(np.float64)
        for i in range(n - 1):
            left[ys[i]] += 1
            right[ys[i]] -= 1
            n_left, n_right = i + 1, n - i - 1
            if (xs[i] == xs[i + 1] or n_left < tree.min_samples_leaf
                    or n_right < tree.min_samples_leaf):
                continue
            gain = parent - (n_left * gini(left) + n_right * gini(right)) / n
            if gain > best_gain:
                best_gain, best = gain, (j, (xs[i] + xs[i + 1]) / 2.0)
    return best


class TestBestSplit:
    """The vectorised split search picks exactly what the scan picks."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, 11))
        # Few distinct values -> many ties and equal-gain cuts; some draws
        # leave no valid cut at all.
        x = rng.integers(0, int(rng.integers(1, 6)),
                         size=(n, int(rng.integers(1, 6)))).astype(float)
        y = rng.integers(0, k, size=n)
        tree = DecisionTreeClassifier(
            min_samples_leaf=int(rng.integers(1, 6)))
        tree._classes = np.arange(k)
        got = tree._best_split(x, y)
        want = _scan_best_split(tree, x, y)
        assert repr(got) == repr(want)


class TestNaiveBayes:
    def test_uses_priors(self):
        """With identical likelihoods, the majority class wins."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 2))
        y = np.array([0] * 90 + [1] * 10)
        nb = GaussianNaiveBayes()
        nb.fit(x, y)
        pred = nb.predict(rng.normal(size=(50, 2)))
        assert (pred == 0).mean() > 0.7


def test_default_classifiers_roster():
    names = [m.name for m in default_classifiers()]
    assert names == ["MLP", "NaiveBayes", "LogisticRegression",
                     "DecisionTree", "LinearSVM"]
