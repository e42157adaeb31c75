"""From-scratch classifiers used in the Figure-11 / Table-4 experiments.

The paper trains five predictor families -- MLP, Naive Bayes, logistic
regression, decision tree, linear SVM -- on real or synthetic data and tests
on real data.  scikit-learn is unavailable offline, so the classifiers are
implemented here on numpy (+ the repro.nn engine for the MLP).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.downstream._training import train_mlp
from repro.nn import MLP as NNMLP
from repro.nn import Tensor, no_grad
from repro.nn import functional as F

__all__ = ["Classifier", "MLPClassifier", "GaussianNaiveBayes",
           "LogisticRegression", "DecisionTreeClassifier", "LinearSVM",
           "accuracy", "default_classifiers"]


class Classifier(abc.ABC):
    """Common fit/predict interface."""

    name: str = "classifier"

    @abc.abstractmethod
    def fit(self, x: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on features ``x`` (n, d) and integer labels ``y`` (n,)."""

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict integer labels for ``x``."""


def accuracy(model: Classifier, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of correct predictions."""
    return float((model.predict(x) == np.asarray(y)).mean())


def _standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0) + 1e-9
    return mean, std


class MLPClassifier(Classifier):
    """Softmax MLP trained with Adam on cross-entropy."""

    name = "MLP"

    def __init__(self, hidden: tuple[int, ...] = (64, 64),
                 iterations: int = 300, batch_size: int = 64,
                 learning_rate: float = 1e-3, seed: int = 0):
        self.hidden = hidden
        self.iterations = iterations
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._net: NNMLP | None = None
        self._classes: np.ndarray | None = None
        self._mean = self._std = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        rng = np.random.default_rng(self.seed)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        onehot = np.eye(len(self._classes))[np.searchsorted(self._classes, y)]
        self._mean, self._std = _standardize_fit(x)
        xs = (x - self._mean) / self._std
        self._net = NNMLP(x.shape[1], list(self.hidden),
                          len(self._classes), rng=rng)
        train_mlp(self._net, xs, onehot, F.cross_entropy,
                  iterations=self.iterations, batch_size=self.batch_size,
                  learning_rate=self.learning_rate, rng=rng)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        xs = (np.asarray(x, dtype=np.float64) - self._mean) / self._std
        with no_grad():
            logits = self._net(Tensor(xs)).data
        return self._classes[logits.argmax(axis=1)]


class GaussianNaiveBayes(Classifier):
    """Gaussian Naive Bayes with per-class diagonal variances."""

    name = "NaiveBayes"

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing
        self._classes = None
        self._priors = None
        self._means = None
        self._vars = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        k, d = len(self._classes), x.shape[1]
        self._priors = np.zeros(k)
        self._means = np.zeros((k, d))
        self._vars = np.zeros((k, d))
        floor = self.var_smoothing * max(x.var(), 1e-12)
        for i, c in enumerate(self._classes):
            rows = x[y == c]
            self._priors[i] = len(rows) / len(x)
            self._means[i] = rows.mean(axis=0)
            self._vars[i] = rows.var(axis=0) + floor
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        diff = x[:, None, :] - self._means[None, :, :]
        log_lik = -0.5 * ((diff * diff / self._vars[None]).sum(axis=2)
                          + np.log(2 * np.pi * self._vars).sum(axis=1)[None])
        scores = log_lik + np.log(self._priors)[None, :]
        return self._classes[scores.argmax(axis=1)]


class LogisticRegression(Classifier):
    """Multinomial logistic regression via full-batch gradient descent."""

    name = "LogisticRegression"

    def __init__(self, iterations: int = 300, learning_rate: float = 0.1,
                 l2: float = 1e-4):
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.l2 = l2
        self._classes = None
        self._weights = None
        self._bias = None
        self._mean = self._std = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        self._mean, self._std = _standardize_fit(x)
        xs = (x - self._mean) / self._std
        n, d = xs.shape
        k = len(self._classes)
        onehot = np.eye(k)[np.searchsorted(self._classes, y)]
        self._weights = np.zeros((d, k))
        self._bias = np.zeros(k)
        for _ in range(self.iterations):
            logits = xs @ self._weights + self._bias
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            grad_logits = (p - onehot) / n
            self._weights -= self.learning_rate * (
                xs.T @ grad_logits + self.l2 * self._weights)
            self._bias -= self.learning_rate * grad_logits.sum(axis=0)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        xs = (np.asarray(x, dtype=np.float64) - self._mean) / self._std
        return self._classes[(xs @ self._weights + self._bias).argmax(axis=1)]


class DecisionTreeClassifier(Classifier):
    """CART with Gini impurity and depth/leaf-size limits."""

    name = "DecisionTree"

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 5):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._tree = None
        self._classes = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        self._tree = self._grow(x, np.searchsorted(self._classes, y),
                                depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int):
        counts = np.bincount(y, minlength=len(self._classes))
        majority = int(counts.argmax())
        if (depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf
                or counts.max() == len(y)):
            return ("leaf", majority)
        feature, threshold = self._best_split(x, y)
        if feature is None:
            return ("leaf", majority)
        left = x[:, feature] <= threshold
        return ("node", feature, threshold,
                self._grow(x[left], y[left], depth + 1),
                self._grow(x[~left], y[~left], depth + 1))

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """First (feature, threshold) of maximal positive Gini gain.

        Scores every cut of every feature at once: a stable per-feature
        sort, cumulative class counts, and the Gini gain of each cut, with
        cuts between equal values or leaving a side smaller than
        ``min_samples_leaf`` masked out.  Ties go to the lowest feature,
        then the lowest cut, as a feature-major scan with strict ``>``
        would pick.
        """
        n = len(y)
        k = len(self._classes)
        parent = _gini(np.bincount(y, minlength=k))
        order = np.argsort(x, axis=0, kind="mergesort")
        xs = np.take_along_axis(x, order, axis=0)
        # (d, n - 1, k) class counts left / right of each cut, exact in
        # float64 so the Gini terms match a running-count scan bit for bit.
        left = np.cumsum(np.eye(k)[y[order.T]], axis=1)[:, :-1]
        right = np.bincount(y, minlength=k).astype(np.float64) - left
        n_left = np.arange(1.0, n)
        n_right = n - n_left
        p_left = left / n_left[:, None]
        p_right = right / n_right[:, None]
        gini_left = 1.0 - (p_left * p_left).sum(axis=2)
        gini_right = 1.0 - (p_right * p_right).sum(axis=2)
        gain = parent - (n_left * gini_left + n_right * gini_right) / n
        valid = ((xs[:-1] != xs[1:]).T
                 & (n_left >= self.min_samples_leaf)
                 & (n_right >= self.min_samples_leaf))
        gain[~valid] = -np.inf
        feature, cut = divmod(int(gain.argmax()), n - 1)
        if not gain[feature, cut] > 0.0:
            return None, None
        return feature, (xs[cut, feature] + xs[cut + 1, feature]) / 2.0

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(len(x), dtype=np.int64)
        for i, row in enumerate(x):
            node = self._tree
            while node[0] == "node":
                _, feature, threshold, left, right = node
                node = left if row[feature] <= threshold else right
            out[i] = node[1]
        return self._classes[out]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


class LinearSVM(Classifier):
    """One-vs-rest linear SVM trained with hinge-loss subgradient descent."""

    name = "LinearSVM"

    def __init__(self, iterations: int = 300, learning_rate: float = 0.05,
                 l2: float = 1e-3, seed: int = 0):
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.l2 = l2
        self.seed = seed
        self._classes = None
        self._weights = None
        self._bias = None
        self._mean = self._std = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._classes = np.unique(y)
        self._mean, self._std = _standardize_fit(x)
        xs = (x - self._mean) / self._std
        n, d = xs.shape
        k = len(self._classes)
        self._weights = np.zeros((d, k))
        self._bias = np.zeros(k)
        targets = np.where(y[:, None] == self._classes[None, :], 1.0, -1.0)
        for _ in range(self.iterations):
            margins = targets * (xs @ self._weights + self._bias)
            active = (margins < 1.0).astype(np.float64)
            grad_w = (-(xs.T @ (active * targets)) / n
                      + self.l2 * self._weights)
            grad_b = -(active * targets).sum(axis=0) / n
            self._weights -= self.learning_rate * grad_w
            self._bias -= self.learning_rate * grad_b
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        xs = (np.asarray(x, dtype=np.float64) - self._mean) / self._std
        return self._classes[(xs @ self._weights + self._bias).argmax(axis=1)]


def default_classifiers(seed: int = 0, mlp_iterations: int = 300
                        ) -> list[Classifier]:
    """The five predictor families of Figure 11, paper order."""
    return [
        MLPClassifier(seed=seed, iterations=mlp_iterations),
        GaussianNaiveBayes(),
        LogisticRegression(),
        DecisionTreeClassifier(),
        LinearSVM(seed=seed),
    ]
