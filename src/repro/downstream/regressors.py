"""From-scratch regressors for the WWT forecasting experiment (Figure 27).

The paper trains four regression families -- a 5-layer MLP, a 1-layer MLP,
linear regression, and RBF kernel ridge -- to forecast the next steps of a
page-view series, and scores them with the coefficient of determination R².
"""

from __future__ import annotations

import abc

import numpy as np
from scipy import linalg

from repro.downstream._training import train_mlp
from repro.nn import MLP as NNMLP
from repro.nn import Tensor, no_grad
from repro.nn import functional as F

__all__ = ["Regressor", "LinearRegressionModel", "KernelRidgeRegressor",
           "MLPRegressor", "r2_score", "default_regressors"]


class Regressor(abc.ABC):
    """Common fit/predict interface for multi-output regression."""

    name: str = "regressor"

    @abc.abstractmethod
    def fit(self, x: np.ndarray, y: np.ndarray) -> "Regressor":
        """Train on features (n, d) and targets (n, q)."""

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for ``x``."""


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination over all outputs (footnote 8)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    residual = float(((y_true - y_pred) ** 2).sum())
    total = float(((y_true - y_true.mean()) ** 2).sum())
    if total == 0:
        return 0.0
    return 1.0 - residual / total


class LinearRegressionModel(Regressor):
    """Ordinary least squares via lstsq (with intercept)."""

    name = "LinearRegression"

    def __init__(self):
        self._coef = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegressionModel":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        design = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        self._coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        design = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        return design @ self._coef


class KernelRidgeRegressor(Regressor):
    """Kernel ridge regression with an RBF kernel."""

    name = "KernelRidge"

    def __init__(self, alpha: float = 1.0, gamma: float | None = None):
        self.alpha = alpha
        self.gamma = gamma
        self._x_train = None
        self._dual = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        gamma = self.gamma
        if gamma is None:
            gamma = 1.0 / a.shape[1]
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        d2 = np.maximum(aa + bb - 2 * (a @ b.T), 0.0)
        return np.exp(-gamma * d2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KernelRidgeRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._x_train = x
        k = self._kernel(x, x)
        k[np.diag_indices_from(k)] += self.alpha
        self._dual = linalg.solve(k, y, assume_a="pos")
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._kernel(x, self._x_train) @ self._dual


class MLPRegressor(Regressor):
    """MLP regression trained with Adam on MSE.

    ``hidden=(200,)*5`` gives the paper's "MLP (5 layers)";
    ``hidden=(100,)`` gives "MLP (1 layer)".
    """

    def __init__(self, hidden: tuple[int, ...] = (100,),
                 iterations: int = 300, batch_size: int = 64,
                 learning_rate: float = 1e-3, seed: int = 0,
                 name: str | None = None):
        self.hidden = hidden
        self.iterations = iterations
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.name = name or f"MLP ({len(hidden)} layer{'s' * (len(hidden) > 1)})"
        self._net = None
        self._x_stats = None
        self._y_stats = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        rng = np.random.default_rng(self.seed)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._x_stats = (x.mean(axis=0), x.std(axis=0) + 1e-9)
        self._y_stats = (y.mean(axis=0), y.std(axis=0) + 1e-9)
        xs = (x - self._x_stats[0]) / self._x_stats[1]
        ys = (y - self._y_stats[0]) / self._y_stats[1]
        self._net = NNMLP(x.shape[1], list(self.hidden), y.shape[1], rng=rng)
        train_mlp(self._net, xs, ys, F.mse_loss,
                  iterations=self.iterations, batch_size=self.batch_size,
                  learning_rate=self.learning_rate, rng=rng)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        xs = ((np.asarray(x, dtype=np.float64) - self._x_stats[0])
              / self._x_stats[1])
        with no_grad():
            out = self._net(Tensor(xs)).data
        return out * self._y_stats[1] + self._y_stats[0]


def default_regressors(seed: int = 0, mlp_iterations: int = 300
                       ) -> list[Regressor]:
    """The four regression families of Figure 27."""
    return [
        KernelRidgeRegressor(),
        LinearRegressionModel(),
        MLPRegressor(hidden=(100,), seed=seed, iterations=mlp_iterations,
                     name="MLP (1 layer)"),
        MLPRegressor(hidden=(200,) * 5, seed=seed, iterations=mlp_iterations,
                     name="MLP (5 layers)"),
    ]
