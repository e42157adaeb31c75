"""Nonlinear auto-regressive baseline (§2.2, §5.0.1).

The paper's "advanced" AR: an MLP f such that
``R_t = f(A, R_{t-1}, ..., R_{t-p}) + W_t`` with white noise ``W_t`` whose
scale is the training residual.  Attributes are drawn empirically; the first
record is drawn from a Gaussian fit on training first-records; generation
flags (§4.1.1) are part of the regressed step vector and terminate series.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (EmpiricalAttributeSampler, GenerativeModel,
                                  make_baseline_encoder)
from repro.data.dataset import TimeSeriesDataset
from repro.nn import MLP, Adam, Tensor, grad
from repro.nn import functional as F

__all__ = ["ARBaseline"]


class ARBaseline(GenerativeModel):
    """MLP auto-regression of order ``p`` conditioned on attributes."""

    name = "AR"

    def __init__(self, p: int = 3, hidden: tuple[int, ...] = (200, 200, 200, 200),
                 learning_rate: float = 1e-3, batch_size: int = 100,
                 iterations: int = 500, noise_scale: float = 1.0,
                 seed: int = 0):
        if p < 1:
            raise ValueError("AR order p must be >= 1")
        self.p = p
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.iterations = iterations
        self.noise_scale = noise_scale
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.attribute_sampler = EmpiricalAttributeSampler()
        self.encoder = None
        self.schema = None
        self.mlp: MLP | None = None
        self._residual_std: np.ndarray | None = None
        self._first_mean: np.ndarray | None = None
        self._first_std: np.ndarray | None = None
        self.loss_history: list[float] = []

    # -- training -----------------------------------------------------------
    def fit(self, dataset: TimeSeriesDataset) -> "ARBaseline":
        rng = np.random.default_rng(self.seed)
        self.schema = dataset.schema
        self.encoder = make_baseline_encoder(dataset.schema).fit(dataset)
        encoded = self.encoder.transform(dataset)
        attrs, feats, lengths = (encoded.attributes, encoded.features,
                                 encoded.lengths)
        dim = feats.shape[2]

        inputs, targets = [], []
        for i in range(len(feats)):
            history = np.zeros((self.p, dim))
            for t in range(lengths[i]):
                inputs.append(np.concatenate([attrs[i], history.ravel()]))
                targets.append(feats[i, t])
                history = np.roll(history, -1, axis=0)
                history[-1] = feats[i, t]
        x = np.asarray(inputs)
        y = np.asarray(targets)

        self._build(rng)
        optimizer = Adam(self.mlp.parameters(), lr=self.learning_rate)
        params = self.mlp.parameters()
        self.loss_history = []
        for _ in range(self.iterations):
            idx = rng.integers(0, len(x), size=min(self.batch_size, len(x)))
            pred = self.mlp(Tensor(x[idx]))
            loss = F.mse_loss(pred, Tensor(y[idx]))
            optimizer.step(grad(loss, params))
            self.loss_history.append(loss.item())

        # Residual scale for the white-noise term and the R1 Gaussian.
        preds = self._predict_numpy(x)
        self._residual_std = (y - preds).std(axis=0) + 1e-6
        firsts = feats[np.arange(len(feats)), 0]
        self._first_mean = firsts.mean(axis=0)
        self._first_std = firsts.std(axis=0) + 1e-6
        self.attribute_sampler.fit(dataset)
        return self

    def _build(self, rng: np.random.Generator) -> None:
        dim = self.encoder.feature_dim
        self.mlp = MLP(self.encoder.attribute_dim + self.p * dim,
                       list(self.hidden), dim, rng=rng)

    def _config(self) -> dict:
        return {"p": self.p, "hidden": list(self.hidden),
                "learning_rate": self.learning_rate,
                "batch_size": self.batch_size,
                "iterations": self.iterations,
                "noise_scale": self.noise_scale, "seed": self.seed}

    def _modules(self) -> dict:
        return {"mlp": self.mlp}

    def _arrays(self) -> dict:
        return {"ar::residual_std": self._residual_std,
                "ar::first_mean": self._first_mean,
                "ar::first_std": self._first_std}

    def _restore(self, arrays: dict) -> None:
        self._build(np.random.default_rng(self.seed))
        self._residual_std = arrays["ar::residual_std"]
        self._first_mean = arrays["ar::first_mean"]
        self._first_std = arrays["ar::first_std"]

    def _predict_numpy(self, x: np.ndarray) -> np.ndarray:
        out = self.mlp(Tensor(x))
        return out.data

    # -- generation -----------------------------------------------------------
    def generate(self, n: int,
                 rng: np.random.Generator | None = None) -> TimeSeriesDataset:
        if self.mlp is None:
            raise RuntimeError("fit() must be called before generate()")
        rng = rng if rng is not None else self._rng
        tmax = self.schema.max_length
        dim = self.encoder.feature_dim
        attrs_raw = self.attribute_sampler.sample(n, rng)
        attrs_enc = self.encoder.encode_attributes(attrs_raw)

        features = np.zeros((n, tmax, dim))
        history = np.zeros((n, self.p, dim))
        record = np.clip(
            rng.normal(self._first_mean, self._first_std, size=(n, dim)),
            0.0, 1.0)
        alive = np.ones(n, dtype=bool)
        for t in range(tmax):
            features[alive, t] = record[alive]
            ended = record[:, -1] > record[:, -2]
            alive &= ~ended
            if not alive.any():
                break
            history = np.roll(history, -1, axis=1)
            history[:, -1] = record
            x = np.concatenate([attrs_enc, history.reshape(n, -1)], axis=1)
            pred = self._predict_numpy(x)
            noise = rng.normal(0.0, self._residual_std * self.noise_scale,
                               size=pred.shape)
            record = np.clip(pred + noise, 0.0, 1.0)
        minmax = np.zeros((n, 0))
        return self.encoder.inverse(attrs_enc, minmax, features)
