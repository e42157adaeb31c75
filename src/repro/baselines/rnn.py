"""RNN (teacher-forced LSTM) baseline (§2.2, §5.0.1).

An LSTM is trained with teacher forcing to predict the next encoded record
from the previous one plus the attributes.  At generation time the model's
own outputs are fed back.  As the paper notes, this family "incorporates too
little randomness": the only stochasticity is the attribute draw and the
Gaussian first record, which is what makes it miss multi-modal structure
(Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (EmpiricalAttributeSampler, GenerativeModel,
                                  make_baseline_encoder)
from repro.data.dataset import TimeSeriesDataset, padding_mask
from repro.nn import LSTMCell, Linear, Adam, Tensor, grad, kernels, no_grad, ops
from repro.nn import functional as F

__all__ = ["RNNBaseline"]


class RNNBaseline(GenerativeModel):
    """Teacher-forced LSTM next-step predictor conditioned on attributes."""

    name = "RNN"

    def __init__(self, hidden_size: int = 100, learning_rate: float = 1e-3,
                 batch_size: int = 100, iterations: int = 200,
                 seed: int = 0):
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.iterations = iterations
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.attribute_sampler = EmpiricalAttributeSampler()
        self.encoder = None
        self.schema = None
        self.cell: LSTMCell | None = None
        self.readout: Linear | None = None
        self._first_mean: np.ndarray | None = None
        self._first_std: np.ndarray | None = None
        self.loss_history: list[float] = []

    def fit(self, dataset: TimeSeriesDataset) -> "RNNBaseline":
        rng = np.random.default_rng(self.seed)
        self.schema = dataset.schema
        self.encoder = make_baseline_encoder(dataset.schema).fit(dataset)
        encoded = self.encoder.transform(dataset)
        attrs, feats, lengths = (encoded.attributes, encoded.features,
                                 encoded.lengths)
        n, tmax, dim = feats.shape

        self._build(rng)
        params = self.cell.parameters() + self.readout.parameters()
        optimizer = Adam(params, lr=self.learning_rate)

        mask_all = padding_mask(lengths, tmax)
        self.loss_history = []
        for _ in range(self.iterations):
            idx = rng.integers(0, n, size=min(self.batch_size, n))
            mask = mask_all[idx]
            loss = self._fused_loss(attrs[idx], feats[idx], mask)
            optimizer.step(grad(loss, params))
            self.loss_history.append(loss.item())

        firsts = feats[np.arange(n), 0]
        self._finalize_fit(dataset, firsts)
        return self

    def _build(self, rng: np.random.Generator) -> None:
        dim = self.encoder.feature_dim
        self.cell = LSTMCell(self.encoder.attribute_dim + dim,
                             self.hidden_size, rng=rng)
        self.readout = Linear(self.hidden_size, dim, rng=rng)

    def _config(self) -> dict:
        return {"hidden_size": self.hidden_size,
                "learning_rate": self.learning_rate,
                "batch_size": self.batch_size,
                "iterations": self.iterations, "seed": self.seed}

    def _modules(self) -> dict:
        return {"cell": self.cell, "readout": self.readout}

    def _arrays(self) -> dict:
        return {"rnn::first_mean": self._first_mean,
                "rnn::first_std": self._first_std}

    def _restore(self, arrays: dict) -> None:
        self._build(np.random.default_rng(self.seed))
        self._first_mean = arrays["rnn::first_mean"]
        self._first_std = arrays["rnn::first_std"]

    def _fused_loss(self, attrs: np.ndarray, feats: np.ndarray,
                    mask: np.ndarray) -> Tensor:
        """Masked next-step MSE via one fused LSTM scan.

        Teacher forcing means every step's input -- [attributes, previous
        *target* record] -- is known up front, so the whole batch runs as a
        single :func:`repro.nn.kernels.lstm_sequence` node with the readout
        applied to all steps at once.
        """
        batch, _, dim = feats.shape
        t_used = max(int(mask.sum(axis=1).max()), 1)
        prev = np.zeros((batch, t_used, dim))
        prev[:, 1:] = feats[:, :t_used - 1]
        cond = np.repeat(attrs[:, None, :], t_used, axis=1)
        inputs = Tensor(np.concatenate([cond, prev], axis=2))
        h0, c0 = self.cell.initial_state(batch)
        h_seq = kernels.lstm_sequence(inputs, h0, c0, self.cell.weight_ih,
                                      self.cell.weight_hh, self.cell.bias)
        flat_h = ops.reshape(h_seq, (batch * t_used, -1))
        pred = ops.sigmoid(self.readout(flat_h))
        diff = ((ops.reshape(pred, (batch, t_used, dim))
                 - Tensor(feats[:, :t_used]))
                * Tensor(mask[:, :t_used, None].astype(np.float64)))
        denom = float(mask.sum() * dim)
        return (diff * diff).sum() / Tensor(denom)

    def _finalize_fit(self, dataset: TimeSeriesDataset,
                      firsts: np.ndarray) -> None:
        self._first_mean = firsts.mean(axis=0)
        self._first_std = firsts.std(axis=0) + 1e-6
        self.attribute_sampler.fit(dataset)

    def generate(self, n: int,
                 rng: np.random.Generator | None = None) -> TimeSeriesDataset:
        if self.cell is None:
            raise RuntimeError("fit() must be called before generate()")
        rng = rng if rng is not None else self._rng
        tmax = self.schema.max_length
        dim = self.encoder.feature_dim
        attrs_raw = self.attribute_sampler.sample(n, rng)
        attrs_enc = self.encoder.encode_attributes(attrs_raw)

        features = np.zeros((n, tmax, dim))
        record = np.clip(
            rng.normal(self._first_mean, self._first_std, size=(n, dim)),
            0.0, 1.0)
        alive = np.ones(n, dtype=bool)
        with no_grad():
            a = Tensor(attrs_enc)
            state = self.cell.initial_state(n)
            for t in range(tmax):
                features[alive, t] = record[alive]
                ended = record[:, -1] > record[:, -2]
                alive &= ~ended
                if not alive.any():
                    break
                h, c = self.cell(ops.concat([a, Tensor(record)], axis=1),
                                 state)
                state = (h, c)
                record = ops.sigmoid(self.readout(h)).data
        minmax = np.zeros((n, 0))
        return self.encoder.inverse(attrs_enc, minmax, features)
