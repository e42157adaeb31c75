"""Hidden Markov model baseline (§2.2, §5.0.1).

A diagonal-covariance Gaussian HMM trained with Baum-Welch (EM with scaled
forward-backward) on the encoded feature sequences *including* the two
generation-flag channels, which is "the same technique discussed in §4.1.1"
the paper uses to give every baseline variable-length generation.

Attributes are drawn from the empirical training distribution, independent
of the series -- exactly the paper's HMM configuration.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (EmpiricalAttributeSampler, GenerativeModel,
                                  make_baseline_encoder)
from repro.data.dataset import TimeSeriesDataset

__all__ = ["GaussianHMM", "HMMBaseline"]

_VAR_FLOOR = 1e-4


class GaussianHMM:
    """Diagonal-covariance Gaussian HMM with Baum-Welch training."""

    def __init__(self, n_states: int = 10, n_iter: int = 20,
                 seed: int = 0):
        if n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.n_states = n_states
        self.n_iter = n_iter
        self.seed = seed
        self.start_prob: np.ndarray | None = None
        self.transition: np.ndarray | None = None
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None

    # -- training --------------------------------------------------------
    def fit(self, sequences: list[np.ndarray]) -> "GaussianHMM":
        """Run EM on a list of (T_i, D) float arrays."""
        if not sequences:
            raise ValueError("no training sequences")
        rng = np.random.default_rng(self.seed)
        dim = sequences[0].shape[1]
        stacked = np.concatenate(sequences, axis=0)
        k = self.n_states
        # Initialise means from random data points, variances from data.
        idx = rng.choice(len(stacked), size=k, replace=len(stacked) < k)
        self.means = stacked[idx].copy()
        self.variances = np.tile(stacked.var(axis=0) + _VAR_FLOOR, (k, 1))
        self.start_prob = np.full(k, 1.0 / k)
        self.transition = rng.dirichlet(np.full(k, 5.0), size=k)

        for _ in range(self.n_iter):
            start_acc = np.zeros(k)
            trans_acc = np.zeros((k, k))
            gamma_sum = np.zeros(k)
            mean_acc = np.zeros((k, dim))
            sq_acc = np.zeros((k, dim))
            for seq in sequences:
                gamma, xi_sum, _ = self._e_step(seq)
                start_acc += gamma[0]
                trans_acc += xi_sum
                gamma_sum += gamma.sum(axis=0)
                mean_acc += gamma.T @ seq
                sq_acc += gamma.T @ (seq * seq)
            self.start_prob = _normalize(start_acc)
            self.transition = _normalize(trans_acc, axis=1)
            denom = gamma_sum[:, None] + 1e-12
            self.means = mean_acc / denom
            self.variances = np.maximum(
                sq_acc / denom - self.means ** 2, _VAR_FLOOR)
        return self

    def _emission_prob(self, seq: np.ndarray) -> np.ndarray:
        """p(x_t | state), shape (T, K), computed via stable log-density."""
        diff = seq[:, None, :] - self.means[None, :, :]
        log_p = -0.5 * (
            (diff * diff / self.variances[None, :, :]).sum(axis=2)
            + np.log(2 * np.pi * self.variances).sum(axis=1)[None, :])
        log_p -= log_p.max(axis=1, keepdims=True)
        return np.exp(log_p) + 1e-300

    def _e_step(self, seq: np.ndarray):
        """Scaled forward-backward; returns (gamma, xi summed over t, ll)."""
        emission = self._emission_prob(seq)
        steps = len(seq)
        k = self.n_states
        alpha = np.zeros((steps, k))
        scale = np.zeros(steps)
        alpha[0] = self.start_prob * emission[0]
        scale[0] = alpha[0].sum() + 1e-300
        alpha[0] /= scale[0]
        for t in range(1, steps):
            alpha[t] = (alpha[t - 1] @ self.transition) * emission[t]
            scale[t] = alpha[t].sum() + 1e-300
            alpha[t] /= scale[t]
        beta = np.zeros((steps, k))
        beta[-1] = 1.0
        for t in range(steps - 2, -1, -1):
            beta[t] = (self.transition @ (emission[t + 1]
                                          * beta[t + 1])) / scale[t + 1]
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True) + 1e-300
        xi_sum = np.zeros((k, k))
        for t in range(steps - 1):
            xi = (alpha[t][:, None] * self.transition
                  * (emission[t + 1] * beta[t + 1])[None, :]) / scale[t + 1]
            xi_sum += xi / (xi.sum() + 1e-300)
        return gamma, xi_sum, float(np.log(scale).sum())

    def log_likelihood(self, seq: np.ndarray) -> float:
        return self._e_step(seq)[2]

    # -- sampling ------------------------------------------------------------
    def sample(self, max_steps: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one emission sequence of exactly ``max_steps`` steps."""
        k = self.n_states
        out = np.zeros((max_steps, self.means.shape[1]))
        state = rng.choice(k, p=self.start_prob)
        for t in range(max_steps):
            out[t] = rng.normal(self.means[state],
                                np.sqrt(self.variances[state]))
            state = rng.choice(k, p=self.transition[state])
        return out


class HMMBaseline(GenerativeModel):
    """The paper's HMM baseline over encoded features + generation flags."""

    name = "HMM"

    def __init__(self, n_states: int = 10, n_iter: int = 20, seed: int = 0):
        self.hmm = GaussianHMM(n_states=n_states, n_iter=n_iter, seed=seed)
        self._rng = np.random.default_rng(seed)
        self.attribute_sampler = EmpiricalAttributeSampler()
        self.encoder = None
        self.schema = None

    def fit(self, dataset: TimeSeriesDataset) -> "HMMBaseline":
        self.schema = dataset.schema
        self.encoder = make_baseline_encoder(dataset.schema).fit(dataset)
        encoded = self.encoder.transform(dataset)
        sequences = [encoded.features[i, :encoded.lengths[i]]
                     for i in range(len(encoded))]
        self.hmm.fit(sequences)
        self.attribute_sampler.fit(dataset)
        return self

    def generate(self, n: int,
                 rng: np.random.Generator | None = None) -> TimeSeriesDataset:
        if self.encoder is None:
            raise RuntimeError("fit() must be called before generate()")
        rng = rng if rng is not None else self._rng
        tmax = self.schema.max_length
        dim = self.encoder.feature_dim
        features = np.zeros((n, tmax, dim))
        for i in range(n):
            seq = self.hmm.sample(tmax, rng)
            end = _first_end_step(seq[:, -2:])
            seq[end + 1:] = 0.0
            # Clean the flag channels so decoding sees a crisp end marker.
            seq[:end, -2:] = [1.0, 0.0]
            seq[end, -2:] = [0.0, 1.0]
            features[i] = seq
        attrs_raw = self.attribute_sampler.sample(n, rng)
        attrs_enc = self.encoder.encode_attributes(attrs_raw)
        minmax = np.zeros((n, 0))
        return self.encoder.inverse(attrs_enc, minmax, features)

    def _config(self) -> dict:
        return {"n_states": self.hmm.n_states, "n_iter": self.hmm.n_iter,
                "seed": self.hmm.seed}

    def _arrays(self) -> dict:
        return {"hmm::start": self.hmm.start_prob,
                "hmm::transition": self.hmm.transition,
                "hmm::means": self.hmm.means,
                "hmm::variances": self.hmm.variances}

    def _restore(self, arrays: dict) -> None:
        self.hmm.start_prob = arrays["hmm::start"]
        self.hmm.transition = arrays["hmm::transition"]
        self.hmm.means = arrays["hmm::means"]
        self.hmm.variances = arrays["hmm::variances"]


def _first_end_step(flags: np.ndarray) -> int:
    """Index of the first step whose end flag dominates (or the last step)."""
    ends = flags[:, 1] > flags[:, 0]
    if ends.any():
        return int(ends.argmax())
    return len(flags) - 1


def _normalize(x: np.ndarray, axis=None) -> np.ndarray:
    """Normalise to a probability vector; empty mass becomes uniform."""
    total = x.sum(axis=axis, keepdims=axis is not None)
    out = x / (total + 1e-300)
    if axis is None:
        if total <= 0:
            out = np.full_like(x, 1.0 / x.size)
        return out / out.sum()
    dead = np.asarray(total).squeeze(axis) <= 0
    if np.any(dead):
        out[dead] = 1.0 / x.shape[axis]
    return out / out.sum(axis=axis, keepdims=True)
