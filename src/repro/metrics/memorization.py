"""Memorization check (§5.1 "DoppelGANger does not just memorize",
Figures 24-26): nearest-neighbour distances between generated samples and
the training set.  A memorizing model produces near-zero distances; a
generalising one does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NearestNeighborResult", "nearest_neighbors",
           "memorization_ratio", "normalise_rows"]


def normalise_rows(rows: np.ndarray) -> np.ndarray:
    """Z-score each row (one series) on its own, so neighbour distances
    compare shapes rather than scales."""
    mean = rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True) + 1e-9
    return (rows - mean) / std


@dataclass
class NearestNeighborResult:
    """Distances and indices of the top-k training neighbours per sample."""

    distances: np.ndarray  # (n_generated, k) squared errors, ascending
    indices: np.ndarray    # (n_generated, k)


def nearest_neighbors(generated: np.ndarray, training: np.ndarray,
                      k: int = 3) -> NearestNeighborResult:
    """Top-k nearest training series for each generated series.

    Both inputs are (n, T) single-feature matrices; distance is mean squared
    error over time steps (the paper's "square error").
    """
    generated = np.asarray(generated, dtype=np.float64)
    training = np.asarray(training, dtype=np.float64)
    for label, matrix in (("generated", generated), ("training", training)):
        if matrix.ndim != 2:
            raise ValueError(
                f"{label} must be a 2-D (n_samples, length) matrix, got "
                f"a {matrix.ndim}-D array of shape {matrix.shape}")
        if matrix.shape[0] == 0:
            raise ValueError(f"{label} is empty; nearest_neighbors needs "
                             f"at least one sample on each side")
    if generated.shape[1] != training.shape[1]:
        raise ValueError("generated/training series lengths differ")
    if k > len(training):
        raise ValueError("k exceeds the number of training samples")
    # (n_gen, n_train) squared distances via the expansion trick.
    gg = (generated * generated).sum(axis=1)[:, None]
    tt = (training * training).sum(axis=1)[None, :]
    cross = generated @ training.T
    d2 = np.maximum(gg + tt - 2 * cross, 0.0) / generated.shape[1]
    order = np.argsort(d2, axis=1)[:, :k]
    rows = np.arange(len(generated))[:, None]
    return NearestNeighborResult(distances=d2[rows, order], indices=order)


def memorization_ratio(generated: np.ndarray, training: np.ndarray,
                       holdout: np.ndarray) -> float:
    """Ratio of mean NN-distance to training vs to a real holdout set.

    A value near (or above) 1 means generated samples are no closer to the
    training data than fresh real data is -- i.e. no memorization.  Values
    far below 1 flag copying.
    """
    for label, matrix in (("generated", generated), ("training", training),
                          ("holdout", holdout)):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(
                f"{label} must be a 2-D (n_samples, length) matrix, got "
                f"a {matrix.ndim}-D array of shape {matrix.shape}")
        if matrix.shape[0] == 0:
            raise ValueError(f"{label} is empty; memorization_ratio needs "
                             f"at least one sample in each set")
    to_train = nearest_neighbors(generated, training, k=1).distances.mean()
    baseline = nearest_neighbors(holdout, training, k=1).distances.mean()
    return float(to_train / (baseline + 1e-12))
