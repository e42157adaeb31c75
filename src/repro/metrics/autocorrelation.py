"""Autocorrelation metrics (Figure 1, Figure 4).

The paper's headline fidelity microbenchmark: the autocorrelation function
of each series, averaged over all samples.  DoppelGANger should capture both
the short-period (weekly) spikes and the long-period (annual) peak; the
Figure-4 ablation scores models by the mean squared error between generated
and real average ACFs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["series_autocorrelation", "average_autocorrelation",
           "autocorrelation_mse"]


def series_autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample ACF of one 1-D series for lags 0..max_lag (NaN when undefined)."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    out = np.full(max_lag + 1, np.nan)
    if n < 2:
        return out
    centred = series - series.mean()
    denom = float((centred * centred).sum())
    if denom <= 0:
        return out
    limit = min(max_lag, n - 1)
    for lag in range(limit + 1):
        out[lag] = float((centred[: n - lag] * centred[lag:]).sum()) / denom
    return out


def average_autocorrelation(features: np.ndarray,
                            lengths: np.ndarray | None = None,
                            max_lag: int | None = None) -> np.ndarray:
    """Per-series ACF averaged over samples (the Figure-1 curve).

    Series of one length are handled together: one row-wise centring,
    then one product and row sum per lag.  Each row reduces exactly as
    :func:`series_autocorrelation` reduces that series alone, so the
    result is bit-identical to averaging the per-series ACFs.

    Args:
        features: (n, T) array of one feature column.
        lengths: Valid lengths per series (defaults to full T).
        max_lag: Largest lag (defaults to T - 1).
    """
    features = np.asarray(features, dtype=np.float64)
    n, tmax = features.shape
    if lengths is None:
        lengths = np.full(n, tmax, dtype=np.int64)
    lengths = np.minimum(lengths, tmax)
    if max_lag is None:
        max_lag = tmax - 1
    acfs = np.full((n, max_lag + 1), np.nan)
    for length in np.unique(lengths):
        length = int(length)
        if length < 2:
            continue
        rows = np.flatnonzero(lengths == length)
        series = features[rows, :length]
        centred = series - series.mean(axis=1, keepdims=True)
        denom = (centred * centred).sum(axis=1)
        varying = denom > 0
        if not varying.all():
            rows, centred, denom = (rows[varying], centred[varying],
                                    denom[varying])
        for lag in range(min(max_lag, length - 1) + 1):
            acfs[rows, lag] = ((centred[:, :length - lag]
                                * centred[:, lag:]).sum(axis=1) / denom)
    # np.nanmean's arithmetic, spelled out: a lag no series reaches is
    # 0 / 0 = NaN, where nanmean would also warn "Mean of empty slice".
    missing = np.isnan(acfs)
    totals = np.where(missing, 0.0, acfs).sum(axis=0)
    with np.errstate(invalid="ignore"):
        return totals / (~missing).sum(axis=0)


def autocorrelation_mse(real_acf: np.ndarray,
                        synthetic_acf: np.ndarray) -> float:
    """MSE between two average-ACF curves over their shared finite lags."""
    real_acf = np.asarray(real_acf, dtype=np.float64)
    synthetic_acf = np.asarray(synthetic_acf, dtype=np.float64)
    k = min(len(real_acf), len(synthetic_acf))
    a, b = real_acf[:k], synthetic_acf[:k]
    valid = np.isfinite(a) & np.isfinite(b)
    if not valid.any():
        raise ValueError("no overlapping finite lags to compare")
    diff = a[valid] - b[valid]
    return float((diff * diff).mean())
