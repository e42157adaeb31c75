"""Tests for autocorrelation metrics."""

import warnings

import numpy as np
import pytest

from repro.metrics import (autocorrelation_mse, average_autocorrelation,
                           series_autocorrelation)


class TestSeriesAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        acf = series_autocorrelation(rng.normal(size=100), max_lag=5)
        assert np.isclose(acf[0], 1.0)

    def test_periodic_signal_peaks_at_period(self):
        t = np.arange(200)
        signal = np.sin(2 * np.pi * t / 10)
        acf = series_autocorrelation(signal, max_lag=15)
        assert acf[10] > 0.9
        assert acf[5] < -0.9

    def test_white_noise_decorrelates(self):
        rng = np.random.default_rng(1)
        acf = series_autocorrelation(rng.normal(size=5000), max_lag=10)
        assert np.abs(acf[1:]).max() < 0.1

    def test_constant_series_is_nan(self):
        acf = series_autocorrelation(np.full(10, 3.0), max_lag=3)
        assert np.isnan(acf).all()

    def test_too_short_series_is_nan(self):
        acf = series_autocorrelation(np.array([1.0]), max_lag=3)
        assert np.isnan(acf).all()

    def test_lags_beyond_length_are_nan(self):
        acf = series_autocorrelation(np.array([1.0, 2.0, 1.5]), max_lag=5)
        assert np.isfinite(acf[:3]).all()
        assert np.isnan(acf[3:]).all()


class TestAverageAutocorrelation:
    def test_averages_over_samples(self):
        t = np.arange(100)
        batch = np.stack([np.sin(2 * np.pi * (t + phase) / 8)
                          for phase in range(5)])
        acf = average_autocorrelation(batch, max_lag=10)
        assert acf[8] > 0.9

    def test_respects_lengths(self):
        """Padding zeros must not pollute the ACF."""
        series = np.zeros((1, 50))
        series[0, :10] = np.sin(np.arange(10))
        with_lengths = average_autocorrelation(series, np.array([10]),
                                               max_lag=5)
        padded = average_autocorrelation(series, max_lag=5)
        assert not np.allclose(with_lengths[:4], padded[:4])

    def test_skips_degenerate_series(self):
        batch = np.stack([np.full(20, 1.0),
                          np.sin(np.arange(20.0))])
        acf = average_autocorrelation(batch, max_lag=5)
        assert np.isfinite(acf).all()  # constant row ignored via nanmean

    def test_unreached_lags_are_nan_without_warning(self):
        """Lags past every series' length average to NaN silently."""
        batch = np.sin(np.arange(30.0)).reshape(3, 10)
        lengths = np.array([3, 4, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acf = average_autocorrelation(batch, lengths, max_lag=6)
        assert np.isfinite(acf[:4]).all()
        assert np.isnan(acf[4:]).all()
        acfs = [series_autocorrelation(row[:n], 6)
                for row, n in zip(batch, lengths)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.nanmean(acfs, axis=0)
        assert acf.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_lag", [None, 0, 1, 5, 23, 40])
    def test_ragged_batch_matches_per_series_reference(self, max_lag):
        """Bit for bit the per-series ACFs averaged in sample order, on
        every length from 0 to the full width (several series share
        each), constant rows, and lags beyond a series' length."""
        rng = np.random.default_rng(8)
        tmax = 24
        lengths = np.concatenate([np.arange(tmax + 1),
                                  rng.integers(0, tmax + 1, 30)])
        rng.shuffle(lengths)
        batch = rng.normal(size=(len(lengths), tmax)) * 5 + 3
        batch[::7] = 2.5                           # constant rows
        batch[3, :lengths[3]] = np.arange(lengths[3]) % 2  # alternating
        lag = tmax - 1 if max_lag is None else max_lag
        acfs = np.stack([series_autocorrelation(row[:n], lag)
                         for row, n in zip(batch, lengths)])
        missing = np.isnan(acfs)
        with np.errstate(invalid="ignore"):
            expected = (np.where(missing, 0.0, acfs).sum(axis=0)
                        / (~missing).sum(axis=0))
        acf = average_autocorrelation(batch, lengths, max_lag=max_lag)
        assert acf.shape == (lag + 1,)
        assert acf.tobytes() == expected.tobytes()

    def test_full_length_default_matches_reference(self):
        batch = np.random.default_rng(9).normal(size=(17, 33))
        expected = np.mean(np.stack([series_autocorrelation(row, 32)
                                     for row in batch]), axis=0)
        acf = average_autocorrelation(batch)
        assert acf.tobytes() == expected.tobytes()


class TestAutocorrelationMSE:
    def test_zero_for_identical(self):
        acf = np.array([1.0, 0.5, 0.2])
        assert autocorrelation_mse(acf, acf) == 0.0

    def test_known_value(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert autocorrelation_mse(a, b) == pytest.approx(0.5)

    def test_ignores_nan_lags(self):
        a = np.array([1.0, 0.5, np.nan])
        b = np.array([1.0, 0.0, 0.7])
        assert autocorrelation_mse(a, b) == pytest.approx(0.125)

    def test_all_nan_raises(self):
        with pytest.raises(ValueError, match="finite"):
            autocorrelation_mse(np.array([np.nan]), np.array([1.0]))
