"""Encoding between raw datasets and the training representation.

Implements three paper mechanisms:

- one-hot encoding of categorical fields (softmax outputs on the generator
  side, §4.1.1);
- global normalisation of continuous fields to [0,1] or [-1,1] (Appendix B);
- **auto-normalisation** (§4.1.3): each continuous feature is scaled
  per-sample by its own min/max, and ``(max+min)/2`` / ``(max-min)/2`` are
  appended as two extra ("fake") attributes, generated by the dedicated
  min/max generator.  This is the paper's fix for mode collapse on data with
  wide dynamic range.

The encoded layout is:

- ``attributes``: (n, attribute_dim) one-hot blocks + scaled continuous.
- ``minmax``: (n, 2 * n_continuous_features) scaled half-sum/half-range pairs
  (empty when auto-normalisation is off).
- ``features``: (n, T_max, feature_dim + 2); the last two channels are the
  generation flags of §4.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import TimeSeriesDataset, generation_flags, padding_mask
from repro.data.schema import DataSchema

__all__ = ["EncodedDataset", "DataEncoder"]

_RANGE_EPS = 1e-8


def _internal(spec, values):
    """Map raw values to the encoder's internal space (log1p if asked)."""
    if getattr(spec, "log_transform", False):
        return np.log1p(np.maximum(values, 0.0))
    return values


def _external(spec, values):
    """Inverse of :func:`_internal`."""
    if getattr(spec, "log_transform", False):
        return np.expm1(values)
    return values


def _clamp_bounds(spec) -> tuple[float, float]:
    """The range decoded raw values of ``spec`` are clamped to, with
    ``-inf``/``inf`` where a bound is absent.

    The generator's continuous outputs are only softly bounded, so decoded
    values can leave the declared [low, high] range -- for log-transformed
    counters that even produces *negative* values from ``expm1``.  A
    log-transformed field is clamped at 0 even without a declared low,
    because ``log1p`` encoding already floored raw values there.
    """
    low = -np.inf if spec.low is None else spec.low
    if getattr(spec, "log_transform", False):
        low = max(low, 0.0)
    return low, np.inf if spec.high is None else spec.high


def _clamp_to_spec(spec, values: np.ndarray) -> np.ndarray:
    """Clamp decoded raw values to :func:`_clamp_bounds`."""
    low, high = _clamp_bounds(spec)
    return np.minimum(np.maximum(values, low), high)


@dataclass
class EncodedDataset:
    """Training-ready arrays produced by :class:`DataEncoder`."""

    attributes: np.ndarray  # (n, A)
    minmax: np.ndarray      # (n, M); M == 0 when auto-normalisation off
    features: np.ndarray    # (n, T, F + 2) with generation flags appended
    lengths: np.ndarray     # (n,)

    def __len__(self) -> int:
        return len(self.attributes)

    @property
    def attribute_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def minmax_dim(self) -> int:
        return self.minmax.shape[1]

    @property
    def feature_dim(self) -> int:
        """Per-step width including the two generation-flag channels."""
        return self.features.shape[2]

    @property
    def max_length(self) -> int:
        return self.features.shape[1]

    def batch(self, indices: np.ndarray) -> "EncodedDataset":
        return EncodedDataset(self.attributes[indices], self.minmax[indices],
                              self.features[indices], self.lengths[indices])


class DataEncoder:
    """Fit on a dataset, then transform/inverse-transform objects.

    Args:
        schema: The dataset schema.
        auto_normalize: Enable the §4.1.3 per-sample min/max mechanism.
        target_range: "zero_one" or "minus_one_one" for continuous outputs.
    """

    def __init__(self, schema: DataSchema, auto_normalize: bool = True,
                 target_range: str = "zero_one"):
        if target_range not in ("zero_one", "minus_one_one"):
            raise ValueError("target_range must be 'zero_one' or "
                             "'minus_one_one'")
        self.schema = schema
        self.auto_normalize = auto_normalize
        self.target_range = target_range
        self._fitted = False
        # Global bounds learned in fit().
        self._attr_low: dict[str, float] = {}
        self._attr_high: dict[str, float] = {}
        self._feat_low: dict[str, float] = {}
        self._feat_high: dict[str, float] = {}

    # -- fitting ---------------------------------------------------------
    def fit(self, dataset: TimeSeriesDataset) -> "DataEncoder":
        if dataset.schema != self.schema:
            raise ValueError("dataset schema does not match encoder schema")
        for spec in self.schema.attributes:
            if spec.is_categorical:
                continue
            column = _internal(spec, dataset.attribute_column(spec.name))
            low = (float(_internal(spec, spec.low)) if spec.low is not None
                   else float(column.min()))
            high = (float(_internal(spec, spec.high))
                    if spec.high is not None else float(column.max()))
            self._attr_low[spec.name], self._attr_high[spec.name] = (
                low, max(high, low + _RANGE_EPS))
        mask = padding_mask(dataset.lengths, self.schema.max_length) > 0
        for spec in self.schema.features:
            if spec.is_categorical:
                continue
            column = _internal(spec, dataset.feature_column(spec.name))
            valid = column[mask]
            low = (float(_internal(spec, spec.low)) if spec.low is not None
                   else float(valid.min()))
            high = (float(_internal(spec, spec.high))
                    if spec.high is not None else float(valid.max()))
            self._feat_low[spec.name], self._feat_high[spec.name] = (
                low, max(high, low + _RANGE_EPS))
        self._fitted = True
        return self

    def _require_fitted(self):
        if not self._fitted:
            raise RuntimeError("encoder must be fit() before use")

    # -- dimensions ------------------------------------------------------
    @property
    def attribute_dim(self) -> int:
        return self.schema.attribute_dimension

    @property
    def minmax_dim(self) -> int:
        if not self.auto_normalize:
            return 0
        return 2 * self.schema.continuous_feature_count

    @property
    def feature_dim(self) -> int:
        """Per-step encoded width including the 2 generation-flag channels."""
        return self.schema.feature_dimension + 2

    # -- scaling helpers ---------------------------------------------------
    def _scale(self, x: np.ndarray, low: float, high: float) -> np.ndarray:
        unit = (x - low) / (high - low)
        if self.target_range == "zero_one":
            return unit
        return 2.0 * unit - 1.0

    def _unscale(self, x: np.ndarray, low: float, high: float) -> np.ndarray:
        if self.target_range == "minus_one_one":
            x = (x + 1.0) / 2.0
        return x * (high - low) + low

    # -- transform ---------------------------------------------------------
    def transform(self, dataset: TimeSeriesDataset) -> EncodedDataset:
        """Encode a raw dataset into training arrays."""
        self._require_fitted()
        n = len(dataset)
        tmax = self.schema.max_length
        mask = padding_mask(dataset.lengths, tmax)

        attr_blocks = []
        for j, spec in enumerate(self.schema.attributes):
            column = dataset.attributes[:, j]
            if spec.is_categorical:
                attr_blocks.append(_one_hot(column, spec.dimension))
            else:
                scaled = self._scale(_internal(spec, column),
                                     self._attr_low[spec.name],
                                     self._attr_high[spec.name])
                attr_blocks.append(scaled[:, None])
        attributes = (np.concatenate(attr_blocks, axis=1) if attr_blocks
                      else np.zeros((n, 0)))

        minmax_parts = []
        feat_blocks = []
        for j, spec in enumerate(self.schema.features):
            column = dataset.features[:, :, j]
            if spec.is_categorical:
                block = _one_hot(column.reshape(-1), spec.dimension)
                block = block.reshape(n, tmax, spec.dimension)
                feat_blocks.append(block * mask[:, :, None])
                continue
            column = _internal(spec, column)
            low = self._feat_low[spec.name]
            high = self._feat_high[spec.name]
            if self.auto_normalize:
                smin, smax = _per_sample_bounds(column, mask)
                rng = np.maximum(smax - smin, _RANGE_EPS)
                unit = (column - smin[:, None]) / rng[:, None]
                half_sum = self._scale((smax + smin) / 2.0, low, high)
                # Half-range lives in [0, (high-low)/2]; scale accordingly.
                half_range = (smax - smin) / 2.0 / ((high - low) / 2.0)
                if self.target_range == "minus_one_one":
                    half_range = 2.0 * half_range - 1.0
                minmax_parts.extend([half_sum[:, None], half_range[:, None]])
            else:
                unit = (column - low) / (high - low)
            if self.target_range == "minus_one_one":
                scaled = 2.0 * unit - 1.0
            else:
                scaled = unit
            feat_blocks.append((scaled * mask)[:, :, None])

        flags = generation_flags(dataset.lengths, tmax)
        features = np.concatenate(feat_blocks + [flags], axis=2)
        minmax = (np.concatenate(minmax_parts, axis=1) if minmax_parts
                  else np.zeros((n, 0)))
        return EncodedDataset(attributes=attributes, minmax=minmax,
                              features=features,
                              lengths=dataset.lengths.copy())

    def encode_attributes(self, raw_attributes: np.ndarray) -> np.ndarray:
        """Encode raw attribute rows (n, m) to the training layout (n, A)."""
        self._require_fitted()
        raw = np.asarray(raw_attributes, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != len(self.schema.attributes):
            raise ValueError("raw attributes must be (n, m) with m matching "
                             "the schema")
        blocks = []
        for j, spec in enumerate(self.schema.attributes):
            column = raw[:, j]
            if spec.is_categorical:
                blocks.append(_one_hot(column, spec.dimension))
            else:
                blocks.append(self._scale(_internal(spec, column),
                                          self._attr_low[spec.name],
                                          self._attr_high[spec.name])[:, None])
        return (np.concatenate(blocks, axis=1) if blocks
                else np.zeros((len(raw), 0)))

    def decode_attributes(self, encoded: np.ndarray) -> np.ndarray:
        """Decode encoded attribute rows (n, A) back to raw values (n, m)."""
        self._require_fitted()
        encoded = np.asarray(encoded, dtype=np.float64)
        out = np.zeros((len(encoded), len(self.schema.attributes)))
        for j, (spec, sl) in enumerate(
                zip(self.schema.attributes,
                    self.schema.attribute_slices().values())):
            block = encoded[:, sl]
            if spec.is_categorical:
                out[:, j] = block.argmax(axis=1)
            else:
                out[:, j] = _clamp_to_spec(spec, _external(
                    spec, self._unscale(block[:, 0],
                                        self._attr_low[spec.name],
                                        self._attr_high[spec.name])))
        return out

    # -- serialisation -------------------------------------------------------
    def state(self) -> dict:
        """Fitted bounds as a plain dict (for model save/load)."""
        self._require_fitted()
        return {
            "attr_low": dict(self._attr_low),
            "attr_high": dict(self._attr_high),
            "feat_low": dict(self._feat_low),
            "feat_high": dict(self._feat_high),
        }

    def load_state(self, state: dict) -> "DataEncoder":
        self._attr_low = {k: float(v) for k, v in state["attr_low"].items()}
        self._attr_high = {k: float(v) for k, v in state["attr_high"].items()}
        self._feat_low = {k: float(v) for k, v in state["feat_low"].items()}
        self._feat_high = {k: float(v) for k, v in state["feat_high"].items()}
        self._fitted = True
        return self

    # -- inverse transform ---------------------------------------------------
    def inverse(self, attributes: np.ndarray, minmax: np.ndarray,
                features: np.ndarray) -> TimeSeriesDataset:
        """Decode generated arrays back to a raw :class:`TimeSeriesDataset`.

        ``features`` must include the two generation-flag channels; lengths
        are recovered as the first step whose end-flag dominates (§4.1.1).
        """
        self._require_fitted()
        attributes = np.asarray(attributes, dtype=np.float64)
        minmax = np.asarray(minmax, dtype=np.float64)
        features = np.asarray(features, dtype=np.float64)
        n, tmax = features.shape[0], features.shape[1]
        if tmax != self.schema.max_length:
            raise ValueError("generated series length != schema.max_length")

        lengths = _lengths_from_flags(features[:, :, -2:])
        mask = padding_mask(lengths, tmax)

        attr_out = np.zeros((n, len(self.schema.attributes)))
        for j, (spec, sl) in enumerate(
                zip(self.schema.attributes,
                    self.schema.attribute_slices().values())):
            block = attributes[:, sl]
            if spec.is_categorical:
                attr_out[:, j] = block.argmax(axis=1)
            else:
                attr_out[:, j] = _clamp_to_spec(spec, _external(
                    spec, self._unscale(block[:, 0],
                                        self._attr_low[spec.name],
                                        self._attr_high[spec.name])))

        feat_out = np.zeros((n, tmax, len(self.schema.features)))
        columns, offsets, specs = [], [], []
        offset = 0
        for j, spec in enumerate(self.schema.features):
            if spec.is_categorical:
                feat_out[:, :, j] = features[
                    :, :, offset:offset + spec.dimension].argmax(axis=2)
            else:
                columns.append(j)
                offsets.append(offset)
                specs.append(spec)
            offset += spec.dimension
        if specs:
            feat_out[:, :, columns] = self._inverse_continuous(
                specs, features[:, :, offsets], minmax) * mask[:, :, None]
        return TimeSeriesDataset(schema=self.schema, attributes=attr_out,
                                 features=feat_out, lengths=lengths)

    def _inverse_continuous(self, specs: list, unit: np.ndarray,
                            minmax: np.ndarray) -> np.ndarray:
        """Raw values of every continuous feature at once.

        ``unit`` is (n, T, K), the generator's output channel of each of
        the K continuous ``specs``; each element sees the operations the
        per-feature decoder applies, in the same order.
        """
        low = np.array([self._feat_low[spec.name] for spec in specs])
        high = np.array([self._feat_high[spec.name] for spec in specs])
        width = high - low
        if self.target_range == "minus_one_one":
            unit = (unit + 1.0) / 2.0
        if self.auto_normalize:
            # (half-sum, half-range) pairs, in continuous-feature order.
            half_sum = self._unscale(minmax[:, 0::2], low, high)
            half_range = minmax[:, 1::2]
            if self.target_range == "minus_one_one":
                half_range = (half_range + 1.0) / 2.0
            half_range = np.clip(half_range, 0.0, 1.0) * width / 2.0
            smin = half_sum - half_range
            smax = half_sum + half_range
            span = smax - smin
            values = smin[:, None, :] + unit * span[:, None, :]
            # Degenerate (constant-series) samples: a half-range below
            # the epsilon guard carries no scale information, so the
            # per-step unit values would only amplify generator noise.
            # Collapse such samples exactly onto their midpoint.
            degenerate = span < _RANGE_EPS
            if degenerate.any():
                values = np.where(degenerate[:, None, :],
                                  half_sum[:, None, :], values)
        else:
            values = low + unit * width
        logs = [k for k, spec in enumerate(specs)
                if getattr(spec, "log_transform", False)]
        if logs:
            values[:, :, logs] = np.expm1(values[:, :, logs])
        bounds = np.array([_clamp_bounds(spec) for spec in specs])
        return np.minimum(np.maximum(values, bounds[:, 0]), bounds[:, 1])


def _one_hot(indices: np.ndarray, dimension: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if (idx < 0).any() or (idx >= dimension).any():
        raise ValueError("categorical index out of range")
    out = np.zeros((len(idx), dimension), dtype=np.float64)
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _per_sample_bounds(column: np.ndarray, mask: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Min/max of each row over its valid (unpadded) steps."""
    masked = np.where(mask > 0, column, np.inf)
    smin = masked.min(axis=1)
    masked = np.where(mask > 0, column, -np.inf)
    smax = masked.max(axis=1)
    return smin, smax


def _lengths_from_flags(flags: np.ndarray) -> np.ndarray:
    """First step where the end flag dominates; max_length if never."""
    n, tmax = flags.shape[0], flags.shape[1]
    ends = flags[:, :, 1] > flags[:, :, 0]
    lengths = np.full(n, tmax, dtype=np.int64)
    has_end = ends.any(axis=1)
    lengths[has_end] = ends[has_end].argmax(axis=1) + 1
    return lengths
