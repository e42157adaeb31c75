"""The dataset abstraction of §3: objects = (attributes, feature time series).

A :class:`TimeSeriesDataset` stores *raw* (unencoded) values:

- ``attributes``: per-object attribute values. Categorical attributes are
  stored as integer category indices; continuous ones as floats.  Shape
  (n, m) float array (integer indices stored as floats).
- ``features``: per-object, per-step feature values, zero-padded to
  ``schema.max_length``.  Shape (n, T_max, K_raw) where K_raw counts raw
  columns (categorical features stored as a single index column).
- ``lengths``: the true length T^i of each series.

Encoding to the training representation (one-hot + normalisation + the
generation flags of §4.1.1) is done by :mod:`repro.data.encoding`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from repro.data.schema import DataSchema, schema_from_dict, schema_to_dict
from repro.npz import read_npz, write_npz

__all__ = ["TimeSeriesDataset", "generation_flags", "padding_mask"]


@dataclass
class TimeSeriesDataset:
    """A set of objects O_i = (A_i, R_i) under a shared schema."""

    schema: DataSchema
    attributes: np.ndarray
    features: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        self.attributes = np.asarray(self.attributes, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        n = len(self.attributes)
        if self.attributes.ndim != 2:
            raise ValueError("attributes must be 2-D (objects x fields)")
        if self.attributes.shape[1] != len(self.schema.attributes):
            raise ValueError(
                f"attributes have {self.attributes.shape[1]} columns, schema "
                f"declares {len(self.schema.attributes)} attribute fields")
        if self.features.shape[0] != n or self.lengths.shape[0] != n:
            raise ValueError("attributes, features, lengths must agree on n")
        if self.features.ndim != 3:
            raise ValueError("features must be 3-D (objects x time x fields)")
        if self.features.shape[1] != self.schema.max_length:
            raise ValueError(
                f"features padded to {self.features.shape[1]} steps, schema "
                f"says max_length={self.schema.max_length}")
        if self.features.shape[2] != len(self.schema.features):
            raise ValueError(
                f"features have {self.features.shape[2]} columns, schema "
                f"declares {len(self.schema.features)} feature fields")
        if (self.lengths < 1).any() or (self.lengths >
                                        self.schema.max_length).any():
            raise ValueError("lengths must be in [1, max_length]")
        mask = padding_mask(self.lengths, self.schema.max_length)
        padding = mask[:, :, None] == 0
        _reject_cells(self.attributes, np.isfinite(self.attributes),
                      self.schema.attributes, "attribute", _FINITE)
        _reject_cells(self.attributes,
                      _valid_codes(self.attributes, self.schema.attributes),
                      self.schema.attributes, "attribute", _CODES)
        # Enforce the paper's padding convention: zeros past the end.
        finite = np.isfinite(self.features)
        if not finite.all():
            _reject_cells(self.features, finite | padding,
                          self.schema.features, "feature", _FINITE)
            # Only padding is left to clear (NaN * 0 would stay NaN).
            self.features = np.where(finite, self.features, 0.0)
        _reject_cells(self.features,
                      _valid_codes(self.features, self.schema.features)
                      | padding, self.schema.features, "feature", _CODES)
        self.features = self.features * mask[:, :, None]

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, index) -> "TimeSeriesDataset":
        """Subset of objects (integer-array or slice indexing)."""
        if isinstance(index, (int, np.integer)):
            index = [int(index)]
        return TimeSeriesDataset(
            schema=self.schema,
            attributes=self.attributes[index],
            features=self.features[index],
            lengths=self.lengths[index],
        )

    def subsample(self, n: int, rng: np.random.Generator) -> "TimeSeriesDataset":
        """Uniformly subsample ``n`` objects without replacement."""
        if n > len(self):
            raise ValueError(f"cannot subsample {n} of {len(self)} objects")
        idx = rng.choice(len(self), size=n, replace=False)
        return self[idx]

    def attribute_column(self, name: str) -> np.ndarray:
        """Raw values of one attribute across all objects."""
        names = [f.name for f in self.schema.attributes]
        return self.attributes[:, names.index(name)]

    def feature_column(self, name: str) -> np.ndarray:
        """Raw values of one feature, shape (n, T_max)."""
        names = [f.name for f in self.schema.features]
        return self.features[:, :, names.index(name)]

    def to_bytes(self) -> bytes:
        """The dataset (arrays + schema) as npz archive bytes."""
        return write_npz({"__schema__": _schema_json(self.schema),
                          "attributes": self.attributes,
                          "features": self.features,
                          "lengths": self.lengths})

    @classmethod
    def from_bytes(cls, blob) -> "TimeSeriesDataset":
        """Inverse of :meth:`to_bytes`; raises ValueError for bytes that
        are not a dataset archive."""
        arrays = read_npz(blob)
        try:
            schema = _schema_from_json(arrays["__schema__"].tobytes())
            return cls(schema=schema, attributes=arrays["attributes"],
                       features=arrays["features"],
                       lengths=arrays["lengths"])
        except KeyError as exc:
            raise ValueError(
                f"not a dataset archive: no {exc} entry") from None
        except (TypeError, IndexError) as exc:
            raise ValueError(f"not a dataset archive ({exc})") from None

    def save(self, path) -> None:
        """Persist the dataset as :meth:`to_bytes` archive bytes.

        ``path`` is written exactly as given (no ``.npz`` is appended)
        and atomically; a writable binary handle is written in place.
        """
        blob = self.to_bytes()
        if hasattr(path, "write"):
            path.write(blob)
        else:
            # Imported lazily: repro.resilience imports the nn stack.
            from repro.resilience.atomic import write_atomic
            write_atomic(path, blob)

    @classmethod
    def load(cls, path) -> "TimeSeriesDataset":
        """Restore a dataset saved by :meth:`save` (a path or a readable
        binary handle)."""
        if hasattr(path, "read"):
            return cls.from_bytes(path.read())
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    def concat(self, other: "TimeSeriesDataset") -> "TimeSeriesDataset":
        if other.schema is not self.schema and other.schema != self.schema:
            raise ValueError("cannot concat datasets with different schemas")
        return TimeSeriesDataset(
            schema=self.schema,
            attributes=np.concatenate([self.attributes, other.attributes]),
            features=np.concatenate([self.features, other.features]),
            lengths=np.concatenate([self.lengths, other.lengths]),
        )


@functools.lru_cache(maxsize=64)
def _schema_json(schema: DataSchema) -> np.ndarray:
    """The ``__schema__`` entry of a dataset archive: the schema's JSON
    as a read-only uint8 array (schemas are frozen, so it is memoised)."""
    return np.frombuffer(json.dumps(schema_to_dict(schema)).encode("utf-8"),
                         dtype=np.uint8)


@functools.lru_cache(maxsize=64)
def _schema_from_json(raw: bytes) -> DataSchema:
    """Inverse of :func:`_schema_json` (memoised by the JSON bytes)."""
    try:
        return schema_from_dict(json.loads(raw.decode("utf-8")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"dataset archive has a malformed schema "
                         f"({exc!r})") from None


_FINITE = "values must be finite"
_CODES = "categorical codes must be integers in [0, {dimension})"


def _valid_codes(values: np.ndarray, specs) -> np.ndarray:
    """True where a cell is continuous or holds an integer category code
    in ``[0, n_categories)`` (the last axis of ``values`` is the field)."""
    ok = np.ones(values.shape, dtype=bool)
    for column, spec in enumerate(specs):
        if spec.is_categorical:
            codes = values[..., column]
            ok[..., column] = ((codes >= 0) & (codes < spec.dimension)
                               & (codes == np.floor(codes)))
    return ok


def _reject_cells(values: np.ndarray, ok: np.ndarray, specs, kind: str,
                  rule: str) -> None:
    """Raise naming the first cell of ``values`` that is not ``ok``."""
    if ok.all():
        return
    index = tuple(int(i) for i in np.argwhere(~ok)[0])
    step = f" step {index[1]}" if len(index) == 3 else ""
    spec = specs[index[-1]]
    raise ValueError(
        f"object {index[0]}{step} {kind} {spec.name!r} is "
        f"{values[index]} ({rule.format(dimension=spec.dimension)})")


def padding_mask(lengths: np.ndarray, max_length: int) -> np.ndarray:
    """Boolean-as-float mask, 1 for valid steps and 0 for padding."""
    steps = np.arange(max_length)
    return (steps[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)


def generation_flags(lengths: np.ndarray, max_length: int) -> np.ndarray:
    """The per-step generation flags of §4.1.1, shape (n, T_max, 2).

    Within a series the flag is [1, 0]; at the final step it is [0, 1];
    after the end both channels are zero-padded (like the features).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    flags = np.zeros((n, max_length, 2), dtype=np.float64)
    mask = padding_mask(lengths, max_length).astype(bool)
    flags[:, :, 0][mask] = 1.0
    rows = np.arange(n)
    flags[rows, lengths - 1, 0] = 0.0
    flags[rows, lengths - 1, 1] = 1.0
    return flags
