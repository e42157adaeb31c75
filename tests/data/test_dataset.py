"""Tests for the TimeSeriesDataset container and generation flags."""

import numpy as np
import pytest

from repro.data.dataset import (TimeSeriesDataset, generation_flags,
                                padding_mask)
from repro.data.schema import CategoricalSpec, ContinuousSpec, DataSchema


SCHEMA = DataSchema(
    attributes=(CategoricalSpec("kind", ("a", "b")),),
    features=(ContinuousSpec("v", low=0.0),),
    max_length=5,
)


def make_dataset(n=4, lengths=None):
    rng = np.random.default_rng(0)
    lengths = np.array(lengths if lengths is not None else [5, 3, 1, 4])
    feats = rng.uniform(1, 2, size=(n, 5, 1))
    attrs = rng.integers(0, 2, size=(n, 1)).astype(float)
    return TimeSeriesDataset(schema=SCHEMA, attributes=attrs,
                             features=feats, lengths=lengths)


class TestValidation:
    def test_padding_enforced(self):
        ds = make_dataset()
        assert np.all(ds.features[1, 3:] == 0.0)
        assert np.all(ds.features[2, 1:] == 0.0)

    def test_attribute_column_count_checked(self):
        with pytest.raises(ValueError, match="columns"):
            TimeSeriesDataset(schema=SCHEMA,
                              attributes=np.zeros((2, 3)),
                              features=np.zeros((2, 5, 1)),
                              lengths=np.array([5, 5]))

    def test_feature_length_checked(self):
        with pytest.raises(ValueError, match="padded"):
            TimeSeriesDataset(schema=SCHEMA, attributes=np.zeros((2, 1)),
                              features=np.zeros((2, 4, 1)),
                              lengths=np.array([4, 4]))

    def test_lengths_bounds_checked(self):
        with pytest.raises(ValueError, match="lengths"):
            TimeSeriesDataset(schema=SCHEMA, attributes=np.zeros((2, 1)),
                              features=np.zeros((2, 5, 1)),
                              lengths=np.array([0, 5]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="agree on n"):
            TimeSeriesDataset(schema=SCHEMA, attributes=np.zeros((2, 1)),
                              features=np.zeros((3, 5, 1)),
                              lengths=np.array([5, 5, 5]))


class TestFiniteValues:
    """NaN/Inf must be rejected at construction, not trained on."""

    @pytest.fixture(scope="class")
    def gcut(self):
        from repro.data.simulators import generate_gcut
        return generate_gcut(40, np.random.default_rng(0), max_length=12)

    def test_nan_feature_inside_length_names_the_cell(self, gcut):
        features = gcut.features.copy()
        features[0, 0, :] = np.nan
        with pytest.raises(ValueError, match="object 0 step 0 feature "
                           f"'{gcut.schema.features[0].name}' is nan"):
            TimeSeriesDataset(gcut.schema, gcut.attributes, features,
                              gcut.lengths)

    def test_inf_feature_at_last_valid_step(self, gcut):
        features = gcut.features.copy()
        step = int(gcut.lengths[5]) - 1
        features[5, step, -1] = -np.inf
        name = gcut.schema.features[-1].name
        with pytest.raises(ValueError, match=f"object 5 step {step} "
                           f"feature '{name}' is -inf"):
            TimeSeriesDataset(gcut.schema, gcut.attributes, features,
                              gcut.lengths)

    def test_non_finite_attribute_names_the_field(self, gcut):
        attributes = gcut.attributes.copy()
        attributes[3, 0] = np.inf
        name = gcut.schema.attributes[0].name
        with pytest.raises(ValueError,
                           match=f"object 3 attribute '{name}' is inf"):
            TimeSeriesDataset(gcut.schema, attributes, gcut.features,
                              gcut.lengths)

    def test_non_finite_padding_becomes_zero(self, gcut):
        index = int(np.argmin(gcut.lengths))
        features = gcut.features.copy()
        features[index, gcut.lengths[index]:, :] = np.nan
        features[index, -1, 0] = np.inf
        dataset = TimeSeriesDataset(gcut.schema, gcut.attributes, features,
                                    gcut.lengths)
        assert np.array_equal(dataset.features, gcut.features)


class TestCategoricalCodes:
    """Categorical cells must hold a category index, checked like NaN."""

    SCHEMA = DataSchema(
        attributes=(CategoricalSpec("kind", ("a", "b")),
                    ContinuousSpec("size", low=0.0)),
        features=(ContinuousSpec("v", low=0.0),
                  CategoricalSpec("state", ("up", "down", "idle"))),
        max_length=4,
    )

    def _arrays(self):
        attributes = np.array([[0.0, 2.5], [1.0, 0.5], [1.0, 7.0]])
        features = np.zeros((3, 4, 2))
        features[:, :, 0] = 1.5
        features[:, :, 1] = [[0, 1, 2, 1], [2, 2, 0, 0], [1, 0, 0, 0]]
        return attributes, features, np.array([4, 2, 1])

    def test_valid_codes_are_accepted(self):
        dataset = TimeSeriesDataset(self.SCHEMA, *self._arrays())
        assert dataset.features[0, :, 1].tolist() == [0, 1, 2, 1]

    @pytest.mark.parametrize("code", [2.0, -1.0, 0.5])
    def test_attribute_code_names_the_field(self, code):
        attributes, features, lengths = self._arrays()
        attributes[1, 0] = code
        with pytest.raises(ValueError, match=(
                rf"object 1 attribute 'kind' is {code} \(categorical codes "
                r"must be integers in \[0, 2\)\)")):
            TimeSeriesDataset(self.SCHEMA, attributes, features, lengths)

    def test_continuous_attribute_is_not_a_code(self):
        attributes, features, lengths = self._arrays()
        attributes[2, 1] = 7.25
        TimeSeriesDataset(self.SCHEMA, attributes, features, lengths)

    @pytest.mark.parametrize("code", [3.0, 1.5])
    def test_feature_code_inside_length_names_the_cell(self, code):
        attributes, features, lengths = self._arrays()
        features[1, 1, 1] = code
        with pytest.raises(ValueError, match=(
                rf"object 1 step 1 feature 'state' is {code} "
                r"\(categorical codes must be integers in \[0, 3\)\)")):
            TimeSeriesDataset(self.SCHEMA, attributes, features, lengths)

    def test_feature_code_in_padding_becomes_zero(self):
        attributes, features, lengths = self._arrays()
        features[2, 1:, 1] = [9.0, -4.0, 0.5]
        dataset = TimeSeriesDataset(self.SCHEMA, attributes, features,
                                    lengths)
        assert dataset.features[2, :, 1].tolist() == [1.0, 0.0, 0.0, 0.0]


class TestAccessors:
    def test_len(self):
        assert len(make_dataset()) == 4

    def test_getitem_single(self):
        ds = make_dataset()
        one = ds[1]
        assert len(one) == 1
        assert one.lengths[0] == 3

    def test_getitem_array(self):
        ds = make_dataset()
        sub = ds[np.array([0, 2])]
        assert len(sub) == 2
        assert list(sub.lengths) == [5, 1]

    def test_subsample(self):
        ds = make_dataset()
        sub = ds.subsample(2, np.random.default_rng(0))
        assert len(sub) == 2

    def test_subsample_too_many_raises(self):
        with pytest.raises(ValueError, match="cannot subsample"):
            make_dataset().subsample(99, np.random.default_rng(0))

    def test_columns(self):
        ds = make_dataset()
        assert ds.attribute_column("kind").shape == (4,)
        assert ds.feature_column("v").shape == (4, 5)

    def test_concat(self):
        ds = make_dataset()
        both = ds.concat(ds)
        assert len(both) == 8


class TestPaddingMask:
    def test_mask_values(self):
        mask = padding_mask(np.array([3, 1]), 4)
        assert np.array_equal(mask, [[1, 1, 1, 0], [1, 0, 0, 0]])


class TestGenerationFlags:
    def test_flag_layout(self):
        flags = generation_flags(np.array([3]), 5)
        # steps 0,1: continue; step 2: end; steps 3,4: padding.
        assert np.array_equal(flags[0, :, 0], [1, 1, 0, 0, 0])
        assert np.array_equal(flags[0, :, 1], [0, 0, 1, 0, 0])

    def test_length_one(self):
        flags = generation_flags(np.array([1]), 3)
        assert np.array_equal(flags[0], [[0, 1], [0, 0], [0, 0]])

    def test_full_length(self):
        flags = generation_flags(np.array([4]), 4)
        assert flags[0, -1, 1] == 1.0
        assert flags[0, :3, 0].sum() == 3.0

    def test_flags_and_mask_consistent(self):
        lengths = np.array([1, 2, 5, 3])
        flags = generation_flags(lengths, 5)
        # Exactly one end flag per series, at position length-1.
        assert np.array_equal(flags[:, :, 1].sum(axis=1), np.ones(4))
        assert np.array_equal(flags[:, :, 1].argmax(axis=1), lengths - 1)
