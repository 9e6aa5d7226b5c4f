"""Tests for the Column type."""

import math

import numpy as np
import pytest

from repro.errors import DTypeError, FrameError
from repro.frame import Column, DType


class TestConstruction:
    def test_from_list_infers_dtype(self):
        column = Column("x", [1, 2, 3])
        assert column.dtype is DType.INT
        assert len(column) == 3

    def test_from_numpy_array(self):
        column = Column("x", np.array([1.0, np.nan, 3.0]))
        assert column.dtype is DType.FLOAT
        assert column.missing_count() == 1

    def test_object_array_decodes_its_cells(self):
        column = Column("x", np.array(["b", "NA", "a"], dtype=object))
        assert column.dtype is DType.STRING
        assert column.to_list() == ["b", None, "a"]
        assert column.dictionary.tolist() == ["a", "b"]

    @pytest.mark.parametrize("dtype", [float, object])
    def test_2d_array_is_rejected(self, dtype):
        with pytest.raises(DTypeError, match="one-dimensional"):
            Column("x", np.empty((2, 2), dtype=dtype))

    def test_explicit_dtype(self):
        column = Column("x", ["1", "2"], dtype=DType.STRING)
        assert column.to_list() == ["1", "2"]

    def test_float_nan_and_mask_stay_consistent(self):
        column = Column("x", [1.0, None, float("nan")])
        assert column.missing_count() == 2
        assert column.count() == 1

    def test_rename_shares_data(self):
        column = Column("x", [1, 2])
        renamed = column.rename("y")
        assert renamed.name == "y"
        assert renamed.data is column.data

    def test_columns_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Column("x", [1]))


class TestIndexing:
    def test_scalar_access_returns_python_values(self, numeric_column):
        assert numeric_column[0] == 10.0
        assert numeric_column[6] is None

    def test_slice_returns_column(self, numeric_column):
        head = numeric_column[:3]
        assert isinstance(head, Column)
        assert len(head) == 3

    def test_boolean_filter(self, numeric_column):
        mask = numeric_column.notna()
        filtered = numeric_column.filter(mask)
        assert filtered.missing_count() == 0
        assert len(filtered) == numeric_column.count()

    def test_filter_length_mismatch_raises(self, numeric_column):
        with pytest.raises(FrameError):
            numeric_column.filter(np.array([True, False]))

    def test_take(self, numeric_column):
        taken = numeric_column.take([0, 8])
        assert taken.to_list() == [10.0, 100.0]

    def test_iteration_matches_to_list(self, categorical_column):
        assert list(categorical_column) == categorical_column.to_list()


class TestMissing:
    def test_missing_rate(self, numeric_column):
        assert numeric_column.missing_rate() == pytest.approx(0.2)

    def test_dropna(self, numeric_column):
        dropped = numeric_column.dropna()
        assert len(dropped) == 8
        assert dropped.missing_count() == 0

    def test_fillna(self, numeric_column):
        filled = numeric_column.fillna(0.0)
        assert filled.missing_count() == 0
        assert filled.count() == len(numeric_column)

    def test_empty_column_missing_rate_is_zero(self):
        assert Column("x", []).missing_rate() == 0.0


class TestReductions:
    def test_basic_statistics_match_numpy(self, numeric_column):
        values = np.array([10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 100.0, 12.0])
        assert numeric_column.mean() == pytest.approx(values.mean())
        assert numeric_column.std() == pytest.approx(values.std(ddof=1))
        assert numeric_column.sum() == pytest.approx(values.sum())
        assert numeric_column.min() == 10.0
        assert numeric_column.max() == 100.0
        assert numeric_column.count() == 8

    def test_quantile(self, numeric_column):
        values = np.array([10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 100.0, 12.0])
        assert numeric_column.quantile(0.5) == pytest.approx(np.quantile(values, 0.5))
        result = numeric_column.quantile([0.25, 0.75])
        assert result.shape == (2,)

    def test_skewness_and_kurtosis_are_finite(self, numeric_column):
        assert math.isfinite(numeric_column.skewness())
        assert math.isfinite(numeric_column.kurtosis())

    def test_skewness_of_symmetric_data_is_near_zero(self):
        column = Column("x", [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert column.skewness() == pytest.approx(0.0, abs=1e-9)

    def test_reductions_on_string_column_raise(self, categorical_column):
        with pytest.raises(DTypeError):
            categorical_column.mean()

    def test_all_missing_column_reductions(self):
        column = Column("x", [None, None])
        assert math.isnan(column.mean())
        assert column.min() is None
        assert column.sum() == 0.0

    def test_counters(self):
        column = Column("x", [0.0, -1.0, 2.0, float("inf"), None])
        assert column.zeros_count() == 1
        assert column.negatives_count() == 1
        assert column.infinite_count() == 1

    def test_min_max_on_strings(self, categorical_column):
        assert categorical_column.min() == "blue"
        assert categorical_column.max() == "red"


class TestValueCounts:
    def test_value_counts_sorted_descending(self, categorical_column):
        counts = categorical_column.value_counts()
        assert counts[0] == ("red", 3)
        assert dict(counts)["blue"] == 2

    def test_value_counts_excludes_missing(self, categorical_column):
        total = sum(count for _, count in categorical_column.value_counts())
        assert total == categorical_column.count()

    def test_nunique_and_unique(self, categorical_column):
        assert categorical_column.nunique() == 3
        assert set(categorical_column.unique()) == {"red", "blue", "green"}

    def test_mode(self, categorical_column):
        assert categorical_column.mode() == "red"

    def test_value_counts_numeric(self):
        column = Column("x", [3, 1, 3, 3, 1])
        assert column.value_counts()[0] == (3, 3)


class TestConversion:
    def test_astype_int_to_float(self):
        column = Column("x", [1, 2, None])
        converted = column.astype(DType.FLOAT)
        assert converted.dtype is DType.FLOAT
        assert converted.missing_count() == 1

    def test_astype_to_string(self):
        column = Column("x", [1, 2])
        assert column.astype(DType.STRING).to_list() == ["1", "2"]

    def test_astype_same_dtype_is_noop(self):
        column = Column("x", [1, 2])
        assert column.astype(DType.INT) is column

    def test_to_numpy_drop_missing(self, numeric_column):
        values = numeric_column.to_numpy(drop_missing=True)
        assert values.shape == (8,)

    def test_map(self):
        column = Column("x", [1, 2, None])
        doubled = column.map(lambda value: value * 2)
        assert doubled.to_list() == [2, 4, None]


class TestDescribe:
    def test_numeric_describe_keys(self, numeric_column):
        description = numeric_column.describe()
        for key in ("mean", "std", "median", "q25", "q75", "skewness", "missing"):
            assert key in description

    def test_categorical_describe_keys(self, categorical_column):
        description = categorical_column.describe()
        assert description["top"] == "red"
        assert description["top_freq"] == 3
        assert description["distinct"] == 3

    def test_equality(self):
        assert Column("x", [1, 2, None]) == Column("x", [1, 2, None])
        assert Column("x", [1, 2]) != Column("x", [1, 3])
        assert Column("x", [1]) != Column("y", [1])
