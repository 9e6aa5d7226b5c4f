"""Tests for the mergeable descriptive summaries."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.frame import Column
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.sketches import merge_all


@pytest.fixture
def sample_values():
    rng = np.random.default_rng(3)
    return rng.lognormal(1.0, 0.7, 4000)


class TestNumericSummary:
    def test_matches_numpy_and_scipy(self, sample_values):
        summary = NumericSummary.from_values(sample_values)
        assert summary.mean == pytest.approx(sample_values.mean())
        assert summary.std == pytest.approx(sample_values.std(ddof=1), rel=1e-9)
        assert summary.skewness == pytest.approx(scipy_stats.skew(sample_values), rel=1e-6)
        assert summary.kurtosis == pytest.approx(
            scipy_stats.kurtosis(sample_values), rel=1e-6)
        assert summary.minimum == sample_values.min()
        assert summary.maximum == sample_values.max()

    def test_merge_equals_whole(self, sample_values):
        whole = NumericSummary.from_values(sample_values)
        parts = [NumericSummary.from_values(chunk)
                 for chunk in np.array_split(sample_values, 7)]
        merged = merge_all(parts)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean)
        assert merged.variance == pytest.approx(whole.variance)
        assert merged.skewness == pytest.approx(whole.skewness, rel=1e-6)
        assert merged.kurtosis == pytest.approx(whole.kurtosis, rel=1e-6)
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    def test_missing_infinite_and_sign_counters(self):
        column = Column("x", [0.0, -3.0, float("inf"), None, 2.0])
        summary = NumericSummary.from_column(column)
        assert summary.missing == 1
        assert summary.infinite == 1
        assert summary.zeros == 1
        assert summary.negatives == 1
        assert summary.total == 5
        assert summary.missing_rate == pytest.approx(0.2)

    def test_empty_summary(self):
        summary = NumericSummary.from_values(np.array([]))
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.variance)
        assert math.isnan(summary.value_range)

    def test_constant_values_have_zero_spread(self):
        summary = NumericSummary.from_values(np.full(100, 7.0))
        assert summary.variance == pytest.approx(0.0)
        assert summary.skewness == 0.0
        assert summary.kurtosis == 0.0

    def test_as_dict_contains_all_statistics(self, sample_values):
        entry = NumericSummary.from_values(sample_values).as_dict()
        for key in ("mean", "std", "variance", "min", "max", "skewness",
                    "kurtosis", "missing", "zeros", "cv", "range"):
            assert key in entry


class TestCategoricalSummary:
    def test_counts_and_derived_statistics(self):
        summary = CategoricalSummary.from_values(
            ["a", "a", "b", "c", "a", "b"], missing=2)
        assert summary.count == 6
        assert summary.distinct == 3
        assert summary.missing_rate == pytest.approx(0.25)
        assert summary.mode() == "a"
        assert summary.top_values(2) == [("a", 3), ("b", 2)]
        assert summary.mean_length == pytest.approx(1.0)

    def test_merge_equals_whole(self):
        values = ["red"] * 10 + ["green"] * 5 + ["blue"] * 3
        whole = CategoricalSummary.from_values(values)
        merged = merge_all([
            CategoricalSummary.from_values(values[:6]),
            CategoricalSummary.from_values(values[6:12]),
            CategoricalSummary.from_values(values[12:]),
        ])
        assert merged.counts_by_label() == whole.counts_by_label()
        assert merged.entropy == pytest.approx(whole.entropy)
        assert merged.min_length == whole.min_length
        assert merged.max_length == whole.max_length

    def test_entropy_bounds(self):
        uniform = CategoricalSummary.from_values(["a", "b", "c", "d"])
        constant = CategoricalSummary.from_values(["a", "a", "a"])
        assert uniform.entropy == pytest.approx(2.0)
        assert constant.entropy == 0.0

    def test_from_column_skips_missing(self):
        column = Column("c", ["x", None, "y", "x"])
        summary = CategoricalSummary.from_column(column)
        assert summary.count == 3
        assert summary.missing == 1

    def test_empty_summary(self):
        summary = CategoricalSummary.from_values([])
        assert summary.distinct == 0
        assert summary.mode() is None
        assert math.isnan(summary.mean_length)
