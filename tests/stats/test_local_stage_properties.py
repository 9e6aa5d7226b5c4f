"""The array-native local-stage kernels against their plain-list oracles.

``CategoricalSummary`` (sorted ``labels`` + ``counts`` arrays), the rank-once
``spearman_matrix`` and the group-refinement ``duplicate_row_count`` each
replaced a per-value / per-pair / whole-table formulation.  Everything here
pins them to ``tests/naive_reference.py`` (lists, Counter, no numpy) and, for
Spearman, bit for bit to the per-pair ``rankdata`` loop it replaced.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import datetime, timedelta

import naive_reference as naive
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.frame import Column, DataFrame, DType
from repro.stats.correlation import (
    _pearson_of,
    kendall_tau_matrix,
    spearman_matrix,
)
from repro.stats.descriptive import CategoricalSummary

# --------------------------------------------------------------------------- #
# Rank correlations
# --------------------------------------------------------------------------- #
#: Few distinct values (heavy ties), both zeros, and every non-finite kind.
cells = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, -3.0,
                         math.inf, -math.inf, math.nan])


@st.composite
def tied_matrices(draw):
    n_rows = draw(st.integers(min_value=0, max_value=24))
    n_columns = draw(st.integers(min_value=1, max_value=4))
    matrix = np.array(draw(st.lists(
        st.lists(cells, min_size=n_columns, max_size=n_columns),
        min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    matrix = matrix.reshape(n_rows, n_columns)
    if draw(st.booleans()):
        matrix[:, draw(st.integers(0, n_columns - 1))] = np.nan
    return matrix


def _per_pair_rankdata_spearman(matrix: np.ndarray) -> np.ndarray:
    """The formulation ``spearman_matrix`` replaced: rank both sides of
    every pair from scratch under the pair's joint mask."""
    n_columns = matrix.shape[1]
    result = np.eye(n_columns)
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            both = np.isfinite(matrix[:, i]) & np.isfinite(matrix[:, j])
            value = np.nan
            if both.sum() >= 2:
                value = _pearson_of(scipy_stats.rankdata(matrix[both, i]),
                                    scipy_stats.rankdata(matrix[both, j]))
            result[i, j] = result[j, i] = value
    return result


def _assert_matches_pairwise(matrix, ours, oracle):
    columns = [matrix[:, index].tolist() for index in range(matrix.shape[1])]
    for i, first in enumerate(columns):
        assert ours[i, i] == 1.0
        for j, second in enumerate(columns):
            if i != j:
                assert ours[i, j] == pytest.approx(
                    oracle(first, second), rel=1e-9, abs=1e-12, nan_ok=True)


@given(matrix=tied_matrices())
@settings(max_examples=150, deadline=None)
def test_spearman_matches_oracle_and_the_per_pair_ranking(matrix):
    ours = spearman_matrix(matrix)
    _assert_matches_pairwise(matrix, ours, naive.spearman)
    assert np.array_equal(ours, _per_pair_rankdata_spearman(matrix),
                          equal_nan=True)


@given(matrix=tied_matrices())
@settings(max_examples=100, deadline=None)
def test_kendall_matches_oracle(matrix):
    _assert_matches_pairwise(matrix, kendall_tau_matrix(matrix),
                             naive.kendall_tau_b)


def test_spearman_is_bit_identical_on_continuous_data_with_gaps():
    rng = np.random.default_rng(5)
    matrix = np.round(rng.normal(0, 3, (4000, 5)), 1)      # ties + spread
    matrix[rng.random(matrix.shape) < 0.1] = np.nan         # different masks
    matrix[rng.random(matrix.shape) < 0.01] = np.inf
    assert np.array_equal(spearman_matrix(matrix),
                          _per_pair_rankdata_spearman(matrix), equal_nan=True)


# --------------------------------------------------------------------------- #
# CategoricalSummary
# --------------------------------------------------------------------------- #
_EPOCH = datetime(2021, 1, 1)
_VALUES = {
    DType.STRING: st.sampled_from(
        ["", "a", "b", "apple", "Apple", "x y", "日本語", "10", "9"]),
    DType.INT: st.sampled_from([-10, -1, 0, 1, 9, 10, 100]),
    DType.FLOAT: st.sampled_from([-0.0, 0.0, 1.0, 1e-05, 1e16, 2.5, math.inf]),
    DType.BOOL: st.booleans(),
    DType.DATETIME: st.sampled_from(
        [_EPOCH + timedelta(seconds=step) for step in (0, 1, 60, 86_400)]
        + [datetime(1, 1, 1), datetime(999, 12, 31, 23, 59, 59),
           datetime(9999, 12, 31, 23, 59, 59)]),
}


@st.composite
def categorical_columns(draw):
    dtype = draw(st.sampled_from(sorted(_VALUES, key=lambda d: d.value)))
    values = draw(st.lists(st.one_of(st.none(), _VALUES[dtype]), max_size=40))
    if dtype is DType.STRING:
        values = [None if value == "" else value for value in values]
    return Column("c", values, dtype)


def _decoded(column: Column) -> list:
    """The column as python scalars (None = missing), ``-0.0`` as the
    ``0.0`` every reduction here counts it as."""
    return [value + 0.0 if isinstance(value, float) else value
            for value in column.to_list()]


@given(column=categorical_columns(), start=st.integers(0, 10),
       capacity=st.one_of(st.none(), st.integers(1, 5)))
@settings(max_examples=250, deadline=None)
def test_summary_of_a_column_equals_summary_of_its_values(column, start,
                                                          capacity):
    column = column[start:]             # a STRING slice keeps unused labels
    decoded = _decoded(column)
    values = naive.present(decoded)
    summary = CategoricalSummary.from_column(column, capacity=capacity)
    assert summary == CategoricalSummary.from_values(
        values, missing=column.missing_count(), capacity=capacity)
    assert summary.labels.tolist() == sorted(summary.labels.tolist())
    if capacity is None:
        expected = naive.categorical_summary(decoded)
        assert summary.counts_by_label() == expected.pop("counts")
        assert {key: getattr(summary, key) for key in expected} == expected
        for n in (0, 1, 3, 100):
            assert summary.top_values(n) == naive.top_values(values, n)
        assert summary.entropy == pytest.approx(naive.entropy(values),
                                                rel=1e-12, abs=1e-12)
        assert math.copysign(1.0, summary.entropy) == 1.0
        assert summary.count == len(values)
        assert summary.distinct == len(set(map(str, values)))


label_lists = st.lists(st.sampled_from([f"v{index}" for index in range(12)]),
                       max_size=40)


@given(a=label_lists, b=label_lists, c=label_lists)
@settings(max_examples=150, deadline=None)
def test_merge_is_associative_commutative_and_equals_the_whole(a, b, c):
    first, second, third = map(CategoricalSummary.from_values, (a, b, c))
    whole = CategoricalSummary.from_values(a + b + c)
    assert first.merge(second).merge(third) == whole
    assert first.merge(second.merge(third)) == whole
    assert first.merge(second) == second.merge(first)
    assert whole.top_values(5) == naive.top_values(a + b + c, 5)


@given(a=label_lists, b=label_lists, capacity=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_bounded_mode_prunes_as_the_value_count_table_did(a, b, capacity):
    first = CategoricalSummary.from_values(a, capacity=capacity)
    kept, dropped, largest = naive.prune(dict(Counter(a)), capacity)
    assert first.counts_by_label() == kept
    assert (first.capacity, first.pruned_count, first.pruned_max) == \
        (capacity, dropped, largest)
    assert first.count == len(a) and first.distinct == len(set(a))

    second = CategoricalSummary.from_values(b, capacity=capacity)
    merged = first.merge(second)
    table = Counter(kept) + Counter(second.counts_by_label())
    kept, dropped, largest = naive.prune(dict(table), capacity)
    assert merged.counts_by_label() == kept
    assert merged.pruned_count == \
        first.pruned_count + second.pruned_count + dropped
    assert merged.pruned_max == \
        max(first.pruned_max, second.pruned_max, largest)
    assert merged.count == len(a + b) and merged.distinct == len(set(a + b))
    # An unbounded side takes the bounded side's capacity (and its labels
    # reach the distinct sketch).
    mixed = CategoricalSummary.from_values(a).merge(second)
    table = Counter(a) + Counter(second.counts_by_label())
    assert mixed.counts_by_label() == naive.prune(dict(table), capacity)[0]
    assert mixed.capacity == capacity
    assert mixed.count == len(a + b) and mixed.distinct == len(set(a + b))


# --------------------------------------------------------------------------- #
# Duplicate rows
# --------------------------------------------------------------------------- #
@st.composite
def frames_with_repeats(draw):
    n_rows = draw(st.integers(min_value=0, max_value=30))
    kinds = draw(st.lists(st.sampled_from(
        [DType.STRING, DType.INT, DType.FLOAT, DType.BOOL, DType.DATETIME]),
        min_size=1, max_size=4))
    columns = []
    if draw(st.booleans()):             # an all-distinct leading key
        columns.append(Column("key", list(range(n_rows)), DType.INT))
    for index, dtype in enumerate(kinds):
        # Two or three values per column, so whole rows do repeat.
        pool = draw(st.lists(st.one_of(st.none(), _VALUES[dtype]),
                             min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), min_size=n_rows,
                               max_size=n_rows))
        if dtype is DType.STRING:
            values = [None if value == "" else value for value in values]
        columns.append(Column(f"c{index}", values, dtype))
    return DataFrame(columns)


@given(frame=frames_with_repeats(), start=st.integers(0, 5))
@settings(max_examples=250, deadline=None)
def test_duplicate_row_count_matches_oracle(frame, start):
    frame = frame[start:]
    assert frame.duplicate_row_count() == naive.duplicate_row_count(
        [frame.column(name).to_list() for name in frame.columns])


def test_duplicate_row_count_edges():
    assert DataFrame().duplicate_row_count() == 0
    assert DataFrame({"a": np.zeros(0)}).duplicate_row_count() == 0
    zeros = DataFrame({"x": [0.0, -0.0, None, None, 1.0],
                       "s": ["a", "a", None, None, "a"]})
    assert zeros.duplicate_row_count() == 2
    doubled = DataFrame({"k": list(range(50)) * 2, "v": ["x", "y"] * 50})
    assert doubled.duplicate_row_count() == 50
