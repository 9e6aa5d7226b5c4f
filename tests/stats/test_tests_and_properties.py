"""Tests for the insight statistical tests plus property-based merge checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.histogram import compute_histogram
from repro.stats.qq import normal_qq_points
from repro.stats.sketches import merge_all
from repro.stats.tests import (
    chi2_sf,
    chi_square_uniformity,
    ks_similarity,
    normality_test,
)


class TestNormality:
    def test_normal_data_passes(self):
        values = np.random.default_rng(0).normal(0, 1, 5000)
        assert normality_test(values).passed

    def test_exponential_data_fails(self):
        values = np.random.default_rng(0).exponential(1.0, 5000)
        assert not normality_test(values).passed

    def test_small_and_constant_samples(self):
        assert not normality_test(np.arange(5.0)).passed
        assert not normality_test(np.full(100, 3.0)).passed

    def test_sampling_keeps_result_stable(self):
        values = np.random.default_rng(1).normal(0, 1, 100_000)
        assert normality_test(values, max_samples=2000).passed


class TestUniformity:
    def test_uniform_counts_pass(self):
        assert chi_square_uniformity([100, 98, 103, 99]).passed

    def test_skewed_counts_fail(self):
        assert not chi_square_uniformity([500, 20, 10, 5]).passed

    def test_degenerate_inputs(self):
        assert not chi_square_uniformity([5]).passed
        assert not chi_square_uniformity([]).passed
        assert not chi_square_uniformity([0, 0, 0]).passed


class TestKsSimilarity:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(3)
        assert ks_similarity(rng.normal(0, 1, 4000), rng.normal(0, 1, 4000)).passed

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(3)
        assert not ks_similarity(rng.normal(0, 1, 4000),
                                 rng.normal(1.0, 1, 4000)).passed

    def test_tiny_samples_pass_by_default(self):
        assert ks_similarity(np.array([1.0, 2.0]), np.array([5.0, 6.0])).passed


# ---------------------------------------------------------------------------- #
# The numpy insight tests against the scipy functions they replace.
# ---------------------------------------------------------------------------- #
DRAWS = {
    "normal": lambda rng, n: rng.normal(3.0, 2.0, n),
    "exponential": lambda rng, n: rng.exponential(1.5, n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 4.0, n),
    "student_t": lambda rng, n: rng.standard_t(3, n),
}


@pytest.mark.parametrize("n", [20, 21, 50, 500, 5000])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_normality_test_matches_scipy_normaltest(n, draw):
    values = DRAWS[draw](np.random.default_rng(n), n)
    result = normality_test(values)
    statistic, p_value = scipy_stats.normaltest(values)
    assert result.statistic == pytest.approx(statistic, rel=1e-10)
    assert result.p_value == pytest.approx(p_value, rel=1e-10)
    assert result.passed == (p_value > 0.05)


def test_chi2_sf_matches_scipy_for_every_insight_dof():
    # A categorical column's uniformity test has up to 999 degrees of
    # freedom (its top 1000 categories); x spans the centre and both tails.
    dofs = np.repeat(np.arange(1, 1000), 5)
    xs = dofs * np.tile([0.0, 0.5, 1.0, 2.0, 10.0], 999)
    ours = np.array([chi2_sf(x, dof) for x, dof in zip(xs.tolist(), dofs.tolist())])
    np.testing.assert_allclose(ours, scipy_stats.chi2.sf(xs, dofs),
                               rtol=1e-10, atol=1e-300)
    # Log space keeps the tail where a finite e^(-x)·x^k/k! sum gives 0.0.
    assert chi2_sf(2000.0, 1999) == pytest.approx(0.4894866615843932, rel=1e-10)
    assert chi2_sf(float("inf"), 3) == 0.0


@pytest.mark.parametrize("counts", [[100, 98, 103, 99], [500, 20, 10, 5],
                                    list(range(1, 1001)), [0, 7]])
def test_chi_square_uniformity_matches_scipy_chisquare(counts):
    result = chi_square_uniformity(counts)
    statistic, p_value = scipy_stats.chisquare(counts)
    assert result.statistic == pytest.approx(statistic, rel=1e-12)
    assert result.p_value == pytest.approx(p_value, rel=1e-10)


@pytest.mark.parametrize("mean, std", [(0.0, 1.0), (5.0, 0.1), (-3e5, 2e4),
                                       (1e-9, 1e-12)])
def test_normal_qq_points_match_scipy_norm_ppf(mean, std):
    probabilities = np.concatenate([np.linspace(0.01, 0.99, 101), [0.0, 1.0]])
    theoretical, _ = normal_qq_points(np.zeros(probabilities.size), mean, std,
                                      probabilities)
    expected = scipy_stats.norm.ppf(probabilities, loc=mean, scale=std)
    np.testing.assert_allclose(theoretical, expected, rtol=1e-12, atol=1e-12 * std)
    assert theoretical[-2:].tolist() == [-np.inf, np.inf]


# ---------------------------------------------------------------------------- #
# Property-based merge invariants: splitting data into chunks and merging the
# partial summaries must match computing on the whole array, for any split.
# ---------------------------------------------------------------------------- #
finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(values=st.lists(finite_floats, min_size=2, max_size=400),
       n_chunks=st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_numeric_summary_merge_is_split_invariant(values, n_chunks):
    array = np.asarray(values)
    whole = NumericSummary.from_values(array)
    merged = merge_all(
        [NumericSummary.from_values(chunk) for chunk in np.array_split(array, n_chunks)])
    assert merged.count == whole.count
    assert np.isclose(merged.mean, whole.mean, rtol=1e-9, atol=1e-9)
    assert np.isclose(merged.sum1, whole.sum1, rtol=1e-9, atol=1e-6)
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum


@given(values=st.lists(st.sampled_from(["a", "b", "c", "dd"]),
                       min_size=1, max_size=300),
       split=st.integers(min_value=0, max_value=300))
@settings(max_examples=50, deadline=None)
def test_categorical_summary_merge_is_split_invariant(values, split):
    split = min(split, len(values))
    whole = CategoricalSummary.from_values(values)
    merged = CategoricalSummary.from_values(values[:split]).merge(
        CategoricalSummary.from_values(values[split:]))
    assert merged.counts_by_label() == whole.counts_by_label()
    assert merged.distinct == whole.distinct
    assert merged.total_length == whole.total_length


@given(values=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                       min_size=1, max_size=500),
       n_chunks=st.integers(min_value=1, max_value=6),
       bins=st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_histogram_merge_is_split_invariant(values, n_chunks, bins):
    array = np.asarray(values)
    whole = compute_histogram(array, bins, (0.0, 100.0))
    merged = merge_all(
        [compute_histogram(chunk, bins, (0.0, 100.0))
         for chunk in np.array_split(array, n_chunks)])
    assert np.array_equal(whole.counts, merged.counts)
    assert whole.total == len(values)
