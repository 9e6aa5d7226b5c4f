"""Tests for histogram, KDE, quantile and box-plot kernels."""

import numpy as np
import pytest

from repro.errors import EDAError
from repro.stats.histogram import compute_histogram, freedman_diaconis_bins
from repro.stats.kde import gaussian_kde_curve, silverman_bandwidth
from repro.stats.qq import box_plot_stats, normal_qq_points, quantiles_from_histogram
from repro.stats.sketches import merge_all


@pytest.fixture
def normal_sample():
    return np.random.default_rng(1).normal(50.0, 5.0, 20_000)


class TestHistogram:
    def test_counts_match_numpy(self, normal_sample):
        histogram = compute_histogram(normal_sample, 32)
        counts, _ = np.histogram(normal_sample, bins=32)
        assert histogram.total == normal_sample.size
        assert np.array_equal(histogram.counts, counts)

    def test_merge_equals_whole(self, normal_sample):
        value_range = (normal_sample.min(), normal_sample.max())
        whole = compute_histogram(normal_sample, 64, value_range)
        parts = [compute_histogram(chunk, 64, value_range)
                 for chunk in np.array_split(normal_sample, 9)]
        merged = merge_all(parts)
        assert np.array_equal(merged.counts, whole.counts)

    def test_merge_mismatched_edges_raises(self, normal_sample):
        first = compute_histogram(normal_sample, 10, (0, 100))
        second = compute_histogram(normal_sample, 10, (0, 50))
        with pytest.raises(EDAError):
            first.merge(second)

    def test_density_integrates_to_one(self, normal_sample):
        histogram = compute_histogram(normal_sample, 40)
        assert float(np.sum(histogram.density() * histogram.widths)) == \
            pytest.approx(1.0)

    def test_non_finite_values_are_ignored(self):
        values = np.array([1.0, 2.0, np.inf, np.nan, 3.0])
        histogram = compute_histogram(values, 4)
        assert histogram.total == 3

    def test_empty_and_degenerate_inputs(self):
        empty = compute_histogram(np.array([]), 8)
        assert empty.total == 0
        constant = compute_histogram(np.full(10, 3.0), 8)
        assert constant.total == 10
        with pytest.raises(EDAError):
            compute_histogram(np.array([1.0]), 0)

    def test_freedman_diaconis(self):
        bins = freedman_diaconis_bins(count=10_000, q25=40.0, q75=60.0,
                                      minimum=0.0, maximum=100.0)
        assert 1 <= bins <= 200
        assert freedman_diaconis_bins(1, 0, 0, 0, 0, fallback=13) == 13


class TestQuantiles:
    def test_histogram_quantiles_close_to_exact(self, normal_sample):
        histogram = compute_histogram(normal_sample, 512)
        probabilities = [0.05, 0.25, 0.5, 0.75, 0.95]
        approx = quantiles_from_histogram(histogram, probabilities)
        exact = np.quantile(normal_sample, probabilities)
        tolerance = (normal_sample.max() - normal_sample.min()) / 512 * 2
        assert np.all(np.abs(approx - exact) < tolerance)

    def test_quantiles_monotone(self, normal_sample):
        histogram = compute_histogram(normal_sample, 128)
        values = quantiles_from_histogram(histogram, np.linspace(0, 1, 21))
        assert np.all(np.diff(values) >= 0)

    def test_invalid_probability_raises(self, normal_sample):
        histogram = compute_histogram(normal_sample, 16)
        with pytest.raises(EDAError):
            quantiles_from_histogram(histogram, [1.5])

    def test_empty_histogram_gives_nan(self):
        histogram = compute_histogram(np.array([]), 8)
        assert np.isnan(quantiles_from_histogram(histogram, [0.5])).all()


class TestKde:
    def test_density_integrates_to_one(self, normal_sample):
        histogram = compute_histogram(normal_sample, 256)
        grid, density = gaussian_kde_curve(histogram, normal_sample.std())
        assert float(np.trapezoid(density, grid)) == pytest.approx(1.0, abs=0.05)

    def test_peak_near_the_mean(self, normal_sample):
        histogram = compute_histogram(normal_sample, 256)
        grid, density = gaussian_kde_curve(histogram, normal_sample.std())
        assert abs(grid[np.argmax(density)] - 50.0) < 2.0

    def test_silverman_bandwidth_positive(self):
        assert silverman_bandwidth(1000, 5.0) > 0
        assert silverman_bandwidth(0, 5.0) == 1.0
        assert silverman_bandwidth(10, float("nan")) == 1.0

    def test_empty_histogram_gives_zero_density(self):
        histogram = compute_histogram(np.array([]), 8)
        _, density = gaussian_kde_curve(histogram, 1.0)
        assert np.all(density == 0)

    def test_invalid_grid_raises(self, normal_sample):
        histogram = compute_histogram(normal_sample, 16)
        with pytest.raises(EDAError):
            gaussian_kde_curve(histogram, 1.0, grid_points=1)


class TestQQAndBox:
    def test_qq_points_lie_near_identity_for_normal_data(self, normal_sample):
        histogram = compute_histogram(normal_sample, 512)
        probabilities = np.linspace(0.05, 0.95, 50)
        sample_quantiles = quantiles_from_histogram(histogram, probabilities)
        theoretical, sample = normal_qq_points(sample_quantiles,
                                               normal_sample.mean(),
                                               normal_sample.std(), probabilities)
        assert np.corrcoef(theoretical, sample)[0, 1] > 0.999

    def test_qq_handles_degenerate_std(self):
        theoretical, _ = normal_qq_points(np.array([1.0, 2.0]), 0.0, 0.0, [0.25, 0.75])
        assert np.all(np.isfinite(theoretical))

    def test_box_plot_statistics(self, normal_sample):
        histogram = compute_histogram(normal_sample, 512)
        quantiles = dict(zip([0.25, 0.5, 0.75],
                             quantiles_from_histogram(histogram, [0.25, 0.5, 0.75])))
        box = box_plot_stats(quantiles, normal_sample.min(), normal_sample.max(),
                             histogram)
        assert box.q1 < box.median < box.q3
        assert box.lower_whisker <= box.q1
        assert box.upper_whisker >= box.q3
        assert box.iqr == pytest.approx(box.q3 - box.q1)
        assert box.outlier_count >= 0

    def test_box_plot_requires_quartiles(self, normal_sample):
        histogram = compute_histogram(normal_sample, 16)
        with pytest.raises(EDAError):
            box_plot_stats({0.5: 1.0}, 0.0, 1.0, histogram)

    def test_box_plot_flags_outliers(self):
        values = np.concatenate([np.random.default_rng(0).normal(0, 1, 1000),
                                 np.array([30.0, 40.0, -25.0])])
        histogram = compute_histogram(values, 512)
        quantiles = dict(zip([0.25, 0.5, 0.75],
                             np.quantile(values, [0.25, 0.5, 0.75])))
        box = box_plot_stats(quantiles, values.min(), values.max(), histogram)
        assert box.outlier_count >= 3
        assert len(box.outlier_samples) >= 1
