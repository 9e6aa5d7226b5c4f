"""Tests for correlation matrices and missing-value association statistics."""

import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import EDAError
from repro.stats import merge_all
from repro.stats.association import (
    column_missing_counts,
    missing_spectrum,
    nullity_correlation,
    nullity_dendrogram,
)
from repro.stats.correlation import (
    PearsonPartial,
    correlation_matrix,
    kendall_tau_matrix,
    pearson_matrix,
    spearman_matrix,
    top_correlated_pairs,
)


@pytest.fixture
def correlated_matrix():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 3000)
    y = 2 * x + rng.normal(0, 0.3, 3000)
    z = rng.normal(0, 1, 3000)
    matrix = np.column_stack([x, y, z])
    matrix[::11, 1] = np.nan
    return matrix


class TestPearson:
    def test_matches_numpy_on_complete_data(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(0, 1, (500, 4))
        ours = pearson_matrix(matrix)
        reference = np.corrcoef(matrix, rowvar=False)
        assert np.allclose(ours, reference, atol=1e-10)

    def test_merged_partials_match_whole(self, correlated_matrix):
        whole = pearson_matrix(correlated_matrix)
        partials = [PearsonPartial.from_matrix(chunk)
                    for chunk in np.array_split(correlated_matrix, 6)]
        merged = merge_all(partials).finalize()
        assert np.allclose(whole, merged, equal_nan=True, atol=1e-10)

    def test_pairwise_deletion_matches_scipy(self, correlated_matrix):
        ours = pearson_matrix(correlated_matrix)
        both = np.isfinite(correlated_matrix[:, 0]) & np.isfinite(correlated_matrix[:, 1])
        reference, _ = scipy_stats.pearsonr(correlated_matrix[both, 0],
                                            correlated_matrix[both, 1])
        assert ours[0, 1] == pytest.approx(reference, abs=1e-10)

    def test_constant_column_gives_nan(self):
        matrix = np.column_stack([np.ones(50), np.arange(50.0)])
        result = pearson_matrix(matrix)
        assert np.isnan(result[0, 1])
        assert result[0, 0] == 1.0


class TestRankCorrelations:
    def test_spearman_matches_scipy(self, correlated_matrix):
        ours = spearman_matrix(correlated_matrix)
        both = np.isfinite(correlated_matrix[:, 0]) & np.isfinite(correlated_matrix[:, 1])
        reference, _ = scipy_stats.spearmanr(correlated_matrix[both, 0],
                                             correlated_matrix[both, 1])
        assert ours[0, 1] == pytest.approx(reference, abs=1e-10)

    def test_kendall_matches_scipy_when_unsampled(self, correlated_matrix):
        ours = kendall_tau_matrix(correlated_matrix, max_rows=10_000)
        both = np.isfinite(correlated_matrix[:, 0]) & np.isfinite(correlated_matrix[:, 1])
        reference, _ = scipy_stats.kendalltau(correlated_matrix[both, 0],
                                              correlated_matrix[both, 1])
        assert ours[0, 1] == pytest.approx(reference, abs=1e-10)

    def test_kendall_sampling_keeps_strong_correlations(self, correlated_matrix):
        sampled = kendall_tau_matrix(correlated_matrix, max_rows=500)
        assert sampled[0, 1] > 0.7

    def test_correlation_matrix_dispatch(self, correlated_matrix):
        for method in ("pearson", "spearman", "kendall"):
            matrix = correlation_matrix(correlated_matrix, method)
            assert matrix.shape == (3, 3)
            assert np.allclose(np.diag(matrix), 1.0)
        with pytest.raises(EDAError):
            correlation_matrix(correlated_matrix, "cramers_v")

    def test_top_correlated_pairs(self, correlated_matrix):
        matrix = pearson_matrix(correlated_matrix)
        pairs = top_correlated_pairs(matrix, ["x", "y", "z"], threshold=0.5)
        assert pairs[0][:2] == ("x", "y")
        assert all(abs(value) >= 0.5 for _, _, value in pairs)


class TestMissingAssociation:
    @pytest.fixture
    def mask(self):
        rng = np.random.default_rng(4)
        base = rng.random((2000, 4)) < np.array([0.0, 0.2, 0.2, 0.6])
        base[:, 2] = base[:, 1]  # columns b and c are missing together
        return base

    def test_missing_spectrum_shape_and_range(self, mask):
        spectrum = missing_spectrum(mask, ["a", "b", "c", "d"], n_bins=16)
        assert spectrum.densities.shape == (16, 4)
        assert np.all(spectrum.densities >= 0) and np.all(spectrum.densities <= 1)
        assert np.allclose(spectrum.series_for("a"), 0.0)
        with pytest.raises(EDAError):
            spectrum.series_for("missing_column")

    def test_spectrum_mean_matches_column_rate(self, mask):
        spectrum = missing_spectrum(mask, ["a", "b", "c", "d"], n_bins=10)
        assert spectrum.densities[:, 3].mean() == pytest.approx(mask[:, 3].mean(),
                                                                abs=0.01)

    def test_nullity_correlation_drops_complete_columns(self, mask):
        kept, matrix = nullity_correlation(mask, ["a", "b", "c", "d"])
        assert "a" not in kept
        index_b, index_c = kept.index("b"), kept.index("c")
        assert matrix[index_b, index_c] == pytest.approx(1.0)

    def test_nullity_correlation_all_complete(self):
        kept, matrix = nullity_correlation(np.zeros((10, 3), dtype=bool),
                                           ["a", "b", "c"])
        assert kept == []
        assert matrix.shape == (0, 0)

    def test_dendrogram_merges_similar_columns_first(self, mask):
        labels, nodes = nullity_dendrogram(mask, ["a", "b", "c", "d"])
        assert len(nodes) == 3
        first_merge = {nodes[0].left, nodes[0].right}
        assert first_merge == {1, 2}  # b and c share their missingness pattern

    def test_dendrogram_matches_linkage_over_the_mask(self, mask):
        from scipy.cluster import hierarchy
        _, nodes = nullity_dendrogram(mask, ["a", "b", "c", "d"])
        linkage = hierarchy.linkage(mask.T.astype(np.float64),
                                    method="average", metric="euclidean")
        np.testing.assert_array_equal(
            [[node.left, node.right, node.distance, node.size] for node in nodes],
            linkage)

    def test_dendrogram_of_a_distance_shaped_mask_warns_nothing(self):
        # Square, symmetric and zero on the diagonal: linkage over the raw
        # mask took it for an uncondensed distance matrix (ClusterWarning).
        mask = ~np.eye(3, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, nodes = nullity_dendrogram(mask, ["a", "b", "c"])
        assert labels == ["a", "b", "c"]
        assert [node.distance for node in nodes] == [np.sqrt(2.0)] * 2

    def test_dendrogram_single_column(self):
        labels, nodes = nullity_dendrogram(np.zeros((5, 1), dtype=bool), ["only"])
        assert labels == ["only"]
        assert nodes == []

    def test_column_missing_counts(self, mask):
        counts = column_missing_counts(mask, ["a", "b", "c", "d"])
        assert counts["a"] == 0
        assert counts["d"] == int(mask[:, 3].sum())
