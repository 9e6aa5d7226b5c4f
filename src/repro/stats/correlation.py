"""Correlation matrices: Pearson, Spearman and Kendall's tau.

The paper computes the Pearson correlation matrix in the Dask stage (it is
mergeable: only sums, squared sums and cross products are needed) and hands
the small ``m x m`` matrix to Pandas for filtering.  Spearman and Kendall are
rank statistics and are evaluated in the local stage; for very large inputs
the compute module samples rows first (documented behaviour, matching the
spirit of the paper's "sampling / sketches" future-work discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.stats import kendalltau

from repro.errors import EDAError

#: Correlation methods supported by :func:`correlation_matrix`.
METHODS = ("pearson", "spearman", "kendall")


@dataclass
class PearsonPartial:
    """Mergeable partial sums for a Pearson correlation matrix.

    For columns matrix ``X`` (rows x m), keeps per-pair counts and the sums
    needed to finish the correlation after merging, while ignoring rows with
    missing values per pair (pairwise deletion, like ``DataFrame.corr``).
    """

    counts: np.ndarray
    sums: np.ndarray
    square_sums: np.ndarray
    cross_sums: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PearsonPartial":
        """Build partial sums from a dense float matrix (NaN = missing)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise EDAError("expected a 2-D matrix of column values")
        valid = np.isfinite(matrix)
        filled = np.where(valid, matrix, 0.0)
        counts = valid.astype(np.float64).T @ valid.astype(np.float64)
        sums = filled.T @ valid.astype(np.float64)
        square_sums = (filled ** 2).T @ valid.astype(np.float64)
        cross_sums = filled.T @ filled
        return cls(counts=counts, sums=sums, square_sums=square_sums,
                   cross_sums=cross_sums)

    def merge(self, other: "PearsonPartial") -> "PearsonPartial":
        """Combine partial sums from two row chunks."""
        return PearsonPartial(
            counts=self.counts + other.counts,
            sums=self.sums + other.sums,
            square_sums=self.square_sums + other.square_sums,
            cross_sums=self.cross_sums + other.cross_sums,
        )

    def finalize(self) -> np.ndarray:
        """Finish the Pearson correlation matrix from the merged sums."""
        counts = self.counts
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_i = self.sums / counts
            mean_j = self.sums.T / counts
            cov = self.cross_sums / counts - mean_i * mean_j
            var_i = self.square_sums / counts - mean_i ** 2
            var_j = self.square_sums.T / counts - mean_j ** 2
            denominator = np.sqrt(var_i * var_j)
            matrix = np.where(denominator > 0, cov / denominator, np.nan)
        matrix = np.clip(matrix, -1.0, 1.0)
        np.fill_diagonal(matrix, 1.0)
        matrix[counts < 2] = np.nan
        np.fill_diagonal(matrix, 1.0)
        return matrix


def pearson_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix with pairwise missing-value deletion."""
    return PearsonPartial.from_matrix(matrix).finalize()


def spearman_matrix(matrix: np.ndarray) -> np.ndarray:
    """Spearman rank correlation matrix (pairwise deletion).

    Every column is sorted once; the average ranks a pair needs — those of
    the rows finite in *both* columns — are read off that one order in
    O(rows) (:func:`_ranks_among`), so ``m`` columns cost ``m`` sorts, not
    one per pair and side.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_columns = matrix.shape[1]
    finite = np.isfinite(matrix)
    orders = [np.argsort(matrix[:, i]) for i in range(n_columns)]
    result = np.eye(n_columns)
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            both = finite[:, i] & finite[:, j]
            if both.sum() < 2:
                value = np.nan
            else:
                value = _pearson_of(
                    _ranks_among(matrix[:, i], orders[i], both),
                    _ranks_among(matrix[:, j], orders[j], both))
            result[i, j] = result[j, i] = value
    return result


def _ranks_among(values: np.ndarray, order: np.ndarray,
                 keep: np.ndarray) -> np.ndarray:
    """``scipy.stats.rankdata(values[keep])`` — average ranks, ties sharing
    their mean — from *order*, an argsort of all of *values*."""
    rows = order[keep[order]]
    ordered = values[rows]
    # Tie groups are runs of equal neighbours; the group at sorted positions
    # [start, stop) holds ranks start+1 .. stop, whose mean is below.
    edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [rows.size]))
    ranks = np.empty(values.size)
    ranks[rows] = np.repeat(0.5 * (starts + stops + 1), stops - starts)
    return ranks[keep]


def kendall_tau_matrix(matrix: np.ndarray, max_rows: int = 10_000,
                       seed: int = 0) -> np.ndarray:
    """Kendall's tau-b correlation matrix (pairwise deletion).

    Kendall's tau is O(n log n) per pair; rows beyond *max_rows* are sampled
    to keep overview correlation analysis interactive, mirroring the paper's
    sampling discussion for expensive statistics.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        keep = rng.choice(matrix.shape[0], size=max_rows, replace=False)
        matrix = matrix[keep]
    n_columns = matrix.shape[1]
    result = np.eye(n_columns)
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            both = np.isfinite(matrix[:, i]) & np.isfinite(matrix[:, j])
            if both.sum() < 2:
                value = np.nan
            else:
                value, _ = kendalltau(matrix[both, i], matrix[both, j])
            result[i, j] = result[j, i] = value
    return result


def _pearson_of(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two 1-D arrays without missing values."""
    if x.size < 2:
        return float("nan")
    x_centered = x - x.mean()
    y_centered = y - y.mean()
    denominator = np.sqrt((x_centered ** 2).sum() * (y_centered ** 2).sum())
    if denominator == 0:
        return float("nan")
    return float(np.clip((x_centered * y_centered).sum() / denominator, -1.0, 1.0))


def correlation_matrix(matrix: np.ndarray, method: str = "pearson",
                       max_kendall_rows: int = 10_000) -> np.ndarray:
    """Correlation matrix of a dense float matrix (NaN = missing)."""
    if method not in METHODS:
        raise EDAError(f"unknown correlation method {method!r}; expected one of {METHODS}")
    if method == "pearson":
        return pearson_matrix(matrix)
    if method == "spearman":
        return spearman_matrix(matrix)
    return kendall_tau_matrix(matrix, max_rows=max_kendall_rows)


def top_correlated_pairs(matrix: np.ndarray, names: Sequence[str],
                         threshold: float = 0.5) -> List[Tuple[str, str, float]]:
    """Column pairs whose absolute correlation exceeds *threshold*."""
    pairs: List[Tuple[str, str, float]] = []
    n_columns = matrix.shape[0]
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            value = matrix[i, j]
            if np.isfinite(value) and abs(value) >= threshold:
                pairs.append((names[i], names[j], float(value)))
    pairs.sort(key=lambda item: -abs(item[2]))
    return pairs
