"""Missing-value association statistics (the plot_missing(df) intermediates).

These reproduce the four overview visualizations the paper lists for
``plot_missing(df)``: the per-column missing bar chart (trivially derived
from counts), the missing spectrum plot, the nullity correlation heat map and
the nullity dendrogram (both adopted from the Missingno library).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.cluster import hierarchy

from repro.errors import EDAError
from repro.stats.correlation import pearson_matrix


@dataclass
class MissingSpectrum:
    """Missing-value density along row order, one series per column."""

    columns: List[str]
    bin_edges: np.ndarray
    #: shape (n_bins, n_columns); fraction of missing cells per bin/column.
    densities: np.ndarray

    def series_for(self, column: str) -> np.ndarray:
        """Missing density series of one column."""
        try:
            index = self.columns.index(column)
        except ValueError:
            raise EDAError(f"unknown column {column!r}") from None
        return self.densities[:, index]


def missing_spectrum(mask: np.ndarray, columns: Sequence[str],
                     n_bins: int = 32) -> MissingSpectrum:
    """Compute the missing spectrum from a boolean missing mask.

    *mask* has shape ``(n_rows, n_columns)`` with True marking a missing
    cell.  Rows are grouped into *n_bins* contiguous blocks and the fraction
    of missing cells per block and column is reported, which visualizes
    *where* in the file the missing values concentrate.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    if mask.ndim != 2:
        raise EDAError("mask must be 2-D (rows x columns)")
    n_rows = mask.shape[0]
    if mask.shape[1] != len(columns):
        raise EDAError("mask width does not match number of columns")
    n_bins = max(1, min(n_bins, n_rows)) if n_rows else 1
    edges = np.linspace(0, n_rows, n_bins + 1, dtype=np.int64)
    densities = np.zeros((n_bins, len(columns)), dtype=np.float64)
    for index in range(n_bins):
        start, stop = edges[index], edges[index + 1]
        block = mask[start:stop]
        if block.shape[0]:
            densities[index] = block.mean(axis=0)
    return MissingSpectrum(columns=list(columns), bin_edges=edges, densities=densities)


def nullity_correlation(mask: np.ndarray, columns: Sequence[str]
                        ) -> Tuple[List[str], np.ndarray]:
    """Pearson correlation between the missingness indicators of columns.

    Columns that are never missing or always missing carry no information and
    are dropped (their correlation is undefined), matching Missingno.
    Returns the retained column names and the correlation matrix.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise EDAError("mask must be 2-D (rows x columns)")
    variances = mask.var(axis=0)
    keep = variances > 0
    kept_columns = [name for name, keep_it in zip(columns, keep) if keep_it]
    if not kept_columns:
        return [], np.zeros((0, 0))
    matrix = pearson_matrix(mask[:, keep])
    return kept_columns, matrix


@dataclass
class DendrogramNode:
    """One merge step of the hierarchical clustering of column nullity."""

    left: int
    right: int
    distance: float
    size: int


def nullity_dendrogram(mask: np.ndarray, columns: Sequence[str]
                       ) -> Tuple[List[str], List[DendrogramNode]]:
    """Hierarchical clustering of columns by missingness pattern similarity.

    Uses average linkage over the Euclidean distance between the columns'
    binary missingness vectors (the Missingno dendrogram).  Returns the
    column labels and the linkage steps; leaf indices below ``len(columns)``
    refer to columns, larger indices refer to earlier merge steps.
    """
    mask = np.asarray(mask, dtype=np.float64)
    n_columns = mask.shape[1] if mask.ndim == 2 else 0
    if n_columns != len(columns):
        raise EDAError("mask width does not match number of columns")
    if n_columns < 2:
        return list(columns), []
    linkage = hierarchy.linkage(mask.T, method="average", metric="euclidean")
    nodes = [DendrogramNode(left=int(row[0]), right=int(row[1]),
                            distance=float(row[2]), size=int(row[3]))
             for row in linkage]
    return list(columns), nodes


def nullity_dendrogram_from_distances(condensed: np.ndarray,
                                      columns: Sequence[str]
                                      ) -> Tuple[List[str], List[DendrogramNode]]:
    """Dendrogram from precomputed condensed pairwise distances.

    The out-of-core path derives the Euclidean distances between the
    missingness indicator columns in closed form from mergeable counts
    (``sqrt(S_i + S_j - 2 S_ij)``, see
    :class:`repro.stats.sketches.NullitySketch`), then clusters them here —
    identical to :func:`nullity_dendrogram`, which computes the same
    distances from the materialized mask.
    """
    if len(columns) < 2:
        return list(columns), []
    linkage = hierarchy.linkage(np.asarray(condensed, dtype=np.float64),
                                method="average")
    nodes = [DendrogramNode(left=int(row[0]), right=int(row[1]),
                            distance=float(row[2]), size=int(row[3]))
             for row in linkage]
    return list(columns), nodes


def column_missing_counts(mask: np.ndarray, columns: Sequence[str]) -> Dict[str, int]:
    """Per-column missing cell counts from a boolean mask."""
    mask = np.asarray(mask, dtype=np.bool_)
    return {name: int(mask[:, index].sum()) for index, name in enumerate(columns)}
