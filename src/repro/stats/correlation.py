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

from repro.errors import EDAError

#: Correlation methods supported by :func:`correlation_matrix`.
METHODS = ("pearson", "spearman", "kendall")

#: Cells per ``pairs x rows`` batch of the Kendall kernel: its working set
#: stays a few MiB however many columns there are.
_KENDALL_BATCH_ELEMENTS = 1 << 16


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
    one per pair and side.  A side that loses no finite row reuses its column's ranks.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_columns = matrix.shape[1]
    finite = np.isfinite(matrix)
    orders = [np.argsort(matrix[:, i]) for i in range(n_columns)]
    own = [_ranks_among(matrix[:, i], orders[i], finite[:, i]) for i in range(n_columns)]
    result = np.eye(n_columns)
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            both = finite[:, i] & finite[:, j]
            kept = both.sum()
            value = np.nan if kept < 2 else _pearson_of(*[
                own[k] if own[k].size == kept else _ranks_among(matrix[:, k], orders[k], both)
                for k in (i, j)])
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

    Rows beyond *max_rows* are sampled to keep overview correlation analysis
    interactive, mirroring the paper's sampling discussion for expensive
    statistics.  Columns are dense-ranked once; each batch of pairs sorts
    its rank keys row-wise and counts ties and discordant pairs exactly
    (:func:`_discordant_pairs`), so every value, NaN included, is bit for
    bit ``scipy.stats.kendalltau``'s on the pair's jointly finite rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        keep = rng.choice(matrix.shape[0], size=max_rows, replace=False)
        matrix = matrix[keep]
    n_rows, n_columns = matrix.shape
    bits = n_rows.bit_length()
    none = (1 << bits) - 1          # the dense rank of a non-finite cell
    dtype = np.int16 if bits < 15 else np.int32 if bits < 31 else np.int64  # holds 2·none+1
    ranks = np.full((n_columns, n_rows), none, dtype=dtype)
    for row, column in zip(ranks, matrix.T):
        finite = np.isfinite(column)
        # +inf, not NaN, keeps numpy's vectorised sort; finite cells first.
        order = np.argsort(np.where(finite, column, np.inf))[:finite.sum()]
        ordered = column[order]
        row[order] = np.cumsum(np.r_[False, ordered[1:] != ordered[:-1]], dtype=dtype)
    first, second = np.triu_indices(n_columns, 1)
    taus = np.full(first.size, np.nan)
    per_batch = max(1, _KENDALL_BATCH_ELEMENTS // max(n_rows, 1))
    for start in range(0, first.size if n_rows >= 2 else 0, per_batch):
        pairs = slice(start, start + per_batch)
        x, y = ranks[first[pairs]], ranks[second[pairs]]
        outside = np.maximum(x, y) == none
        keys = x.astype(np.int64) << bits | y
        keys[outside] = (none << bits) | none   # sorts after every kept row
        keys.sort(axis=1)
        # y in (x, y) order, doubled for the merge tags, padded to 2^k.
        ordered = np.full((len(keys), 1 << max(n_rows - 1, 15).bit_length()), 2 * none, dtype)
        np.left_shift(keys & none, 1, out=ordered[:, :n_rows], casting="unsafe")
        discordant = _discordant_pairs(ordered, n_rows)    # sorts the rows
        # The dropped rows are one run in each order: take their ties out.
        missing = np.count_nonzero(outside, axis=1)
        dropped = missing * (missing - 1) // 2
        joint, x_ties, y_ties = (_tied_pairs(run) - dropped for run in
                                 (keys, keys >> bits, ordered[:, :n_rows]))
        total = (n_rows - missing) * (n_rows - missing - 1) // 2
        # A pair tied throughout in x or in y (or with < 2 rows) is 0 / 0.
        with np.errstate(invalid="ignore"):
            tau = ((total - x_ties - y_ties + joint - 2 * discordant)
                   / np.sqrt(total - x_ties) / np.sqrt(total - y_ties))
        taus[pairs] = np.clip(tau, -1.0, 1.0)
    result = np.eye(n_columns)
    result[first, second] = result[second, first] = taus
    return result


def _tied_pairs(ordered: np.ndarray) -> np.ndarray:
    """Per row of a row-wise sorted array: ``c·(c-1)/2`` summed over its
    runs of ``c`` equal entries."""
    rows, n = ordered.shape
    equal = np.zeros((rows, n + 1), dtype=bool)     # False closes every row
    np.equal(ordered[:, 1:], ordered[:, :-1], out=equal[:, 1:n])
    edges = np.flatnonzero(np.diff(equal.ravel()))
    repeats = edges[1::2] - edges[0::2]             # run length minus one
    return np.bincount(edges[0::2] // (n + 1), repeats * (repeats + 1) // 2, rows).astype(np.int64)


def _discordant_pairs(ordered: np.ndarray, n: int) -> np.ndarray:
    """Strict inversions among the first *n* entries of each row of
    *ordered* (even values, padded with the largest) in O(n log² n); sorts
    the rows.

    Pairs inside a block of 8 are compared directly.  Then, bottom-up, two
    neighbouring blocks of ``size`` are tagged ``2·y + side`` and sorted as
    one: the ``k``-th right-side entry, now at position ``p``, has ``p - k``
    left-side entries at or below it.  Blocks of padding only are skipped.
    """
    rows, width = ordered.shape
    blocks = ordered[:, :8 * -(-n // 8)].reshape(rows, -1, 8).transpose(0, 2, 1).copy()
    above = np.concatenate([blocks[:, i + 1:] < blocks[:, i:i + 1] for i in range(7)], axis=1)
    discordant = np.count_nonzero(above.reshape(rows, -1), axis=1)
    position = np.arange(width, dtype=ordered.dtype)
    right = np.zeros_like(ordered)      # per position: levels it held a right-side entry
    size = 8
    while size == 8 or size < n:        # one level at least: rows end sorted
        span = 2 * size
        count = -(-n // span)
        level = ordered[:, :count * span]
        level += (position[:count * span] // size) & 1
        level.reshape(rows, count, span).sort(axis=-1)
        right[:, :count * span] += level & 1
        level &= -2
        # Each block adds size² + Σk; Σp over row positions adds b·span·size.
        discordant += count * size * (3 * size - 1) // 2 + span * size * (count * (count - 1) // 2)
        size = span
    return discordant - (right * position.astype(np.int64)).sum(axis=1)


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
