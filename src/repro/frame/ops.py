"""Relational-style helper operations over the columnar frame.

These are the operations the EDA compute layer needs beyond plain column
reductions: per-column value counts, two-column cross tabulation, and simple
grouped aggregation (used for categorical-vs-numerical bivariate plots).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DTypeError
from repro.frame.frame import DataFrame

#: Aggregations supported by :func:`groupby_aggregate`.
AGGREGATIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda values: float(np.mean(values)) if values.size else float("nan"),
    "sum": lambda values: float(np.sum(values)) if values.size else 0.0,
    "min": lambda values: float(np.min(values)) if values.size else float("nan"),
    "max": lambda values: float(np.max(values)) if values.size else float("nan"),
    "median": lambda values: float(np.median(values)) if values.size else float("nan"),
    "std": lambda values: float(np.std(values, ddof=1)) if values.size > 1 else float("nan"),
    "count": lambda values: float(values.size),
}


def value_counts(frame: DataFrame, column: str,
                 top: Optional[int] = None) -> List[Tuple[Any, int]]:
    """Value counts of one column, optionally truncated to the *top* values."""
    pairs = frame.column(column).value_counts()
    if top is not None:
        return pairs[:top]
    return pairs


def crosstab(frame: DataFrame, row_column: str, col_column: str,
             max_row_categories: int = 20,
             max_col_categories: int = 20) -> Tuple[List[Any], List[Any], np.ndarray]:
    """Cross tabulation (contingency table) of two categorical columns.

    Returns ``(row_categories, col_categories, counts)`` where counts has
    shape ``(len(row_categories), len(col_categories))``.  Categories beyond
    the per-axis limits are collapsed into an ``"(other)"`` bucket, mirroring
    how EDA tools keep nested/stacked bar charts readable.
    """
    row_codes, row_labels = frame.column(row_column).category_codes()
    col_codes, col_labels = frame.column(col_column).category_codes()
    keep = (row_codes >= 0) & (col_codes >= 0)
    row_codes, col_codes = row_codes[keep], col_codes[keep]
    row_categories, row_map = _top_codes(row_codes, row_labels,
                                         max_row_categories)
    col_categories, col_map = _top_codes(col_codes, col_labels,
                                         max_col_categories)
    counts = np.zeros((len(row_categories), len(col_categories)),
                      dtype=np.int64)
    if row_codes.size and counts.size:
        # One fused bincount over (row index, column index) pairs.
        fused = row_map[row_codes] * len(col_categories) + col_map[col_codes]
        counts += np.bincount(fused, minlength=counts.size).reshape(counts.shape)
    return row_categories, col_categories, counts


def _by_frequency(codes: np.ndarray, labels: np.ndarray) -> List[int]:
    """The codes that occur, most frequent first, ties broken on the label."""
    tallies = np.bincount(codes, minlength=labels.size)
    return sorted(np.flatnonzero(tallies).tolist(),
                  key=lambda code: (-int(tallies[code]), str(labels[code])))


def _top_codes(codes: np.ndarray, labels: np.ndarray,
               limit: int) -> Tuple[List[str], np.ndarray]:
    """The *limit* most frequent categories, with an ``"(other)"`` bucket if
    truncated, plus an int64 table mapping every code to its index in that
    category list."""
    ordered = _by_frequency(codes, labels)
    top = ordered[:limit]
    categories = [str(labels[code]) for code in top]
    truncated = len(ordered) > limit
    if truncated:
        categories.append("(other)")
    table = np.full(max(labels.size, 1), len(categories) - 1 if truncated
                    else 0, dtype=np.int64)
    table[top] = np.arange(len(top))
    return categories, table


def groupby_aggregate(frame: DataFrame, by: str, value: str,
                      aggregation: str = "mean",
                      max_groups: int = 20) -> List[Tuple[Any, float]]:
    """Aggregate a numeric column per category of another column.

    Returns ``(category, aggregated value)`` pairs for the *max_groups* most
    frequent categories.  Raises :class:`DTypeError` if the value column is
    not numeric or the aggregation name is unknown.
    """
    if aggregation not in AGGREGATIONS:
        raise DTypeError(
            f"unknown aggregation {aggregation!r}; "
            f"expected one of {sorted(AGGREGATIONS)}")
    reducer = AGGREGATIONS[aggregation]
    return [(group, reducer(values))
            for group, values in grouped_values(frame, by, value, max_groups)]


def grouped_values(frame: DataFrame, by: str, value: str,
                   max_groups: int = 10) -> List[Tuple[str, np.ndarray]]:
    """Raw numeric values per category, for categorical box plots.

    Returns the *max_groups* most frequent categories (ties broken on the
    category name) with their numeric samples as float arrays in row order,
    rows missing either value dropped.
    """
    value_column = frame.column(value)
    if not value_column.dtype.is_numeric:
        raise DTypeError(f"column {value!r} must be numeric")
    codes, labels = frame.column(by).category_codes()
    keep = (codes >= 0) & value_column.notna()
    codes = codes[keep]
    values = value_column.filter(keep).to_numpy().astype(np.float64)
    return [(str(labels[code]), values[codes == code])
            for code in _by_frequency(codes, labels)[:max_groups]]
