"""Deliberately naive reference semantics for the categorical kernels.

Every function works on plain python lists (``None`` = missing, as
``Column.to_list()`` returns them) with Counter / dict loops — the smallest
code that says what each result *means*.  The vectorized codes kernels in
``repro.frame`` / ``repro.stats`` / ``repro.eda.compute`` are tested against
these; nothing here may import a kernel it is the reference for.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple


def present(values: Sequence[Any]) -> List[Any]:
    return [value for value in values if value is not None]


def value_counts(values: Sequence[Any]) -> List[Tuple[Any, int]]:
    """``(value, count)`` by descending count, ties on ``str(value)``."""
    return sorted(Counter(present(values)).items(),
                  key=lambda pair: (-pair[1], str(pair[0])))


def unique(values: Sequence[Any]) -> List[Any]:
    """Distinct present values in first-seen order."""
    return list(dict.fromkeys(present(values)))


def minimum(values: Sequence[Any]) -> Any:
    return min(present(values), default=None)


def maximum(values: Sequence[Any]) -> Any:
    return max(present(values), default=None)


def labels(values: Sequence[Any]) -> List[Optional[str]]:
    """What a categorical kernel sees: ``str(value)``, None where missing."""
    return [None if value is None else str(value) for value in values]


def _by_frequency(items: Sequence[str]) -> List[str]:
    return [label for label, _ in
            sorted(Counter(items).items(), key=lambda pair: (-pair[1], pair[0]))]


def _top_categories(items: Sequence[str], limit: int) -> List[str]:
    ordered = _by_frequency(items)
    return ordered[:limit] + (["(other)"] if len(ordered) > limit else [])


def crosstab(rows: Sequence[Any], cols: Sequence[Any], max_rows: int,
             max_cols: int) -> Tuple[List[str], List[str], List[List[int]]]:
    pairs = [(a, b) for a, b in zip(labels(rows), labels(cols))
             if a is not None and b is not None]
    row_categories = _top_categories([a for a, _ in pairs], max_rows)
    col_categories = _top_categories([b for _, b in pairs], max_cols)
    counts = [[0] * len(col_categories) for _ in row_categories]
    for a, b in pairs:
        i = row_categories.index(a) if a in row_categories[:max_rows] \
            else len(row_categories) - 1
        j = col_categories.index(b) if b in col_categories[:max_cols] \
            else len(col_categories) - 1
        counts[i][j] += 1
    return row_categories, col_categories, counts


def grouped_values(groups: Sequence[Any], numbers: Sequence[Any],
                   max_groups: int) -> List[Tuple[str, List[float]]]:
    """Numbers per group label in row order, most frequent groups first."""
    pairs = [(group, float(number))
             for group, number in zip(labels(groups), numbers)
             if group is not None and number is not None]
    buckets: Dict[str, List[float]] = {}
    for group, number in pairs:
        buckets.setdefault(group, []).append(number)
    return [(group, buckets[group])
            for group in _by_frequency([g for g, _ in pairs])[:max_groups]]


def pair_counts(first: Sequence[Any],
                second: Sequence[Any]) -> Dict[Tuple[str, str], int]:
    return dict(Counter((a, b) for a, b in zip(labels(first), labels(second))
                        if a is not None and b is not None))


def categorical_summary(values: Sequence[Any]) -> Dict[str, Any]:
    texts = [label for label in labels(values) if label is not None]
    lengths = [len(text) for text in texts]
    return {
        "counts": dict(Counter(texts)),
        "total": len(values),
        "missing": len(values) - len(texts),
        "total_length": sum(lengths),
        "min_length": min(lengths, default=None),
        "max_length": max(lengths, default=None),
    }


def duplicate_row_count(columns: Sequence[Sequence[Any]]) -> int:
    rows = list(zip(*columns))
    return len(rows) - len(set(rows))


def per_row_object_bytes(values: Sequence[Any]) -> int:
    """Footprint of carrying one python ``str`` per row (pointer + mask byte
    + the object itself) — what dictionary encoding is measured against."""
    return 9 * len(values) + sum(sys.getsizeof(value)
                                 for value in present(values))
