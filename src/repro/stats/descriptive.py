"""Mergeable descriptive summaries for numeric and categorical columns.

Both summary types implement the sketch ``merge`` protocol of
:mod:`repro.stats.sketches` so per-partition partial summaries can be
combined in a tree reduction; the derived statistics (mean, variance,
skewness, kurtosis, entropy, ...) are computed only at finalization time.

:class:`NumericSummary` is built on :class:`~repro.stats.sketches.MomentsSketch`
(streaming central moments with the Welford/Chan pairwise merge), which keeps
the derived moments numerically stable even when millions of chunk summaries
are merged during an out-of-core scan.  :class:`CategoricalSummary` is exact
by default; the streaming path bounds it with a ``capacity`` so a
high-cardinality column cannot grow the per-chunk state past the memory
budget — a :class:`~repro.stats.sketches.DistinctSketch`, built at the first
prune, then keeps the distinct count honest.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.frame.column import Column, category_labels, fixed_label_width
from repro.stats.sketches import DistinctSketch, MomentsSketch

#: Object header of a python ``str``, for
#: :meth:`CategoricalSummary.memory_bytes`.
_STR_OVERHEAD = sys.getsizeof("")

#: ``(total, min, max)`` label length of a categorical summary's values.
_Lengths = Tuple[int, Optional[int], Optional[int]]


@dataclass
class NumericSummary:
    """Mergeable moments-based summary of a numeric column.

    The central-moment sketch allows mean, variance, skewness and kurtosis
    to be derived after merging, matching the single-pass statistics the
    paper's Compute module shares across the stats table, box plot and Q-Q
    plot.  ``sum1`` is the raw sum, derived from the mean.
    """

    moments: MomentsSketch = field(default_factory=MomentsSketch)
    missing: int = 0
    infinite: int = 0
    zeros: int = 0
    negatives: int = 0
    total: int = 0

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: np.ndarray, missing: int = 0) -> "NumericSummary":
        """Summary of an array of present (non-missing) float values."""
        values = np.asarray(values, dtype=np.float64)
        finite = values[np.isfinite(values)]
        summary = cls(moments=MomentsSketch.from_values(finite))
        summary.total = int(values.size) + int(missing)
        summary.missing = int(missing)
        summary.infinite = int(np.isinf(values).sum())
        if finite.size:
            summary.zeros = int((finite == 0).sum())
            summary.negatives = int((finite < 0).sum())
        return summary

    @classmethod
    def from_column(cls, column: Column) -> "NumericSummary":
        """Summary of a numeric :class:`Column` (missing values excluded)."""
        return cls.from_values(column.to_numpy(drop_missing=True).astype(np.float64),
                               missing=column.missing_count())

    def merge(self, other: "NumericSummary") -> "NumericSummary":
        """Combine two partial summaries (associative and commutative)."""
        return NumericSummary(
            moments=self.moments.merge(other.moments),
            missing=self.missing + other.missing,
            infinite=self.infinite + other.infinite,
            zeros=self.zeros + other.zeros,
            negatives=self.negatives + other.negatives,
            total=self.total + other.total,
        )

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of finite values."""
        return self.moments.count

    @property
    def minimum(self) -> float:
        """Smallest finite value (``inf`` when empty, as merge identity)."""
        return self.moments.minimum

    @property
    def maximum(self) -> float:
        """Largest finite value (``-inf`` when empty, as merge identity)."""
        return self.moments.maximum

    @property
    def sum1(self) -> float:
        """Raw power sum ``sum(x)``, derived from the central moments."""
        return self.moments.mean * self.count

    @property
    def mean(self) -> float:
        """Mean of the finite values (NaN when empty)."""
        return self.moments.mean if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1) of the finite values."""
        return self.moments.variance

    @property
    def std(self) -> float:
        """Sample standard deviation of the finite values."""
        return self.moments.std

    @property
    def skewness(self) -> float:
        """Fisher-Pearson skewness derived from the central moments."""
        return self.moments.skewness

    @property
    def kurtosis(self) -> float:
        """Excess kurtosis derived from the central moments."""
        return self.moments.kurtosis

    @property
    def coefficient_of_variation(self) -> float:
        """std / mean (NaN when the mean is zero or undefined)."""
        mean = self.mean
        if mean == 0 or mean != mean:
            return float("nan")
        return self.std / mean

    @property
    def value_range(self) -> float:
        """max - min of the finite values (NaN when empty)."""
        if self.count == 0:
            return float("nan")
        return self.maximum - self.minimum

    @property
    def missing_rate(self) -> float:
        """Fraction of missing entries out of all rows seen."""
        return self.missing / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flatten the summary + derived statistics into a dictionary."""
        return {
            "count": self.count,
            "missing": self.missing,
            "missing_rate": self.missing_rate,
            "infinite": self.infinite,
            "zeros": self.zeros,
            "negatives": self.negatives,
            "mean": self.mean,
            "std": self.std,
            "variance": self.variance,
            "cv": self.coefficient_of_variation,
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
            "range": self.value_range,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "sum": self.sum1,
        }


def _label_lengths(labels: np.ndarray, counts: np.ndarray) -> _Lengths:
    """``(total, min, max)`` label length over a table's present values."""
    if not labels.size:
        return 0, None, None
    lengths = np.fromiter(map(len, labels.tolist()), dtype=np.int64,
                          count=labels.size)
    return int(lengths @ counts), int(lengths.min()), int(lengths.max())


def _merged_lengths(first: _Lengths, second: _Lengths) -> _Lengths:
    """The length statistics of two tables' values together."""
    if first[1] is None:
        return second
    if second[1] is None:
        return first
    return (first[0] + second[0], min(first[1], second[1]),
            max(first[2], second[2]))


def _top_of(counts: np.ndarray, n: int) -> np.ndarray:
    """Indices of the *n* largest *counts*, ties in index order: a partition
    for the cut-off count, then a sort of only the entries above it — ties
    at the cut-off are already in index order."""
    if n >= counts.size:
        return np.argsort(-counts, kind="stable")
    if n <= 0:
        return np.empty(0, dtype=np.intp)
    cutoff = np.partition(counts, counts.size - n)[counts.size - n]
    above = np.flatnonzero(counts > cutoff)
    ties = np.flatnonzero(counts == cutoff)[:n - above.size]
    ranked = above[np.argsort(-counts[above], kind="stable")]
    return np.concatenate([ranked, ties])


@dataclass(eq=False)
class CategoricalSummary:
    """Mergeable summary of a categorical column.

    The value-count table is two aligned arrays: ``categories``, the
    distinct present categories in ascending order, and ``tallies``, their
    ``int64`` frequencies.  A category is what
    :meth:`Column.category_counts` yields: the label text itself for
    STRING columns and :meth:`from_values`, the storage value for BOOL /
    INT / FLOAT / DATETIME columns.  Either way the table is canonical —
    equal tables are equal arrays whatever the chunking — so ``merge`` is
    one pass over two sorted runs and every statistic is an array
    reduction; nothing below calls a python function per distinct value.

    Labels (``str(value)``) of a value table are formatted lazily, for what
    is read: the ``top_values`` entries, ``labels`` / ``counts_by_label()``,
    and the distinct sketch of a pruning summary.  Ordering by label (ties
    at the top-k cut-off) and the length statistics need no text for
    datetimes inside python's range — fixed-width ISO labels sort like
    their values — and format every distinct value once for the other
    dtypes, which are low-cardinality by the semantic-type rule.  ``str``
    is injective on distinct storage values, so merging by value equals
    merging by label; two sides in different spaces merge as text.

    Exact and unbounded by default.  When built with a ``capacity`` (the
    out-of-core streaming path does this), the table is pruned to the
    ``capacity`` most frequent entries whenever it grows past the bound;
    ``pruned_count`` keeps the present-value total exact, ``pruned_max``
    bounds the count error of any surviving entry, and a
    :class:`~repro.stats.sketches.DistinctSketch` keeps the distinct count
    accurate — built only when exactness is lost: the first prune hashes the
    still-complete table's labels, later merges union in the other side's
    sketch or labels, and a summary that never prunes has
    ``distinct_sketch is None``.
    """

    categories: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=object))
    tallies: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    missing: int = 0
    total: int = 0
    #: ``(total, min, max)`` label length, or None while a value table is
    #: complete and derives them (see :meth:`_length_stats`).
    lengths: Optional[_Lengths] = (0, None, None)
    capacity: Optional[int] = None
    pruned_count: int = 0
    pruned_max: int = 0
    distinct_sketch: Optional[DistinctSketch] = None

    def __post_init__(self) -> None:
        # Formatted once when first read; neither pickled nor compared.
        self._text: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None

    def __getstate__(self) -> Dict[str, Any]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def _of_table(cls, categories: np.ndarray, tallies: np.ndarray,
                  missing: int, capacity: Optional[int]) -> "CategoricalSummary":
        """Summary of one chunk's table (*categories* sorted and distinct)."""
        lengths = _label_lengths(categories, tallies) \
            if categories.dtype == object else None
        summary = cls(categories, tallies, missing=missing, capacity=capacity,
                      total=int(tallies.sum()) + missing, lengths=lengths)
        summary._prune()
        return summary

    @classmethod
    def from_values(cls, values: Iterable[Any], missing: int = 0,
                    capacity: Optional[int] = None) -> "CategoricalSummary":
        """Summary of an iterable of present values (stringified).

        The plain per-value loop: the entry point for arbitrary python
        values and what :meth:`from_column` is tested against.
        """
        tallies: Dict[str, int] = {}
        for value in values:
            text = str(value)
            tallies[text] = tallies.get(text, 0) + 1
        ordered = sorted(tallies)
        counts = np.fromiter(map(tallies.__getitem__, ordered), dtype=np.int64,
                             count=len(ordered))
        return cls._of_table(np.array(ordered, dtype=object), counts, missing,
                             capacity)

    @classmethod
    def from_column(cls, column: Column,
                    capacity: Optional[int] = None) -> "CategoricalSummary":
        """Summary of a :class:`Column` treated as categorical — its
        :meth:`~Column.category_counts`, no label formatted — equal to
        :meth:`from_values` on the decoded present values."""
        categories, tallies = column.category_counts()
        return cls._of_table(categories, tallies, column.missing_count(),
                             capacity)

    # ------------------------------------------------------------------ #
    # Labels, formatted on demand
    # ------------------------------------------------------------------ #
    def _texts(self) -> np.ndarray:
        """Every category's label, in category order."""
        if self.categories.dtype == object:
            return self.categories
        if self._text is None:
            self._text = category_labels(self.categories)
        return self._text

    def _label_order(self) -> Optional[np.ndarray]:
        """The permutation that sorts the table by label; None when category
        order is label order already (text, datetimes in python's range)."""
        if self.categories.dtype == object or \
                fixed_label_width(self.categories) is not None:
            return None
        if self._order is None:
            self._order = np.argsort(self._texts(), kind="stable")
        return self._order

    def _length_stats(self) -> _Lengths:
        """``(total, min, max)`` label length over every present value."""
        if self.lengths is not None:
            return self.lengths
        if not self.categories.size:
            return 0, None, None
        width = fixed_label_width(self.categories)
        if width is None:
            return _label_lengths(self._texts(), self.tallies)
        return width * int(self.tallies.sum()), width, width

    @property
    def labels(self) -> np.ndarray:
        """The distinct value texts, ascending (object array)."""
        order = self._label_order()
        return self._texts() if order is None else self._texts()[order]

    @property
    def counts(self) -> np.ndarray:
        """The ``int64`` frequencies aligned with :attr:`labels`."""
        order = self._label_order()
        return self.tallies if order is None else self.tallies[order]

    @property
    def total_length(self) -> int:
        """Summed label length of every present value."""
        return self._length_stats()[0]

    @property
    def min_length(self) -> Optional[int]:
        """Shortest label length (None when no value is present)."""
        return self._length_stats()[1]

    @property
    def max_length(self) -> Optional[int]:
        """Longest label length (None when no value is present)."""
        return self._length_stats()[2]

    def _as_text(self) -> "CategoricalSummary":
        """This summary with its table keyed by label."""
        if self.categories.dtype == object:
            return self
        return CategoricalSummary(
            self.labels, self.counts, missing=self.missing, total=self.total,
            lengths=self._length_stats(), capacity=self.capacity,
            pruned_count=self.pruned_count, pruned_max=self.pruned_max,
            distinct_sketch=self.distinct_sketch)

    # ------------------------------------------------------------------ #
    # Merging and pruning
    # ------------------------------------------------------------------ #
    def _top(self, n: int) -> np.ndarray:
        """Indices of the *n* most frequent entries by ``(-count, label)``."""
        order = self._label_order()
        if order is None:
            return _top_of(self.tallies, n)
        return order[_top_of(self.tallies[order], n)]

    def _prune(self) -> None:
        """Drop the least frequent entries beyond ``capacity`` (in place)."""
        if self.capacity is None or self.tallies.size <= self.capacity:
            return
        if self.distinct_sketch is None:
            self.distinct_sketch = DistinctSketch.from_values(
                self._texts().tolist())
        self.lengths = self._length_stats()     # while the table is complete
        kept = np.zeros(self.tallies.size, dtype=np.bool_)
        kept[self._top(self.capacity)] = True
        dropped = self.tallies[~kept]
        self.pruned_count += int(dropped.sum())
        self.pruned_max = max(self.pruned_max, int(dropped.max()))
        self.categories, self.tallies = self.categories[kept], self.tallies[kept]
        if self._text is not None:
            self._text = self._text[kept]
        self._order = None

    def merge(self, other: "CategoricalSummary") -> "CategoricalSummary":
        """Combine two partial summaries."""
        first, second = self, other
        if first.categories.dtype != second.categories.dtype:
            first, second = first._as_text(), second._as_text()
        categories = np.concatenate([first.categories, second.categories])
        tallies = np.concatenate([first.tallies, second.tallies])
        # Two sorted runs: the stable (tim)sort merges them in one pass.
        order = np.argsort(categories, kind="stable")
        categories, tallies = categories[order], tallies[order]
        first_entry = np.ones(categories.size, dtype=np.bool_)
        first_entry[1:] = categories[1:] != categories[:-1]
        starts = np.flatnonzero(first_entry)
        lengths = None      # two complete value tables still derive theirs
        if first.lengths is not None or second.lengths is not None:
            lengths = _merged_lengths(first._length_stats(),
                                      second._length_stats())
        capacities = [cap for cap in (first.capacity, second.capacity)
                      if cap is not None]
        merged = CategoricalSummary(
            categories=categories[starts],
            tallies=np.add.reduceat(tallies, starts),
            missing=first.missing + second.missing,
            total=first.total + second.total,
            lengths=lengths,
            capacity=min(capacities) if capacities else None,
            pruned_count=first.pruned_count + second.pruned_count,
            pruned_max=max(first.pruned_max, second.pruned_max),
            distinct_sketch=first._merged_sketch(second),
        )
        merged._prune()
        return merged

    def _merged_sketch(self, other: "CategoricalSummary"
                       ) -> Optional[DistinctSketch]:
        """Union the distinct sketches, hashing a sketch-less side's (still
        complete) labels; None while neither side has pruned."""
        if self.distinct_sketch is None and other.distinct_sketch is None:
            return None
        first = self.distinct_sketch or \
            DistinctSketch.from_values(self._texts().tolist())
        second = other.distinct_sketch or \
            DistinctSketch.from_values(other._texts().tolist())
        return first.merge(second)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, CategoricalSummary):
            return NotImplemented
        if self.categories.dtype == other.categories.dtype:
            tables = ((self.categories, other.categories),
                      (self.tallies, other.tallies))
        else:
            tables = ((self.labels, other.labels), (self.counts, other.counts))
        facts = ("missing", "total", "capacity", "pruned_count", "pruned_max",
                 "distinct_sketch")
        return (all(np.array_equal(mine, theirs) for mine, theirs in tables)
                and self._length_stats() == other._length_stats()
                and all(getattr(self, name) == getattr(other, name)
                        for name in facts))

    def memory_bytes(self) -> int:
        """O(1) footprint estimate for the task cache's byte budget: the
        table's arrays, one ``str`` object per label it holds at the mean
        present-value length (one byte per character) — for a value table,
        only once formatted — and the sketch's hashes."""
        size = self.categories.nbytes + self.tallies.nbytes
        texts = self.categories if self.categories.dtype == object \
            else self._text
        if texts is not None and texts.size:
            mean_length = self.total_length / max(self.total - self.missing, 1)
            size += int(texts.size * (_STR_OVERHEAD + mean_length))
            if texts is not self.categories:
                size += texts.nbytes
        if self._order is not None:
            size += self._order.nbytes
        if self.distinct_sketch is not None:
            size += self.distinct_sketch.hashes.nbytes
        return size

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    def counts_by_label(self) -> Dict[str, int]:
        """The (retained) table as a new ``{label: count}`` dict."""
        return dict(zip(self.labels.tolist(), self.counts.tolist()))

    @property
    def count(self) -> int:
        """Number of present values (exact even after pruning)."""
        return int(self.tallies.sum()) + self.pruned_count

    @property
    def distinct(self) -> int:
        """Number of distinct present values (estimated once pruned)."""
        if self.pruned_count and self.distinct_sketch is not None:
            return max(self.tallies.size, self.distinct_sketch.estimate())
        return self.tallies.size

    @property
    def missing_rate(self) -> float:
        """Fraction of missing entries out of all rows seen."""
        return self.missing / self.total if self.total else 0.0

    @property
    def mean_length(self) -> float:
        """Mean string length of present values."""
        count = self.count
        return self.total_length / count if count else float("nan")

    @property
    def entropy(self) -> float:
        """Shannon entropy (bits) of the (retained) category distribution."""
        count = self.count
        if count == 0:
            return 0.0
        # Summed in label order, as the text table always was.
        shares = self.counts / count
        return 0.0 - float((shares * np.log2(shares)).sum())

    def top_categories(self, n: int = 10) -> np.ndarray:
        """The categories of the *n* most frequent values, in
        :meth:`top_values` order (label texts or storage values, as the
        column's :meth:`~Column.category_codes` has them)."""
        return self.categories[self._top(n)]

    def top_values(self, n: int = 10) -> List[Tuple[str, int]]:
        """The *n* most frequent values as ``(value, count)`` pairs, ties
        in label order."""
        top = self._top(n)
        texts = category_labels(self.categories[top]) if self._text is None \
            else self._text[top]
        return list(zip(texts.tolist(), self.tallies[top].tolist()))

    def mode(self) -> Optional[str]:
        """Most frequent value (None when the column is empty)."""
        top = self.top_values(1)
        return top[0][0] if top else None

    def as_dict(self) -> Dict[str, Any]:
        """Flatten the summary + derived statistics into a dictionary."""
        top = self.top_values(1)
        count = self.count
        return {
            "count": count,
            "missing": self.missing,
            "missing_rate": self.missing_rate,
            "distinct": self.distinct,
            "unique_rate": self.distinct / count if count else 0.0,
            "top": top[0][0] if top else None,
            "top_freq": top[0][1] if top else 0,
            "entropy": self.entropy,
            "mean_length": self.mean_length,
            "min_length": self.min_length,
            "max_length": self.max_length,
        }


def numeric_summary_of(column: Column) -> NumericSummary:
    """Convenience wrapper used by the eager baseline profiler."""
    return NumericSummary.from_column(column)


def categorical_summary_of(column: Column) -> CategoricalSummary:
    """Convenience wrapper used by the eager baseline profiler."""
    return CategoricalSummary.from_column(column)
