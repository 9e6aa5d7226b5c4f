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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.frame.column import Column
from repro.stats.sketches import DistinctSketch, MomentsSketch

#: Object header of a python ``str``, for
#: :meth:`CategoricalSummary.memory_bytes`.
_STR_OVERHEAD = sys.getsizeof("")


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


@dataclass(eq=False)
class CategoricalSummary:
    """Mergeable summary of a categorical (string-like) column.

    The value-count table is two aligned arrays: ``labels``, the distinct
    value texts in ascending order, and ``counts``, their ``int64``
    frequencies.  Sorted labels make the table canonical — equal tables are
    equal arrays whatever the chunking — so ``merge`` is one pass over two
    sorted runs and every statistic is an array reduction; nothing below
    calls a python function per distinct value.

    Exact and unbounded by default.  When built with a ``capacity`` (the
    out-of-core streaming path does this), the table is pruned to the
    ``capacity`` most frequent entries whenever it grows past the bound;
    ``pruned_count`` keeps the present-value total exact, ``pruned_max``
    bounds the count error of any surviving entry, and a
    :class:`~repro.stats.sketches.DistinctSketch` keeps the distinct count
    accurate — built only when exactness is lost: the first prune hashes the
    still-complete table, later merges union in the other side's sketch or
    labels, and a summary that never prunes has ``distinct_sketch is None``.
    """

    labels: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=object))
    counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    missing: int = 0
    total: int = 0
    total_length: int = 0
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    capacity: Optional[int] = None
    pruned_count: int = 0
    pruned_max: int = 0
    distinct_sketch: Optional[DistinctSketch] = None

    @classmethod
    def _of_table(cls, labels: np.ndarray, counts: np.ndarray, missing: int,
                  capacity: Optional[int]) -> "CategoricalSummary":
        """Summary of one chunk's table (*labels* sorted and distinct)."""
        summary = cls(labels, counts, missing=missing, capacity=capacity,
                      total=int(counts.sum()) + missing)
        texts = labels.tolist()
        if texts:
            lengths = np.fromiter(map(len, texts), dtype=np.int64,
                                  count=len(texts))
            summary.total_length = int(lengths @ counts)
            summary.min_length = int(lengths.min())
            summary.max_length = int(lengths.max())
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
        """Summary of a :class:`Column` treated as categorical: one
        ``bincount`` over its category codes, equal to :meth:`from_values`
        on the decoded present values."""
        codes, labels = column.category_codes()
        tallies = np.bincount(codes[codes >= 0], minlength=labels.size)
        used = np.flatnonzero(tallies)
        # Numeric dtypes factorize in value order ("10" after "9"); on text
        # already in order (dictionaries, dates) the stable sort is one pass.
        used = used[np.argsort(labels[used], kind="stable")]
        return cls._of_table(labels[used],
                             tallies[used].astype(np.int64, copy=False),
                             column.missing_count(), capacity)

    def _top(self, n: int) -> np.ndarray:
        """Indices of the *n* most frequent entries by ``(-count, label)``:
        a partition for the cut-off count, then a sort of only the entries
        above it — ties at the cut-off are already in label order."""
        counts = self.counts
        if n >= counts.size:
            return np.argsort(-counts, kind="stable")
        if n <= 0:
            return np.empty(0, dtype=np.intp)
        cutoff = np.partition(counts, counts.size - n)[counts.size - n]
        above = np.flatnonzero(counts > cutoff)
        ties = np.flatnonzero(counts == cutoff)[:n - above.size]
        ranked = above[np.argsort(-counts[above], kind="stable")]
        return np.concatenate([ranked, ties])

    def _prune(self) -> None:
        """Drop the least frequent entries beyond ``capacity`` (in place)."""
        if self.capacity is None or self.labels.size <= self.capacity:
            return
        if self.distinct_sketch is None:
            self.distinct_sketch = DistinctSketch.from_values(self.labels.tolist())
        kept = np.zeros(self.labels.size, dtype=np.bool_)
        kept[self._top(self.capacity)] = True
        dropped = self.counts[~kept]
        self.pruned_count += int(dropped.sum())
        self.pruned_max = max(self.pruned_max, int(dropped.max()))
        self.labels, self.counts = self.labels[kept], self.counts[kept]

    def merge(self, other: "CategoricalSummary") -> "CategoricalSummary":
        """Combine two partial summaries."""
        labels = np.concatenate([self.labels, other.labels])
        counts = np.concatenate([self.counts, other.counts])
        # Two sorted runs: the stable (tim)sort merges them in one pass.
        order = np.argsort(labels, kind="stable")
        labels, counts = labels[order], counts[order]
        first = np.ones(labels.size, dtype=np.bool_)
        first[1:] = labels[1:] != labels[:-1]
        starts = np.flatnonzero(first)
        lengths = [length for length in (self.min_length, other.min_length)
                   if length is not None]
        max_lengths = [length for length in (self.max_length, other.max_length)
                       if length is not None]
        capacities = [cap for cap in (self.capacity, other.capacity)
                      if cap is not None]
        merged = CategoricalSummary(
            labels=labels[starts],
            counts=np.add.reduceat(counts, starts),
            missing=self.missing + other.missing,
            total=self.total + other.total,
            total_length=self.total_length + other.total_length,
            min_length=min(lengths) if lengths else None,
            max_length=max(max_lengths) if max_lengths else None,
            capacity=min(capacities) if capacities else None,
            pruned_count=self.pruned_count + other.pruned_count,
            pruned_max=max(self.pruned_max, other.pruned_max),
            distinct_sketch=self._merged_sketch(other),
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
            DistinctSketch.from_values(self.labels.tolist())
        second = other.distinct_sketch or \
            DistinctSketch.from_values(other.labels.tolist())
        return first.merge(second)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, CategoricalSummary):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return (np.array_equal(mine.pop("labels"), theirs.pop("labels"))
                and np.array_equal(mine.pop("counts"), theirs.pop("counts"))
                and mine == theirs)

    def memory_bytes(self) -> int:
        """O(1) footprint estimate for the task cache's byte budget: both
        arrays, one ``str`` object per label at the mean present-value
        length (one byte per character), and the sketch's hashes."""
        size = self.labels.nbytes + self.counts.nbytes
        if self.labels.size:
            mean_length = self.total_length / max(self.total - self.missing, 1)
            size += int(self.labels.size * (_STR_OVERHEAD + mean_length))
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
        return int(self.counts.sum()) + self.pruned_count

    @property
    def distinct(self) -> int:
        """Number of distinct present values (estimated once pruned)."""
        if self.pruned_count and self.distinct_sketch is not None:
            return max(self.labels.size, self.distinct_sketch.estimate())
        return self.labels.size

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
        shares = self.counts / count
        return 0.0 - float((shares * np.log2(shares)).sum())

    def top_values(self, n: int = 10) -> List[Tuple[str, int]]:
        """The *n* most frequent values as ``(value, count)`` pairs, ties
        in label order."""
        top = self._top(n)
        return list(zip(self.labels[top].tolist(), self.counts[top].tolist()))

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
