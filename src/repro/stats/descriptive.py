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
budget — a :class:`~repro.stats.sketches.DistinctSketch` then keeps the
distinct count honest once pruning starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame.column import Column
from repro.stats.sketches import DistinctSketch, MomentsSketch
from repro.stats.sketches import merge_all as _merge_all_sketches


@dataclass
class NumericSummary:
    """Mergeable moments-based summary of a numeric column.

    The central-moment sketch allows mean, variance, skewness and kurtosis
    to be derived after merging, matching the single-pass statistics the
    paper's Compute module shares across the stats table, box plot and Q-Q
    plot.  The raw power sums of the previous representation remain
    available as derived properties (``sum1`` .. ``sum4``).
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

    @staticmethod
    def merge_all(summaries: Sequence["NumericSummary"]) -> "NumericSummary":
        """Merge a list of partial summaries."""
        if not summaries:
            return NumericSummary()
        return _merge_all_sketches(list(summaries))

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
    def sum2(self) -> float:
        """Raw power sum ``sum(x^2)``, derived from the central moments."""
        mean, n = self.moments.mean, self.count
        return self.moments.m2 + n * mean * mean

    @property
    def sum3(self) -> float:
        """Raw power sum ``sum(x^3)``, derived from the central moments."""
        mean, n = self.moments.mean, self.count
        return self.moments.m3 + 3.0 * mean * self.moments.m2 + n * mean ** 3

    @property
    def sum4(self) -> float:
        """Raw power sum ``sum(x^4)``, derived from the central moments."""
        mean, n = self.moments.mean, self.count
        return (self.moments.m4 + 4.0 * mean * self.moments.m3
                + 6.0 * mean * mean * self.moments.m2 + n * mean ** 4)

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


@dataclass
class CategoricalSummary:
    """Mergeable summary of a categorical (string-like) column.

    Exact and unbounded by default.  When built with a ``capacity`` (the
    out-of-core streaming path does this), the value-count table is pruned
    to the ``capacity`` most frequent entries whenever it grows past the
    bound; ``pruned_count`` keeps the present-value total exact,
    ``pruned_max`` bounds the count error of any surviving entry, and a
    :class:`~repro.stats.sketches.DistinctSketch` — fed every distinct value
    *before* pruning — keeps the distinct count accurate.
    """

    counts: Dict[str, int] = field(default_factory=dict)
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
    def from_values(cls, values: Iterable[Any], missing: int = 0,
                    capacity: Optional[int] = None) -> "CategoricalSummary":
        """Summary of an iterable of present values (stringified)."""
        summary = cls(missing=missing, capacity=capacity)
        counts: Dict[str, int] = {}
        for value in values:
            text = str(value)
            counts[text] = counts.get(text, 0) + 1
            length = len(text)
            summary.total_length += length
            summary.min_length = length if summary.min_length is None \
                else min(summary.min_length, length)
            summary.max_length = length if summary.max_length is None \
                else max(summary.max_length, length)
        summary.counts = counts
        present = sum(counts.values())
        summary.total = present + missing
        if capacity is not None:
            summary.distinct_sketch = DistinctSketch.from_values(counts.keys())
            summary._prune()
        return summary

    @classmethod
    def from_codes(cls, codes: np.ndarray, dictionary: np.ndarray,
                   missing: int = 0,
                   capacity: Optional[int] = None) -> "CategoricalSummary":
        """Summary from category codes (negative = missing) and their
        labels — one ``bincount`` over the codes plus O(labels) python
        work, no per-row loop.

        Produces exactly what :meth:`from_values` would for the decoded
        values: the same counts, length statistics, pruning and distinct
        sketch.
        """
        summary = cls(missing=missing, capacity=capacity)
        present = codes[codes >= 0]
        if present.size:
            tallies = np.bincount(present, minlength=dictionary.size)
            used = np.flatnonzero(tallies)
            lengths = np.fromiter(
                (len(str(dictionary[index])) for index in used),
                dtype=np.int64, count=used.size)
            summary.counts = {str(dictionary[index]): int(tallies[index])
                              for index in used}
            summary.total_length = int((lengths * tallies[used]).sum())
            summary.min_length = int(lengths.min())
            summary.max_length = int(lengths.max())
        summary.total = int(present.size) + missing
        if capacity is not None:
            summary.distinct_sketch = DistinctSketch.from_values(
                summary.counts.keys())
            summary._prune()
        return summary

    @classmethod
    def from_column(cls, column: Column,
                    capacity: Optional[int] = None) -> "CategoricalSummary":
        """Summary of a :class:`Column` treated as categorical."""
        codes, labels = column.category_codes()
        return cls.from_codes(codes, labels, missing=column.missing_count(),
                              capacity=capacity)

    def _prune(self) -> None:
        """Drop the least frequent entries beyond ``capacity`` (in place)."""
        if self.capacity is None or len(self.counts) <= self.capacity:
            return
        ordered = sorted(self.counts.items(), key=lambda pair: (-pair[1], pair[0]))
        kept, dropped = ordered[:self.capacity], ordered[self.capacity:]
        self.pruned_count += sum(count for _, count in dropped)
        self.pruned_max = max([self.pruned_max] + [count for _, count in dropped])
        self.counts = dict(kept)

    def merge(self, other: "CategoricalSummary") -> "CategoricalSummary":
        """Combine two partial summaries."""
        counts = dict(self.counts)
        for value, count in other.counts.items():
            counts[value] = counts.get(value, 0) + count
        lengths = [length for length in (self.min_length, other.min_length)
                   if length is not None]
        max_lengths = [length for length in (self.max_length, other.max_length)
                       if length is not None]
        capacities = [cap for cap in (self.capacity, other.capacity)
                      if cap is not None]
        merged = CategoricalSummary(
            counts=counts,
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
        """Union the distinct sketches, covering any unbounded side's keys."""
        if self.distinct_sketch is None and other.distinct_sketch is None:
            return None
        first = self.distinct_sketch or DistinctSketch.from_values(self.counts.keys())
        second = other.distinct_sketch or DistinctSketch.from_values(other.counts.keys())
        return first.merge(second)

    @staticmethod
    def merge_all(summaries: Sequence["CategoricalSummary"]) -> "CategoricalSummary":
        """Merge a list of partial summaries."""
        if not summaries:
            return CategoricalSummary()
        return _merge_all_sketches(list(summaries))

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of present values (exact even after pruning)."""
        return sum(self.counts.values()) + self.pruned_count

    @property
    def distinct(self) -> int:
        """Number of distinct present values (estimated once pruned)."""
        if self.pruned_count and self.distinct_sketch is not None:
            return max(len(self.counts), self.distinct_sketch.estimate())
        return len(self.counts)

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
        entropy = 0.0
        for frequency in self.counts.values():
            p = frequency / count
            entropy -= p * math.log2(p)
        return entropy

    def top_values(self, n: int = 10) -> List[Tuple[str, int]]:
        """The *n* most frequent values as ``(value, count)`` pairs."""
        ordered = sorted(self.counts.items(), key=lambda pair: (-pair[1], pair[0]))
        return ordered[:n]

    def mode(self) -> Optional[str]:
        """Most frequent value (None when the column is empty)."""
        top = self.top_values(1)
        return top[0][0] if top else None

    def as_dict(self) -> Dict[str, Any]:
        """Flatten the summary + derived statistics into a dictionary."""
        top = self.top_values(1)
        return {
            "count": self.count,
            "missing": self.missing,
            "missing_rate": self.missing_rate,
            "distinct": self.distinct,
            "unique_rate": self.distinct / self.count if self.count else 0.0,
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
