"""Mergeable histograms with shared bin edges."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import EDAError


@dataclass
class Histogram:
    """A fixed-edge histogram that can be merged across partitions."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        """Number of bins."""
        return int(self.counts.size)

    @property
    def total(self) -> int:
        """Total number of counted values."""
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        """Midpoint of each bin."""
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def widths(self) -> np.ndarray:
        """Width of each bin."""
        return np.diff(self.edges)

    def density(self) -> np.ndarray:
        """Probability-density normalisation of the counts."""
        total = self.total
        widths = self.widths
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / (total * np.where(widths > 0, widths, 1.0))

    def merge(self, other: "Histogram") -> "Histogram":
        """Merge two histograms built over identical edges."""
        if self.edges.shape != other.edges.shape or \
                not np.allclose(self.edges, other.edges):
            raise EDAError("cannot merge histograms with different bin edges")
        return type(self)(self.edges, self.counts + other.counts)


def compute_histogram(values: np.ndarray, bins: int,
                      value_range: Optional[Tuple[float, float]] = None) -> Histogram:
    """Histogram of an array of present values.

    When *value_range* is given the edges are fixed to it, which makes the
    result mergeable with histograms of other partitions computed over the
    same range (the compute module shares the global min/max for this).
    Non-finite values are ignored.
    """
    if bins <= 0:
        raise EDAError("bins must be positive")
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if value_range is None:
        if finite.size == 0:
            value_range = (0.0, 1.0)
        else:
            value_range = (float(finite.min()), float(finite.max()))
    low, high = value_range
    if not math.isfinite(low) or not math.isfinite(high):
        low, high = 0.0, 1.0
    if high <= low:
        high = low + 1.0
    counts, edges = np.histogram(finite, bins=bins, range=(low, high))
    return Histogram(edges=edges, counts=counts.astype(np.int64))


def freedman_diaconis_bins(count: int, q25: float, q75: float,
                           minimum: float, maximum: float,
                           fallback: int = 50, max_bins: int = 200) -> int:
    """Freedman–Diaconis rule for the number of bins.

    Falls back to *fallback* when the IQR is degenerate, and clamps to
    ``[1, max_bins]`` so charts stay readable.
    """
    if count <= 1 or not all(map(math.isfinite, (q25, q75, minimum, maximum))):
        return fallback
    iqr = q75 - q25
    data_range = maximum - minimum
    if iqr <= 0 or data_range <= 0:
        return fallback
    width = 2.0 * iqr / count ** (1.0 / 3.0)
    if width <= 0:
        return fallback
    return int(min(max_bins, max(1, round(data_range / width))))
