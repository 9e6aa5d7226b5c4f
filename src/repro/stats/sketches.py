"""Mergeable one-pass sketches for out-of-core streaming EDA.

Every sketch in this module follows one protocol (:class:`Mergeable`): it can
be built from a single chunk of data in one pass, two partial sketches can be
``merge``-d into the sketch of the concatenation, and the derived statistics
are read only after the final merge.  That is exactly the shape the
tree-reduction executor (:meth:`repro.graph.partition.PartitionedFrame.reduction`)
needs, so a report over a CSV larger than memory can stream chunk by chunk
with a bounded footprint:

* :class:`MomentsSketch` — streaming central moments (count, mean, M2..M4)
  with the Welford/Chan pairwise merge; numerically stable where raw power
  sums are not.  :class:`repro.stats.descriptive.NumericSummary` is built on
  top of it.
* :class:`StreamingHistogram` — a fixed-range histogram that accepts
  incremental ``update`` batches and tracks values clipped outside its range.
* :class:`ReservoirSketch` — a bounded uniform row sample with a
  deterministic weighted merge; exact (keeps every row) while the total fits
  the capacity.
* :class:`DistinctSketch` — a bounded distinct-count estimator (k minimum
  hash values); exact until more than ``capacity`` distinct values are seen.
* :class:`NullitySketch` — per-column missing counts, pairwise co-missing
  counts and row-binned missing densities, sufficient to reconstruct the
  whole ``plot_missing(df)`` overview (bar chart, spectrum, nullity
  correlation and dendrogram) without ever materializing the full mask.
* :class:`DuplicateSketch` — a bounded multiset of 64-bit row hashes;
  duplicate-row counts stay exact while the distinct rows fit the
  capacity, and the sketch degrades to "unknown" (never a wrong number)
  once they do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    runtime_checkable,
)

import numpy as np

from repro.errors import EDAError
from repro.frame.dtypes import DType
from repro.stats.histogram import Histogram


# --------------------------------------------------------------------------- #
# The merge protocol
# --------------------------------------------------------------------------- #
@runtime_checkable
class Mergeable(Protocol):
    """Anything that can combine two partial results into one.

    ``a.merge(b)`` must return a new object equal (up to floating-point
    noise) to the sketch of the concatenated input, and must be associative
    so a tree reduction can combine partials in any grouping.
    """

    def merge(self, other: "Mergeable") -> "Mergeable":  # pragma: no cover
        ...


SketchT = TypeVar("SketchT", bound=Mergeable)


def merge_all(sketches: Sequence[SketchT]) -> SketchT:
    """Merge a non-empty sequence of mergeable sketches left to right."""
    if not sketches:
        raise EDAError("cannot merge zero sketches")
    merged = sketches[0]
    for sketch in sketches[1:]:
        merged = merged.merge(sketch)
    return merged


# --------------------------------------------------------------------------- #
# Streaming moments (Welford / Chan parallel merge)
# --------------------------------------------------------------------------- #
@dataclass
class MomentsSketch:
    """One-pass central moments of a stream of finite floats.

    Stores ``count``, ``mean`` and the central moment sums ``M2 = sum((x -
    mean)^2)``, ``M3``, ``M4`` plus min/max.  ``merge`` uses the pairwise
    update formulas of Chan et al. (the parallel generalization of Welford's
    algorithm), so merging sketches of arbitrary splits reproduces the sketch
    of the concatenation without the catastrophic cancellation that raw power
    sums suffer on large, far-from-zero data.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: np.ndarray) -> "MomentsSketch":
        """Sketch of an array; non-finite entries are ignored."""
        values = np.asarray(values, dtype=np.float64)
        finite = values[np.isfinite(values)]
        sketch = cls()
        if finite.size == 0:
            return sketch
        mean = float(finite.mean())
        deltas = finite - mean
        squares = deltas * deltas       # products, not ``**``: no libm pow
        sketch.count = int(finite.size)
        sketch.mean = mean
        sketch.m2 = float(squares.sum())
        sketch.m3 = float((squares * deltas).sum())
        sketch.m4 = float((squares * squares).sum())
        sketch.minimum = float(finite.min())
        sketch.maximum = float(finite.max())
        return sketch

    def update(self, value: float) -> None:
        """Welford single-value update (the strictly streaming entry point)."""
        if not math.isfinite(value):
            return
        n0 = self.count
        n = n0 + 1
        delta = value - self.mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term = delta * delta_n * n0
        self.count = n
        self.mean += delta_n
        self.m4 += (term * delta_n2 * (n * n - 3 * n + 3)
                    + 6 * delta_n2 * self.m2 - 4 * delta_n * self.m3)
        self.m3 += term * delta_n * (n - 2) - 3 * delta_n * self.m2
        self.m2 += term
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "MomentsSketch") -> "MomentsSketch":
        """Chan et al. pairwise combination of two partial sketches."""
        if self.count == 0:
            return MomentsSketch(other.count, other.mean, other.m2, other.m3,
                                 other.m4, other.minimum, other.maximum)
        if other.count == 0:
            return MomentsSketch(self.count, self.mean, self.m2, self.m3,
                                 self.m4, self.minimum, self.maximum)
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        delta2 = delta * delta
        mean = self.mean + delta * nb / n
        m2 = self.m2 + other.m2 + delta2 * na * nb / n
        m3 = (self.m3 + other.m3
              + delta ** 3 * na * nb * (na - nb) / (n * n)
              + 3.0 * delta * (na * other.m2 - nb * self.m2) / n)
        m4 = (self.m4 + other.m4
              + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n ** 3)
              + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
              + 4.0 * delta * (na * other.m3 - nb * self.m3) / n)
        return MomentsSketch(count=n, mean=mean, m2=m2, m3=m3, m4=m4,
                             minimum=min(self.minimum, other.minimum),
                             maximum=max(self.maximum, other.maximum))

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN below two values."""
        if self.count < 2:
            return float("nan")
        return max(self.m2, 0.0) / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else float("nan")

    @property
    def skewness(self) -> float:
        """Fisher-Pearson skewness; 0 on degenerate spread."""
        if self.count < 3:
            return float("nan")
        m2 = self.m2 / self.count
        if m2 <= 0:
            return 0.0
        return (self.m3 / self.count) / m2 ** 1.5

    @property
    def kurtosis(self) -> float:
        """Excess kurtosis; 0 on degenerate spread."""
        if self.count < 4:
            return float("nan")
        m2 = self.m2 / self.count
        if m2 <= 0:
            return 0.0
        return (self.m4 / self.count) / (m2 * m2) - 3.0


# --------------------------------------------------------------------------- #
# Fixed-range streaming histogram
# --------------------------------------------------------------------------- #
@dataclass
class StreamingHistogram(Histogram):
    """A :class:`Histogram` that accepts incremental batches.

    The edges are fixed up front (from a precomputed global min/max), so two
    sketches built over different chunks are mergeable by adding counts.
    Values outside the range are not silently lost: they are tallied in
    ``underflow`` / ``overflow``.
    """

    underflow: int = 0
    overflow: int = 0

    @classmethod
    def with_range(cls, bins: int, low: float, high: float) -> "StreamingHistogram":
        """An empty sketch with fixed edges over ``[low, high]``."""
        if bins <= 0:
            raise EDAError("bins must be positive")
        if not (math.isfinite(low) and math.isfinite(high)):
            low, high = 0.0, 1.0
        if high <= low:
            high = low + 1.0
        edges = np.linspace(low, high, bins + 1)
        return cls(edges=edges, counts=np.zeros(bins, dtype=np.int64))

    @classmethod
    def from_values(cls, values: np.ndarray, bins: int, low: float,
                    high: float) -> "StreamingHistogram":
        """One-shot construction: an empty sketch updated with one batch."""
        sketch = cls.with_range(bins, low, high)
        sketch.update(values)
        return sketch

    def update(self, values: np.ndarray) -> None:
        """Add one batch of values; non-finite entries are ignored."""
        values = np.asarray(values, dtype=np.float64)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        low, high = float(self.edges[0]), float(self.edges[-1])
        counts, _ = np.histogram(finite, bins=self.edges)
        self.counts = self.counts + counts.astype(np.int64)
        self.underflow += int((finite < low).sum())
        self.overflow += int((finite > high).sum())

    def merge(self, other: Histogram) -> "StreamingHistogram":
        """Merge with another histogram built over identical edges."""
        if self.edges.shape != other.edges.shape or \
                not np.allclose(self.edges, other.edges):
            raise EDAError("cannot merge histograms with different bin edges")
        return StreamingHistogram(
            edges=self.edges, counts=self.counts + other.counts,
            underflow=self.underflow + int(getattr(other, "underflow", 0)),
            overflow=self.overflow + int(getattr(other, "overflow", 0)))


# --------------------------------------------------------------------------- #
# Bounded uniform row sample (reservoir)
# --------------------------------------------------------------------------- #
@dataclass
class ReservoirSketch:
    """A bounded uniform row sample of a (possibly huge) DataFrame stream.

    While ``n_seen <= capacity`` the sketch simply keeps every row, so small
    datasets round-trip exactly; beyond that it holds a uniform sample of
    ``capacity`` rows.  ``merge`` draws from the two reservoirs with weights
    proportional to how many original rows each retained row represents,
    using an RNG seeded from the deterministic ``(seed, n_seen)`` state so
    replays — and therefore cross-call cache keys — are stable.
    """

    capacity: int
    frame: Any                      # repro.frame.frame.DataFrame
    n_seen: int = 0
    seed: int = 0

    @classmethod
    def from_frame(cls, frame: Any, capacity: int, seed: int = 0) -> "ReservoirSketch":
        """Sketch of one chunk: keep everything or a seeded uniform sample."""
        if capacity <= 0:
            raise EDAError("capacity must be positive")
        kept = frame if len(frame) <= capacity else frame.sample(capacity, seed=seed)
        return cls(capacity=capacity, frame=kept, n_seen=len(frame), seed=seed)

    def merge(self, other: "ReservoirSketch") -> "ReservoirSketch":
        """Combine two reservoirs into one uniform sample of both streams."""
        from repro.frame.frame import concat_rows
        if self.capacity != other.capacity:
            raise EDAError("cannot merge reservoirs with different capacities")
        n_seen = self.n_seen + other.n_seen
        parts = [sketch.frame for sketch in (self, other) if len(sketch.frame)]
        if not parts:
            return ReservoirSketch(self.capacity, self.frame, n_seen, self.seed)
        combined = concat_rows(parts) if len(parts) > 1 else parts[0]
        if n_seen <= self.capacity or len(combined) <= self.capacity:
            return ReservoirSketch(self.capacity, combined, n_seen, self.seed)
        weights = np.concatenate([
            np.full(len(sketch.frame), sketch.n_seen / len(sketch.frame))
            for sketch in (self, other) if len(sketch.frame)])
        weights = weights / weights.sum()
        rng = np.random.default_rng(
            (self.seed, self.n_seen, other.n_seen, self.capacity))
        indices = rng.choice(len(combined), size=self.capacity, replace=False,
                             p=weights)
        indices.sort()
        return ReservoirSketch(self.capacity, combined.take(indices), n_seen,
                               self.seed)

    @property
    def is_exact(self) -> bool:
        """True while the reservoir still holds every row it has seen."""
        return self.n_seen == len(self.frame)

    def quantiles(self, column: str, probabilities: Sequence[float]) -> List[float]:
        """Quantile estimates of one numeric column from the retained rows."""
        values = self.frame.column(column).to_numpy(drop_missing=True)
        values = np.asarray(values, dtype=np.float64)
        values = values[np.isfinite(values)]
        if values.size == 0:
            return [float("nan") for _ in probabilities]
        return [float(value) for value in np.quantile(values, list(probabilities))]


# --------------------------------------------------------------------------- #
# Bounded distinct count (k minimum values)
# --------------------------------------------------------------------------- #
#: FNV-1a's 64-bit offset basis and prime (row-hash combination; the prime is
#: also the text fold's multiplier), then splitmix64's increment and mixers.
_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

_EMPTY_U64 = np.zeros(0, dtype=np.uint64)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def hash_texts(texts: Sequence[str]) -> np.ndarray:
    """Process-stable ``uint64`` hashes of a sequence of strings, all code
    points in one pass (modulo 2^64): ``c_1 .. c_n`` fold to ``sum(c_j * P^j)``
    — FNV's multiply-add form, a segmented dot product where the xor form is
    a loop — plus ``n + 1`` splitmix64 increments, so ``"a"`` and ``"a\0"``
    differ though a NUL adds nothing to the sum; splitmix64's finaliser then
    mixes all 64 bits.  ``tests/naive_reference.py:hash_text`` spells it out.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    if not lengths.size:
        return _EMPTY_U64
    points = np.frombuffer(
        "".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # P^1 .. P^longest, gathered by each code point's position in its string.
    powers = np.cumprod(np.full(int(lengths.max()), _FNV_PRIME))
    position = np.arange(points.size) - np.repeat(starts, lengths)
    running = np.zeros(points.size + 1, dtype=np.uint64)
    np.cumsum(points * powers[position], out=running[1:])
    mixed = running[ends] - running[starts] \
        + (lengths.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    mixed = (mixed ^ (mixed >> np.uint64(30))) * _MIX_1
    mixed = (mixed ^ (mixed >> np.uint64(27))) * _MIX_2
    return mixed ^ (mixed >> np.uint64(31))


@dataclass(eq=False)
class DistinctSketch:
    """K-minimum-values distinct-count estimator with bounded memory.

    Keeps the ``capacity`` smallest 64-bit hashes of the values seen, as a
    sorted ``uint64`` array.  While fewer than ``capacity`` distinct hashes
    exist the count is exact; beyond that the k-th smallest hash estimates
    the distinct count as ``(k - 1) / h_k`` with ``h_k`` the k-th hash
    scaled to ``(0, 1]``.  All operations are deterministic, so merging
    sketches of any split equals the sketch of the concatenation exactly.
    """

    capacity: int = 4096
    hashes: np.ndarray = field(default_factory=lambda: _EMPTY_U64)

    @classmethod
    def from_values(cls, values: Iterable[Any], capacity: int = 4096
                    ) -> "DistinctSketch":
        """Sketch of an iterable of values, each hashed by its ``str`` text."""
        if capacity <= 0:
            raise EDAError("capacity must be positive")
        hashes = hash_texts(list(set(map(str, values))))
        return cls(capacity, np.unique(hashes)[:capacity])

    def merge(self, other: "DistinctSketch") -> "DistinctSketch":
        """Union of two sketches (keeps the smallest ``capacity`` hashes)."""
        capacity = min(self.capacity, other.capacity)
        return DistinctSketch(
            capacity, np.union1d(self.hashes, other.hashes)[:capacity])

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, DistinctSketch):
            return NotImplemented
        return self.capacity == other.capacity and \
            np.array_equal(self.hashes, other.hashes)

    @property
    def saturated(self) -> bool:
        """True once the sketch can no longer count exactly."""
        return len(self.hashes) >= self.capacity

    def estimate(self) -> int:
        """Distinct-count estimate (exact while not saturated)."""
        if not self.saturated:
            return len(self.hashes)
        fraction = (int(self.hashes[-1]) + 1) / float(2 ** 64)  # in (0, 1]
        return int(round((len(self.hashes) - 1) / fraction))


# --------------------------------------------------------------------------- #
# Bounded duplicate-row counting
# --------------------------------------------------------------------------- #
#: Distinct row-hash bound of a DuplicateSketch: 16k entries keep the sketch
#: (two 8-byte arrays) and its merge transients around a quarter megabyte,
#: small against the streaming memory budgets, while staying exact for
#: datasets with up to 16k distinct rows — which covers the "mostly
#: duplicated log file" shape the count is interesting for.
DUPLICATE_SKETCH_CAPACITY = 16_384

#: Code standing in for a missing cell; missing cells compare equal to each
#: other, matching DataFrame.duplicate_row_count.
_MISSING_CODE = _GOLDEN


def _column_hash_codes(column: Any) -> np.ndarray:
    """Per-row 64-bit codes of one Column; equal values get equal codes."""
    if column.dtype is DType.STRING:
        # Hash the (small) dictionary in one pass and gather by code — no
        # per-row python loop and no decoded object array.
        table = hash_texts(column.dictionary.tolist())
        codes = table[np.where(column.codes < 0, 0, column.codes)] \
            if table.size else np.zeros(len(column), dtype=np.uint64)
        codes[column.isna()] = _MISSING_CODE
        return codes
    data = column.data
    if np.issubdtype(data.dtype, np.floating):
        canonical = data.astype(np.float64) + 0.0       # -0.0 → +0.0
        canonical[np.isnan(canonical)] = np.nan          # one NaN bit pattern
        codes = canonical.view(np.uint64)
    elif np.issubdtype(data.dtype, np.datetime64):
        codes = data.astype("datetime64[s]").view(np.int64).view(np.uint64)
    else:                                                # INT / BOOL
        codes = data.astype(np.int64).view(np.uint64)
    codes = codes.copy()
    codes[column.isna()] = _MISSING_CODE
    return codes


def frame_row_hashes(frame: Any) -> np.ndarray:
    """Vectorized 64-bit hash per row of a DataFrame chunk.

    Rows hash equal iff every cell compares equal column-wise, with missing
    cells equal to each other — the same equality
    :meth:`repro.frame.frame.DataFrame.duplicate_row_count` uses, so hash
    multiset counts reproduce the exact scan up to (negligible) 64-bit
    collisions.
    """
    hashes = np.full(len(frame), _FNV_OFFSET, dtype=np.uint64)
    for name in frame.columns:
        codes = _column_hash_codes(frame.column(name))
        hashes = (hashes ^ codes) * _FNV_PRIME
    return hashes


@dataclass
class DuplicateSketch:
    """Mergeable duplicate-row counter with a capacity bound.

    Holds the multiset of row hashes as a sorted unique-hash array plus
    per-hash multiplicities.  While the distinct hashes fit ``capacity``
    the duplicate count ``n_rows - distinct`` is exact; the moment a merge
    (or a single chunk) exceeds the bound the sketch drops its arrays and
    reports the count as unknown (``None``) rather than a wrong number —
    memory stays bounded either way.
    """

    capacity: int = DUPLICATE_SKETCH_CAPACITY
    hashes: np.ndarray = field(default_factory=lambda: _EMPTY_U64)
    counts: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    n_rows: int = 0
    saturated: bool = False

    @classmethod
    def from_frame(cls, frame: Any,
                   capacity: int = DUPLICATE_SKETCH_CAPACITY) -> "DuplicateSketch":
        """Sketch of one chunk's rows."""
        if capacity <= 0:
            raise EDAError("capacity must be positive")
        if len(frame) == 0 or not frame.columns:
            return cls(capacity=capacity, n_rows=len(frame))
        uniques, counts = np.unique(frame_row_hashes(frame), return_counts=True)
        sketch = cls(capacity=capacity, hashes=uniques,
                     counts=counts.astype(np.int64), n_rows=len(frame))
        return sketch._bounded()

    def _bounded(self) -> "DuplicateSketch":
        if len(self.hashes) > self.capacity:
            return DuplicateSketch(capacity=self.capacity, n_rows=self.n_rows,
                                   saturated=True)
        return self

    def merge(self, other: "DuplicateSketch") -> "DuplicateSketch":
        """Add two chunk multisets (union of hashes, summed multiplicities)."""
        if self.capacity != other.capacity:
            raise EDAError("cannot merge duplicate sketches with different "
                           "capacities")
        total = self.n_rows + other.n_rows
        if self.saturated or other.saturated:
            return DuplicateSketch(capacity=self.capacity, n_rows=total,
                                   saturated=True)
        # Both sides hold <= capacity hashes, so the concatenation transient
        # below is bounded by 2 * capacity entries (~0.5 MB at the default);
        # there is no sound earlier cutoff — overlapping hash sets can make
        # the union fit capacity even when the lengths sum past it.
        merged_hashes = np.concatenate([self.hashes, other.hashes])
        merged_counts = np.concatenate([self.counts, other.counts])
        uniques, inverse = np.unique(merged_hashes, return_inverse=True)
        summed = np.zeros(len(uniques), dtype=np.int64)
        np.add.at(summed, inverse, merged_counts)
        return DuplicateSketch(capacity=self.capacity, hashes=uniques,
                               counts=summed, n_rows=total)._bounded()

    @property
    def distinct(self) -> int:
        """Distinct row hashes currently held (0 once saturated)."""
        return len(self.hashes)

    def duplicate_count(self) -> Optional[int]:
        """Rows that duplicate an earlier row, or None once saturated."""
        if self.saturated:
            return None
        if not len(self.hashes):
            return 0
        return int(self.n_rows - len(self.hashes))


# --------------------------------------------------------------------------- #
# Missing-value (nullity) sketch
# --------------------------------------------------------------------------- #
@dataclass
class NullitySketch:
    """Everything ``plot_missing(df)`` needs, in one mergeable pass.

    Accumulates, per chunk of rows: per-column missing counts, the pairwise
    co-missing count matrix and missing counts per global row bin (the
    missing spectrum).  The bin edges are computed from the *global* row
    count — known up front from the chunk-size precompute stage — so every
    chunk contributes to the same fixed bins and merging is pure addition.

    The finalizers reproduce the exact in-memory statistics:

    * missing bar chart   — ``counts``;
    * missing spectrum    — ``bin_missing / bin_rows``;
    * nullity correlation — Pearson of the missingness indicators, derived
      from ``(n, S_i, S_ij)`` in closed form;
    * nullity dendrogram  — average linkage over the Euclidean distance
      ``sqrt(S_i + S_j - 2 S_ij)`` between indicator columns.
    """

    columns: Tuple[str, ...]
    n_rows_total: int
    bin_edges: np.ndarray
    counts: np.ndarray              # (C,)   per-column missing counts
    co_counts: np.ndarray           # (C, C) pairwise co-missing counts
    bin_missing: np.ndarray         # (B, C) missing counts per global row bin
    n_rows_seen: int = 0

    @staticmethod
    def global_bin_edges(n_rows_total: int, n_bins: int) -> np.ndarray:
        """The spectrum's global row-bin edges (mirrors ``missing_spectrum``)."""
        n_bins = max(1, min(n_bins, n_rows_total)) if n_rows_total else 1
        return np.linspace(0, n_rows_total, n_bins + 1, dtype=np.int64)

    @classmethod
    def empty(cls, columns: Sequence[str], n_rows_total: int,
              n_bins: int) -> "NullitySketch":
        """An all-zero sketch (the identity element of ``merge``)."""
        edges = cls.global_bin_edges(n_rows_total, n_bins)
        width = len(columns)
        return cls(columns=tuple(columns), n_rows_total=int(n_rows_total),
                   bin_edges=edges,
                   counts=np.zeros(width, dtype=np.int64),
                   co_counts=np.zeros((width, width), dtype=np.int64),
                   bin_missing=np.zeros((edges.size - 1, width), dtype=np.int64))

    @classmethod
    def from_mask(cls, mask: np.ndarray, columns: Sequence[str], row_start: int,
                  n_rows_total: int, n_bins: int) -> "NullitySketch":
        """Sketch of one chunk's missing mask starting at global *row_start*."""
        sketch = cls.empty(columns, n_rows_total, n_bins)
        mask = np.asarray(mask, dtype=np.bool_)
        if mask.ndim != 2 or mask.shape[1] != len(columns):
            raise EDAError("mask shape does not match the column list")
        rows = mask.shape[0]
        if rows == 0:
            return sketch
        # A float64 product runs on BLAS (numpy's integer matmul does not)
        # and is exact: every entry is a whole number no larger than the
        # chunk's row count, far below 2**53.
        indicator = mask.astype(np.float64)
        sketch.counts = mask.sum(axis=0, dtype=np.int64)
        sketch.co_counts = (indicator.T @ indicator).astype(np.int64)
        sketch.n_rows_seen = rows
        edges = sketch.bin_edges
        first = int(np.searchsorted(edges, row_start, side="right")) - 1
        first = max(0, min(first, edges.size - 2))
        for index in range(first, edges.size - 1):
            low, high = int(edges[index]), int(edges[index + 1])
            if low >= row_start + rows:
                break
            block = mask[max(0, low - row_start):max(0, high - row_start)]
            if block.shape[0]:
                sketch.bin_missing[index] += block.sum(axis=0, dtype=np.int64)
        return sketch

    def merge(self, other: "NullitySketch") -> "NullitySketch":
        """Add two chunk sketches built over the same columns and bins."""
        if self.columns != other.columns or \
                self.n_rows_total != other.n_rows_total or \
                self.bin_edges.shape != other.bin_edges.shape:
            raise EDAError("cannot merge nullity sketches of different shapes")
        merged = NullitySketch(
            columns=self.columns, n_rows_total=self.n_rows_total,
            bin_edges=self.bin_edges,
            counts=self.counts + other.counts,
            co_counts=self.co_counts + other.co_counts,
            bin_missing=self.bin_missing + other.bin_missing,
            n_rows_seen=self.n_rows_seen + other.n_rows_seen)
        return merged

    # ------------------------------------------------------------------ #
    # Finalizers
    # ------------------------------------------------------------------ #
    def missing_per_column(self) -> Dict[str, int]:
        """Per-column missing cell counts."""
        return {name: int(count)
                for name, count in zip(self.columns, self.counts)}

    def spectrum_densities(self) -> np.ndarray:
        """Missing density per global row bin, shape ``(B, C)``."""
        widths = np.diff(self.bin_edges).astype(np.float64)
        safe = np.where(widths > 0, widths, 1.0)
        return self.bin_missing / safe[:, None]

    def nullity_correlation(self) -> Tuple[List[str], np.ndarray]:
        """Pearson correlation of missingness indicators, in closed form.

        Columns that are never or always missing carry no information and
        are dropped, matching :func:`repro.stats.association.nullity_correlation`.
        """
        n = self.n_rows_seen
        counts = self.counts.astype(np.float64)
        keep = (counts > 0) & (counts < n)
        kept = [name for name, keep_it in zip(self.columns, keep) if keep_it]
        if not kept:
            return [], np.zeros((0, 0))
        s = counts[keep]
        sij = self.co_counts[np.ix_(keep, keep)].astype(np.float64)
        covariance = n * sij - np.outer(s, s)
        spread = np.sqrt(n * s - s * s)
        matrix = covariance / np.outer(spread, spread)
        np.fill_diagonal(matrix, 1.0)
        return kept, np.clip(matrix, -1.0, 1.0)

    def nullity_distances(self) -> np.ndarray:
        """Condensed Euclidean distances between missingness indicators."""
        width = len(self.columns)
        counts = self.counts.astype(np.float64)
        condensed: List[float] = []
        for i in range(width):
            for j in range(i + 1, width):
                squared = counts[i] + counts[j] - 2.0 * float(self.co_counts[i, j])
                condensed.append(math.sqrt(max(squared, 0.0)))
        return np.asarray(condensed, dtype=np.float64)


__all__ = [
    "DUPLICATE_SKETCH_CAPACITY",
    "DistinctSketch",
    "DuplicateSketch",
    "Mergeable",
    "MomentsSketch",
    "NullitySketch",
    "ReservoirSketch",
    "StreamingHistogram",
    "frame_row_hashes",
    "hash_texts",
    "merge_all",
]
