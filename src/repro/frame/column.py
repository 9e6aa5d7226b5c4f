"""The Column type: a typed 1-D array with an explicit null mask."""

from __future__ import annotations

import operator
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DTypeError, FrameError
from repro.frame.dtypes import (
    DType,
    coerce_values,
    decode_string_codes,
    encode_string_codes,
    from_numpy,
    infer_dtype,
)

#: The ``datetime64[s]`` range python's ``datetime`` covers (years 1-9999).
_DATETIME_MIN = np.datetime64("0001-01-01T00:00:00", "s")
_DATETIME_MAX = np.datetime64("9999-12-31T23:59:59", "s")


def _value_text(distinct: np.ndarray) -> Sequence[str]:
    """``str(value)`` of every python scalar in a sorted array.

    Datetimes inside python's range print as their ISO text with a space
    for the ``T``, which numpy formats for the whole array at once; every
    other value goes through ``str`` itself.
    """
    if distinct.dtype.kind == "M" and distinct.size and \
            _DATETIME_MIN <= distinct[0] and distinct[-1] <= _DATETIME_MAX:
        text = np.datetime_as_string(distinct, unit="s")
        text.view(np.uint32).reshape(distinct.size, -1)[:, 10] = ord(" ")
        return text.astype(object)
    return [str(value) for value in distinct.tolist()]


class Column:
    """A single named, typed column with missing-value support.

    Missingness lives in a boolean array (``mask``; True means missing) and
    all reduction methods skip missing values.  Values are stored per dtype:

    * BOOL / INT / FLOAT / DATETIME keep one numpy array of the dtype's
      storage type (``data``);
    * STRING keeps a *dictionary encoding* — ``int32`` ``codes`` into
      ``dictionary``, the sorted distinct values, with ``-1`` in missing
      slots.  That is the only STRING storage: categorical kernels, the
      binary sidecar, pickled worker payloads and fingerprints all work on
      it, and ``data`` is a lazily decoded object-array view kept for
      ``to_numpy`` / ``to_list`` / ``__getitem__``.

    :meth:`category_codes` gives every dtype the same ``(codes, labels)``
    shape, so categorical kernels are written once.

    Columns are immutable from the caller's perspective: every operation
    returns a new :class:`Column` and never mutates ``data`` in place.
    """

    __slots__ = ("name", "_data", "mask", "dtype", "_fingerprint",
                 "_codes", "_dictionary", "_memory_bytes")

    def __init__(self, name: str, values: Union[Sequence[Any], np.ndarray],
                 dtype: Optional[DType] = None,
                 mask: Optional[np.ndarray] = None):
        self.name = str(name)
        self._codes: Optional[np.ndarray] = None
        self._dictionary: Optional[np.ndarray] = None
        self._memory_bytes: Optional[int] = None
        self._fingerprint: Optional[str] = None
        if isinstance(values, np.ndarray) and dtype is None and mask is None:
            self._data, self.mask, self.dtype = from_numpy(values)
        elif isinstance(values, np.ndarray) and dtype is not None and mask is not None:
            if values.shape != mask.shape:
                raise FrameError("data and mask must have the same shape")
            # Adoption path: internal callers hand over storage they already
            # validated.
            self._data = values
            self.mask = mask.astype(np.bool_)
            self.dtype = dtype
        else:
            values_list = list(values)
            self.dtype = dtype if dtype is not None else infer_dtype(values_list)
            self._data, self.mask = coerce_values(values_list, self.dtype)
            if mask is not None:
                self.mask = self.mask | np.asarray(mask, dtype=np.bool_)
        if self.dtype is DType.FLOAT:
            # NaN and the mask must agree so float reductions stay consistent.
            self.mask = self.mask | np.isnan(self._data)
        if self.dtype is DType.STRING:
            self._codes, self._dictionary = encode_string_codes(self._data,
                                                                self.mask)
            self._data = None

    @classmethod
    def _build(cls, name: str, dtype: DType, mask: np.ndarray,
               data: Optional[np.ndarray], codes: Optional[np.ndarray] = None,
               dictionary: Optional[np.ndarray] = None) -> "Column":
        """Assemble a column from buffers that already hold the constructor's
        invariants (coerced to *dtype*, FLOAT NaNs masked, codes ``-1`` exactly
        where masked) without copying or rescanning them."""
        column = object.__new__(cls)
        column.name = name
        column.dtype = dtype
        column.mask = mask
        column._data = data
        column._codes = codes
        column._dictionary = dictionary
        column._fingerprint = None
        column._memory_bytes = None
        return column

    # ------------------------------------------------------------------ #
    # Storage access
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The values array; for STRING, decoded from the codes on first use."""
        if self._data is None:
            self._data = decode_string_codes(self._codes, self._dictionary)
        return self._data

    @property
    def codes(self) -> Optional[np.ndarray]:
        """STRING: ``int32`` dictionary codes (``-1`` = missing); else None."""
        return self._codes

    @property
    def dictionary(self) -> Optional[np.ndarray]:
        """STRING: sorted distinct values (object array of str); else None.

        A row subset shares its parent's dictionary, so entries may be
        unused by this column's codes.
        """
        return self._dictionary

    @property
    def _storage(self) -> np.ndarray:
        """The per-row array actually stored: codes for STRING, else data."""
        return self._codes if self.dtype is DType.STRING else self._data

    def category_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """This column as categories: ``(codes, labels)``.

        ``codes`` holds one integer per row (``-1`` where missing) indexing
        ``labels``, an object array with ``labels[code] == str(value)``.
        STRING hands back its storage as is (labels sorted, possibly with
        unused entries); other dtypes factorize their present values, with
        ``-0.0`` counted as ``0.0`` like every other reduction here.
        """
        if self.dtype is DType.STRING:
            return self._codes, self._dictionary
        codes = np.full(len(self), -1, dtype=np.int32)
        present = ~self.mask
        values = self._data[present]
        if self.dtype is DType.FLOAT:
            values = values + 0.0
        distinct, inverse = np.unique(values, return_inverse=True)
        codes[present] = inverse
        labels = np.empty(distinct.size, dtype=object)
        labels[:] = _value_text(distinct)
        return codes, labels

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, dictionary: np.ndarray,
                   mask: Optional[np.ndarray] = None) -> "Column":
        """Build a STRING column directly from its dictionary encoding.

        *codes* index into *dictionary* with ``-1`` marking missing slots;
        when *mask* is omitted it is derived from the negative codes.
        """
        codes = np.asarray(codes, dtype=np.int32)
        mask = (codes < 0) if mask is None else np.asarray(mask, dtype=np.bool_)
        return cls._build(str(name), DType.STRING, mask, None, codes,
                          np.asarray(dictionary, dtype=object))

    @classmethod
    def from_storage(cls, name: str, data: np.ndarray, dtype: DType,
                     mask: np.ndarray) -> "Column":
        """Adopt pre-validated fixed-width storage without constructor checks.

        The binary chunk sidecar (:mod:`repro.frame.sidecar`) decodes
        buffers that already hold the constructor's invariants; re-running
        the constructor would copy the mask and rescan for NaNs, defeating
        the zero-copy ``numpy.memmap`` load.  The buffers may be read-only
        (memmap/frombuffer): columns never mutate them in place.
        """
        return cls._build(str(name), dtype, mask, data)

    def _rows(self, indexer: Union[slice, np.ndarray]) -> "Column":
        """Row subset; indexing preserves every constructor invariant, and a
        STRING subset keeps sharing this column's dictionary."""
        if self.dtype is DType.STRING:
            return Column._build(self.name, self.dtype, self.mask[indexer],
                                 None, self._codes[indexer], self._dictionary)
        return Column._build(self.name, self.dtype, self.mask[indexer],
                             self._data[indexer])

    # ------------------------------------------------------------------ #
    # Pickling: STRING ships codes + dictionary, never the decoded object
    # array — this is what keeps process/remote worker payloads small.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"name": self.name, "mask": self.mask,
                                 "dtype": self.dtype}
        if self.dtype is DType.STRING:
            state["codes"] = np.ascontiguousarray(self._codes)
            state["dictionary"] = self._dictionary
        else:
            state["data"] = np.ascontiguousarray(self._data)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.name = state["name"]
        self.mask = np.asarray(state["mask"], dtype=np.bool_)
        self.dtype = state["dtype"]
        self._fingerprint = None
        self._memory_bytes = None
        self._data = state.get("data")
        self._codes = state.get("codes")
        self._dictionary = state.get("dictionary")

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.mask.shape[0])

    def __iter__(self) -> Iterator[Any]:
        for index in range(len(self)):
            yield self[index]

    def __getitem__(self, item: Union[int, slice, np.ndarray]) -> Any:
        if isinstance(item, (int, np.integer)):
            if self.mask[item]:
                return None
            value = self.data[item]
            if isinstance(value, np.generic):
                return value.item()
            return value
        if isinstance(item, slice):
            return self._rows(item)
        return self._rows(np.asarray(item))

    def __repr__(self) -> str:
        return (f"Column(name={self.name!r}, dtype={self.dtype.value}, "
                f"length={len(self)}, missing={self.missing_count()})")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (self.name == other.name and self.dtype is other.dtype and
                len(self) == len(other) and
                bool(np.array_equal(self.mask, other.mask)) and
                self._values_equal(other))

    def __hash__(self) -> int:  # Columns are not hashable (mutable arrays inside)
        raise TypeError("Column objects are unhashable")

    # Ordering comparisons against a scalar produce element-wise boolean
    # masks (missing entries compare False), so ``df[df.x > 0]`` works on an
    # in-memory frame with the same missing-never-matches semantics the
    # pushed-down predicate IR applies inside scan parses.  ``==`` keeps its
    # whole-column structural meaning above, so only the four order
    # operators are element-wise; build a Predicate for pushable equality.
    def _compare(self, op: Callable[[Any, Any], Any], other: Any) -> np.ndarray:
        if isinstance(other, Column):
            return NotImplemented
        out = np.zeros(len(self), dtype=np.bool_)
        present = ~self.mask
        try:
            if self.dtype is DType.STRING:
                # Compare the (small) dictionary once, then gather per row.
                per_code = np.asarray(op(self._dictionary, other),
                                      dtype=np.bool_)
                out[present] = per_code[self._codes[present]]
            else:
                out[present] = op(self._data[present], other)
        except TypeError:
            raise FrameError(
                f"cannot compare column {self.name!r} "
                f"({self.dtype.value}) with {type(other).__name__}") from None
        return out

    def __gt__(self, other: Any) -> np.ndarray:
        return self._compare(operator.gt, other)

    def __ge__(self, other: Any) -> np.ndarray:
        return self._compare(operator.ge, other)

    def __lt__(self, other: Any) -> np.ndarray:
        return self._compare(operator.lt, other)

    def __le__(self, other: Any) -> np.ndarray:
        return self._compare(operator.le, other)

    def _values_equal(self, other: "Column") -> bool:
        valid = ~self.mask
        if self.dtype is DType.STRING:
            # Dictionaries may differ (unused entries); the values may not.
            return bool(np.array_equal(self._dictionary[self._codes[valid]],
                                       other._dictionary[other._codes[valid]]))
        if self.dtype is DType.FLOAT:
            return bool(np.allclose(self._data[valid], other._data[valid],
                                    equal_nan=True))
        return bool(np.array_equal(self._data[valid], other._data[valid]))

    # ------------------------------------------------------------------ #
    # Fingerprinting (cross-call cache support)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Structural content fingerprint used by the intermediate cache.

        Computed lazily and cached on the object.  Operations always return
        new Columns, so the cache never goes stale through the public API;
        call :meth:`invalidate_fingerprint` after mutating ``data`` or
        ``mask`` in place.
        """
        if self._fingerprint is None:
            from repro.frame.fingerprint import fingerprint_column
            self._fingerprint = fingerprint_column(self)
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        """Drop the cached fingerprint after an in-place buffer mutation."""
        self._fingerprint = None
        self._memory_bytes = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def rename(self, name: str) -> "Column":
        """Return a copy of this column under a new name (data is shared)."""
        return Column._build(str(name), self.dtype, self.mask, self._data,
                             self._codes, self._dictionary)

    def slice_view(self, start: int, stop: int) -> "Column":
        """Zero-copy row slice sharing this column's buffers.

        Partition slicing is the hottest in-memory graph task; it allocates
        nothing proportional to the slice.
        """
        return self._rows(slice(start, stop))

    def copy(self) -> "Column":
        """Return a deep copy of this column (a STRING copy shares the
        dictionary, which nothing mutates)."""
        if self.dtype is DType.STRING:
            return Column._build(self.name, self.dtype, self.mask.copy(), None,
                                 self._codes.copy(), self._dictionary)
        return Column._build(self.name, self.dtype, self.mask.copy(),
                             self._data.copy())

    def astype(self, dtype: DType) -> "Column":
        """Cast this column to another storage dtype.

        Missing entries stay missing.  Raises :class:`DTypeError` when a
        non-missing value cannot be represented in the target dtype.
        """
        if dtype is self.dtype:
            return self
        return Column(self.name, self.to_list(), dtype)

    # ------------------------------------------------------------------ #
    # Missing values
    # ------------------------------------------------------------------ #
    def isna(self) -> np.ndarray:
        """Boolean array, True where the value is missing."""
        return self.mask.copy()

    def notna(self) -> np.ndarray:
        """Boolean array, True where the value is present."""
        return ~self.mask

    def missing_count(self) -> int:
        """Number of missing values."""
        return int(self.mask.sum())

    def missing_rate(self) -> float:
        """Fraction of missing values; 0.0 for an empty column."""
        if len(self) == 0:
            return 0.0
        return self.missing_count() / len(self)

    def dropna(self) -> "Column":
        """Return a column containing only the present values."""
        return self._rows(~self.mask)

    def fillna(self, value: Any) -> "Column":
        """Return a column with missing entries replaced by *value*."""
        filled = [value if self.mask[i] else self[i] for i in range(len(self))]
        return Column(self.name, filled, dtype=None)

    # ------------------------------------------------------------------ #
    # Value access
    # ------------------------------------------------------------------ #
    def to_numpy(self, drop_missing: bool = False) -> np.ndarray:
        """Return the underlying values as a numpy array.

        When ``drop_missing`` is True the result only contains present
        values; otherwise missing slots contain the dtype's null sentinel
        (NaN for floats).
        """
        if drop_missing:
            return self.data[~self.mask].copy()
        if self.dtype is DType.FLOAT:
            data = self.data.copy()
            data[self.mask] = np.nan
            return data
        return self.data.copy()

    def to_list(self) -> List[Any]:
        """Return the column as a list of python scalars, None where missing."""
        return [self[i] for i in range(len(self))]

    def take(self, indices: Sequence[int]) -> "Column":
        """Return the rows selected by integer positions."""
        return self._rows(np.asarray(indices, dtype=np.int64))

    def filter(self, predicate: np.ndarray) -> "Column":
        """Return the rows where the boolean *predicate* array is True."""
        keep = np.asarray(predicate, dtype=np.bool_)
        if keep.shape[0] != len(self):
            raise FrameError("predicate length does not match column length")
        return self._rows(keep)

    def head(self, n: int = 5) -> "Column":
        """Return the first *n* rows."""
        return self[:n]

    def map(self, func: Callable[[Any], Any]) -> "Column":
        """Apply a python function to each present value (missing stays missing)."""
        mapped = [None if self.mask[i] else func(self[i]) for i in range(len(self))]
        return Column(self.name, mapped)

    # ------------------------------------------------------------------ #
    # Reductions (missing values skipped)
    # ------------------------------------------------------------------ #
    def _numeric_values(self) -> np.ndarray:
        if not self.dtype.is_numeric:
            raise DTypeError(
                f"column {self.name!r} has dtype {self.dtype.value}, "
                "which does not support numeric reductions")
        return self._data[~self.mask].astype(np.float64)

    def count(self) -> int:
        """Number of present (non-missing) values."""
        return len(self) - self.missing_count()

    def sum(self) -> float:
        """Sum of present values (0.0 when all values are missing)."""
        values = self._numeric_values()
        return float(values.sum()) if values.size else 0.0

    def mean(self) -> float:
        """Mean of present values (NaN when all values are missing)."""
        values = self._numeric_values()
        return float(values.mean()) if values.size else float("nan")

    def std(self, ddof: int = 1) -> float:
        """Standard deviation of present values."""
        values = self._numeric_values()
        if values.size <= ddof:
            return float("nan")
        return float(values.std(ddof=ddof))

    def var(self, ddof: int = 1) -> float:
        """Variance of present values."""
        values = self._numeric_values()
        if values.size <= ddof:
            return float("nan")
        return float(values.var(ddof=ddof))

    def min(self) -> Any:
        """Minimum present value (None when all values are missing)."""
        return self._extreme(np.min)

    def max(self) -> Any:
        """Maximum present value (None when all values are missing)."""
        return self._extreme(np.max)

    def _extreme(self, reducer: Callable[[np.ndarray], Any]) -> Any:
        present = self._storage[~self.mask]
        if present.size == 0:
            return None
        value = reducer(present)
        if self.dtype is DType.STRING:
            # The dictionary is sorted, so the extreme value sits at the
            # extreme used code.
            return str(self._dictionary[value])
        return value if self.dtype is DType.DATETIME else value.item()

    def quantile(self, q: Union[float, Sequence[float]]) -> Union[float, np.ndarray]:
        """Quantile(s) of present values using linear interpolation."""
        values = self._numeric_values()
        if values.size == 0:
            if isinstance(q, (int, float)):
                return float("nan")
            return np.full(len(list(q)), np.nan)
        result = np.quantile(values, q)
        if isinstance(q, (int, float)):
            return float(result)
        return np.asarray(result, dtype=np.float64)

    def nunique(self) -> int:
        """Number of distinct present values."""
        return int(np.unique(self._storage[~self.mask]).size)

    def unique(self) -> List[Any]:
        """Distinct present values in first-seen order."""
        distinct, first_seen = np.unique(self._storage[~self.mask],
                                         return_index=True)
        ordered = distinct[np.argsort(first_seen)]
        if self.dtype is DType.STRING:
            ordered = self._dictionary[ordered]
        return ordered.tolist()

    def value_counts(self, descending: bool = True) -> List[Tuple[Any, int]]:
        """Counts of distinct present values as ``(value, count)`` pairs."""
        if self.dtype is DType.STRING:
            tallies = np.bincount(self._codes[~self.mask],
                                  minlength=self._dictionary.size)
            used = np.flatnonzero(tallies)
            values, counts = self._dictionary[used], tallies[used]
        else:
            values, counts = np.unique(self._data[~self.mask],
                                       return_counts=True)
        scalars = list(values) if self.dtype is DType.DATETIME \
            else values.tolist()
        pairs = list(zip(scalars, counts.tolist()))
        pairs.sort(key=lambda pair: (-pair[1], str(pair[0])) if descending
                   else (pair[1], str(pair[0])))
        return pairs

    def mode(self) -> Any:
        """Most frequent present value (None when the column is all-missing)."""
        pairs = self.value_counts()
        return pairs[0][0] if pairs else None

    def skewness(self) -> float:
        """Sample skewness (Fisher-Pearson, bias-uncorrected) of present values."""
        values = self._numeric_values()
        if values.size < 3:
            return float("nan")
        centered = values - values.mean()
        second_moment = float(np.mean(centered ** 2))
        if second_moment == 0.0:
            return 0.0
        third_moment = float(np.mean(centered ** 3))
        return third_moment / second_moment ** 1.5

    def kurtosis(self) -> float:
        """Excess kurtosis of present values."""
        values = self._numeric_values()
        if values.size < 4:
            return float("nan")
        centered = values - values.mean()
        second_moment = float(np.mean(centered ** 2))
        if second_moment == 0.0:
            return 0.0
        fourth_moment = float(np.mean(centered ** 4))
        return fourth_moment / second_moment ** 2 - 3.0

    def infinite_count(self) -> int:
        """Number of +inf/-inf entries (always 0 for non-float dtypes)."""
        if self.dtype is not DType.FLOAT:
            return 0
        return int(np.isinf(self._data[~self.mask]).sum())

    def zeros_count(self) -> int:
        """Number of present values equal to zero (numeric dtypes only)."""
        if not self.dtype.is_numeric:
            return 0
        values = self._numeric_values()
        return int((values == 0).sum())

    def negatives_count(self) -> int:
        """Number of present values below zero (numeric dtypes only)."""
        if not self.dtype.is_numeric:
            return 0
        values = self._numeric_values()
        return int((values < 0).sum())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored arrays.

        STRING columns count the python ``str`` objects of the dictionary
        (header included), once per distinct value — O(dictionary), not
        O(rows) — so the intermediate cache keeps its byte budget honest for
        parsed CSV chunks.  Memoized: the budget check runs on every store.
        """
        if self._memory_bytes is None:
            size = self._storage.nbytes + self.mask.nbytes
            if self.dtype is DType.STRING:
                size += self._dictionary.nbytes + sum(
                    sys.getsizeof(value) for value in self._dictionary.tolist())
            self._memory_bytes = int(size)
        return self._memory_bytes

    def describe(self) -> Dict[str, Any]:
        """Summary statistics appropriate for the column dtype."""
        base: Dict[str, Any] = {
            "name": self.name,
            "dtype": self.dtype.value,
            "count": self.count(),
            "missing": self.missing_count(),
            "missing_rate": self.missing_rate(),
            "distinct": self.nunique(),
        }
        if self.dtype.is_numeric:
            quantiles = self.quantile([0.25, 0.5, 0.75])
            base.update({
                "mean": self.mean(),
                "std": self.std(),
                "min": self.min(),
                "q25": float(quantiles[0]),
                "median": float(quantiles[1]),
                "q75": float(quantiles[2]),
                "max": self.max(),
                "skewness": self.skewness(),
                "kurtosis": self.kurtosis(),
                "zeros": self.zeros_count(),
                "infinite": self.infinite_count(),
            })
        else:
            top = self.value_counts()[:1]
            base.update({
                "top": top[0][0] if top else None,
                "top_freq": top[0][1] if top else 0,
            })
        return base
