"""The DataFrame type: an ordered collection of equal-length columns."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ColumnNotFoundError, FrameError, LengthMismatchError
from repro.frame.column import Column
from repro.frame.dtypes import DType, unify_dictionaries


class DataFrame:
    """A small columnar DataFrame.

    A DataFrame is an ordered mapping from column name to
    :class:`~repro.frame.column.Column`, all of the same length.  It supports
    the subset of operations the EDA layer needs: column selection, boolean
    filtering, row slicing (for partitioning), per-column summaries, missing
    value handling, sampling and row-wise concatenation.

    Construction accepts either a mapping from name to values (lists, numpy
    arrays or Columns) or a list of Columns.
    """

    def __init__(self, data: Union[Mapping[str, Any], Sequence[Column], None] = None):
        self._columns: Dict[str, Column] = {}
        self._length = 0
        self._fingerprint: Optional[str] = None
        if data is None:
            return
        if isinstance(data, Mapping):
            items: Iterable[Tuple[str, Any]] = data.items()
        else:
            items = ((column.name, column) for column in data)
        for name, values in items:
            column = values if isinstance(values, Column) else Column(str(name), values)
            if column.name != str(name):
                column = column.rename(str(name))
            self._add_column(column)

    def _add_column(self, column: Column) -> None:
        if self._columns and len(column) != self._length:
            raise LengthMismatchError(
                f"column {column.name!r} has length {len(column)}, "
                f"expected {self._length}")
        if not self._columns:
            self._length = len(column)
        if column.name in self._columns:
            raise FrameError(f"duplicate column name {column.name!r}")
        self._columns[column.name] = column
        self._fingerprint = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> List[str]:
        """Column names in insertion order."""
        return list(self._columns.keys())

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_columns)``."""
        return (self._length, len(self._columns))

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._length

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def dtypes(self) -> Dict[str, DType]:
        """Mapping from column name to storage dtype."""
        return {name: column.dtype for name, column in self._columns.items()}

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __repr__(self) -> str:
        return f"DataFrame(rows={self._length}, columns={self.columns})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self.columns != other.columns or len(self) != len(other):
            return False
        return all(self._columns[name] == other._columns[name] for name in self.columns)

    def __hash__(self) -> int:
        raise TypeError("DataFrame objects are unhashable")

    def fingerprint(self) -> str:
        """Structural content fingerprint used by the intermediate cache.

        Combines the frame's shape with every column's fingerprint (name,
        dtype, sampled content hash — see :mod:`repro.frame.fingerprint`).
        The value is cached; any frame-building operation returns a new
        DataFrame with a fresh fingerprint, so two frames with equal content
        share a fingerprint while any visible mutation changes it.  After
        mutating a column's numpy buffers in place, call
        :meth:`invalidate_fingerprint` to bump it.
        """
        if self._fingerprint is None:
            from repro.frame.fingerprint import fingerprint_frame
            self._fingerprint = fingerprint_frame(self)
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        """Drop cached fingerprints after an in-place buffer mutation."""
        self._fingerprint = None
        for column in self._columns.values():
            column.invalidate_fingerprint()

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def __getitem__(self, item: Union[str, Sequence[str], np.ndarray, slice]) -> Any:
        if isinstance(item, str):
            return self.column(item)
        if isinstance(item, slice):
            return self.slice(item.start or 0, item.stop if item.stop is not None else len(self))
        if isinstance(item, np.ndarray) and item.dtype == np.bool_:
            return self.filter(item)
        if isinstance(item, (list, tuple)):
            return self.select(list(item))
        raise FrameError(f"unsupported indexer: {item!r}")

    def __getattr__(self, name: str) -> Column:
        # Attribute access falls back to column lookup (``df.price``), so
        # ``df[df.price > 0]`` reads naturally; only called when normal
        # attribute resolution fails.  Bypass during unpickling / partial
        # construction, when _columns itself is not set yet.
        if not name.startswith("_"):
            columns = self.__dict__.get("_columns")
            if columns is not None and name in columns:
                return columns[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def column(self, name: str) -> Column:
        """Return a single column by name (raises ColumnNotFoundError)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.columns) from None

    def select(self, names: Sequence[str]) -> "DataFrame":
        """Return a new DataFrame containing only the requested columns."""
        return DataFrame([self.column(name) for name in names])

    def drop(self, names: Union[str, Sequence[str]]) -> "DataFrame":
        """Return a new DataFrame without the named columns."""
        dropped = {names} if isinstance(names, str) else set(names)
        missing = dropped - set(self.columns)
        if missing:
            raise ColumnNotFoundError(sorted(missing)[0], self.columns)
        return DataFrame([column for name, column in self._columns.items()
                          if name not in dropped])

    def with_column(self, column: Column) -> "DataFrame":
        """Return a new DataFrame with *column* appended or replaced."""
        columns = []
        replaced = False
        for name, existing in self._columns.items():
            if name == column.name:
                columns.append(column)
                replaced = True
            else:
                columns.append(existing)
        if not replaced:
            columns.append(column)
        return DataFrame(columns)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        """Return a new DataFrame with columns renamed via *mapping*."""
        columns = []
        for name, column in self._columns.items():
            columns.append(column.rename(mapping.get(name, name)))
        return DataFrame(columns)

    # ------------------------------------------------------------------ #
    # Row operations
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: int) -> "DataFrame":
        """Return rows in ``[start, stop)`` as a new DataFrame.

        The result's columns are zero-copy views into this frame's buffers
        (see :meth:`~repro.frame.column.Column.slice_view`), which is what
        keeps in-memory partitioning allocation-free.
        """
        return DataFrame([column.slice_view(start, stop)
                          for column in self._columns.values()])

    def head(self, n: int = 5) -> "DataFrame":
        """Return the first *n* rows."""
        return self.slice(0, min(n, len(self)))

    def tail(self, n: int = 5) -> "DataFrame":
        """Return the last *n* rows."""
        return self.slice(max(0, len(self) - n), len(self))

    def take(self, indices: Sequence[int]) -> "DataFrame":
        """Return the rows selected by integer positions."""
        return DataFrame([column.take(indices) for column in self._columns.values()])

    def filter(self, predicate: np.ndarray) -> "DataFrame":
        """Return the rows where the boolean *predicate* array is True."""
        keep = np.asarray(predicate, dtype=np.bool_)
        if keep.shape[0] != len(self):
            raise FrameError("predicate length does not match frame length")
        return DataFrame([column.filter(keep) for column in self._columns.values()])

    def sample(self, n: int, seed: Optional[int] = None) -> "DataFrame":
        """Return *n* rows sampled uniformly without replacement."""
        if n >= len(self):
            return self.copy()
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(self), size=n, replace=False)
        indices.sort()
        return self.take(indices)

    def dropna(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        """Drop rows containing a missing value in any of the *subset* columns.

        When *subset* is None all columns are considered.
        """
        names = list(subset) if subset is not None else self.columns
        if not names:
            return self.copy()
        keep = np.ones(len(self), dtype=np.bool_)
        for name in names:
            keep &= self.column(name).notna()
        return self.filter(keep)

    def copy(self) -> "DataFrame":
        """Return a deep copy of the DataFrame."""
        return DataFrame([column.copy() for column in self._columns.values()])

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, List[Any]]:
        """Return ``{column name: list of python scalars}`` (None = missing)."""
        return {name: column.to_list() for name, column in self._columns.items()}

    def to_rows(self) -> List[Dict[str, Any]]:
        """Return the DataFrame as a list of per-row dictionaries."""
        lists = self.to_dict()
        return [{name: lists[name][index] for name in self.columns}
                for index in range(len(self))]

    def row(self, index: int) -> Dict[str, Any]:
        """Return a single row as a dictionary."""
        return {name: column[index] for name, column in self._columns.items()}

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def missing_counts(self) -> Dict[str, int]:
        """Missing-value count per column."""
        return {name: column.missing_count() for name, column in self._columns.items()}

    def missing_mask(self) -> np.ndarray:
        """2-D boolean array of shape ``(n_rows, n_columns)``; True = missing."""
        if not self._columns:
            return np.zeros((0, 0), dtype=np.bool_)
        return np.column_stack([column.isna() for column in self._columns.values()])

    def duplicate_row_count(self) -> int:
        """Number of rows that are exact duplicates of an earlier row.

        Rows are compared by value with missing entries treated as equal to
        each other.  The scan refines row groups column by column: rows
        agreeing on every column seen so far share a group, a row alone in
        its group can have no duplicate and is settled, and only rows still
        sharing a group are factorized for the next column — so the scan
        stops at the first column prefix that tells every row apart (one
        column, for a frame that leads with a key) and otherwise costs what
        the still-ambiguous rows cost.
        """
        if len(self) == 0 or not self._columns:
            return 0
        rows = np.arange(len(self))     # rows whose group has other members
        groups = np.zeros(len(self), dtype=np.int64)
        settled = 0                     # distinct rows found so far
        for column in self._columns.values():
            if column.dtype is DType.STRING:
                codes = column.codes[rows]          # -1 where missing
            else:
                codes = np.unique(column.data[rows], return_inverse=True)[1]
                codes[column.mask[rows]] = -1
            # One integer per (group so far, value here) pair.
            refined = groups * (int(codes.max()) + 2) + (codes + 1)
            _, groups, sizes = np.unique(refined, return_inverse=True,
                                         return_counts=True)
            alone = int((sizes == 1).sum())
            settled += alone
            open_groups = sizes.size - alone
            if not open_groups:
                break
            shared = sizes[groups] > 1
            rows, groups = rows[shared], groups[shared]
        return len(self) - settled - open_groups

    def memory_bytes(self) -> int:
        """Approximate memory footprint of all columns."""
        return sum(column.memory_bytes() for column in self._columns.values())

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Per-column summary statistics keyed by column name."""
        return {name: column.describe() for name, column in self._columns.items()}

    def numeric_columns(self) -> List[str]:
        """Names of the columns with numeric storage dtypes."""
        return [name for name, column in self._columns.items() if column.dtype.is_numeric]

    def string_columns(self) -> List[str]:
        """Names of the columns stored as strings."""
        return [name for name, column in self._columns.items()
                if column.dtype is DType.STRING]


def concat_rows(frames: Sequence[DataFrame]) -> DataFrame:
    """Concatenate DataFrames row-wise.

    All inputs must have identical column names (in the same order) and
    matching dtypes per column.
    """
    frames = [frame for frame in frames if frame.n_columns > 0 or len(frame) > 0]
    if not frames:
        return DataFrame()
    first = frames[0]
    for frame in frames[1:]:
        if frame.columns != first.columns:
            raise FrameError("cannot concatenate frames with different columns")
    columns = []
    for name in first.columns:
        parts = [frame.column(name) for frame in frames]
        dtype = _common_dtype([part.dtype for part in parts])
        parts = [part if part.dtype is dtype else part.astype(dtype) for part in parts]
        mask = np.concatenate([part.mask for part in parts])
        if dtype is DType.STRING:
            # Unify the per-chunk dictionaries: the result is the encoding
            # of the concatenation, and no object array is materialized.
            codes, dictionary = unify_dictionaries(
                [(part.codes, part.dictionary) for part in parts])
            columns.append(Column.from_codes(name, codes, dictionary, mask))
        else:
            data = np.concatenate([part.data for part in parts])
            columns.append(Column(name, data, dtype, mask))
    return DataFrame(columns)


def _common_dtype(dtypes: Sequence[DType]) -> DType:
    """Resolve a common storage dtype for concatenation."""
    unique = set(dtypes)
    if len(unique) == 1:
        return dtypes[0]
    if unique <= {DType.INT, DType.FLOAT, DType.BOOL}:
        return DType.FLOAT
    return DType.STRING
