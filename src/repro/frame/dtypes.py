"""Storage dtypes and dtype inference for the columnar frame.

The frame recognises five storage dtypes, intentionally small but sufficient
for the EDA tasks in the paper:

* ``BOOL`` — stored as ``numpy.bool_`` with a separate null mask.
* ``INT`` — stored as ``numpy.int64`` with a separate null mask.
* ``FLOAT`` — stored as ``numpy.float64``; NaN doubles as the null marker but
  a mask is still kept so the behaviour is uniform across dtypes.
* ``STRING`` — stored dictionary-encoded: ``numpy.int32`` codes (``-1`` =
  missing) into a sorted object array of the distinct ``str`` values; the
  object array of every row's ``str`` exists only as a lazily decoded view.
* ``DATETIME`` — stored as ``numpy.datetime64[s]``.

Semantic types used by the EDA mapping rules (Numerical / Categorical) are a
separate concept and live in :mod:`repro.eda.dtypes`.
"""

from __future__ import annotations

import enum
import math
import re
from datetime import datetime, timezone
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import DTypeError

#: String tokens treated as missing when parsing text data (CSV, python lists).
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "missing", "?"})

#: Accepted textual datetime formats, tried in order during inference.
#: Offset-aware values (``%z`` matches ``+02:00``, ``-0500`` and ``Z``) are
#: normalised to UTC and stored as naive ``datetime64[s]``.
DATETIME_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S%z",
    "%Y-%m-%dT%H:%M:%S%z",
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%d-%m-%Y",
)

_BOOL_TRUE = frozenset({"true", "t", "yes", "y", "1"})
_BOOL_FALSE = frozenset({"false", "f", "no", "n", "0"})


class DType(enum.Enum):
    """Storage dtype of a :class:`repro.frame.Column`."""

    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATETIME = "datetime"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this dtype support arithmetic reductions."""
        return self in (DType.BOOL, DType.INT, DType.FLOAT)

    @property
    def is_fixed_width(self) -> bool:
        """Whether storage is a fixed byte width per value (mmap-able).

        Everything but STRING: the chunk sidecar loads fixed-width columns
        zero-copy via ``numpy.memmap`` and uses an offset-array encoding
        for strings.
        """
        return self is not DType.STRING

    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store values of this storage dtype."""
        return _NUMPY_DTYPES[self]

    def null_value(self) -> Any:
        """The sentinel stored in masked slots for this dtype."""
        return _NULL_VALUES[self]


_NUMPY_DTYPES = {
    DType.BOOL: np.dtype(np.bool_),
    DType.INT: np.dtype(np.int64),
    DType.FLOAT: np.dtype(np.float64),
    DType.STRING: np.dtype(object),
    DType.DATETIME: np.dtype("datetime64[s]"),
}

_NULL_VALUES = {
    DType.BOOL: False,
    DType.INT: 0,
    DType.FLOAT: float("nan"),
    DType.STRING: "",
    DType.DATETIME: np.datetime64("1970-01-01", "s"),
}


def is_missing_scalar(value: Any) -> bool:
    """Return True if a raw python value should be treated as missing."""
    if isinstance(value, str):        # first: text cells are the hot case
        return value.strip().lower() in MISSING_TOKENS
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, np.floating) and np.isnan(value):
        return True
    if isinstance(value, np.datetime64) and np.isnat(value):
        return True
    return False


def parse_bool(value: Any) -> Optional[bool]:
    """Parse a scalar as a boolean, returning None when it is not boolean-like."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str):
        token = value.strip().lower()
        if token in _BOOL_TRUE:
            return True
        if token in _BOOL_FALSE:
            return False
    return None


#: Cheap prescreen matching every shape DATETIME_FORMATS can parse; strings
#: that cannot match skip the (expensive) strptime attempts entirely.
_DATETIME_CANDIDATE = re.compile(
    r"^\d{1,4}[-/]\d{1,2}[-/]\d{1,4}"
    r"((\s+|T)\d{1,2}:\d{1,2}:\d{1,2}(Z|[+-]\d{2}:?\d{2})?)?$")


def _to_naive_utc(value: datetime) -> datetime:
    """Collapse an offset-aware datetime onto the naive UTC timeline."""
    if value.tzinfo is not None:
        return value.astimezone(timezone.utc).replace(tzinfo=None)
    return value


def parse_datetime(value: Any) -> Optional[np.datetime64]:
    """Parse a scalar as a datetime, returning None when parsing fails.

    Offset-aware inputs — ``datetime`` objects with a ``tzinfo`` or strings
    with an ISO offset suffix (``...+02:00``, ``...-0500``, ``...Z``) — are
    converted to UTC before being stored as naive ``datetime64[s]``, so the
    same instant written with different offsets compares equal.
    """
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[s]")
    if isinstance(value, datetime):
        return np.datetime64(_to_naive_utc(value), "s")
    if isinstance(value, str):
        text = value.strip()
        if not _DATETIME_CANDIDATE.match(text):
            return None
        for fmt in DATETIME_FORMATS:
            try:
                return np.datetime64(_to_naive_utc(datetime.strptime(text, fmt)), "s")
            except ValueError:
                continue
    return None


def _parse_number(value: Any) -> Optional[Tuple[float, Optional[int]]]:
    """Parse a scalar as a number.

    Returns ``(as_float, as_int)`` or None when the scalar is not numeric.
    ``as_int`` is what INT storage holds — exact (integral text goes through
    ``int``, never through a double) and within int64 — or None when the
    value is not integral.  An integer outside int64 is not integral, so a
    column holding one infers FLOAT instead of overflowing INT storage.
    Booleans are deliberately *not* treated as numbers here so that boolean
    columns keep their own dtype.
    """
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):
        return float(value), _within_int64(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        integral = number.is_integer() and abs(number) < 2 ** 53
        return number, int(number) if integral else None
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return None
        try:
            number = float(text)
        except ValueError:
            return None
        # inf and nan are not integers; what is left of float()'s grammar
        # without a point or an exponent is exactly int()'s.
        if "." in text or "e" in text.lower() or not number.is_integer():
            return number, None
        try:
            return number, _within_int64(int(text))
        except ValueError:             # int()'s digit-count limit (zero padding)
            return number, None
    return None


def _within_int64(exact: int) -> Optional[int]:
    return exact if -2 ** 63 <= exact < 2 ** 63 else None


def infer_dtype(values: Iterable[Any]) -> DType:
    """Infer the storage dtype of a sequence of raw python values.

    Missing markers are ignored during inference.  Mixed numeric content
    (ints and floats) infers FLOAT; anything containing non-parsable strings
    infers STRING.  An all-missing column infers FLOAT so it can hold NaN.

    The loop below is the definition.  The answer depends only on which
    distinct values occur, so a column of text cells is first reduced to
    its distinct set and offered to :func:`_infer_text_batch`; whatever that
    declines is decided here, cell by cell.
    """
    if not isinstance(values, (list, tuple, set)):
        values = list(values)
    if _all_text(values):
        values = set(values)
        guess = _infer_text_batch(values)
        if guess is not None:
            return guess
    saw_bool = saw_int = saw_float = saw_datetime = False
    saw_any = False
    for value in values:
        if is_missing_scalar(value):
            continue
        saw_any = True
        # Numbers take precedence over booleans so "0"/"1" text columns stay
        # numeric; python bools are never treated as numbers by _parse_number.
        number = _parse_number(value)
        if number is not None:
            if number[1] is not None:
                saw_int = True
            else:
                saw_float = True
            continue
        if parse_bool(value) is not None:
            saw_bool = True
            continue
        if parse_datetime(value) is not None:
            saw_datetime = True
            continue
        # A single non-parsable value makes the whole column STRING; no later
        # value can change that, so stop scanning (large text columns would
        # otherwise pay number/bool/datetime attempts on every cell).
        return DType.STRING
    if not saw_any:
        return DType.FLOAT
    if saw_datetime:
        if saw_bool or saw_int or saw_float:
            return DType.STRING
        return DType.DATETIME
    if saw_float:
        return DType.FLOAT
    if saw_int:
        if saw_bool:
            return DType.STRING
        return DType.INT
    if saw_bool:
        return DType.BOOL
    return DType.STRING


def _all_text(values: Any) -> bool:
    """Whether every value is exactly a ``str`` — what the batch paths need."""
    return set(map(type, values)) == {str}


def _missing_cells(distinct: Set[str]) -> Set[str]:
    """Those of the distinct text cells :func:`is_missing_scalar` calls missing."""
    return set(filter(is_missing_scalar, distinct))


#: The only shapes the DATETIME batch parse is offered: ASCII
#: ``YYYY-MM-DD`` with an optional ``[ T]HH:MM:SS``.  On exactly these numpy's
#: ISO parser and ``strptime`` accept the same strings with the same value —
#: bar year 0000, which only numpy takes.  Everything else numpy reads
#: (``2021-01``, fractions, offsets) or ``strptime`` reads (1-digit months,
#: tabs, ``%d-%m-%Y``) goes through :func:`parse_datetime`.
_ISO_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:[ T][0-9]{2}:[0-9]{2}:[0-9]{2})?")
_YEAR_ONE = np.datetime64("0001-01-01", "s")


def _parse_text_batch(cells: Sequence[str], dtype: DType) -> Optional[np.ndarray]:
    """Parse every text cell as INT, FLOAT or DATETIME in C, or None.

    numpy converts a ``str`` to int64 / float64 by calling ``int`` /
    ``float`` on it — the calls :func:`_parse_number` makes — so an array
    here holds, cell for cell, what the scalar coercion returns; None means
    some cell needs the scalar path (a bool token, garbage, an int beyond
    int64, a date outside :data:`_ISO_DATETIME`), never a different value.
    """
    if dtype is DType.DATETIME and \
            not all(map(_ISO_DATETIME.fullmatch, cells)):
        return None
    try:
        data = np.asarray(cells, dtype=dtype.numpy_dtype())
    except (ValueError, OverflowError):
        return None
    if dtype is DType.DATETIME and (data < _YEAR_ONE).any():
        return None
    return data


def _infer_text_batch(distinct: Set[str]) -> Optional[DType]:
    """:func:`infer_dtype` of text cells by trial batch parses, or None.

    INT: every present cell is an int64 literal.  FLOAT: every one is a
    float literal and INT refused some.  DATETIME: every one is ISO-shaped
    and valid.  None of these cells can be a bool token, so the scalar
    loop's precedence (number, bool, datetime) cannot disagree.
    """
    present = list(distinct - _missing_cells(distinct))
    if not present:
        return DType.FLOAT
    for dtype in (DType.INT, DType.FLOAT, DType.DATETIME):
        if _parse_text_batch(present, dtype) is not None:
            return dtype
    return None


#: Text that parses to each dtype's null sentinel, substituted for missing
#: cells before a batch parse.
_NULL_TEXT = {DType.INT: "0", DType.FLOAT: "nan", DType.DATETIME: "1970-01-01"}


def coerce_values(values: Sequence[Any], dtype: DType,
                  lenient: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce raw python values into ``(data, mask)`` arrays for *dtype*.

    ``mask`` is True where the value is missing.  Raises
    :class:`repro.errors.DTypeError` when a non-missing value cannot be
    represented in the requested dtype — unless *lenient* is true, in which
    case such values are recorded as missing instead.  The streaming CSV
    scan parses chunks leniently: its dtypes come from a bounded preview, so
    a value contradicting the inferred dtype deep in a large file must
    degrade to a missing cell (as documented on ``scan_csv``), not abort a
    long-running scan.

    Text cells take a batch path (:func:`_coerce_text_batch`: numpy parses
    the whole column in C) which either returns exactly what the per-scalar
    loop below would, or declines — the loop is the definition and decides
    every raise and every lenient degrade.  This is the hot loop of the
    chunked CSV scan.
    """
    batch = _coerce_text_batch(values, dtype)
    if batch is not None:
        return batch
    size = len(values)
    data = np.empty(size, dtype=dtype.numpy_dtype())
    mask = np.zeros(size, dtype=np.bool_)
    null = dtype.null_value()
    for index, value in enumerate(values):
        if is_missing_scalar(value):
            data[index] = null
            mask[index] = True
            continue
        if lenient:
            try:
                data[index] = _coerce_scalar(value, dtype)
            except (DTypeError, OverflowError):
                # OverflowError: a python int too large for a double raises
                # inside the coercion — it must still degrade to missing,
                # not abort the scan.
                data[index] = null
                mask[index] = True
        else:
            data[index] = _coerce_scalar(value, dtype)
    return data, mask


def _coerce_text_batch(values: Sequence[Any], dtype: DType
                       ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Whole-column coercion of text cells; None = use the per-scalar loop.

    Guess that no cell is missing and parse; when that fails, find the
    missing cells among the distinct ones, substitute the null text and
    parse again.  A cell no parse accepts (lenient or not) declines.
    """
    if dtype is DType.BOOL or not len(values) or not _all_text(values):
        return None
    if dtype is DType.STRING:
        codes, dictionary, mask = _encode_text_cells(values)
        return decode_string_codes(codes, dictionary), mask
    data = _parse_text_batch(values, dtype)
    if data is not None:
        mask = np.zeros(len(values), dtype=np.bool_)
        if dtype is DType.FLOAT:
            # "nan" is both a float literal and a missing token.
            for index in np.flatnonzero(np.isnan(data)).tolist():
                mask[index] = is_missing_scalar(values[index])
        return data, mask
    missing = _missing_cells(set(values))
    if not missing:
        return None
    fill = dict.fromkeys(missing, _NULL_TEXT[dtype])
    data = _parse_text_batch(list(map(fill.get, values, values)), dtype)
    if data is None:
        return None
    return data, np.fromiter(map(missing.__contains__, values),
                             dtype=np.bool_, count=len(values))


def _coerce_scalar(value: Any, dtype: DType) -> Any:
    """Coerce a single non-missing scalar to *dtype*, raising on failure."""
    if dtype is DType.BOOL:
        parsed_bool = parse_bool(value)
        if parsed_bool is None:
            raise DTypeError(f"cannot interpret {value!r} as bool")
        return parsed_bool
    if dtype is DType.INT:
        number = _parse_number(value)
        if number is None or number[1] is None:
            parsed_bool = parse_bool(value)
            if parsed_bool is not None:
                return int(parsed_bool)
            raise DTypeError(f"cannot interpret {value!r} as int")
        return number[1]
    if dtype is DType.FLOAT:
        number = _parse_number(value)
        if number is not None:
            return number[0]
        parsed_bool = parse_bool(value)
        if parsed_bool is not None:
            return float(parsed_bool)
        raise DTypeError(f"cannot interpret {value!r} as float")
    if dtype is DType.DATETIME:
        parsed_datetime = parse_datetime(value)
        if parsed_datetime is None:
            raise DTypeError(f"cannot interpret {value!r} as datetime")
        return parsed_datetime
    if dtype is DType.STRING:
        if isinstance(value, str):
            return value
        if isinstance(value, (np.bool_, np.integer, np.floating)):
            return str(value.item())
        return str(value)
    raise DTypeError(f"unknown dtype {dtype!r}")


def encode_string_codes(data: np.ndarray,
                        mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode a coerced STRING column into ``(codes, dictionary)``.

    ``codes`` is ``int32`` with ``-1`` in masked slots; ``dictionary`` is an
    object array of the distinct present values in *canonical* (sorted)
    order.  The canonical order is what makes encoding content-determined:
    encoding a whole column equals unifying the encodings of any row-split
    of it, which the chunked CSV scan relies on when per-chunk dictionaries
    are merged at combine time.
    """
    codes = np.full(data.shape[0], -1, dtype=np.int32)
    present = ~mask
    if not present.any():
        return codes, np.empty(0, dtype=object)
    # Python set/dict semantics, not a fixed-width ``U`` array: numpy strips
    # trailing NULs from those, which would merge distinct strings.
    values = data[present].tolist()
    dictionary = _sorted_distinct(values)
    index = {value: code for code, value in enumerate(dictionary.tolist())}
    codes[present] = np.fromiter(map(index.__getitem__, values),
                                 dtype=np.int32, count=len(values))
    return codes, dictionary


def encode_cells(values: Sequence[Any]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw cells straight to a STRING column's ``(codes, dictionary, mask)``.

    Equal to ``coerce_values(values, DType.STRING)`` followed by
    :func:`encode_string_codes`, without materializing the per-row object
    array in between — what the CSV parse emits for a STRING column.
    """
    if len(values) and _all_text(values):
        return _encode_text_cells(values)
    data, mask = coerce_values(values, DType.STRING)
    return (*encode_string_codes(data, mask), mask)


def _encode_text_cells(values: Sequence[str]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One distinct-set pass: missing cells, dictionary and codes of text."""
    distinct = set(values)
    missing = _missing_cells(distinct)
    dictionary = _sorted_distinct(distinct - missing)
    index = dict(zip(dictionary.tolist(), range(dictionary.size)))
    index.update(dict.fromkeys(missing, -1))
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                        count=len(values))
    return codes, dictionary, codes < 0


def _sorted_distinct(values: Iterable[str]) -> np.ndarray:
    """The canonical dictionary of *values*: sorted distinct ``str`` objects."""
    distinct = sorted(set(values))
    dictionary = np.empty(len(distinct), dtype=object)
    dictionary[:] = distinct
    return dictionary


def decode_string_codes(codes: np.ndarray,
                        dictionary: np.ndarray) -> np.ndarray:
    """Materialize dictionary codes back into an object array of ``str``.

    Masked slots (code ``-1``) decode to the STRING null sentinel ``""`` —
    what :func:`coerce_values` stores there.
    """
    if dictionary.size == 0:
        data = np.empty(codes.shape[0], dtype=object)
        data[:] = ""
        return data
    missing = codes < 0
    data = dictionary[np.where(missing, 0, codes)]
    if missing.any():
        data[missing] = ""
    return data


def unify_dictionaries(parts: Sequence[Tuple[np.ndarray, np.ndarray]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-chunk ``(codes, dictionary)`` pairs into one encoding.

    The unified dictionary is the sorted union of the part dictionaries —
    the same canonical order :func:`encode_string_codes` produces — and each
    part's codes are remapped through a ``searchsorted`` lookup, so the
    result is exactly the encoding of the concatenated column.
    """
    non_empty = [dictionary for _, dictionary in parts if dictionary.size]
    if not non_empty:
        return (np.concatenate([codes for codes, _ in parts])
                if parts else np.empty(0, dtype=np.int32),
                np.empty(0, dtype=object))
    if len(non_empty) == 1:
        unified = non_empty[0]
    else:
        unified = _sorted_distinct(np.concatenate(non_empty).tolist())
    remapped: List[np.ndarray] = []
    for codes, dictionary in parts:
        if dictionary.size == 0 or (dictionary.size == unified.size and
                                    np.array_equal(dictionary, unified)):
            remapped.append(np.asarray(codes, dtype=np.int32))
            continue
        table = np.searchsorted(unified, dictionary).astype(np.int32)
        part = np.where(codes < 0, np.int32(-1), table[np.where(codes < 0, 0, codes)])
        remapped.append(part.astype(np.int32, copy=False))
    return np.concatenate(remapped), unified


def from_numpy(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray, DType]:
    """Adopt an existing numpy array as column storage.

    Returns ``(data, mask, dtype)``.  Float arrays reuse NaN positions as the
    mask; other numeric arrays have an all-False mask; object arrays fall back
    to full inference and coercion.
    """
    if array.ndim != 1:
        raise DTypeError(f"columns must be one-dimensional, got shape {array.shape}")
    kind = array.dtype.kind
    if kind == "b":
        return array.astype(np.bool_), np.zeros(array.size, dtype=np.bool_), DType.BOOL
    if kind in ("i", "u"):
        return array.astype(np.int64), np.zeros(array.size, dtype=np.bool_), DType.INT
    if kind == "f":
        data = array.astype(np.float64)
        return data, np.isnan(data), DType.FLOAT
    if kind == "M":
        data = array.astype("datetime64[s]")
        return data, np.isnat(data), DType.DATETIME
    if kind in ("U", "S"):
        data = array.astype(str).astype(object)
        mask = np.array([is_missing_scalar(item) for item in data], dtype=np.bool_)
        return data, mask, DType.STRING
    values = list(array)
    dtype = infer_dtype(values)
    data, mask = coerce_values(values, dtype)
    return data, mask, dtype
