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
from itertools import compress, product
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    distinct values occur, so :func:`decode_cells` asks it about a text
    column's distinct set, and only when no batch parse took the column.
    """
    if not isinstance(values, (list, tuple, set)):
        values = list(values)
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


def _joined_text(values: Sequence[Any]) -> Optional[str]:
    """The values concatenated, or None unless each is a ``str`` (checked in C)."""
    try:
        return "".join(values)
    except TypeError:
        return None


#: Every letter-case spelling of a missing token.  An ASCII cell without
#: whitespace is missing exactly when it is one of these: ``str.strip``
#: leaves it alone and, on ASCII, ``str.lower`` only folds ``A-Z``.
_MISSING_SPELLINGS = frozenset(
    "".join(spelling) for token in MISSING_TOKENS
    for spelling in product(*({char, char.upper()} for char in token)))


def _missing_cells(distinct: Set[str], text: str) -> Set[str]:
    """Those of the *distinct* cells, concatenated in *text*, that
    :func:`is_missing_scalar` calls missing, as a C-level chain (one set
    intersection when *text* holds no whitespace and no non-ASCII)."""
    if text.isascii() and text.split(None, 1) == [text]:
        return distinct & _MISSING_SPELLINGS
    return set(compress(distinct, map(MISSING_TOKENS.__contains__,
                                      map(str.lower, map(str.strip, distinct)))))


#: The only shapes the DATETIME batch parse is offered: ASCII
#: ``YYYY-MM-DD`` with an optional ``[ T]HH:MM:SS``.  On exactly these numpy's
#: ISO parser and ``strptime`` accept the same strings with the same value —
#: bar year 0000, which only numpy takes.  Everything else numpy reads
#: (``2021-01``, fractions, offsets) or ``strptime`` reads (1-digit months,
#: tabs, ``%d-%m-%Y``) goes through :func:`parse_datetime`.
_ISO_DATETIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:[ T][0-9]{2}:[0-9]{2}:[0-9]{2})?")
_YEAR_ONE = np.datetime64("0001-01-01", "s")

#: Text that parses to each dtype's null sentinel, substituted for missing
#: cells; inference tries these dtypes in :func:`infer_dtype`'s precedence.
_NULL_TEXT = {DType.INT: "0", DType.FLOAT: "nan", DType.DATETIME: "1970-01-01"}


def _parse_text(values: Sequence[str], distinct: Set[str], missing: Set[str],
                dtype: Optional[DType]) -> Optional["Decoded"]:
    """The first batch parse of text cells that succeeds — under *dtype*, or
    under INT, FLOAT, DATETIME in turn when it is None — or None.

    *missing* cells parse as :data:`_NULL_TEXT`.  numpy converts a ``str``
    to int64 / float64 by calling ``int`` / ``float`` on it — the calls
    :func:`_parse_number` makes — so an array here holds, cell for cell,
    what the scalar coercion returns.  A parse refuses a bool token, garbage,
    an int beyond int64, a date outside :data:`_ISO_DATETIME`.
    """
    if dtype is None:
        trials = (DType.FLOAT,) if missing == distinct else _NULL_TEXT
    else:
        trials = (dtype,) if dtype in _NULL_TEXT else ()
    for trial in trials:
        if trial is DType.DATETIME and \
                not all(map(_ISO_DATETIME.fullmatch, distinct - missing)):
            continue
        cells = map(dict.fromkeys(missing, _NULL_TEXT[trial]).get, values, values) \
            if missing else values
        try:
            data = np.fromiter(cells, dtype=trial.numpy_dtype(), count=len(values))
        except (ValueError, OverflowError):
            continue
        if trial is DType.DATETIME and (data < _YEAR_ONE).any():
            continue
        return Decoded(trial, data, np.fromiter(
            map(missing.__contains__, values), dtype=np.bool_, count=len(values))
            if missing else np.zeros(len(values), dtype=np.bool_))
    return None


class Decoded(NamedTuple):
    """A column's storage: ``data``, or for STRING ``codes`` + ``dictionary``."""

    dtype: DType
    data: Optional[np.ndarray]
    mask: np.ndarray
    codes: Optional[np.ndarray] = None
    dictionary: Optional[np.ndarray] = None


def decode_cells(values: Sequence[Any], dtype: Optional[DType] = None,
                 lenient: bool = False) -> Decoded:
    """Raw cells to a column's storage under *dtype*, inferred when None.

    A text column's distinct set and its missing subset are built once, and
    its first successful batch parse is both the inferred dtype and the
    data.  What the batch declines is decided by the scalar loops of
    :func:`infer_dtype` and :func:`_coerce_each`.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if len(values) and (text := _joined_text(values)) is not None:
        distinct = set(values)
        missing = _missing_cells(distinct, text)
        decoded = _parse_text(values, distinct, missing, dtype)
        if decoded is not None:
            return decoded
        if dtype is None:
            dtype = infer_dtype(distinct)
        if dtype is DType.STRING:          # codes from the distinct cells
            dictionary = _sorted_distinct(distinct - missing)
            index = dict(zip(dictionary.tolist(), range(dictionary.size)))
            index.update(dict.fromkeys(missing, -1))
            codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                                count=len(values))
            return Decoded(dtype, None, codes < 0, codes, dictionary)
    elif dtype is None:
        dtype = infer_dtype(values)
    data, mask = _coerce_each(values, dtype, lenient)
    if dtype is DType.STRING:
        return Decoded(dtype, None, mask, *encode_string_codes(data, mask))
    return Decoded(dtype, data, mask)


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

    Text cells take :func:`decode_cells`' batch parse, which returns exactly
    what the scalar loop :func:`_coerce_each`, the definition, would.
    """
    _, data, mask, codes, dictionary = decode_cells(values, dtype, lenient)
    return data if codes is None else decode_string_codes(codes, dictionary), mask


def _coerce_each(values: Sequence[Any], dtype: DType,
                 lenient: bool) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`coerce_values`, one scalar at a time."""
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
    array in between.
    """
    decoded = decode_cells(values, DType.STRING)
    return decoded.codes, decoded.dictionary, decoded.mask


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
    part's codes are remapped through a table of dict lookups, so the
    result is exactly the encoding of the concatenated column.
    """
    non_empty = [dictionary for _, dictionary in parts if dictionary.size]
    if not non_empty:
        return (np.concatenate([codes for codes, _ in parts])
                if parts else np.empty(0, dtype=np.int32),
                np.empty(0, dtype=object))
    if len(non_empty) == 1:
        unified, index = non_empty[0], {}
    else:
        unified = _sorted_distinct(np.concatenate(non_empty).tolist())
        index = {text: code for code, text in enumerate(unified.tolist())}
    remapped: List[np.ndarray] = []
    for codes, dictionary in parts:
        if dictionary.size == 0 or (dictionary.size == unified.size and
                                    np.array_equal(dictionary, unified)):
            remapped.append(np.asarray(codes, dtype=np.int32))
            continue
        # One slot past the part's dictionary maps a missing row's -1 to -1.
        table = np.array([*map(index.__getitem__, dictionary.tolist()), -1],
                         dtype=np.int32)
        remapped.append(table[codes])
    return np.concatenate(remapped), unified


def from_numpy(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray, DType]:
    """Adopt an existing numpy array as column storage.

    Returns ``(data, mask, dtype)``.  Float arrays reuse NaN positions as the
    mask; other numeric arrays have an all-False mask; the cells of an object
    array are decoded by :func:`decode_cells`.
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
    dtype, data, mask, codes, dictionary = decode_cells(list(array))
    return data if codes is None else decode_string_codes(codes, dictionary), mask, dtype
