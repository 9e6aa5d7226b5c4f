"""Deliberately naive reference semantics: categorical kernels, CSV cell decode.

Every function works on plain python lists (``None`` = missing, as
``Column.to_list()`` returns them) with Counter / dict loops — the smallest
code that says what each result *means*.  The vectorized codes kernels in
``repro.frame`` / ``repro.stats`` / ``repro.eda.compute`` are tested against
these; nothing here may import a kernel it is the reference for.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DTypeError
from repro.frame.dtypes import DType


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


def top_values(values: Sequence[Any], n: int) -> List[Tuple[str, int]]:
    """The *n* most frequent labels, ties broken on the label text."""
    counts = Counter(label for label in labels(values) if label is not None)
    return sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))[:n]


def entropy(values: Sequence[Any]) -> float:
    """Shannon entropy (bits) of the label distribution; 0.0 when empty."""
    counts = Counter(label for label in labels(values) if label is not None)
    total = sum(counts.values())
    return -sum(count / total * math.log2(count / total)
                for count in counts.values()) + 0.0


def prune(counts: Dict[str, int], capacity: int
          ) -> Tuple[Dict[str, int], int, int]:
    """Bounded value counts: the *capacity* most frequent entries (ties on
    the label text), the total count dropped and the largest count dropped."""
    ordered = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    dropped = [count for _, count in ordered[capacity:]]
    return dict(ordered[:capacity]), sum(dropped), max(dropped, default=0)


def duplicate_row_count(columns: Sequence[Sequence[Any]]) -> int:
    """Rows equal to an earlier row; missing equals missing, -0.0 equals 0.0
    (python's own tuple equality and hashing)."""
    rows = list(zip(*columns))
    return len(rows) - len(set(rows))


def hash_text(text: str) -> int:
    """The 64-bit label hash of the KMV and duplicate-row sketches, one
    string at a time in python ints: code point ``j`` (from 1) times the
    FNV prime to the ``j``, summed; plus ``len + 1`` times splitmix64's
    increment; through splitmix64's finaliser — all modulo 2^64."""
    mask = (1 << 64) - 1
    folded, power = 0, 1
    for char in text:
        power = power * 1099511628211 & mask
        folded = (folded + ord(char) * power) & mask
    mixed = (folded + (len(text) + 1) * 0x9E3779B97F4A7C15) & mask
    mixed = (mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9 & mask
    mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EB & mask
    return mixed ^ (mixed >> 31)


# --------------------------------------------------------------------------- #
# Rank correlations of two lists; None, NaN and +-inf are missing, and a pair
# of rows counts only when both sides are present (pairwise deletion).
# --------------------------------------------------------------------------- #
def _jointly_finite(x: Sequence[Any], y: Sequence[Any]
                    ) -> Tuple[List[float], List[float]]:
    pairs = [(a, b) for a, b in zip(x, y)
             if a is not None and b is not None
             and math.isfinite(a) and math.isfinite(b)]
    return [a for a, _ in pairs], [b for _, b in pairs]


def average_ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks; tied values share the mean of the ranks they occupy."""
    return [sum(other < value for other in values)
            + (sum(other == value for other in values) + 1) / 2
            for value in values]


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)
    spread = math.sqrt(sum((a - mean_x) ** 2 for a in x)
                       * sum((b - mean_y) ** 2 for b in y))
    if spread == 0:
        return math.nan
    covariance = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    return max(-1.0, min(1.0, covariance / spread))


def spearman(x: Sequence[Any], y: Sequence[Any]) -> float:
    """Pearson correlation of the average ranks; NaN below two joint rows
    or when either side is constant."""
    x, y = _jointly_finite(x, y)
    if len(x) < 2:
        return math.nan
    return _pearson(average_ranks(x), average_ranks(y))


def kendall_tau_b(x: Sequence[Any], y: Sequence[Any]) -> float:
    """(concordant - discordant) / sqrt(pairs untied in x * pairs untied
    in y); NaN below two joint rows or when either side is constant."""
    x, y = _jointly_finite(x, y)
    if len(x) < 2:
        return math.nan
    score = untied_x = untied_y = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            sign_x = (x[i] > x[j]) - (x[i] < x[j])
            sign_y = (y[i] > y[j]) - (y[i] < y[j])
            score += sign_x * sign_y
            untied_x += sign_x != 0
            untied_y += sign_y != 0
    if untied_x == 0 or untied_y == 0:
        return math.nan
    return score / math.sqrt(untied_x * untied_y)


def per_row_object_bytes(values: Sequence[Any]) -> int:
    """Footprint of carrying one python ``str`` per row (pointer + mask byte
    + the object itself) — what dictionary encoding is measured against."""
    return 9 * len(values) + sum(sys.getsizeof(value)
                                 for value in present(values))


# --------------------------------------------------------------------------- #
# CSV cell decode: what a text cell means under each storage dtype
# --------------------------------------------------------------------------- #
# One cell at a time with ``float`` / ``int`` / ``strptime`` — no numpy, no
# batching, no distinct sets.  ``repro.frame.dtypes`` is tested against
# these; only the DType enum and the error class are imported from ``repro``.
DECODE_MISSING = {"", "na", "n/a", "nan", "null", "none", "missing", "?"}
DECODE_TRUE = {"true", "t", "yes", "y", "1"}
DECODE_FALSE = {"false", "f", "no", "n", "0"}
DECODE_DATETIME_FORMATS = (
    "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S%z",
    "%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%d-%m-%Y")
#: The only texts offered to strptime: three digit groups, then optionally
#: whitespace or ``T``, a time, and ``Z`` or a ``+hh[:]mm`` offset.
DECODE_DATETIME_SHAPE = re.compile(
    r"^\d{1,4}[-/]\d{1,2}[-/]\d{1,4}"
    r"((\s+|T)\d{1,2}:\d{1,2}:\d{1,2}(Z|[+-]\d{2}:?\d{2})?)?$")
DECODE_EPOCH = datetime(1970, 1, 1)
#: What a missing slot stores, per dtype (datetimes as epoch seconds).
DECODE_NULLS = {DType.BOOL: False, DType.INT: 0, DType.FLOAT: float("nan"),
                DType.STRING: "", DType.DATETIME: 0}


def decode_is_missing(cell: str) -> bool:
    return cell.strip().lower() in DECODE_MISSING


def decode_bool(cell: str) -> Optional[bool]:
    token = cell.strip().lower()
    return True if token in DECODE_TRUE else \
        False if token in DECODE_FALSE else None


def decode_number(cell: str) -> Any:
    """An ``int`` (an integer literal that fits int64), a ``float`` (any
    other float literal, integers beyond int64 included) or None."""
    text = cell.strip()
    try:
        number = float(text)
    except ValueError:
        return None
    try:
        exact = int(text)
    except ValueError:
        return number
    return exact if -2 ** 63 <= exact < 2 ** 63 else number


def decode_datetime(cell: str) -> Optional[int]:
    """Seconds since the epoch on the naive UTC timeline, or None."""
    text = cell.strip()
    if not DECODE_DATETIME_SHAPE.match(text):
        return None
    for fmt in DECODE_DATETIME_FORMATS:
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        if parsed.tzinfo is not None:
            parsed = parsed.astimezone(timezone.utc).replace(tzinfo=None)
        return (parsed - DECODE_EPOCH) // timedelta(seconds=1)
    return None


def decode_kind(cell: str) -> str:
    """What one present cell is; numbers before bools before datetimes."""
    number = decode_number(cell)
    if number is not None:
        return "int" if isinstance(number, int) else "float"
    if decode_bool(cell) is not None:
        return "bool"
    if decode_datetime(cell) is not None:
        return "datetime"
    return "string"


def decode_infer(cells: Sequence[str]) -> DType:
    kinds = {decode_kind(cell) for cell in cells
             if not decode_is_missing(cell)}
    if not kinds:
        return DType.FLOAT
    if "string" in kinds:
        return DType.STRING
    if "datetime" in kinds:
        return DType.DATETIME if kinds == {"datetime"} else DType.STRING
    if "float" in kinds:
        return DType.FLOAT
    if "int" in kinds:
        return DType.INT if kinds == {"int"} else DType.STRING
    return DType.BOOL


def decode_cell(cell: str, dtype: DType) -> Any:
    """One present cell as *dtype* (datetimes as epoch seconds), or raise."""
    if dtype is DType.STRING:
        return cell
    if dtype is DType.DATETIME:
        value: Any = decode_datetime(cell)
    elif dtype is DType.BOOL:
        value = decode_bool(cell)
    else:
        number = decode_number(cell)
        as_type = int if dtype is DType.INT else float
        if dtype is DType.FLOAT and number is not None:
            value = float(cell.strip())     # not float(int(...)): "-0" is -0.0
        elif isinstance(number, int):
            value = number
        else:                          # INT and FLOAT both take bool tokens
            flag = decode_bool(cell)
            value = None if flag is None else as_type(flag)
    if value is None:
        raise DTypeError(f"cannot interpret {cell!r} as {dtype.value}")
    return value


def decode_column(cells: Sequence[str], dtype: DType,
                  lenient: bool) -> Tuple[List[Any], List[bool]]:
    """``(values, mask)``; a cell *dtype* cannot hold raises, or when
    *lenient* becomes missing."""
    values: List[Any] = []
    mask: List[bool] = []
    for cell in cells:
        missing = decode_is_missing(cell)
        if not missing:
            try:
                values.append(decode_cell(cell, dtype))
            except DTypeError:
                if not lenient:
                    raise
                missing = True
        if missing:
            values.append(DECODE_NULLS[dtype])
        mask.append(missing)
    return values, mask


def decode_dictionary(values: Sequence[str], mask: Sequence[bool]
                      ) -> Tuple[List[int], List[str]]:
    """``(codes, dictionary)``: sorted distinct present values, -1 = missing."""
    dictionary = sorted({value for value, missing in zip(values, mask)
                         if not missing})
    return [-1 if missing else dictionary.index(value)
            for value, missing in zip(values, mask)], dictionary
