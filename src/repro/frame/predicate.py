"""Row-filter predicate IR: the unit of predicate pushdown.

Filtered EDA (``plot(df, "x", where=...)`` or ``scan[scan["x"] > 0]``)
compiles the user's filter into a tiny IR before any planning happens:

* :class:`Conjunct` — one ``column <op> literal`` comparison;
* :class:`Predicate` — the AND of one or more conjuncts.

The IR is deliberately minimal — a conjunction of single-column comparisons
against literals — because that is exactly the shape a storage layer can
exploit: each conjunct can be tested against per-chunk min/max statistics
(:mod:`repro.frame.zonemap`) to skip whole chunks, and the residual filter
runs inside the chunk-parse task on columns the parse was reading anyway.
Anything richer (OR, column-vs-column, arbitrary callables) is *unsupported
by pushdown* and handled by the API layer as an eager fallback filter.

Missing-value semantics are SQL-like: **a missing value never matches any
comparison**, including ``!=``.  This keeps filtered results independent of
whether the filter ran per-chunk during a scan or once over a materialized
frame.

For transport into task graphs the predicate flattens to a *spec*: a nested
tuple of plain scalars such as ``(("price", ">", 150000.0),)``.  Plain
tuples tokenize structurally in the graph layer, so a filtered parse task
gets a task key that differs from the unfiltered parse of the same chunk by
exactly the predicate — filtered and unfiltered runs share nothing they
should not, and identical filters share everything.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import date, datetime
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.errors import FrameError
from repro.frame.dtypes import DType, parse_datetime


class PredicateError(FrameError):
    """A filter expression cannot be compiled into the pushdown IR."""


#: Comparison operators the IR supports, mapped to their evaluators.
OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

_LITERAL_TYPES = (bool, int, float, str, np.bool_, np.integer, np.floating,
                  datetime, date, np.datetime64)


def _normalize_literal(value: Any) -> Any:
    """Coerce numpy/datetime scalars to plain Python so specs stay
    picklable, tokenizable and stable across processes.

    Datetime literals (``datetime``, ``date``, ``numpy.datetime64``)
    normalize to their ISO-8601 second-precision string — a plain ``str``
    travels through task kwargs, cache keys and the zone-map planner
    unchanged, and every consumer that needs a real datetime revives it
    with :func:`repro.frame.dtypes.parse_datetime`.
    """
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            raise PredicateError("cannot compare against NaT; a missing "
                                 "value never matches any predicate")
        return str(value.astype("datetime64[s]"))
    if isinstance(value, datetime):        # before date: datetime IS a date
        return str(np.datetime64(value.replace(tzinfo=None), "s"))
    if isinstance(value, date):
        return str(np.datetime64(value, "s"))
    return value


@dataclass(frozen=True)
class Conjunct:
    """One ``column <op> literal`` comparison."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise PredicateError(
                f"unsupported comparison operator {self.op!r}; "
                f"supported: {sorted(OPERATORS)}")
        if not isinstance(self.column, str):
            raise PredicateError(
                f"predicate column must be a column name, got "
                f"{type(self.column).__name__}")
        if not isinstance(self.value, _LITERAL_TYPES):
            raise PredicateError(
                f"predicate literal must be a scalar "
                f"(bool/int/float/str), got {type(self.value).__name__}")
        object.__setattr__(self, "value", _normalize_literal(self.value))

    def spec(self) -> Tuple[str, str, Any]:
        """The flat, picklable transport form of this conjunct."""
        return (self.column, self.op, self.value)

    def mask(self, frame: Any) -> np.ndarray:
        """Boolean match mask over *frame*; missing values never match."""
        column = frame.column(self.column)
        present = column.notna()
        out = np.zeros(len(column), dtype=bool)
        if not present.any():
            return out
        if column.dtype is DType.STRING:
            # Compare the (small, sorted) dictionary once, then gather by
            # int32 code instead of comparing per-row strings.
            values, codes = column.dictionary, column.codes[present]
        else:
            values, codes = column.data[present], None
        value = self.value
        if values.dtype.kind == "M" and not isinstance(value, np.datetime64):
            # Datetime literals are normalized to ISO strings in the spec;
            # numpy raises TypeError on datetime64-vs-str, so revive the
            # literal before comparing.
            revived = parse_datetime(value) if isinstance(value, str) else None
            if revived is None:
                raise PredicateError(
                    f"cannot compare datetime column {self.column!r} with "
                    f"{self.value!r}; pass a datetime, a numpy.datetime64 "
                    f"or an ISO date string")
            value = revived
        try:
            matched = OPERATORS[self.op](values, value)
        except TypeError as error:
            raise PredicateError(
                f"cannot compare column {self.column!r} with "
                f"{self.value!r}: {error}") from None
        matched = np.asarray(matched, dtype=bool)
        out[present] = matched if codes is None else matched[codes]
        return out

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


@dataclass(frozen=True)
class Predicate:
    """AND of one or more :class:`Conjunct` comparisons."""

    conjuncts: Tuple[Conjunct, ...]

    def __post_init__(self) -> None:
        if not self.conjuncts:
            raise PredicateError("a predicate needs at least one conjunct")

    @property
    def columns(self) -> List[str]:
        """Columns the predicate reads, in first-use order, deduplicated."""
        seen: List[str] = []
        for conjunct in self.conjuncts:
            if conjunct.column not in seen:
                seen.append(conjunct.column)
        return seen

    def spec(self) -> Tuple[Tuple[str, str, Any], ...]:
        """Nested plain-tuple form that travels inside task graphs."""
        return tuple(conjunct.spec() for conjunct in self.conjuncts)

    @classmethod
    def from_spec(cls, spec: Iterable[Tuple[str, str, Any]]) -> "Predicate":
        """Rebuild a predicate from its :meth:`spec` transport form."""
        return cls(tuple(Conjunct(*entry) for entry in spec))

    def mask(self, frame: Any) -> np.ndarray:
        """Boolean AND-mask over *frame* (missing values never match)."""
        out = self.conjuncts[0].mask(frame)
        for conjunct in self.conjuncts[1:]:
            out &= conjunct.mask(frame)
        return out

    def __and__(self, other: "Predicate") -> "Predicate":
        if not isinstance(other, Predicate):
            return NotImplemented
        return Predicate(self.conjuncts + other.conjuncts)

    def __repr__(self) -> str:
        return " & ".join(repr(conjunct) for conjunct in self.conjuncts)


class ColumnExpr:
    """A lazily referenced column of a scanned (not yet parsed) input.

    ``scan["price"]`` returns one of these instead of parsing the file; its
    comparison operators build :class:`Predicate` objects, so
    ``scan[scan["price"] > 100]`` describes a filtered scan without reading
    a single data byte.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _compare(self, op: str, other: Any) -> Predicate:
        return Predicate((Conjunct(self.name, op, other),))

    def __gt__(self, other: Any) -> Predicate:
        return self._compare(">", other)

    def __ge__(self, other: Any) -> Predicate:
        return self._compare(">=", other)

    def __lt__(self, other: Any) -> Predicate:
        return self._compare("<", other)

    def __le__(self, other: Any) -> Predicate:
        return self._compare("<=", other)

    def __eq__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare("==", other)

    def __ne__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare("!=", other)

    __hash__ = None  # type: ignore[assignment]  # expression object, not a value

    def __repr__(self) -> str:
        return f"ColumnExpr({self.name!r})"


WhereLike = Union[Predicate, Conjunct, tuple, list]


def compile_predicate(where: WhereLike) -> Predicate:
    """Compile a user-facing ``where=`` value into a :class:`Predicate`.

    Accepted shapes:

    * a :class:`Predicate` (e.g. built from ``scan["x"] > 0``) — returned
      as-is;
    * a :class:`Conjunct`;
    * one ``(column, op, literal)`` triple, e.g. ``("price", ">", 0)``;
    * an iterable of such triples, ANDed together.

    Anything else — callables, boolean arrays, OR-trees — raises
    :class:`PredicateError`; the API layer catches that and falls back to a
    full parse plus an eager filter (with a ``UserWarning``).
    """
    if isinstance(where, Predicate):
        return where
    if isinstance(where, Conjunct):
        return Predicate((where,))
    if isinstance(where, (tuple, list)) and where:
        entries = list(where)
        if len(entries) == 3 and isinstance(entries[0], str) and \
                isinstance(entries[1], str):
            entries = [tuple(entries)]
        conjuncts = []
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
                raise PredicateError(
                    f"expected (column, op, literal) triples, got {entry!r}")
            conjuncts.append(Conjunct(*entry))
        return Predicate(tuple(conjuncts))
    raise PredicateError(
        f"unsupported predicate shape: {type(where).__name__}; expected a "
        "Predicate, a (column, op, literal) triple, or a list of triples")


def apply_predicate_spec(frame: Any, spec: Iterable[Tuple[str, str, Any]]) -> Any:
    """Filter *frame* down to the rows matching a predicate *spec*.

    This is the function partition tasks call inside workers, so it takes
    the flat transport form rather than a :class:`Predicate` object.
    """
    return frame.filter(Predicate.from_spec(spec).mask(frame))


__all__ = [
    "ColumnExpr",
    "Conjunct",
    "OPERATORS",
    "Predicate",
    "PredicateError",
    "apply_predicate_spec",
    "compile_predicate",
]
