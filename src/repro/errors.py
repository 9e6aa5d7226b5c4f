"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError`` raised by misuse of third-party code.
"""

from __future__ import annotations

from typing import Iterable, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FrameError(ReproError):
    """Errors raised by the columnar DataFrame substrate (``repro.frame``)."""


class ColumnNotFoundError(FrameError, KeyError):
    """A referenced column does not exist in the DataFrame."""

    def __init__(self, name: str, available: Optional[Iterable[str]] = None):
        self.name = name
        self.available = list(available) if available is not None else None
        message = f"column {name!r} not found"
        if self.available is not None:
            suggestion = _closest(name, self.available)
            if suggestion is not None:
                message += f"; did you mean {suggestion!r}?"
            else:
                message += f"; available columns: {self.available}"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ adds quotes around args[0]
        return self.args[0]


class DTypeError(FrameError):
    """A value or column has an incompatible data type for the operation."""


class LengthMismatchError(FrameError):
    """Columns of differing length were combined into one DataFrame."""


class GraphError(ReproError):
    """Errors raised by the lazy task-graph engine (``repro.graph``)."""


class CycleError(GraphError):
    """The task graph contains a cycle and cannot be scheduled."""


class SchedulerError(GraphError):
    """A task failed while being executed by a scheduler."""

    def __init__(self, key: str, cause: BaseException):
        self.key = key
        self.cause = cause
        super().__init__(f"task {key!r} failed: {cause!r}")


class ConfigError(ReproError):
    """An invalid configuration key or value was supplied by the user."""

    def __init__(self, message: str, key: Optional[str] = None,
                 suggestion: Optional[str] = None):
        self.key = key
        self.suggestion = suggestion
        if suggestion is not None:
            message = f"{message}; did you mean {suggestion!r}?"
        super().__init__(message)


class EDAError(ReproError):
    """Errors raised by the task-centric EDA layer (``repro.eda``)."""


class DatasetError(ReproError):
    """Errors raised by the synthetic dataset generators."""


def _closest(name: str, candidates: Iterable[str]) -> Optional[str]:
    """Return the candidate closest to *name* using a simple edit distance.

    Only returns a suggestion when the distance is small relative to the
    length of the name, to avoid absurd "did you mean" hints.
    """
    best: Optional[str] = None
    best_distance = 10 ** 9
    for candidate in candidates:
        distance = _levenshtein(name.lower(), candidate.lower())
        if distance < best_distance:
            best, best_distance = candidate, distance
    if best is None:
        return None
    if best_distance <= max(1, len(name) // 3):
        return best
    return None


def _levenshtein(a: str, b: str) -> int:
    """Classic dynamic-programming Levenshtein distance between two strings."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]
