"""Cross-call intermediate cache for the task graph.

Merging graphs already avoids work *inside* one EDA call (equal tasks share
a key and run once).  This module avoids work *across* calls: an
interactive user who iterates ``plot(df)`` → ``plot(df, "x")`` →
``plot_correlation(df)`` re-derives many of the same intermediates — the
partition slices, per-column summaries and histograms — from the same frame.

Nothing here computes a key: a task's own key is the hash of what it
computes (:mod:`repro.graph.task`) — literals by value, DataFrames/Columns
by content fingerprint (:mod:`repro.frame.fingerprint`), frame sources by
their stamp-based ``fingerprint()`` (stable across processes while the files
are unchanged, which is what keeps multi-file re-scans warm), dependencies
by *their* keys — so equal subgraphs built in different calls carry equal
keys and the cache is addressed by them directly.  Tasks whose key had to
fall back to object identity (closures, impure calls, unrecognised argument
types — ``Task.cacheable`` is False) are simply never cached.

What is here is **a bounded LRU store** (:class:`TaskCache`) with a
byte-size budget and hit/miss/eviction statistics.  The schedulers consult
it before executing a task; a hit skips not only the task but its entire
exclusive ancestor subtree (see
:meth:`repro.graph.scheduler.Scheduler.plan_with_cache`).

A process-wide cache instance (:func:`get_global_cache`) is shared by every
:class:`~repro.eda.compute.base.ComputeContext` whose config has
``cache.enabled`` set (the default), which is what makes repeated ``plot*``
and ``create_report`` calls on the same frame fast.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Default byte budget of the global cache (also the Config default).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


# --------------------------------------------------------------------------- #
# Size estimation
# --------------------------------------------------------------------------- #
def estimate_size(value: Any, _depth: int = 0) -> int:
    """Approximate in-memory byte size of a cached value.

    Exact for numpy buffers, recursive (to a bounded depth) for containers
    and plain objects, ``sys.getsizeof`` otherwise.  The estimate only needs
    to be good enough for the LRU byte budget, not exact.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return 32
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 128
    memory_bytes = getattr(value, "memory_bytes", None)
    if callable(memory_bytes):
        return int(memory_bytes()) + 256
    if isinstance(value, (str, bytes)):
        return sys.getsizeof(value)
    if _depth >= 4:
        return sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(
            estimate_size(item, _depth + 1) for item in value)
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            estimate_size(item_key, _depth + 1) + estimate_size(item, _depth + 1)
            for item_key, item in value.items())
    attributes = getattr(value, "__dict__", None)
    if attributes is None and hasattr(type(value), "__slots__"):
        attributes = {slot: getattr(value, slot)
                      for slot in type(value).__slots__ if hasattr(value, slot)}
    if attributes:
        return sys.getsizeof(value) + sum(
            estimate_size(item, _depth + 1) for item in attributes.values())
    return sys.getsizeof(value)


def detach_views(value: Any, _depth: int = 0) -> Any:
    """Copy numpy views out of *value* so cached entries own their memory.

    Partition slices are views into the source frame's arrays; caching a
    view would pin the entire parent buffer (gigabytes for a large frame)
    while the byte budget only counts the slice.  Values whose arrays have
    a ``base`` are deep-copied before storage; everything else is stored
    as-is.
    """
    if isinstance(value, np.ndarray):
        return value.copy() if value.base is not None else value
    if _depth < 4 and isinstance(value, (list, tuple)):
        detached = [detach_views(item, _depth + 1) for item in value]
        return type(value)(detached) if isinstance(value, tuple) else detached
    from repro.frame.column import Column
    from repro.frame.frame import DataFrame
    if isinstance(value, Column):
        return value.copy() if _column_is_view(value) else value
    if isinstance(value, DataFrame):
        if any(_column_is_view(value.column(name)) for name in value.columns):
            return value.copy()
        return value
    return value


def _column_is_view(column: Any) -> bool:
    """True when the column's backing arrays are views into a parent buffer.

    STRING columns are judged on their codes array: the shared dictionary
    is the unique-values buffer itself, not a slice of a larger frame, so
    it never pins foreign memory.
    """
    from repro.frame.dtypes import DType
    stored = column.codes if column.dtype is DType.STRING else column.data
    return stored.base is not None or column.mask.base is not None


# --------------------------------------------------------------------------- #
# The LRU store
# --------------------------------------------------------------------------- #
@dataclass
class CacheStats:
    """Counters of everything the cache did since creation (or reset)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejected: int = 0          # values larger than the whole budget
    current_bytes: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for logging and the benchmarks."""
        return {
            "hits": self.hits, "misses": self.misses, "stores": self.stores,
            "evictions": self.evictions, "rejected": self.rejected,
            "current_bytes": self.current_bytes, "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


class TaskCache:
    """Thread-safe LRU cache of task results with a byte-size budget.

    Entries are keyed by the keys of cacheable tasks.
    When an insert pushes the total estimated size over ``max_bytes``, the
    least recently used entries are evicted until the budget holds; a single
    value larger than the whole budget is rejected outright.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a hit refreshes the entry's LRU position."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return True, entry[0]

    def put(self, key: str, value: Any) -> bool:
        """Store *value* under *key*, evicting LRU entries to fit the budget.

        Values holding numpy views are copied first (see
        :func:`detach_views`) so an entry never pins memory beyond what the
        budget accounts for.
        """
        value = detach_views(value)
        size = estimate_size(value)
        with self._lock:
            if size > self.max_bytes:
                self.stats.rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.stats.current_bytes -= previous[1]
            self._entries[key] = (value, size)
            self.stats.current_bytes += size
            self.stats.stores += 1
            self._evict_to_fit()
            self.stats.entries = len(self._entries)
            return True

    def _evict_to_fit(self) -> None:
        while self.stats.current_bytes > self.max_bytes and self._entries:
            _, (_, size) = self._entries.popitem(last=False)
            self.stats.current_bytes -= size
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    def resize(self, max_bytes: int) -> None:
        """Change the byte budget, evicting immediately if it shrank."""
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        with self._lock:
            self.max_bytes = int(max_bytes)
            self._evict_to_fit()
            self.stats.entries = len(self._entries)

    def clear(self) -> None:
        """Drop every entry (statistics counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0
            self.stats.entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        """Current entry keys in LRU order (oldest first)."""
        with self._lock:
            return list(self._entries.keys())

    def __repr__(self) -> str:
        return (f"TaskCache(entries={self.stats.entries}, "
                f"bytes={self.stats.current_bytes}/{self.max_bytes}, "
                f"hits={self.stats.hits}, misses={self.stats.misses})")


# --------------------------------------------------------------------------- #
# The process-wide cache shared across EDA calls
# --------------------------------------------------------------------------- #
_GLOBAL_CACHE: Optional[TaskCache] = None
_GLOBAL_LOCK = threading.Lock()


def get_global_cache() -> TaskCache:
    """The process-wide cache shared by every cache-enabled EDA call."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = TaskCache()
        return _GLOBAL_CACHE


def set_global_cache(cache: Optional[TaskCache]) -> None:
    """Replace the process-wide cache (None installs a fresh one lazily)."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = cache


def clear_global_cache() -> None:
    """Empty the process-wide cache without replacing it."""
    with _GLOBAL_LOCK:
        if _GLOBAL_CACHE is not None:
            _GLOBAL_CACHE.clear()
