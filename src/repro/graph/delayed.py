"""Lazy call wrappers (``delayed``) used to build task graphs declaratively.

This mirrors ``dask.delayed``: wrapping a function defers its execution and
records a task in a graph; passing Delayed objects as arguments wires the
dependency edges.  ``compute`` merges the graphs of many Delayed values into
one graph and executes it — this "single computational graph" step is the
core of the paper's performance optimization (Section 5.2).  Because a task
is keyed by what it computes (:mod:`repro.graph.task`), the merge is where
shared computations collapse; and because a Delayed's graph is exactly its
ancestor closure, the merged graph holds nothing the requested values do
not need.
"""

from __future__ import annotations

import itertools
from dataclasses import fields
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.graph import TaskGraph
from repro.graph.scheduler import RunStats, Scheduler, ThreadedScheduler
from repro.graph.task import Task, tokenize

_IMPURE_CALLS = itertools.count()

_COUNTERS = frozenset(spec.name for spec in fields(RunStats)
                      if isinstance(spec.default, int))


class Delayed:
    """A lazily computed value backed by a task graph."""

    __slots__ = ("key", "graph")

    def __init__(self, key: str, graph: TaskGraph):
        self.key = key
        self.graph = graph

    def compute(self, scheduler: Optional[Scheduler] = None) -> Any:
        """Evaluate just this value."""
        return compute(self, scheduler=scheduler)[0]

    def then(self, func: Callable[..., Any], *args: Any, **kwargs: Any) -> "Delayed":
        """Apply *func* lazily to this value: ``func(self, *args, **kwargs)``."""
        return delayed(func)(self, *args, **kwargs)

    def __repr__(self) -> str:
        return f"Delayed(key={self.key!r}, tasks={len(self.graph)})"


class DelayedCallable:
    """The result of :func:`delayed`: calling it records a task."""

    __slots__ = ("func", "prefix", "pure", "counts", "affinity")

    def __init__(self, func: Callable[..., Any], prefix: Optional[str] = None,
                 pure: bool = True, counts: Optional[Mapping[str, int]] = None,
                 affinity: Optional[str] = None):
        self.func = func
        self.prefix = prefix or getattr(func, "__name__", "task")
        self.pure = pure
        self.counts = counts or {}
        self.affinity = affinity
        if counts and not _COUNTERS.issuperset(counts):
            raise GraphError(
                f"{self.prefix}: counts names {sorted(set(counts) - _COUNTERS)}, "
                f"which are not RunStats counters")

    def __call__(self, *args: Any, **kwargs: Any) -> Delayed:
        graph = TaskGraph()

        def lazy(value: Any) -> Optional[Task]:
            if not isinstance(value, Delayed):
                return None
            graph.update(value.graph)
            return graph[value.key]

        token, deps, stable, shippable, call_args, call_kwargs = tokenize(
            self.func, args, kwargs, lazy)
        # The prefix is a label for whoever reads the key; an impure call's
        # counter keeps two occurrences from ever sharing one.
        key = f"{self.prefix}-{token}" if self.pure \
            else f"{self.prefix}-{token}.{next(_IMPURE_CALLS)}"
        graph.add(Task(key, self.func, call_args, call_kwargs, deps,
                       cacheable=stable and self.pure, shippable=shippable,
                       counts=self.counts, affinity=self.affinity))
        return Delayed(key, graph)


def delayed(func: Callable[..., Any], prefix: Optional[str] = None,
            pure: bool = True, counts: Optional[Mapping[str, int]] = None,
            affinity: Optional[str] = None) -> DelayedCallable:
    """Wrap *func* so calls build graph nodes instead of executing.

    *prefix* labels the keys for whoever reads them; nothing parses it.
    ``pure=False`` marks the call as non-deterministic: two occurrences
    never merge and the result is never cached across calls.  *counts*
    declares the :class:`~repro.graph.scheduler.RunStats` counters one
    execution of such a task adds and *affinity* where it would like to run
    (see :class:`~repro.graph.task.Task`) — facts only the caller knows,
    recorded on the task and never part of its key.
    """
    return DelayedCallable(func, prefix, pure, counts, affinity)


def merge_graphs(values: Sequence[Delayed]) -> Tuple[TaskGraph, List[str]]:
    """Union the graphs of many Delayed values into a single graph.

    Equal computations share a key, so the union runs each once;
    ``graph.shared`` says how many tasks that saved.
    """
    merged = TaskGraph()
    for value in values:
        merged.update(value.graph)
    return merged, [value.key for value in values]


def compute(*values: Any, scheduler: Optional[Scheduler] = None) -> List[Any]:
    """Evaluate many Delayed values against one merged graph.

    Non-Delayed arguments pass through unchanged, so callers can mix eager
    and lazy values.
    """
    scheduler = scheduler or ThreadedScheduler()
    results: List[Any] = list(values)
    positions = [index for index, value in enumerate(values)
                 if isinstance(value, Delayed)]
    if positions:
        graph, keys = merge_graphs([values[index] for index in positions])
        for position, value in zip(positions, scheduler.get(graph, keys)):
            results[position] = value
    return results
