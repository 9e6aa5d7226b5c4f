"""Lazy call wrappers (``delayed``) used to build task graphs declaratively.

This mirrors ``dask.delayed``: wrapping a function defers its execution and
records a task in a graph; passing Delayed objects as arguments wires the
dependency edges.  ``compute`` merges the graphs of many Delayed values into
one graph, optimizes it, and executes it — this "single computational graph"
step is the core of the paper's performance optimization (Section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import TaskGraph
from repro.graph.optimize import OptimizeStats, optimize
from repro.graph.scheduler import Scheduler, ThreadedScheduler
from repro.graph.task import Task, TaskRef, next_key


class Delayed:
    """A lazily computed value backed by a task graph."""

    __slots__ = ("key", "graph")

    def __init__(self, key: str, graph: TaskGraph):
        self.key = key
        self.graph = graph

    def compute(self, scheduler: Optional[Scheduler] = None,
                enable_cse: bool = True) -> Any:
        """Evaluate just this value."""
        return compute(self, scheduler=scheduler, enable_cse=enable_cse)[0]

    def then(self, func: Callable[..., Any], *args: Any, **kwargs: Any) -> "Delayed":
        """Apply *func* lazily to this value: ``func(self, *args, **kwargs)``."""
        return delayed(func)(self, *args, **kwargs)

    def __repr__(self) -> str:
        return f"Delayed(key={self.key!r}, tasks={len(self.graph)})"


class DelayedCallable:
    """The result of :func:`delayed`: calling it records a task."""

    __slots__ = ("func", "prefix", "pure")

    def __init__(self, func: Callable[..., Any], prefix: Optional[str] = None,
                 pure: bool = True):
        self.func = func
        self.prefix = prefix or getattr(func, "__name__", "task")
        self.pure = pure

    def __call__(self, *args: Any, **kwargs: Any) -> Delayed:
        graph = TaskGraph()
        call_args: List[Any] = []
        for value in args:
            call_args.append(_absorb(value, graph))
        call_kwargs: Dict[str, Any] = {name: _absorb(value, graph)
                                       for name, value in kwargs.items()}
        key = next_key(self.prefix)
        task = Task(key, self.func, tuple(call_args), call_kwargs)
        if not self.pure:
            # Impure tasks must never be merged by CSE; make the token unique.
            task.token = f"{task.token}:{key}"
            task.token_customized = True
        graph.add(task)
        return Delayed(key, graph)


def _absorb(value: Any, graph: TaskGraph) -> Any:
    """Merge nested Delayed arguments into *graph*, replacing them with refs."""
    if isinstance(value, Delayed):
        graph.update(value.graph)
        return TaskRef(value.key)
    if isinstance(value, (list, tuple)):
        absorbed = [_absorb(item, graph) for item in value]
        return type(value)(absorbed) if isinstance(value, tuple) else absorbed
    if isinstance(value, dict):
        return {name: _absorb(item, graph) for name, item in value.items()}
    return value


def delayed(func: Callable[..., Any], prefix: Optional[str] = None,
            pure: bool = True) -> DelayedCallable:
    """Wrap *func* so calls build graph nodes instead of executing.

    ``pure=False`` marks the call as non-deterministic so the CSE pass never
    merges two occurrences.
    """
    return DelayedCallable(func, prefix=prefix, pure=pure)


def merge_graphs(values: Sequence[Delayed]) -> Tuple[TaskGraph, List[str]]:
    """Union the graphs of many Delayed values into a single graph."""
    merged = TaskGraph()
    keys = []
    for value in values:
        merged.update(value.graph)
        keys.append(value.key)
    return merged, keys


def compute(*values: Any, scheduler: Optional[Scheduler] = None,
            enable_cse: bool = True, return_stats: bool = False) -> Any:
    """Evaluate many Delayed values against one merged, optimized graph.

    Non-Delayed arguments pass through unchanged, so callers can mix eager
    and lazy values.  When ``return_stats`` is True the optimizer statistics
    are returned as a second value — the ablation benchmarks use this to
    report how many tasks were shared.
    """
    scheduler = scheduler or ThreadedScheduler()
    lazy_positions = [index for index, value in enumerate(values)
                      if isinstance(value, Delayed)]
    lazy_values = [values[index] for index in lazy_positions]

    results: List[Any] = list(values)
    stats = OptimizeStats(input_tasks=0, output_tasks=0)
    if lazy_values:
        graph, keys = merge_graphs(lazy_values)
        optimized, output_map, stats = optimize(graph, keys, enable_cse=enable_cse)
        canonical_keys = [output_map[key] for key in keys]
        computed = scheduler.execute(optimized, canonical_keys)
        for position, key in zip(lazy_positions, canonical_keys):
            results[position] = computed[key]

    if return_stats:
        return results, stats
    return results
