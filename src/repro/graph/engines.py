"""Execution engines compared in Figure 6(a) of the paper.

The paper justifies choosing Dask over Modin, Koalas and PySpark by comparing
how long each takes to compute the intermediates of ``plot(df)``.  The
strategies differ in *how* they execute the same logical work:

* :class:`LazyEngine` — DataPrep.EDA's strategy: merge everything into one
  graph (equal tasks share a key, so the merge runs each once), execute
  with the threaded scheduler.
* :class:`EagerEngine` — Modin's strategy: each requested value is computed
  immediately with its own graph, so common sub-computations are repeated and
  nothing is co-scheduled.

Koalas/PySpark on a single node — lazy overall, but every task dispatch pays
an RPC/scheduling latency that dominates on small data — is the lazy engine
over ``SynchronousScheduler(dispatch_latency=...)``; the Figure 6(a)
benchmark composes it from those two parts.

Absolute times differ from the paper (the substrates are pure Python), but
the ordering and the gap structure of Figure 6(a) are reproduced because they
follow from the strategies, not from the specific frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import GraphError
from repro.graph.cache import TaskCache
from repro.graph.delayed import Delayed, merge_graphs
from repro.graph.scheduler import RunStats, get_scheduler


@dataclass
class ExecutionReport(RunStats):
    """What an engine did for one batch of requested values.

    Every :class:`~repro.graph.scheduler.RunStats` counter of the batch's
    scheduler run(s) — merged with ``+=`` when the engine ran more than one
    — plus what only the engine knows.  Each avoidance mechanism has its
    own counter: ``shared_tasks`` of the ``tasks_before_optimization``
    tasks built were equal to another one and merged away, while
    ``cache_hits`` / ``tasks_skipped_by_cache`` report the cross-call
    intermediate cache (tasks served from cache, and their exclusive
    ancestors that never ran because of it).  The compute context adds the
    planning-side and sidecar counters of the batch; the per-call totals in
    ``meta["projection" | "predicate" | "sidecar" | "incremental"]`` /
    ``Report.*_stats`` are the field-wise sum over the call's reports.
    """

    engine: str = ""
    requested: int = 0
    graphs_built: int = 0
    tasks_before_optimization: int = 0
    shared_tasks: int = 0

    @property
    def tasks_executed(self) -> int:
        """Tasks that actually ran (``executed``)."""
        return self.executed

    @property
    def tasks_skipped_by_cache(self) -> int:
        """Ancestors a cache hit made unnecessary (``skipped``)."""
        return self.skipped

    @property
    def sharing_ratio(self) -> float:
        """Fraction of tasks eliminated by sharing (0 when nothing shared)."""
        if self.tasks_before_optimization == 0:
            return 0.0
        return self.shared_tasks / self.tasks_before_optimization


class Engine:
    """Base class: an engine turns a batch of Delayed values into results."""

    name = "base"

    def compute(self, values: Sequence[Delayed]) -> List[Any]:
        """Compute all values and return them in order."""
        return self.compute_with_report(values)[0]

    def compute_with_report(self, values: Sequence[Delayed]
                            ) -> tuple[List[Any], ExecutionReport]:
        """Compute all values and also report how much work was done."""
        raise NotImplementedError

    def _run(self, values: Sequence[Delayed], report: ExecutionReport
             ) -> List[Any]:
        """One merged graph's run, its counters folded into *report*.

        Requires ``self.scheduler``; every engine goes through here, so all
        of them account for the run — cross-call cache included —
        identically.
        """
        # An empty batch never reaches the scheduler: it reports zeros, not
        # the previous batch's run.
        self.scheduler.last_run = RunStats()
        graph, keys = merge_graphs(values)
        results = self.scheduler.get(graph, keys) if keys else []
        report += self.scheduler.last_run
        report.graphs_built += 1
        # Every task that was built, so the report measures sharing
        # instead of defining it away.
        shared = graph.shared
        report.tasks_before_optimization += len(graph) + shared
        report.shared_tasks += shared
        return results


class LazyEngine(Engine):
    """Single shared graph + parallel execution (Dask-like).

    *scheduler* selects the execution backend by registry name —
    ``"threaded"`` (default), ``"process"``, ``"synchronous"`` or
    ``"remote"`` — which is how the ``compute.scheduler`` config key reaches
    the graph layer.
    """

    name = "lazy"

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[TaskCache] = None,
                 scheduler: str = "threaded",
                 scheduler_options: Optional[Dict[str, Any]] = None):
        self.scheduler = get_scheduler(scheduler, max_workers=max_workers,
                                       cache=cache, **(scheduler_options or {}))

    def compute_with_report(self, values: Sequence[Delayed]
                            ) -> tuple[List[Any], ExecutionReport]:
        report = ExecutionReport(engine=self.name, requested=len(values))
        return self._run(values, report), report


class EagerEngine(Engine):
    """One graph per requested value, no cross-value sharing (Modin-like)."""

    name = "eager"

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[TaskCache] = None,
                 scheduler: str = "threaded",
                 scheduler_options: Optional[Dict[str, Any]] = None):
        # Modin parallelizes inside one operation but cannot co-schedule
        # separate operations; a parallel scheduler per value models that.
        self.scheduler = get_scheduler(scheduler, max_workers=max_workers,
                                       cache=cache, **(scheduler_options or {}))

    def compute_with_report(self, values: Sequence[Delayed]
                            ) -> tuple[List[Any], ExecutionReport]:
        report = ExecutionReport(engine=self.name, requested=len(values))
        results = [self._run([value], report)[0] for value in values]
        return results, report


_ENGINES = {
    LazyEngine.name: LazyEngine,
    EagerEngine.name: EagerEngine,
}


def available_engines() -> List[str]:
    """Names of the registered engines (Figure 6a's x-axis)."""
    return sorted(_ENGINES)


def get_engine(name: str, **kwargs: Any) -> Engine:
    """Instantiate an engine by name."""
    try:
        factory = _ENGINES[name]
    except KeyError:
        raise GraphError(
            f"unknown engine {name!r}; available: {available_engines()}") from None
    return factory(**kwargs)
