"""Schedulers that execute a TaskGraph and return requested outputs.

The execution layer is split in two:

* a :class:`Scheduler` decides *what* runs and in which order — cache
  planning, readiness tracking, result release, run statistics and the one
  driver loop live in the :class:`Scheduler` base and
  :class:`_ExecutionState`, so every backend accounts for work identically;
* an :class:`~repro.graph.executor.Executor` decides *where* payloads run —
  on a thread pool, a process pool or socket workers; a scheduler without
  one runs every unit on the coordinator.

Every unit of work, wherever it runs, is one
:func:`~repro.graph.executor.run_task_bundle` call whose outcome
:meth:`Scheduler._absorb_unit` folds in.  Four schedulers are registered:
:class:`SynchronousScheduler` (single-threaded), :class:`ThreadedScheduler`
(the default; GIL-sharing workers suit numpy-dominated tasks),
:class:`ProcessScheduler` (true multi-core parallelism for pure-Python
chunk work such as streaming CSV parsing — see the hybrid-dispatch notes
on the class) and ``"remote"``
(:class:`~repro.graph.remote.RemoteScheduler`, the process backend on
socket workers, imported on first use).

Every scheduler can carry a :class:`~repro.graph.cache.TaskCache`.  When one
is attached, execution starts with a cache-planning pass: cacheable tasks
are looked up under their own key (the hash of what they compute), those
already cached are served without running, and their exclusive ancestors
are skipped entirely.  Freshly computed results are stored back so the next
call (possibly a different EDA function on the same frame) can reuse them.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import SchedulerError
from repro.graph.cache import TaskCache
from repro.graph.executor import (
    BundleOutcome,
    Executor,
    ProcessExecutor,
    ThreadExecutor,
    run_task_bundle,
)
from repro.graph.graph import TaskGraph
from repro.utils import default_worker_count


@dataclass
class RunStats:
    """What one ``execute`` call did, including its work avoidance.

    The single declaration of every run counter, and the execution report
    itself: each element of ``meta["execution_reports"]`` /
    ``Report.execution_reports`` is one batch's ``Scheduler.last_run``, and
    the per-call totals behind ``meta[...]`` / ``Report.*_stats`` are one
    more instance that every report is added to with ``+=``.  Each
    avoidance mechanism has its own counter: ``shared_tasks`` of the
    ``tasks_before_optimization`` tasks built were equal to another one and
    merged away by graph union, while ``cache_hits`` /
    ``tasks_skipped_by_cache`` report the cross-call intermediate cache.

    The scheduler counts tasks; what a task *is* it reads from the facts
    declared when the task was built (``Task.counts``): executing a task
    adds them, and ``chunks_reused`` is the ``chunks_new`` declared by the
    tasks a run did not need.
    """

    planned: int = 0       # tasks in the (merged) graph
    shared_tasks: int = 0  # built tasks the union merged into an equal one
    executed: int = 0      # tasks actually run
    cache_hits: int = 0    # tasks served straight from the cache
    skipped: int = 0       # ancestors never visited because a hit covered them
    released: int = 0      # intermediate results freed once fully consumed
    shipped: int = 0       # tasks dispatched to worker processes (process/remote)
    # Declared by every partition task (SourcePartition.task_spec):
    projected_parses: int = 0  # executed partition tasks carrying a projection
    full_parses: int = 0       # executed partition tasks parsing every column
    # Planning-side facts the compute layer adds to the report after the
    # run (work that was avoided is no task's to declare), each counted once
    # per newly built partition set: columns avoided across the projected
    # partition tasks (table width - projected width, per task), chunks the
    # zone maps let the planner drop before any bytes were read, and rows the
    # pushed-down filters removed inside the executed parse tasks.  A stage
    # that reuses an earlier stage's partition set builds none, so it can
    # report ``projected_parses > 0`` with ``columns_pruned == 0``.
    columns_pruned: int = 0
    chunks_skipped: int = 0
    rows_filtered: int = 0
    # Parsed-chunk disk sidecar counters, added by the compute layer like
    # the planning facts above: chunks served from the binary sidecar
    # instead of decoding CSV, chunks that had to decode, and the CSV bytes
    # the hits avoided.  Coordinator-process counts only — process-pool and
    # remote workers keep their own (see repro.frame.sidecar).
    sidecar_hits: int = 0
    sidecar_misses: int = 0
    bytes_decoded_avoided: int = 0
    # Incremental-refresh accounting over the partition tasks, which
    # declare chunks_new and their byte span: chunks whose stable (per-chunk
    # content stamp) cache key answered without running, chunks that did
    # execute, and the file bytes those executions read.  After an
    # append+refresh, chunks_reused ≈ the old chunks and chunks_new ≈ the
    # appended ones — the observable form of "re-parse only the delta".
    chunks_reused: int = 0
    chunks_new: int = 0
    bytes_reparsed: int = 0
    # Remote-backend wire accounting (RemoteScheduler only; zero elsewhere):
    # bytes of task frames shipped to socket workers, bytes of result frames
    # received back, bundles re-dispatched after a worker was lost, and the
    # fraction of the run each worker spent computing ({worker id: 0..1}).
    shipped_bytes: int = 0
    bytes_received: int = 0
    redispatched: int = 0
    worker_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def tasks_before_optimization(self) -> int:
        """Every task that was built, shared ones included."""
        return self.planned + self.shared_tasks

    @property
    def tasks_executed(self) -> int:
        """Tasks that actually ran (``executed``)."""
        return self.executed

    @property
    def tasks_skipped_by_cache(self) -> int:
        """Ancestors a cache hit made unnecessary (``skipped``)."""
        return self.skipped

    def __iadd__(self, other: "RunStats") -> "RunStats":
        """Fold another run's counters into this record.

        Integers add; ``worker_utilization`` keeps each worker's busiest
        run (fractions of different runs do not add).
        """
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(theirs, dict):
                for worker_id, busy in theirs.items():
                    mine[worker_id] = max(mine.get(worker_id, 0.0), busy)
            else:
                setattr(self, spec.name, mine + theirs)
        return self


@dataclass
class CachePlan:
    """Result of the cache-planning pass: what to run, what is prefilled."""

    results: Dict[str, Any] = field(default_factory=dict)
    needed: Set[str] = field(default_factory=set)


class _ExecutionState:
    """Bookkeeping of one ``execute`` call, shared by every scheduler.

    Owns the cache plan, the result dict, the readiness counters and the
    consumer refcounts; :meth:`complete` is the single place a finished
    task's result is recorded, cached, released and propagated to its
    dependents — so the backends cannot drift apart on any of it.  Only the
    coordinator thread mutates it; a unit on a pool thread reads just its
    root's dependencies, which stay until every consumer has finished.
    """

    def __init__(self, scheduler: "Scheduler", graph: TaskGraph,
                 outputs: Sequence[str]):
        self.graph = graph
        self.scheduler = scheduler
        self.outputs = list(outputs)
        self.output_set = set(outputs)
        self.order = graph.toposort()          # validates the graph too
        self.position = {key: index for index, key in enumerate(self.order)}
        self.plan = scheduler.plan_with_cache(graph, outputs)
        if self.plan is None:
            self.needed: Set[str] = set(graph.keys())
            self.results: Dict[str, Any] = {}
        else:
            self.needed = self.plan.needed
            self.results = dict(self.plan.results)
        self.counts = scheduler.consumer_counts(graph, self.needed)
        self.dependents = graph.dependents()
        prefilled = set(self.results)
        self.remaining = {
            key: sum(dependency not in prefilled
                     for dependency in graph.dependencies(key))
            for key in self.needed}

    def initial_ready(self) -> List[str]:
        """Dependency-free tasks, as a stack popping in graph order.

        Seeded in reverse topological order so ``pop()`` serves sources in
        graph order.  ``needed`` is a set; seeding in its (hash) order would
        complete e.g. CSV partition parses at random positions, and every
        fan-in combine group would then wait on a straggler — accumulating
        nearly all chunk results at once.  In graph order, adjacent
        partitions finish together, each combine collapses as soon as its
        group is done, and the release pass keeps the live set small.

        Bundle members never appear here: a member always has exactly one
        dependency (its bundle root, which is needed, hence not prefilled),
        so its remaining count starts at 1.
        """
        ready = [key for key, count in self.remaining.items() if count == 0]
        return sorted(ready, key=self.position.get, reverse=True)

    def complete(self, key: str, value: Any, returned: bool = True) -> List[str]:
        """Record a finished task and return the keys it made ready.

        ``returned=False`` marks a task whose value deliberately never
        reached the coordinator (a bundle root consumed entirely inside its
        worker): dependents are still unblocked and refcounts still drop,
        but nothing is stored or cached.
        """
        task = self.graph[key]
        if returned:
            self.results[key] = value
            if self.plan is not None and task.cacheable:
                self.scheduler.cache.put(key, value)
        run = self.scheduler.last_run      # set by plan_with_cache
        # Every task that reaches complete() actually ran (cache hits are
        # prefilled, never completed), so it adds what it declared.
        for counter, amount in task.counts.items():
            setattr(run, counter, getattr(run, counter) + amount)
        newly_ready: List[str] = []
        for consumer in self.dependents.get(key, ()):
            if consumer not in self.remaining:
                continue
            self.remaining[consumer] -= 1
            if self.remaining[consumer] == 0:
                newly_ready.append(consumer)
        self.scheduler.release_consumed(key, self.graph, self.counts,
                                        self.results, self.output_set)
        return newly_ready

    def collect(self) -> Dict[str, Any]:
        """The requested outputs, or a :class:`SchedulerError` if one is missing."""
        missing = [key for key in self.outputs if key not in self.results]
        if missing:
            raise SchedulerError(missing[0], KeyError("output not produced"))
        return {key: self.results[key] for key in self.outputs}


class WorkUnit(NamedTuple):
    """One dispatchable unit: a task, optionally bundled with members.

    ``ship=True`` sends the unit to the scheduler's executor, when it has
    one; ``ship=False`` runs it on the coordinator thread.  ``members``
    (process backend only) are single-dependency consumers executed in the
    same worker against the root's value; ``return_root`` says whether the
    root's value must travel back to the coordinator at all.  A tuple, not
    a dataclass: every task of a run builds one, and a tuple builds fastest.
    """

    root: str
    members: Tuple[str, ...] = ()
    ship: bool = True
    return_root: bool = True


class Scheduler:
    """The one driver loop, shared by every backend.

    A backend says only *where* shipped units run (:meth:`_make_executor`;
    None runs every unit on the coordinator) and *how* tasks group into
    units (:meth:`_plan_units`).  ``max_workers`` sizes the executor's
    pool; a scheduler without one accepts and ignores it, so the compute
    context constructs every registered scheduler with one signature.
    """

    #: Registry name (the ``compute.scheduler`` value).
    name = "base"

    #: Statistics of the most recent ``execute`` call (None before the first).
    last_run: Optional[RunStats] = None

    #: Whether a shipped unit passes its root's ``affinity`` (the file it
    #: reads) to the executor; the process planner decides it per run.
    _affinity_active = False

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Optional[TaskCache] = None):
        self.max_workers = int(max_workers) if max_workers is not None \
            else default_worker_count()
        #: Optional cross-call intermediate cache consulted before execution.
        self.cache = cache
        self._executor: Optional[Executor] = None

    def get(self, graph: TaskGraph, outputs: Sequence[str]) -> List[Any]:
        """Execute and return output values in request order."""
        results = self.execute(graph, outputs)
        return [results[key] for key in outputs]

    # -- hooks ---------------------------------------------------------- #
    def _make_executor(self) -> Optional[Executor]:
        """Where shipped units run; None runs every unit on the coordinator."""
        return None

    def _plan_units(self, state: _ExecutionState) -> Dict[str, WorkUnit]:
        """Map every needed task to its unit (bundle members excluded)."""
        return {key: WorkUnit(key) for key in state.needed}

    def _inflight_cap(self) -> int:
        """How many shipped units may be in flight at once.

        The in-process pools keep this at ``max_workers`` (one unit per
        worker); the remote backend widens it so a worker always has the
        next bundle queued while its previous result is in transit.
        """
        return self.max_workers

    # -- lifecycle ------------------------------------------------------ #
    def executor(self) -> Optional[Executor]:
        """The lazily created executor backing this scheduler."""
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def close(self) -> None:
        """Release any worker pool held by this scheduler (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- the driver loop ------------------------------------------------ #
    def execute(self, graph: TaskGraph, outputs: Sequence[str]) -> Dict[str, Any]:
        """Execute *graph* and return ``{output key: value}``."""
        state = _ExecutionState(self, graph, outputs)
        units = self._plan_units(state)
        executor = self.executor()
        # Submit at most _inflight_cap() units at a time, popping the most
        # recently enabled first (depth-first).  Submitting the whole ready
        # list would run every source task (e.g. CSV chunk parse) before any
        # consumer, accumulating the entire input in memory; capping keeps
        # newly enabled sketch/combine tasks ahead of still-queued parses,
        # so chunks are consumed and released at the rate they are produced.
        ready = state.initial_ready()
        in_flight: Dict[Future, WorkUnit] = {}
        try:
            while ready or in_flight:
                # Re-read the cap every round: the remote backend widens it
                # as workers attach mid-run (attach-only pools start at 0).
                inflight_cap = self._inflight_cap()
                while ready and len(in_flight) < inflight_cap:
                    unit = units[ready.pop()]
                    root = graph[unit.root]
                    # A dependency-free root (every shipped bundle's) reads
                    # no results, so none are sent with it.
                    inputs = state.results if root.deps else None
                    args = (root, [graph[key] for key in unit.members],
                            unit.return_root, inputs)
                    if executor is None or not unit.ship:
                        outcome = run_task_bundle(*args)
                        ready.extend(self._absorb_unit(unit, outcome, state))
                        continue
                    affinity = root.affinity if self._affinity_active else None
                    try:
                        future = executor.submit(run_task_bundle, *args,
                                                 affinity=affinity)
                    except Exception as error:  # noqa: BLE001
                        # submit() itself can raise synchronously — e.g.
                        # BrokenProcessPool when a worker died between
                        # waits.  Discard the pool so the next execute
                        # starts fresh, and report the task like any other
                        # pool-level failure.
                        executor.discard()
                        raise SchedulerError(unit.root, error) from error
                    in_flight[future] = unit
                if not in_flight:
                    continue
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    unit = in_flight.pop(future)
                    error = future.exception()
                    if error is not None:
                        # Pool-level failure (a crashed worker, an
                        # unpicklable payload): name the unit's root task
                        # and let a broken pool be rebuilt next time.
                        executor.discard()
                        raise SchedulerError(unit.root, error) from error
                    ready.extend(self._absorb_unit(unit, future.result(), state))
        except BaseException:
            for pending in in_flight:
                pending.cancel()
            raise
        return state.collect()

    def _absorb_unit(self, unit: WorkUnit, outcome: BundleOutcome,
                     state: _ExecutionState) -> List[str]:
        """Fold a finished unit's outcome into the state; return newly ready.

        A failed task surfaces as a :class:`SchedulerError` naming it, with
        the raised exception (or, from a worker, its picklable stand-in) as
        ``cause``.
        """
        if outcome.error_key is not None:
            raise SchedulerError(outcome.error_key, outcome.error) \
                from outcome.error
        newly = state.complete(unit.root, outcome.root,
                               returned=unit.return_root)
        ready = [key for key in newly if key not in unit.members]
        for key in unit.members:
            ready.extend(state.complete(key, outcome.members[key]))
        return ready

    # ------------------------------------------------------------------ #
    # Cache planning (shared by all schedulers)
    # ------------------------------------------------------------------ #
    def plan_with_cache(self, graph: TaskGraph,
                        outputs: Sequence[str]) -> Optional[CachePlan]:
        """Consult the cache and decide which tasks still need to run.

        Walks the graph top-down from *outputs*: a cacheable task whose key
        hits is prefilled into the plan's results and its dependencies
        are not visited, so the whole subtree feeding only that task is
        skipped.  Returns None when no cache is attached (run everything);
        always records :attr:`last_run`, including how many built tasks
        the graph's union shared away.
        """
        total, shared = len(graph), graph.shared
        if self.cache is None:
            self.last_run = RunStats(planned=total, shared_tasks=shared,
                                     executed=total)
            return None
        plan = CachePlan()
        pending = list(outputs)
        seen: Set[str] = set()
        while pending:
            key = pending.pop()
            if key in seen:
                continue
            seen.add(key)
            if graph[key].cacheable:
                hit, value = self.cache.lookup(key)
                if hit:
                    plan.results[key] = value
                    continue
            plan.needed.add(key)
            pending.extend(graph.dependencies(key))
        # chunks_reused counts over the whole graph, not over visited hits:
        # a combine-level cache hit skips its parse subtree without the walk
        # ever visiting those partition tasks.
        self.last_run = RunStats(
            planned=total, shared_tasks=shared, executed=len(plan.needed),
            cache_hits=len(plan.results),
            skipped=total - len(plan.needed) - len(plan.results),
            chunks_reused=sum(task.counts.get("chunks_new", 0)
                              for task in graph.tasks()
                              if task.key not in plan.needed))
        return plan

    # ------------------------------------------------------------------ #
    # Result lifetime (shared by all schedulers)
    # ------------------------------------------------------------------ #
    @staticmethod
    def consumer_counts(graph: TaskGraph, needed: Set[str]) -> Dict[str, int]:
        """How many still-to-run tasks consume each result.

        Only tasks in *needed* count as consumers: cache-prefilled tasks
        never execute, so they never read their dependencies.
        """
        counts: Dict[str, int] = {}
        for key in needed:
            for dependency in graph.dependencies(key):
                counts[dependency] = counts.get(dependency, 0) + 1
        return counts

    def release_consumed(self, finished: str, graph: TaskGraph,
                         counts: Dict[str, int], results: Dict[str, Any],
                         outputs: Set[str]) -> None:
        """Drop dependency results of *finished* once nothing else needs them.

        This is what keeps an out-of-core scan's peak memory proportional to
        the chunk size: a parsed partition is freed as soon as the sketches
        consuming it have run, instead of living until the whole graph ends.
        Requested outputs are always kept.
        """
        for dependency in graph.dependencies(finished):
            remaining = counts.get(dependency)
            if remaining is None:
                continue
            counts[dependency] = remaining - 1
            if counts[dependency] <= 0 and dependency not in outputs:
                if results.pop(dependency, None) is not None:
                    self.last_run.released += 1


class SynchronousScheduler(Scheduler):
    """Single-threaded: every unit runs on the coordinator, depth-first.

    The reference backend — deterministic, no pool — for debugging and for
    oracles that must not depend on thread timing.
    """

    name = "synchronous"


class ThreadedScheduler(Scheduler):
    """Thread-pool scheduler that runs independent tasks concurrently.

    This is the default execution backend, mirroring Dask's threaded
    scheduler: EDA computations are numpy-dominated so threads parallelize
    well despite the GIL.
    """

    name = "threaded"

    def _make_executor(self) -> Executor:
        return ThreadExecutor(max_workers=self.max_workers)


class ProcessScheduler(Scheduler):
    """Process-pool scheduler: true multi-core parallelism for chunk work.

    Pure-Python chunk tasks — above all the streaming CSV parse + sketch
    path — are GIL-bound, so threads cannot scale them across cores.  This
    scheduler ships them to a ``ProcessPoolExecutor`` instead, with a
    **hybrid dispatch** (see :mod:`repro.graph.executor`):

    * a dependency-free task whose payload is picklable **by value**
      (``Task.shippable``: module-level function, plain-value arguments,
      bounded size) becomes a bundle root; every sketch task
      consuming only it joins the bundle and runs in the same worker, so a
      parsed chunk crosses the process boundary only when a
      coordinator-side task still needs it;
    * everything else — combine/finalize merges, tasks closing over
      in-memory frames, closures — runs inline on the coordinator thread,
      so tiny graphs never drown in IPC and in-memory inputs behave
      exactly like the synchronous scheduler.

    Failure semantics: a task raising in a worker propagates as a
    :class:`SchedulerError` naming that task; a crashed worker process
    (``BrokenProcessPool``) propagates as a :class:`SchedulerError` naming
    the bundle's root and discards the pool so the next run starts fresh —
    execution never hangs on a dead worker.
    """

    name = "process"

    def _make_executor(self) -> Executor:
        return ProcessExecutor(max_workers=self.max_workers)

    def _plan_units(self, state: _ExecutionState) -> Dict[str, WorkUnit]:
        graph = state.graph
        # Tasks declare the file they read as their affinity: pinning every
        # bundle of a file to one worker keeps that worker's OS page cache
        # and parsed-chunk sidecar warm for exactly its file subset (only
        # the remote executor pins).  That only pays when there are files to
        # shard: a single-file scan (or an in-memory source) must spread its
        # bundles across the whole pool, not serialize on one worker.
        self._affinity_active = len({task.affinity for task in graph.tasks()
                                     if task.affinity is not None}) > 1
        units: Dict[str, WorkUnit] = {}
        bundled: Set[str] = set()
        for key in state.order:                    # roots precede consumers
            if key not in state.needed or key in bundled:
                continue
            task = graph[key]
            if task.deps or not task.shippable:
                units[key] = WorkUnit(key, ship=False)
                continue
            members: List[str] = []
            needed_consumers = sorted(
                (consumer for consumer in state.dependents.get(key, ())
                 if consumer in state.needed),
                key=state.position.get)
            for consumer in needed_consumers:
                consumer_task = graph[consumer]
                if consumer_task.deps == (key,) and consumer_task.shippable:
                    members.append(consumer)
                    bundled.add(consumer)
            member_set = set(members)
            return_root = key in state.output_set or not needed_consumers or \
                any(consumer not in member_set for consumer in needed_consumers)
            units[key] = WorkUnit(key, tuple(members), ship=True,
                                  return_root=return_root)
            self.last_run.shipped += 1 + len(members)
        return units


_SCHEDULERS = {
    SynchronousScheduler.name: SynchronousScheduler,
    ThreadedScheduler.name: ThreadedScheduler,
    ProcessScheduler.name: ProcessScheduler,
}

#: Backends resolved by deferred import: remote.py imports this module for
#: ProcessScheduler, so registering its class eagerly would be a cycle.
_LAZY_SCHEDULERS = ("remote",)


def available_schedulers() -> List[str]:
    """Names of the registered schedulers (the ``compute.scheduler`` choices)."""
    return sorted(tuple(_SCHEDULERS) + _LAZY_SCHEDULERS)


def get_scheduler(name: str = "threaded", **kwargs: Any) -> Scheduler:
    """Instantiate a scheduler by name.

    ``"synchronous"``, ``"threaded"``, ``"process"`` or ``"remote"`` — the
    same choices the ``compute.scheduler`` config key accepts.
    """
    if name == "remote" and name not in _SCHEDULERS:
        from repro.graph.remote import RemoteScheduler
        _SCHEDULERS[RemoteScheduler.name] = RemoteScheduler
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        raise SchedulerError(name, KeyError(f"unknown scheduler {name!r}")) from None
    return factory(**kwargs)
