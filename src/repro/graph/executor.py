"""Pluggable executors: where scheduler work units actually run.

The schedulers in :mod:`repro.graph.scheduler` decide *what* to run and in
which order; an :class:`Executor` decides *where* — inline on the
coordinator, on a thread pool, or on a process pool.  Separating the two
lets one driver loop serve every parallel scheduler, and keeps everything
process-specific (task bundling, worker crash translation) in this module.

The process backend and the picklability contract
-------------------------------------------------
A task may run in a worker process only when its payload is **picklable by
value** — ``Task.shippable``, derived by the one walk that names the task
(:func:`repro.graph.task.tokenize`): the function must be importable
module-level (no lambdas or closures) and every argument a plain value —
numbers, strings, tuples, dtype enums, small arrays, ``TaskRef``
placeholders.  That is why streaming CSV partitions
(``_read_csv_slice(path, byte_range, …)``) ship to workers while in-memory
partition slices (which hold the resident ``DataFrame``) do not.

To keep IPC from swamping the win, shippable work is dispatched as
**bundles**: one value-described source task (a CSV chunk parse) plus every
sketch task that consumes only it.  The worker parses the chunk once, runs
all its sketches, and sends back only the small sketch results — the parsed
chunk itself crosses the process boundary only when a coordinator-side task
still needs it.  Combine and finalize tasks stay on the coordinator: they
are tiny merges, and shipping them would pay a round trip per tree level.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.graph.task import Task
from repro.utils import default_worker_count


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class Executor:
    """Where submitted callables run.  Subclasses wrap a worker pool."""

    name = "base"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = int(max_workers) if max_workers is not None \
            else default_worker_count()

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` on the backing pool and return its future."""
        raise NotImplementedError

    def discard(self) -> None:
        """Drop the backing pool (after a crash); the next submit rebuilds it."""

    def close(self) -> None:
        """Shut the backing pool down."""

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class ThreadExecutor(Executor):
    """A bounded thread pool (the default backend; GIL-sharing workers)."""

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class ProcessExecutor(Executor):
    """A bounded process pool with lazy startup and broken-pool recovery.

    Worker pools are **process-wide**, shared by every ProcessExecutor with
    the same worker count: forking workers costs tens of milliseconds, and
    each EDA call builds a fresh engine (hence a fresh scheduler), so
    per-scheduler pools would respawn workers on every interactive call.
    The pool is created on the first submit, reused across calls, and torn
    down by ``concurrent.futures``' atexit hook; :meth:`close` therefore
    deliberately does *not* stop workers another engine may be using.
    After a worker crash the pool is discarded; the next submit starts a
    fresh one, so one poisoned task cannot wedge the rest of the process.
    """

    name = "process"

    _shared_pools: Dict[int, ProcessPoolExecutor] = {}
    _shared_lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        cls = type(self)
        with cls._shared_lock:
            pool = cls._shared_pools.get(self.max_workers)
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=self.max_workers)
                cls._shared_pools[self.max_workers] = pool
        return pool.submit(fn, *args)

    def discard(self) -> None:
        cls = type(self)
        with cls._shared_lock:
            pool = cls._shared_pools.pop(self.max_workers, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """No-op: the pool is shared process-wide (see the class docstring)."""


# --------------------------------------------------------------------------- #
# Worker-side bundle execution (must be module-level and picklable)
# --------------------------------------------------------------------------- #
@dataclass
class BundleOutcome:
    """What one shipped bundle produced (crosses the process boundary).

    Task failures are reported *in* the outcome rather than raised, so the
    failing task's key survives the trip and arbitrary (possibly
    unpicklable) exceptions cannot poison the future machinery.
    """

    root: Any = None
    members: Dict[str, Any] = field(default_factory=dict)
    error_key: Optional[str] = None
    error: Optional[BaseException] = None


def _portable_error(error: BaseException) -> BaseException:
    """Return *error* if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def run_task_bundle(root_task: Task, member_tasks: Sequence[Task],
                    return_root: bool) -> BundleOutcome:
    """Execute one bundle in a worker process.

    Runs the dependency-free *root_task* (a chunk parse / slice), then each
    member with the root's value substituted for its ``TaskRef``.  The root
    value is echoed back only when ``return_root`` is set — when every
    consumer is in the bundle, the (large) chunk never crosses the process
    boundary.
    """
    results: Dict[str, Any] = {}
    try:
        results[root_task.key] = root_task.execute({})
    except BaseException as error:  # noqa: BLE001 - reported with the task key
        return BundleOutcome(error_key=root_task.key,
                             error=_portable_error(error))
    members: Dict[str, Any] = {}
    for task in member_tasks:
        try:
            members[task.key] = task.execute(results)
        except BaseException as error:  # noqa: BLE001
            return BundleOutcome(error_key=task.key,
                                 error=_portable_error(error))
    return BundleOutcome(root=results[root_task.key] if return_root else None,
                         members=members)


__all__ = [
    "BundleOutcome",
    "Executor",
    "ProcessExecutor",
    "ThreadExecutor",
    "run_task_bundle",
]
