"""Lazy task-graph execution engine (Dask-style substrate).

The paper's Compute module builds a *single* lazy computational graph per EDA
task so that redundant computations shared by multiple visualizations are
evaluated once, then executes that graph with a parallel scheduler.
The real system uses Dask; the execution environment for this reproduction
does not ship Dask, so this package implements the required subset:

* :class:`~repro.graph.task.Task` / :class:`~repro.graph.graph.TaskGraph` —
  the graph representation.  A task's key is the hash of what it computes
  (:func:`~repro.graph.task.tokenize`), so merging graphs *is* the "share
  computations" optimization and the key addresses the cross-call cache.
* :func:`~repro.graph.delayed.delayed` and
  :class:`~repro.graph.delayed.Delayed` — lazy call wrappers used to build
  graphs declaratively.
* :mod:`~repro.graph.scheduler` — the pluggable execution layer: a shared
  scheduling core (cache planning, readiness, result release) with
  synchronous, threaded and true-multiprocess backends, selected by the
  ``compute.scheduler`` config key.
* :mod:`~repro.graph.executor` — where payloads run (thread pool, process
  pool), including the picklability contract and chunk-bundle shipping of
  the process backend.
* :class:`~repro.graph.partition.PartitionedFrame` — a row-chunked DataFrame
  with lazy per-partition map and tree reductions, plus the chunk-size
  precompute stage described in Section 5.2 of the paper.
* :mod:`~repro.graph.engines` — execution strategies compared in Figure 6(a):
  lazy-shared (DataPrep.EDA / Dask) and eager per-operation (Modin-like);
  the RPC-overhead series (Koalas / PySpark-like) is the lazy engine over a
  synchronous scheduler with a per-task dispatch latency.
* :mod:`~repro.graph.remote` / :mod:`~repro.graph.wire` — the real
  distributed backend behind Figure 6(c): a coordinator dispatching bundles
  to socket workers (spawned locally or attached from other hosts) over a
  checksummed, length-prefixed TCP protocol with heartbeat-based failure
  detection and bundle re-dispatch.
* :mod:`~repro.graph.cluster` — the analytical multi-worker cluster + HDFS
  cost model, calibrated from measured RemoteScheduler runs.
* :mod:`~repro.graph.cache` — the cross-call intermediate cache: a bounded
  LRU store, addressed by task keys, that the schedulers consult before
  executing, so interactive sessions that iterate over the same frame skip
  work already done by earlier calls.
"""

from repro.graph.cache import (
    CacheStats,
    TaskCache,
    clear_global_cache,
    get_global_cache,
    set_global_cache,
)
from repro.graph.task import Task, TaskRef, tokenize
from repro.graph.graph import TaskGraph
from repro.graph.delayed import Delayed, compute, delayed
from repro.graph.executor import Executor, ProcessExecutor, ThreadExecutor
from repro.graph.scheduler import (
    ProcessScheduler,
    Scheduler,
    SynchronousScheduler,
    ThreadedScheduler,
    available_schedulers,
    get_scheduler,
)
from repro.frame.source import precompute_chunk_sizes
from repro.graph.partition import PartitionedFrame
from repro.graph.engines import (
    EagerEngine,
    Engine,
    LazyEngine,
    available_engines,
    get_engine,
)
from repro.graph.cluster import ClusterCostModel

#: Remote-backend names resolved on first attribute access (PEP 562): an
#: eager import here would make `python -m repro.graph.remote` — the worker
#: entry point — execute the module twice (once via this package import,
#: once as __main__).
_REMOTE_EXPORTS = ("RemoteExecutor", "RemoteScheduler", "shutdown_remote_pools")


def __getattr__(name):
    if name in _REMOTE_EXPORTS:
        from repro.graph import remote
        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CacheStats",
    "ClusterCostModel",
    "Delayed",
    "EagerEngine",
    "Engine",
    "Executor",
    "LazyEngine",
    "PartitionedFrame",
    "ProcessExecutor",
    "ProcessScheduler",
    "RemoteExecutor",
    "RemoteScheduler",
    "Scheduler",
    "SynchronousScheduler",
    "ThreadExecutor",
    "Task",
    "TaskCache",
    "TaskGraph",
    "TaskRef",
    "ThreadedScheduler",
    "available_engines",
    "available_schedulers",
    "clear_global_cache",
    "compute",
    "delayed",
    "get_engine",
    "get_global_cache",
    "get_scheduler",
    "precompute_chunk_sizes",
    "set_global_cache",
    "shutdown_remote_pools",
    "tokenize",
]
