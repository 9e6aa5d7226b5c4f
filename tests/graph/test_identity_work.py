"""Work guards for task identity, in counts rather than seconds.

A task has one identity — its key — so building and running a graph should
touch each task's arguments once: one tokenization and one ``Task`` per
``delayed(...)(...)`` call between construction and the result, and one
topological sort per ``execute``.  (With a counter key, an ``id()`` CSE token
and a separate cache hash this was 3.1 hashes and allocations per task and
3 sorts per execute.)
"""

from __future__ import annotations

import collections
import operator
import os
import sys

import numpy as np

from repro.eda import plot
from repro.frame import DataFrame
from repro.graph import SynchronousScheduler, TaskCache, compute, delayed

_WATCHED = {
    ("task.py", "tokenize"): "tokenize",
    ("task.py", "__post_init__"): "Task",
    ("graph.py", "toposort"): "toposort",
    ("delayed.py", "__call__"): "built",
    ("scheduler.py", "execute"): "execute",
}


def _graph_calls(work) -> collections.Counter:
    """Calls *work* makes to the watched graph-layer functions."""
    counts: collections.Counter = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = _WATCHED.get((os.path.basename(code.co_filename), code.co_name))
            if name is not None:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


def _assert_one_identity(counts: collections.Counter, built: int, executes: int):
    assert counts["built"] == built
    assert counts["tokenize"] == built
    assert counts["Task"] == built
    assert counts["execute"] == executes
    assert counts["toposort"] == executes


def test_one_tokenization_and_one_task_per_call_built():
    cache = TaskCache()

    def work():
        for _ in range(2):          # cold, then served from the cache
            leaves = [delayed(operator.mul)(index % 3, 2) for index in range(9)]
            total = delayed(sum)(leaves)
            assert compute(total, total.then(operator.add, 1),
                           scheduler=SynchronousScheduler(cache=cache)) == [18, 19]

    _assert_one_identity(_graph_calls(work), built=2 * 11, executes=2)


def test_an_eda_call_pays_once_per_task_whatever_the_cache_state():
    rng = np.random.default_rng(0)
    frame = DataFrame({"a": rng.normal(size=400), "b": rng.normal(size=400),
                       "c": rng.integers(0, 4, 400).astype(str)})
    config = {"compute.use_graph": "always", "compute.partition_rows": 100,
              "compute.scheduler": "synchronous"}
    reports = []

    def work():
        reports.extend(plot(frame, config=config, mode="intermediates")
                       .meta["execution_reports"])

    cold = _graph_calls(work)
    # A stage re-requests the partition tasks an earlier stage built, so
    # the reports count some tasks twice; the calls count each once.
    assert 20 < cold["built"] <= sum(report.tasks_before_optimization
                                     for report in reports)
    _assert_one_identity(cold, built=cold["built"], executes=len(reports))
    del reports[:]
    warm = _graph_calls(work)
    assert sum(report.cache_hits for report in reports) > 0
    _assert_one_identity(warm, built=cold["built"], executes=len(reports))
