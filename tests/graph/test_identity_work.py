"""Work guards for task identity, in counts rather than seconds.

A task has one identity — its key — so building and running a graph should
touch each task's arguments once: one tokenization and one ``Task`` per
``delayed(...)(...)`` call between construction and the result, and one
topological sort per ``execute``.  (With a counter key, an ``id()`` CSE token
and a separate cache hash this was 3.1 hashes and allocations per task and
3 sorts per execute.)

The same holds for a task's other properties — shippability, run counters,
worker affinity: the tokenization derives or records them, so nothing walks a
task's arguments a second time and nothing reads a key's text.  (With a
key-prefix parser and argument sniffers this was 3 key parses per planned
task and a second walk per shipping decision.)
"""

from __future__ import annotations

import collections
import operator
import os
import re
import sys

import numpy as np

from repro import create_report, scan_csv
from repro.eda import plot
from repro.frame import DataFrame
from repro.frame.io import write_csv
from repro.graph import SynchronousScheduler, TaskCache, compute, delayed

_WATCHED = {
    ("task.py", "tokenize"): "tokenize",
    ("task.py", "__post_init__"): "Task",
    ("graph.py", "toposort"): "toposort",
    ("delayed.py", "__call__"): "built",
    ("scheduler.py", "execute"): "execute",
}

#: Anything else that walks a task's arguments or guesses from its key (the
#: names the graph layer had for that), wherever it is defined.
_SECOND_LOOKS = {"_payload_bytes", "can_run_in_worker", "classify_parse_key",
                 "is_filtered_parse_key", "parse_task_byte_span",
                 "_bundle_affinity", "_collect_refs"}

_TASK_KEY = re.compile(r"[\w.]+-[0-9a-f]{32}")
_SRC = os.sep + "repro" + os.sep


def _graph_calls(work) -> collections.Counter:
    """Calls *work* makes to the watched graph-layer functions."""
    counts: collections.Counter = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = _WATCHED.get((os.path.basename(code.co_filename), code.co_name))
            if name is not None:
                counts[name] += 1
            elif code.co_name in _SECOND_LOOKS:
                counts["second_looks"] += 1
        elif event == "c_call" and _SRC in frame.f_code.co_filename:
            # A str method (rpartition, startswith, ...) called on a task key
            # by library code: somebody is reading the key's text.
            text = getattr(arg, "__self__", None)
            if isinstance(text, str) and _TASK_KEY.fullmatch(text):
                counts["key_reads"] += 1

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


def test_a_process_report_looks_at_each_task_once_and_never_at_its_key(tmp_path):
    # Fails at the parent commit: 3 key parses per planned task and one more
    # argument walk per shipping decision.
    rng = np.random.default_rng(1)
    path = str(tmp_path / "scan.csv")
    write_csv(DataFrame({"a": rng.normal(size=600), "b": rng.normal(size=600),
                         "c": rng.integers(0, 4, 600).astype(str)}), path)
    reports = []

    def work():
        report = create_report(
            scan_csv(path, chunk_rows=150),
            config={"compute.scheduler": "process", "compute.max_workers": 2})
        reports.extend(report.execution_reports)

    counts = _graph_calls(work)
    assert sum(report.shipped for report in reports) > 0
    assert sum(report.full_parses + report.projected_parses
               for report in reports) >= 4
    _assert_one_identity(counts, built=counts["built"], executes=len(reports))
    assert counts["built"] > 50
    assert counts["second_looks"] == 0
    assert counts["key_reads"] == 0
