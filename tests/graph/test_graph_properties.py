"""Property-based tests of the graph layer (hypothesis)."""

import json
import operator
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import DataFrame
from repro.graph import PartitionedFrame, compute, delayed, precompute_chunk_sizes
from repro.graph.delayed import merge_graphs
from repro.graph.scheduler import SynchronousScheduler, ThreadedScheduler


@given(n_rows=st.integers(min_value=0, max_value=5000),
       partition_rows=st.integers(min_value=1, max_value=700))
@settings(max_examples=80, deadline=None)
def test_chunk_boundaries_partition_the_row_range(n_rows, partition_rows):
    boundaries = precompute_chunk_sizes(n_rows, partition_rows=partition_rows)
    assert boundaries[0][0] == 0
    assert boundaries[-1][1] == n_rows or (n_rows == 0 and boundaries == [(0, 0)])
    for (start_a, stop_a), (start_b, _) in zip(boundaries, boundaries[1:]):
        assert stop_a == start_b
        assert stop_a - start_a <= partition_rows


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=500),
       partition_rows=st.integers(min_value=1, max_value=100))
@settings(max_examples=40, deadline=None)
def test_partitioned_sum_equals_direct_sum(values, partition_rows):
    frame = DataFrame({"x": values})
    partitioned = PartitionedFrame.from_frame(frame, partition_rows=partition_rows)
    total = partitioned.reduction(
        chunk=lambda part: part.column("x").sum(),
        combine=lambda parts: float(sum(parts))).compute()
    assert np.isclose(total, float(np.sum(values)), rtol=1e-9, atol=1e-6)


@given(numbers=st.lists(st.integers(min_value=-1000, max_value=1000),
                        min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_schedulers_agree_on_random_fan_in_graphs(numbers):
    lazy_values = [delayed(operator.mul)(number, 2) for number in numbers]
    total = delayed(sum)(lazy_values)
    synchronous = compute(total, scheduler=SynchronousScheduler())[0]
    threaded = compute(total, scheduler=ThreadedScheduler(max_workers=4))[0]
    assert synchronous == threaded == 2 * sum(numbers)


# --------------------------------------------------------------------------- #
# One identity per task: the key is the hash of what the task computes.
# --------------------------------------------------------------------------- #
_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}

_NODES = st.lists(
    st.tuples(st.sampled_from(["lit", *_OPS]), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6), st.integers(-3, 3)),
    min_size=1, max_size=14)


def _build(nodes):
    """The DAG as lazy values, as plain values, and as hash-consed term ids.

    Node *i* is a literal, or an operator over two earlier nodes; two nodes
    denote the same computation exactly when their term ids are equal.
    """
    lazy, plain, terms, interned, children = [], [], [], {}, []
    for index, (op, left, right, literal) in enumerate(nodes):
        if op == "lit" or index == 0:
            lazy.append(delayed(int)(literal))
            plain.append(int(literal))
            term, below = ("lit", literal), ()
        else:
            left, right = left % index, right % index
            lazy.append(delayed(_OPS[op])(lazy[left], lazy[right]))
            plain.append(_OPS[op](plain[left], plain[right]))
            term, below = (op, terms[left], terms[right]), (left, right)
        terms.append(interned.setdefault(term, len(interned)))
        children.append(below)
    return lazy, plain, terms, children


def _closure(children, roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(children[node])
    return seen


@given(nodes=_NODES, picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_independent_builds_agree_and_union_is_the_distinct_computations(nodes, picks):
    first, plain, terms, children = _build(nodes)
    second, _, _, _ = _build(nodes)
    assert [value.key for value in first] == [value.key for value in second]
    # Equal keys exactly where the terms are equal: no false sharing either.
    assert len({value.key for value in first}) == len(set(terms))

    roots = sorted({pick % len(nodes) for pick in picks})
    reached = _closure(children, roots)
    distinct = len({terms[node] for node in reached})
    merged, keys = merge_graphs([first[root] for root in roots])
    assert merged.ancestors(keys) == set(merged)            # already culled
    assert len(merged) == distinct
    assert len(merged) + merged.shared == len(reached)      # one Task per node built
    both, _ = merge_graphs([first[root] for root in roots] +
                           [second[root] for root in roots])
    assert (len(both), both.shared) == (distinct, 2 * len(reached) - distinct)

    expected = [plain[root] for root in roots]
    assert compute(*[first[root] for root in roots],
                   scheduler=SynchronousScheduler()) == expected
    assert compute(*[second[root] for root in roots],
                   scheduler=ThreadedScheduler(max_workers=3)) == expected


@given(copies=st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_impure_calls_never_merge(copies):
    values = [delayed(operator.add, pure=False)(1, 2) for _ in range(copies)]
    dependents = [value.then(operator.mul, 2) for value in values]
    merged, keys = merge_graphs(dependents)
    assert len(set(keys)) == copies
    assert (len(merged), merged.shared) == (2 * copies, 0)
    assert not any(task.cacheable for task in merged.tasks())
    assert compute(*dependents, scheduler=SynchronousScheduler()) == [6] * copies


_KEYS_SCRIPT = """
import json, sys
from repro.eda.compute.base import _chunk_numeric_summary
from repro.frame.io import scan_csv
from repro.graph import PartitionedFrame, delayed
from repro.stats.sketches import merge_all

frame = PartitionedFrame.from_source(scan_csv(sys.argv[1], chunk_rows=40),
                                     columns=["x"])
summary = frame.reduction(_chunk_numeric_summary, merge_all, chunk_args=("x",))
extra = delayed(len)(frozenset({"alpha", "beta", "gamma", "delta"}),
                     options={"b": {"y", "x"}, "a": (1, 2.5, None, True)})
tasks = summary.graph.tasks() + extra.graph.tasks()
assert all(task.cacheable for task in tasks)
print(json.dumps([task.key for task in tasks]))
"""


def test_keys_are_identical_across_processes_with_different_hash_seeds(tmp_path):
    """What keeps worker, remote and next-session cache lookups warm."""
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(100)))
    source_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(source_root))
        done = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT, str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) >= 3 + 3 + 1 + 1     # parses, chunks, combine, extra
