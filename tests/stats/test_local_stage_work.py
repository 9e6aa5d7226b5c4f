"""Work guards for the local stage, in counts rather than seconds.

A timing assertion cannot hold on a shared CI host; these pin what the
array-native kernels are *for* — no python-level call per distinct value,
one sort per Spearman column, one factorized column when the first already
tells every row apart — in numbers that repeat exactly.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.frame import Column, DataFrame
from repro.graph.cache import TaskCache
from repro.render.charts import render_scatter
from repro.stats import sketches
from repro.stats.correlation import spearman_matrix
from repro.stats.descriptive import CategoricalSummary
from repro.stats.sketches import merge_all


def _python_calls(work) -> int:
    """Python-level function calls (generator resumptions included) *work*
    makes; calls into C — ``map(len, ...)``, numpy — are not ``call`` events."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def _summarize(chunks, cache: TaskCache) -> None:
    """What a report does with one categorical column on the exact path."""
    partials = [CategoricalSummary.from_column(chunk) for chunk in chunks]
    merged = merge_all(partials)
    merged.top_values(10)
    merged.as_dict()
    for index, summary in enumerate(partials + [merged]):
        assert cache.put(f"{chunks[0].name}-{index}", summary)


def _columns(rows: int, distinct: int):
    """An all-distinct DATETIME column and a *distinct*-valued STRING column
    of 2 x *rows* rows, each cut into its two chunks."""
    start = np.datetime64("2021-01-01T00:00:00", "s")
    when = Column("when", start + np.arange(2 * rows).astype("timedelta64[s]"))
    picks = np.random.default_rng(0).integers(0, distinct, 2 * rows)
    ident = Column("id", [f"id{pick:05d}" for pick in picks.tolist()])
    return [[column[:rows], column[rows:]] for column in (when, ident)]


def test_exact_summary_path_makes_no_call_per_distinct_value():
    def run(rows: int, distinct: int) -> int:
        columns = _columns(rows, distinct)
        cache = TaskCache()
        return _python_calls(lambda: [_summarize(chunks, cache)
                                      for chunks in columns])

    large, small = run(50_000, 5_000), run(500, 50)
    # 100x the distinct values, the same python calls: the count is a
    # property of the code path, not of the data.  (The dict-backed summary
    # made several calls per distinct value here — sort-key lambdas and the
    # size estimate's recursion — about a million in all.)
    assert large == small
    assert large < 400


def test_summary_size_estimate_counts_label_text():
    labels = [f"label-{index:06d}" for index in range(1_000)]
    summary = CategoricalSummary.from_values(labels)
    pointers = summary.labels.nbytes + summary.counts.nbytes
    text = sum(sys.getsizeof(label) for label in labels)
    assert summary.memory_bytes() == pointers + text
    cache = TaskCache()
    cache.put("summary", summary)
    assert cache.stats.current_bytes >= pointers + text


def test_bounded_summary_size_estimate_has_no_sketch_until_it_prunes():
    labels = [f"label-{index:06d}" for index in range(1_000)]
    exact = CategoricalSummary.from_values(labels)
    bounded = CategoricalSummary.from_values(labels, capacity=1_000)
    assert bounded.distinct_sketch is None
    assert bounded.memory_bytes() == exact.memory_bytes()
    pruned = CategoricalSummary.from_values(labels, capacity=999)
    assert pruned.memory_bytes() == (
        pruned.labels.nbytes + pruned.counts.nbytes
        + sum(sys.getsizeof(label) for label in labels[:999])
        + 8 * len(labels))                  # one uint64 per hashed label


def _bounded_chunks(labels_per_chunk: int):
    """Five STRING chunks of *labels_per_chunk* distinct labels each, half
    of them shared with the next chunk."""
    return [Column("id", [f"id{index:06d}" for index in
                          range(start, start + labels_per_chunk)])
            for start in range(0, 5 * labels_per_chunk // 2,
                               labels_per_chunk // 2)]


def _count_hash_calls(monkeypatch):
    sizes = []
    original = sketches.hash_texts
    monkeypatch.setattr(sketches, "hash_texts", lambda texts:
                        sizes.append(len(texts)) or original(texts))
    return sizes


def test_bounded_summaries_that_never_prune_hash_nothing(monkeypatch):
    hashed = _count_hash_calls(monkeypatch)

    def run(labels_per_chunk: int) -> int:
        chunks = _bounded_chunks(labels_per_chunk)
        merged = []
        calls = _python_calls(lambda: merged.append(merge_all(
            [CategoricalSummary.from_column(chunk, capacity=50_000)
             for chunk in chunks])))
        assert merged[0].distinct == merged[0].labels.size == 3 * labels_per_chunk
        assert merged[0].distinct_sketch is None
        return calls

    assert run(4_000) == run(40)
    assert hashed == []


def test_bounded_summaries_that_prune_hash_once_per_side(monkeypatch):
    hashed = _count_hash_calls(monkeypatch)
    chunks = _bounded_chunks(4_000)
    # The chunks fit the capacity; the second merge is the first to prune
    # (hashing its whole table once), each later merge hashes only the
    # incoming chunk's labels.
    merged = merge_all(
        [CategoricalSummary.from_column(chunk, capacity=7_000)
         for chunk in chunks])
    assert hashed == [8_000, 4_000, 4_000]
    assert merged.pruned_count > 0 and merged.labels.size == 7_000
    # A 4096-value KMV estimate over all 12,000 labels: 1.6 % standard error.
    assert merged.distinct == pytest.approx(12_000, rel=0.08)

    hashed.clear()
    merged = merge_all(
        [CategoricalSummary.from_column(chunk, capacity=3_000)
         for chunk in chunks])
    assert hashed == [4_000] * 5            # every chunk prunes on its own


def test_scatter_render_makes_no_call_per_point():
    def run(points: int) -> int:
        # Same corners at every size, so both charts draw the same ticks.
        xs = np.linspace(0.0, 1.0, points)
        data = {"x": xs.tolist(), "y": (1.0 - xs).tolist(),
                "x_label": "x", "y_label": "y", "slope": -1.0, "intercept": 1.0}
        svgs = []
        calls = _python_calls(lambda: svgs.append(
            render_scatter(data, 450, 300, regression=True)))
        assert svgs[0].count("<circle") == points
        return calls

    assert run(10_000) == run(10)


def test_spearman_sorts_each_column_once(monkeypatch):
    sorts = []
    for name in ("argsort", "sort", "lexsort", "unique"):
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, _original=original,
                            _name=name, **kwargs:
                            sorts.append(_name) or _original(*args, **kwargs))
    rng = np.random.default_rng(1)
    matrix = np.round(rng.normal(0, 2, (2_000, 9)), 1)
    matrix[rng.random(matrix.shape) < 0.05] = np.nan
    spearman_matrix(matrix)
    assert sorts == ["argsort"] * 9


@pytest.mark.parametrize("leading, factorized", [
    (["key"], 1),                # the key tells every row apart
    (["constant", "key"], 2),    # ... one column later
])
def test_duplicate_scan_stops_at_the_first_separating_prefix(
        monkeypatch, leading, factorized):
    rows = 5_000
    rng = np.random.default_rng(2)
    columns = {
        "key": rng.permutation(rows).astype(np.float64),
        "constant": np.ones(rows),
        **{f"num_{index}": rng.integers(0, 10, rows) for index in range(4)},
    }
    frame = DataFrame(columns).select(
        leading + [name for name in columns if name not in leading])
    factorizations = []
    original = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs:
                        factorizations.append(kwargs) or
                        original(*args, **kwargs))
    assert frame.duplicate_row_count() == 0
    # Per column seen: its own values, then the (group, value) pairs.
    assert len(factorizations) == 2 * factorized
