"""Millisecond-scale tests of the harness's pure rules (no data generation).

Collected by the tier-1 run (``python -m pytest``): the percentile rule, span
self-time subtraction, bound comparison, and the syntactic limits the
benchmark contract puts on ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import re

import pytest

from perfbench import metrics, run
from perfbench.trace import Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPercentileRule:
    def test_highest_percentile_with_ten_samples_beyond(self):
        assert metrics.supported_percentile(100) == 90.0
        assert metrics.supported_percentile(126) == 92.0
        assert metrics.supported_percentile(60) == 83.0
        assert metrics.supported_percentile(10_000) == 99.0     # the ceiling

    def test_the_reported_tail_is_supported_by_the_samples_a_run_pools(self):
        assert metrics.supported_percentile(run.MIN_POOLED) == run.TAIL_PERCENTILE
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            names = [m["name"] for m in json.load(handle)["end_to_end"]]
        assert f"task_p{run.TAIL_PERCENTILE}_ratio" in names

    def test_too_few_samples_support_no_percentile(self):
        assert metrics.supported_percentile(19) is None
        assert metrics.supported_percentile(20) == 50.0

    def test_percentile_interpolates(self):
        samples = [4.0, 1.0, 3.0, 2.0, 5.0]
        assert metrics.percentile(samples, 0) == 1.0
        assert metrics.percentile(samples, 50) == 3.0
        assert metrics.percentile(samples, 90) == pytest.approx(4.6)
        assert metrics.percentile(samples, 100) == 5.0
        with pytest.raises(ValueError):
            metrics.percentile([], 50)


class TestSpanSelfTime:
    @staticmethod
    def span(ident, start, end, parent=None):
        return {"id": ident, "name": str(ident), "start": start, "end": end,
                "parent": parent}

    def test_children_are_subtracted(self):
        spans = [self.span(0, 0.0, 10.0), self.span(1, 1.0, 4.0, 0),
                 self.span(2, 5.0, 7.0, 0), self.span(3, 5.5, 6.0, 2)]
        own = metrics.span_self_times(spans)
        assert own == {0: 5.0, 1: 3.0, 2: 1.5, 3: 0.5}

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [self.span(0, 0.0, 10.0), self.span(1, 2.0, 6.0, 0),
                 self.span(2, 4.0, 8.0, 0), self.span(3, 9.0, 12.0, 0)]
        assert metrics.span_self_times(spans)[0] == pytest.approx(3.0)

    def test_recorder_lays_reported_children_end_to_end(self):
        recorder = Recorder("w")
        recorder.enabled = True
        with recorder.span("op") as op:
            pass
        op["end"] = op["start"] + 1.0
        recorder.add_child(op, "graph", 0.4)
        recorder.add_child(op, "local", 0.25)
        own = metrics.span_self_times(recorder.spans)
        assert own[op["id"]] == pytest.approx(0.35)
        assert [s["parent"] for s in recorder.spans] == [None, 0, 0]

    def test_disabled_recorder_records_nothing(self):
        recorder = Recorder("w")
        with recorder.span("op") as op:
            assert op is None
        recorder.add_child(op, "graph", 1.0)
        assert recorder.spans == []


class TestBounds:
    """Two sets of the same code agree when neither is beyond the bound."""

    def test_gap_is_symmetric(self):
        assert metrics.relative_gap(2.0, 2.2) == pytest.approx(0.10)
        assert metrics.relative_gap(2.2, 2.0) == pytest.approx(0.10)
        assert metrics.relative_gap(1.227, 0.851) > 0.25   # a faster second set

    def test_zero_agrees_only_with_zero(self):
        assert metrics.relative_gap(0.0, 0.0) == 0.0
        assert metrics.relative_gap(0.0, 0.01) == math.inf
        assert metrics.relative_gap(0.01, 0.0) == math.inf


class TestBenchmarkJson:
    """The contract's limits, so an edit is refused here before the driver."""

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

    def test_keys_and_counts(self):
        assert set(self.spec) == {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"}
        assert 2 <= len(self.spec["workloads"]) <= 8
        assert 1 <= len(self.spec["end_to_end"]) <= 16
        assert 1 <= len(self.spec["per_layer"]) <= 128
        assert isinstance(self.spec["run_seconds"], int)
        assert 1 <= self.spec["run_seconds"] <= 60

    def test_names_units_and_bounds(self):
        names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
                 for entry in self.spec[kind]]
        assert len(names) == len(set(names))
        assert all(self.name.match(name) for name in names)
        for kind in ("end_to_end", "per_layer"):
            for metric in self.spec[kind]:
                assert self.unit.match(metric["unit"]), metric
                assert metric["better"] in ("lower", "higher")
        assert all(0 < m["bound"] <= 0.25 for m in self.spec["end_to_end"])
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in self.spec["workloads"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
