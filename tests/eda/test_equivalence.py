"""One equivalence suite: a rewrite of the naive plan may change the work
done, never the meaning.

Projection and predicate pushdown, chunk sidecars, append-aware refresh,
the graph stage and the four schedulers all rewrite one naive plan, so one
oracle checks them all: ``read_csv`` of the same bytes (the grown bytes
after an append), filtered by a plain Python comparison over ``to_list()``
values (a missing value never matches), computed in memory with the
``synchronous`` scheduler and the cache off.  The oracle shares no filter,
zone-map or merge code with what it checks.

Each case draws one value per axis (:data:`AXES`): call shape, source,
predicate, append + refresh, scheduler, cache state and sidecar state.
Projection and predicate pushdown have no off switch: every streamed case
runs them, and the zone maps must skip chunks under ``listed-gt`` and column
calls must parse projected chunks only.  :func:`all_pairs` builds a fixed
case list that covers every valid pair of axis values at least once (plus
the unfiltered missing
overview and report over each scan), instead of the full cross product; it
is deterministic, so every hypothesis profile runs the same cases.  To add
an axis value, append it to :data:`AXES` (and teach :func:`_valid` if some
pairs cannot exist): the list regrows to cover its pairs and
``test_case_list_covers_every_valid_pair`` holds it to that.

One documented divergence is excluded from every comparison:
``memory_bytes`` (the in-memory footprint vs. the on-disk size).  The data
stays below every sampling cutoff, so sample-derived items compare exactly.
"""

from __future__ import annotations

import math
import operator
import shutil
from datetime import datetime
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro import DataFrame, Report, create_report, plot, plot_correlation, plot_missing
from repro.eda.compute.base import (
    STREAMING_CATEGORY_CAPACITY,
    _chunk_pair_counts,
    _combine_pair_counts_bounded,
)
from repro.errors import EDAError
from repro.frame import zonemap
from repro.frame.frame import concat_rows
from repro.frame.io import read_csv, scan_csv, write_csv
from repro.frame.predicate import Conjunct, compile_predicate
from repro.frame.source import FilteredSource
from repro.graph import TaskCache, get_global_cache, set_global_cache
from repro.graph.partition import PartitionedFrame
from repro.stats.descriptive import CategoricalSummary

N_BASE = 600
N_APPEND = 30
N_TOTAL = N_BASE + N_APPEND
CHUNK_ROWS = 67              # nine chunks: the combine tree carries a group of one
SPLIT = 300                 # the two part files hold rows [0, 300) and [300, 600)
EXCLUDED_KEYS = {"memory_bytes"}
SAMPLING = {"scatter.sample_size": N_TOTAL + 1,
            "correlation.scatter_sample_size": N_TOTAL + 1}

#: Call shapes: the EDA function and its column arguments.
CALLS = {
    "overview": (plot,), "num": (plot, "price"), "cat": (plot, "city"),
    "highcard": (plot, "district"), "dupheavy": (plot, "badge"),
    "NN": (plot, "price", "size"), "CN": (plot, "city", "price"),
    "CC": (plot, "city", "house_type"), "CC-highcard": (plot, "district", "badge"),
    "corr": (plot_correlation,), "corr-single": (plot_correlation, "price"),
    "corr-pair": (plot_correlation, "price", "size"),
    "missing": (plot_missing,), "missing-single": (plot_missing, "rating"),
    "missing-pair": (plot_missing, "rating", "price"), "report": (create_report,),
}
#: Call shapes whose reductions all read a column subset: over a streamed
#: scan they build projected parse tasks only.
COLUMN_CALLS = set(CALLS) - {"overview", "missing", "missing-single",
                             "missing-pair", "report"}
#: ``price`` and ``listed`` carry missing values, ``listed`` grows with the
#: row index (so its zone maps prune whole chunks) and ``city`` has a few
#: missing values, so ``!=`` pins missing-never-matches.
PREDICATES = {
    "none": None,
    "price-gt": ("price", ">", 250_000.0),
    "listed-gt": ("listed", ">", "2021-06-01T00:00:00"),
    "city-eq": ("city", "==", "vancouver"),
    "city-ne": ("city", "!=", "montreal"),
}
COMPARE = {">": operator.gt, "==": operator.eq, "!=": operator.ne}
IN_MEMORY = ("local", "graph")      # the local stage, and the graph stage forced
AXES = {
    "call": tuple(CALLS),
    "source": IN_MEMORY + ("scan", "multifile"),
    "predicate": tuple(PREDICATES),
    "append": (False, True),
    "scheduler": ("synchronous", "threaded", "process", "remote"),
    "cache": ("off", "cold", "replay", "other"),
    "sidecar": ("off", "cold", "warm"),
}


class Case(NamedTuple):
    call: str
    source: str
    predicate: str
    append: bool
    scheduler: str
    cache: str
    sidecar: str


def _valid(values):
    """In-memory sources neither grow nor keep chunk sidecars."""
    return not (values.get("source") in IN_MEMORY and
                (values.get("append") or values.get("sidecar", "off") != "off"))


def _requirements():
    """What the case list must cover: the unfiltered missing overview and
    report over each scanned source — filtered, their nullity sketch
    materializes the scan, so pairs alone could leave its streamed route
    unchecked — then every valid pair of axis values."""
    naive = [(("call", call), ("source", source), ("predicate", "none"))
             for call in ("missing", "report") for source in ("scan", "multifile")]
    pairs = [pair for (a, xs), (b, ys) in combinations(AXES.items(), 2)
             for pair in (((a, x), (b, y)) for x in xs for y in ys)
             if _valid(dict(pair))]
    return naive + pairs


def _covers(case, requirement):
    return set(zip(AXES, case)).issuperset(requirement)


def all_pairs():
    """Greedy all-pairs: seed each case with the first uncovered
    requirement, then give every other axis the value that covers the most
    uncovered pairs."""
    uncovered = dict.fromkeys(_requirements())      # an ordered set
    cases = []
    while uncovered:
        values = dict(next(iter(uncovered)))
        for name, options in AXES.items():
            if name not in values:
                values[name] = max(
                    (v for v in options if _valid({**values, name: v})),
                    key=lambda v: sum(pair in uncovered or pair[::-1] in uncovered
                                      for pair in (((name, v), item)
                                                   for item in values.items())))
        case = Case(**values)
        for requirement in [r for r in uncovered if _covers(case, r)]:
            del uncovered[requirement]
        cases.append(case)
    return cases


CASES = all_pairs()


def _case_id(case):
    return "-".join([case.call, case.source, case.predicate,
                     *(["append"] if case.append else []),
                     case.scheduler, f"cache-{case.cache}",
                     f"sidecar-{case.sidecar}"])


# --------------------------------------------------------------------------- #
# The dataset and the oracle.
# --------------------------------------------------------------------------- #
class Dataset:
    """One dataset as a single CSV, two part files and an append tail."""

    def __init__(self, directory):
        rng = np.random.default_rng(2021)
        price = rng.normal(250_000, 60_000, N_TOTAL)
        price[rng.random(N_TOTAL) < 0.08] = np.nan
        size = rng.normal(1_800, 400, N_TOTAL)
        # Appended rows stay inside the base rows' ranges: histogram bins
        # follow the global min/max, so only the nullity sketch re-keys
        # every chunk after an append.
        for values in (price, size):
            values[N_BASE:] = np.clip(values[N_BASE:], np.nanmin(values[:N_BASE]),
                                      np.nanmax(values[:N_BASE]))
        rating = rng.integers(1, 6, N_TOTAL).astype(float)
        rating[rng.random(N_TOTAL) < 0.25] = np.nan
        cities = rng.choice(["vancouver", "toronto", "montreal", "calgary"],
                            N_TOTAL, p=[0.4, 0.3, 0.2, 0.1])
        start = np.datetime64("2021-01-01T00:00:00")
        frame = DataFrame({
            "price": price,
            "size": size,
            "rating": rating,
            "city": [None if gap else str(city) for gap, city
                     in zip(rng.random(N_TOTAL) < 0.03, cities)],
            "house_type": list(rng.choice(["detached", "condo", "townhouse"],
                                          N_TOTAL)),
            "district": [None if gap else f"district-{code:03d}" for gap, code
                         in zip(rng.random(N_TOTAL) < 0.05,
                                rng.integers(0, 150, N_TOTAL))],
            "badge": list(rng.choice(["standard", "premium"], N_TOTAL,
                                     p=[0.95, 0.05])),
            "listed": [None if rng.random() < 0.05 else
                       str(start + np.timedelta64(i * 280 // N_BASE, "D"))
                       for i in range(N_TOTAL)],
        })
        self.grown = str(directory / "grown.csv")
        write_csv(frame, self.grown)
        with open(self.grown, encoding="utf-8") as handle:
            header, *rows = handle.readlines()
        self.header, self.tail = header, rows[N_BASE:]
        self.whole = self._write(directory / "houses.csv", rows[:N_BASE])
        self.parts = [self._write(directory / "part-0.csv", rows[:SPLIT]),
                      self._write(directory / "part-1.csv", rows[SPLIT:N_BASE])]
        self.frames, self.oracles = {}, {}

    def _write(self, path, rows, mode="w"):
        with open(path, mode, encoding="utf-8") as handle:
            handle.writelines(([self.header] if mode == "w" else []) + rows)
        return str(path)

    def scan(self, multifile=False):
        return scan_csv(self.parts if multifile else self.whole,
                        chunk_rows=CHUNK_ROWS)

    def open(self, kind, directory):
        """A fresh source over copies of the files, and how to grow them."""
        if kind in IN_MEMORY:
            return read_csv(self.whole), None
        if kind == "scan":
            path = shutil.copy(self.whole, directory)
            return (scan_csv(path, chunk_rows=CHUNK_ROWS),
                    lambda: self._write(path, self.tail, "a"))
        last = [shutil.copy(path, directory) for path in self.parts][-1]
        half = N_APPEND // 2

        def grow():
            self._write(last, self.tail[:half], "a")
            self._write(directory / "part-2.csv", self.tail[half:])
        return scan_csv(str(directory / "part-*.csv"), chunk_rows=CHUNK_ROWS), grow

    def rows(self, predicate="none", append=False):
        """The oracle's rows: ``read_csv`` of the bytes, filtered by a plain
        Python comparison, memoised per (predicate, append)."""
        key = (predicate, append)
        if key not in self.frames:
            frame = read_csv(self.grown if append else self.whole)
            if PREDICATES[predicate] is not None:
                name, op, literal = PREDICATES[predicate]
                if name == "listed":
                    literal = datetime.fromisoformat(literal)
                frame = frame.filter(np.array(
                    [value is not None and COMPARE[op](value, literal)
                     for value in frame.column(name).to_list()], dtype=bool))
            self.frames[key] = frame
        return self.frames[key]

    def oracle(self, call, predicate="none", append=False):
        """The naive plan, memoised per (call, predicate, append)."""
        key = (call, predicate, append)
        if key not in self.oracles:
            self.oracles[key] = _run(call, self.rows(predicate, append), {
                **SAMPLING, "cache.enabled": False,
                "compute.scheduler": "synchronous"})
        return self.oracles[key]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return Dataset(tmp_path_factory.mktemp("equivalence"))


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = get_global_cache()
    set_global_cache(TaskCache())
    yield
    set_global_cache(previous)


def _run(call, df, config=None, where=None):
    function, *columns = CALLS[call]
    if function is create_report:
        return create_report(df, config=config, where=where)
    return function(df, *columns, config=config, mode="intermediates",
                    where=where)


# --------------------------------------------------------------------------- #
# The one comparison.
# --------------------------------------------------------------------------- #
def _assert_close(result, expected, path):
    if isinstance(expected, dict):
        assert isinstance(result, dict), path
        keys = set(expected) - EXCLUDED_KEYS
        assert set(result) - EXCLUDED_KEYS == keys, path
        for key in keys:
            _assert_close(result[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(result) == len(expected), path
        for index, (left, right) in enumerate(zip(result, expected)):
            _assert_close(left, right, f"{path}[{index}]")
    elif isinstance(expected, float) or isinstance(result, float):
        left, right = float(result), float(expected)
        if not (math.isnan(left) and math.isnan(right)):
            assert left == pytest.approx(right, rel=1e-6, abs=1e-9), path
    else:
        assert result == expected, path


def assert_equivalent(result, expected):
    """Items, stats and insights agree (per section, plus the interactions,
    for a report)."""
    if isinstance(expected, Report):
        assert result.section_names == expected.section_names
        for name in expected.section_names:
            assert_equivalent(result.sections[name], expected.sections[name])
        _assert_close(result.interactions, expected.interactions, "interactions")
        return
    _assert_close(result.items, expected.items, "items")
    _assert_close(result.stats, expected.stats, "stats")
    assert sorted((i.kind, i.column) for i in result.insights) == \
        sorted((i.kind, i.column) for i in expected.insights)


def _stats(result, view):
    """One of the four counter views of an intermediates object or report."""
    if isinstance(result, Report):
        return getattr(result, f"{view}_stats")
    return result.meta[view]


# --------------------------------------------------------------------------- #
# The case list.
# --------------------------------------------------------------------------- #
def _streams(case):
    """Whether *case* runs chunk tasks: ``missing-single``, ``missing-pair``
    and the filtered missing overview materialize the scan instead (and
    warn), so they neither skip nor reuse chunks."""
    return not (case.call in ("missing-single", "missing-pair") or
                (case.call == "missing" and case.predicate != "none"))


def _check(case, data, directory):
    """Run *case* (priming runs first) and compare it with the oracle."""
    set_global_cache(TaskCache())
    config = {**SAMPLING, "compute.scheduler": case.scheduler,
              "compute.max_workers": 2,
              "cache.disk_enabled": case.sidecar != "off"}
    if case.source == "graph":
        config.update({"compute.use_graph": "always",
                       "compute.partition_rows": CHUNK_ROWS})
    source, grow = data.open(case.source, directory)

    def run(call, handle, cache=case.cache != "off"):
        return _run(call, handle, {**config, "cache.enabled": cache},
                    PREDICATES[case.predicate])

    if case.sidecar == "warm":
        run(case.call, source, cache=False)
    if case.cache == "other":
        run("overview" if case.call == "num" else "num", source)
    if case.cache == "replay":
        run(case.call, source)
    result = run(case.call, source)
    if case.append:
        grow()
        result = repro.refresh(result) if case.call == "report" else \
            run(case.call, repro.refresh(source))
    assert_equivalent(result, data.oracle(case.call, case.predicate,
                                          case.append))

    streamed = case.source not in IN_MEMORY and _streams(case)
    if case.predicate == "listed-gt" and streamed:
        assert _stats(result, "predicate")["chunks_skipped"] > 0
    if streamed and case.call in COLUMN_CALLS:
        projection = _stats(result, "projection")
        assert projection["projected_parse_tasks"] > 0
        assert projection["full_parse_tasks"] == 0
    if case.append and case.cache != "off":
        incremental = _stats(result, "incremental")
        assert incremental["enabled"]
        # The nullity sketch spans every row, so an append re-keys every
        # nullity chunk; process/remote bundle parse + sketch inside a
        # worker, so those parses never reach the coordinator cache.
        if _streams(case) and not (case.call == "missing" and
                                   case.scheduler in ("process", "remote")):
            assert incremental["chunks_reused"] > \
                incremental["chunks_new"] > 0


@pytest.mark.filterwarnings("ignore:this fine-grained task")
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_case_matches_the_oracle(data, tmp_path, case):
    _check(case, data, tmp_path)


def test_case_list_holds_only_valid_cases():
    assert all(_valid(case._asdict()) for case in CASES)


@pytest.mark.parametrize(
    "requirement", _requirements(),
    ids=lambda requirement: ",".join(f"{name}={value}" for name, value in requirement))
def test_case_list_covers_every_valid_pair(requirement):
    """One item per requirement, so a gap names its pair.  ``call`` is an
    axis, so every (call shape, axis value) pair is one of them."""
    assert any(_covers(case, requirement) for case in CASES), requirement


#: One-line rewrite bugs that give wrong numbers rather than exceptions, as
#: monkeypatches: ``(owner, attribute, original -> broken)``.
MUTANTS = {
    "zone-map-prunes-matching-chunks": (
        zonemap, "_range_may_match",
        lambda original: lambda vmin, vmax, op, value:
            vmin > value if op == ">" else original(vmin, vmax, op, value)),
    "missing-matches-not-equal": (
        Conjunct, "mask",
        lambda original: lambda self, frame: original(self, frame) |
            ((self.op == "!=") & ~frame.column(self.column).notna())),
    "merge-drops-last-partial": (
        CategoricalSummary, "merge", lambda original: lambda self, other: self),
}
SELF_TEST_CASES = [
    Case("cat", "scan", "listed-gt", False, "synchronous", "off", "off"),
    Case("num", "local", "city-ne", False, "synchronous", "off", "off"),
]


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_oracle_catches_broken_rewrites(data, tmp_path, monkeypatch, mutant):
    def failures(tag):
        failed = 0
        for index, case in enumerate(SELF_TEST_CASES):
            directory = tmp_path / f"{tag}-{index}"
            directory.mkdir()
            try:
                _check(case, data, directory)
            except AssertionError:
                failed += 1
        return failed

    assert failures("sound") == 0       # this also runs the oracle, unbroken
    owner, name, broken = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    assert failures("broken") > 0, f"no case caught {mutant}"


# --------------------------------------------------------------------------- #
# The pushdowns with no reduction on top.
# --------------------------------------------------------------------------- #
#: What a partition task can be projected onto: full width or one column
#: (the dataset's eight columns, one per dtype and missing-value pattern).
PROJECTIONS = {"full": None, **{name: (name,) for name in (
    "price", "size", "rating", "city", "house_type", "district", "badge",
    "listed")}}


@pytest.fixture(scope="module")
def pushed_scans(data, tmp_path_factory):
    """One scan per (file source, append), shared so each zone map is built
    once; the grown ones come from an append-refresh of the scanned copies."""
    scans = {}
    for kind in ("scan", "multifile"):
        scans[kind, False] = data.scan(multifile=kind == "multifile")
        source, grow = data.open(kind, tmp_path_factory.mktemp(f"grown-{kind}"))
        grow()
        scans[kind, True] = repro.refresh(source)
    return scans


@pytest.mark.parametrize("projection", PROJECTIONS)
@pytest.mark.parametrize("predicate", PREDICATES)
@pytest.mark.parametrize("append", [False, True], ids=["base", "append"])
@pytest.mark.parametrize("source", ["scan", "multifile"])
def test_pushed_partitions_hold_the_oracle_rows(data, pushed_scans, source,
                                                append, predicate, projection):
    """Zone-map chunk skipping, the in-parse filter and the projected parse
    have no off switch, so each is checked where it happens: the partition
    tasks a filtered, projected call plans, concatenated, hold exactly the
    oracle's rows of the projected columns.  No reduction runs, so the full
    cross product of file source, append, predicate and projection is cheap."""
    scan = pushed_scans[source, append]
    columns = PROJECTIONS[projection]
    if PREDICATES[predicate] is None:
        pushed = PartitionedFrame.from_source(scan, columns=columns)
    else:
        filtered = FilteredSource(scan, compile_predicate(PREDICATES[predicate]))
        pushed = PartitionedFrame.from_source(filtered, columns=columns,
                                              predicate=filtered.predicate)
        if predicate == "listed-gt":
            assert pushed.npartitions < len(scan.partitions())
    result = pushed.compute()
    expected = data.rows(predicate, append)
    names = list(columns or expected.columns)
    assert result.columns == names
    for name in names:
        assert result.column(name).to_list() == \
            expected.column(name).to_list(), name


# --------------------------------------------------------------------------- #
# Mechanism tests on the shared dataset.
# --------------------------------------------------------------------------- #
def _parses(result):
    reports = result.meta["execution_reports"]
    return (sum(report.projected_parses for report in reports),
            sum(report.full_parses for report in reports))


REPLAYS = {"plain": ("overview", "none"), "projected": ("num", "none"),
           "filtered": ("num", "price-gt")}


@pytest.mark.parametrize("kind", REPLAYS)
def test_warm_replay_executes_zero_parses(data, kind):
    """Fresh scan handles over unchanged files serve every parse (and its
    sketches) from the cross-call cache."""
    call, predicate = REPLAYS[kind]
    cold, warm = (_run(call, data.scan(multifile=True),
                       where=PREDICATES[predicate]) for _ in range(2))
    assert_equivalent(warm, cold)
    assert _parses(warm) == (0, 0)
    assert sum(report.cache_hits for report in warm.meta["execution_reports"]) > 0


INTEROP = {"projected-then-report": [("num", "none"), ("cat", "none"),
                                     ("report", "none")],
           "filtered-then-unfiltered": [("num", "price-gt"), ("num", "none")]}


@pytest.mark.parametrize("order", INTEROP)
def test_warm_cache_interop(data, order):
    """Projected, full-width, filtered and unfiltered parses of one chunk
    never share a key: each call, served from a cache the calls before it
    warmed, equals the oracle — in either order."""
    for calls in (INTEROP[order], INTEROP[order][::-1]):
        set_global_cache(TaskCache())
        for call, predicate in calls:
            assert_equivalent(_run(call, data.scan(), where=PREDICATES[predicate]),
                              data.oracle(call, predicate))


def test_streaming_duplicate_rows_match_exact_scan(tmp_path):
    """A scan with real duplicates reports the exact in-memory count."""
    rng = np.random.default_rng(7)
    base = DataFrame({
        "price": rng.normal(100, 10, 400).round(1),
        "rating": [None if i % 7 == 0 else float(i % 5) for i in range(400)],
        "city": list(rng.choice(["x", "y", "z"], 400)),
    })
    path = str(tmp_path / "dupes.csv")
    write_csv(concat_rows([base, base.slice(0, 120)]), path)
    expected = read_csv(path).duplicate_row_count()
    assert expected >= 120
    assert _run("overview", scan_csv(path, chunk_rows=75)).stats[
        "duplicate_rows"] == expected


def test_missing_single_over_scan_warns_before_materializing(data):
    """The fine-grained missing tasks break the memory bound: they say so,
    with an estimated size, before falling back to materialization."""
    with pytest.warns(UserWarning, match="materializ"):
        _run("missing-single", data.scan())
    with pytest.warns(UserWarning, match="MB estimated"):
        _run("missing-pair", data.scan())


def test_scan_rejects_unknown_column(data):
    with pytest.raises(Exception):
        plot(data.scan(), "not_a_column", mode="intermediates")


def test_streaming_pair_counts_are_capacity_bounded():
    """Two categorical columns over a scan prune the pair table to the
    streaming capacity instead of accumulating it unbounded."""
    chunk = DataFrame({"a": [f"a{i}" for i in range(500)],
                       "b": [f"b{i}" for i in range(500)]})
    counts = _chunk_pair_counts(chunk, "a", "b", 100)
    assert len(counts) == 100
    assert len(_combine_pair_counts_bounded([counts, counts])) <= \
        STREAMING_CATEGORY_CAPACITY


@pytest.mark.parametrize("multifile", [False, True], ids=["scan", "multifile"])
def test_single_column_plot_parses_only_projected_chunks(data, multifile):
    result = _run("num", data.scan(multifile))
    projected, full = _parses(result)
    assert projected > 0 and full == 0
    plan = result.meta["projection"]
    assert plan["enabled"] is True and plan["full_parse_tasks"] == 0
    # An 8-column table projected onto one column: 7 pruned per parse task.
    assert plan["columns_pruned"] == 7 * plan["projected_parse_tasks"] > 0


def test_whole_row_task_collapses_onto_full_parses(data):
    """The nullity sketch reads every column: no projected parse is built."""
    result = _run("missing", data.scan())
    projected, full = _parses(result)
    assert full > 0 and projected == 0
    assert result.meta["projection"]["columns_pruned"] == 0


def test_projection_disabled_for_in_memory_sources(data):
    """In-memory slices are zero-copy views: the planner never fragments
    them into per-column-set tasks."""
    plan = _run("num", read_csv(data.whole),
                {"compute.use_graph": "always"}).meta["projection"]
    assert plan["enabled"] is False and plan["projected_parse_tasks"] == 0


def test_projected_stage_reuse_within_one_call(data):
    """Stage 2 of ``plot(scan, col)`` re-requests stage 1's column set and
    is served its projected parses from the cache.  Threaded on purpose: a
    process-pool parse consumed inside its worker bundle never reaches the
    coordinator cache, so stage 2 re-parses there."""
    reports = _run("num", data.scan(),
                   {"compute.scheduler": "threaded"}).meta["execution_reports"]
    assert len(reports) >= 2
    assert reports[1].projected_parses == reports[1].full_parses == 0
    assert reports[1].cache_hits > 0


def test_string_equality_prunes_chunks_via_distinct_sets(tmp_path):
    """A literal absent from a chunk's dictionary prunes the chunk through
    the zone map's exact distinct set, where min/max alone could not:
    "apple" <= "banana" <= "cherry"."""
    rng = np.random.default_rng(11)
    fruit = [str(value) for chunk in range(6) for value in rng.choice(
        ["apple", "cherry"] if chunk < 3 else ["banana", "date"], 150)]
    frame = DataFrame({"fruit": fruit, "size": rng.normal(100.0, 10.0, 900)})
    path = str(tmp_path / "fruit.csv")
    write_csv(frame, path)
    reference = plot(frame.filter(np.array([value == "banana" for value in fruit])),
                     "size", mode="intermediates", config={"cache.enabled": False})
    result = plot(scan_csv(path, chunk_rows=150), "size", mode="intermediates",
                  where=("fruit", "==", "banana"))
    assert_equivalent(result, reference)
    assert result.meta["predicate"]["chunks_skipped"] == 3


def test_datetime_where_accepts_datetime_objects(data):
    """A ``datetime`` literal normalizes to the ISO-string conjunct."""
    via_string = _run("num", data.scan(), where=PREDICATES["listed-gt"])
    set_global_cache(TaskCache())
    scan = data.scan()
    via_datetime = _run("num", scan, where=scan.listed > datetime(2021, 6, 1))
    assert_equivalent(via_datetime, via_string)
    assert via_datetime.meta["predicate"]["predicate"] == \
        via_string.meta["predicate"]["predicate"]


def test_lazy_indexing_matches_where_kwarg(data):
    """``plot(scan[scan.price > v], col)`` is the same filter as where=."""
    scan = data.scan()
    indexed = _run("num", scan[scan.price > 250_000.0])
    set_global_cache(TaskCache())
    keyword = _run("num", data.scan(), where=PREDICATES["price-gt"])
    assert_equivalent(indexed, keyword)
    assert indexed.meta["predicate"] == keyword.meta["predicate"]


def test_unsupported_where_falls_back_with_warning(data):
    """A callable filter cannot be pushed into the scan: the input is
    materialized, with a warning, and filtered eagerly."""
    with pytest.warns(UserWarning, match="cannot be pushed"):
        fallback = _run("num", data.scan(),
                        where=lambda frame: frame.price > 250_000.0)
    assert fallback.meta["predicate"]["enabled"] is False
    assert_equivalent(fallback, data.oracle("num", "price-gt"))


def test_where_rejects_unfilterable_values(data):
    frame = read_csv(data.whole)
    with pytest.raises(EDAError, match="unsupported where= filter"):
        _run("num", frame, where=42)
    with pytest.raises(EDAError, match="boolean mask"):
        _run("num", frame, where=np.zeros(3, dtype=bool))


def test_report_refresh_reuses_most_chunks(data, tmp_path):
    scan, grow = data.open("scan", tmp_path)
    report = create_report(scan, config={**SAMPLING,
                                         "compute.scheduler": "threaded"})
    grow()
    warm = report.refresh()
    assert_equivalent(warm, data.oracle("report", append=True))
    stats = warm.incremental_stats
    assert stats["enabled"] and stats["bytes_reparsed"] > 0
    # At least 80 % of the parse chunks answered from the cache.
    assert stats["chunks_reused"] >= 4 * stats["chunks_new"] > 0


def test_top_level_refresh_dispatches_reports_and_sources(data, tmp_path):
    scan, grow = data.open("scan", tmp_path)
    report = create_report(scan, config={"compute.scheduler": "synchronous"})
    grow()
    assert isinstance(repro.refresh(report), Report)
    assert repro.refresh(scan).n_rows == N_TOTAL
    frame = DataFrame({"x": [1, 2]})
    assert repro.refresh(frame) is frame


def test_refresh_preserves_where_filter(data, tmp_path):
    scan, grow = data.open("scan", tmp_path)
    report = create_report(scan, config=SAMPLING, where=PREDICATES["price-gt"])
    grow()
    warm = report.refresh()
    assert warm.where == PREDICATES["price-gt"]
    assert_equivalent(warm, data.oracle("report", "price-gt", append=True))
