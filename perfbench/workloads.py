"""The four workloads and the session script every one of them runs.

Iteration shape (closed loop, one client — the next call is issued when the
previous returns)::

    reset (untimed) -> report -> reset (untimed) -> overview -> follow-ups

``report`` and ``overview`` are timed "from what the user holds": a path on
the CSV workloads (so ``scan_csv`` is inside the op), a resident frame on
the in-memory one.  Every plot op renders and serialises (``.to_html()``);
``report`` also writes the file.  Sizes are constants, not options: the row
counts were chosen so one run (the set-ups, the oracle and ``run_seconds``
of iterations) fits the share of the driver's total-time cap a run may take.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.eda.config import Config
from repro.frame import sidecar as sidecar_module
from repro.frame.zonemap import sidecar_path as zone_path
from repro.graph.executor import ProcessExecutor
from repro.render import render_intermediates

from perfbench import data, verify
from perfbench.trace import Recorder

#: ``compute.max_workers`` on every workload: the sandbox's ``nproc``,
#: pinned so the numbers mean the same configuration on any machine.
WORKERS = 2

#: ``--quick`` divides every row count by this (all checks stay on).
QUICK_DIVISOR = 10

REPORT_SECTIONS = ["Overview", "Correlations", "Missing Values"]


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the configuration that makes a layer work."""

    name: str
    rows: int            # rows per file (or of the in-memory frame)
    files: int           # 0 = in-memory frame
    chunk_rows: int      # scan_csv chunk_rows / compute.partition_rows
    scheduler: str
    keeps_sidecar: bool = False   # reset leaves sidecar + zone map in place
    extra_ops: Tuple[str, ...] = ()


#: Why each workload exists is recorded once, in ``BENCHMARK.json``.  Chunk
#: sizes are the ISSUE's (4000 rows per CSV chunk, 2500 on the pool, 30000
#: per in-memory partition) and every other ``scan_csv`` argument is the
#: program's default; what the driver's total-time cap shrank is the *row
#: count*, so a chunk task does the work it does for a user and the count of
#: chunks is small.  README.md compares the layer shares with a run at the
#: ISSUE's row counts.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Resident frame above compute.small_data_rows, two partitions.
    Workload("mem_session", rows=60_000, files=0, chunk_rows=30_000,
             scheduler="threaded"),
    # Every call decodes CSV and writes sidecar + zone map; two chunks.
    Workload("csv_cold", rows=8_000, files=1, chunk_rows=4_000,
             scheduler="threaded"),
    # Sidecar and zone map filled in set-up and kept by reset; five chunks,
    # twice the rows of scan_csv's dtype-inference preview.
    Workload("csv_warm", rows=20_000, files=1, chunk_rows=4_000,
             scheduler="threaded", keeps_sidecar=True,
             extra_ops=("filtered", "refresh_overview")),
    # Four one-chunk files by glob on the process pool, reset as csv_cold.
    Workload("multi_process", rows=1_500, files=4, chunk_rows=2_500,
             scheduler="process"),
)}

#: ``op name -> (EDA function, positional column arguments)`` in script order.
FOLLOW_UPS: Dict[str, Tuple[Callable[..., Any], Tuple[str, ...]]] = {
    "plot_num": (repro.plot, ("num_0",)),
    "plot_cat": (repro.plot, ("cat_1",)),
    "plot_num_cat": (repro.plot, ("num_0", "cat_1")),
    "plot_num_num": (repro.plot, ("num_1", "num_2")),
    "correlation": (repro.plot_correlation, ()),
    "missing": (repro.plot_missing, ()),
}

#: Every op name any workload runs (fixes the ``op.<name>.p50_s`` metrics).
OP_NAMES = ("report", "overview", *FOLLOW_UPS, "filtered", "refresh_overview")

#: Share of the base rows appended (then truncated away) by refresh_overview.
TAIL_SHARE = 0.01
#: ``ts`` quantile of the filtered op; zone maps must skip the chunks below.
FILTER_QUANTILE = 0.9


@dataclass
class OpOutcome:
    """What one op did: its wall time and why it failed, if it did."""

    name: str
    seconds: float
    problems: List[str]
    result: Any = None          # Report or Intermediates
    html_bytes: int = 0
    source: Any = None          # the handle later ops of the session reuse


class Session:
    """One workload's inputs, state and script inside one process."""

    def __init__(self, workload: Workload, seed: int, work_root: str,
                 recorder: Optional[Recorder] = None, quick: bool = False):
        self.workload = workload
        self.seed = int(seed)
        divisor = QUICK_DIVISOR if quick else 1
        self.rows = workload.rows // divisor
        self.chunk_rows = max(1, workload.chunk_rows // divisor)
        self.n_chunks = max(1, workload.files) * -(-self.rows // self.chunk_rows)
        self.recorder = recorder or Recorder(workload.name)
        os.makedirs(work_root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
        self.sidecar_dir = os.path.join(self.dir, "sidecar")
        self.report_path = os.path.join(self.dir, "report.html")
        self.config: Dict[str, Any] = {
            "compute.scheduler": workload.scheduler,
            "compute.max_workers": WORKERS,
            "cache.disk_dir": self.sidecar_dir,
        }
        if not workload.files:
            # "always" keeps --quick (rows below compute.small_data_rows)
            # on the graph path the full size takes by itself.
            self.config.update({"compute.partition_rows": self.chunk_rows,
                                "compute.use_graph": "always"})
        #: The oracle's configuration: in-order execution, no chunk sidecar.
        #: The task cache stays on — ``create_report`` shares parses between
        #: its sections through it, and with it off one oracle costs two
        #: cold iterations — but ``build_oracle`` empties it before every
        #: op, so no oracle value is served across calls.
        self.oracle_config = dict(self.config, **{
            "compute.scheduler": "synchronous", "cache.disk_enabled": False})
        self.paths: List[str] = []
        self.digests: Dict[str, str] = {}
        self.frame: Any = None
        self.target: Any = None
        self.cut = float(int(self.rows * FILTER_QUANTILE))
        self.oracle: Dict[str, Any] = {}
        self._generate()

    # ------------------------------------------------------------------ #
    # Inputs and state
    # ------------------------------------------------------------------ #
    def _generate(self) -> None:
        workload = self.workload
        if not workload.files:
            columns = data.generate_columns(self.seed, self.rows)
            self.digests["frame"] = data.sha256_columns(columns)
            self.frame = repro.DataFrame(columns)
            return
        for index in range(workload.files):
            path = os.path.join(self.dir, f"part-{index}.csv")
            data.write_csv(path, data.generate_columns(
                self.seed, self.rows, row_offset=index * self.rows, stream=index))
            self.paths.append(path)
            self.digests[os.path.basename(path)] = data.sha256_file(path)
        self.target = self.paths[0] if workload.files == 1 \
            else os.path.join(self.dir, "part-*.csv")

    @property
    def csv_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in self.paths)

    def scan(self, target: Any) -> Any:
        """``scan_csv`` as every op of this session calls it: the chunk size
        is the workload's, every other argument the program's default."""
        return repro.scan_csv(target, chunk_rows=self.chunk_rows)

    def open(self) -> Any:
        """What the user holds turned into an EDA input."""
        if self.frame is not None:
            return self.frame
        return self.scan(self.target)

    def reset(self) -> None:
        """Back to the state a fresh session starts from (never timed).

        The explicit collection keeps cycle garbage of earlier ops from
        being collected inside a later op's timed region: without it the
        run-to-run spread of ``overview_s`` roughly doubles.
        """
        repro.clear_cache()
        gc.collect()
        if self.frame is not None:
            self.frame.invalidate_fingerprint()
        elif not self.workload.keeps_sidecar:
            shutil.rmtree(self.sidecar_dir, ignore_errors=True)
            for path in self.paths:
                _remove(zone_path(path))

    def close(self) -> None:
        """Stop worker processes (waiting for them) and delete every file."""
        stop_process_pools()
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def script(self) -> List[str]:
        """Op names of one iteration, in order."""
        return ["report", "overview", *FOLLOW_UPS, *self.workload.extra_ops]

    def _plot(self, function: Callable[..., Any], source: Any,
              columns: Tuple[str, ...], config: Dict[str, Any],
              **kwargs: Any) -> Tuple[Any, int]:
        """One plot op: compute, render, serialise; returns result, HTML size.

        Tracing off, this is the plain public call.  Tracing on, the same
        work is cut at the compute/render boundary the public API exposes
        (``mode="intermediates"`` + ``render_intermediates``) so each half
        gets a span, with the program's own stage timers as grandchildren.
        """
        recorder = self.recorder
        if not recorder.enabled:
            container = function(source, *columns, config=config, **kwargs)
            return container.intermediates, len(container.to_html())
        with recorder.span("compute") as span:
            intermediates = function(source, *columns, config=config,
                                     mode="intermediates", **kwargs)
        for stage in ("graph", "local"):
            recorder.add_child(span, stage, intermediates.timings.get(stage, 0.0))
        with recorder.span("render"):
            html = render_intermediates(
                intermediates, Config.from_user(config),
                call=function.__name__).to_html()
        return intermediates, len(html)

    def _report(self, source: Any, config: Dict[str, Any]) -> Tuple[Any, int]:
        """The report op: compute, then ``save`` (render + write as one span;
        ``Report.save`` offers no seam between them — the staged pass times
        ``Report.to_html`` on its own)."""
        recorder = self.recorder
        with recorder.span("compute"):
            report = repro.create_report(source, config=config)
        with recorder.span("save"):
            report.save(self.report_path)
        return report, os.path.getsize(self.report_path)

    def _append_tail(self, iteration: int) -> Callable[[], None]:
        """Append the iteration's tail (untimed); returns the untimed undo.

        The undo truncates the file back, restores its mtime and removes
        what the refresh persisted for the tail (chunk sidecars, zone-map
        entries), so every iteration starts from the same primed state.
        """
        path = self.paths[0]
        stat = os.stat(path)
        zones = _read_bytes(zone_path(path))
        chunk_dir = sidecar_module.chunk_dir(
            path, sidecar_module.SidecarRoute(directory=self.sidecar_dir))
        before = set(os.listdir(chunk_dir)) if os.path.isdir(chunk_dir) else set()
        n_tail = max(1, int(self.rows * TAIL_SHARE))
        tail = data.csv_text(data.generate_columns(
            self.seed, n_tail, row_offset=self.rows, stream=1000 + iteration))
        with open(path, "ab") as handle:
            handle.write(tail)

        def undo() -> None:
            os.truncate(path, stat.st_size)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            if os.path.isdir(chunk_dir):
                for name in set(os.listdir(chunk_dir)) - before:
                    _remove(os.path.join(chunk_dir, name))
            if zones is not None:
                with open(zone_path(path), "wb") as handle:
                    handle.write(zones)
        return undo

    def _call(self, name: str) -> Tuple[Callable[..., Any], Tuple[str, ...],
                                        Dict[str, Any]]:
        """The EDA call behind a plot op: function, columns, keywords."""
        if name in ("overview", "refresh_overview"):
            return repro.plot, (), {}
        if name == "filtered":
            return repro.plot, ("num_0",), {"where": ("ts", ">=", self.cut)}
        return (*FOLLOW_UPS[name], {})

    def run_op(self, name: str, source: Any, iteration: int,
               config: Optional[Dict[str, Any]] = None) -> OpOutcome:
        """Run one op of the script; a raise is a failed op, never an abort.

        ``report`` and ``overview`` open their own handle inside the timed
        region; later ops reuse the handle of ``outcome.source``, as an
        interactive session would.  ``refresh_overview`` appends the tail
        derived from ``(seed, iteration)`` before the clock starts and
        undoes it after the clock stops.
        """
        config = self.config if config is None else config
        recorder = self.recorder
        undo = self._append_tail(iteration) if name == "refresh_overview" \
            else None
        try:
            with recorder.span(name):
                started = time.perf_counter()
                if name in ("report", "overview"):
                    with recorder.span("scan"):
                        source = self.open()
                elif name == "refresh_overview":
                    with recorder.span("scan"):
                        source = repro.refresh(source)
                if name == "report":
                    result, html_bytes = self._report(source, config)
                else:
                    function, columns, kwargs = self._call(name)
                    result, html_bytes = self._plot(function, source, columns,
                                                    config, **kwargs)
                seconds = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - the run must keep going
            return OpOutcome(name, 0.0,
                             [f"raised {type(error).__name__}: {error}"],
                             source=source)
        finally:
            if undo is not None:
                undo()
        return OpOutcome(name, seconds, [], result, html_bytes, source)

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def build_oracle(self) -> None:
        """Every op's values under the oracle configuration (set-up time)."""
        source = None
        for name in self.script():
            repro.clear_cache()
            outcome = self.run_op(name, source, 0, config=self.oracle_config)
            if outcome.problems:
                raise RuntimeError(f"oracle op {name} failed: {outcome.problems}")
            source = outcome.source
            self.oracle[name] = verify.comparable(outcome.result)

    def invariants(self, outcome: OpOutcome) -> List[str]:
        """Cheap per-iteration checks that the intended mechanism fired."""
        name, result = outcome.name, outcome.result
        problems: List[str] = []
        if outcome.html_bytes <= 0:
            problems.append("empty HTML")
        facts = op_facts(result)
        if name == "report" and result.section_names != REPORT_SECTIONS:
            problems.append(f"sections {result.section_names}")
        workload = self.workload.name
        if workload == "csv_cold" and name == "report":
            if facts["sidecar_misses"] < self.n_chunks or facts["sidecar_hits"]:
                problems.append(
                    f"cold report: {facts['sidecar_misses']} misses, "
                    f"{facts['sidecar_hits']} hits over {self.n_chunks} chunks")
        if workload == "csv_warm" and name != "refresh_overview" \
                and facts["sidecar_misses"]:
            problems.append(f"warm op decoded {facts['sidecar_misses']} chunks")
        if name == "filtered" and \
                facts["chunks_skipped"] < 0.8 * self.n_chunks:
            problems.append(f"only {facts['chunks_skipped']} of "
                            f"{self.n_chunks} chunks skipped")
        if name == "refresh_overview":
            reused, new = facts["chunks_reused"], facts["chunks_new"]
            if reused < 0.9 * (reused + new):
                problems.append(f"refresh reused {reused}, re-parsed {new}")
        shipped = facts["shipped"]
        if workload == "multi_process" and name == "report" and shipped <= 0:
            problems.append("nothing shipped to the process pool")
        if workload != "multi_process" and shipped:
            problems.append(f"{shipped} parses ran outside the coordinator")
        return problems

    def check(self, outcome: OpOutcome, against_oracle: bool) -> List[str]:
        """All problems of one successful op (empty = verified)."""
        problems = self.invariants(outcome)
        if against_oracle:
            problems += verify.differences(
                verify.comparable(outcome.result), self.oracle[outcome.name],
                path=outcome.name)
        return problems


#: ExecutionReport fields summed per op into the ``graph.*`` count metrics.
GRAPH_COUNTS = {
    "tasks_planned": "tasks_before_optimization",
    "tasks_executed": "tasks_executed",
    "shared_tasks": "shared_tasks",
    "cache_hits": "cache_hits",
    "projected_parses": "projected_parses",
    "full_parses": "full_parses",
    "chunks_reused": "chunks_reused",
}


def op_facts(result: Any) -> Dict[str, int]:
    """Counters one op's result carries, read as the caller receives them.

    ``shipped`` stands in for ``RunStats.shipped``, which no public result
    surfaces: on a sidecar-routed source every executed parse task consults
    the sidecar exactly once, and the sidecar counters are process-local,
    so executed parses the coordinator's counters did *not* see ran in a
    worker process.
    """
    if hasattr(result, "sections"):
        reports, sidecar = result.execution_reports, result.sidecar_stats
        predicate, incremental = result.predicate_stats, result.incremental_stats
    else:
        meta = result.meta
        reports = meta.get("execution_reports", [])
        sidecar, predicate = meta.get("sidecar", {}), meta.get("predicate", {})
        incremental = meta.get("incremental", {})
    facts = {metric: sum(getattr(report, field) for report in reports)
             for metric, field in GRAPH_COUNTS.items()}
    facts["sidecar_hits"] = sidecar.get("sidecar_hits", 0)
    facts["sidecar_misses"] = sidecar.get("sidecar_misses", 0)
    facts["chunks_skipped"] = predicate.get("chunks_skipped", 0)
    facts["chunks_new"] = incremental.get("chunks_new", 0)
    parses = facts["projected_parses"] + facts["full_parses"]
    facts["shipped"] = max(0, parses - facts["sidecar_hits"]
                           - facts["sidecar_misses"]) \
        if sidecar.get("enabled") else 0
    return facts


def confine_to_one_cpu() -> None:
    """Keep this process, and every thread it starts from now on, on one CPU.

    Run before a *threaded* workload starts.  Its chunk tasks are Python
    bound by the interpreter lock, so a second core adds nothing — but the
    kernel either keeps the two worker threads on one core or spreads them
    over two, where every hand-over of the lock is a cross-core wake-up (the
    convoy: 590 k voluntary context switches per run, 6 s of system time,
    ``report_s`` 2.07 s instead of 1.10 s on ``csv_cold``).  Which one it
    does flips for minutes at a time with whatever else the machine runs, so
    unconfined the workload measures that, not the program (README.md,
    "One CPU for the threaded workloads").  The highest-numbered CPU is the
    one least used by kernel threads.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def release_cpus() -> None:
    """Undo :func:`confine_to_one_cpu` for the calling thread and what it
    starts next (a process pool needs its workers on separate CPUs)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, range(os.cpu_count() or 1))


def spread_pool_workers() -> None:
    """Give every worker of the started process pool a CPU of its own.

    Left to the kernel, the two workers of ``multi_process`` end up on
    separate CPUs or — pulled by the coordinator that wakes them — on one,
    and stay there for minutes: ``report_s`` 0.95 s or 1.13 s from the same
    code (README.md, "One CPU for the threaded workloads").  The coordinator
    stays free; it computes only while the workers wait.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        for index, child in enumerate(multiprocessing.active_children()):
            os.sched_setaffinity(child.pid, {cpus[index % len(cpus)]})


def stop_process_pools() -> None:
    """Shut the program's shared process pools down and wait for the workers."""
    ProcessExecutor(max_workers=WORKERS).discard()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _read_bytes(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None
