"""One workload, one process: the command ``BENCHMARK.json`` records.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets up twice (``setup_s`` is the median), builds the oracle,
then runs timed iterations with tracing off for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` sets up once, spends
``--seconds`` on untraced then traced iterations, runs the staged layer
pass, writes the spans to ``perfbench/results/trace_<workload>.json`` and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Metric names and units are read from ``BENCHMARK.json`` — the definition —
so the harness cannot print a set that differs from the declared one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")
#: Inputs, sidecars and reports live here during a run and are removed at
#: exit; inside the checkout because a run may write nowhere else.
WORK_ROOT = os.path.join(ROOT, "perfbench", ".work")

#: Set-ups per run; each is a cold pass over the input (csv_warm: 4.5 s), and
#: a third one would add 250 s to the driver's 92 runs.
SETUP_REPEATS = 2
#: The tail of the pooled follow-up samples (each relative to its op's
#: median) is reported at this percentile, the highest a run can support: a
#: percentile needs ten samples beyond it (``metrics.supported_percentile``),
#: and a run completes the iterations that pool ``MIN_POOLED`` follow-up
#: samples even if ``--seconds`` elapses first (seven with six follow-ups,
#: five with eight).
TAIL_PERCENTILE = 75
MIN_POOLED = 40
#: Share of ``--seconds`` a traced run spends with tracing still off (the
#: baseline for ``trace.overhead_share`` and the ``op.*`` medians).
UNTRACED_SHARE = 0.6


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/10 of the rows, three iterations, all checks on")
    parser.add_argument("--detail", default=None,
                        help="also write header, metrics and problems to this JSON file")
    return parser.parse_args(argv)


class Run:
    """State of one measuring process."""

    def __init__(self, args: argparse.Namespace, spec: Dict[str, Any],
                 import_s: float):
        from perfbench.trace import Recorder
        from perfbench.workloads import FOLLOW_UPS, WORKLOADS
        self.args = args
        self.spec = spec
        self.import_s = import_s
        self.workload = WORKLOADS[args.workload]
        self.recorder = Recorder(args.workload)
        follow_ups = len(FOLLOW_UPS) + len(self.workload.extra_ops)
        self.min_iterations = 3 if args.quick else -(-MIN_POOLED // follow_ups)
        self.samples: Dict[str, List[float]] = {}
        self.sessions: List[float] = []          # overview + follow-ups
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.iterations = 0
        self.session: Any = None
        self.warmup_report_s = 0.0

    # ------------------------------------------------------------------ #
    def set_up(self) -> float:
        """Generate inputs and warm up a fresh session; returns the seconds.

        The warm-up iteration is untimed as ops but belongs to the set-up
        time: it starts the pool, finishes lazy imports and — on the
        workload whose reset keeps them — fills the chunk sidecar and the
        zone map.  Its invariants are not checked (a sidecar being filled
        misses by design); a gap it left would fail the timed iterations.
        """
        from perfbench.workloads import Session, spread_pool_workers
        if self.session is not None:
            self.session.close()
        started = time.perf_counter()
        self.session = Session(self.workload, self.args.seed, WORK_ROOT,
                               self.recorder, quick=self.args.quick)
        outcomes = self.iteration(-1, record=False)
        self.warmup_report_s = outcomes["report"].seconds
        if self.workload.scheduler == "process":
            spread_pool_workers()           # the warm-up started the pool
        return time.perf_counter() - started

    def iteration(self, index: int, record: bool = True,
                  against_oracle: bool = False) -> Dict[str, Any]:
        """One pass of the session script; returns the outcome per op."""
        session = self.session
        self.recorder.iteration = index
        outcomes: Dict[str, Any] = {}
        source = None
        with self.recorder.span("iteration"):
            for name in session.script():
                if name in ("report", "overview"):
                    session.reset()
                outcome = session.run_op(name, source, index)
                source = outcome.source
                outcomes[name] = outcome
                if not record:
                    if outcome.problems:
                        raise RuntimeError(
                            f"warm-up op {name} failed: {outcome.problems}")
                    continue
                if not outcome.problems:
                    outcome.problems = session.check(outcome, against_oracle)
                self.attempted += 1
                if outcome.problems:
                    self.failed += 1
                    self.problems.append(
                        f"iteration {index} op {name}: {'; '.join(outcome.problems)}")
                else:
                    self.samples.setdefault(name, []).append(outcome.seconds)
        if record:
            self.iterations += 1
            after_report = [outcomes[name] for name in session.script()[1:]]
            if not any(outcome.problems for outcome in after_report):
                self.sessions.append(sum(o.seconds for o in after_report))
        return outcomes

    def iterate_for(self, seconds: float, minimum: int, first_index: int,
                    oracle_first: bool = False) -> List[Dict[str, Any]]:
        """Closed loop: iterations back to back until *seconds* have passed."""
        done: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        while len(done) < minimum or time.perf_counter() < deadline:
            if self.args.quick and len(done) >= minimum:
                break
            done.append(self.iteration(first_index + len(done),
                                       against_oracle=oracle_first and not done))
        return done

    # ------------------------------------------------------------------ #
    def end_to_end(self, setup_samples: List[float]) -> Dict[str, float]:
        from perfbench.metrics import percentile
        # The follow-ups are a handful of very different calls (4 ms to
        # 190 ms), so a percentile of the *pooled* seconds sits on the cliff
        # between two ops' populations and jumps from one to the other with
        # the iteration count (measured: task_p50 16 %, task_p75 14 % spread
        # from that alone).  The typical follow-up is therefore the median
        # of the per-op medians, and the tail is taken over the pooled
        # samples each divided by its own op's median: how much slower than
        # usual the slowest quarter of follow-up calls was, whichever call.
        medians = {name: _median(self.samples[name])
                   for name in self.session.script()[2:] if name in self.samples}
        relative = [seconds / medians[name] for name in medians
                    for seconds in self.samples[name]]
        return {
            "setup_s": self.import_s + statistics.median(setup_samples),
            "report_s": _median(self.samples.get("report")),
            "overview_s": _median(self.samples.get("overview")),
            "task_p50_s": _median(list(medians.values())),
            f"task_p{TAIL_PERCENTILE}_ratio":
                percentile(relative, TAIL_PERCENTILE) if relative else 0.0,
            "session_s": _median(self.sessions),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, untraced_medians: Dict[str, float],
                  traced: List[Dict[str, Any]], last_index: int,
                  staged: Dict[str, float],
                  cache_stats: Dict[str, Any],
                  sidecar_stats: Dict[str, int]) -> Dict[str, float]:
        from perfbench.metrics import span_self_times
        from perfbench.workloads import GRAPH_COUNTS, OP_NAMES, op_facts
        metrics = {metric["name"]: 0.0 for metric in self.spec["per_layer"]}
        metrics.update(staged)
        last = traced[-1]

        for name in OP_NAMES:
            metrics[f"op.{name}.p50_s"] = untraced_medians.get(name, 0.0)
        facts = [op_facts(outcome.result) for outcome in last.values()
                 if outcome.result is not None]
        for count in list(GRAPH_COUNTS) + ["shipped"]:
            metrics[f"graph.{count}"] = float(sum(f[count] for f in facts))
        lookups = cache_stats["hits"] + cache_stats["misses"]
        metrics["graph.cache.hit_share"] = \
            cache_stats["hits"] / lookups if lookups else 0.0
        chunk_loads = sidecar_stats["hits"] + sidecar_stats["misses"]
        metrics["frame.sidecar.hit_share"] = \
            sidecar_stats["hits"] / chunk_loads if chunk_loads else 0.0
        metrics["graph.sched.pool_start_s"] = \
            self.warmup_report_s - untraced_medians.get("report", 0.0)
        if "filtered" in last and last["filtered"].result is not None:
            metrics["frame.zonemap.chunks_skipped_share"] = \
                op_facts(last["filtered"].result)["chunks_skipped"] / \
                self.session.n_chunks

        # Spans of the last traced iteration, by (op, child) name.
        spans = [s for s in self.recorder.spans
                 if s["iteration"] == last_index]
        by_id = {s["id"]: s for s in spans}
        self_times = span_self_times(spans)

        def child(op: str, name: str, own: bool = False) -> float:
            for span in spans:
                parent = by_id.get(span["parent"])
                if span["name"] == name and parent and parent["name"] == op:
                    return self_times[span["id"]] if own \
                        else span["end"] - span["start"]
            return 0.0

        overview = last["overview"].result
        if overview is not None:
            metrics["eda.compute.graph_s"] = overview.timings.get("graph", 0.0)
            metrics["eda.compute.local_s"] = overview.timings.get("local", 0.0)
            metrics["eda.compute.self_s"] = child("overview", "compute", own=True)
        metrics["render.intermediates_s"] = child("overview", "render")
        report = last["report"].result
        if report is not None:
            for section, seconds in report.timings.items():
                metrics[f"report.section.{section}_s"] = seconds

        untraced_iteration = sum(untraced_medians.values())
        traced_iteration = statistics.median(
            sum(o.seconds for o in outcomes.values()) for outcomes in traced)
        metrics["trace.overhead_share"] = \
            traced_iteration / untraced_iteration - 1.0 if untraced_iteration else 0.0
        metrics["trace.coverage"] = _coverage(self.workload, metrics) / \
            untraced_medians["report"] if untraced_medians.get("report") else 0.0
        return metrics

    # ------------------------------------------------------------------ #
    def within_run_spread(self) -> Dict[str, float]:
        """How steady the host was *during* this run: the quartile spread of
        the two cold ops' own samples, 1-5 % when nothing else disturbs it."""
        from perfbench.metrics import quartile_spread
        return {name: quartile_spread(self.samples.get(name, []))
                for name in ("report", "overview")}

    def header(self) -> Dict[str, Any]:
        import numpy
        session = self.session
        return {
            "workload": self.workload.name, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "quick": bool(self.args.quick),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "rows_per_file": session.rows, "files": self.workload.files,
            "chunk_rows": session.chunk_rows, "n_chunks": session.n_chunks,
            "csv_bytes": session.csv_bytes, "sha256": session.digests,
            "config": {k: v for k, v in session.config.items()
                       if k != "cache.disk_dir"},
            "iterations": self.iterations,
            "samples": {name: len(values) for name, values in self.samples.items()},
            "within_run_spread": self.within_run_spread(),
        }


def _median(values: Optional[List[float]]) -> float:
    return statistics.median(values) if values else 0.0


def _coverage(workload: Any, metrics: Dict[str, float]) -> float:
    """Staged layer seconds a cold ``report`` on this workload pays for."""
    layers = ["render.report_html_s", "stats.corr_s"]
    if not workload.files:
        layers += ["frame.fingerprint.frame_s", "stats.summary_s"]
    else:
        layers += ["frame.io.layout_s", "stats.sketch_update_s",
                   "stats.sketch_merge_s"]
        layers += ["frame.sidecar.load_s"] if workload.keeps_sidecar \
            else ["frame.io.decode_s", "frame.sidecar.store_s"]
    return sum(metrics[name] for name in layers)


def measure(args: argparse.Namespace, spec: Dict[str, Any],
            import_s: float) -> Dict[str, Any]:
    """Run one workload; returns result, header and problems."""
    import repro
    from repro.frame.sidecar import stats_snapshot
    from perfbench import layers
    from perfbench.metrics import supported_percentile
    from perfbench.workloads import confine_to_one_cpu

    run = Run(args, spec, import_s)
    if run.workload.scheduler == "threaded":
        confine_to_one_cpu()
    try:
        repeats = 1 if (args.trace or args.quick) else SETUP_REPEATS
        setup_samples = [run.set_up() for _ in range(repeats)]
        run.session.build_oracle()
        kind = "per_layer" if args.trace else "end_to_end"
        if not args.trace:
            run.iterate_for(args.seconds, run.min_iterations, 0, oracle_first=True)
            values = run.end_to_end(setup_samples)
            pooled = sum(len(run.samples.get(name, []))
                         for name in run.session.script()[2:])
            print("# within-run quartile spread: " + ", ".join(
                f"{name} {share * 100:.1f}%"
                for name, share in run.within_run_spread().items()))
            print(f"# follow-up samples pooled: {pooled}; highest percentile "
                  f"with >= 10 samples beyond it: "
                  f"p{supported_percentile(pooled) or 0:.0f} "
                  f"(reported: p{TAIL_PERCENTILE})")
        else:
            repro.clear_cache()
            cache_before = repro.cache_stats()
            sidecar_before = stats_snapshot()
            run.iterate_for(args.seconds * UNTRACED_SHARE, run.min_iterations, 0,
                            oracle_first=True)
            cache_after, sidecar_after = repro.cache_stats(), stats_snapshot()
            untraced = {name: _median(values)
                        for name, values in run.samples.items()}
            run.recorder.enabled = True
            traced = run.iterate_for(args.seconds * (1 - UNTRACED_SHARE), 1,
                                     run.iterations)
            last_index = run.recorder.iteration
            try:
                staged = layers.staged_pass(run.session, run.recorder,
                                            traced[-1]["report"].result)
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                staged = {}
                run.failed += 1
                run.problems.append(
                    f"staged layer pass raised {type(error).__name__}: {error}")
            run.attempted += 1
            run.recorder.enabled = False
            values = run.per_layer(
                untraced, traced, last_index, staged,
                {key: cache_after[key] - cache_before[key]
                 for key in ("hits", "misses")},
                {key: sidecar_after[key] - sidecar_before[key]
                 for key in ("hits", "misses")})
        header = run.header()
        if args.trace:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            run.recorder.dump(os.path.join(
                RESULTS_DIR, f"trace_{args.workload}.json"), header)
    finally:
        if run.session is not None:
            run.session.close()
        try:
            os.rmdir(WORK_ROOT)       # only when no other run is using it
        except OSError:
            pass
    metrics = {metric["name"]: {"value": float(values[metric["name"]]),
                                "unit": metric["unit"]}
               for metric in spec[kind]}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return {"result": result, "header": header, "problems": run.problems}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source_dir = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source_dir, "repro")):
        print(f"perfbench: no program to measure: {source_dir}/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, source_dir)
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: import cost is part of setup_s
    import perfbench.layers  # noqa: F401
    import_s = time.perf_counter() - started

    outcome = measure(args, spec, import_s)
    result = outcome["result"]
    for problem in outcome["problems"][:20]:
        print(f"# FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} iterations="
          f"{outcome['header']['iterations']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}")
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(outcome, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
