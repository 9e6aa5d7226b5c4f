"""The full set: every workload in a fresh subprocess, every metric by name.

    python3 -m perfbench [--seed N] [--workload NAME ...] [--repeat K] [--quick]

Each workload is measured twice by ``perfbench.run`` — tracing off for the
end-to-end metrics, then a traced run for the per-layer metrics — each in
its own process, so no cache, pool or allocator state leaks between
workloads and ``peak_rss_mb`` is the workload's own.  A full set (every
workload, default size) is written to ``perfbench/results/<commit>.json``
(the committed trajectory) next to the four ``trace_<workload>.json`` span
files; a partial or ``--quick`` set, one with a failed op, and sets that
disagree are only printed.  ``--repeat 2`` runs two full sets and exits
non-zero when any end-to-end metric differs between them — in either
direction — by more than its bound; any failed op also exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from perfbench.metrics import relative_gap
from perfbench.run import RESULTS_DIR, ROOT, WORK_ROOT, load_spec


#: A run whose own samples of one op spread (quartile distance / median) by
#: more than this was disturbed while it measured: 1-5 % is normal here, and
#: it is a third of the timing bounds.
UNSTEADY_SHARE = 0.08


def _commit() -> str:
    """``HEAD``, with ``-dirty`` when the tree measured is not that commit."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7",
             "--exclude=*"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"          # a checkout that is not a git repository


def _measure(workload: str, trace: int, args: argparse.Namespace,
             seconds: int) -> Dict[str, Any]:
    """One ``perfbench.run`` subprocess; returns its detail record."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    handle, detail = tempfile.mkstemp(suffix=".json", dir=WORK_ROOT)
    os.close(handle)
    command = [sys.executable, "-m", "perfbench.run", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace), "--detail", detail]
    if args.quick:
        command.append("--quick")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        if completed.returncode != 0:
            raise SystemExit(f"{' '.join(command)} exited "
                             f"{completed.returncode}:\n{completed.stderr}")
        with open(detail, "r", encoding="utf-8") as stream:
            return json.load(stream)
    finally:
        os.remove(detail)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def run_set(args: argparse.Namespace, spec: Dict[str, Any],
            workloads: List[str]) -> Dict[str, Any]:
    """Measure every workload once (both modes) and print its metrics."""
    seconds = spec["run_seconds"]
    measured: Dict[str, Any] = {}
    for workload in workloads:
        started = time.perf_counter()
        runs = [_measure(workload, 0, args, seconds)]
        if not args.quick:             # --quick keeps to the 30 s it promises
            runs.append(_measure(workload, 1, args, seconds))
        plain, traced = runs[0], runs[-1]
        attempted = sum(run["result"]["attempted"] for run in runs)
        failed = sum(run["result"]["failed"] for run in runs)
        measured[workload] = {
            "header": plain["header"],
            "end_to_end": plain["result"]["metrics"],
            "per_layer": traced["result"]["metrics"] if len(runs) > 1 else {},
            "attempted": attempted, "failed": failed,
            "fail_share": failed / attempted,
            "problems": [problem for run in runs for problem in run["problems"]],
        }
        print(f"\n== {workload}  ({time.perf_counter() - started:.1f} s, "
              f"{plain['header']['iterations']} timed iterations, "
              f"fail_share {failed}/{attempted})")
        for problem in measured[workload]["problems"]:
            print(f"   FAILED {problem}")
        for kind in ("end_to_end", "per_layer"):
            for name, metric in measured[workload][kind].items():
                print(f"   {name:42s} {metric['value']:14.6f} {metric['unit']}")
    return measured


def compare(first: Dict[str, Any], second: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    """Print both sets side by side; returns how many metrics disagree.

    Both sets measure the same code, so neither is the baseline: a second
    set that is *faster* by more than the bound is as much a disagreement
    as a slower one (one of the two was hit by something else).
    """
    disagreements = 0
    print(f"\n{'workload':14s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'gap':>8s} {'bound':>6s}")
    for workload in first:
        before = disagreements
        for metric in spec["end_to_end"]:
            name = metric["name"]
            one = first[workload]["end_to_end"][name]["value"]
            two = second[workload]["end_to_end"][name]["value"]
            gap = relative_gap(one, two)
            apart = gap > metric["bound"]
            disagreements += apart
            print(f"{workload:14s} {name:14s} {one:12.4f} {two:12.4f} "
                  f"{gap * 100:7.2f}% {metric['bound'] * 100:5.0f}%"
                  f"{'  DISAGREE' if apart else ''}")
        if disagreements == before:
            continue
        # Say which of the two sets to distrust, when a run can tell.
        for label, measured in (("first", first), ("second", second)):
            unsteady = {op: share for op, share in
                        measured[workload]["header"]["within_run_spread"].items()
                        if share > UNSTEADY_SHARE}
            if unsteady:
                print(f"{workload:14s} the {label} set ran on an unsteady host ("
                      + ", ".join(f"{op} samples spread {share * 100:.0f}%"
                                  for op, share in unsteady.items()) + ")")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names,
                        help="measure only this workload (repeatable; "
                             "writes no result file)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets to run; 2 compares them against the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 of the rows, three iterations, all checks on; "
                             "end-to-end only (no traced run), writes no result file")
    args = parser.parse_args(argv)

    sets = [run_set(args, spec, args.workload or names)
            for _ in range(max(1, args.repeat))]
    failed = sum(entry["failed"] for one in sets for entry in one.values())
    apart = sum(compare(sets[0], later, spec) for later in sets[1:])
    if failed:
        print(f"{failed} op(s) failed verification", file=sys.stderr)
    if apart:
        print(f"{apart} metric(s) differ between sets by more than their bound",
              file=sys.stderr)
    if args.quick or args.workload or failed or apart:
        return 1 if failed or apart else 0    # nothing worth keeping
    commit = _commit()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{commit}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"commit": commit, "seed": args.seed,
                   "command": spec["command"], "sets": sets},
                  stream, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
