"""Multi-file scanning: throughput, warm-cache replay, cross-process keys.

Three claims of the multi-file ``FrameSource`` backend, sized to run in
seconds so CI can smoke it on every push:

1. **Scan throughput** — ``scan_csv([a, b, c])`` performs one quote-aware
   layout pass per file plus one bounded preview parse; the cost scales
   with the bytes on disk, not with the analysis that follows.
2. **Warm-cache replay** — a second ``create_report`` built from *brand
   new* ``scan_csv`` handles over the unchanged files is served largely
   from the cross-call intermediate cache: partition task keys derive from
   ``(path, byte ranges, (size, mtime_ns) stamp)``, not from object
   identity, so re-opening the dataset does not re-parse it.
3. **Cross-process key stability** — the same derivation in a separate
   python process yields byte-identical cache keys, the property that
   would let a persisted cache stay warm across sessions.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import time
from typing import List

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro import create_report, scan_csv
from repro.graph import TaskCache, set_global_cache
from repro.graph.partition import PartitionedFrame

#: Number of part files and target on-disk bytes per file (smoke-sized).
N_FILES = 3
FILE_BYTES = 1_200_000

CHUNK_ROWS = 10_000


@pytest.fixture(scope="module")
def part_files(tmp_path_factory) -> List[str]:
    """N_FILES CSV parts with a shared schema (one logical dataset)."""
    directory = tmp_path_factory.mktemp("multifile_bench")
    rng = np.random.default_rng(5)
    paths = []
    for index in range(N_FILES):
        path = str(directory / f"part-{index}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["price", "size", "rating", "city"])
            while os.path.getsize(path) < FILE_BYTES:
                block = 20_000
                writer.writerows(zip(
                    rng.normal(250_000, 60_000, block).round(2),
                    rng.normal(1_800, 400, block).round(1),
                    rng.integers(1, 6, block),
                    rng.choice(["vancouver", "toronto", "montreal"], block)))
                handle.flush()
        paths.append(path)
    return paths


def _partition_cache_keys(paths: List[str]) -> List[str]:
    """Keys of every partition parse task of the dataset.

    A task's key is the hash of what it computes, so it is also the key the
    cross-call cache stores the parse under.
    """
    source = scan_csv(paths, chunk_rows=CHUNK_ROWS)
    partitions = PartitionedFrame.from_source(source).partitions
    assert all(part.graph[part.key].cacheable for part in partitions)
    return [part.key for part in partitions]


_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from benchmarks.bench_multifile import _partition_cache_keys
for key in _partition_cache_keys({paths!r}):
    print(key)
"""


def test_multifile_scan_throughput_and_warm_replay(part_files):
    total_bytes = sum(os.path.getsize(path) for path in part_files)

    # 1. Layout-scan throughput over all files.
    started = time.perf_counter()
    source = scan_csv(part_files, chunk_rows=CHUNK_ROWS)
    scan_seconds = time.perf_counter() - started
    n_rows = source.n_rows

    # 2. Cold report, then a warm replay from brand-new scan handles.
    set_global_cache(TaskCache())
    started = time.perf_counter()
    cold = create_report(source)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = create_report(scan_csv(part_files, chunk_rows=CHUNK_ROWS))
    warm_seconds = time.perf_counter() - started

    cold_hits = sum(report.cache_hits for report in cold.execution_reports)
    warm_hits = sum(report.cache_hits for report in warm.execution_reports)
    warm_executed = sum(report.tasks_executed
                        for report in warm.execution_reports)
    cold_executed = sum(report.tasks_executed
                        for report in cold.execution_reports)

    print_header(
        f"Multi-file scan — {len(part_files)} files, "
        f"{total_bytes / 1e6:.1f} MB, {n_rows} rows")
    print(f"layout scan   {scan_seconds:8.2f} s  "
          f"({total_bytes / 1e6 / max(scan_seconds, 1e-9):.0f} MB/s)")
    print(f"cold report   {cold_seconds:8.2f} s  "
          f"(tasks executed {cold_executed}, cache hits {cold_hits})")
    print(f"warm replay   {warm_seconds:8.2f} s  "
          f"(tasks executed {warm_executed}, cache hits {warm_hits})")

    assert cold.section_names == warm.section_names
    assert n_rows > 0
    # The warm replay must be served from the cache: fresh handles, same
    # (path, byte range, stamp) keys.
    assert warm_hits > 0, "fresh scan handles must hit the cross-call cache"
    assert warm_executed < cold_executed, \
        "a warm replay over unchanged files must execute fewer tasks"


def test_multifile_partition_keys_stable_across_processes(part_files):
    """The keys a persisted cache would be addressed by are process-free."""
    local_keys = _partition_cache_keys(part_files)
    assert all(key is not None for key in local_keys), \
        "partition parse tasks must be cacheable"

    src_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = _SUBPROCESS_SCRIPT.format(src=src_root, paths=list(part_files))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, os.path.dirname(src_root), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    remote_keys = result.stdout.split()

    print_header("Cross-process cache-key stability")
    print(f"{len(local_keys)} partition tasks, keys identical: "
          f"{remote_keys == local_keys}")
    assert remote_keys == local_keys
