"""Out-of-core streaming: full report over a CSV ~10x the memory budget.

The acceptance claim of the streaming subsystem: ``create_report`` over a
``scan_csv`` input completes with peak traced memory within ~2x the budget
passed as ``scan_csv(budget_bytes=...)`` even when the file is an order of
magnitude larger, while the in-memory path's peak scales with the file.

Peak memory is measured with ``tracemalloc`` (numpy buffers and python
strings are both traced), which is deterministic across runs; note it slows
the traced runs several-fold, so the wall-clock comparison is taken from a
separate untraced run.
"""

from __future__ import annotations

import csv
import os
import time
import tracemalloc
from typing import Tuple

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro import create_report, read_csv, scan_csv
from repro.graph import TaskCache, set_global_cache

#: The streaming memory budget under test.
BUDGET_BYTES = 4 * 1024 * 1024

#: The file must be at least this many times the budget.
FILE_BUDGET_RATIO = 10

#: Acceptance bound: streaming peak within ~2x the budget.
PEAK_BUDGET_BOUND = 2.0

STREAM_CONFIG = {
    "cache.enabled": False,      # measure the engine, not cache retention
    "cache.disk_enabled": False,  # nor the parsed-chunk disk sidecar
}


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory) -> str:
    """A CSV at least FILE_BUDGET_RATIO x BUDGET_BYTES on disk."""
    path = str(tmp_path_factory.mktemp("outofcore") / "big.csv")
    rng = np.random.default_rng(0)
    block = 100_000
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["price", "size", "rating", "city"])
        while os.path.getsize(path) < FILE_BUDGET_RATIO * BUDGET_BYTES + 500_000:
            writer.writerows(zip(
                rng.normal(250_000, 60_000, block).round(2),
                rng.normal(1_800, 400, block).round(1),
                rng.integers(1, 6, block),
                rng.choice(["vancouver", "toronto", "montreal", "calgary"],
                           block)))
            handle.flush()
    return path


def _run_streaming(path: str) -> Tuple[float, object]:
    started = time.perf_counter()
    scan = scan_csv(path, budget_bytes=BUDGET_BYTES, inference_rows=2_000)
    report = create_report(scan, config=STREAM_CONFIG)
    return time.perf_counter() - started, report


def _run_in_memory(path: str) -> Tuple[float, object]:
    started = time.perf_counter()
    frame = read_csv(path)
    report = create_report(frame, config={"cache.enabled": False})
    return time.perf_counter() - started, report


def _traced(run, path: str) -> Tuple[float, int, object]:
    set_global_cache(TaskCache())
    tracemalloc.start()
    try:
        seconds, report = run(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return seconds, peak, report


def test_outofcore_report_stays_within_memory_budget(benchmark, big_csv):
    file_size = os.path.getsize(big_csv)
    assert file_size >= FILE_BUDGET_RATIO * BUDGET_BYTES

    # Untraced wall-clock (tracemalloc distorts time several-fold).
    set_global_cache(TaskCache())
    streaming_seconds, report = benchmark.pedantic(
        lambda: _run_streaming(big_csv), rounds=1, iterations=1,
        warmup_rounds=0)
    memory_seconds, _ = _run_in_memory(big_csv)

    # Traced peaks.
    traced_stream_seconds, streaming_peak, _ = _traced(_run_streaming, big_csv)
    traced_memory_seconds, memory_peak, _ = _traced(_run_in_memory, big_csv)

    print_header(
        f"Out-of-core report — file {file_size / 1e6:.1f} MB, "
        f"budget {BUDGET_BYTES / 1e6:.1f} MB "
        f"({file_size / BUDGET_BYTES:.1f}x)")
    print(f"{'mode':12s} {'wall s':>8s} {'traced s':>9s} "
          f"{'peak MB':>9s} {'peak/budget':>12s}")
    for mode, wall, traced_seconds, peak in (
            ("streaming", streaming_seconds, traced_stream_seconds,
             streaming_peak),
            ("in-memory", memory_seconds, traced_memory_seconds, memory_peak)):
        print(f"{mode:12s} {wall:8.1f} {traced_seconds:9.1f} "
              f"{peak / 1e6:9.2f} {peak / BUDGET_BYTES:12.2f}x")
    print(f"in-memory/streaming peak: {memory_peak / streaming_peak:.1f}x")

    # Acceptance: the report completed, its sections are all there, and the
    # streaming peak honours the budget while the in-memory peak cannot.
    assert report.section_names == ["Overview", "Correlations",
                                    "Missing Values"]
    assert streaming_peak <= PEAK_BUDGET_BOUND * BUDGET_BYTES, \
        f"streaming peak {streaming_peak / 1e6:.1f} MB exceeds " \
        f"{PEAK_BUDGET_BOUND}x budget"
    assert memory_peak > streaming_peak, \
        "materializing the file should cost more than streaming it"


@pytest.fixture(scope="module")
def split_csvs(big_csv, tmp_path_factory) -> Tuple[str, str]:
    """The big CSV split into two files at a record boundary near the middle."""
    directory = tmp_path_factory.mktemp("outofcore_multi")
    first = str(directory / "part-0.csv")
    second = str(directory / "part-1.csv")
    with open(big_csv, "rb") as handle:
        header = handle.readline()
        payload = handle.read()
    cut = payload.index(b"\n", len(payload) // 2) + 1
    with open(first, "wb") as handle:
        handle.write(header)
        handle.write(payload[:cut])
    with open(second, "wb") as handle:
        handle.write(header)
        handle.write(payload[cut:])
    return first, second


def test_outofcore_multifile_report_stays_within_memory_budget(split_csvs):
    """Two files ~10x the budget combined must stream like one file would."""
    combined_size = sum(os.path.getsize(path) for path in split_csvs)
    assert combined_size >= FILE_BUDGET_RATIO * BUDGET_BYTES

    def run(_unused_path: str) -> Tuple[float, object]:
        started = time.perf_counter()
        source = scan_csv(list(split_csvs), budget_bytes=BUDGET_BYTES,
                          inference_rows=2_000)
        report = create_report(source, config=STREAM_CONFIG)
        return time.perf_counter() - started, report

    seconds, peak, report = _traced(run, "")

    print_header(
        f"Out-of-core multi-file report — {len(split_csvs)} files, "
        f"{combined_size / 1e6:.1f} MB combined, "
        f"budget {BUDGET_BYTES / 1e6:.1f} MB "
        f"({combined_size / BUDGET_BYTES:.1f}x)")
    print(f"traced {seconds:.1f} s, peak {peak / 1e6:.2f} MB "
          f"({peak / BUDGET_BYTES:.2f}x budget)")

    assert report.section_names == ["Overview", "Correlations",
                                    "Missing Values"]
    assert peak <= PEAK_BUDGET_BOUND * BUDGET_BYTES, \
        f"multi-file streaming peak {peak / 1e6:.1f} MB exceeds " \
        f"{PEAK_BUDGET_BOUND}x budget"
