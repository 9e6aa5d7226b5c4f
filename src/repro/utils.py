"""Small dependency-free helpers shared across layers.

This module sits below every other ``repro`` package so that neutral
utilities — currently the default execution concurrency — can be shared by
the graph layer, the compute layer and the I/O layer without any of them
importing each other.  (``default_worker_count`` used to live in
``repro.frame.io``, which forced the scheduler and the compute context to
reach *down* into the I/O layer for a number that has nothing to do with
CSV parsing.)
"""

from __future__ import annotations

import os


def default_worker_count() -> int:
    """Default execution concurrency: bounded CPU count.

    The single source of truth shared by the threaded and process
    schedulers, the compute context and ``scan_csv``'s budget math — if
    these diverged, the context's worker-aware chunk-size re-derivation
    would disagree with the scan's and every warm EDA call would pay a
    full-file layout rescan.
    """
    return min(8, os.cpu_count() or 4)
