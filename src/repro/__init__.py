"""repro — a reproduction of DataPrep.EDA (SIGMOD 2021).

Task-centric exploratory data analysis in Python, built from scratch on top
of three substrates implemented in this package: a columnar DataFrame
(:mod:`repro.frame`), a lazy task-graph execution engine (:mod:`repro.graph`)
and an SVG/HTML render layer (:mod:`repro.render`).

Public API
----------
* :func:`repro.plot`, :func:`repro.plot_correlation`, :func:`repro.plot_missing`
  — the task-centric EDA functions (Figure 2 of the paper).
* :func:`repro.create_report` — the full profile report (Table 2 workload).
* :func:`repro.read_csv` / :class:`repro.DataFrame` — data ingestion.
* :func:`repro.cache_stats` / :func:`repro.clear_cache` — the cross-call
  intermediate cache that makes repeated calls on the same frame fast.

Quickstart
----------
>>> import repro
>>> df = repro.read_csv("houses.csv")
>>> repro.plot(df, "price")            # univariate analysis
>>> repro.plot_correlation(df)          # correlation matrices (warm: reuses
...                                     # the partition scans of the plot call)
>>> repro.plot_missing(df, "price")     # missing-value impact
>>> repro.create_report(df).save("report.html")
>>> repro.cache_stats()["hits"]         # work avoided across those calls
"""

from typing import Any, Dict

from repro.frame import (
    Column,
    CsvSource,
    DataFrame,
    FilteredSource,
    FrameSource,
    InMemorySource,
    MultiFileCsvSource,
    Predicate,
    SourceCapabilities,
    SourcePartition,
    as_source,
    compile_predicate,
    read_csv,
    scan_csv,
    write_csv,
)
from repro.eda import Config, plot, plot_correlation, plot_missing
from repro.frame.source import refresh_input
from repro.graph import clear_global_cache, get_global_cache
from repro.report import Report, create_report

__version__ = "0.1.0"


def cache_stats() -> Dict[str, Any]:
    """Counters of the process-wide intermediate cache (hits, misses, bytes)."""
    return get_global_cache().stats.as_dict()


def refresh(handle: Any) -> Any:
    """Re-resolve an EDA handle against the current on-disk state.

    ``refresh(report)`` recomputes a :class:`Report` from its remembered
    source (equivalent to ``report.refresh()``); any other handle — a
    ``scan_csv`` result, a streaming source, a filtered view — is
    re-resolved in place of its files.  Appends are recognised as growth:
    the refreshed handle's unchanged chunks keep their per-chunk content
    stamps, so the next EDA call reuses their cached sketch states and
    executes only the new chunks (``meta["incremental"]`` /
    ``Report.incremental_stats`` count the reuse).  In-memory inputs pass
    through unchanged.
    """
    if isinstance(handle, Report):
        return handle.refresh()
    return refresh_input(handle)


def clear_cache() -> None:
    """Empty the process-wide intermediate cache.

    Note this is *not* a substitute for
    :meth:`DataFrame.invalidate_fingerprint` after mutating numpy buffers
    in place: the stale fingerprint is cached on the frame object itself,
    so plotting the mutated frame would repopulate the cache under the old
    key. Always invalidate the frame's fingerprint; clear the cache to
    reclaim memory."""
    clear_global_cache()


__all__ = [
    "Column",
    "Config",
    "CsvSource",
    "DataFrame",
    "FilteredSource",
    "FrameSource",
    "InMemorySource",
    "MultiFileCsvSource",
    "Predicate",
    "Report",
    "SourceCapabilities",
    "SourcePartition",
    "as_source",
    "cache_stats",
    "clear_cache",
    "compile_predicate",
    "create_report",
    "plot",
    "plot_correlation",
    "plot_missing",
    "read_csv",
    "refresh",
    "refresh_input",
    "scan_csv",
    "write_csv",
    "__version__",
]
