"""The task-centric API: ``plot``, ``plot_correlation`` and ``plot_missing``.

Each function implements one row family of the Figure 2 mapping rules and
follows the common signature ``plot_tasktype(df, col_list, config)``: no
columns means overview analysis, one or two columns mean detailed analysis.

Every call returns a :class:`~repro.render.layout.Container` — the tabbed
layout of charts, statistics, insights and how-to guides — unless
``mode="intermediates"`` is passed.

The ``mode="intermediates"`` escape hatch
-----------------------------------------
With ``mode="intermediates"`` the call skips rendering and returns the raw
:class:`~repro.eda.intermediates.Intermediates` — every computed value the
charts would be drawn from (histogram counts and edges, summary statistics,
correlation matrices, ...) — for use with any other plotting library.  The
returned object also carries ``timings`` (seconds per pipeline stage) and
``meta["execution_reports"]`` (the scheduler's
:class:`~repro.graph.scheduler.RunStats` of each graph stage, including
cache hits), which is how the benchmarks observe the pipeline.

Interactive sessions and the ``cache.*`` config keys
----------------------------------------------------
Repeated calls on the same frame — the paper's interactive usage pattern,
``plot(df)`` then ``plot(df, "x")`` then ``plot_correlation(df)`` — share a
process-wide content-addressed cache of intermediates
(:mod:`repro.graph.cache`), so later calls skip the partition slices,
summaries and histograms earlier calls already computed.  Two dotted config
keys control it:

* ``cache.enabled`` (default ``True``) — attach the cross-call cache; set
  to ``False`` to recompute everything from scratch on every call.
* ``cache.max_bytes`` (default 256 MiB) — LRU byte budget.  The cache is
  process-wide, so explicitly passing this key resizes the shared budget
  (pass the default value to restore it); calls that omit it never
  resize, and it has no effect in a call that also sets
  ``cache.enabled`` to ``False``.

Example: ``plot(df, "x", config={"cache.enabled": False})``.  Inspect or
reset the cache with :func:`repro.cache_stats` / :func:`repro.clear_cache`.

Execution backend: the ``compute.scheduler`` config key
-------------------------------------------------------
The graph stage runs on a pluggable scheduler: ``"threaded"`` (default),
``"process"`` (a true multiprocess pool — scales GIL-bound chunk work such
as streaming CSV parsing across cores; pair it with ``scan_csv`` inputs),
``"remote"`` (socket worker processes, here or on other hosts; see the
``compute.remote.*`` keys) or ``"synchronous"``.  ``compute.max_workers``
bounds the worker count for every backend.  Example:
``plot(df, config={"compute.scheduler": "process"})``.  All four backends
produce identical results for every compute kind.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.eda.compute import (
    compute_bivariate,
    compute_correlation_overview,
    compute_correlation_pair,
    compute_correlation_single,
    compute_missing_overview,
    compute_missing_pair,
    compute_missing_single,
    compute_overview,
    compute_univariate,
)
from repro.eda.config import Config
from repro.eda.intermediates import Intermediates
from repro.errors import EDAError, FrameError
from repro.frame.frame import DataFrame
from repro.frame.predicate import PredicateError, compile_predicate
from repro.frame.source import FilteredSource, as_source

_VALID_MODES = ("container", "intermediates")


def _apply_where(df: Any, where: Any) -> Any:
    """Resolve the ``where=`` filter against the input before computing.

    A filter that compiles to the predicate IR (a ``(column, op, literal)``
    triple, a list of such triples ANDed together, a
    :class:`~repro.frame.predicate.Predicate`, or a comparison built from a
    scan's column expression like ``scan.price > 0``) is **pushed down**:
    in-memory frames are filtered eagerly with one vectorized boolean mask,
    while streaming sources are wrapped in a
    :class:`~repro.frame.source.FilteredSource` so the filter runs inside
    every chunk's parse task and the zone maps can skip whole chunks.

    Anything else the IR cannot express — a callable ``frame -> bool
    mask``, or a precomputed boolean array — still works, but cannot be
    pushed into the scan: the input is materialized in full (announced with
    a :class:`UserWarning`) and filtered in memory.
    """
    if where is None:
        return df
    source = as_source(df)
    try:
        predicate = compile_predicate(where)
    except PredicateError as error:
        return _fallback_filter(source, where, error)
    if source.capabilities.exact:
        frame = source.to_frame()
        return frame.filter(predicate.mask(frame))
    return FilteredSource(source, predicate)


def _fallback_filter(source: Any, where: Any, error: PredicateError):
    """Materialize-and-filter for ``where=`` shapes the IR cannot push."""
    if not callable(where) and not isinstance(where, np.ndarray):
        raise EDAError(
            f"unsupported where= filter: {error}; pass a (column, op, "
            f"literal) triple, a list of triples, a Predicate, a callable "
            f"frame -> boolean mask, or a boolean numpy array") from None
    if not source.capabilities.exact:
        warnings.warn(
            "this where= filter cannot be pushed into the scan (it is not "
            "a column-vs-literal predicate): materializing the full input "
            "to apply it — peak memory is no longer bounded for this call",
            UserWarning, stacklevel=3)
    frame = source.to_frame()
    mask = np.asarray(where(frame) if callable(where) else where)
    if mask.dtype != np.bool_ or mask.shape != (len(frame),):
        raise EDAError(
            f"a where= callable/array must produce a boolean mask of "
            f"length {len(frame)}; got dtype={mask.dtype}, "
            f"shape={mask.shape}")
    return frame.filter(mask)


#: Each task family's compute functions by the number of columns named.
_TASKS = {
    "plot": (compute_overview, compute_univariate, compute_bivariate),
    "plot_correlation": (compute_correlation_overview,
                         compute_correlation_single, compute_correlation_pair),
    "plot_missing": (compute_missing_overview, compute_missing_single,
                     compute_missing_pair),
}


def _run(task: str, df: Any, col1: Optional[str], col2: Optional[str],
         config: Optional[Mapping[str, Any]],
         display: Optional[Sequence[str]], mode: str, where: Any):
    """The one body of every ``plot*`` call: check the input, filter the
    rows, compute the family's intermediates for the columns named, keep
    the items *display* selects and render them unless *mode* asks for
    the intermediates."""
    try:
        as_source(df)   # any FrameSource: DataFrame, scan_csv handle, custom
    except FrameError as error:
        raise EDAError(f"the first argument must be an EDA input: {error}") \
            from None
    if mode not in _VALID_MODES:
        raise EDAError(f"mode must be one of {_VALID_MODES}, got {mode!r}")
    cfg = Config.from_user(config)
    df = _apply_where(df, where)
    if col1 is None and col2 is not None:
        raise EDAError("col1 must be provided when col2 is given")
    columns = [name for name in (col1, col2) if name is not None]
    intermediates = _TASKS[task][len(columns)](df, *columns, cfg)
    _select(intermediates, display)
    if mode == "intermediates":
        return intermediates
    call = task + "(df" + "".join(f', "{name}"' for name in columns) + ")"
    from repro.render import render_intermediates
    return render_intermediates(intermediates, cfg, call=call)


def _select(intermediates: Intermediates,
            display: Optional[Sequence[str]]) -> None:
    """Keep only the items named in *display* (case-insensitive), in the
    order the compute step built them, and the insights about those items;
    everything when *display* is None."""
    if display is None:
        return
    wanted = {name.lower() for name in display}
    kept = {name: data for name, data in intermediates.items.items()
            if name.lower() in wanted}
    if not kept:
        raise EDAError(f"display={list(display)!r} selects none of this "
                       f"call's items: {list(intermediates.items)}")
    intermediates.items = kept
    intermediates.insights = [insight for insight in intermediates.insights
                              if insight.item in kept]


def plot(df: DataFrame, col1: Optional[str] = None, col2: Optional[str] = None,
         *, config: Optional[Mapping[str, Any]] = None,
         display: Optional[Sequence[str]] = None,
         mode: str = "container", where: Any = None):
    """Overview, univariate or bivariate analysis (Figure 2, rows 1-3).

    * ``plot(df)`` — "I want an overview of the dataset."
    * ``plot(df, col1)`` — "I want to understand col1."
    * ``plot(df, col1, col2)`` — "I want to understand the relationship
      between col1 and col2."

    Parameters
    ----------
    df:
        The DataFrame to analyse — or any
        :class:`~repro.frame.source.FrameSource`, e.g. a
        :func:`repro.scan_csv` handle over one file, a list of files or a
        glob pattern, in which case the computation streams over the
        file(s) chunk by chunk with peak memory bounded by the scan's
        ``chunk_rows`` / ``budget_bytes`` instead of the data size.
    col1, col2:
        Optional column names selecting the finer-grained task.
    config:
        Dotted-key overrides, e.g. ``{"hist.bins": 200}`` or
        ``{"cache.enabled": False}`` (see the module docstring for the
        cache keys; :func:`repro.eda.config.available_config_keys` lists
        everything).
    display:
        Keep only the named items (tabs), e.g. ``["histogram", "stats"]``;
        names are case-insensitive and the default keeps every item.  It
        selects among what this call makes (``plot(df)`` makes
        ``overview`` and ``variables``) after computing, so no kept value
        depends on it, in the container and in ``mode="intermediates"``
        alike.  A list that names none of the call's items raises
        :class:`~repro.errors.EDAError` listing them.
    mode:
        ``"container"`` (default) returns the rendered tabbed layout;
        ``"intermediates"`` returns the raw computed values plus stage
        timings and execution reports (see the module docstring).
    where:
        Optional row filter applied before any analysis, e.g.
        ``where=("price", ">", 0)`` or ``where=scan.price > 0``.  Triples
        (and lists of triples, ANDed) are pushed down: streaming sources
        filter inside each chunk's parse and skip whole chunks via zone
        maps; in-memory frames apply one vectorized mask.  A callable
        ``frame -> bool mask`` or a boolean array also works but
        materializes the input (with a :class:`UserWarning` on scans).
        Results are identical to calling ``plot`` on the pre-filtered
        frame.
    """
    return _run("plot", df, col1, col2, config, display, mode, where)


def plot_correlation(df: DataFrame, col1: Optional[str] = None,
                     col2: Optional[str] = None, *,
                     config: Optional[Mapping[str, Any]] = None,
                     display: Optional[Sequence[str]] = None,
                     mode: str = "container", where: Any = None):
    """Correlation analysis (Figure 2, rows 4-6).

    * ``plot_correlation(df)`` — correlation matrices of all numerical columns
      (Pearson, Spearman, Kendall tau).
    * ``plot_correlation(df, col1)`` — correlation of ``col1`` against every
      other numerical column.
    * ``plot_correlation(df, col1, col2)`` — scatter plot with a regression
      line for the two columns.

    ``where=`` filters rows before the analysis and ``display=`` selects
    among the call's items exactly as in :func:`plot`.
    """
    return _run("plot_correlation", df, col1, col2, config, display, mode, where)


def plot_missing(df: DataFrame, col1: Optional[str] = None,
                 col2: Optional[str] = None, *,
                 config: Optional[Mapping[str, Any]] = None,
                 display: Optional[Sequence[str]] = None,
                 mode: str = "container", where: Any = None):
    """Missing-value analysis (Figure 2, rows 7-9).

    * ``plot_missing(df)`` — overview: missing bar chart, missing spectrum,
      nullity correlation heat map, nullity dendrogram.
    * ``plot_missing(df, col1)`` — the impact of dropping the rows where
      ``col1`` is missing on every other column.
    * ``plot_missing(df, col1, col2)`` — the impact of dropping the rows where
      ``col1`` is missing on the distribution of ``col2``.

    ``where=`` filters rows before the analysis and ``display=`` selects
    among the call's items exactly as in :func:`plot`.
    """
    return _run("plot_missing", df, col1, col2, config, display, mode, where)
