"""Shared plumbing of the Compute module.

:class:`ComputeContext` decides whether an EDA task runs through the lazy
task graph ("graph stage", the paper's Dask computation) or directly on the
in-memory frame ("local stage", the paper's Pandas computation), builds the
lazy reductions, and resolves many of them together against one merged
graph so shared work (partition slices, summaries, histograms) is computed
once.

Input is any :class:`~repro.frame.source.FrameSource` (a ``DataFrame`` and a
``scan_csv`` handle are adapted automatically): the source supplies schema,
precomputed partitions and :class:`~repro.frame.source.SourceCapabilities`,
and the **reduction planner** in this module (:data:`REDUCTION_KINDS` +
:meth:`ComputeContext._reduce`) picks, per compute kind, the exact
chunk/combine/finalize triple for exact-capable sources or the
bounded-memory sketch triple for streaming ones.  That single dispatch
point is the only place the pipeline distinguishes in-memory from
out-of-core execution — every compute function upstream is source-agnostic,
and the schedulers release each chunk as soon as its sketches have consumed
it, so streaming peak memory tracks ``memory.chunk_rows`` /
``memory.budget_bytes``, not the file size.  It is also the only place
that distinguishes the two stages: the local stage evaluates the very same
triple inline on the whole frame (:meth:`ComputeContext._run_inline`), so
a compute kind has one definition whichever way it runs.

The planner also performs **projection pushdown**: every
:class:`ReductionKind` declares the column set its chunk functions read,
builders return :class:`PendingReduction` requests, and
:meth:`ComputeContext.resolve` merges the overlapping requirements of a
batch into shared *projected* partition tasks — ``plot(df, "x")`` over a
40-column ``scan_csv`` then parses one column per chunk instead of 40
(see ``docs/architecture.md`` § Planning & projection).
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.eda.intermediates import Intermediates

from dataclasses import dataclass

from repro.eda.config import Config
from repro.eda.dtypes import SemanticType, detect_frame_types
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.frame.sidecar import SidecarRoute, stats_snapshot as _sidecar_snapshot
from repro.frame.source import FilteredSource, FrameSource, as_source
from repro.graph.cache import TaskCache, get_global_cache
from repro.graph.delayed import Delayed
from repro.graph.engines import Engine, ExecutionReport, get_engine
from repro.graph.partition import PartitionedFrame
from repro.graph.scheduler import RunStats
from repro.stats.correlation import PearsonPartial
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.histogram import Histogram
from repro.stats.sketches import (
    DUPLICATE_SKETCH_CAPACITY,
    DuplicateSketch,
    NullitySketch,
    ReservoirSketch,
    StreamingHistogram,
    merge_all,
)
from repro.utils import default_worker_count

#: RunStats sidecar counter -> key of the sidecar module's process-wide
#: totals (:func:`repro.frame.sidecar.stats_snapshot`) it is a delta of.
_SIDECAR_COUNTERS = {
    "sidecar_hits": "hits",
    "sidecar_misses": "misses",
    "bytes_decoded_avoided": "bytes_decoded_avoided",
}

#: A column subset: what a reduction declares it reads, and what a partition
#: task materializes.  None = every column.
Projection = Optional[Tuple[str, ...]]

#: Bound on the per-chunk categorical value-count table in streaming mode; a
#: high-cardinality column cannot grow a chunk's state past this many
#: entries (the distinct sketch keeps the cardinality estimate honest).
STREAMING_CATEGORY_CAPACITY = 50_000


# --------------------------------------------------------------------------- #
# Module-level chunk/combine functions.
#
# They must be module-level (not lambdas) so two identical computations built
# independently get the same task key (shared in one graph, served from the
# cache across calls).  A partial that
# has a ``merge`` method (summaries, histograms, Pearson sums, sketches) needs
# no combine function of its own: its plan names
# :func:`repro.stats.sketches.merge_all`, the left fold of ``merge``.
# --------------------------------------------------------------------------- #
def _chunk_numeric_summary(partition: DataFrame, column: str) -> NumericSummary:
    return NumericSummary.from_column(partition.column(column))


def _chunk_categorical_summary(partition: DataFrame, column: str,
                               capacity: Optional[int] = None) -> CategoricalSummary:
    return CategoricalSummary.from_column(partition.column(column),
                                          capacity=capacity)


def _chunk_histogram(partition: DataFrame, column: str, bins: int,
                     low: float, high: float) -> Histogram:
    values = partition.column(column).to_numpy(drop_missing=True).astype(np.float64)
    return StreamingHistogram.from_values(values, bins, low, high)


def _chunk_pearson(partition: DataFrame, columns: Tuple[str, ...]) -> PearsonPartial:
    matrix = np.column_stack([
        partition.column(name).to_numpy(drop_missing=False).astype(np.float64)
        if partition.column(name).dtype.is_numeric
        else np.full(len(partition), np.nan)
        for name in columns])
    # Mark missing entries as NaN for non-float numerics.
    for index, name in enumerate(columns):
        column = partition.column(name)
        if column.dtype.is_numeric:
            matrix[column.isna(), index] = np.nan
    return PearsonPartial.from_matrix(matrix)


def _chunk_row_count(partition: DataFrame) -> int:
    return len(partition)


def _combine_counts(partials: List[int]) -> int:
    return int(sum(partials))


def _chunk_sample(partition: DataFrame, columns: Tuple[str, ...], fraction: float,
                  seed: int) -> DataFrame:
    subset = partition.select(list(columns))
    size = max(1, int(round(len(subset) * fraction))) if len(subset) else 0
    if size >= len(subset):
        return subset
    return subset.sample(size, seed=seed)


def _combine_samples(partials: List[DataFrame]) -> DataFrame:
    from repro.frame.frame import concat_rows
    non_empty = [frame for frame in partials if len(frame)]
    if not non_empty:
        return partials[0]
    return concat_rows(non_empty)


def _chunk_pair_counts(partition: DataFrame, col1: str, col2: str,
                       capacity: Optional[int] = None) -> Dict[Tuple[str, str], int]:
    """Counts per (value of col1, value of col2) pair, as strings; with a
    *capacity*, only that many most frequent pairs are kept."""
    first, left = partition.column(col1).category_codes()
    second, right = partition.column(col2).category_codes()
    keep = (first >= 0) & (second >= 0)
    if not keep.any():
        return {}
    # Fuse both code arrays into one integer key and count with a single
    # bincount/unique pass — no per-row python pairs.
    width = max(int(right.size), 1)
    fused = first[keep].astype(np.int64) * width + second[keep]
    span = int(left.size) * width
    if span <= (1 << 22):
        tallies = np.bincount(fused, minlength=span)
        keys = np.flatnonzero(tallies)
        tallies = tallies[keys]
    else:       # too sparse for a dense bincount table
        keys, tallies = np.unique(fused, return_counts=True)
    counts = {(str(left[key // width]), str(right[key % width])): int(count)
              for key, count in zip(keys.tolist(), tallies.tolist())}
    return counts if capacity is None else _prune_pair_counts(counts, capacity)


def _combine_pair_counts(partials: List[Dict[Tuple[str, str], int]]
                         ) -> Dict[Tuple[str, str], int]:
    merged: Dict[Tuple[str, str], int] = {}
    for partial in partials:
        for key, count in partial.items():
            merged[key] = merged.get(key, 0) + count
    return merged


# --------------------------------------------------------------------------- #
# Streaming-mode chunk/combine functions (sketch-based).
# --------------------------------------------------------------------------- #
def _prune_pair_counts(counts: Dict[Tuple[str, str], int],
                       capacity: int) -> Dict[Tuple[str, str], int]:
    """Keep the *capacity* most frequent pairs (deterministic tie-break)."""
    if len(counts) <= capacity:
        return counts
    ordered = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    return dict(ordered[:capacity])


def _combine_pair_counts_bounded(partials: List[Dict[Tuple[str, str], int]]
                                 ) -> Dict[Tuple[str, str], int]:
    # Combine functions receive only the partial list, so the bound is the
    # module-level streaming capacity rather than a parameter.
    return _prune_pair_counts(_combine_pair_counts(partials),
                              STREAMING_CATEGORY_CAPACITY)


def _chunk_reservoir(partition: DataFrame, columns: Tuple[str, ...],
                     capacity: int, seed: int) -> ReservoirSketch:
    return ReservoirSketch.from_frame(partition.select(list(columns)),
                                      capacity, seed=seed)


def _finalize_reservoir(sketch: ReservoirSketch) -> DataFrame:
    return sketch.frame


def _chunk_nullity(partition: DataFrame, start: int, stop: int,
                   columns: Tuple[str, ...], n_rows_total: int,
                   n_bins: int) -> NullitySketch:
    return NullitySketch.from_mask(partition.select(list(columns)).missing_mask(),
                                   columns, start, n_rows_total, n_bins)


def _chunk_duplicates(partition: DataFrame, capacity: int) -> DuplicateSketch:
    return DuplicateSketch.from_frame(partition, capacity)


def _finalize_duplicates(sketch: DuplicateSketch) -> Optional[int]:
    return sketch.duplicate_count()


# --------------------------------------------------------------------------- #
# The reduction planner.
#
# One declarative table maps every compute kind to its exact plan (in-memory
# sources — unbounded per-value state, results pinned by the equivalence
# suite) and its sketch plan (streaming sources — bounded state).  Sources
# select between them through SourceCapabilities.exact; nothing outside this
# module ever branches on the input flavour.  A plan is the only definition
# of its kind and has two evaluators: the graph stage binds it to partition
# tasks (ComputeContext._bind_reduction), the local stage runs the same
# chunk -> combine -> finalize inline on the whole frame
# (ComputeContext._run_inline).
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReductionPlan:
    """One chunk/combine/finalize triple plus how to call it.

    ``adapt(context, args, n_rows)`` turns the caller's kind-level
    arguments into the chunk function's positional tail (e.g. appending a
    capacity bound, or converting a target sample size into a per-partition
    fraction of the *n_rows* the plan runs over); ``indexed`` chunk
    functions also receive their global row range, ``chunk(partition,
    start, stop, ...)``.
    """

    chunk: Callable[..., Any]
    combine: Callable[[List[Any]], Any]
    finalize: Optional[Callable[[Any], Any]] = None
    indexed: bool = False
    adapt: Optional[Callable[["ComputeContext", Tuple[Any, ...], int],
                             Tuple[Any, ...]]] = None


@dataclass(frozen=True)
class ReductionKind:
    """Exact and sketch plans of one compute kind.

    ``sketch=None`` means the exact plan is already bounded (pure mergeable
    partials like numeric summaries) and serves every source.

    ``columns(kind_args)`` declares the column set this kind's chunk
    functions read, as a tuple of names — the projection-pushdown contract.
    ``None`` (the default) means the kind reads the whole row, so its
    partitions must materialize every column.  The declaration operates on
    the *kind-level* arguments (before ``adapt``), so both the exact and
    the sketch plan share it.
    """

    exact: ReductionPlan
    sketch: Optional[ReductionPlan] = None
    columns: Optional[Callable[[Tuple[Any, ...]], Tuple[str, ...]]] = None


# --------------------------------------------------------------------------- #
# Column-requirement declarations (the projection-pushdown contract).
# --------------------------------------------------------------------------- #
def _requires_first_arg_column(args: Tuple[Any, ...]) -> Tuple[str, ...]:
    return (args[0],)


def _requires_column_tuple(args: Tuple[Any, ...]) -> Tuple[str, ...]:
    return tuple(args[0])


def _requires_column_pair(args: Tuple[Any, ...]) -> Tuple[str, ...]:
    return (args[0], args[1])


def _sample_exact_args(context: "ComputeContext", args: Tuple[Any, ...],
                       n_rows: int) -> Tuple[Any, ...]:
    columns, size, seed = args
    return (columns, min(1.0, size / max(n_rows, 1)), seed)


def _append_category_capacity(context: "ComputeContext", args: Tuple[Any, ...],
                              n_rows: int) -> Tuple[Any, ...]:
    return args + (STREAMING_CATEGORY_CAPACITY,)


def _append_duplicate_capacity(context: "ComputeContext", args: Tuple[Any, ...],
                               n_rows: int) -> Tuple[Any, ...]:
    return args + (DUPLICATE_SKETCH_CAPACITY,)


def _nullity_args(context: "ComputeContext", args: Tuple[Any, ...],
                  n_rows: int) -> Tuple[Any, ...]:
    (n_bins,) = args
    return (tuple(context.column_names), n_rows, n_bins)


REDUCTION_KINDS: Dict[str, ReductionKind] = {
    "numeric_summary": ReductionKind(
        exact=ReductionPlan(_chunk_numeric_summary, merge_all),
        columns=_requires_first_arg_column),
    "categorical_summary": ReductionKind(
        exact=ReductionPlan(_chunk_categorical_summary, merge_all),
        sketch=ReductionPlan(_chunk_categorical_summary, merge_all,
                             adapt=_append_category_capacity),
        columns=_requires_first_arg_column),
    "histogram": ReductionKind(
        exact=ReductionPlan(_chunk_histogram, merge_all),
        columns=_requires_first_arg_column),
    "pearson": ReductionKind(
        exact=ReductionPlan(_chunk_pearson, merge_all),
        columns=_requires_column_tuple),
    "nullity": ReductionKind(
        exact=ReductionPlan(_chunk_nullity, merge_all, indexed=True,
                            adapt=_nullity_args)),  # spans every column
    # row_count only ever reduces on exact (in-memory) sources — streaming
    # sources answer it from the layout scan — where the planner keeps
    # full-width slices anyway, so it declares no projection.
    "row_count": ReductionKind(
        exact=ReductionPlan(_chunk_row_count, _combine_counts)),
    "sample": ReductionKind(
        exact=ReductionPlan(_chunk_sample, _combine_samples,
                            adapt=_sample_exact_args),
        sketch=ReductionPlan(_chunk_reservoir, merge_all,
                             finalize=_finalize_reservoir),
        columns=_requires_column_tuple),
    "pair_counts": ReductionKind(
        exact=ReductionPlan(_chunk_pair_counts, _combine_pair_counts),
        sketch=ReductionPlan(_chunk_pair_counts,
                             _combine_pair_counts_bounded,
                             adapt=_append_category_capacity),
        columns=_requires_column_pair),
    "duplicates": ReductionKind(
        exact=ReductionPlan(_chunk_duplicates, merge_all,
                            finalize=_finalize_duplicates,
                            adapt=_append_duplicate_capacity)),
                                          # row hash spans every column
}


@dataclass(frozen=True)
class PendingReduction:
    """A reduction requested from a :class:`ComputeContext` but not yet
    bound to partition tasks.

    Builders (``numeric_summary``, ``histogram``, ...) return these in
    graph mode instead of a ready :class:`~repro.graph.delayed.Delayed`:
    deferring the binding to :meth:`ComputeContext.resolve` lets the
    projection planner see every reduction of a batch at once and merge
    overlapping column requirements into shared projected parse tasks —
    the binding decision needs the whole graph, not one request.
    ``required`` is the declared column set (None = every column).
    """

    kind: str
    args: Tuple[Any, ...]
    required: Projection

    def __repr__(self) -> str:
        columns = "*" if self.required is None else list(self.required)
        return f"PendingReduction(kind={self.kind!r}, columns={columns})"


# --------------------------------------------------------------------------- #
# The projection planner: pure functions of (column names, projections
# already built, requests), so a plan can be computed — and tested — with no
# source and no engine.  A request is the column tuple one reduction declared
# (None = every column); a projection is a column tuple in source order
# (None = full width).
# --------------------------------------------------------------------------- #
def _plan_projections(column_names: Sequence[str], built: Sequence[Projection],
                      requests: Sequence[Projection]) -> List[Projection]:
    """Choose the partition projection for every request of a batch.

    Overlapping column requirements are merged into shared groups
    (union of the overlapping sets), so e.g. ``plot(df, "x")``'s
    summary, histograms and sample all consume one single-column parse
    per chunk, while a batch containing any whole-row reduction (the
    nullity sketch, the duplicate hash) collapses onto the full parse.
    Genuinely *disjoint* groups stay separate and each tokenizes the
    chunk bytes once — every shipped compute shape either carries a
    linking reduction that merges the batch or reuses an earlier
    stage's superset, but a custom batch of disjoint single-column
    requests over a narrow table can pay more byte-tokenization than
    one full parse (coercion work never exceeds it).  A group covering
    every column yields None (full-width tasks) — which is also what a
    batch of None requests (a source without projection support, or
    ``compute.projection=False``) plans to.
    """
    full = set(column_names)
    groups: List[Tuple[set, List[int]]] = []
    for index, request in enumerate(requests):
        needed = set(full) if request is None else set(request)
        if not needed or not needed <= full:
            # Unknown names: parse everything so the error surfaces in
            # the chunk function exactly as it did before projection.
            needed = set(full)
        touching = [group for group in groups if group[0] & needed]
        if touching:
            merged_set, members = touching[0]
            merged_set.update(needed)
            members.append(index)
            for other in touching[1:]:
                merged_set.update(other[0])
                members.extend(other[1])
                groups.remove(other)
        else:
            groups.append((needed, [index]))
    projections: List[Projection] = [None] * len(requests)
    for needed, members in groups:
        chosen = _select_projection(column_names, built, needed)
        for index in members:
            projections[index] = chosen
    return projections


def _select_projection(column_names: Sequence[str], built: Sequence[Projection],
                       needed: set) -> Projection:
    """The projection tuple serving *needed*, reusing earlier parses.

    An already-built projection covering *needed* is preferred over a
    fresh narrower parse — the narrowest such superset wins.  An exact
    match reuses the very same partition task objects; a strict
    superset reuses chunks the cache has (or is about to have), and
    with the cache disabled it re-executes tasks the earlier stage
    already paid for once — exactly the pre-projection cost, whereas a
    brand-new narrow projection would tokenize every chunk's bytes
    again on top of it (e.g. the overview's stage-2 histograms would
    otherwise fragment the stage-1 full parse into one parse set per
    column).  Projections are emitted in source column order, which
    keeps them canonical across stages and calls (stable cache keys).
    """
    if needed >= set(column_names):
        return None
    covering = [used for used in built if used is None or needed <= set(used)]
    if covering:
        return min(covering, key=lambda used:
                   len(column_names) if used is None else len(used))
    return tuple(name for name in column_names if name in needed)


class ComputeContext:
    """Execution context for one EDA task.

    The context owns the frame source, the partitioned frame, the engine
    and the timing bookkeeping.  Compute functions ask it for intermediates
    — pending reductions in the graph stage, plain values on tiny data,
    where the same plans run inline — and then call :meth:`resolve` once
    per pipeline stage so every pending value lands in the same merged
    graph.
    """

    def __init__(self, frame: Union[DataFrame, FrameSource, Any], config: Config,
                 engine: Optional[Engine] = None):
        self.source: FrameSource = as_source(frame)
        self.exact_results = self.source.capabilities.exact
        self._frame: Optional[DataFrame] = \
            self.source.to_frame() if self.exact_results else None
        self.config = config
        self.timings: Dict[str, float] = {}
        self.reports: List[ExecutionReport] = []
        self._planned_source: Optional[FrameSource] = None
        self._projected_partitions: Dict[Projection, PartitionedFrame] = {}
        self._used_projections: List[Projection] = []
        self._semantic_types: Optional[Dict[str, SemanticType]] = None
        self.use_graph = self._decide_graph_mode()
        self.cache = self._decide_cache()
        #: Projection pushdown is active only when the user has not disabled
        #: it, the source declares ``capabilities.projection``, and the
        #: source actually pays per column to materialize (streaming
        #: parses).  In-memory slices are zero-copy views whichever columns
        #: they carry, so projecting them would buy nothing while
        #: fragmenting the cross-call cache (a full slice built by
        #: ``plot(df)`` could no longer serve ``plot_correlation(df)``).
        self.projection_enabled = bool(
            config.get("compute.projection") and
            self.source.capabilities.projection and
            not self.exact_results)
        #: Predicate pushdown: a filtered streaming source carries its
        #: compiled predicate into every partition task (rows are dropped
        #: inside the parse, before coercion feeds the sketches), and the
        #: zone-map planner may skip whole chunks before reading bytes.
        #: In-memory filtered inputs are materialized eagerly at the API
        #: layer, so an exact source never reaches this path with a
        #: predicate attached.
        self._predicate = self.source.predicate \
            if isinstance(self.source, FilteredSource) else None
        self.predicate_enabled = bool(
            self._predicate is not None and not self.exact_results)
        self._predicate_spec = self._predicate.spec() \
            if self.predicate_enabled else None
        self._rows_audit_done = False
        #: The call's run ledger.  ``total`` is the field-wise sum of every
        #: report :meth:`resolve` produced — the four ``*_stats()`` views
        #: read it and nothing else writes it.  ``_unreported`` collects
        #: what the context itself observes between two reports (columns
        #: pruned and chunks skipped per newly built partition set, rows
        #: the pushed-down filter removed, this process's sidecar deltas);
        #: the next report takes it over.
        self.total = RunStats()
        self._unreported = RunStats()
        #: Planner-only counts: partition tasks built per kind.
        self._parse_tasks: Dict[str, int] = {
            "projected_parse_tasks": 0,
            "full_parse_tasks": 0,
        }
        #: Parsed-chunk disk sidecar: streaming sources that declare
        #: ``capabilities.chunk_sidecar`` spill each parsed chunk to a binary
        #: sidecar and serve warm re-scans from it without decoding CSV.
        #: In-memory sources never parse, so they get no route.
        self.sidecar_route: Optional[SidecarRoute] = None
        if (config.get("cache.disk_enabled") and not self.exact_results
                and self.source.capabilities.chunk_sidecar):
            self.sidecar_route = SidecarRoute(
                directory=config.get("cache.disk_dir"),
                budget_bytes=int(config.get("cache.disk_bytes")))
        if engine is not None:
            self.engine = engine
        else:
            self.engine = get_engine(config.get("compute.engine"),
                                     **self._engine_kwargs())

    # ------------------------------------------------------------------ #
    # Input access (source-mediated)
    # ------------------------------------------------------------------ #
    @property
    def frame(self) -> DataFrame:
        """The full in-memory frame.

        Streaming-capable compute paths never touch this.  For the few
        fine-grained tasks that genuinely need all rows at once (bivariate
        row alignment, missing-value drop comparisons), a streaming source
        is materialized here once — losing the bounded-memory guarantee for
        that call, which is documented on the corresponding ``plot`` kinds
        and announced with a :class:`UserWarning` carrying the estimated
        materialization size.
        """
        if self._frame is None:
            estimated = self.source.materialization_bytes()
            warnings.warn(
                f"this fine-grained task aligns rows across columns and "
                f"cannot stream: materializing the scanned input "
                f"(~{estimated / 1e6:.1f} MB estimated) — peak memory is no "
                f"longer bounded by memory.budget_bytes for this call",
                UserWarning, stacklevel=3)
            self._frame = self.source.to_frame()
        return self._frame

    @property
    def known_n_rows(self) -> int:
        """Total row count, known from the source without materializing."""
        return self.source.n_rows

    @property
    def column_names(self) -> List[str]:
        """Column names of the input."""
        return self.source.columns

    @property
    def n_columns(self) -> int:
        """Number of columns of the input."""
        return len(self.column_names)

    def semantic_types(self) -> Dict[str, SemanticType]:
        """Semantic type of every column, detected once per context.

        Read from the source's bounded schema preview — the in-memory frame
        itself, or the scan's preview rows; detection samples a row prefix
        in both cases, so the two agree whenever the preview is
        representative.
        """
        if self._semantic_types is None:
            self._semantic_types = detect_frame_types(
                self.source.schema_preview())
        return self._semantic_types

    def numerical_columns(self) -> List[str]:
        """Columns that are semantically numerical and stored numerically —
        what the histogram, correlation and interaction sections analyse."""
        preview = self.source.schema_preview()
        return [name for name, semantic in self.semantic_types().items()
                if semantic is SemanticType.NUMERICAL
                and preview.column(name).dtype.is_numeric]

    def duplicate_rows(self, max_rows: int) -> Union[PendingReduction, Optional[int]]:
        """Duplicate-row count, or None when it would be unbounded.

        Exact sources up to *max_rows* run the exact group-refinement scan
        (:meth:`~repro.frame.frame.DataFrame.duplicate_row_count`: it
        factorizes column by column and stops once every row is told
        apart); larger ones report None, as they always have — the scan's
        worst case, a frame of nothing but duplicates, sorts every column.
        Streaming sources count through a
        :class:`~repro.stats.sketches.DuplicateSketch` reduction — exact
        while the distinct rows fit the sketch capacity, None beyond.
        """
        if self.exact_results:
            if self.known_n_rows > max_rows:
                return None
            return self.frame.duplicate_row_count()
        return self._reduce("duplicates")

    def _decide_cache(self) -> Optional[TaskCache]:
        """The process-wide intermediate cache, or None when disabled.

        ``cache.enabled`` (default True) attaches the shared cross-call
        cache so repeated EDA calls on the same frame reuse partition
        slices, summaries and histograms.  The budget is process-global
        state: only a call that explicitly passes ``cache.max_bytes``
        (even the default value, to restore it) resizes the shared cache;
        default-config calls never shrink — and thereby evict — a cache
        another call configured.  A call that disables the cache detaches
        entirely and never resizes, even if it also passes a budget.
        """
        if not self.config.get("cache.enabled"):
            return None
        cache = get_global_cache()
        if "cache.max_bytes" in self.config.provided:
            cache.resize(self.config.get("cache.max_bytes"))
        return cache

    def _scheduler_options(self) -> Dict[str, Any]:
        """Backend-specific scheduler kwargs from the ``compute.remote.*``
        keys (empty for the in-process backends)."""
        if self.config.get("compute.scheduler") != "remote":
            return {}
        return {
            "workers": self.config.get("compute.remote.workers"),
            "bind": self.config.get("compute.remote.bind"),
            "heartbeat_s": self.config.get("compute.remote.heartbeat_s"),
            "timeout_s": self.config.get("compute.remote.timeout_s"),
            "authkey": self.config.get("compute.remote.authkey"),
        }

    def _engine_kwargs(self) -> Dict[str, Any]:
        return {"max_workers": self.config.get("compute.max_workers"),
                "cache": self.cache,
                "scheduler": self.config.get("compute.scheduler"),
                "scheduler_options": self._scheduler_options()}

    def _decide_graph_mode(self) -> bool:
        if not self.exact_results:
            # A streaming source must never be materialized wholesale; the
            # graph (chunked) path is the only one with a bounded footprint.
            return True
        mode = self.config.get("compute.use_graph")
        if mode == "always":
            return True
        if mode == "never":
            return False
        return self.known_n_rows >= self.config.get("compute.small_data_rows")

    def _effective_workers(self) -> int:
        workers = self.config.get("compute.max_workers")
        if workers is None:
            workers = default_worker_count()
        return int(workers)

    # ------------------------------------------------------------------ #
    # Partitioning (the chunk-size precompute stage)
    # ------------------------------------------------------------------ #
    def _plan_source(self) -> FrameSource:
        """The source with its final partition granularity, planned once.

        In-memory sources honour ``compute.partition_rows``; streaming
        sources honour ``memory.chunk_rows`` / ``memory.budget_bytes`` and
        shrink further if the budget cannot hold one chunk per scheduler
        worker concurrently (only for settings the user explicitly
        overrides, so default-config calls never pay a second layout pass).
        """
        if self._planned_source is None:
            started = time.perf_counter()
            provided = self.config.provided
            if self.exact_results:
                # Pass the config granularity only when the user set it; a
                # source constructed with an explicit partition_rows must
                # not be silently overridden by the config default.
                planned = self.source.with_partitioning(
                    chunk_rows=self.config.get("compute.partition_rows")
                    if "compute.partition_rows" in provided else None)
            else:
                planned = self.source.with_partitioning(
                    chunk_rows=self.config.get("memory.chunk_rows")
                    if "memory.chunk_rows" in provided else None,
                    budget_bytes=self.config.get("memory.budget_bytes")
                    if "memory.budget_bytes" in provided else None,
                    concurrency=self._effective_workers())
            if (self._predicate is not None
                    and not self.config.get("compute.predicates")
                    and hasattr(planned, "without_pruning")):
                # compute.predicates=False disables only the zone-map chunk
                # skipping; the filter itself still runs inside every parse
                # task, so results are identical either way.
                planned = planned.without_pruning()
            self._planned_source = planned
            self.timings["precompute_chunk_sizes"] = time.perf_counter() - started
        return self._planned_source

    @property
    def partitioned(self) -> PartitionedFrame:
        """The full-width partitioned frame (every partition task
        materializes every column)."""
        return self.partitioned_for(None)

    def partitioned_for(self, projection: Projection) -> PartitionedFrame:
        """The partitioned frame projected onto *projection* (None = full).

        Memoized per column set, so every reduction bound to the same
        projection in this context shares the exact same partition task
        objects — one projected parse per ``(chunk, column set)``.
        Building a projection also records it for the planner's
        superset-reuse pass and updates the planning counters.
        """
        cached = self._projected_partitions.get(projection)
        if cached is not None:
            return cached
        planned = self._plan_source()
        built = PartitionedFrame.from_source(planned, columns=projection,
                                             predicate=self._predicate_spec,
                                             sidecar=self.sidecar_route)
        self._projected_partitions[projection] = built
        self._used_projections.append(projection)
        pruning = getattr(planned, "last_pruning", None)
        if pruning:
            # Counted per newly built partition set: each one re-plans the
            # chunk list, so each one independently avoids these reads.
            self._unreported.chunks_skipped += pruning.get("chunks_skipped", 0)
        if projection is None:
            self._parse_tasks["full_parse_tasks"] += built.npartitions
        else:
            self._parse_tasks["projected_parse_tasks"] += built.npartitions
            self._unreported.columns_pruned += \
                (self.n_columns - len(projection)) * built.npartitions
        return built

    # The four views below are the public shape of ``meta[...]`` and
    # ``Report.*_stats``: an enabled flag, planner-only facts, and counters
    # read from the ledger — each the sum over this call's reports.
    def _counters(self, *names: str) -> Dict[str, int]:
        return {name: getattr(self.total, name) for name in names}

    def projection_stats(self) -> Dict[str, Any]:
        """Projection planner counters: partition tasks built per kind,
        columns whose parse was avoided, plus the predicate counters."""
        return {"enabled": self.projection_enabled, **self._parse_tasks,
                **self._counters("columns_pruned", "chunks_skipped",
                                 "rows_filtered")}

    def predicate_stats(self) -> Dict[str, Any]:
        """Predicate-pushdown counters: the pushed spec, chunks the zone
        maps skipped before any bytes were read, and rows the in-parse
        filter removed from the chunks that did parse."""
        return {"enabled": self.predicate_enabled,
                "predicate": self._predicate_spec,
                **self._counters("chunks_skipped", "rows_filtered")}

    def sidecar_stats(self) -> Dict[str, Any]:
        """Parsed-chunk sidecar counters for this call (plus enabled flag).

        Coordinator-process counts: chunk parses served from the binary
        sidecar, parses that decoded CSV (and stored a sidecar for next
        time), and the CSV bytes the hits avoided.  A lower bound under the
        process and remote schedulers, where workers hit their sidecars in
        their own processes.
        """
        return {"enabled": self.sidecar_route is not None,
                **self._counters(*_SIDECAR_COUNTERS)}

    def incremental_stats(self) -> Dict[str, Any]:
        """Incremental-refresh counters for this call (plus enabled flag).

        Parse chunks answered by their per-chunk-stamp cache keys, chunks
        that executed, and the file bytes those executions read.  Enabled
        whenever the source streams from storage with a cross-call cache
        attached — that combination gives every chunk a stable
        per-chunk-stamp cache key, which is what makes appended-file
        refreshes reuse the old chunks' sketch states.
        """
        return {"enabled": bool(not self.exact_results
                                and self.cache is not None),
                **self._counters("chunks_reused", "chunks_new",
                                 "bytes_reparsed")}

    # ------------------------------------------------------------------ #
    # The planner dispatch
    # ------------------------------------------------------------------ #
    def _plan(self, kind: str) -> ReductionPlan:
        """Pick the exact or sketch plan of *kind* from the capabilities."""
        spec = REDUCTION_KINDS[kind]
        if self.exact_results:
            return spec.exact
        return spec.sketch or spec.exact

    def _reduce(self, kind: str, args: Tuple[Any, ...] = ()) -> Any:
        """The reduction of *kind* over this context's source.

        The graph stage returns a :class:`PendingReduction` carrying the
        kind's declared column requirement; :meth:`resolve` binds every
        pending reduction of a batch to (possibly projected) partition
        tasks at once, so overlapping column requirements end up sharing
        parse tasks.  The local stage runs the same plan inline and
        returns its value.
        """
        if not self.use_graph:
            return self._run_inline(kind, args)
        declared = REDUCTION_KINDS[kind].columns
        required = declared(args) \
            if self.projection_enabled and declared is not None else None
        return PendingReduction(kind, args, required)

    def _run_inline(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """Evaluate the plan of *kind* on the whole frame, as one chunk.

        ``finalize(combine([chunk(frame, *adapt(args))]))`` — what the graph
        stage computes over a single partition, minus the graph; an indexed
        chunk receives ``(0, n_rows)`` as its row range.
        """
        plan = self._plan(kind)
        frame = self.frame
        n_rows = len(frame)
        chunk_args = plan.adapt(self, args, n_rows) \
            if plan.adapt is not None else args
        if plan.indexed:
            chunk_args = (0, n_rows) + tuple(chunk_args)
        value = plan.combine([plan.chunk(frame, *chunk_args)])
        return value if plan.finalize is None else plan.finalize(value)

    def _bind_reduction(self, pending: PendingReduction,
                        projection: Projection) -> Delayed:
        """Bind one pending reduction to partition tasks of *projection*."""
        plan = self._plan(pending.kind)
        chunk_args = plan.adapt(self, pending.args, self.known_n_rows) \
            if plan.adapt is not None else pending.args
        return self.partitioned_for(projection).reduction(
            plan.chunk, plan.combine, finalize=plan.finalize,
            chunk_args=chunk_args, indexed=plan.indexed)

    # ------------------------------------------------------------------ #
    # Intermediate builders: one ``_reduce`` call each — pending in the
    # graph stage, a value in the local stage, the same plan either way.
    # ------------------------------------------------------------------ #
    def numeric_summary(self, column: str) -> Union[PendingReduction, NumericSummary]:
        """Mergeable numeric summary of one column."""
        return self._reduce("numeric_summary", (column,))

    def categorical_summary(self, column: str) -> Union[PendingReduction, CategoricalSummary]:
        """Mergeable categorical summary of one column.

        On streaming sources the per-chunk value-count table is bounded
        (:data:`STREAMING_CATEGORY_CAPACITY`) so cardinality cannot defeat
        the memory budget; counts stay exact below the bound.
        """
        return self._reduce("categorical_summary", (column,))

    def histogram(self, column: str, bins: int, low: float,
                  high: float) -> Union[PendingReduction, Histogram]:
        """Mergeable histogram of one column over a fixed range."""
        return self._reduce("histogram", (column, bins, float(low), float(high)))

    def pearson_partial(self, columns: Sequence[str]) -> Union[PendingReduction, PearsonPartial]:
        """Mergeable Pearson partial sums over the given numeric columns."""
        return self._reduce("pearson", (tuple(columns),))

    def nullity_sketch(self, n_bins: int) -> Union[PendingReduction, NullitySketch]:
        """Mergeable missing-value sketch over all columns.

        Carries everything ``plot_missing(df)`` renders — per-column missing
        counts, pairwise co-missing counts and the row-binned missing
        spectrum — in a few small arrays per chunk, for every source kind.
        """
        if self._predicate_spec is not None:
            # The nullity reduction is indexed (chunks place themselves by
            # their precomputed global row range), but a filtered partition
            # compacts rows, so those pre-filter positions would be wrong.
            # Run the plan inline instead — for a streaming source this
            # materializes (with the documented UserWarning) and filters.
            return self._run_inline("nullity", (n_bins,))
        return self._reduce("nullity", (n_bins,))

    def row_count(self) -> Union[PendingReduction, int]:
        """Total number of rows (post-filter when a predicate is pushed)."""
        if not self.exact_results and self._predicate_spec is None:
            return self.known_n_rows      # precomputed by the layout scan
        # In memory, or filtered: the layout scan counts pre-filter rows and
        # only the filtered parses know how many survive — count through them.
        return self._reduce("row_count")

    def sample(self, columns: Sequence[str], size: int,
               seed: int = 0) -> Union[PendingReduction, DataFrame]:
        """A uniform row sample of the given columns (about *size* rows).

        Streaming sources sample through a mergeable reservoir sketch, so
        the retained rows never exceed *size* no matter the data length —
        and while the whole input fits the capacity the "sample" is exact,
        which is what pins the streaming results to the in-memory ones on
        small data.
        """
        return self._reduce("sample", (tuple(columns), int(size), seed))

    def pair_counts(self, col1: str, col2: str) -> Union[PendingReduction, Dict[Tuple[str, str], int]]:
        """Joint value counts of two categorical columns.

        On streaming sources the pair table is pruned to the
        :data:`STREAMING_CATEGORY_CAPACITY` most frequent pairs at every
        chunk and merge step, so two high-cardinality columns cannot defeat
        the memory budget; exact below the bound (the downstream charts only
        consume the top few dozen pairs).
        """
        return self._reduce("pair_counts", (col1, col2))

    # ------------------------------------------------------------------ #
    # Resolution (one merged graph per stage)
    # ------------------------------------------------------------------ #
    def resolve(self, requested: Dict[str, Any], stage: str = "graph") -> Dict[str, Any]:
        """Compute all lazy values in *requested* against one shared graph.

        Pending reductions are first bound to partition tasks: the
        projection planner sees the whole batch at once, merges overlapping
        column requirements and emits one shared (possibly projected) parse
        task per ``(chunk, column set)`` — this is the point where
        ``plot(df, "x")`` over a wide scan becomes a single-column parse.
        Plain values pass through untouched, so compute functions can
        freely mix lazy and already-known values.  Timing and execution
        reports are recorded per stage for the benchmarks.
        """
        started = time.perf_counter()
        resolved = dict(requested)
        pending_keys = [key for key, value in requested.items()
                        if isinstance(value, PendingReduction)]
        audit_key: Optional[str] = None
        planned_rows = 0
        if pending_keys:
            projections = _plan_projections(
                self.column_names, self._used_projections,
                [requested[key].required for key in pending_keys])
            for key, projection in zip(pending_keys, projections):
                resolved[key] = self._bind_reduction(requested[key], projection)
            if self._predicate_spec is not None and not self._rows_audit_done:
                # One hidden row-count audit per context measures how many
                # rows the pushed-down filter removed.  It rides along the
                # first batch's first projection, so it shares the
                # parse tasks the batch builds anyway — no extra reads.
                self._rows_audit_done = True
                audit_key = "__predicate_rows_audit__"
                while audit_key in resolved:
                    audit_key += "_"
                resolved[audit_key] = self._bind_reduction(
                    PendingReduction("row_count", (), None), projections[0])
                planned_rows = sum(
                    stop - start for start, stop
                    in self.partitioned_for(projections[0]).boundaries)
        keys = [key for key, value in resolved.items() if isinstance(value, Delayed)]
        if keys:
            sidecar_before = _sidecar_snapshot()
            values, report = self.engine.compute_with_report(
                [resolved[key] for key in keys])
            for key, value in zip(keys, values):
                resolved[key] = value
            sidecar_after = _sidecar_snapshot()
            unreported, self._unreported = self._unreported, RunStats()
            if audit_key is not None:
                kept = resolved.pop(audit_key)
                unreported.rows_filtered += max(0, planned_rows - int(kept))
            # The sidecar counts its work process-wide; this batch's share
            # is the difference across the run (coordinator process only).
            for name, total_key in _SIDECAR_COUNTERS.items():
                setattr(unreported, name,
                        sidecar_after[total_key] - sidecar_before[total_key])
            report += unreported
            self.total += report
            self.reports.append(report)
        elapsed = time.perf_counter() - started
        self.timings[stage] = self.timings.get(stage, 0.0) + elapsed
        return resolved

    def record_local_stage(self, seconds: float) -> None:
        """Record time spent in the local ("Pandas computation") stage."""
        self.timings["local"] = self.timings.get("local", 0.0) + seconds

    def finish(self, intermediates: "Intermediates") -> "Intermediates":
        """Attach this context's timings and execution reports to a result.

        Every compute function calls this last, so callers (and the
        interactive-session benchmark) can read per-stage timings and the
        engine's :class:`~repro.graph.engines.ExecutionReport` list —
        including cache hits — from ``intermediates.meta``.
        ``meta["projection"]`` carries the projection planner's counters
        (partition tasks built per kind, columns pruned), which is how the
        benchmarks assert that a single-column task parsed a single column.
        """
        intermediates.timings = dict(self.timings)
        intermediates.meta["execution_reports"] = list(self.reports)
        intermediates.meta["projection"] = self.projection_stats()
        intermediates.meta["predicate"] = self.predicate_stats()
        intermediates.meta["sidecar"] = self.sidecar_stats()
        intermediates.meta["incremental"] = self.incremental_stats()
        return intermediates

    def column(self, name: str) -> Column:
        """A column for schema/semantic-type inspection (validates the name).

        For an in-memory source this is the full column; for a streaming
        source it is the preview's column — compute paths must go through
        the sketch reductions for actual data, so this accessor never
        parses the file.
        """
        return self.source.schema_preview().column(name)
