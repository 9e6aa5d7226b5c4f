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
it, so streaming peak memory tracks the scan's chunk size, not the file
size.  It is also the only place that distinguishes the two stages: the
local stage evaluates the very same triple inline on the whole frame
(:meth:`ComputeContext._run_inline`), so a compute kind has one definition
whichever way it runs.

The planner also performs **projection pushdown**: every
:class:`ReductionKind` declares the column set its chunk functions read,
builders return :class:`PendingReduction` requests, and
:func:`plan_batch` merges the overlapping requirements of a batch into
shared *projected* partition tasks — ``plot(df, "x")`` over a 40-column
``scan_csv`` then parses one column per chunk instead of 40 (see
``docs/architecture.md`` § Planning & projection).  Planning is a value:
:meth:`ComputeContext.resolve` plans each batch into a frozen
:class:`BatchPlan` without executing anything, runs it once
(:func:`run_batch`) and appends the run's report.
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
from repro.eda.dtypes import SEMANTIC_TYPE_ROWS, SemanticType, detect_semantic_type
from repro.frame.column import Column, category_labels
from repro.frame.frame import DataFrame
from repro.frame.sidecar import SidecarRoute, stats_snapshot as _sidecar_snapshot
from repro.frame.source import FilteredSource, FrameSource, as_source
from repro.graph.cache import TaskCache, get_global_cache
from repro.graph.delayed import Delayed, compute as compute_values
from repro.graph.partition import PartitionedFrame
from repro.graph.scheduler import RunStats, Scheduler, get_scheduler
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
    *capacity*, only that many most frequent pairs are kept.  Only the
    categories of a counted pair are formatted."""
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
    pairs = zip(_labels_at(left, keys // width), _labels_at(right, keys % width))
    counts = dict(zip(pairs, tallies.tolist()))
    return counts if capacity is None else _prune_pair_counts(counts, capacity)


def _labels_at(categories: np.ndarray, indices: np.ndarray) -> List[str]:
    """The labels of ``categories[indices]``, each category formatted once."""
    used, inverse = np.unique(indices, return_inverse=True)
    return category_labels(categories[used])[inverse].tolist()


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
# tasks (plan_batch), the local stage runs the same chunk -> combine ->
# finalize inline on the whole frame (ComputeContext._run_inline).
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReductionPlan:
    """One chunk/combine/finalize triple plus how to call it.

    ``adapt(column_names, args, n_rows)`` turns the caller's kind-level
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
    adapt: Optional[Callable[[Sequence[str], Tuple[Any, ...], int],
                             Tuple[Any, ...]]] = None

    def chunk_args(self, column_names: Sequence[str], args: Tuple[Any, ...],
                   n_rows: int) -> Tuple[Any, ...]:
        """The chunk function's positional tail for kind-level *args*."""
        return args if self.adapt is None else self.adapt(column_names, args, n_rows)


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


def _sample_exact_args(column_names: Sequence[str], args: Tuple[Any, ...],
                       n_rows: int) -> Tuple[Any, ...]:
    columns, size, seed = args
    return (columns, min(1.0, size / max(n_rows, 1)), seed)


def _append_category_capacity(column_names: Sequence[str], args: Tuple[Any, ...],
                              n_rows: int) -> Tuple[Any, ...]:
    return args + (STREAMING_CATEGORY_CAPACITY,)


def _append_duplicate_capacity(column_names: Sequence[str], args: Tuple[Any, ...],
                               n_rows: int) -> Tuple[Any, ...]:
    return args + (DUPLICATE_SKETCH_CAPACITY,)


def _nullity_args(column_names: Sequence[str], args: Tuple[Any, ...],
                  n_rows: int) -> Tuple[Any, ...]:
    (n_bins,) = args
    return (tuple(column_names), n_rows, n_bins)


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
    deferring the binding to :func:`plan_batch` lets the
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
# source and no scheduler.  A request is the column tuple one reduction declared
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
    batch of None requests (an exact source) plans to.
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


# --------------------------------------------------------------------------- #
# Plans as values: a call decides once (CallPlan); plan_batch turns a batch
# into a frozen BatchPlan, executing nothing; run_batch runs it once.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CallPlan:
    """What one EDA call decides about its source and config, once.

    ``exact`` selects the exact plans (and an in-memory frame), ``graph``
    the lazy graph over inline evaluation.  ``predicate`` is the spec a
    filtered streaming source pushes into every partition task,
    ``sidecar`` the parsed-chunk disk route of a source declaring
    ``capabilities.chunk_sidecar``; None when absent.
    """

    exact: bool
    graph: bool
    predicate: Optional[Tuple[Tuple[str, str, Any], ...]]
    sidecar: Optional[SidecarRoute]

    @property
    def projection(self) -> bool:
        """Projection is on only where materializing pays per column
        (streaming parses): in-memory slices are zero-copy views, so
        projecting them would only fragment the cross-call cache."""
        return not self.exact

    @classmethod
    def decide(cls, source: FrameSource, config: Config) -> "CallPlan":
        capabilities = source.capabilities
        exact = capabilities.exact
        mode = config.get("compute.use_graph")
        # A streaming source must never be materialized wholesale; the
        # graph (chunked) path is the only one with a bounded footprint.
        graph = not exact or mode == "always" or (
            mode != "never"
            and source.n_rows >= config.get("compute.small_data_rows"))
        sidecar = None
        if (config.get("cache.disk_enabled") and not exact
                and capabilities.chunk_sidecar):
            sidecar = SidecarRoute(directory=config.get("cache.disk_dir"),
                                   budget_bytes=int(config.get("cache.disk_bytes")))
        return cls(exact, graph,
                   source.predicate.spec()
                   if isinstance(source, FilteredSource) else None,
                   sidecar)

    def reduction(self, kind: str) -> ReductionPlan:
        """The exact or sketch plan of *kind*."""
        spec = REDUCTION_KINDS[kind]
        return spec.exact if self.exact else spec.sketch or spec.exact


@dataclass(frozen=True)
class BatchPlan:
    """One batch of requests, planned and not yet run.

    ``values`` maps each requested key to its bound lazy value (plain
    values pass through); ``partitions`` the call's partition sets after
    this batch, one per projection (None = full width) in build order;
    ``planned`` the planner's counters for the sets this batch built
    (``projected_parse_tasks``, ``full_parse_tasks``, ``columns_pruned``,
    ``chunks_skipped``); ``audit`` the ``(row-count
    reduction, planned rows)`` of a filtered call's first batch, whose
    difference is ``rows_filtered``.
    """

    values: Dict[str, Any]
    partitions: Dict[Projection, PartitionedFrame]
    planned: RunStats
    audit: Optional[Tuple[Delayed, int]] = None


def _bind(plan: ReductionPlan, partitioned: PartitionedFrame,
          args: Tuple[Any, ...], column_names: Sequence[str],
          n_rows: int) -> Delayed:
    return partitioned.reduction(
        plan.chunk, plan.combine, finalize=plan.finalize,
        chunk_args=plan.chunk_args(column_names, args, n_rows),
        indexed=plan.indexed)


def plan_batch(call: CallPlan, source: FrameSource,
               built: Dict[Projection, PartitionedFrame],
               requested: Dict[str, Any]) -> BatchPlan:
    """Bind every pending reduction of *requested*; execute nothing.

    *source* is the call's partitioned source, *built* the partition sets
    of earlier batches (not modified).  The projection planner sees the
    whole batch at once; each new set is one shared (possibly projected,
    filtered, sidecar-routed) parse task per chunk — where ``plot(df, "x")``
    over a wide scan becomes a single-column parse.
    """
    values = dict(requested)
    partitions = dict(built)
    planned = RunStats()
    pending = [key for key, value in values.items()
               if isinstance(value, PendingReduction)]
    if not pending:
        return BatchPlan(values, partitions, planned)
    columns, n_rows = source.columns, source.n_rows
    projections = _plan_projections(columns, list(built),
                                    [values[key].required for key in pending])
    for projection in projections:
        if projection in partitions:
            continue
        partitioned = PartitionedFrame.from_source(
            source, columns=projection, predicate=call.predicate,
            sidecar=call.sidecar)
        partitions[projection] = partitioned
        if projection is None:
            planned.full_parse_tasks += partitioned.npartitions
        else:
            planned.projected_parse_tasks += partitioned.npartitions
            planned.columns_pruned += \
                (len(columns) - len(projection)) * partitioned.npartitions
        if call.predicate is not None:
            planned.chunks_skipped += \
                len(source.source.partitions()) - partitioned.npartitions
    for key, projection in zip(pending, projections):
        request = values[key]
        values[key] = _bind(call.reduction(request.kind), partitions[projection],
                            request.args, columns, n_rows)
    audit = None
    if call.predicate is not None and not built:
        # The call's first batch counts the rows its pushed-down filter
        # keeps, over partition tasks the batch builds anyway.
        first = partitions[projections[0]]
        audit = (_bind(call.reduction("row_count"), first, (), columns, n_rows),
                 sum(stop - start for start, stop in first.boundaries))
    return BatchPlan(values, partitions, planned, audit)


def run_batch(batch: BatchPlan, scheduler: Scheduler
              ) -> Tuple[Dict[str, Any], RunStats]:
    """Run a planned batch that binds at least one reduction, as one
    ``compute(...)`` call.  The scheduler's ``last_run`` is the batch's
    report; it gains the planner's counters, ``rows_filtered`` from the
    audit and this process's sidecar deltas across the run.
    """
    lazy = list(batch.values.values())
    if batch.audit is not None:
        lazy.append(batch.audit[0])
    before = _sidecar_snapshot()
    computed = compute_values(*lazy, scheduler=scheduler)
    after = _sidecar_snapshot()
    report = scheduler.last_run
    report += batch.planned
    if batch.audit is not None:
        report.rows_filtered += max(0, batch.audit[1] - int(computed.pop()))
    for name, total_key in _SIDECAR_COUNTERS.items():
        setattr(report, name,
                getattr(report, name) + after[total_key] - before[total_key])
    return dict(zip(batch.values, computed)), report


#: The per-call views, ``meta[name]`` and ``Report.<name>_stats``, declared
#: once: what the call plan says of the mechanism (given whether a
#: cross-call cache is attached), then the field-wise sums of the named
#: RunStats counters over the reports the view describes.
#:
#: * projection: partition tasks built full-width vs. projected, columns
#:   whose parse was avoided, plus the predicate counters;
#: * predicate: the pushed spec, chunks the zone maps skipped before any
#:   bytes were read, rows the in-parse filter removed;
#: * sidecar: chunk parses served from the binary sidecar, parses that
#:   decoded CSV, CSV bytes the hits avoided — coordinator-process counts,
#:   so a lower bound under the process and remote schedulers;
#: * incremental: parse chunks answered by their per-chunk-stamp cache
#:   keys, chunks that executed and the file bytes they read — enabled
#:   when a streaming source meets an attached cache, which is what gives
#:   every chunk a stable key.
VIEWS: Dict[str, Tuple[Callable[[CallPlan, bool], Dict[str, Any]],
                       Tuple[str, ...]]] = {
    "projection": (lambda call, cached: {"enabled": call.projection},
                   ("projected_parse_tasks", "full_parse_tasks",
                    "columns_pruned", "chunks_skipped", "rows_filtered")),
    "predicate": (lambda call, cached: {"enabled": call.predicate is not None,
                                        "predicate": call.predicate},
                  ("chunks_skipped", "rows_filtered")),
    "sidecar": (lambda call, cached: {"enabled": call.sidecar is not None},
                tuple(_SIDECAR_COUNTERS)),
    "incremental": (lambda call, cached: {"enabled": not call.exact and cached},
                    ("chunks_reused", "chunks_new", "bytes_reparsed")),
}


def _decide_cache(config: Config) -> Optional[TaskCache]:
    """The process-wide intermediate cache, or None when disabled.

    The budget is process-global state: only a call that explicitly passes
    ``cache.max_bytes`` resizes the shared cache, so default-config calls
    never shrink — and thereby evict — a cache another call configured.  A
    call that disables the cache detaches and never resizes.
    """
    if not config.get("cache.enabled"):
        return None
    cache = get_global_cache()
    if "cache.max_bytes" in config.provided:
        cache.resize(config.get("cache.max_bytes"))
    return cache


def _scheduler_options(config: Config) -> Dict[str, Any]:
    """Backend-specific scheduler kwargs from the ``compute.remote.*``
    keys (empty for the in-process backends)."""
    if config.get("compute.scheduler") != "remote":
        return {}
    return {
        "workers": config.get("compute.remote.workers"),
        "bind": config.get("compute.remote.bind"),
        "heartbeat_s": config.get("compute.remote.heartbeat_s"),
        "timeout_s": config.get("compute.remote.timeout_s"),
        "authkey": config.get("compute.remote.authkey"),
    }


class ComputeContext:
    """Execution context for one EDA task.

    The context owns the frame source, the call's :class:`CallPlan`, the
    partition sets built so far, the scheduler and the timing bookkeeping.
    Compute functions ask it for intermediates — pending reductions in the
    graph stage, plain values on tiny data, where the same plans run
    inline — and then call :meth:`resolve` once per pipeline stage so every
    pending value lands in the same merged graph.
    """

    def __init__(self, frame: Union[DataFrame, FrameSource, Any], config: Config):
        self.source = as_source(frame)
        self.config = config
        self.call = CallPlan.decide(self.source, config)
        self._frame = self.source.to_frame() if self.call.exact else None
        self.timings: Dict[str, float] = {}
        #: One execution report per resolved batch: its scheduler run.
        self.reports: List[RunStats] = []
        self.scheduler = get_scheduler(
            config.get("compute.scheduler"),
            max_workers=config.get("compute.max_workers"),
            cache=_decide_cache(config), **_scheduler_options(config))
        self._planned_source = None
        self._partitions = {}
        self._preview = None
        self._semantic_types: Dict[str, SemanticType] = {}
        #: End of the last resolve or finish: where the local stage starts.
        self._clock = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Input access (source-mediated)
    # ------------------------------------------------------------------ #
    @property
    def frame(self) -> DataFrame:
        """The full in-memory frame.

        Streaming-capable compute paths never touch this.  The fine-grained
        missing-value tasks (``plot_missing(df, col)`` and
        ``plot_missing(df, c1, c2)``) compare rows with and without their
        missing values, so a streaming source is materialized here once —
        losing the bounded-memory guarantee for that call (see
        :meth:`_materialize`).  Bivariate tasks align rows on the planner's
        sample instead.
        """
        return self._materialize(
            "this fine-grained task aligns rows across columns and cannot "
            "stream")

    def _materialize(self, reason: str) -> DataFrame:
        """Load the whole input once, warning why a streaming source must.

        The :class:`UserWarning` names *reason* and the estimated
        materialization size; the bound it breaks is documented on the
        corresponding ``plot`` kinds.
        """
        if self._frame is None:
            estimated = self.source.materialization_bytes()
            warnings.warn(
                f"{reason}: materializing the scanned input "
                f"(~{estimated / 1e6:.1f} MB estimated) — peak memory is no "
                f"longer bounded by the scan's budget_bytes for this call",
                UserWarning, stacklevel=4)
            self._frame = self.source.to_frame(sidecar=self.call.sidecar)
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

    def _schema(self) -> DataFrame:
        """The source's schema preview, read once per context over the
        call's sidecar route (a warm scan builds it from the chunks'
        records; a filtered scan may parse a chunk to answer it)."""
        if self._preview is None:
            self._preview = self.source.schema_preview(sidecar=self.call.sidecar)
        return self._preview

    def semantic_type(self, name: str) -> SemanticType:
        """Semantic type of column *name*: the one decision every mapping
        rule of this call dispatches on.

        Decided once per column per context, on the first
        :data:`~repro.eda.dtypes.SEMANTIC_TYPE_ROWS` rows of the schema
        preview.  That is the head of an in-memory frame and the leading
        preview rows of a scan, so a frame and a scan of the same data get
        the same type.  Only the columns a call asks about are classified.
        """
        semantic = self._semantic_types.get(name)
        if semantic is None:
            semantic = detect_semantic_type(
                self.column(name).head(SEMANTIC_TYPE_ROWS))
            self._semantic_types[name] = semantic
        return semantic

    def semantic_types(self) -> Dict[str, SemanticType]:
        """Semantic type of every column, by :meth:`semantic_type`."""
        return {name: self.semantic_type(name) for name in self.column_names}

    def numerical_columns(self) -> List[str]:
        """Columns analysed as numbers — what the histogram, correlation and
        interaction sections read (NUMERICAL implies numeric storage)."""
        return [name for name in self.column_names
                if self.semantic_type(name) is SemanticType.NUMERICAL]

    def column(self, name: str) -> Column:
        """The schema preview's column *name*, for storage-dtype questions
        (raises ColumnNotFoundError for an unknown name): the whole column of
        an in-memory source, the preview rows of a streaming one.  Semantic
        types come from :meth:`semantic_type`, data from the reductions."""
        return self._schema().column(name)

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
        if self.call.exact:
            if self.known_n_rows > max_rows:
                return None
            return self.frame.duplicate_row_count()
        return self._reduce("duplicates")

    # ------------------------------------------------------------------ #
    # Partitioning (the chunk-size precompute stage)
    # ------------------------------------------------------------------ #
    def _partitioned_source(self) -> FrameSource:
        """The source with its final partition granularity, planned once,
        at the first batch that binds a reduction.

        In-memory sources honour ``compute.partition_rows`` when the user
        set it (a source built with an explicit ``partition_rows`` is not
        overridden by the config default); streaming sources shrink their
        chunks if the scan's budget cannot hold one per scheduler worker.
        """
        if self._planned_source is None:
            started = time.perf_counter()
            if self.call.exact:
                planned = self.source.with_partitioning(
                    chunk_rows=self.config.get("compute.partition_rows")
                    if "compute.partition_rows" in self.config.provided
                    else None)
            else:
                workers = self.config.get("compute.max_workers")
                planned = self.source.with_partitioning(
                    concurrency=int(default_worker_count()
                                    if workers is None else workers))
            self._planned_source = planned
            self.timings["precompute_chunk_sizes"] = time.perf_counter() - started
        return self._planned_source

    def views(self, reports: Sequence[RunStats]) -> Dict[str, Dict[str, Any]]:
        """The four per-call views of *reports* (see :data:`VIEWS`), keyed
        ``projection`` / ``predicate`` / ``sidecar`` / ``incremental``."""
        cached = self.scheduler.cache is not None
        return {name: {**facts(self.call, cached),
                       **{counter: sum(getattr(report, counter)
                                       for report in reports)
                          for counter in counters}}
                for name, (facts, counters) in VIEWS.items()}

    # ------------------------------------------------------------------ #
    # The planner dispatch
    # ------------------------------------------------------------------ #
    def _reduce(self, kind: str, args: Tuple[Any, ...] = ()) -> Any:
        """The reduction of *kind* over this context's source.

        The graph stage returns a :class:`PendingReduction` carrying the
        kind's declared column requirement; :func:`plan_batch` binds every
        pending reduction of a batch to (possibly projected) partition
        tasks at once, so overlapping column requirements end up sharing
        parse tasks.  The local stage runs the same plan inline and
        returns its value.
        """
        if not self.call.graph:
            return self._run_inline(kind, args)
        declared = REDUCTION_KINDS[kind].columns
        required = declared(args) \
            if self.call.projection and declared is not None else None
        return PendingReduction(kind, args, required)

    def _run_inline(self, kind: str, args: Tuple[Any, ...]) -> Any:
        """Evaluate the plan of *kind* on the whole frame, as one chunk.

        ``finalize(combine([chunk(frame, *adapt(args))]))`` — what the graph
        stage computes over a single partition, minus the graph; an indexed
        chunk receives ``(0, n_rows)`` as its row range.
        """
        plan = self.call.reduction(kind)
        frame = self.frame
        n_rows = len(frame)
        chunk_args = plan.chunk_args(self.column_names, args, n_rows)
        if plan.indexed:
            chunk_args = (0, n_rows) + tuple(chunk_args)
        value = plan.combine([plan.chunk(frame, *chunk_args)])
        return value if plan.finalize is None else plan.finalize(value)

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
        if self.call.predicate is not None:
            # The nullity reduction is indexed (chunks place themselves by
            # their precomputed global row range), but a filtered partition
            # compacts rows, so those pre-filter positions would be wrong.
            # Run the plan inline instead — for a streaming source this
            # materializes (with its UserWarning) and filters.
            self._materialize("this overview task bins the missing spectrum "
                              "by row position, which a filter changes, so "
                              "it cannot stream")
            return self._run_inline("nullity", (n_bins,))
        return self._reduce("nullity", (n_bins,))

    def row_count(self) -> Union[PendingReduction, int]:
        """Total number of rows (post-filter when a predicate is pushed)."""
        if not self.call.exact and self.call.predicate is None:
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
    def resolve(self, requested: Dict[str, Any]) -> Dict[str, Any]:
        """Compute all lazy values in *requested* against one shared graph.

        Plan (:func:`plan_batch`), run (:func:`run_batch`), then append the
        batch's report and keep its partition sets.  Plain values pass
        through untouched.  The time spent adds to ``timings["graph"]``.
        """
        started = time.perf_counter()
        resolved = dict(requested)
        if any(isinstance(value, PendingReduction) for value in resolved.values()):
            batch = plan_batch(self.call, self._partitioned_source(),
                               self._partitions, resolved)
            resolved, report = run_batch(batch, self.scheduler)
            self._partitions = batch.partitions
            self.reports.append(report)
        self._clock = time.perf_counter()
        self.timings["graph"] = self.timings.get("graph", 0.0) + self._clock - started
        return resolved

    def finish(self, intermediates: "Intermediates") -> "Intermediates":
        """Attach this context's timings and execution reports to a result.

        Every compute function calls this last.  The time since the end of
        the last :meth:`resolve` or ``finish`` (or since the context was
        created) is the local ("Pandas computation") stage and adds to
        ``timings["local"]`` — a compute function finishing another on the
        same context first never counts that one's local time twice.
        ``meta`` gets the :class:`~repro.graph.scheduler.RunStats` of every
        resolved batch and the four per-call views.
        """
        now = time.perf_counter()
        self.timings["local"] = self.timings.get("local", 0.0) + now - self._clock
        self._clock = now
        intermediates.timings = dict(self.timings)
        intermediates.meta["execution_reports"] = list(self.reports)
        intermediates.meta.update(self.views(self.reports))
        return intermediates
