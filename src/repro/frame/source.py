"""The ``FrameSource`` protocol: source-agnostic input to the EDA pipeline.

The compute layer (Section 5.2 of the paper) is one lazy partitioned
pipeline — per-partition work, tree merge, finalize — regardless of where
the bytes come from.  This module defines the contract a data source must
satisfy to feed that pipeline.  There are two built-in implementations:

* :class:`InMemorySource` (here) — wraps a materialized
  :class:`DataFrame`; partitions are lazy row slices and every reduction
  may use the exact (unbounded per-value memory) finalizers.
* :class:`~repro.frame.io.CsvSource` — what ``repro.scan_csv`` returns for
  a path, a list or a glob: one schema (the first file's dtypes) over one
  quote-aware chunk layout per file, whose partitions parse record-aligned
  byte ranges lazily, so reductions must use bounded-memory sketches.

plus :class:`FilteredSource`, the row-predicate view over either.  The
CSV class lives in :mod:`repro.frame.io`, which imports this module —
never the other way round: everything here reaches a concrete source only
through the protocol.

Sources are *refreshable*: ``refreshed()`` re-resolves the on-disk state
and returns an updated source (or ``self`` when nothing changed).  CSV
appends are recognised as growth — the old chunks keep their byte ranges
and per-chunk content stamps, so their partition tasks' cross-call cache
keys survive and only the appended chunks execute on the next EDA call.
:func:`refresh_input` is the user-facing dispatcher over any handle.

A source declares :class:`SourceCapabilities`; the reduction planner in
:mod:`repro.eda.compute.base` picks exact vs. sketch chunk/combine/finalize
triples from them, which is what lets a new backend (compressed CSV,
columnar files, remote objects) land as one source class instead of a new
fork through every compute module.

Implementing a custom source
----------------------------
Provide the :class:`FrameSource` members: schema (``columns`` /``dtypes`` /
``n_rows`` / ``schema_preview``, which takes the call's ``sidecar=`` route
and may ignore it), a content ``fingerprint`` (stable across
processes for unchanged data — it feeds cross-call cache keys), and
``partitions()`` returning :class:`SourcePartition` rows-ranges whose
``func``/``args`` lazily materialize each chunk.  ``func`` must be a
module-level function and every argument fingerprintable (paths, numbers,
tuples, dtype enums), otherwise the partition tasks are excluded from the
cross-call cache.  A partition's task declares what it is when it is built
(:meth:`SourcePartition.task_spec`), so every run counter —
``full_parses`` / ``projected_parses``, ``chunks_new`` / ``chunks_reused``
— is right for any source by default; ``prefix`` is only the label its
task keys start with, and the optional ``path`` / ``byte_span`` fields add
``bytes_reparsed`` and per-file worker affinity for sources that read
files.  Declare ``capabilities.exact=False`` unless the whole
dataset may safely coexist in memory.  Every partition ``func`` takes a
``columns=`` keyword (a column subset to materialize) and a ``predicate=``
keyword (a :meth:`~repro.frame.predicate.Predicate.spec` whose rows to
keep); a source with no native support applies
:meth:`~repro.frame.frame.DataFrame.select` /
:func:`~repro.frame.predicate.apply_predicate_spec` inside its func.  A
source that keeps per-chunk statistics may also offer
``partitions_matching(spec)`` — its partitions minus those that provably
hold no row matching the predicate spec — which :class:`FilteredSource`
uses to skip chunks; without it every chunk parses and filters.  See
``docs/architecture.md`` for a worked example.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import ColumnNotFoundError, FrameError
from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.predicate import ColumnExpr, Predicate, apply_predicate_spec
from repro.frame.sidecar import SidecarRoute

#: Default number of rows per in-memory partition; chosen so per-partition
#: numpy work dominates python/scheduler overhead for datasets in the
#: paper's size range.
DEFAULT_PARTITION_ROWS = 100_000


# --------------------------------------------------------------------------- #
# Partition task functions.
#
# Module-level (never lambdas) so task keys name them by import path — shared
# in a graph, cached across calls; the graph layer wraps them with ``delayed``.
# --------------------------------------------------------------------------- #
def _slice_frame(frame: DataFrame, start: int, stop: int,
                 columns: Optional[Tuple[str, ...]] = None,
                 predicate: Optional[Tuple[Tuple[str, str, Any], ...]] = None
                 ) -> DataFrame:
    """Materialize one row partition of an in-memory frame.

    *columns* projects the partition onto a column subset.  Both the
    projected and the full slice are zero-copy: every partition column is a
    view into the source frame's buffers
    (:meth:`~repro.frame.column.Column.slice_view`), so slicing costs
    O(columns kept), never O(rows).

    *predicate* (a :meth:`~repro.frame.predicate.Predicate.spec` tuple)
    filters the partition's rows.  The slice views stay zero-copy; the mask
    is evaluated over the views and only the surviving rows are copied out,
    so the cost is O(rows kept), never O(table).
    """
    names = frame.columns if columns is None else list(columns)
    if predicate is None:
        return DataFrame([frame.column(name).slice_view(start, stop)
                          for name in names])
    wanted = set(names)
    needed = names + [column for column, _, _ in predicate
                      if column in frame.columns and column not in wanted]
    view = DataFrame([frame.column(name).slice_view(start, stop)
                      for name in needed])
    filtered = apply_predicate_spec(view, predicate)
    return filtered[list(names)] if len(needed) != len(names) else filtered


# --------------------------------------------------------------------------- #
# The protocol
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SourceCapabilities:
    """What the reduction planner may assume about a source.

    ``exact``
        True when the whole dataset may safely coexist in memory, so every
        reduction may use the exact finalizers (full value-count tables,
        fraction-based row samples, the exact duplicate scan).  False means
        the source streams from storage and reductions must use the
        bounded-memory sketch variants instead.
    ``chunk_sidecar``
        True when the source's partition task functions accept a
        ``sidecar=`` keyword (a :class:`~repro.frame.sidecar.SidecarRoute`
        tuple) and consult/maintain the parsed-chunk binary cache — warm
        re-scans then skip CSV decoding entirely.  Only meaningful for
        sources that pay a real parse per chunk; defaults to False so
        in-memory and custom sources are unaffected until they opt in.
        :meth:`PartitionedFrame.from_source
        <repro.graph.partition.PartitionedFrame.from_source>` refuses a
        sidecar route for a source that does not declare it.
    """

    exact: bool = True
    chunk_sidecar: bool = False


@dataclass(frozen=True)
class SourcePartition:
    """One lazily-materialized row chunk of a source.

    ``start`` / ``stop`` are precomputed global row boundaries (the paper's
    "precompute chunk sizes" stage), known before any lazy graph is built.
    ``func(*args)`` materializes the chunk as a :class:`DataFrame`; the
    graph layer wraps it in a task, so *func* must be module-level and
    *args* fingerprintable for the partition to be cacheable across calls.
    ``prefix`` labels the task's key for whoever reads it; nothing parses
    it.  A partition that reads a file names it in ``path`` (its tasks then
    prefer the remote worker that served the file before) and says how many
    bytes of it a materialization reads in ``byte_span``.

    A source that already holds the chunk's decoded rows sets ``decoded``:
    ``decoded(columns, predicate)`` returns them, for the projection and
    predicate of the task, as plain arrays that *func* takes as its
    ``decoded=`` keyword instead of decoding.  Only the graph hands them
    over (:meth:`PartitionedFrame.from_source
    <repro.graph.partition.PartitionedFrame.from_source>`);
    :meth:`materialize` always decodes.
    """

    start: int
    stop: int
    func: Callable[..., DataFrame]
    args: Tuple[Any, ...]
    prefix: str = "partition"
    path: Optional[str] = None
    byte_span: int = 0
    decoded: Optional[Callable[..., Any]] = field(default=None, compare=False,
                                                  repr=False)

    @property
    def n_rows(self) -> int:
        """Number of rows in this partition (known without materializing)."""
        return self.stop - self.start

    def task_spec(self, columns: Optional[Sequence[str]] = None,
                  predicate: Optional[Sequence[Tuple[str, str, Any]]] = None,
                  sidecar: Optional[Sequence[Any]] = None
                  ) -> Tuple[Callable[..., DataFrame], Tuple[Any, ...],
                             Dict[str, Any], Dict[str, Any]]:
        """``(func, args, kwargs, declared)`` of this partition's task.

        This only builds the call; nothing inspects the func.

        *declared* holds the keywords of
        :func:`~repro.graph.delayed.delayed` that say what the task is —
        this is the one place that knows: the ``counts`` one execution adds
        to the run's :class:`~repro.graph.scheduler.RunStats` (a projected
        or a full parse, one new chunk, ``byte_span`` bytes read), the
        ``affinity`` (``path``) and the key ``prefix``.

        With *columns* the task materializes only that column subset:
        the projection travels as an explicit ``columns=`` keyword (so
        task keys incorporate it), the task counts as a projected parse
        and the prefix reads ``.proj``.

        With *predicate* (a :meth:`~repro.frame.predicate.Predicate.spec`
        tuple) the task additionally filters the partition's rows.  The
        predicate travels as an explicit ``predicate=`` keyword of plain
        nested tuples — the graph layer tokenizes those structurally, so
        filtered tasks get their own task keys, and the payload stays
        picklable for process-pool shipping — and the prefix reads
        ``.filt``.

        With *sidecar* (a :class:`~repro.frame.sidecar.SidecarRoute`
        tuple) the task consults and maintains the parsed-chunk binary
        cache.  Unlike projection and predicate, the route is
        *non-semantic* — it changes where the bytes come from, never what
        the task returns — so the graph layer excludes the keyword from
        task keys: a cached result from a sidecar-less run serves a
        sidecar-enabled one and vice versa.
        """
        kwargs: Dict[str, Any] = {}
        prefix = self.prefix
        if columns is not None:
            kwargs["columns"] = tuple(columns)
            prefix += ".proj"
        if predicate is not None:
            kwargs["predicate"] = tuple(tuple(entry) for entry in predicate)
            prefix += ".filt"
        if sidecar is not None:
            # Ship a plain tuple, not the SidecarRoute NamedTuple: the graph
            # layer's container walkers rebuild tuples as type(value)(items),
            # which would feed a NamedTuple its fields as one argument.  The
            # constructor call validates the route's arity/field order.
            kwargs["sidecar"] = tuple(SidecarRoute(*sidecar))
        counts = {"full_parses" if columns is None else "projected_parses": 1,
                  "chunks_new": 1, "bytes_reparsed": self.byte_span}
        return self.func, self.args, kwargs, {
            "prefix": prefix, "counts": counts, "affinity": self.path}

    def materialize(self, columns: Optional[Sequence[str]] = None,
                    predicate: Optional[Sequence[Tuple[str, str, Any]]] = None,
                    sidecar: Optional[Sequence[Any]] = None
                    ) -> DataFrame:
        """Eagerly materialize the chunk (tests and non-graph callers).

        *columns* restricts the materialization to a column subset —
        zero-copy views for :class:`InMemorySource`, a projected byte-range
        parse for the CSV sources.  *predicate* filters the chunk's rows.
        *sidecar* routes the materialization through the parsed-chunk cache
        for sidecar-capable sources.
        """
        func, args, kwargs, _ = self.task_spec(columns, predicate, sidecar)
        return func(*args, **kwargs)


@runtime_checkable
class FrameSource(Protocol):
    """Anything the EDA pipeline can partition and stream.

    See the module docstring for the contract; :func:`as_source` adapts the
    one user-facing input that is not already a source (``DataFrame``).
    """

    @property
    def columns(self) -> List[str]: ...          # pragma: no cover - protocol

    @property
    def dtypes(self) -> Dict[str, DType]: ...    # pragma: no cover - protocol

    @property
    def n_rows(self) -> int: ...                 # pragma: no cover - protocol

    @property
    def capabilities(self) -> SourceCapabilities: ...  # pragma: no cover

    def schema_preview(self, sidecar: Optional[Sequence[Any]] = None
                       ) -> DataFrame: ...       # pragma: no cover - protocol

    def fingerprint(self) -> str: ...            # pragma: no cover - protocol

    def footprint_bytes(self) -> int: ...        # pragma: no cover - protocol

    def materialization_bytes(self) -> int: ...  # pragma: no cover - protocol

    def partitions(self) -> List[SourcePartition]: ...  # pragma: no cover

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          concurrency: int = 1) -> "FrameSource":
        ...                                      # pragma: no cover - protocol

    def to_frame(self) -> DataFrame: ...         # pragma: no cover - protocol


# --------------------------------------------------------------------------- #
# In-memory frames
# --------------------------------------------------------------------------- #
class InMemorySource:
    """A :class:`FrameSource` over a materialized :class:`DataFrame`.

    Partitions are lazy row slices over the already-resident arrays, so the
    source declares ``capabilities.exact=True``: reductions keep today's
    exact results, pinned by the streaming-equivalence suite.
    """

    def __init__(self, frame: DataFrame, partition_rows: Optional[int] = None):
        if not isinstance(frame, DataFrame):
            raise FrameError("InMemorySource expects a repro.frame.DataFrame")
        if partition_rows is not None and partition_rows <= 0:
            raise FrameError("partition_rows must be positive")
        self._frame = frame
        self._partition_rows = partition_rows

    @property
    def frame(self) -> DataFrame:
        """The wrapped frame (the exact object, not a copy)."""
        return self._frame

    @property
    def columns(self) -> List[str]:
        return self._frame.columns

    @property
    def dtypes(self) -> Dict[str, DType]:
        return self._frame.dtypes

    @property
    def n_rows(self) -> int:
        return len(self._frame)

    @property
    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(exact=True)

    def schema_preview(self, sidecar: Optional[Sequence[Any]] = None
                       ) -> DataFrame:
        """Schema questions may read the whole frame — it is already resident."""
        return self._frame

    def fingerprint(self) -> str:
        return self._frame.fingerprint()

    def footprint_bytes(self) -> int:
        return self._frame.memory_bytes()

    def materialization_bytes(self) -> int:
        return self._frame.memory_bytes()

    def partitions(self) -> List[SourcePartition]:
        return [SourcePartition(start, stop, _slice_frame,
                                (self._frame, start, stop))
                for start, stop in precompute_chunk_sizes(
                    len(self._frame), self._partition_rows)]

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          concurrency: int = 1) -> "InMemorySource":
        """Re-plan the partition granularity; *concurrency* is unused."""
        if chunk_rows is None or chunk_rows == self._partition_rows:
            return self
        return InMemorySource(self._frame, partition_rows=chunk_rows)

    def refreshed(self) -> "InMemorySource":
        """In-memory data has no on-disk state to re-resolve."""
        return self

    def to_frame(self) -> DataFrame:
        return self._frame

    def __repr__(self) -> str:
        return (f"InMemorySource(rows={len(self._frame)}, "
                f"columns={self._frame.columns})")


def precompute_chunk_sizes(n_rows: int, partition_rows: Optional[int] = None,
                           n_partitions: Optional[int] = None
                           ) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` row ranges covering ``[0, n_rows)``.

    The paper's "precompute chunk size" stage (Section 5.2): boundaries are
    computed before the lazy graph is built and passed in as plain data.
    At most one of *partition_rows* / *n_partitions* may be given; with
    neither, :data:`DEFAULT_PARTITION_ROWS` is used.
    """
    if n_rows < 0:
        raise FrameError("n_rows must be non-negative")
    if partition_rows is not None and n_partitions is not None:
        raise FrameError("pass either partition_rows or n_partitions, not both")
    if n_partitions is not None:
        if n_partitions <= 0:
            raise FrameError("n_partitions must be positive")
        partition_rows = max(1, -(-n_rows // n_partitions))
    if partition_rows is None:
        partition_rows = DEFAULT_PARTITION_ROWS
    if partition_rows <= 0:
        raise FrameError("partition_rows must be positive")
    if n_rows == 0:
        return [(0, 0)]
    return [(start, min(start + partition_rows, n_rows))
            for start in range(0, n_rows, partition_rows)]


# --------------------------------------------------------------------------- #
# Column access shared by every lazy handle (scan_csv results, filtered views)
# --------------------------------------------------------------------------- #
def _source_getitem(source: "FrameSource", item: Any) -> Any:
    """``source["x"]`` and ``source[pred]``: lazy filter building.

    A column name returns a symbolic
    :class:`~repro.frame.predicate.ColumnExpr` (whose comparisons build
    predicates); a :class:`~repro.frame.predicate.Predicate` returns a lazy
    :class:`FilteredSource` — no data bytes are read either way: the filter
    is pushed into the chunk parses (and zone-map chunk skipping) when the
    EDA layer plans over the result.
    """
    if isinstance(item, str):
        if item not in source.columns:
            raise ColumnNotFoundError(item, source.columns)
        return ColumnExpr(item)
    if isinstance(item, Predicate):
        return FilteredSource(source, item)
    raise FrameError(
        f"{type(source).__name__} accepts a column name or a Predicate, got "
        f"{type(item).__name__}; for row masks, read the file with read_csv "
        f"and filter the DataFrame")


def _source_getattr(source: "FrameSource", name: str) -> ColumnExpr:
    """``source.x`` as shorthand for ``source["x"]`` (known columns only).

    Called from ``__getattr__``, so only for names normal lookup missed.  A
    name the class defines got here because its property raised
    ``AttributeError`` — re-raise rather than ask the source for its
    columns again.
    """
    if not name.startswith("_") and not hasattr(type(source), name) \
            and name in source.columns:
        return ColumnExpr(name)
    raise AttributeError(
        f"{type(source).__name__!r} object has no attribute {name!r}")


# --------------------------------------------------------------------------- #
# Filtered views
# --------------------------------------------------------------------------- #
class FilteredSource:
    """A :class:`FrameSource` view applying a row predicate to a source.

    This is what a filtered EDA call plans against: ``scan[scan["x"] > 0]``
    and ``plot(..., where=...)`` over a streaming input both produce one.
    The wrapper delegates schema and partitioning to the inner source and
    adds two things:

    * **chunk skipping** — ``partitions()`` asks the inner source for its
      ``partitions_matching(spec)`` (the CSV scans answer from per-chunk
      zone maps, :mod:`repro.frame.zonemap`), dropping chunks whose min/max
      ranges prove no row can match; the planner counts what was skipped
      as the inner source's partitions minus these;
    * **the predicate itself** — exposed as :attr:`predicate` so the
      reduction planner pushes its spec into the surviving partition tasks
      (each chunk parse then filters rows before coercion and sketching),
      as :meth:`to_frame` does too.

    ``capabilities.exact`` is always False: the post-filter row count is
    unknown before execution, so the planner must use the bounded sketch
    reductions even over an in-memory inner source.  Stacked filters
    flatten: filtering a ``FilteredSource`` ANDs the predicates into one
    wrapper.
    """

    def __init__(self, source: Any, predicate: Predicate):
        source = as_source(source)
        if not isinstance(predicate, Predicate):
            raise FrameError("FilteredSource expects a compiled Predicate; "
                             "see repro.frame.predicate.compile_predicate")
        if isinstance(source, FilteredSource):
            predicate = source.predicate & predicate
            source = source.source
        unknown = [name for name in predicate.columns
                   if name not in source.columns]
        if unknown:
            raise FrameError(
                f"predicate references unknown column(s) {unknown}; "
                f"available: {source.columns}")
        self._source = source
        self._predicate = predicate

    # ------------------------------------------------------------------ #
    # The filtered view
    # ------------------------------------------------------------------ #
    @property
    def source(self) -> FrameSource:
        """The wrapped (unfiltered) source."""
        return self._source

    @property
    def predicate(self) -> Predicate:
        """The row predicate this view applies."""
        return self._predicate

    def __getitem__(self, item: Any) -> Any:
        """``filtered["x"]`` names a column; ``filtered[pred]`` stacks."""
        return _source_getitem(self, item)

    def __getattr__(self, name: str) -> ColumnExpr:
        return _source_getattr(self, name)

    # ------------------------------------------------------------------ #
    # FrameSource protocol, by delegation
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> List[str]:
        return self._source.columns

    @property
    def dtypes(self) -> Dict[str, DType]:
        return self._source.dtypes

    @property
    def n_rows(self) -> int:
        """Pre-filter row count: an upper bound on the filtered rows.

        The true count is only known after execution; the compute layer
        answers ``row_count`` for a filtered source with a real reduction
        instead of this number.
        """
        return self._source.n_rows

    @property
    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(
            exact=False, chunk_sidecar=self._source.capabilities.chunk_sidecar)

    def schema_preview(self, sidecar: Optional[Sequence[Any]] = None
                       ) -> DataFrame:
        """A bounded preview of the rows that survive the filter, from the
        inner source's preview over the *sidecar* route.

        Filtering keeps schema questions (semantic type detection) aligned
        with what an in-memory user would see after masking the same rows.
        A selective filter on data clustered away from the file head can
        annihilate the inner preview (e.g. ``ts >= recent`` over a
        timestamp-ordered log); schema detection over zero rows would then
        misread every column, so in that case matching rows are collected
        from the (zone-map pruned) partitions instead — bounded by the
        inner preview's own size.
        """
        preview = self._source.schema_preview(sidecar=sidecar)
        filtered = preview.filter(self._predicate.mask(preview))
        if len(filtered) > 0 or len(preview) == 0:
            return filtered
        target = len(preview)
        spec = self._predicate.spec()
        collected: List[DataFrame] = []
        rows = 0
        for part in self.partitions():
            frame = part.materialize(predicate=spec, sidecar=sidecar)
            if len(frame) > 0:
                collected.append(frame)
                rows += len(frame)
            if rows >= target:
                break
        if not collected:
            return filtered
        merged = concat_rows(collected)
        return merged.slice(0, target) if len(merged) > target else merged

    def fingerprint(self) -> str:
        payload = repr((self._source.fingerprint(), self._predicate.spec()))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def footprint_bytes(self) -> int:
        return self._source.footprint_bytes()

    def materialization_bytes(self) -> int:
        """Upper bound: the filter can only shrink the materialization."""
        return self._source.materialization_bytes()

    def partitions(self) -> List[SourcePartition]:
        """The inner partitions minus provably non-matching chunks.

        Chunks are pruned by the inner source's ``partitions_matching``
        when it has one; row boundaries of the surviving partitions keep
        their original pre-filter global offsets.  When every chunk is
        prunable, the first is kept anyway — it parses and filters to zero
        rows — so downstream planning never sees an empty partition list.
        """
        matching = getattr(self._source, "partitions_matching", None)
        if matching is None:
            return self._source.partitions()
        return matching(self._predicate.spec()) or self._source.partitions()[:1]

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          concurrency: int = 1) -> "FilteredSource":
        inner = self._source.with_partitioning(chunk_rows=chunk_rows,
                                               concurrency=concurrency)
        if inner is self._source:
            return self
        return FilteredSource(inner, self._predicate)

    def refreshed(self) -> "FilteredSource":
        """The same filtered view over the refreshed inner source."""
        inner = refresh_input(self._source)
        if inner is self._source:
            return self
        return FilteredSource(inner, self._predicate)

    def to_frame(self) -> DataFrame:
        """Materialize the rows that survive the filter.

        Only the partitions zone-map pruning keeps are read, each with the
        predicate pushed into its materialization, concatenated in order —
        pruning never drops a matching row, so this equals masking the whole
        inner frame without decoding the chunks that cannot match.
        """
        spec = self._predicate.spec()
        frames = [part.materialize(predicate=spec) for part in self.partitions()]
        return concat_rows([frame for frame in frames if len(frame)] or frames[:1])

    def __repr__(self) -> str:
        return (f"FilteredSource({self._source!r}, "
                f"predicate={self._predicate!r})")


# --------------------------------------------------------------------------- #
# Adapters
# --------------------------------------------------------------------------- #
def as_source(data: Any) -> FrameSource:
    """Adapt any supported EDA input onto the :class:`FrameSource` protocol.

    A ``DataFrame`` becomes an :class:`InMemorySource`; objects already
    satisfying the protocol (``scan_csv`` handles, filtered views, custom
    sources) pass through unchanged.
    """
    if isinstance(data, DataFrame):
        return InMemorySource(data)
    if isinstance(data, FrameSource):
        return data
    raise FrameError(
        "expected a repro.frame.DataFrame, a scan_csv handle or a "
        f"FrameSource implementation, got {type(data).__name__}")


def refresh_input(data: Any) -> Any:
    """Re-resolve any EDA input handle against its current on-disk state.

    Anything with a ``refreshed()`` method (``scan_csv`` handles, filtered
    views, custom sources) returns an updated handle of the same type
    (``data`` itself when nothing changed); appends are recognised as
    growth, so the refreshed handle's unchanged chunks keep their
    cross-call cache keys and only new chunks execute.  Inputs with no
    on-disk state (a ``DataFrame``) pass through unchanged.  This is what
    ``repro.refresh`` and ``Report.refresh()`` call.
    """
    refreshed = getattr(data, "refreshed", None)
    return refreshed() if callable(refreshed) else data


__all__ = [
    "FilteredSource",
    "FrameSource",
    "InMemorySource",
    "SourceCapabilities",
    "SourcePartition",
    "as_source",
    "precompute_chunk_sizes",
    "refresh_input",
]
