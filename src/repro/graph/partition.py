"""Row-partitioned DataFrame collection with lazy per-partition operations.

This plays the role of ``dask.dataframe``: a DataFrame is split into row
chunks, per-partition work is expressed lazily, and reductions are combined
with a tree so the scheduler can run chunks in parallel.

It also reproduces the paper's "precompute chunk size" stage (Section 5.2):
partition boundaries are computed *before* the lazy graph is built and passed
in as plain data, so graph construction never needs to inspect a lazy value.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.source import FilteredSource, InMemorySource
from repro.graph.delayed import Delayed, delayed


class PartitionedFrame:
    """A DataFrame split into row partitions with lazy operations.

    Partitions themselves are :class:`Delayed` values, so everything built on
    top of them lands in one task graph and benefits from sharing: two
    reductions over the same column reuse the same partition-slice tasks.
    """

    def __init__(self, partitions: Sequence[Delayed], columns: Sequence[str],
                 boundaries: Sequence[Tuple[int, int]]):
        if len(partitions) != len(boundaries):
            raise GraphError("partitions and boundaries must have equal length")
        self._partitions = list(partitions)
        self._columns = list(columns)
        self._boundaries = [tuple(boundary) for boundary in boundaries]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_frame(cls, frame: DataFrame,
                   partition_rows: Optional[int] = None) -> "PartitionedFrame":
        """Partition an in-memory DataFrame.

        The chunk sizes are precomputed eagerly (the paper's extra pipeline
        stage, :func:`~repro.frame.source.precompute_chunk_sizes`); the
        slicing itself is lazy so it can be parallelized and shared inside
        the task graph.
        """
        return cls.from_source(InMemorySource(frame, partition_rows))

    @classmethod
    def from_source(cls, source: Any,
                    columns: Optional[Sequence[str]] = None,
                    predicate: Optional[Any] = None,
                    sidecar: Optional[Any] = None) -> "PartitionedFrame":
        """Partition any :class:`~repro.frame.source.FrameSource`.

        The source's precomputed :class:`~repro.frame.source.SourcePartition`
        rows-ranges become lazy tasks — ``delayed(part.func)(*part.args)``,
        carrying the facts the partition declares about its task
        (:meth:`~repro.frame.source.SourcePartition.task_spec`) — so
        in-memory slices, single-file CSV byte ranges and multi-file
        concatenations all land in the same task graph shape, and a custom
        source needs no graph-layer code at all.

        *columns* projects every partition task onto that column subset:
        the projection travels as an explicit task argument, so two
        reductions needing the same column set share one projected parse
        per chunk — same task key, so one task within a graph and one cache
        entry across calls — while projected and full parses always occupy
        distinct keys.

        *predicate* — a :class:`~repro.frame.predicate.Predicate` or its
        ``spec()`` tuple form — filters every partition task's rows before
        they reach downstream reductions.  Like the projection, it travels
        as an explicit task argument, so filtered and unfiltered parses of
        the same chunk occupy distinct task keys, while two filtered
        reductions with the same predicate share one parse.  Note the
        boundaries keep the source's pre-filter row offsets: a filtered
        partition holds *at most* ``stop - start`` rows, so indexed
        reductions (which assume exact global positions) must not be
        planned over a filtered frame.  The reservoir sample is the one
        indexed plan that may: it takes ``start`` only as the seed of its
        chunk's draw, which the pre-filter offsets keep stable.  It
        defaults to a :class:`~repro.frame.source.FilteredSource`'s own
        predicate, so its zone-map survivors are filtered too; over a raw
        source every chunk is kept, so this is also the unpruned form of a
        filtered partition set.

        *sidecar* — a :class:`~repro.frame.sidecar.SidecarRoute` tuple —
        routes every partition task through the parsed-chunk binary cache.
        It needs the source to declare ``capabilities.chunk_sidecar`` —
        checked here, before any task is built.  Unlike the two pushdowns
        it is non-semantic: the graph layer excludes the keyword from task
        keys, so enabling or moving the disk cache never changes task
        identity.

        A partition whose rows its source already holds decoded
        (``SourcePartition.decoded``) hands them to its task here, as the
        non-semantic ``decoded=`` keyword: the task skips its decode, and
        its key, cache key and sidecar entry stay those of the decoding
        task.
        """
        parts = source.partitions()
        if not parts:
            raise GraphError("a FrameSource must expose at least one partition")
        spec = route = None
        if predicate is None and isinstance(source, FilteredSource):
            predicate = source.predicate
        if predicate is not None:
            spec = predicate.spec() if hasattr(predicate, "spec") \
                else tuple(tuple(entry) for entry in predicate)
        if sidecar is not None:
            if not source.capabilities.chunk_sidecar:
                raise GraphError(
                    f"{type(source).__name__} does not declare "
                    f"capabilities.chunk_sidecar, so its partition tasks "
                    f"take no sidecar= keyword")
            route = tuple(sidecar)
        if columns is not None:
            known = set(source.columns)
            for name in columns:
                if name not in known:
                    raise GraphError(
                        f"projection names unknown column {name!r}; "
                        f"source has {source.columns}")
        partitions = []
        for part in parts:
            func, args, kwargs, declared = part.task_spec(columns, spec, route)
            if part.decoded is not None:
                kwargs["decoded"] = part.decoded(kwargs.get("columns"),
                                                 kwargs.get("predicate"))
            partitions.append(delayed(func, **declared)(*args, **kwargs))
        boundaries = [(part.start, part.stop) for part in parts]
        frame_columns = source.columns if columns is None else list(columns)
        return cls(partitions, frame_columns, boundaries)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def npartitions(self) -> int:
        """Number of row partitions."""
        return len(self._partitions)

    @property
    def columns(self) -> List[str]:
        """Column names (known without computing anything)."""
        return list(self._columns)

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        """Precomputed ``(start, stop)`` row ranges of each partition."""
        return list(self._boundaries)

    @property
    def n_rows(self) -> int:
        """Total number of rows (known from the precomputed chunk sizes)."""
        if not self._boundaries:
            return 0
        return self._boundaries[-1][1]

    @property
    def partitions(self) -> List[Delayed]:
        """The lazy partition values."""
        return list(self._partitions)

    # ------------------------------------------------------------------ #
    # Lazy operations
    # ------------------------------------------------------------------ #
    def map_partitions(self, func: Callable[..., Any], *args: Any,
                       **kwargs: Any) -> List[Delayed]:
        """Apply ``func(partition, *args, **kwargs)`` lazily to every partition."""
        wrapped = delayed(func, prefix=getattr(func, "__name__", "map"))
        return [wrapped(partition, *args, **kwargs) for partition in self._partitions]

    def reduction(self, chunk: Callable[..., Any],
                  combine: Callable[[List[Any]], Any],
                  finalize: Optional[Callable[[Any], Any]] = None,
                  chunk_args: Tuple[Any, ...] = (),
                  split_every: int = 8, indexed: bool = False) -> Delayed:
        """Tree reduction over all partitions.

        ``chunk`` maps one partition to a partial result, ``combine`` merges a
        list of partial results (applied level by level with fan-in
        *split_every*), and ``finalize`` post-processes the final merge.

        With *indexed* the chunk function also receives its row range —
        ``chunk(partition, start, stop, *chunk_args)`` — so the precomputed
        global row boundaries let position-dependent sketches (e.g. the
        missing-spectrum row bins) place their partition in the whole
        dataset without any global pass.
        """
        if indexed:
            wrapped = delayed(chunk, prefix=getattr(chunk, "__name__", "chunk"))
            partials = [wrapped(partition, start, stop, *chunk_args)
                        for partition, (start, stop)
                        in zip(self._partitions, self._boundaries)]
        else:
            partials = self.map_partitions(chunk, *chunk_args)
        return tree_combine(partials, combine, finalize, split_every=split_every)

    def compute(self, scheduler: Optional[Any] = None) -> DataFrame:
        """Materialize the whole collection back into one DataFrame."""
        from repro.graph.delayed import compute as compute_values
        frames = compute_values(*self._partitions, scheduler=scheduler)
        return concat_rows([frame for frame in frames if len(frame) > 0] or frames)


def tree_combine(values: Sequence[Delayed],
                 combine: Callable[[List[Any]], Any],
                 finalize: Optional[Callable[[Any], Any]] = None,
                 split_every: int = 8) -> Delayed:
    """Combine lazy values with a balanced tree of *combine* calls."""
    if not values:
        raise GraphError("cannot combine zero values")
    if split_every < 2:
        # A group of one never shrinks a level: the tree would not end.
        raise GraphError(f"split_every must be at least 2, got {split_every!r}")
    combiner = delayed(combine, prefix=getattr(combine, "__name__", "combine"))
    level = list(values)
    while len(level) > 1:
        next_level: List[Delayed] = []
        for index in range(0, len(level), split_every):
            group = level[index:index + split_every]
            if len(group) == 1:
                next_level.append(group[0])
            else:
                next_level.append(combiner(list(group)))
        level = next_level
    result = level[0]
    if len(values) == 1:
        # A single partition skips the combine tree entirely; run combine once
        # so chunk/combine/finalize semantics stay uniform for callers.
        result = combiner([result])
    if finalize is not None:
        finalizer = delayed(finalize, prefix=getattr(finalize, "__name__", "finalize"))
        result = finalizer(result)
    return result
