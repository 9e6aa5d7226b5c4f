"""Tests for the partitioned frame and chunk-size precompute stage."""

import numpy as np
import pytest

from repro.errors import FrameError, GraphError
from repro.frame import DataFrame
from repro.graph import PartitionedFrame, precompute_chunk_sizes
from repro.graph.partition import tree_combine
from repro.graph.delayed import delayed


@pytest.fixture
def wide_frame() -> DataFrame:
    rng = np.random.default_rng(5)
    return DataFrame({
        "x": rng.normal(0, 1, 1000),
        "y": rng.integers(0, 50, 1000),
        "g": list(rng.choice(["a", "b", "c"], 1000)),
    })


class TestPrecomputeChunkSizes:
    def test_covers_all_rows(self):
        boundaries = precompute_chunk_sizes(1050, partition_rows=100)
        assert boundaries[0] == (0, 100)
        assert boundaries[-1] == (1000, 1050)
        assert sum(stop - start for start, stop in boundaries) == 1050

    def test_n_partitions(self):
        boundaries = precompute_chunk_sizes(1000, n_partitions=4)
        assert len(boundaries) == 4

    def test_empty_input(self):
        assert precompute_chunk_sizes(0) == [(0, 0)]

    def test_invalid_arguments(self):
        # One boundary function, in the frame layer (InMemorySource uses it).
        with pytest.raises(FrameError):
            precompute_chunk_sizes(10, partition_rows=5, n_partitions=2)
        with pytest.raises(FrameError):
            precompute_chunk_sizes(10, partition_rows=0)
        with pytest.raises(FrameError):
            precompute_chunk_sizes(-1)
        with pytest.raises(FrameError):
            precompute_chunk_sizes(10, n_partitions=0)


class TestPartitionedFrame:
    def test_partition_counts_and_rows(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=128)
        assert partitioned.npartitions == 8
        assert partitioned.n_rows == 1000
        assert partitioned.columns == wide_frame.columns

    def test_compute_round_trips_the_frame(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=300)
        assert partitioned.compute() == wide_frame

    def test_reduction_matches_direct_computation(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=100)
        total = partitioned.reduction(
            chunk=lambda part: part.column("x").sum(),
            combine=lambda parts: sum(parts)).compute()
        assert total == pytest.approx(wide_frame.column("x").sum())

    def test_reduction_with_finalize(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=100)
        mean = partitioned.reduction(
            chunk=lambda part: (part.column("x").sum(), len(part)),
            combine=lambda parts: (sum(p[0] for p in parts), sum(p[1] for p in parts)),
            finalize=lambda pair: pair[0] / pair[1]).compute()
        assert mean == pytest.approx(wide_frame.column("x").mean())

    def test_single_partition_still_runs_combine(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=5000)
        assert partitioned.npartitions == 1
        total = partitioned.reduction(
            chunk=lambda part: len(part),
            combine=lambda parts: sum(parts)).compute()
        assert total == 1000

    def test_map_partitions(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=250)
        lengths = [value.compute() for value in partitioned.map_partitions(len)]
        assert sum(lengths) == 1000

    def test_from_frame_is_the_in_memory_source(self, wide_frame):
        from repro.frame.source import InMemorySource
        direct = PartitionedFrame.from_frame(wide_frame, partition_rows=400)
        source = PartitionedFrame.from_source(InMemorySource(wide_frame, 400))
        assert [part.key for part in direct.partitions] == \
            [part.key for part in source.partitions]
        assert direct.boundaries == source.boundaries == \
            [(0, 400), (400, 800), (800, 1000)]
        with pytest.raises(FrameError):
            PartitionedFrame.from_frame(wide_frame, partition_rows=0)
        empty = PartitionedFrame.from_frame(wide_frame.slice(0, 0))
        assert empty.boundaries == [(0, 0)] and len(empty.compute()) == 0

    def test_partition_slices_are_shared_between_reductions(self, wide_frame):
        from repro.graph.delayed import merge_graphs
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=100)
        first = partitioned.reduction(chunk=len, combine=sum)
        second = partitioned.reduction(
            chunk=lambda part: part.column("y").sum(), combine=sum)
        merged, _ = merge_graphs([first, second])
        slice_tasks = [key for key in merged.keys() if key.startswith("partition-")]
        assert len(slice_tasks) == partitioned.npartitions


class TestCsvPartitioning:
    def test_scanned_csv_round_trips_the_frame(self, wide_frame, tmp_path):
        from repro.frame.io import scan_csv, write_csv
        path = tmp_path / "wide.csv"
        write_csv(wide_frame, str(path))
        partitioned = PartitionedFrame.from_source(
            scan_csv(str(path), chunk_rows=128))
        assert partitioned.npartitions == 8
        assert partitioned.n_rows == len(wide_frame)
        assert partitioned.columns == wide_frame.columns
        total = partitioned.reduction(
            chunk=lambda part: part.column("x").sum(),
            combine=lambda parts: float(sum(parts))).compute()
        assert total == pytest.approx(wide_frame.column("x").sum())

    def test_scanned_csv_partitions_share_dtypes(self, wide_frame, tmp_path):
        from repro.frame.io import scan_csv, write_csv
        path = tmp_path / "wide.csv"
        write_csv(wide_frame, str(path))
        partitioned = PartitionedFrame.from_source(
            scan_csv(str(path), chunk_rows=400))
        frames = [partition.compute() for partition in partitioned.partitions]
        dtype_sets = {tuple(sorted((name, dtype.value)
                                   for name, dtype in frame.dtypes.items()))
                      for frame in frames}
        assert len(dtype_sets) == 1

    def test_scan_csv_precomputes_chunks_and_validates(self, tmp_path):
        from repro.errors import FrameError
        from repro.frame.io import scan_csv
        path = tmp_path / "tiny.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        scan = scan_csv(str(path), chunk_rows=10)
        assert scan.columns == ["a", "b"]
        assert scan.boundaries == [(0, 2)]
        assert len(scan.byte_ranges) == 1
        with pytest.raises(FrameError):
            scan_csv(str(path), chunk_rows=0)


class TestTreeCombine:
    def test_tree_combine_handles_many_levels(self):
        values = [delayed(int)(index) for index in range(30)]
        total = tree_combine(values, combine=sum, split_every=4)
        assert total.compute() == sum(range(30))

    def test_tree_combine_empty_raises(self):
        with pytest.raises(GraphError):
            tree_combine([], combine=sum)

    def test_mismatched_boundaries_rejected(self, wide_frame):
        partitioned = PartitionedFrame.from_frame(wide_frame, partition_rows=100)
        with pytest.raises(GraphError):
            PartitionedFrame(partitioned.partitions, wide_frame.columns, [(0, 10)])
