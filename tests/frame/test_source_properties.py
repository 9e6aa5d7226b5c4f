"""Property suite for the FrameSource protocol.

The contract every source must satisfy (same style as the sketch suite):
the precomputed partitions are contiguous, cover ``[0, n_rows)``, and
materializing them in order concatenates back to the source's whole logical
frame — for in-memory frames at any partition granularity, and for every
handle ``scan_csv`` returns (one file, a list, a glob, each plain or
filtered) at any chunk granularity and any split of the rows across files.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ColumnNotFoundError, FrameError
from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.io import (
    CsvSource,
    MultiFileCsvSource,
    read_csv,
    scan_csv,
    write_csv,
)
from repro.frame.predicate import ColumnExpr
from repro.frame.source import (
    PUSHDOWN_KEYWORDS,
    FilteredSource,
    FrameSource,
    InMemorySource,
    SourceCapabilities,
    SourcePartition,
    as_source,
)

#: Explicit storage dtypes for the generated CSVs: dtype inference reads a
#: per-file preview, so a file whose rows happen to look integral would
#: otherwise legitimately infer differently from its sibling — a documented
#: scan_csv caveat, not the partition property under test here.
CSV_DTYPES = {"value": DType.FLOAT, "label": DType.STRING}

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)

frames = st.builds(
    lambda numbers, flags: DataFrame({
        "value": [None if missing else number
                  for number, missing in zip(numbers, flags)],
        "label": [f"c{int(abs(number)) % 5}" for number in numbers],
    }),
    st.lists(finite_floats, min_size=1, max_size=120),
    st.lists(st.booleans(), min_size=120, max_size=120),
)


def materialized(source: FrameSource) -> DataFrame:
    """Concatenate every partition of *source*, preserving row order."""
    spec = source.predicate.spec() if isinstance(source, FilteredSource) \
        else None
    parts = [part.materialize(predicate=spec) for part in source.partitions()]
    non_empty = [part for part in parts if len(part)]
    return concat_rows(non_empty) if non_empty else parts[0]


def assert_covers(source: FrameSource) -> None:
    """Partition boundaries must be contiguous over ``[0, n_rows)``."""
    boundaries = [(part.start, part.stop) for part in source.partitions()]
    position = 0
    for start, stop in boundaries:
        assert start == position
        assert stop >= start
        position = stop
    assert position == source.n_rows


@given(frame=frames, partition_rows=st.integers(min_value=1, max_value=150))
@settings(max_examples=40, deadline=None)
def test_in_memory_partitions_concatenate_to_frame(frame, partition_rows):
    source = InMemorySource(frame, partition_rows=partition_rows)
    assert_covers(source)
    assert materialized(source) == frame
    assert source.to_frame() is frame
    assert source.fingerprint() == frame.fingerprint()


@given(frame=frames,
       kind=st.sampled_from(["file", "list", "glob"]),
       filtered=st.booleans(),
       split=st.integers(min_value=0, max_value=120),
       chunk_rows=st.integers(min_value=1, max_value=150))
@settings(max_examples=60, deadline=None)
def test_scan_handle_partitions_concatenate_to_file(frame, kind, filtered,
                                                    split, chunk_rows):
    """Every handle ``scan_csv`` can return — one file, an explicit list, a
    glob, each plain or behind a filter — is its own source, refreshes to
    itself while unchanged, names columns the same way, and its partitions
    concatenate to what ``read_csv`` makes of the same rows."""
    split = min(split, len(frame))
    with tempfile.TemporaryDirectory() as tmp:
        whole_path = os.path.join(tmp, "whole.csv")
        parts = [os.path.join(tmp, "part-0.csv"),
                 os.path.join(tmp, "part-1.csv")]
        write_csv(frame, whole_path)
        write_csv(frame.slice(0, split), parts[0])
        write_csv(frame.slice(split, len(frame)), parts[1])
        target = {"file": whole_path, "list": parts,
                  "glob": os.path.join(tmp, "part-*.csv")}[kind]
        handle = scan_csv(target, chunk_rows=chunk_rows, dtypes=CSV_DTYPES)
        assert isinstance(handle, CsvSource if kind == "file"
                          else MultiFileCsvSource)
        assert handle.n_rows == len(frame)
        assert_covers(handle)
        expected = read_csv(whole_path, dtypes=CSV_DTYPES)
        if filtered:
            predicate = handle.value >= 0.0
            handle = handle[predicate]
            assert isinstance(handle, FilteredSource)
            expected = expected.filter(predicate.mask(expected))

        assert as_source(handle) is handle
        assert repro.refresh(handle) is handle
        assert repr(handle.label) == repr(handle["label"]) \
            == repr(ColumnExpr("label"))
        assert not hasattr(handle, "nope")
        with pytest.raises(ColumnNotFoundError) as caught:
            handle["nope"]
        assert isinstance(caught.value, KeyError)
        assert isinstance(caught.value, FrameError)

        assert materialized(handle) == expected
        assert handle.to_frame() == expected


def test_as_source_rejects_unknown_inputs():
    import pytest

    from repro.errors import FrameError
    with pytest.raises(FrameError):
        as_source([1, 2, 3])


def test_multifile_rejects_mismatched_columns(tmp_path):
    import pytest

    from repro.errors import FrameError
    write_csv(DataFrame({"a": [1.0], "b": ["x"]}), str(tmp_path / "one.csv"))
    write_csv(DataFrame({"a": [2.0], "c": ["y"]}), str(tmp_path / "two.csv"))
    with pytest.raises(FrameError, match="disagree on columns"):
        scan_csv([str(tmp_path / "one.csv"), str(tmp_path / "two.csv")])


def test_multifile_fingerprint_tracks_file_stamps(tmp_path):
    paths = []
    for index in range(2):
        path = str(tmp_path / f"file{index}.csv")
        write_csv(DataFrame({"a": [float(index), 2.0]}), path)
        paths.append(path)
    first = scan_csv(paths).fingerprint()
    assert scan_csv(paths).fingerprint() == first       # unchanged files
    os.utime(paths[1], ns=(1, 1))                       # bump mtime
    assert scan_csv(paths).fingerprint() != first


def test_glob_scan_matches_explicit_list(tmp_path):
    import pytest

    from repro.errors import FrameError
    frame = DataFrame({"a": [1.0, 2.0, 3.0], "b": ["x", "y", "z"]})
    write_csv(frame.slice(0, 2), str(tmp_path / "part-0.csv"))
    write_csv(frame.slice(2, 3), str(tmp_path / "part-1.csv"))
    by_glob = scan_csv(str(tmp_path / "part-*.csv"))
    by_list = scan_csv([str(tmp_path / "part-0.csv"),
                        str(tmp_path / "part-1.csv")])
    assert by_glob.paths == by_list.paths
    assert by_glob.to_frame() == by_list.to_frame()
    with pytest.raises(FrameError, match="matched no files"):
        scan_csv(str(tmp_path / "missing-*.csv"))


def test_pathlike_glob_dispatches_to_multifile(tmp_path):
    frame = DataFrame({"a": [1.0, 2.0], "b": ["x", "y"]})
    write_csv(frame, str(tmp_path / "part-0.csv"))
    write_csv(frame, str(tmp_path / "part-1.csv"))
    source = scan_csv(tmp_path / "part-*.csv")        # os.PathLike, not str
    assert isinstance(source, MultiFileCsvSource)
    assert source.n_rows == 4


def test_explicit_in_memory_partitioning_survives_default_config():
    """An InMemorySource built with partition_rows must not be silently
    re-planned to the config default (mirrors the scan_csv guarantee)."""
    import numpy as np

    from repro.eda.compute.base import ComputeContext
    from repro.eda.config import Config

    frame = DataFrame({"x": np.arange(60_000, dtype=np.float64)})
    context = ComputeContext(InMemorySource(frame, partition_rows=5_000),
                             Config.from_user())
    assert context.partitioned.npartitions == 12
    overridden = ComputeContext(InMemorySource(frame, partition_rows=5_000),
                                Config.from_user({"compute.partition_rows":
                                                  30_000}))
    assert overridden.partitioned.npartitions == 2


# --------------------------------------------------------------------------- #
# Projection: materialize(columns=...) and the zero-copy in-memory contract.
# --------------------------------------------------------------------------- #
def test_in_memory_partitions_are_zero_copy_views():
    """Exact-path partition slices — projected or not — must share the
    source frame's buffers: no full-frame (or even per-column) copies."""
    frame = DataFrame({
        "a": np.arange(200, dtype=np.float64),
        "b": np.arange(200, dtype=np.int64),
        "c": [f"s{i}" for i in range(200)],
    })
    source = InMemorySource(frame, partition_rows=64)
    for part in source.partitions():
        full = part.materialize()
        assert full.columns == ["a", "b", "c"]
        for name in full.columns:
            # STRING storage is the codes array; ``data`` is a decoded view.
            stored = "codes" if name == "c" else "data"
            assert np.shares_memory(getattr(full.column(name), stored),
                                    getattr(frame.column(name), stored))
            assert np.shares_memory(full.column(name).mask,
                                    frame.column(name).mask)
        projected = part.materialize(columns=("b",))
        assert projected.columns == ["b"]
        assert len(projected) == part.n_rows
        assert np.shares_memory(projected.column("b").data,
                                frame.column("b").data)


def test_frame_slice_is_zero_copy_even_for_float_columns():
    """DataFrame.slice must not reallocate the float mask (the historical
    NaN/mask reconciliation copy)."""
    data = np.array([1.0, np.nan, 3.0, 4.0])
    frame = DataFrame({"x": data})
    window = frame.slice(1, 3)
    assert np.shares_memory(window.column("x").data, frame.column("x").data)
    assert np.shares_memory(window.column("x").mask, frame.column("x").mask)
    assert window.column("x").to_list() == [None, 3.0]


def test_csv_partition_projection_matches_full_parse(tmp_path):
    frame = DataFrame({
        "a": np.arange(30, dtype=np.float64),
        "b": [f"s{i}" for i in range(30)],
        "c": np.arange(30, dtype=np.int64),
    })
    path = str(tmp_path / "proj.csv")
    write_csv(frame, path)
    source = as_source(scan_csv(path, chunk_rows=7))
    for part in source.partitions():
        full = part.materialize()
        projected = part.materialize(columns=("a", "c"))
        assert projected.columns == ["a", "c"]
        assert projected == full.select(["a", "c"])


def test_source_capabilities_declare_projection():
    frame = DataFrame({"a": [1.0, 2.0]})
    assert InMemorySource(frame).capabilities.projection is True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "caps.csv")
        write_csv(frame, path)
        assert as_source(scan_csv(path)).capabilities.projection is True
        multi = MultiFileCsvSource.scan([path])
        assert multi.capabilities.projection is True


class _LegacySource:
    """A source that declares none of the three pushdown capabilities; its
    partition func takes no keyword at all."""

    columns = ["a"]
    capabilities = SourceCapabilities(exact=False)

    def partitions(self):
        return [SourcePartition(0, 1, _legacy_chunk, ())]


def _legacy_chunk():
    return DataFrame({"a": [1.0]})


@pytest.mark.parametrize("flag,keyword,request_kwargs", [
    ("projection", "columns", {"columns": ("a",)}),
    ("predicates", "predicate", {"predicate": (("a", ">", 0.0),)}),
    ("chunk_sidecar", "sidecar", {"sidecar": ("/tmp/nowhere", 1 << 20)}),
])
def test_undeclared_pushdown_fails_once_at_plan_time(flag, keyword,
                                                     request_kwargs,
                                                     monkeypatch):
    """The declared flags are the pushdown contract, checked in exactly one
    place — PartitionedFrame.from_source — before any task is built."""
    from repro.errors import GraphError
    from repro.graph.partition import PartitionedFrame

    def no_task_may_be_built(*args, **kwargs):
        raise AssertionError("a task was built before the capability check")

    with monkeypatch.context() as patched:
        patched.setattr(SourcePartition, "task_spec", no_task_may_be_built)
        with pytest.raises(GraphError) as caught:
            PartitionedFrame.from_source(_LegacySource(), **request_kwargs)
    message = str(caught.value)
    assert f"capabilities.{flag}" in message
    assert f"{keyword}= keyword" in message
    assert "_LegacySource" in message
    # Exactly one capability is named: the one that was requested.
    assert sum(f"capabilities.{other}" in message
               for other, _ in PUSHDOWN_KEYWORDS) == 1
    # Unpushed use keeps working.
    assert PartitionedFrame.from_source(_LegacySource()).npartitions == 1


def test_pushdown_contract_lists_every_capability_flag():
    """Every non-``exact`` capability flag has its keyword in the contract,
    and the built-in partition funcs really take the keywords their sources
    declare."""
    import dataclasses
    import inspect

    from repro.frame.io import _read_csv_slice
    from repro.frame.source import _slice_frame

    flags = {field.name for field in dataclasses.fields(SourceCapabilities)}
    assert {flag for flag, _ in PUSHDOWN_KEYWORDS} == flags - {"exact"}
    keywords = dict(PUSHDOWN_KEYWORDS)
    in_memory = InMemorySource(DataFrame({"a": [1.0]})).capabilities
    for flag, keyword in keywords.items():
        assert keyword in inspect.signature(_read_csv_slice).parameters
        if getattr(in_memory, flag):
            assert keyword in inspect.signature(_slice_frame).parameters


def test_task_spec_only_builds_the_call():
    """task_spec never inspects the func: it adds the requested keywords and
    declares what the task is, nothing else — an undeclared keyword surfaces
    as the func's own TypeError if someone bypasses the planner."""
    part = SourcePartition(0, 1, _legacy_chunk, (), prefix="rows")
    func, args, kwargs, declared = part.task_spec(
        columns=["a"], predicate=[["a", ">", 0.0]])
    assert (func, args) == (_legacy_chunk, ())
    assert kwargs == {"columns": ("a",), "predicate": (("a", ">", 0.0),)}
    assert declared == {
        "prefix": "rows.proj.filt", "affinity": None,
        "counts": {"projected_parses": 1, "chunks_new": 1, "bytes_reparsed": 0}}
    assert part.task_spec() == (_legacy_chunk, (), {}, {
        "prefix": "rows", "affinity": None,
        "counts": {"full_parses": 1, "chunks_new": 1, "bytes_reparsed": 0}})
    on_disk = SourcePartition(0, 1, _legacy_chunk, (), path="f.csv", byte_span=90)
    declared = on_disk.task_spec()[3]
    assert declared["affinity"] == "f.csv"
    assert declared["counts"]["bytes_reparsed"] == 90
    with pytest.raises(TypeError, match="columns"):
        part.materialize(columns=("a",))
    assert part.materialize().columns == ["a"]
