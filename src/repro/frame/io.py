"""CSV input/output for the columnar frame.

The eager reader (:func:`read_csv`) performs two passes over the text: the
first collects raw string cells per column, the second infers a storage dtype
per column and coerces.  This mirrors how the EDA tools in the paper ingest
Kaggle CSV files.

The streaming reader (:func:`scan_csv`) never materializes the file: it scans
the byte layout once (quote-aware, so embedded newlines inside quoted fields
are handled), infers dtypes from a bounded preview, and returns a
:class:`CsvSource` — or, for a list or glob of paths, a
:class:`MultiFileCsvSource` over one ``CsvSource`` per file — whose chunks
are parsed lazily, one bounded row range at a time.  Both are
:class:`~repro.frame.source.FrameSource` implementations, so the EDA layer
routes them through per-partition sketch reductions, which is what makes
``plot`` / ``create_report`` work on CSVs larger than memory.  This module
imports :mod:`repro.frame.source` (the protocol), never the reverse.
"""

from __future__ import annotations

import copy
import csv
import glob as glob_module
import io
import os
import zlib
from itertools import accumulate
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ColumnNotFoundError, FrameError
from repro.frame.column import Column
from repro.frame.dtypes import DType, coerce_values, encode_cells, infer_dtype
from repro.frame.fingerprint import fingerprint_file_stamps
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.predicate import apply_predicate_spec
from repro.frame.sidecar import load_chunk, record_hit, record_miss, store_chunk
from repro.frame.source import (
    SourceCapabilities,
    SourcePartition,
    _source_getattr,
    _source_getitem,
)
from repro.frame.zonemap import (
    ZoneMap,
    chunk_column_stats,
    chunk_key,
    decode_zone_entry,
    encode_zone_entry,
    load_zone_entries,
    save_zone_entries,
    zone_map_from_stats,
)
from repro.utils import default_worker_count  # noqa: F401 - re-exported; the
# shared worker-count default lives in repro.utils so the graph and compute
# layers no longer depend on the I/O layer for it.

PathOrBuffer = Union[str, os.PathLike, io.TextIOBase]

#: Default number of rows per streamed chunk (mirrors the partition default).
DEFAULT_CHUNK_ROWS = 100_000

#: Default peak-memory budget for an out-of-core scan (bytes).
DEFAULT_BUDGET_BYTES = 128 * 1024 * 1024

#: Parsing a CSV chunk transiently holds the raw text plus per-cell python
#: strings (each with ~50 bytes of object header), which costs several times
#: the on-disk bytes; the budget-to-rows conversion multiplies the on-disk
#: row size by this factor.  Calibrated against tracemalloc peaks in
#: benchmarks/bench_outofcore.py.
PARSE_OVERHEAD_FACTOR = 12

#: Never shrink chunks below this many rows — per-chunk numpy work must still
#: dominate the python/scheduler overhead.
MIN_CHUNK_ROWS = 256

#: Bytes CRC-probed at the head and at the tail of every chunk's byte range
#: to form its content stamp.  Two probes per chunk keep stamping O(chunks)
#: instead of O(bytes); the trust model (an interior edit that touches
#: neither probe window goes unnoticed) is documented in
#: ``docs/architecture.md`` and backstopped by the per-chunk
#: ``expected_rows`` validation at parse time.
CHUNK_PROBE_BYTES = 4096


def read_csv(path_or_buffer: PathOrBuffer,
             delimiter: str = ",",
             has_header: bool = True,
             column_names: Optional[Sequence[str]] = None,
             dtypes: Optional[Dict[str, DType]] = None,
             max_rows: Optional[int] = None,
             lenient: bool = False,
             usecols: Optional[Sequence[str]] = None) -> DataFrame:
    """Read a CSV file (or open text buffer) into a :class:`DataFrame`.

    Parameters
    ----------
    path_or_buffer:
        File path or an open text stream.
    delimiter:
        Field separator, ``","`` by default.
    has_header:
        Whether the first row contains column names.
    column_names:
        Explicit column names; required when ``has_header`` is False.
    dtypes:
        Optional per-column dtype overrides; other columns are inferred.
        Keys are validated against the header — a key naming no column
        raises :class:`~repro.errors.ColumnNotFoundError` with a
        did-you-mean suggestion instead of being silently ignored.
    max_rows:
        Read at most this many data rows (useful for previews).
    lenient:
        When true, values that cannot be coerced to their (explicitly
        passed) dtype become missing instead of raising.
    usecols:
        Project the parse onto these columns only: cells of every other
        column are skipped *before* collection and dtype coercion, which is
        the hot-path saving the EDA planner's projection pushdown relies
        on.  Columns come back in file order regardless of the order given;
        unknown names raise with a did-you-mean suggestion.
    """
    if isinstance(path_or_buffer, (str, os.PathLike)):
        with open(path_or_buffer, "r", newline="", encoding="utf-8") as handle:
            return _read_csv_stream(handle, delimiter, has_header, column_names,
                                    dtypes, max_rows, lenient, usecols)
    return _read_csv_stream(path_or_buffer, delimiter, has_header, column_names,
                            dtypes, max_rows, lenient, usecols)


def _validate_known_columns(requested: Iterable[str],
                            names: Sequence[str]) -> None:
    """Raise (with a did-you-mean) when *requested* names a missing column."""
    known = set(names)
    for name in requested:
        if name not in known:
            raise ColumnNotFoundError(str(name), list(names))


def _read_csv_stream(stream: io.TextIOBase,
                     delimiter: str,
                     has_header: bool,
                     column_names: Optional[Sequence[str]],
                     dtypes: Optional[Dict[str, DType]],
                     max_rows: Optional[int],
                     lenient: bool = False,
                     usecols: Optional[Sequence[str]] = None,
                     validate_dtype_keys: bool = True) -> DataFrame:
    """Tokenise → infer where no dtype was given → batch coerce → encode.

    The one cell→column step behind :func:`read_csv`, the scan preview and
    every chunk parse.  *dtypes* entries naming no column of this header
    raise unless *validate_dtype_keys* is false (the multi-file scan hands
    later files the first file's whole map), in which case they are unused.
    """
    reader = csv.reader(stream, delimiter=delimiter)
    rows = iter(reader)

    names: List[str]
    header: Optional[List[str]] = None
    if has_header:
        header = next(rows, None)
        names = [name.strip() for name in header or ()]
    else:
        if column_names is None:
            raise FrameError("column_names is required when has_header is False")
        names = list(column_names)

    if dtypes and validate_dtype_keys:
        _validate_known_columns(dtypes, names)
    if has_header and header is None:          # a zero-byte input
        return DataFrame()

    keep: Optional[List[int]] = None
    full_width = len(names)
    if usecols is not None:
        requested = set(usecols)
        if not requested:
            raise FrameError("usecols must name at least one column")
        _validate_known_columns(requested, names)
        # File order, so a projected parse always matches select() output.
        keep = [index for index, name in enumerate(names) if name in requested]
        names = [names[index] for index in keep]

    width = full_width if keep is None else keep[-1] + 1
    cells: List[List[str]] = [[] for _ in names]
    for row_number, row in enumerate(rows):
        if max_rows is not None and row_number >= max_rows:
            break
        if not row:
            continue
        if len(row) < width:
            row = _normalize_row(row, width)
        if keep is None:
            if len(row) > width:
                row = row[:width]
            for column_index, cell in enumerate(row):
                cells[column_index].append(cell)
        else:
            for position, column_index in enumerate(keep):
                cells[position].append(row[column_index])

    overrides = dtypes or {}
    columns = []
    for name, raw_values in zip(names, cells):
        # Inference is paid only by a column nobody named a dtype for: a
        # chunk parse, handed the scan's complete map, infers nothing.
        dtype = overrides[name] if name in overrides \
            else infer_dtype(raw_values)
        if dtype is DType.STRING:
            # Emit dictionary codes directly at parse time: one pass over
            # the chunk's distinct cells replaces every later per-row loop,
            # and the chunk travels (cache, sidecar, worker payloads) as
            # int32 codes plus its per-chunk dictionary.
            codes, dictionary, mask = encode_cells(raw_values)
            columns.append(Column.from_codes(name, codes, dictionary, mask))
            continue
        data, mask = coerce_values(raw_values, dtype, lenient=lenient)
        columns.append(Column(name, data, dtype, mask))
    return DataFrame(columns)


def _normalize_row(row: List[str], width: int) -> List[str]:
    """Pad or truncate a ragged CSV row to the header width."""
    if len(row) < width:
        return row + [""] * (width - len(row))
    return row[:width]


def write_csv(frame: DataFrame, path_or_buffer: PathOrBuffer,
              delimiter: str = ",", missing_token: str = "") -> None:
    """Write a :class:`DataFrame` to CSV.

    Missing values are written as *missing_token* (empty string by default)
    so a round-trip through :func:`read_csv` preserves missingness.
    """
    if isinstance(path_or_buffer, (str, os.PathLike)):
        with open(path_or_buffer, "w", newline="", encoding="utf-8") as handle:
            _write_csv_stream(frame, handle, delimiter, missing_token)
        return
    _write_csv_stream(frame, path_or_buffer, delimiter, missing_token)


def _write_csv_stream(frame: DataFrame, stream: io.TextIOBase,
                      delimiter: str, missing_token: str) -> None:
    writer = csv.writer(stream, delimiter=delimiter)
    writer.writerow(frame.columns)
    lists = frame.to_dict()
    names = frame.columns
    for index in range(len(frame)):
        row = []
        for name in names:
            value = lists[name][index]
            row.append(missing_token if value is None else _format_cell(value))
        writer.writerow(row)


def _format_cell(value: Any) -> str:
    """Format a scalar for CSV output."""
    if isinstance(value, float):
        if value != value:  # NaN
            return ""
        if value.is_integer():
            return str(int(value))
        return repr(value)
    if isinstance(value, np.datetime64):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# --------------------------------------------------------------------------- #
# Streaming scan
# --------------------------------------------------------------------------- #
def _scan_records(handle, chunk_rows: int
                  ) -> Tuple[List[int], List[int], int, int, bool]:
    """Count CSV records from the handle's current byte position.

    A record ends only on a line where the cumulative quote count is even
    (``""`` escapes toggle twice, so parity is preserved); completely blank
    records are not counted, matching :func:`read_csv`.  A chunk boundary
    is committed every *chunk_rows* records.  Returns ``(boundary offsets,
    committed row counts, trailing rows past the last boundary, end byte,
    clean_eof)`` — *clean_eof* is False when the file ends inside an open
    quoted field (the trailing record is still counted, since
    ``csv.reader`` yields it), which makes the layout unsafe to extend
    in place by a later incremental refresh.
    """
    byte_offsets: List[int] = []
    row_counts: List[int] = []
    rows_in_chunk = 0
    quotes = 0
    record_blank = True
    for line in handle:
        quotes += line.count(b'"')
        if line.strip(b"\r\n"):
            record_blank = False
        if quotes % 2 == 1:
            continue                      # still inside a quoted field
        if not record_blank:
            rows_in_chunk += 1
            if rows_in_chunk == chunk_rows:
                byte_offsets.append(handle.tell())
                row_counts.append(rows_in_chunk)
                rows_in_chunk = 0
        record_blank = True
    clean_eof = quotes % 2 == 0
    if not clean_eof and not record_blank:
        # A final record whose quoted field is never closed: the csv
        # parser still yields it as a row, so count it — otherwise
        # n_rows disagrees with what the chunks actually parse.
        rows_in_chunk += 1
    return byte_offsets, row_counts, rows_in_chunk, handle.tell(), clean_eof


def _ranges_from_counts(byte_offsets: List[int], row_counts: List[int]
                        ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(row boundaries, byte ranges)`` from committed offsets and counts."""
    byte_ranges = [(byte_offsets[index], byte_offsets[index + 1])
                   for index in range(len(row_counts))]
    boundaries: List[Tuple[int, int]] = []
    start = 0
    for count in row_counts:
        boundaries.append((start, start + count))
        start += count
    return boundaries, byte_ranges


def _scan_csv_layout(path: Union[str, os.PathLike], chunk_rows: int,
                     delimiter: str = ","
                     ) -> Tuple[List[str], List[Tuple[int, int]],
                                List[Tuple[int, int]], bool]:
    """One quote-aware pass over the file recording chunk byte boundaries.

    Returns ``(column names, row boundaries, byte ranges, clean_eof)``
    where every byte range starts and ends on a record boundary, so each
    chunk is independently parseable; *clean_eof* is False when the file
    ends inside an open quoted field (see :func:`_scan_records`).
    """
    if chunk_rows <= 0:
        raise FrameError("chunk_rows must be positive")
    with open(path, "rb") as handle:
        header_lines: List[bytes] = []
        quotes = 0
        for line in handle:
            header_lines.append(line)
            quotes += line.count(b'"')
            if quotes % 2 == 0:
                break
        header_text = b"".join(header_lines).decode("utf-8")
        header_rows = list(csv.reader(io.StringIO(header_text),
                                      delimiter=delimiter))
        if not header_rows:
            return [], [(0, 0)], [(handle.tell(), handle.tell())], True
        columns = [name.strip() for name in header_rows[0]]

        data_start = handle.tell()
        byte_offsets, row_counts, rows_in_chunk, end_of_file, clean_eof = \
            _scan_records(handle, chunk_rows)
    byte_offsets = [data_start] + byte_offsets
    if rows_in_chunk or not row_counts:
        byte_offsets.append(end_of_file)
        row_counts.append(rows_in_chunk)
    boundaries, byte_ranges = _ranges_from_counts(byte_offsets, row_counts)
    return columns, boundaries, byte_ranges, clean_eof


def compute_chunk_stamps(path: Union[str, os.PathLike],
                         byte_ranges: Sequence[Tuple[int, int]]
                         ) -> List[Tuple[int, int]]:
    """``(head_crc, tail_crc)`` content stamp of every chunk byte range.

    Each stamp CRC32s the first and last :data:`CHUNK_PROBE_BYTES` of the
    chunk's byte range (the whole range when it is smaller), so it is
    computable in O(chunks) regardless of file size.  These stamps replace
    the whole-file ``(size, mtime_ns)`` stamp in chunk-level cache keys:
    appending to a file leaves every old chunk's bytes — and therefore its
    stamp, its cross-call cache key, its zone-map entry and its binary
    sidecar — untouched, while a mutated prefix fails the CRC probes and
    invalidates exactly the chunks it touched.
    """
    stamps: List[Tuple[int, int]] = []
    with open(path, "rb") as handle:
        for start, stop in byte_ranges:
            span = max(0, int(stop) - int(start))
            probe = min(span, CHUNK_PROBE_BYTES)
            handle.seek(int(start))
            head = handle.read(probe)
            if span > probe:
                handle.seek(int(stop) - probe)
                tail = handle.read(probe)
            else:
                tail = head
            stamps.append((zlib.crc32(head), zlib.crc32(tail)))
    return stamps


def _estimate_csv_row_bytes(path: Union[str, os.PathLike],
                            probe_bytes: int = 64 * 1024) -> float:
    """Rough on-disk bytes per data row from a bounded probe of the file.

    Newlines embedded in quoted fields inflate the apparent record count,
    which only *under*-estimates the row size; the worker-aware re-check in
    ``ComputeContext.partitioned`` corrects any resulting over-sized chunks.
    """
    with open(path, "rb") as handle:
        handle.readline()                      # skip (first line of) header
        probe = handle.read(probe_bytes)
    records = probe.count(b"\n")
    if not records:
        return float(max(len(probe), 64))
    return len(probe) / records


def parse_csv_range(path: Union[str, os.PathLike], byte_start: int,
                    byte_stop: int, column_names: Sequence[str],
                    dtypes: Dict[str, DType],
                    delimiter: str = ",",
                    usecols: Optional[Sequence[str]] = None) -> DataFrame:
    """Parse one record-aligned byte range of a CSV file into a DataFrame.

    Parsing is lenient: the dtypes come from a bounded preview, so a value
    deep in the file that contradicts them becomes a missing cell rather
    than aborting the whole scan.  *usecols* projects the parse onto a
    column subset — the other columns' cells are skipped before collection
    and coercion (see :func:`read_csv`).
    """
    with open(path, "rb") as handle:
        handle.seek(byte_start)
        payload = handle.read(byte_stop - byte_start)
    return read_csv(io.StringIO(payload.decode("utf-8")), delimiter=delimiter,
                    has_header=False, column_names=list(column_names),
                    dtypes=dtypes, lenient=True, usecols=usecols)


def _read_csv_slice(path: str, byte_start: int, byte_stop: int,
                    column_names: Tuple[str, ...], dtypes: dict,
                    file_stamp: Tuple[int, int] = (0, 0),
                    delimiter: str = ",",
                    expected_rows: Optional[int] = None,
                    columns: Optional[Tuple[str, ...]] = None,
                    predicate: Optional[Tuple[Tuple[str, str, Any], ...]] = None,
                    sidecar: Optional[Tuple[Any, ...]] = None
                    ) -> DataFrame:
    """Parse one byte range of a CSV file into a DataFrame partition.

    *file_stamp* is the chunk's content stamp — the ``(head_crc, tail_crc)``
    probe pair captured at scan time (see
    :func:`compute_chunk_stamps`).  It is not parsed here —
    it exists so the task's cross-call cache key changes when the chunk's
    bytes change, even with identical byte boundaries, while *surviving*
    file growth: an append leaves the old chunks' byte ranges and probes
    untouched, so their cache keys (and any tree-combine ancestors built
    purely from them) stay warm and a refresh re-executes only the new
    chunks.  The binary chunk sidecar validates the same opaque pair.

    *columns* projects the parse onto a column subset: the other columns'
    cells are skipped before collection and dtype coercion (the hot path of
    a streaming scan), so a single-column reduction over a wide file pays
    for one column, not the whole table.  The projection is an explicit
    task argument, which is what makes projected and full parses occupy
    distinct cross-call cache keys — a cached single-column partition can
    never be served where a full-table partition is needed.

    *predicate* (a :meth:`~repro.frame.predicate.Predicate.spec` tuple)
    filters the parsed rows before they reach any downstream sketch.  A
    predicate column missing from the projection is parsed additionally —
    cells the filter reads but the reductions do not — and dropped again
    after filtering, so the output keeps exactly the projected columns.
    Like the projection, the predicate is an explicit task argument and so
    part of the cache key: a filtered partition can never be served where
    the unfiltered rows are needed, and vice versa.

    When *expected_rows* is given (the layout scan's record count for this
    range) a mismatch raises instead of letting every downstream statistic
    silently disagree with the row boundaries: it means the file's quoting
    defies record-aligned chunking — e.g. a stray unpaired quote inside an
    unquoted field, which RFC 4180 forbids but ``csv.reader`` tolerates.
    The check runs against the pre-filter parse count — the layout scan
    knows nothing about predicates.

    *sidecar* (a :class:`~repro.frame.sidecar.SidecarRoute` tuple) enables
    the parsed-chunk binary cache: the sidecar is consulted before any CSV
    byte is decoded — a hit loads the already-coerced arrays and skips the
    parse entirely — and after a successful parse the pre-filter frame is
    spilled best-effort, so any later scan (this process, a
    ``ProcessScheduler`` worker, another session) hits.  The route is
    configuration, not semantics: the returned rows are identical with or
    without it, which is why the graph layer excludes the keyword from task
    keys (``NON_SEMANTIC_KWARGS``).
    """
    parse_columns = columns
    if predicate is not None and columns is not None:
        wanted = set(columns)
        filter_columns = {column for column, _, _ in predicate}
        parse_columns = tuple(name for name in column_names
                              if name in wanted or name in filter_columns)
    frame = None
    if sidecar is not None:
        needed = parse_columns if parse_columns is not None \
            else tuple(column_names)
        frame = load_chunk(path, byte_start, byte_stop, file_stamp, needed,
                           dtypes, expected_rows, sidecar,
                           delimiter=delimiter)
        if frame is not None:
            record_hit(byte_stop - byte_start)
    if frame is None:
        frame = parse_csv_range(path, byte_start, byte_stop,
                                list(column_names), dtypes,
                                delimiter=delimiter, usecols=parse_columns)
        if expected_rows is not None and len(frame) != expected_rows:
            raise FrameError(
                f"CSV chunk at bytes [{byte_start}, {byte_stop}) of {path!r} "
                f"parsed {len(frame)} rows where the layout scan counted "
                f"{expected_rows}; the file's quoting defies record-aligned "
                f"chunking (e.g. an unpaired quote in an unquoted field) — "
                f"read it with repro.read_csv instead of scan_csv")
        if sidecar is not None:
            record_miss(byte_stop - byte_start)
            # Spill the pre-filter rows: one entry serves filtered,
            # unfiltered and any projection of this chunk.
            store_chunk(path, byte_start, byte_stop, file_stamp, frame,
                        sidecar, delimiter=delimiter)
    if predicate is not None:
        frame = apply_predicate_spec(frame, predicate)
        if columns is not None and parse_columns != columns:
            wanted = set(columns)
            frame = frame[[name for name in frame.columns if name in wanted]]
    return frame


class CsvSource:
    """One on-disk CSV file as a lazy, chunked :class:`FrameSource`.

    What ``scan_csv(path)`` returns.  Constructing one scans the file's
    byte layout (quote-aware) and parses a bounded preview for dtypes; it
    holds only that metadata — column names, dtypes, chunk boundaries,
    per-chunk content stamps, the preview — never the parsed file.
    Partitions are lazy byte-range parse tasks, and
    ``capabilities.exact=False`` routes every reduction through the
    bounded-memory sketch finalizers, so ``plot`` / ``create_report`` run
    with peak memory proportional to the chunk size, not the file.

    *validate_dtype_keys* is disabled by the multi-file scanner for files
    after the first: those receive file 1's complete dtype map, and a
    header mismatch there must surface as the multi-file "files disagree on
    columns" error, not as an unknown-dtype-key error.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 chunk_rows: Optional[int] = None,
                 budget_bytes: Optional[int] = None,
                 dtypes: Optional[Dict[str, DType]] = None,
                 inference_rows: int = 10_000,
                 delimiter: str = ",",
                 validate_dtype_keys: bool = True):
        requested_rows = chunk_rows if chunk_rows is not None \
            else DEFAULT_CHUNK_ROWS
        if requested_rows <= 0:
            raise FrameError("chunk_rows must be positive")
        budget = budget_bytes if budget_bytes is not None \
            else DEFAULT_BUDGET_BYTES
        if budget <= 0:
            raise FrameError("budget_bytes must be positive")
        self.path = str(path)
        self.delimiter = delimiter
        #: The budget inputs the chunking already accounts for; consumers
        #: (ComputeContext) re-derive a chunk size only when theirs differ,
        #: so default-config EDA calls never pay a second layout pass.
        self.budget_bytes = int(budget)
        self.budget_concurrency = default_worker_count()
        #: The scan_csv arguments that produced this handle, retained so
        #: :meth:`refreshed` can re-derive the layout under the exact same
        #: settings when extension is not safe.
        self._requested_chunk_rows = chunk_rows
        self._inference_rows = int(inference_rows)
        self._user_dtypes = dict(dtypes) if dtypes else None
        self._validate_dtype_keys = bool(validate_dtype_keys)

        self._preview, inferred = _scan_preview(
            path, dtypes, inference_rows, delimiter, validate_dtype_keys)
        file_stat = os.stat(path)
        # Cap the chunk size by the budget using cheap row-size estimates
        # (the parsed preview plus a 64 KiB on-disk probe), then scan the
        # layout once at the final granularity.  The formula deliberately
        # mirrors chunk_rows_for_budget with the default worker count, so
        # the worker-aware re-derivation in ComputeContext usually agrees
        # and no second layout pass is needed.
        row_cost = max(1.0, _estimate_csv_row_bytes(path)
                       * PARSE_OVERHEAD_FACTOR + self._preview_row_bytes())
        budget_rows = max(MIN_CHUNK_ROWS,
                          int(budget / self.budget_concurrency // row_cost))
        effective_rows = min(requested_rows, budget_rows)
        self._columns, boundaries, byte_ranges, clean_eof = _scan_csv_layout(
            path, effective_rows, delimiter=delimiter)
        self._dtypes = {name: inferred.get(name, DType.STRING)
                        for name in self._columns}
        self._set_layout(effective_rows, boundaries, byte_ranges, clean_eof,
                         (int(file_stat.st_size), int(file_stat.st_mtime_ns)))

    def _set_layout(self, chunk_rows: int,
                    boundaries: Sequence[Tuple[int, int]],
                    byte_ranges: Sequence[Tuple[int, int]], clean_eof: bool,
                    file_stamp: Tuple[int, int],
                    chunk_stamps: Optional[List[Tuple[int, int]]] = None
                    ) -> "CsvSource":
        """Install a chunk layout, dropping the memos derived from the old
        one; ``copy.copy(scan)._set_layout(...)`` is the same scan (path,
        schema, settings) over a new layout."""
        self.chunk_rows = int(chunk_rows)
        self._boundaries = list(boundaries)
        self._byte_ranges = list(byte_ranges)
        #: Whether the layout scan ended outside any quoted field; an open
        #: quote at EOF makes appended bytes part of the dangling record,
        #: so refresh must rescan instead of extending.
        self.clean_eof = bool(clean_eof)
        self.file_stamp = tuple(file_stamp)
        #: Per-chunk ``(head_crc, tail_crc)`` content stamps.  Captured with
        #: the layout — NOT lazily — so a later :meth:`refreshed` compares
        #: today's bytes against what the layout was actually computed
        #: from; stamping after a mutation would trust the mutated prefix.
        self._chunk_stamps = chunk_stamps if chunk_stamps is not None \
            else compute_chunk_stamps(self.path, self._byte_ranges)
        self._rechunks: Dict[int, "CsvSource"] = {}
        self._zone_map: Optional[ZoneMap] = None
        return self

    # ------------------------------------------------------------------ #
    # Metadata (no I/O)
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> List[str]:
        """Column names, known without parsing the file."""
        return list(self._columns)

    @property
    def dtypes(self) -> Dict[str, DType]:
        """Per-column storage dtypes inferred from the preview rows."""
        return dict(self._dtypes)

    @property
    def n_rows(self) -> int:
        """Total data rows, known from the layout scan."""
        return self._boundaries[-1][1] if self._boundaries else 0

    @property
    def n_chunks(self) -> int:
        """Number of precomputed chunks."""
        return len(self._boundaries)

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` global row range of each chunk."""
        return list(self._boundaries)

    @property
    def byte_ranges(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` byte range of each chunk (record-aligned)."""
        return list(self._byte_ranges)

    @property
    def file_size(self) -> int:
        """On-disk size recorded at scan time (part of the cache stamp)."""
        return int(self.file_stamp[0])

    @property
    def chunk_stamps(self) -> List[Tuple[int, int]]:
        """Per-chunk ``(head_crc, tail_crc)`` content stamps.

        Chunk ``index`` of this layout is keyed by ``chunk_stamps[index]``
        in the cross-call cache, the zone-map sidecar and the parsed-chunk
        binary sidecar.
        """
        return list(self._chunk_stamps)

    def chunk_stamp(self, index: int) -> Tuple[int, int]:
        """The content stamp of chunk *index*."""
        return self._chunk_stamps[index]

    def content_crc(self) -> int:
        """One CRC folding every chunk stamp — the file-level content probe.

        Changes whenever any chunk's head/tail probe changes, so the
        whole-file fingerprint below detects in-place rewrites even when
        they preserve both size and mtime_ns (the stamp-granularity hazard:
        editors restoring timestamps, appends within one mtime resolution).
        """
        crc = 0
        for head, tail in self._chunk_stamps:
            crc = zlib.crc32(f"{head}:{tail};".encode(), crc)
        return crc

    @property
    def preview(self) -> DataFrame:
        """The bounded preview frame dtypes and semantic types come from."""
        return self._preview

    @property
    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(exact=False, projection=True,
                                  predicates=True, chunk_sidecar=True)

    def schema_preview(self) -> DataFrame:
        return self._preview

    def fingerprint(self) -> str:
        """Content fingerprint from ``(path, size, mtime_ns, content CRC)``.

        Stable across processes while the file is unchanged, so cross-call
        cache keys survive re-scanning.  The trailing content CRC folds
        every per-chunk probe, so a same-size same-mtime rewrite still
        changes the fingerprint.
        """
        return fingerprint_file_stamps(
            [(self.path, self.file_stamp[0], self.file_stamp[1],
              self.content_crc())])

    def footprint_bytes(self) -> int:
        return self.file_size

    def materialization_bytes(self) -> int:
        if not len(self._preview):
            return self.file_size
        return int(self._preview_row_bytes() * self.n_rows)

    def __repr__(self) -> str:
        return (f"CsvSource(path={self.path!r}, rows={self.n_rows}, "
                f"chunks={self.n_chunks}, columns={self._columns})")

    # ------------------------------------------------------------------ #
    # Filtered views (predicate pushdown)
    # ------------------------------------------------------------------ #
    def __getitem__(self, item: Any) -> Any:
        """``scan["x"]`` / ``scan[scan["x"] > 0]``: lazy filter building."""
        return _source_getitem(self, item)

    def __getattr__(self, name: str) -> Any:
        return _source_getattr(self, name)

    def zone_map(self) -> ZoneMap:
        """The per-chunk zone map of this scan, building it if needed.

        The sidecar holds one entry per chunk byte range, each keyed by
        that chunk's ``(head_crc, tail_crc)`` content stamp
        (:mod:`repro.frame.zonemap`): only chunks whose entry is missing or
        whose stamp mismatches are parsed to compute their
        min/max/null/distinct statistics, and only those entries are
        written back.  After an append, the old chunks' entries survive
        verbatim and the build pays for the new chunks alone; a mutated
        chunk rebuilds individually.  Memoized on this handle.
        """
        if self._zone_map is not None:
            return self._zone_map
        entries = load_zone_entries(self.path)
        per_chunk: List[Dict[str, Tuple[Any, Any, int, int]]] = []
        fresh: Dict[str, Dict[str, Any]] = {}
        for index, byte_range in enumerate(self._byte_ranges):
            key = chunk_key(*byte_range)
            stamp = self._chunk_stamps[index]
            stats = decode_zone_entry(entries.get(key), stamp)
            if stats is None:
                stats = chunk_column_stats(self.read_chunk(index))
                fresh[key] = encode_zone_entry(stats, stamp)
            per_chunk.append(stats)
        if fresh:
            save_zone_entries(self.path, fresh)
        self._zone_map = zone_map_from_stats(per_chunk, self.file_stamp,
                                             self.chunk_rows)
        return self._zone_map

    # ------------------------------------------------------------------ #
    # Chunked access
    # ------------------------------------------------------------------ #
    def _partition(self, index: int, offset: int = 0) -> SourcePartition:
        """The parse task of chunk *index*, shifted to global *offset* rows.

        The task carries its chunk's *own* content stamp (the head/tail
        CRC probe pair) instead of a whole-file stamp: appending to the
        file leaves the old chunks' args — and therefore their cross-call
        cache keys — byte-identical, which is what lets a refresh reuse
        every already-sketched chunk and execute only the appended ones.
        """
        byte_start, byte_stop = self._byte_ranges[index]
        start, stop = self._boundaries[index]
        return SourcePartition(
            offset + start, offset + stop, _read_csv_slice,
            (self.path, byte_start, byte_stop, tuple(self._columns),
             self._dtypes, self._chunk_stamps[index], self.delimiter,
             stop - start),
            prefix="read_csv_partition", path=self.path,
            byte_span=byte_stop - byte_start)

    def partitions(self, offset: int = 0) -> List[SourcePartition]:
        return [self._partition(index, offset)
                for index in range(self.n_chunks)]

    def partitions_matching(self, spec: Sequence[Tuple[str, str, Any]],
                            offset: int = 0) -> List[SourcePartition]:
        """:meth:`partitions` minus chunks the zone map proves hold no match.

        Falls back to every partition on any failure — zone maps are an
        optimization, never a correctness requirement, so an unreadable
        sidecar or a parse problem during the statistics build must
        degrade to "parse every chunk".
        """
        parts = self.partitions(offset)
        try:
            keep = self.zone_map().keep_flags(spec)
        except (OSError, FrameError):
            return parts
        return [part for part, kept in zip(parts, keep) if kept]

    def read_chunk(self, index: int) -> DataFrame:
        """Parse chunk *index* (its rows only) into a DataFrame."""
        return self._partition(index).materialize()

    def chunks(self) -> Iterator[DataFrame]:
        """Yield every chunk in row order, one bounded DataFrame at a time."""
        for index in range(self.n_chunks):
            yield self.read_chunk(index)

    def head(self, n: int = 5) -> DataFrame:
        """The first *n* rows (served from the preview when possible)."""
        if n <= len(self._preview):
            return self._preview.head(n)
        return read_csv(self.path, delimiter=self.delimiter,
                        dtypes=self._dtypes, max_rows=n, lenient=True)

    def to_frame(self) -> DataFrame:
        """Materialize the whole file (escape hatch; needs the full memory)."""
        return concat_rows([chunk for chunk in self.chunks() if len(chunk)]
                           or [self.read_chunk(0)])

    # ------------------------------------------------------------------ #
    # Chunk-size control
    # ------------------------------------------------------------------ #
    def _preview_row_bytes(self) -> float:
        """In-memory bytes of one parsed row, going by the preview."""
        return self._preview.memory_bytes() / len(self._preview) \
            if len(self._preview) else 64.0

    def estimated_row_bytes(self) -> int:
        """Rough peak parse cost of one row (on-disk and in-memory)."""
        data_bytes = max(self.file_size - self._byte_ranges[0][0], 0) \
            if self._byte_ranges else 0
        csv_row = data_bytes / self.n_rows if self.n_rows else 64.0
        return max(1, int(csv_row * PARSE_OVERHEAD_FACTOR
                          + self._preview_row_bytes()))

    def chunk_rows_for_budget(self, budget_bytes: int,
                              concurrency: int = 1) -> int:
        """Largest chunk size that keeps *concurrency* in-flight chunks
        within *budget_bytes* of estimated peak parse memory."""
        if budget_bytes <= 0:
            raise FrameError("budget_bytes must be positive")
        per_chunk = budget_bytes / max(1, concurrency)
        rows = int(per_chunk // self.estimated_row_bytes())
        return max(MIN_CHUNK_ROWS, rows)

    def rechunk(self, chunk_rows: int) -> "CsvSource":
        """Re-scan the byte layout with a different chunk granularity.

        The result is memoized per granularity on this handle: repeated EDA
        calls on the same handle (the interactive-session pattern) must not
        pay a full-file layout pass each time — a warm-cache call would
        otherwise still re-read the whole file.
        """
        if chunk_rows == self.chunk_rows:
            return self
        cached = self._rechunks.get(chunk_rows)
        if cached is None:
            _, boundaries, byte_ranges, clean_eof = _scan_csv_layout(
                self.path, chunk_rows, delimiter=self.delimiter)
            cached = self._rechunks[chunk_rows] = copy.copy(self)._set_layout(
                chunk_rows, boundaries, byte_ranges, clean_eof,
                self.file_stamp)
        return cached

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          budget_bytes: Optional[int] = None,
                          concurrency: int = 1) -> "CsvSource":
        """Shrink the chunking for an explicit budget/chunk-rows override.

        The scan's own chunking already satisfies the budget it was created
        with; only constrain further for settings the caller explicitly
        overrides (or a worker count the scan did not assume).  Anything
        else would silently override an explicit
        ``scan_csv(chunk_rows=...)`` choice and pay a needless full-file
        layout rescan.
        """
        target = self.chunk_rows
        if chunk_rows is not None:
            target = min(target, chunk_rows)
        budget = budget_bytes if budget_bytes is not None \
            else self.budget_bytes
        if budget != self.budget_bytes \
                or concurrency != self.budget_concurrency:
            target = min(target, self.chunk_rows_for_budget(
                budget, concurrency=concurrency))
        return self.rechunk(target)

    # ------------------------------------------------------------------ #
    # Incremental refresh
    # ------------------------------------------------------------------ #
    def refreshed(self) -> "CsvSource":
        """Re-resolve this scan against the file's current on-disk state.

        Returns ``self`` (the same object) when the file's ``(size,
        mtime_ns)`` stamp is unchanged.  When the file *grew* and the old
        byte region still matches every per-chunk CRC probe — an append —
        the existing layout is extended from the last committed record
        boundary: the old chunks keep their byte ranges and content
        stamps, so their cross-call cache keys, zone-map entries and
        binary sidecars all stay valid, and only the appended bytes are
        layout-scanned and stamped.  Any other change (shrink, mutation,
        schema drift in the preview window, a layout that ended inside an
        open quote) falls back to a full rescan under the original
        ``scan_csv`` arguments.  A file that can no longer be read raises.
        """
        try:
            file_stat = os.stat(self.path)
        except OSError as error:
            raise FrameError(f"cannot refresh the scan of {self.path!r}: "
                             f"{error.strerror}") from error
        stamp = (int(file_stat.st_size), int(file_stat.st_mtime_ns))
        if stamp == self.file_stamp:
            return self
        if stamp[0] > self.file_stamp[0] and self._prefix_intact():
            extended = self._extend_layout(stamp)
            if extended is not None:
                return extended
        return CsvSource(self.path, chunk_rows=self._requested_chunk_rows,
                         budget_bytes=self.budget_bytes,
                         dtypes=self._user_dtypes,
                         inference_rows=self._inference_rows,
                         delimiter=self.delimiter,
                         validate_dtype_keys=self._validate_dtype_keys)

    def _prefix_intact(self) -> bool:
        """Whether the scanned byte region still holds exactly the old data.

        Extension is trusted only when (a) the old layout ended cleanly —
        no open quote at EOF and a record-terminating newline as the last
        scanned byte, so appended bytes start a fresh record — and (b)
        every chunk's head/tail CRC probe still matches what was captured
        at scan time, so a mutated-then-grown prefix rescans instead of
        extending over a stale layout.
        """
        if not self._columns or not self.clean_eof or not self._byte_ranges:
            return False
        scanned_end = int(self._byte_ranges[-1][1])
        if scanned_end < 1:
            return False
        try:
            with open(self.path, "rb") as handle:
                handle.seek(scanned_end - 1)
                if handle.read(1) != b"\n":
                    return False
            return compute_chunk_stamps(self.path, self._byte_ranges) == \
                self._chunk_stamps
        except OSError:
            return False

    def _extend_layout(self, stamp: Tuple[int, int]
                       ) -> Optional["CsvSource"]:
        """Append-only layout extension; None when a full rescan is needed.

        Re-runs preview dtype inference over the grown file first: when the
        appended rows change any inferred column dtype (they entered the
        inference window), the chunks would disagree on storage types, so
        the caller rescans instead.  When the intact prefix already holds
        the full ``inference_rows`` window, the preview bytes are unchanged
        by construction and the old preview (and its dtypes) is reused —
        the refresh then reads only the appended tail plus the CRC probes.
        """
        scanned_end = int(self._byte_ranges[-1][1])
        try:
            preview = self._preview
            if self.n_rows < self._inference_rows:
                preview, inferred = _scan_preview(
                    self.path, self._user_dtypes, self._inference_rows,
                    self.delimiter, self._validate_dtype_keys)
                new_dtypes = {name: inferred.get(name, DType.STRING)
                              for name in self._columns}
                if new_dtypes != self._dtypes:
                    return None
            with open(self.path, "rb") as handle:
                handle.seek(scanned_end)
                offsets, counts, trailing, end, clean_eof = \
                    _scan_records(handle, self.chunk_rows)
        except (OSError, FrameError):
            return None
        byte_offsets = [scanned_end] + offsets
        row_counts = list(counts)
        if trailing:
            byte_offsets.append(end)
            row_counts.append(trailing)
        # The placeholder empty chunk of a zero-row scan is replaced by the
        # real appended chunks instead of lingering at index 0.
        kept = self.n_chunks if self.n_rows else 0
        boundaries = self._boundaries[:kept]
        byte_ranges = self._byte_ranges[:kept]
        row = self.n_rows
        for index, count in enumerate(row_counts):
            boundaries.append((row, row + count))
            byte_ranges.append((byte_offsets[index], byte_offsets[index + 1]))
            row += count
        if not boundaries:
            boundaries = [(0, 0)]
            byte_ranges = [(scanned_end, scanned_end)]
        try:
            chunk_stamps = self._chunk_stamps[:kept] + compute_chunk_stamps(
                self.path, byte_ranges[kept:])
        except OSError:
            return None
        extended = copy.copy(self)._set_layout(
            self.chunk_rows, boundaries, byte_ranges, clean_eof, stamp,
            chunk_stamps)
        extended._preview = preview
        return extended


class MultiFileCsvSource:
    """Several scanned CSV files concatenated into one logical frame.

    Built by ``repro.scan_csv`` from a list or glob of paths.  Every file
    gets its own :class:`CsvSource`; the per-file chunk partitions are
    concatenated with shifted global row offsets, so the downstream pipeline
    sees one frame and never learns about file boundaries.  Dtypes are
    pinned to the first file's inference (plus user overrides) so all
    partitions agree on storage types; files whose header disagrees with
    the first file's columns are rejected up front.  The fingerprint covers
    every file's ``(path, size, mtime_ns, content CRC)`` stamp, so the
    cross-call cache stays warm across sessions while the files are
    unchanged.
    """

    def __init__(self, scans: Sequence[CsvSource],
                 pattern: Optional[str] = None,
                 scan_kwargs: Optional[Dict[str, Any]] = None):
        scans = list(scans)
        if not scans:
            raise FrameError("MultiFileCsvSource requires at least one file")
        for scan in scans:
            if not isinstance(scan, CsvSource):
                raise FrameError("MultiFileCsvSource expects CsvSource parts")
            if scan.columns != scans[0].columns:
                raise FrameError(
                    f"CSV files disagree on columns: {scans[0].path!r} has "
                    f"{scans[0].columns} but {scan.path!r} has {scan.columns}")
            if scan.delimiter != scans[0].delimiter:
                raise FrameError("CSV files disagree on the delimiter")
        self._scans = scans
        #: The glob pattern this source was built from, when it was — a
        #: refresh re-expands it and absorbs newly matching files as
        #: appended partitions.  None for explicit path lists (closed set).
        self._pattern = pattern
        #: The scan_csv keyword arguments, so absorbed files are scanned
        #: with the same chunking/budget/inference settings.
        self._scan_kwargs = dict(scan_kwargs or {})

    @classmethod
    def scan(cls, paths: Sequence[Union[str, os.PathLike]],
             chunk_rows: Optional[int] = None,
             budget_bytes: Optional[int] = None,
             dtypes: Optional[Dict[str, DType]] = None,
             inference_rows: int = 10_000,
             delimiter: str = ",",
             pattern: Optional[str] = None) -> "MultiFileCsvSource":
        """Layout-scan every file, sharing the first file's inferred dtypes.

        The first file is scanned with normal preview inference (plus any
        user *dtypes* overrides); the resulting full dtype map is forced on
        every later file, so a column whose type is ambiguous in file N
        cannot silently diverge from file 1 and break partition merges.
        """
        if not paths:
            raise FrameError("scan_csv received an empty list of paths")
        scan_kwargs = {"chunk_rows": chunk_rows, "budget_bytes": budget_bytes,
                       "inference_rows": inference_rows,
                       "delimiter": delimiter}
        first = CsvSource(paths[0], dtypes=dtypes, **scan_kwargs)
        rest = [CsvSource(path, dtypes=first.dtypes,
                          validate_dtype_keys=False, **scan_kwargs)
                for path in paths[1:]]
        return cls([first] + rest, pattern=pattern, scan_kwargs=scan_kwargs)

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    @property
    def scans(self) -> List[CsvSource]:
        """The per-file scans, in concatenation order."""
        return list(self._scans)

    @property
    def paths(self) -> List[str]:
        """The file paths, in concatenation order."""
        return [scan.path for scan in self._scans]

    @property
    def columns(self) -> List[str]:
        return self._scans[0].columns

    @property
    def dtypes(self) -> Dict[str, DType]:
        return self._scans[0].dtypes

    @property
    def n_rows(self) -> int:
        return sum(scan.n_rows for scan in self._scans)

    @property
    def capabilities(self) -> SourceCapabilities:
        return self._scans[0].capabilities

    def schema_preview(self) -> DataFrame:
        return self._scans[0].preview

    def fingerprint(self) -> str:
        """Stable across processes while every file's content is unchanged.

        Folds each file's content CRC in next to its size/mtime stamp, so
        an in-place rewrite that preserves both (the stamp-granularity
        hazard) still changes the fingerprint.
        """
        return fingerprint_file_stamps(
            [(scan.path, scan.file_stamp[0], scan.file_stamp[1],
              scan.content_crc())
             for scan in self._scans])

    def footprint_bytes(self) -> int:
        return sum(scan.file_size for scan in self._scans)

    def materialization_bytes(self) -> int:
        return sum(scan.materialization_bytes() for scan in self._scans)

    def _scans_with_offsets(self) -> Iterator[Tuple[CsvSource, int]]:
        """Each file's scan with the global row offset of its first row."""
        return zip(self._scans,
                   accumulate((scan.n_rows for scan in self._scans),
                              initial=0))

    def partitions(self) -> List[SourcePartition]:
        return [part for scan, offset in self._scans_with_offsets()
                for part in scan.partitions(offset)]

    def partitions_matching(self, spec: Sequence[Tuple[str, str, Any]]
                            ) -> List[SourcePartition]:
        """Every file's zone-map-surviving partitions, at global offsets."""
        return [part for scan, offset in self._scans_with_offsets()
                for part in scan.partitions_matching(spec, offset)]

    def _with_scans(self, scans: List[CsvSource]) -> "MultiFileCsvSource":
        """``self`` when every scan is unchanged, else the same set-up over
        *scans*."""
        if len(scans) == len(self._scans) and \
                all(new is old for new, old in zip(scans, self._scans)):
            return self
        return MultiFileCsvSource(scans, pattern=self._pattern,
                                  scan_kwargs=self._scan_kwargs)

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          budget_bytes: Optional[int] = None,
                          concurrency: int = 1) -> "MultiFileCsvSource":
        return self._with_scans(
            [scan.with_partitioning(chunk_rows, budget_bytes, concurrency)
             for scan in self._scans])

    def refreshed(self) -> "MultiFileCsvSource":
        """Re-resolve every file and absorb newly matching glob files.

        Each existing scan refreshes individually (appends extend, other
        changes rescan, a vanished member raises naming its path).  When
        this source was built from a glob pattern, the pattern is
        re-expanded and previously unseen files are scanned — pinned to the
        first file's *current* dtype map, like any later file at cold-scan
        time — and appended in sorted order as new partitions.  Returns
        ``self`` when nothing changed.
        """
        scans = [scan.refreshed() for scan in self._scans]
        if self._pattern:
            known = set(self.paths)
            shared_dtypes = scans[0].dtypes
            scans += [CsvSource(path, dtypes=shared_dtypes,
                                validate_dtype_keys=False,
                                **self._scan_kwargs)
                      for path in _glob_data_files(self._pattern)
                      if path not in known]
        return self._with_scans(scans)

    def to_frame(self) -> DataFrame:
        """Materialize every file (escape hatch; needs the full memory)."""
        return concat_rows([scan.to_frame() for scan in self._scans])

    def __getitem__(self, item: Any) -> Any:
        """``source["x"]`` / ``source[pred]``: lazy filter building."""
        return _source_getitem(self, item)

    def __getattr__(self, name: str) -> Any:
        return _source_getattr(self, name)

    def __repr__(self) -> str:
        return (f"MultiFileCsvSource(files={len(self._scans)}, "
                f"rows={self.n_rows}, columns={self.columns})")


def _glob_data_files(pattern: str) -> List[str]:
    """Sorted matches of *pattern*, minus Python bytecode litter.

    Every glob walk in this package (expansion at scan time, re-expansion
    on refresh) goes through here: a broad user pattern like ``data/*``
    must not absorb ``__pycache__`` directories or ``.pyc`` files as scan
    members.
    """
    return sorted(match for match in glob_module.glob(pattern)
                  if not match.endswith(".pyc")
                  and "__pycache__" not in match.split(os.sep))


def expand_scan_paths(path: Union[str, os.PathLike, Sequence]) -> List[str]:
    """Resolve a ``scan_csv`` path argument into an explicit file list.

    Lists/tuples pass through; a string containing glob magic (``*``,
    ``?``, ``[``) expands to the sorted matches.  Raises when a glob
    matches nothing, so a typo cannot silently scan zero files.
    """
    if isinstance(path, (list, tuple)):
        return [str(item) for item in path]
    text = str(path)
    if glob_module.has_magic(text):
        matches = _glob_data_files(text)
        if not matches:
            raise FrameError(f"glob pattern {text!r} matched no files")
        return matches
    return [text]


def scan_csv(path: Union[str, os.PathLike, Sequence[Union[str, os.PathLike]]],
             chunk_rows: Optional[int] = None,
             budget_bytes: Optional[int] = None,
             dtypes: Optional[Dict[str, DType]] = None,
             inference_rows: int = 10_000,
             delimiter: str = ","
             ) -> Union[CsvSource, MultiFileCsvSource]:
    """Open one or more CSVs for out-of-core streaming without materializing.

    Each file is scanned once (I/O only, quote-aware) to precompute chunk
    boundaries — the paper's "precompute chunk sizes" stage applied to file
    input — and the first *inference_rows* rows are parsed to infer storage
    dtypes, which every chunk then shares.  Peak memory of any downstream
    consumer is bounded by the chunk size.

    A single path returns a :class:`CsvSource`.  A list of paths, or a
    glob pattern (``"data/part-*.csv"``), returns a
    :class:`MultiFileCsvSource`: one logical frame concatenating the files
    in list (or sorted glob) order, with dtypes pinned to the first file's
    inference so every partition agrees.  Both handle types are
    :class:`~repro.frame.source.FrameSource` implementations accepted by
    every ``plot*`` / ``create_report`` entry point, and both build lazy
    filters the same way (``h[h.ts >= x]``).

    Parameters
    ----------
    path:
        CSV file path (a header row is required), a list of such paths, or
        a glob pattern matching at least one file.
    chunk_rows:
        Rows per streamed chunk.  Defaults to :data:`DEFAULT_CHUNK_ROWS`,
        shrunk if needed so one chunk's estimated parse cost fits
        *budget_bytes*.
    budget_bytes:
        Peak-memory budget used to cap the chunk size
        (:data:`DEFAULT_BUDGET_BYTES` when omitted).
    dtypes:
        Optional per-column dtype overrides; other columns are inferred
        from the preview.  Values appearing only past the preview that do
        not fit the inferred dtype are treated as missing, so pass explicit
        dtypes for columns whose type is not visible early in the file.

        The layout scan assumes RFC 4180 quoting (quote characters appear
        only in quoted fields, doubled to escape) — what ``csv.writer``
        produces.  A stray unpaired quote inside an unquoted field desyncs
        the record counter; chunk parsing detects the mismatch and raises
        with a pointer to :func:`read_csv` rather than returning skewed
        statistics.
    inference_rows:
        Rows parsed up front for dtype inference and semantic-type
        detection.
    delimiter:
        Field separator.
    """
    is_list = isinstance(path, (list, tuple))
    if is_list or glob_module.has_magic(os.fspath(path)):
        # A glob pattern is remembered so refresh() can re-expand it and
        # absorb newly matching files as appended partitions; an explicit
        # list is a closed set and only its members are refreshed.
        return MultiFileCsvSource.scan(
            expand_scan_paths(path), chunk_rows=chunk_rows,
            budget_bytes=budget_bytes, dtypes=dtypes,
            inference_rows=inference_rows, delimiter=delimiter,
            pattern=None if is_list else os.fspath(path))
    return CsvSource(path, chunk_rows=chunk_rows, budget_bytes=budget_bytes,
                     dtypes=dtypes, inference_rows=inference_rows,
                     delimiter=delimiter)


def _scan_preview(path: Union[str, os.PathLike],
                  dtypes: Optional[Dict[str, DType]],
                  inference_rows: int,
                  delimiter: str,
                  validate_dtype_keys: bool) -> Tuple["DataFrame", Dict[str, DType]]:
    """Parse the preview rows and resolve inferred + overridden dtypes.

    Shared by the cold scan and by ``CsvSource.refreshed``: an
    append-extension must re-run the same inference over the grown file so
    it can detect appended rows changing a column's inferred dtype (in
    which case the refresh falls back to a full rescan).
    """
    # One tokenisation of the preview rows: a named column is coerced under
    # its override, every other one is inferred.  Lenient like the chunk
    # parser when overrides are given — explicit dtypes are the documented
    # remedy for late-typed columns, so early values that contradict them
    # must become missing, not abort the scan; an inferred dtype accepts
    # every cell it was inferred from, so leniency never touches those.
    # In the multi-file path *dtypes* is file 1's complete map and its keys
    # go unvalidated: a header mismatch must be reported by the multi-file
    # constructor, not here.
    with open(path, "r", newline="", encoding="utf-8") as handle:
        preview = _read_csv_stream(
            handle, delimiter, True, None, dtypes, inference_rows,
            lenient=bool(dtypes), validate_dtype_keys=validate_dtype_keys)
    inferred = preview.dtypes
    if dtypes:
        inferred.update(dtypes)
    return preview, inferred
