"""CSV input/output for the columnar frame.

The eager reader (:func:`read_csv`) performs two passes over the text: the
first collects raw string cells per column, the second infers a storage dtype
per column and coerces.  This mirrors how the EDA tools in the paper ingest
Kaggle CSV files.

The streaming reader (:func:`scan_csv`) never materializes the file: it scans
the byte layout once (quote-aware, so embedded newlines inside quoted fields
are handled), infers dtypes from a bounded preview, and returns a
:class:`CsvSource` — for one path, a list or a glob alike: one schema over
one :class:`CsvLayout` value per file — whose chunks are parsed lazily, one
bounded row range at a time.  It is a
:class:`~repro.frame.source.FrameSource` implementation, so the EDA layer
routes it through per-partition sketch reductions, which is what makes
``plot`` / ``create_report`` work on CSVs larger than memory.  This module
imports :mod:`repro.frame.source` (the protocol), never the reverse.
"""

from __future__ import annotations

import csv
import glob as glob_module
import io
import os
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice
from operator import itemgetter
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
from repro.frame.dtypes import DType, decode_cells
from repro.frame.fingerprint import fingerprint_file_stamps
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.predicate import apply_predicate_spec
from repro.frame.sidecar import (
    is_sidecar_artifact,
    load_chunk,
    record_hit,
    record_miss,
    store_chunk,
)
from repro.frame.source import (
    SourceCapabilities,
    SourcePartition,
    _source_getattr,
    _source_getitem,
)
from repro.frame.zonemap import (
    ChunkStats,
    ZoneMap,
    chunk_column_stats,
    chunk_key,
    decode_zone_entry,
    encode_zone_entry,
    is_zone_map_path,
    load_zone_entries,
    save_zone_entries,
    zone_map_from_stats,
)
from repro.utils import default_worker_count

PathOrBuffer = Union[str, os.PathLike, io.TextIOBase]

#: Default number of rows per streamed chunk (mirrors the partition default).
DEFAULT_CHUNK_ROWS = 100_000

#: Rows tokenised and transposed into columns at a time by a CSV parse.
#: Each row is a live list until its batch is transposed, so the batch stays
#: well under the collector's first-generation threshold (700 by default):
#: a larger one triggers collections that promote the rows, and in time a
#: full collection lands in whatever call runs next.
TRANSPOSE_ROWS = 256

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

#: Bytes read per block while a chunk's byte range is CRC'd into its stamp.
STAMP_BLOCK_BYTES = 1 << 20


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
                     usecols: Optional[Sequence[str]] = None) -> DataFrame:
    """Tokenise → transpose in row batches → decode each column once.

    The one cell→column step behind :func:`read_csv`, the scan preview and
    every chunk parse.  *dtypes* entries naming no column of this header
    raise.
    """
    reader = csv.reader(stream, delimiter=delimiter)
    rows = iter(reader)

    names: List[str]
    header: Optional[List[str]] = None
    if has_header:
        header = next(rows, None)
        if header:      # a UTF-8 byte-order mark (Excel) is not in the name
            header[0] = header[0].removeprefix("\ufeff")
        names = [name.strip() for name in header or ()]
    else:
        if column_names is None:
            raise FrameError("column_names is required when has_header is False")
        names = list(column_names)

    if dtypes:
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
    rows = islice(rows, max_rows)
    # A bounded batch of rows at a time; only a batch holding a short row
    # (a blank one is skipped) is normalised row by row.
    while batch := list(islice(rows, TRANSPOSE_ROWS)):
        if min(map(len, batch)) < width:
            batch = [_normalize_row(row, width) for row in batch if row]
            if not batch:
                continue
        if keep is None:        # zip() stops at the header width
            for column, values in zip(cells, zip(*batch)):
                column.extend(values)
        else:
            for column, index in zip(cells, keep):
                column.extend(map(itemgetter(index), batch))

    overrides = dtypes or {}
    columns = []
    for name, raw_values in zip(names, cells):
        # Inference is paid only by a column nobody named a dtype for: a
        # chunk parse, handed the scan's complete map, infers nothing.
        # A STRING column stays dictionary codes: the chunk travels (cache,
        # sidecar, worker payloads) as int32 codes plus its dictionary.
        dtype, data, mask, codes, dictionary = decode_cells(
            raw_values, overrides.get(name), lenient)
        columns.append(Column(name, data, dtype, mask) if codes is None
                       else Column.from_codes(name, codes, dictionary, mask))
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
def _csv_failure(context: str, error: csv.Error) -> FrameError:
    """*error* as a FrameError; a record that ran on past a ``\\r`` says why."""
    hint = ("; scan_csv splits records on '\\n' only, so a bare '\\r' record "
            "separator defeats it — read the file with repro.read_csv instead"
            if "new-line character seen in unquoted field" in str(error) else "")
    return FrameError(f"{context}: {error}{hint}")


def _read_header(path: str, delimiter: str) -> Tuple[List[str], int]:
    """The header's column names and the byte offset of the first record.

    Quote-aware like :func:`scan_layout`: a quoted header field may span
    physical lines.  A zero-byte file has no columns.  A leading UTF-8
    byte-order mark is dropped from the names, not from the offset.
    """
    with open(path, "rb") as handle:
        lines: List[bytes] = []
        quotes = 0
        for line in handle:
            lines.append(line)
            quotes += line.count(b'"')
            if quotes % 2 == 0:
                break
        text = io.StringIO(b"".join(lines).decode("utf-8-sig"))
        try:
            rows = list(csv.reader(text, delimiter=delimiter))
        except csv.Error as error:
            raise _csv_failure(f"cannot read the CSV header of {path!r}",
                               error) from error
        columns = [name.strip() for name in rows[0]] if rows else []
        return columns, handle.tell()


@dataclass(frozen=True)
class CsvLayout:
    """One file's chunk layout, as a value.

    Built only by :func:`scan_layout`: a rechunk or a refresh produces a new
    layout and never edits this one.  Every chunk is a record-aligned byte
    range, so each parses on its own; ``boundaries`` are its rows within
    this file.  ``chunk_stamps`` are the per-chunk ``(crc32, byte count)``
    content stamps, captured with the layout — not lazily — so a refresh
    compares today's bytes against what the layout was computed from;
    stamping after a mutation would trust the mutated prefix.  Chunk *i* is
    keyed by ``chunk_stamps[i]`` in the cross-call cache, the zone-map
    sidecar and the parsed-chunk binary sidecar.
    """

    path: str
    #: ``(size, mtime_ns)`` of the file when the layout was scanned.
    file_stamp: Tuple[int, int]
    chunk_rows: int
    boundaries: Tuple[Tuple[int, int], ...]
    byte_ranges: Tuple[Tuple[int, int], ...]
    chunk_stamps: Tuple[Tuple[int, int], ...]
    #: Whether the scan ended outside any quoted field; an open quote at
    #: EOF makes appended bytes part of the dangling record, so a refresh
    #: must rescan instead of extending.
    clean_eof: bool
    #: In-memory bytes of one parsed row going by this file's preview; with
    #: the on-disk row size it prices a chunk against the memory budget.
    row_bytes: float

    @property
    def n_rows(self) -> int:
        """Data rows of this file, known from the layout scan."""
        return self.boundaries[-1][1]

    def content_crc(self) -> int:
        """One CRC folding every chunk stamp — the file-level content check.

        Changes whenever any chunk's bytes change, so the fingerprint
        detects in-place rewrites even when they preserve both size and
        mtime_ns (the stamp-granularity hazard: editors restoring
        timestamps, appends within one mtime resolution).
        """
        crc = 0
        for chunk_crc, length in self.chunk_stamps:
            crc = zlib.crc32(f"{chunk_crc}:{length};".encode(), crc)
        return crc

    def row_cost(self) -> int:
        """Rough peak parse cost of one row (on-disk and in-memory)."""
        data_bytes = max(self.file_stamp[0] - self.byte_ranges[0][0], 0)
        csv_row = data_bytes / self.n_rows if self.n_rows else 64.0
        return max(1, int(csv_row * PARSE_OVERHEAD_FACTOR + self.row_bytes))

    def appendable(self) -> bool:
        """Whether the file still holds exactly the bytes this layout covers,
        so bytes appended since can simply extend it.

        Trusted only when the layout holds records and ended cleanly — no
        open quote at EOF and a record-terminating newline as the last
        scanned byte, so appended bytes start a fresh record — and every
        chunk's CRC still matches, so a mutated-then-grown prefix rescans
        instead of extending over a stale layout.
        """
        if not self.n_rows or not self.clean_eof:
            return False
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.byte_ranges[-1][1] - 1)
                if handle.read(1) != b"\n":
                    return False
            return tuple(compute_chunk_stamps(
                self.path, self.byte_ranges)) == self.chunk_stamps
        except OSError:
            return False


def scan_layout(path: str, chunk_rows: int, start: int,
                file_stamp: Tuple[int, int], row_bytes: float,
                kept: Optional[CsvLayout] = None) -> CsvLayout:
    """The one routine that builds a :class:`CsvLayout`.

    The layout holds *kept*'s chunks unchanged, then the records from byte
    *start* on, a chunk boundary committed every *chunk_rows* of them, and
    every new chunk stamped.  A cold scan and a rechunk start at the first
    record with nothing kept; an append-refresh starts where *kept* ends.
    A record ends only on a line where the cumulative quote count is even
    (``""`` escapes toggle twice, so parity is preserved); completely blank
    records are not counted, matching :func:`read_csv`.  A layout with no
    record at all is one empty chunk.
    """
    if chunk_rows <= 0:
        raise FrameError("chunk_rows must be positive")
    stops: List[int] = []
    counts: List[int] = []
    rows = quotes = 0
    record_blank = True
    with open(path, "rb") as handle:
        handle.seek(start)
        for line in handle:
            quotes += line.count(b'"')
            if line.strip(b"\r\n"):
                record_blank = False
            if quotes % 2 == 1:
                continue                      # still inside a quoted field
            if not record_blank:
                rows += 1
                if rows == chunk_rows:
                    stops.append(handle.tell())
                    counts.append(rows)
                    rows = 0
            record_blank = True
        clean_eof = quotes % 2 == 0
        if not clean_eof and not record_blank:
            # A final record whose quoted field is never closed: the csv
            # parser still yields it as a row, so count it — otherwise
            # n_rows disagrees with what the chunks actually parse.
            rows += 1
        if rows or (not counts and kept is None):
            stops.append(handle.tell())
            counts.append(rows)
    byte_ranges = tuple(zip([start] + stops[:-1], stops))
    row_stops = list(accumulate(counts, initial=kept.n_rows if kept else 0))
    boundaries = tuple(zip(row_stops, row_stops[1:]))
    chunk_stamps = tuple(compute_chunk_stamps(path, byte_ranges))
    if kept is not None:
        boundaries = kept.boundaries + boundaries
        byte_ranges = kept.byte_ranges + byte_ranges
        chunk_stamps = kept.chunk_stamps + chunk_stamps
    return CsvLayout(path=path, file_stamp=file_stamp, chunk_rows=chunk_rows,
                     boundaries=boundaries, byte_ranges=byte_ranges,
                     chunk_stamps=chunk_stamps, clean_eof=clean_eof,
                     row_bytes=row_bytes)


def compute_chunk_stamps(path: Union[str, os.PathLike],
                         byte_ranges: Sequence[Tuple[int, int]]
                         ) -> List[Tuple[int, int]]:
    """``(crc32, byte count)`` content stamp of every chunk byte range.

    Each stamp CRC32s every byte of the chunk's range, read in blocks of
    :data:`STAMP_BLOCK_BYTES`.  These stamps replace the whole-file
    ``(size, mtime_ns)`` stamp in chunk-level cache keys: appending to a
    file leaves every old chunk's bytes — and therefore its stamp, its
    cross-call cache key, its zone-map entry and its binary sidecar —
    untouched, while an edit anywhere in a chunk changes its CRC and
    invalidates exactly the chunks it touched.
    """
    stamps: List[Tuple[int, int]] = []
    with open(path, "rb") as handle:
        for start, stop in byte_ranges:
            handle.seek(int(start))
            remaining = max(0, int(stop) - int(start))
            crc = length = 0
            while remaining:
                block = handle.read(min(remaining, STAMP_BLOCK_BYTES))
                if not block:
                    break
                crc = zlib.crc32(block, crc)
                length += len(block)
                remaining -= len(block)
            stamps.append((crc, length))
    return stamps


def _estimate_csv_row_bytes(path: Union[str, os.PathLike],
                            probe_bytes: int = 64 * 1024) -> float:
    """Rough on-disk bytes per data row from a bounded probe of the file.

    Newlines embedded in quoted fields inflate the apparent record count,
    which only *under*-estimates the row size; the worker-aware re-check when
    the compute layer partitions the source corrects over-sized chunks.
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
    try:
        return read_csv(io.StringIO(payload.decode("utf-8")),
                        delimiter=delimiter, has_header=False,
                        column_names=list(column_names), dtypes=dtypes,
                        lenient=True, usecols=usecols)
    except csv.Error as error:
        raise _csv_failure(f"cannot parse the CSV chunk at bytes [{byte_start}, "
                           f"{byte_stop}) of {path!r}", error) from error


def _parse_columns(column_names: Sequence[str],
                   columns: Optional[Sequence[str]],
                   predicate: Optional[Sequence[Tuple[str, str, Any]]]
                   ) -> Optional[Tuple[str, ...]]:
    """The columns a chunk task decodes: *columns* plus the ones *predicate*
    reads, in file order; None (every column) without a projection."""
    if predicate is None or columns is None:
        return None if columns is None else tuple(columns)
    wanted = set(columns) | {column for column, _, _ in predicate}
    return tuple(name for name in column_names if name in wanted)


def _chunk_payload(column: Column, start: int, stop: int) -> Tuple[Any, ...]:
    """Rows ``[start, stop)`` of *column* as plain arrays:
    ``(name, dtype, mask, data or codes, dictionary or None)``.

    Fixed-width data and the mask are views.  STRING codes are re-indexed
    into the dictionary entries the rows use, so the slice equals what
    decoding those rows alone returns (its own sorted distinct values) and
    carries none of the other rows' texts.
    """
    mask = column.mask[start:stop]
    if column.dtype is not DType.STRING:
        return column.name, column.dtype, mask, column.data[start:stop], None
    codes, dictionary = column.codes[start:stop], column.dictionary
    used = np.flatnonzero(np.bincount(codes[~mask], minlength=dictionary.size))
    # One slot past the dictionary maps a missing row's -1 to -1.
    remap = np.full(dictionary.size + 1, -1, dtype=np.int32)
    remap[used] = np.arange(used.size, dtype=np.int32)
    return column.name, column.dtype, mask, remap[codes], dictionary[used]


def _chunk_frame(payload: Sequence[Tuple[Any, ...]]) -> DataFrame:
    """The frame of a :func:`_chunk_payload` tuple per column."""
    return DataFrame([
        Column.from_storage(name, values, dtype, mask) if dictionary is None
        else Column.from_codes(name, values, dictionary, mask)
        for name, dtype, mask, values, dictionary in payload])


def _read_csv_slice(path: str, byte_start: int, byte_stop: int,
                    column_names: Tuple[str, ...], dtypes: dict,
                    file_stamp: Tuple[int, int] = (0, 0),
                    delimiter: str = ",",
                    expected_rows: Optional[int] = None,
                    columns: Optional[Tuple[str, ...]] = None,
                    predicate: Optional[Tuple[Tuple[str, str, Any], ...]] = None,
                    sidecar: Optional[Tuple[Any, ...]] = None,
                    decoded: Optional[Tuple[Tuple[Any, ...], ...]] = None
                    ) -> DataFrame:
    """Parse one byte range of a CSV file into a DataFrame partition.

    *file_stamp* is the chunk's content stamp — the ``(crc32, byte count)``
    pair captured at scan time (see :func:`compute_chunk_stamps`).  It is
    not parsed here — it exists so the task's cross-call cache key changes
    when the chunk's bytes change, even with identical byte boundaries,
    while *surviving* file growth: an append leaves the old chunks' bytes
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

    *decoded* is the chunk's rows already decoded, as plain arrays
    (:func:`_chunk_payload`): a scan whose preview is the whole file hands
    each of that file's chunk tasks its rows, so the task takes them in
    place of the parse — the sidecar is still consulted first and still
    written on a miss.  Non-semantic like *sidecar*: the rows are exactly
    what the parse returns.
    """
    parse_columns = _parse_columns(column_names, columns, predicate)
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
        if decoded is not None:
            frame = _chunk_frame(decoded)
        else:
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


@dataclass(frozen=True)
class _ScanSettings:
    """The ``scan_csv`` arguments a source was opened with.

    A refresh rescans, and a glob absorbs newly matching files, under
    exactly these.
    """

    chunk_rows: int
    budget_bytes: int
    #: The user's dtype overrides (validated against the first header).
    dtypes: Optional[Dict[str, DType]]
    inference_rows: int
    delimiter: str
    #: The glob pattern the source was opened from, if it was; None for a
    #: path or an explicit list (a closed set of files).
    pattern: Optional[str]
    #: The worker count the budget was divided by; ``with_partitioning``
    #: re-derives chunk sizes only when the caller's differs, so
    #: default-config EDA calls never pay a second layout pass.
    concurrency: int = field(default_factory=default_worker_count)


class CsvSource:
    """On-disk CSV files as one lazy, chunked :class:`FrameSource`.

    What ``scan_csv`` returns for a path, a list or a glob.  It holds one
    schema — the first file's preview and dtypes, user overrides included,
    under which every file's chunks parse — and one :class:`CsvLayout` per
    file, in concatenation order: metadata only, never the parsed data.
    Partitions are lazy byte-range parse tasks at accumulated row offsets,
    so the pipeline sees one frame and never learns about file boundaries,
    and ``capabilities.exact=False`` routes every reduction through the
    bounded-memory sketch finalizers, so ``plot`` / ``create_report`` run
    with peak memory proportional to the chunk size, not the files.

    *whole* is :func:`_scan_preview`'s verdict that the preview holds the
    whole first file.  When the preview also has as many rows as that
    file's layout counts, it *is* the file's decoded rows, and the graph
    hands each of the file's chunk tasks its slice instead of a second
    parse.
    """

    def __init__(self, preview: DataFrame, dtypes: Dict[str, DType],
                 layouts: Sequence[CsvLayout], settings: _ScanSettings,
                 whole: bool = False):
        self._preview = preview
        self._whole = whole
        self._columns = tuple(preview.columns)
        self._dtypes = dict(dtypes)
        self._layouts = tuple(layouts)
        self._settings = settings
        self._rechunks: Dict[Tuple[int, ...], "CsvSource"] = {}
        self._zone_maps: Dict[int, ZoneMap] = {}

    # ------------------------------------------------------------------ #
    # Metadata (no I/O)
    # ------------------------------------------------------------------ #
    @property
    def layouts(self) -> Tuple[CsvLayout, ...]:
        """One chunk layout per file, in concatenation order."""
        return self._layouts

    @property
    def paths(self) -> List[str]:
        """The file paths, in concatenation order."""
        return [layout.path for layout in self._layouts]

    @property
    def path(self) -> str:
        """The file of a one-file scan; a multi-file scan has :attr:`paths`."""
        if len(self._layouts) != 1:
            raise FrameError(f"a scan of {len(self._layouts)} files has no "
                             f"single path; read .paths instead")
        return self._layouts[0].path

    @property
    def columns(self) -> List[str]:
        """Column names, known without parsing the files."""
        return list(self._columns)

    @property
    def dtypes(self) -> Dict[str, DType]:
        """Per-column storage dtypes inferred from the first file's preview."""
        return dict(self._dtypes)

    @property
    def n_rows(self) -> int:
        """Total data rows, known from the layout scans."""
        return sum(layout.n_rows for layout in self._layouts)

    @property
    def n_chunks(self) -> int:
        """Number of precomputed chunks over every file."""
        return sum(len(layout.boundaries) for layout in self._layouts)

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` global row range of each chunk."""
        return [(part.start, part.stop) for part in self.partitions()]

    @property
    def byte_ranges(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` byte range of each chunk within its file."""
        return [span for layout in self._layouts for span in layout.byte_ranges]

    @property
    def chunk_stamps(self) -> List[Tuple[int, int]]:
        """Per-chunk ``(crc32, byte count)`` content stamps (see
        :class:`CsvLayout`)."""
        return [stamp for layout in self._layouts
                for stamp in layout.chunk_stamps]

    def chunk_stamp(self, index: int) -> Tuple[int, int]:
        """The content stamp of chunk *index*."""
        return self.chunk_stamps[index]

    @property
    def preview(self) -> DataFrame:
        """The bounded preview frame dtypes and semantic types come from."""
        return self._preview

    @property
    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(exact=False, chunk_sidecar=True)

    def schema_preview(self) -> DataFrame:
        return self._preview

    def fingerprint(self) -> str:
        """Content fingerprint from every file's ``(path, size, mtime_ns,
        content CRC)``.

        Stable across processes while the files are unchanged, so
        cross-call cache keys survive re-scanning.  The content CRC folds
        every chunk stamp, so a same-size same-mtime rewrite still
        changes the fingerprint.
        """
        return fingerprint_file_stamps(
            [(layout.path, *layout.file_stamp, layout.content_crc())
             for layout in self._layouts])

    def footprint_bytes(self) -> int:
        return sum(layout.file_stamp[0] for layout in self._layouts)

    def materialization_bytes(self) -> int:
        return sum(int(layout.row_bytes * layout.n_rows)
                   for layout in self._layouts)

    def __repr__(self) -> str:
        return (f"CsvSource(paths={self.paths!r}, rows={self.n_rows}, "
                f"chunks={self.n_chunks}, columns={self.columns})")

    # ------------------------------------------------------------------ #
    # Filtered views (predicate pushdown)
    # ------------------------------------------------------------------ #
    def __getitem__(self, item: Any) -> Any:
        """``scan["x"]`` / ``scan[scan["x"] > 0]``: lazy filter building."""
        return _source_getitem(self, item)

    def __getattr__(self, name: str) -> Any:
        return _source_getattr(self, name)

    def zone_map(self, file: int = 0) -> ZoneMap:
        """The per-chunk zone map of file *file*, building it if needed.

        The sidecar holds one entry per chunk byte range, each keyed by
        that chunk's ``(crc32, byte count)`` content stamp
        (:mod:`repro.frame.zonemap`): only chunks whose entry is missing or
        whose stamp mismatches are parsed to compute their min/max and
        distinct-value statistics, and only those entries are written
        back.  After an append, the old chunks' entries survive
        verbatim and the build pays for the new chunks alone; a mutated
        chunk rebuilds individually.  Memoized on this handle.
        """
        if file not in self._zone_maps:
            layout = self._layouts[file]
            entries = load_zone_entries(layout.path)
            per_chunk: List[Dict[str, ChunkStats]] = []
            fresh: Dict[str, Dict[str, Any]] = {}
            for part, byte_range, stamp in zip(self._file_partitions(file),
                                               layout.byte_ranges,
                                               layout.chunk_stamps):
                key = chunk_key(*byte_range)
                stats = decode_zone_entry(entries.get(key), stamp)
                if stats is None:
                    stats = chunk_column_stats(part.materialize())
                    fresh[key] = encode_zone_entry(stats, stamp)
                per_chunk.append(stats)
            if fresh:
                save_zone_entries(layout.path, fresh)
            self._zone_maps[file] = zone_map_from_stats(per_chunk)
        return self._zone_maps[file]

    # ------------------------------------------------------------------ #
    # Chunked access
    # ------------------------------------------------------------------ #
    def _file_partitions(self, file: int,
                         offset: int = 0) -> List[SourcePartition]:
        """The parse tasks of file *file*'s chunks, at global *offset* rows.

        Each task carries its chunk's *own* content stamp (its CRC and
        byte count) instead of a whole-file stamp: appending to the
        file leaves the old chunks' args — and therefore their cross-call
        cache keys — byte-identical, which is what lets a refresh reuse
        every already-sketched chunk and execute only the appended ones.

        The first file's chunks are also ``decoded`` from the preview when
        the preview is the whole file (see :func:`_scan_preview`) and has
        exactly the rows the layout counted.  A preview cut at
        ``inference_rows``, or a file whose quoting or bare ``\r`` makes the
        csv reader and the layout count records differently, keeps the
        parse, which raises on the disagreement.
        """
        layout = self._layouts[file]
        held = not file and self._whole \
            and 0 < len(self._preview) == layout.n_rows
        return [SourcePartition(
                    offset + start, offset + stop, _read_csv_slice,
                    (layout.path, byte_start, byte_stop, self._columns,
                     self._dtypes, stamp, self._settings.delimiter,
                     stop - start),
                    prefix="read_csv_partition", path=layout.path,
                    byte_span=byte_stop - byte_start,
                    decoded=partial(self._preview_rows, start, stop)
                    if held else None)
                for (start, stop), (byte_start, byte_stop), stamp
                in zip(layout.boundaries, layout.byte_ranges,
                       layout.chunk_stamps)]

    def _preview_rows(self, start: int, stop: int,
                      columns: Optional[Sequence[str]],
                      predicate: Optional[Sequence[Tuple[str, str, Any]]]
                      ) -> Tuple[Tuple[Any, ...], ...]:
        """Preview rows ``[start, stop)`` of the columns a chunk task with
        this projection and predicate decodes, in file order as the parse
        returns them, as its ``decoded=`` value."""
        wanted = _parse_columns(self._columns, columns, predicate)
        return tuple(_chunk_payload(self._preview.column(name), start, stop)
                     for name in self._columns
                     if wanted is None or name in wanted)

    def _partitions_by_file(self) -> List[List[SourcePartition]]:
        offsets = accumulate((layout.n_rows for layout in self._layouts),
                             initial=0)
        return [self._file_partitions(file, offset)
                for file, offset in zip(range(len(self._layouts)), offsets)]

    def partitions(self) -> List[SourcePartition]:
        return [part for parts in self._partitions_by_file() for part in parts]

    def partitions_matching(self, spec: Sequence[Tuple[str, str, Any]]
                            ) -> List[SourcePartition]:
        """:meth:`partitions` minus chunks a zone map proves hold no match.

        A file falls back to every partition on any failure — zone maps
        are an optimization, never a correctness requirement, so an
        unreadable sidecar or a parse problem during the statistics build
        must degrade to "parse every chunk".
        """
        kept: List[SourcePartition] = []
        for file, parts in enumerate(self._partitions_by_file()):
            try:
                flags = self.zone_map(file).keep_flags(spec)
            except (OSError, FrameError):
                flags = [True] * len(parts)
            kept += [part for part, keep in zip(parts, flags) if keep]
        return kept

    def read_chunk(self, index: int) -> DataFrame:
        """Parse chunk *index* (its rows only) into a DataFrame."""
        return self.partitions()[index].materialize()

    def chunks(self) -> Iterator[DataFrame]:
        """Yield every chunk in row order, one bounded DataFrame at a time."""
        return (part.materialize() for part in self.partitions())

    def to_frame(self) -> DataFrame:
        """Materialize every file (escape hatch; needs the full memory)."""
        frames = list(self.chunks())
        return concat_rows([frame for frame in frames if len(frame)]
                           or frames[:1])

    # ------------------------------------------------------------------ #
    # Chunk-size control
    # ------------------------------------------------------------------ #
    def rechunk(self, chunk_rows: Union[int, Sequence[int]]) -> "CsvSource":
        """Re-scan the layouts at another granularity: one *chunk_rows* for
        every file, or one value per file.

        The result is memoized per granularity on this handle: repeated EDA
        calls on the same handle (the interactive-session pattern) must not
        pay a full-file layout pass each time — a warm-cache call would
        otherwise still re-read the whole file.
        """
        targets = tuple(chunk_rows) if isinstance(chunk_rows, (list, tuple)) \
            else (chunk_rows,) * len(self._layouts)
        if targets == tuple(layout.chunk_rows for layout in self._layouts):
            return self
        if targets not in self._rechunks:
            # Every layout's first chunk starts at its file's first record.
            self._rechunks[targets] = CsvSource(self._preview, self._dtypes, [
                layout if rows == layout.chunk_rows else scan_layout(
                    layout.path, rows, layout.byte_ranges[0][0],
                    layout.file_stamp, layout.row_bytes)
                for layout, rows in zip(self._layouts, targets)],
                self._settings, self._whole)
        return self._rechunks[targets]

    def with_partitioning(self, chunk_rows: Optional[int] = None,
                          concurrency: int = 1) -> "CsvSource":
        """Shrink the chunking to at most *chunk_rows*, or so the scan's
        ``budget_bytes`` holds one chunk per worker of *concurrency*.

        The scan's own chunking already satisfies its budget at the worker
        count it assumed; only a different count re-derives the chunk size.
        Anything else would silently override an explicit
        ``scan_csv(chunk_rows=...)`` choice and pay a needless full-file
        layout rescan.  Each file is priced by its own row cost.
        """
        settings = self._settings
        rebudget = concurrency != settings.concurrency
        per_chunk = settings.budget_bytes / max(1, concurrency)
        targets = []
        for layout in self._layouts:
            target = layout.chunk_rows if chunk_rows is None \
                else min(layout.chunk_rows, chunk_rows)
            if rebudget:
                target = min(target, max(MIN_CHUNK_ROWS,
                                         int(per_chunk // layout.row_cost())))
            targets.append(target)
        return self.rechunk(targets)

    # ------------------------------------------------------------------ #
    # Incremental refresh
    # ------------------------------------------------------------------ #
    def refreshed(self) -> "CsvSource":
        """Re-resolve this scan against the files' current on-disk state.

        Returns ``self`` (the same object) when no file's ``(size,
        mtime_ns)`` stamp changed and no new file matches the glob.  A
        file that *grew* with its old byte region intact — an append — has
        its layout extended from the last committed record boundary: the
        old chunks keep their byte ranges and content stamps, so their
        cross-call cache keys, zone-map entries and binary sidecars all
        stay valid, and only the appended bytes are layout-scanned and
        stamped.  Any other change rescans that file — and, for the first
        file, whose preview is the schema, every file — under the original
        ``scan_csv`` arguments.  A glob is re-expanded and newly matching
        files are appended in sorted order, pinned to the current dtypes.
        A file that can no longer be read raises, naming it.
        """
        settings = self._settings
        try:
            stamps = [_file_stamp(path) for path in self.paths]
        except OSError as error:
            raise FrameError(f"cannot refresh the scan of {error.filename!r}: "
                             f"{error.strerror}") from error
        first = (self._layouts[0].path, list(self._columns))
        layouts = list(self._layouts)
        preview, whole = self._preview, self._whole
        for file, (layout, stamp) in enumerate(zip(self._layouts, stamps)):
            if stamp == layout.file_stamp:
                continue
            appended = self._appended(
                layout, stamp, self._dtypes if file else settings.dtypes)
            if appended is not None:
                grown_preview, grown_whole, layouts[file] = appended
                if not file:
                    whole = grown_whole
                    if grown_preview is not None:
                        preview = grown_preview
            elif not file:
                return _open(expand_scan_paths(settings.pattern or self.paths),
                             settings)
            else:
                layouts[file] = _scan_file(layout.path, settings,
                                           self._dtypes, first)[2]
        if settings.pattern:
            known = set(self.paths)
            layouts += [_scan_file(path, settings, self._dtypes, first)[2]
                        for path in _glob_data_files(settings.pattern)
                        if path not in known]
        if tuple(layouts) == self._layouts:
            return self
        return CsvSource(preview, self._dtypes, layouts, settings, whole)

    def _appended(self, layout: CsvLayout, stamp: Tuple[int, int],
                  dtypes: Optional[Dict[str, DType]]
                  ) -> Optional[Tuple[Optional[DataFrame], bool, CsvLayout]]:
        """The file's re-parsed preview when there is one, whether it is
        the whole file, and *layout* extended over the file's appended
        bytes; None when only a rescan is safe.

        While the old layout holds fewer rows than the inference window,
        the appended rows enter it: the preview is re-parsed under *dtypes*
        (the user's overrides for the first file, the pinned map for the
        others), and a changed dtype map means a rescan — the chunks would
        disagree on storage types.  Otherwise the old preview stands and
        the refresh reads the old chunks once, to check their CRCs, and
        layout-scans only the appended tail.
        """
        settings = self._settings
        if stamp[0] <= layout.file_stamp[0] or not layout.appendable():
            return None
        try:
            preview, whole, row_bytes = None, False, layout.row_bytes
            if layout.n_rows < settings.inference_rows:
                preview, resolved, whole = _scan_preview(
                    layout.path, dtypes, settings.inference_rows,
                    settings.delimiter)
                if resolved != self._dtypes:
                    return None
                row_bytes = _row_bytes(preview)
            return preview, whole, scan_layout(
                layout.path, layout.chunk_rows, layout.byte_ranges[-1][1],
                stamp, row_bytes, kept=layout)
        except (OSError, FrameError):
            return None


def _file_stamp(path: str) -> Tuple[int, int]:
    """``(size, mtime_ns)`` of *path*."""
    stat = os.stat(path)
    return int(stat.st_size), int(stat.st_mtime_ns)


def _row_bytes(preview: DataFrame) -> float:
    """In-memory bytes of one parsed row, going by *preview*."""
    return preview.memory_bytes() / len(preview) if len(preview) else 64.0


def _scan_preview(path: str, dtypes: Optional[Dict[str, DType]],
                  inference_rows: int, delimiter: str
                  ) -> Tuple[DataFrame, Dict[str, DType], bool]:
    """Parse the preview rows; returns them, the resolved dtype map and
    whether they are the whole file as the layout scan splits it.

    One tokenisation of the preview rows: a named column is coerced under
    its override, every other one is inferred.  Lenient like the chunk
    parser when overrides are given — explicit dtypes are the documented
    remedy for late-typed columns, so early values that contradict them
    must become missing, not abort the scan; an inferred dtype accepts
    every cell it was inferred from, so leniency never touches those.
    Under that same dtype map a chunk parse decodes each cell to exactly
    this storage, which is what lets a whole-file preview serve its chunks
    (:meth:`CsvSource._file_partitions`).

    Whole means the parse reached the end of the file and no text cell
    holds a quote character.  A quote the csv reader keeps as text (an
    escaped ``""`` or a stray one) is one the layout scan counts as
    syntax, so the two may disagree on where records end.
    """
    with open(path, "r", newline="", encoding="utf-8") as handle:
        preview = _read_csv_stream(handle, delimiter, True, None, dtypes,
                                   inference_rows, lenient=bool(dtypes))
        try:
            whole = not handle.read(1)
        except ValueError:      # undecodable bytes past the preview
            whole = False
    whole = whole and not any(
        '"' in text for column in map(preview.column, preview.columns)
        if column.dtype is DType.STRING for text in column.dictionary.tolist())
    return preview, {**preview.dtypes, **(dtypes or {})}, whole


def _scan_file(path: str, settings: _ScanSettings,
               dtypes: Optional[Dict[str, DType]],
               first: Optional[Tuple[str, List[str]]] = None
               ) -> Tuple[DataFrame, Dict[str, DType], CsvLayout, bool]:
    """One file's cold scan: header, preview, budgeted layout and stamps,
    and whether the preview is the whole file (:func:`_scan_preview`).

    *first* is the first file's ``(path, columns)`` when this file joins a
    multi-file scan.  Its header must repeat those columns, and it is
    compared before the preview parses under the first file's *dtypes*,
    so every pinned dtype key names a column by construction.
    """
    columns, data_start = _read_header(path, settings.delimiter)
    if first is not None and columns != first[1]:
        raise FrameError(
            f"CSV files disagree on columns: {first[0]!r} has {first[1]} "
            f"but {path!r} has {columns}")
    preview, resolved, whole = _scan_preview(
        path, dtypes, settings.inference_rows, settings.delimiter)
    # Cap the chunk size by the budget using cheap row-size estimates (the
    # parsed preview plus a 64 KiB on-disk probe), then scan the layout once
    # at the final granularity.  The formula deliberately mirrors
    # with_partitioning at the default worker count, so the worker-aware
    # re-derivation in ComputeContext usually agrees and no second layout
    # pass is needed.
    row_bytes = _row_bytes(preview)
    row_cost = max(1.0, _estimate_csv_row_bytes(path) * PARSE_OVERHEAD_FACTOR
                   + row_bytes)
    budget_rows = max(MIN_CHUNK_ROWS, int(
        settings.budget_bytes / settings.concurrency // row_cost))
    layout = scan_layout(path, min(settings.chunk_rows, budget_rows),
                         data_start, _file_stamp(path), row_bytes)
    return preview, resolved, layout, whole


def _open(paths: Sequence[str], settings: _ScanSettings) -> CsvSource:
    """Scan every file; the first one's preview and dtypes are the schema."""
    preview, dtypes, first, whole = _scan_file(paths[0], settings,
                                               settings.dtypes)
    rest = [_scan_file(path, settings, dtypes, (paths[0], preview.columns))[2]
            for path in paths[1:]]
    return CsvSource(preview, dtypes, [first] + rest, settings, whole)


def _glob_data_files(pattern: str) -> List[str]:
    """Sorted regular files matching *pattern*, minus Python bytecode and
    what this package writes next to a CSV.

    Every glob walk in this package (expansion at scan time, re-expansion
    on refresh) goes through here: a broad user pattern like ``data/*``
    must not absorb ``__pycache__`` litter, chunk-sidecar directories,
    zone-map sidecars or an interrupted atomic write's temp file as scan
    members.
    """
    return sorted(match for match in glob_module.glob(pattern)
                  if os.path.isfile(match) and not match.endswith(".pyc")
                  and "__pycache__" not in match.split(os.sep)
                  and not is_sidecar_artifact(match)
                  and not is_zone_map_path(match))


def _glob_pattern(path: Union[str, os.PathLike, Sequence]) -> Optional[str]:
    """*path* as a glob pattern, or None: a list, a plain path and an
    existing file whose name merely contains ``*``, ``?`` or ``[`` are not
    patterns."""
    if isinstance(path, (list, tuple)):
        return None
    text = os.fspath(path)
    return text if glob_module.has_magic(text) and not os.path.isfile(text) \
        else None


def expand_scan_paths(path: Union[str, os.PathLike, Sequence]) -> List[str]:
    """Resolve a ``scan_csv`` path argument into an explicit file list.

    Lists/tuples pass through; a glob pattern expands to the sorted
    matches.  Raises when a glob matches nothing, so a typo cannot silently
    scan zero files.
    """
    if isinstance(path, (list, tuple)):
        return [str(item) for item in path]
    pattern = _glob_pattern(path)
    if pattern is None:
        return [os.fspath(path)]
    matches = _glob_data_files(pattern)
    if not matches:
        raise FrameError(f"glob pattern {pattern!r} matched no files")
    return matches


def scan_csv(path: Union[str, os.PathLike, Sequence[Union[str, os.PathLike]]],
             chunk_rows: Optional[int] = None,
             budget_bytes: Optional[int] = None,
             dtypes: Optional[Dict[str, DType]] = None,
             inference_rows: int = 10_000,
             delimiter: str = ",") -> CsvSource:
    """Open one or more CSVs for out-of-core streaming without materializing.

    Each file is scanned once (I/O only, quote-aware) to precompute chunk
    boundaries — the paper's "precompute chunk sizes" stage applied to file
    input — and the first *inference_rows* rows are parsed to infer storage
    dtypes, which every chunk then shares.  Peak memory of any downstream
    consumer is bounded by the chunk size.

    When those rows are the whole first file (the parse reached its end,
    kept no quote character as text and counted the records the layout
    did), a cold scan decodes each byte once: the EDA graph hands that
    file's chunk tasks their slices of the preview instead of parsing the
    bytes again.  ``to_frame`` and ``read_chunk`` always parse.

    A single path, a list of paths or a glob pattern
    (``"data/part-*.csv"``) all return a :class:`CsvSource`: one logical
    frame concatenating the files in list (or sorted glob) order, with
    dtypes pinned to the first file's inference so every partition agrees;
    a file whose header disagrees with the first file's is rejected.  An
    existing file is never a pattern, whatever characters its name holds.
    The source is a :class:`~repro.frame.source.FrameSource` accepted by
    every ``plot*`` / ``create_report`` entry point, and builds lazy
    filters (``h[h.ts >= x]``).

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
    if chunk_rows is not None and chunk_rows <= 0:
        raise FrameError("chunk_rows must be positive")
    budget = DEFAULT_BUDGET_BYTES if budget_bytes is None else budget_bytes
    if budget <= 0:
        raise FrameError("budget_bytes must be positive")
    paths = expand_scan_paths(path)
    if not paths:
        raise FrameError("scan_csv received an empty list of paths")
    return _open(paths, _ScanSettings(
        chunk_rows=DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows,
        budget_bytes=int(budget), dtypes=dict(dtypes) if dtypes else None,
        inference_rows=int(inference_rows), delimiter=delimiter,
        pattern=_glob_pattern(path)))
