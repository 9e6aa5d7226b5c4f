"""CSV input/output for the columnar frame.

The eager reader (:func:`read_csv`) performs two passes over the text: the
first collects raw string cells per column, the second infers a storage dtype
per column and coerces.  This mirrors how the EDA tools in the paper ingest
Kaggle CSV files.

The streaming reader (:func:`scan_csv`) never materializes the file: it scans
the byte layout once (:mod:`repro.frame.layout`: quote-aware, so embedded
newlines inside quoted fields are handled), infers dtypes from a bounded
preview of the first file — or reads them from the scan header an earlier
scan persisted — and returns a :class:`CsvSource` — for one path, a list or
a glob alike: one schema over one :class:`CsvLayout` value per file — whose
chunks are parsed lazily, one bounded row range at a time.  It is a
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
from repro.frame.layout import (
    CsvLayout,
    compute_chunk_stamps,
    csv_failure,
    estimate_csv_row_bytes,
    parse_row_cost,
    read_header_row,
    scan_layout,
)
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
    ScanHeader,
    ZoneMap,
    chunk_column_stats,
    chunk_key,
    decode_zone_entry,
    encode_zone_entry,
    is_zone_map_path,
    load_scan_header,
    load_zone_entries,
    save_scan_header,
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

#: Never shrink chunks below this many rows — per-chunk numpy work must still
#: dominate the python/scheduler overhead.
MIN_CHUNK_ROWS = 256

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
def parse_csv_range(path: Union[str, os.PathLike], byte_start: int,
                    byte_stop: int, column_names: Sequence[str],
                    dtypes: Dict[str, DType],
                    delimiter: str = ",",
                    usecols: Optional[Sequence[str]] = None,
                    stamp: Optional[Tuple[int, int]] = None) -> DataFrame:
    """Parse one record-aligned byte range of a CSV file into a DataFrame.

    Parsing is lenient: the dtypes come from a bounded preview, so a value
    deep in the file that contradicts them becomes a missing cell rather
    than aborting the whole scan.  *usecols* projects the parse onto a
    column subset — the other columns' cells are skipped before collection
    and coercion (see :func:`read_csv`).  With *stamp* (the chunk's
    ``(crc32, byte count)`` from the layout scan) the bytes read must still
    be the ones the scan stamped, or this raises before decoding any.
    """
    with open(path, "rb") as handle:
        handle.seek(byte_start)
        payload = handle.read(byte_stop - byte_start)
    if stamp is not None and (zlib.crc32(payload), len(payload)) != tuple(stamp):
        raise FrameError(
            f"the CSV chunk at bytes [{byte_start}, {byte_stop}) of {path!r} "
            f"changed since it was scanned; refresh the scan with "
            f"repro.refresh and run the call again")
    try:
        return read_csv(io.StringIO(payload.decode("utf-8")),
                        delimiter=delimiter, has_header=False,
                        column_names=list(column_names), dtypes=dtypes,
                        lenient=True, usecols=usecols)
    except csv.Error as error:
        raise csv_failure(f"cannot parse the CSV chunk at bytes [{byte_start}, "
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
                    file_stamp: Optional[Tuple[int, int]] = None,
                    delimiter: str = ",",
                    expected_rows: Optional[int] = None,
                    columns: Optional[Tuple[str, ...]] = None,
                    predicate: Optional[Tuple[Tuple[str, str, Any], ...]] = None,
                    sidecar: Optional[Tuple[Any, ...]] = None,
                    decoded: Optional[Tuple[Tuple[Any, ...], ...]] = None
                    ) -> DataFrame:
    """Parse one byte range of a CSV file into a DataFrame partition.

    *file_stamp* is the chunk's content stamp — the ``(crc32, byte count)``
    pair captured at scan time (see
    :func:`~repro.frame.layout.compute_chunk_stamps`).  It makes the task's
    cross-call cache key change when the chunk's bytes change, even with
    identical byte boundaries, while *surviving* file growth: an append
    leaves the old chunks' bytes untouched, so their cache keys (and any
    tree-combine ancestors built purely from them) stay warm and a refresh
    re-executes only the new chunks.  The binary chunk sidecar validates
    the same pair, and the parse checks the bytes it reads against it
    (:func:`parse_csv_range`), so nothing is cached or spilled under a
    stamp its rows were not decoded from.

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
    (:func:`_chunk_payload`): a scan whose preview is the whole file, read
    from the bytes its layout pass stamped, hands each of that file's chunk
    tasks its rows, so the task takes them in place of the parse — the
    sidecar is still consulted first and still written on a miss.
    Non-semantic like *sidecar*: the rows are exactly what the parse
    returns.
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
                                    delimiter=delimiter, usecols=parse_columns,
                                    stamp=file_stamp)
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

    def header_args(self) -> List[Any]:
        """The arguments a preview depends on, as its scan header records
        them: a header answers only a scan opened with the same ones."""
        return [self.inference_rows, self.delimiter,
                {name: dtype.value for name, dtype in self.dtypes.items()}
                if self.dtypes else None]


class _PrefixReader(io.FileIO):
    """A CSV file opened for a preview parse that CRCs the bytes it hands
    out from byte *start* on, up to *stop* (None: to where it stops)."""

    def __init__(self, path: str, start: int, stop: Optional[int] = None):
        super().__init__(path, "r")
        self.start, self.stop = start, stop
        self.position = self.crc = self.counted = 0

    def readinto(self, buffer: Any) -> int:
        count = super().readinto(buffer) or 0
        low = max(self.start - self.position, 0)
        high = count if self.stop is None else min(count,
                                                   self.stop - self.position)
        if low < high:
            self.crc = zlib.crc32(memoryview(buffer)[low:high], self.crc)
            self.counted += high - low
        self.position += count
        return count


class _Preview:
    """The first file's preview rows, decoded at most once for a scan, its
    rechunks and the refreshes that keep its preview.

    A cold scan holds the rows it parsed, a warm scan its header alone.
    Whichever layout of the first file uses the rows checks them itself
    (:meth:`vouched`): a rechunk or a refresh stamps the file again, so
    rows read from bytes that changed since are neither served nor stored.
    A warm scan builds the rows on first use: from a vouching layout's
    leading sidecar records when every one of them is on the route, else
    by parsing the preview again — which must read the bytes the header
    stamped, or the file changed since it was scanned.
    """

    def __init__(self, header: ScanHeader, settings: _ScanSettings,
                 frame: Optional[DataFrame] = None):
        self.header, self.settings, self.frame = header, settings, frame

    def vouched(self, layout: CsvLayout, whole: bool = False) -> bool:
        """Whether the rows are *layout*'s leading records: its own pass
        stamped the bytes they came from, and none holds a quote the csv
        reader keeps as text but the pass counts as syntax.  With *whole*,
        also that they are held and are every record the pass counted."""
        header = self.header
        return (layout.preview == header.stamp and header.plain
                and header.rows > 0 and (not whole or (
                    self.frame is not None and header.eof
                    and header.rows == layout.n_rows)))

    def get(self, layout: CsvLayout,
            sidecar: Optional[Sequence[Any]] = None) -> DataFrame:
        if self.frame is None:
            if sidecar is not None and self.vouched(layout):
                self.frame = self._from_records(layout, sidecar)
            if self.frame is None:
                self.frame = self._parse(layout.path)
        return self.frame

    def _from_records(self, layout: CsvLayout,
                      sidecar: Sequence[Any]) -> Optional[DataFrame]:
        header = self.header
        names = tuple(header.dtypes)
        frames = []
        for (start, stop), (byte_start, byte_stop), stamp in zip(
                layout.boundaries, layout.byte_ranges, layout.chunk_stamps):
            if start >= header.rows:
                break
            frame = load_chunk(layout.path, byte_start, byte_stop, stamp, names,
                               header.dtypes, stop - start, sidecar,
                               delimiter=self.settings.delimiter)
            if frame is None:
                return None
            frames.append(frame)
        merged = concat_rows(frames)
        if len(merged) < header.rows:
            return None
        return _chunk_frame([_chunk_payload(merged.column(name), 0, header.rows)
                             for name in names])

    def _parse(self, path: str) -> DataFrame:
        header = self.header
        frame, parsed = _parse_preview(path, self.settings, *header.span)
        if (parsed.stamp, parsed.rows, parsed.dtypes) != \
                (header.stamp, header.rows, header.dtypes):
            raise FrameError(
                f"the CSV preview at bytes [{header.span[0]}, "
                f"{header.span[1]}) of {path!r} changed since it was "
                f"scanned; refresh the scan with repro.refresh")
        return frame


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

    When the first file's layout vouches for the held preview as the whole
    file (:meth:`_Preview.vouched`), the preview *is* the file's decoded
    rows, and the graph hands each of the file's chunk tasks its slice
    instead of a second parse.
    """

    def __init__(self, preview: _Preview, layouts: Sequence[CsvLayout],
                 settings: _ScanSettings):
        self._preview = preview
        self._dtypes = dict(preview.header.dtypes)
        self._columns = tuple(self._dtypes)
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
        """The bounded preview frame dtypes and semantic types come from
        (a warm scan decodes it on first read)."""
        return self._preview.get(self._layouts[0])

    @property
    def capabilities(self) -> SourceCapabilities:
        return SourceCapabilities(exact=False, chunk_sidecar=True)

    def schema_preview(self, sidecar: Optional[Sequence[Any]] = None
                       ) -> DataFrame:
        """The preview; on a warm scan the first read with a *sidecar*
        route builds it from the leading chunks' records when they are all
        there, decoding no CSV byte."""
        return self._preview.get(self._layouts[0], sidecar)

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
        row_bytes = self._preview.header.row_bytes
        return sum(int(row_bytes * layout.n_rows) for layout in self._layouts)

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

        The first file's chunks are also ``decoded`` from the held preview
        when this layout vouches for it as the whole file
        (:meth:`_Preview.vouched`).  Changed bytes, a preview cut at
        ``inference_rows``, or quoting or a bare ``\r`` that makes the csv
        reader and the layout count records differently keep the parse.
        """
        layout = self._layouts[file]
        served = not file and self._preview.vouched(layout, whole=True)
        return [SourcePartition(
                    offset + start, offset + stop, _read_csv_slice,
                    (layout.path, byte_start, byte_stop, self._columns,
                     self._dtypes, stamp, self._settings.delimiter,
                     stop - start),
                    prefix="read_csv_partition", path=layout.path,
                    byte_span=byte_stop - byte_start,
                    decoded=partial(self._preview_rows, start, stop)
                    if served else None)
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
        return tuple(_chunk_payload(self._preview.frame.column(name), start,
                                    stop)
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

    def chunks(self, sidecar: Optional[Sequence[Any]] = None
               ) -> Iterator[DataFrame]:
        """Yield every chunk in row order, one bounded DataFrame at a time,
        each read over the *sidecar* route when given."""
        return (part.materialize(sidecar=sidecar) for part in self.partitions())

    def to_frame(self, sidecar: Optional[Sequence[Any]] = None) -> DataFrame:
        """Materialize every file (escape hatch; needs the full memory)."""
        frames = list(self.chunks(sidecar))
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
            # Each layout starts at its file's first record; the first
            # file's pass stamps the preview's bytes again.
            stop = self._preview.header.stop
            self._rechunks[targets] = CsvSource(self._preview, [
                layout if rows == layout.chunk_rows else scan_layout(
                    layout.path, rows, layout.byte_ranges[0][0],
                    layout.file_stamp, prefix_stop=0 if file else stop)
                for file, (layout, rows)
                in enumerate(zip(self._layouts, targets))], self._settings)
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
                                         int(per_chunk // layout.row_cost(
                                             self._preview.header.row_bytes))))
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
        layouts = list(self._layouts)
        preview = self._preview
        for file, (layout, stamp) in enumerate(zip(self._layouts, stamps)):
            if stamp == layout.file_stamp:
                continue
            grown = self._appended(layout, stamp, first=not file)
            if grown is None and not file:
                return _open(expand_scan_paths(settings.pattern or self.paths),
                             settings)
            if not file:
                preview = grown[0]
            layouts[file] = grown[1] if grown else self._member(layout.path)
        if settings.pattern:
            known = set(self.paths)
            layouts += [self._member(path)
                        for path in _glob_data_files(settings.pattern)
                        if path not in known]
        if tuple(layouts) == self._layouts:
            return self
        return CsvSource(preview, layouts, settings)

    def _member(self, path: str) -> CsvLayout:
        """A rescan of *path* as a further file of this scan."""
        return _scan_member(path, self._settings,
                            (self._layouts[0].path, self.columns),
                            self._preview.header.row_bytes)

    def _appended(self, layout: CsvLayout, stamp: Tuple[int, int],
                  first: bool
                  ) -> Optional[Tuple[Optional[_Preview], CsvLayout]]:
        """*layout* extended over the file's appended bytes, with the
        preview as it now stands when the file is the *first*; None when
        only a rescan is safe.

        While the first file's layout holds fewer rows than the inference
        window, the appended rows enter it: the preview is parsed again
        (under the user's overrides), and a changed dtype map means a
        rescan — the chunks would disagree on storage types.  Otherwise the
        old preview stands.  The layout pass re-stamps the old chunks (they
        must still match) and the preview's bytes in the read that lays
        out the appended tail.
        """
        settings = self._settings
        if stamp[0] <= layout.file_stamp[0] or not layout.n_rows \
                or not layout.clean_eof:
            return None
        preview = self._preview if first else None
        try:
            if first and layout.n_rows < settings.inference_rows:
                frame, header = _parse_preview(layout.path, settings,
                                               layout.byte_ranges[0][0])
                if header.dtypes != self._dtypes:
                    return None
                preview = _Preview(header, settings, frame)
            grown = scan_layout(
                layout.path, layout.chunk_rows, layout.byte_ranges[-1][1],
                stamp, kept=layout,
                prefix_stop=preview.header.stop if preview else 0)
        except (OSError, FrameError):
            return None
        if preview not in (None, self._preview) \
                and grown.preview == preview.header.stamp:
            save_scan_header(layout.path, preview.header,
                             settings.header_args())
        return preview, grown


def _file_stamp(path: str) -> Tuple[int, int]:
    """``(size, mtime_ns)`` of *path*."""
    stat = os.stat(path)
    return int(stat.st_size), int(stat.st_mtime_ns)


def _row_bytes(preview: DataFrame) -> float:
    """In-memory bytes of one parsed row, going by *preview*."""
    return preview.memory_bytes() / len(preview) if len(preview) else 64.0


def _scan_preview(source: io.RawIOBase, dtypes: Optional[Dict[str, DType]],
                  inference_rows: int, delimiter: str
                  ) -> Tuple[DataFrame, Dict[str, DType], bool]:
    """Parse the preview rows of *source*, a binary CSV file read from its
    first byte; returns them, the resolved dtype map and whether the parse
    read to the end of the file.

    One tokenisation of the preview rows: a named column is coerced under
    its override, every other one is inferred.  Lenient like the chunk
    parser when overrides are given — explicit dtypes are the documented
    remedy for late-typed columns, so early values that contradict them
    must become missing, not abort the scan; an inferred dtype accepts
    every cell it was inferred from, so leniency never touches those.
    Under that same dtype map a chunk parse decodes each cell to exactly
    this storage, which is what lets a whole-file preview serve its chunks
    (:meth:`CsvSource._file_partitions`) and the chunks' sidecar records
    rebuild a preview (:class:`_Preview`).
    """
    handle = io.TextIOWrapper(io.BufferedReader(source), encoding="utf-8",
                              newline="")
    preview = _read_csv_stream(handle, delimiter, True, None, dtypes,
                               inference_rows, lenient=bool(dtypes))
    try:
        reached_end = not handle.read(1)
    except ValueError:      # undecodable bytes past the preview
        reached_end = False
    return preview, {**preview.dtypes, **(dtypes or {})}, reached_end


def _parse_preview(path: str, settings: _ScanSettings, start: int,
                   stop: Optional[int] = None) -> Tuple[DataFrame, ScanHeader]:
    """:func:`_scan_preview` of *path* and the rows' header, whose span is
    the bytes the parse read from *start* on (up to *stop*)."""
    with _PrefixReader(path, start, stop) as source:
        frame, dtypes, eof = _scan_preview(source, settings.dtypes,
                                           settings.inference_rows,
                                           settings.delimiter)
    plain = not any(
        '"' in text for column in map(frame.column, frame.columns)
        if column.dtype is DType.STRING for text in column.dictionary.tolist())
    return frame, ScanHeader(dtypes, _row_bytes(frame), len(frame), eof, plain,
                             (start, start + source.counted), source.crc)


def _budgeted_layout(path: str, settings: _ScanSettings, start: int,
                     row_bytes: float, prefix_stop: int = 0) -> CsvLayout:
    """:func:`scan_layout` of *path* from byte *start*, at most
    ``settings.chunk_rows`` rows per chunk and fewer if the budget needs.

    The cap comes from cheap row-size estimates (*row_bytes* plus a 64 KiB
    on-disk probe), so the layout is scanned once at the final granularity.
    The formula deliberately mirrors ``with_partitioning`` at the default
    worker count, so the worker-aware re-derivation in ComputeContext
    usually agrees and no second layout pass is needed.
    """
    row_cost = max(1.0, parse_row_cost(estimate_csv_row_bytes(path),
                                       row_bytes))
    budget_rows = max(MIN_CHUNK_ROWS, int(
        settings.budget_bytes / settings.concurrency // row_cost))
    return scan_layout(path, min(settings.chunk_rows, budget_rows), start,
                       _file_stamp(path), prefix_stop=prefix_stop)


def _scan_first(path: str, settings: _ScanSettings
                ) -> Tuple[_Preview, CsvLayout]:
    """The first file's scan: its layout, and its preview header — read
    from the zone-map file when the layout pass stamps the bytes it was
    worked out from, else from a fresh parse of the preview rows.  A
    header whose bytes changed is dropped after a read of those bytes
    alone, before any layout pass under it."""
    columns, start = read_header_row(path, settings.delimiter)
    header = load_scan_header(path, settings.header_args(), columns, start)
    if header is not None and compute_chunk_stamps(
            path, [(start, header.stop)]) == [header.stamp]:
        layout = _budgeted_layout(path, settings, start, header.row_bytes,
                                  header.stop)
        if layout.preview == header.stamp:
            return _Preview(header, settings), layout
    frame, header = _parse_preview(path, settings, start)
    layout = _budgeted_layout(path, settings, start, header.row_bytes,
                              header.stop)
    if layout.preview == header.stamp:
        save_scan_header(path, header, settings.header_args())
    return _Preview(header, settings, frame), layout


def _scan_member(path: str, settings: _ScanSettings,
                 first: Tuple[str, List[str]], row_bytes: float) -> CsvLayout:
    """A further file of a multi-file scan: its header must repeat the
    first file's columns (*first* is its ``(path, columns)``), its chunks
    parse under the first file's dtypes and are priced by its *row_bytes*,
    so no preview of it is parsed."""
    columns, start = read_header_row(path, settings.delimiter)
    if columns != first[1]:
        raise FrameError(
            f"CSV files disagree on columns: {first[0]!r} has {first[1]} "
            f"but {path!r} has {columns}")
    return _budgeted_layout(path, settings, start, row_bytes)


def _open(paths: Sequence[str], settings: _ScanSettings) -> CsvSource:
    """Scan every file; the first one's preview and dtypes are the schema."""
    preview, first = _scan_first(paths[0], settings)
    rest = [_scan_member(path, settings,
                         (paths[0], list(preview.header.dtypes)),
                         preview.header.row_bytes)
            for path in paths[1:]]
    return CsvSource(preview, [first] + rest, settings)


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
    input — and stamp every chunk's bytes; the first *inference_rows* rows
    of the first file are parsed to infer storage dtypes, which every chunk
    of every file then shares.  Peak memory of any downstream consumer is
    bounded by the chunk size.

    The first file's zone-map JSON (``<file>.zones.json``) keeps a scan
    header next to its chunk statistics: these arguments, the resolved
    dtypes, the preview's row count and row size, whether it read the whole
    file, and a CRC of the bytes it was parsed from.  A scan is *warm* when
    the header was written for the same *inference_rows*, *dtypes* and
    *delimiter* and the layout pass — the same read that stamps the chunks
    — finds those bytes unchanged (and, for a preview that read to the end,
    no byte after them).  A warm scan decodes no byte: the preview is built
    on first use, from the leading chunks' sidecar records when an EDA call
    has its sidecar route and every one of them is there, else by parsing
    it again.  Any other scan is cold and writes the header afresh, where
    the directory lets it.

    Every layout of the first file (a scan's, a rechunk's, a refresh's)
    stamps the preview's bytes in its own pass and uses the preview rows
    only if they are unchanged.  When they are the whole file too (the
    parse reached its end, kept no quote as text and counted the records
    the layout did), each byte is decoded once: the EDA graph hands that
    layout's chunk tasks their slices of the preview.  ``to_frame`` and
    ``read_chunk`` always parse, and every parse checks the bytes it reads
    against the chunk's stamp, raising if the file changed since the scan.

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
