"""Where a CSV file's records lie, and what their bytes were.

The byte level under :func:`repro.frame.io.scan_csv`: the header row's end,
the record-aligned chunk layout of one file (:class:`CsvLayout`) and the
``(crc32, byte count)`` content stamp of every chunk, and the price of a
chunk's rows against the memory budget.  Nothing here decodes a cell;
:mod:`repro.frame.io` parses the byte ranges this module finds.
"""

from __future__ import annotations

import csv
import io
import os
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FrameError

#: Bytes read per block by the layout pass and while a byte range is CRC'd
#: into its stamp.
STAMP_BLOCK_BYTES = 1 << 20

#: Parsing a CSV chunk transiently holds the raw text plus per-cell python
#: strings (each with ~50 bytes of object header), which costs several times
#: the on-disk bytes; the budget-to-rows conversion multiplies the on-disk
#: row size by this factor.  Calibrated against tracemalloc peaks in
#: benchmarks/bench_outofcore.py.
PARSE_OVERHEAD_FACTOR = 12

_NEWLINE, _QUOTE, _CARRIAGE = ord("\n"), ord('"'), ord("\r")


def parse_row_cost(csv_row: float, row_bytes: float) -> float:
    """Rough peak bytes of parsing one row of *csv_row* on-disk bytes into
    *row_bytes* in-memory bytes: what a chunk's rows are priced at against
    the memory budget."""
    return csv_row * PARSE_OVERHEAD_FACTOR + row_bytes


def csv_failure(context: str, error: csv.Error) -> FrameError:
    """*error* as a FrameError; a record that ran on past a ``\\r`` says why."""
    hint = ("; scan_csv splits records on '\\n' only, so a bare '\\r' record "
            "separator defeats it — read the file with repro.read_csv instead"
            if "new-line character seen in unquoted field" in str(error) else "")
    return FrameError(f"{context}: {error}{hint}")


def read_header_row(path: str, delimiter: str) -> Tuple[List[str], int]:
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
            raise csv_failure(f"cannot read the CSV header of {path!r}",
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
    sidecar and the parsed-chunk binary sidecar, and a parse of its bytes
    checks them against it.
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
    #: In-memory bytes of one parsed row going by the first file's preview;
    #: with the on-disk row size it prices a chunk against the memory budget.
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
        return max(1, int(parse_row_cost(csv_row, self.row_bytes)))


def _record_ends(view: np.ndarray, odd: bool, filled: bool
                 ) -> Tuple[np.ndarray, bool, bool]:
    """Offsets just past each record of *view* that ends on a line holding
    a byte other than ``\\r`` / ``\\n``, plus the state a next block needs.

    *odd* is whether an odd number of quotes came before *view* (a record
    ends only on a ``\\n`` where the count is even: ``""`` escapes toggle
    twice, so parity is preserved) and *filled* whether the line open at
    its start already holds such a byte.  A record of several lines holds a
    quote on its last line, so that line judges its record; a blank record
    is skipped, matching :func:`~repro.frame.io.read_csv`.
    """
    newlines = np.flatnonzero(view == _NEWLINE)
    quotes = np.flatnonzero(view == _QUOTE)
    carriages = np.flatnonzero(view == _CARRIAGE)
    odd_after = odd ^ bool(quotes.size % 2)
    tail = int(newlines[-1]) + 1 if newlines.size else 0
    # Does the line left open at the end hold anything but '\r'?
    open_filled = bool(view.size - tail
                       > carriages.size - np.searchsorted(carriages, tail))
    if not newlines.size:
        return newlines, odd_after, filled or open_filled
    starts = np.empty_like(newlines)
    starts[0] = 0
    starts[1:] = newlines[:-1] + 1
    content = (newlines - starts) - (np.searchsorted(carriages, newlines)
                                     - np.searchsorted(carriages, starts))
    content[0] += filled
    even = (np.searchsorted(quotes, newlines) + odd) % 2 == 0
    return newlines[even & (content > 0)] + 1, odd_after, open_filled


def scan_layout(path: str, chunk_rows: int, start: int,
                file_stamp: Tuple[int, int], row_bytes: float,
                kept: Optional[CsvLayout] = None, prefix_stop: int = 0
                ) -> Tuple[CsvLayout, Tuple[int, int]]:
    """The one routine that builds a :class:`CsvLayout`.

    The layout holds *kept*'s chunks unchanged, then the records from byte
    *start* on, a chunk boundary committed every *chunk_rows* of them, and
    every new chunk stamped.  A cold scan and a rechunk start at the first
    record with nothing kept; an append-refresh starts where *kept* ends.
    Completely blank records are not counted, matching
    :func:`~repro.frame.io.read_csv`; a record whose quote is never closed
    ends at EOF.  A layout with no record at all is one empty chunk.

    One read of the file from its first chunk's byte, in blocks of
    :data:`STAMP_BLOCK_BYTES` scanned with numpy (the quote parity and the
    open line carried from block to block), finds the records and stamps
    every chunk.  *kept*'s chunks are stamped again on the way; unless
    they still match and still end on a newline this raises FrameError,
    and a refresh rescans.  The second value is the ``(crc32, byte
    count)`` stamp of the bytes from the first chunk's start to
    *prefix_stop* (fewer at EOF): what a scan header is checked against.
    """
    if chunk_rows <= 0:
        raise FrameError("chunk_rows must be positive")
    first = kept.byte_ranges[0][0] if kept else start
    cuts = deque(stop for _, stop in kept.byte_ranges) if kept else deque()
    stops: List[int] = []
    stamps: List[Tuple[int, int]] = []
    rows = crc = prefix_crc = 0
    odd = filled = False
    newline_ended = kept is None
    chunk_start = position = first
    with open(path, "rb") as handle:
        handle.seek(first)
        while block := handle.read(STAMP_BLOCK_BYTES):
            begin, position = position, position + len(block)
            skip = max(0, start - begin)
            if kept and begin < start <= position:
                newline_ended = block[start - begin - 1] == _NEWLINE
            if skip < len(block):
                ends, odd, filled = _record_ends(
                    np.frombuffer(block, np.uint8)[skip:], odd, filled)
                found = (ends[chunk_rows - rows - 1::chunk_rows]
                         + (begin + skip)).tolist()
                rows = (rows + ends.size) % chunk_rows
                stops += found
                cuts += found
            view, offset = memoryview(block), 0
            while cuts and cuts[0] <= position:
                cut = cuts.popleft() - begin
                stamps.append((zlib.crc32(view[offset:cut], crc),
                               begin + cut - chunk_start))
                crc, chunk_start, offset = 0, begin + cut, cut
            crc = zlib.crc32(view[offset:], crc)
            if begin < prefix_stop:
                prefix_crc = zlib.crc32(view[:prefix_stop - begin], prefix_crc)
    if kept and (not newline_ended
                 or tuple(stamps[:len(kept.byte_ranges)]) != kept.chunk_stamps):
        raise FrameError(f"the chunks of {path!r} changed since it was "
                         f"scanned")
    counts = [chunk_rows] * len(stops)
    rows += filled or odd               # the record EOF cuts off is a row
    if rows or (not stops and kept is None):
        stops.append(position)
        counts.append(rows)
        stamps.append((crc, position - chunk_start))
    byte_ranges = tuple(zip([start] + stops[:-1], stops))
    row_stops = list(accumulate(counts, initial=kept.n_rows if kept else 0))
    boundaries = tuple(zip(row_stops, row_stops[1:]))
    if kept is not None:
        boundaries = kept.boundaries + boundaries
        byte_ranges = kept.byte_ranges + byte_ranges
    layout = CsvLayout(path=path, file_stamp=file_stamp, chunk_rows=chunk_rows,
                       boundaries=boundaries, byte_ranges=byte_ranges,
                       chunk_stamps=tuple(stamps), clean_eof=not odd,
                       row_bytes=row_bytes)
    return layout, (prefix_crc, max(0, min(prefix_stop, position) - first))


def compute_chunk_stamps(path: Union[str, os.PathLike],
                         byte_ranges: Sequence[Tuple[int, int]]
                         ) -> List[Tuple[int, int]]:
    """``(crc32, byte count)`` content stamp of every chunk byte range.

    Each stamp CRC32s every byte of the chunk's range, read in blocks of
    :data:`STAMP_BLOCK_BYTES` — the stamps :func:`scan_layout` records
    while it finds the chunks.  They replace the whole-file ``(size,
    mtime_ns)`` stamp in chunk-level cache keys: appending to a file leaves
    every old chunk's bytes — and therefore its stamp, its cross-call cache
    key, its zone-map entry and its binary sidecar — untouched, while an
    edit anywhere in a chunk changes its CRC and invalidates exactly the
    chunks it touched.
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


def estimate_csv_row_bytes(path: Union[str, os.PathLike],
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
