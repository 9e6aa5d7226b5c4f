"""Per-chunk zone maps: the statistics behind predicate chunk skipping.

A *zone map* records, for every chunk of a chunked CSV scan and every
column, the minimum and maximum of that chunk and, for a string column of
bounded cardinality, its exact set of distinct values.  Given a pushdown
predicate (:mod:`repro.frame.predicate`), the planner tests each conjunct
against the chunk's min/max range and drops chunks that cannot possibly
contain a matching row — before a single data byte of the chunk is read.

Pruning is deliberately one-sided: a kept chunk may still contain zero
matching rows (the residual per-chunk filter handles that), but a skipped
chunk must provably contain none.  The rules encode the same SQL-like
missing semantics as the predicate evaluator — a missing value never
matches — so a chunk whose values are all missing for a filtered column is
always skippable.

Zone maps are persisted as a JSON *sidecar* next to the CSV
(``<file>.zones.json``) holding one entry per chunk *byte range*, each
validated by that chunk's ``(crc32, byte count)`` content stamp
(:func:`repro.frame.layout.compute_chunk_stamps`).  Appending to the CSV leaves
the old chunks' byte ranges and stamps untouched, so their entries answer
verbatim after a refresh and only the appended chunks parse to build their
statistics; an edit anywhere inside a chunk changes its stamp, and that
chunk alone rebuilds.  Different chunk granularities coexist naturally —
their byte ranges differ, so their entries occupy distinct keys.  Building
a zone map costs one parse of the chunks that lack entries, so it happens
lazily on the first *filtered* plan over a scan and is amortized across
every later filtered call in any process.

The same file holds the scan header (:class:`ScanHeader`) of the CSV's
first-file scans: a warm ``scan_csv`` reads it instead of parsing the dtype
preview again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame.dtypes import DType, parse_datetime
from repro.frame.sidecar import atomic_replace

#: A string column's exact distinct set is kept only up to this many values;
#: beyond it the chunk is "high cardinality" and prunes on min/max alone.
DISTINCT_CAP = 256

#: Sidecar schema version; bump on incompatible format changes, and when
#: dtype inference or the row-size estimate changes what a preview resolves
#: to — a stored scan header answers with its old verdicts until it does.
SIDECAR_VERSION = 3

#: Per-column stat vectors, one entry per chunk.
ColumnStats = Dict[str, List[Any]]

#: One column's statistics in one chunk: ``(min, max, values)``.
ChunkStats = Tuple[Any, Any, Optional[List[str]]]


@dataclass
class ZoneMap:
    """Chunk statistics for one file at one chunk granularity."""

    n_chunks: int
    #: column name -> {"min": [...], "max": [...], "values": [...]}, each
    #: list indexed by chunk.  ``values`` holds the chunk's exact
    #: distinct-value list for dictionary-encoded string columns (None when
    #: unbounded/unknown).
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def chunk_may_match(self, index: int,
                        spec: Sequence[Tuple[str, str, Any]]) -> bool:
        """Whether chunk *index* could contain a row matching *spec*.

        Conservative in every uncertain case (unknown column, incomparable
        types): only a provable miss returns False.
        """
        for column, op, value in spec:
            stats = self.columns.get(column)
            if stats is None:
                continue
            vmin = stats["min"][index]
            vmax = stats["max"][index]
            if vmin is None:
                # Every value in this chunk is missing; missing never
                # matches any comparison, so no conjunct can hold.
                return False
            chunk_values = stats["values"][index]
            if chunk_values is not None and isinstance(value, str) and \
                    op == "==" and value not in chunk_values:
                # Exact distinct set (dictionary-encoded string column):
                # an absent literal provably matches no row in the chunk.
                return False
            if isinstance(vmin, np.datetime64) and \
                    not isinstance(value, np.datetime64):
                # Datetime literals travel through specs as ISO strings
                # (picklable, tokenizable); numpy refuses to compare
                # datetime64 against str, which would silently land in the
                # TypeError no-prune path below — revive the literal so
                # time-window filters actually skip chunks.
                revived = parse_datetime(value)
                if revived is None:
                    continue    # unparseable literal: cannot prune on it
                value = revived
            try:
                if not _range_may_match(vmin, vmax, op, value):
                    return False
            except TypeError:
                continue    # incomparable literal: cannot prune on it
        return True

    def keep_flags(self, spec: Sequence[Tuple[str, str, Any]]) -> List[bool]:
        """Per-chunk keep/skip decisions for *spec*."""
        return [self.chunk_may_match(index, spec)
                for index in range(self.n_chunks)]


def _range_may_match(vmin: Any, vmax: Any, op: str, value: Any) -> bool:
    """Whether any point in [vmin, vmax] can satisfy ``point <op> value``."""
    if op == ">":
        return vmax > value
    if op == ">=":
        return vmax >= value
    if op == "<":
        return vmin < value
    if op == "<=":
        return vmin <= value
    if op == "==":
        return vmin <= value <= vmax
    if op == "!=":
        return not (vmin == vmax == value)
    return True     # unknown operator: never prune


def _scalar(value: Any) -> Any:
    """Canonical scalar form of a chunk statistic.

    Numpy numerics become plain Python (JSON- and pickle-friendly);
    datetimes stay ``numpy.datetime64`` — normalized to second precision —
    because the comparison rules need a real datetime, and the JSON
    boundary tag-encodes them separately (:func:`_encode_stat`).
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[s]")
    return value


def _encode_stat(value: Any) -> Any:
    """JSON-safe form of one min/max statistic.

    ``numpy.datetime64`` is not JSON-serializable — an untagged save used
    to crash ``json.dump`` with a ``TypeError`` for any CSV holding a
    datetime column.  Datetimes are written as a tagged pair
    ``["dt", "2021-01-01T00:00:00"]``; the tag is unambiguous because
    statistics scalars are never lists.
    """
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return None
        return ["dt", str(value.astype("datetime64[s]"))]
    return value


def _decode_stat(value: Any) -> Any:
    """Revive a tagged min/max statistic from its JSON form."""
    if isinstance(value, list) and len(value) == 2 and value[0] == "dt":
        return np.datetime64(value[1], "s")
    return value


def chunk_column_stats(frame: Any) -> Dict[str, ChunkStats]:
    """``(min, max, values)`` per column of one chunk.

    ``min``/``max`` are None when the chunk has no present values for the
    column.  For dictionary-encoded string columns with at most
    :data:`DISTINCT_CAP` distinct values, ``values`` lists them exactly
    (sorted) — the membership set behind string-equality chunk skipping;
    it is None whenever the exact set is unknown or too large.
    """
    stats: Dict[str, ChunkStats] = {}
    for name in frame.columns:
        column = frame.column(name)
        present = column.notna()
        if not present.any():
            stats[name] = (None, None, None)
            continue
        if column.dtype is DType.STRING:
            used = np.unique(column.codes[present])
            dictionary = column.dictionary
            values_set = [str(dictionary[code]) for code in used] \
                if used.size <= DISTINCT_CAP else None
            stats[name] = (str(dictionary[used[0]]),
                           str(dictionary[used[-1]]), values_set)
            continue
        values = column.to_numpy()[present]
        stats[name] = (_scalar(values.min()), _scalar(values.max()), None)
    return stats


def zone_map_from_stats(stats_list: Sequence[Dict[str, ChunkStats]]
                        ) -> ZoneMap:
    """Assemble a :class:`ZoneMap` from per-chunk statistics dictionaries.

    *stats_list* holds one :func:`chunk_column_stats`-shaped mapping per
    chunk, in chunk order — what the incremental build collects from a mix
    of sidecar hits and fresh parses.  Only columns present in *every*
    chunk's statistics enter the map: a column with gaps cannot be safely
    indexed per chunk, and dropping it merely disables pruning on it.
    """
    columns: Dict[str, ColumnStats] = {}
    shared: Optional[set] = None
    for per_column in stats_list:
        names = set(per_column)
        shared = names if shared is None else (shared & names)
    for per_column in stats_list:
        for name in (shared or ()):
            vmin, vmax, values = per_column[name]
            entry = columns.setdefault(
                name, {"min": [], "max": [], "values": []})
            entry["min"].append(vmin)
            entry["max"].append(vmax)
            entry["values"].append(values)
    return ZoneMap(n_chunks=len(stats_list), columns=columns)


# --------------------------------------------------------------------------- #
# Sidecar persistence.
# --------------------------------------------------------------------------- #
#: What :func:`sidecar_path` appends to the CSV's path.
SIDECAR_SUFFIX = ".zones.json"


def sidecar_path(csv_path: str) -> str:
    """Where the zone-map sidecar for *csv_path* lives."""
    return csv_path + SIDECAR_SUFFIX


def is_zone_map_path(path: str) -> bool:
    """Whether *path* is named like a zone-map sidecar."""
    return path.endswith(SIDECAR_SUFFIX)


def chunk_key(byte_start: int, byte_stop: int) -> str:
    """The sidecar key of one chunk byte range."""
    return f"{int(byte_start)}-{int(byte_stop)}"


def encode_zone_entry(stats: Dict[str, ChunkStats],
                      stamp: Tuple[int, int]) -> Dict[str, Any]:
    """JSON form of one chunk's statistics, guarded by its content stamp.

    Each column is ``[min, max]``, plus the distinct-value set as a third
    element when there is one — a plain JSON list of strings, unambiguous
    next to the tagged-pair datetime encoding because those always have
    exactly two elements with a ``"dt"`` head.
    """
    encoded: Dict[str, List[Any]] = {}
    for name, (vmin, vmax, values) in stats.items():
        entry = [_encode_stat(vmin), _encode_stat(vmax)]
        if values is not None:
            entry.append([str(value) for value in values])
        encoded[name] = entry
    return {"stamp": [int(stamp[0]), int(stamp[1])], "columns": encoded}


def decode_zone_entry(entry: Any, stamp: Tuple[int, int]
                      ) -> Optional[Dict[str, ChunkStats]]:
    """Revive one chunk's statistics; None on stamp mismatch or bad shape.

    The stamp check is what invalidates a mutated chunk: its CRC changes,
    the persisted entry stops answering, and the caller re-parses that
    chunk alone.
    """
    if not isinstance(entry, dict):
        return None
    try:
        if tuple(entry["stamp"]) != (int(stamp[0]), int(stamp[1])):
            return None
        stats: Dict[str, ChunkStats] = {}
        for name, packed in entry["columns"].items():
            if len(packed) not in (2, 3):
                return None
            values = packed[2] if len(packed) > 2 else None
            if values is not None and not (
                    isinstance(values, list) and
                    all(isinstance(value, str) for value in values)):
                return None
            stats[name] = (_decode_stat(packed[0]), _decode_stat(packed[1]),
                           values)
        return stats
    except (KeyError, TypeError, ValueError):
        return None


def _load_payload(csv_path: str) -> Dict[str, Any]:
    """The zone-map file's JSON object; empty on any problem."""
    try:
        with open(sidecar_path(csv_path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or \
            payload.get("version") != SIDECAR_VERSION:
        return {}
    return payload


def load_zone_entries(csv_path: str) -> Dict[str, Any]:
    """All persisted chunk entries of *csv_path* (empty on any problem)."""
    chunks = _load_payload(csv_path).get("chunks")
    return chunks if isinstance(chunks, dict) else {}


def _save_payload(csv_path: str, entries: Dict[str, Any],
                  scan: Optional[Dict[str, Any]] = None) -> bool:
    """Merge *entries* into the file's chunk table and set its scan header
    (keep the persisted one when *scan* is None)."""
    payload = _load_payload(csv_path)
    chunks = payload.get("chunks")
    merged = {**(chunks if isinstance(chunks, dict) else {}), **entries}
    scan = payload.get("scan") if scan is None else scan
    try:
        serialized = json.dumps(
            {"version": SIDECAR_VERSION, "chunks": merged,
             **({"scan": scan} if scan is not None else {})}).encode("utf-8")
    except (TypeError, ValueError):
        # Last-resort guard: a statistic the encoder does not know (e.g. a
        # future dtype) must degrade to "no sidecar", not crash the scan.
        return False
    return atomic_replace(sidecar_path(csv_path), serialized)


def save_zone_entries(csv_path: str, entries: Dict[str, Any]) -> bool:
    """Merge *entries* into the sidecar's chunk table.

    Entries already on disk are kept (stale byte ranges are harmless — the
    table is a cache probed by byte range *and* content stamp, so they are
    simply never consulted again), and so is the scan header.  Returns
    False — without raising — when the directory is not writable or an
    entry does not serialize; zone maps are a cache, never a correctness
    requirement.
    """
    return _save_payload(csv_path, entries)


# --------------------------------------------------------------------------- #
# The scan header: what a scan learned from the first file's preview.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScanHeader:
    """What the first file's preview told a scan, and which bytes told it.

    A scan of the file (:func:`repro.frame.io.scan_csv`) writes it as the
    ``"scan"`` field of the file's zone-map JSON, beside the scan arguments
    it answers for, once its layout pass has stamped the bytes the preview
    was parsed from.  A later scan with those arguments reads it instead
    of parsing the preview when its own layout pass stamps ``span`` to
    :attr:`stamp` again — one byte further when the preview read to the
    end of the file, so a grown file misses.
    """

    #: The resolved dtype map, in column order.
    dtypes: Dict[str, DType]
    #: In-memory bytes of one preview row (prices chunks on the budget).
    row_bytes: float
    #: Preview rows.
    rows: int
    #: Whether the preview parse read to the end of the file.
    eof: bool
    #: Whether no text cell of the preview holds a quote character.  A
    #: quote the csv reader keeps as text is one the layout pass counts as
    #: syntax, so only then do the two agree on where its records end.
    plain: bool
    #: ``[first record, end of the bytes the preview parse read)``.
    span: Tuple[int, int]
    #: crc32 of the bytes in ``span``.
    crc: int

    @property
    def whole(self) -> bool:
        """Whether the preview rows are every record of the file."""
        return self.eof and self.plain

    @property
    def stop(self) -> int:
        """Where a layout pass stops stamping the preview's bytes."""
        return self.span[1] + self.eof

    @property
    def stamp(self) -> Tuple[int, int]:
        """``(crc32, byte count)`` of the bytes the preview was parsed from."""
        return self.crc, self.span[1] - self.span[0]


def load_scan_header(csv_path: str, args: List[Any], columns: List[str],
                     start: int) -> Optional[ScanHeader]:
    """The header persisted for *csv_path*, if there is one for a scan with
    *args* of a file whose header row reads *columns* and ends at *start*."""
    payload = _load_payload(csv_path).get("scan")
    try:
        if payload["args"] != args or not isinstance(payload["eof"], bool) \
                or not isinstance(payload["plain"], bool):
            return None
        header = ScanHeader(
            {name: DType(value) for name, value in payload["dtypes"].items()},
            float(payload["row_bytes"]), int(payload["rows"]), payload["eof"],
            payload["plain"], tuple(map(int, payload["span"])),
            int(payload["crc"]))
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    span = header.span
    return header if list(header.dtypes) == columns and len(span) == 2 \
        and span[0] == start else None


def save_scan_header(csv_path: str, header: ScanHeader,
                     args: List[Any]) -> bool:
    """Persist *header* for scans with *args*, keeping the chunk entries;
    False (never raises) when it cannot be written."""
    return _save_payload(csv_path, {}, {
        "args": args,
        "dtypes": {name: dtype.value for name, dtype in header.dtypes.items()},
        "row_bytes": header.row_bytes, "rows": header.rows, "eof": header.eof,
        "plain": header.plain, "span": list(header.span), "crc": header.crc})


__all__ = [
    "DISTINCT_CAP",
    "ScanHeader",
    "ZoneMap",
    "chunk_column_stats",
    "chunk_key",
    "decode_zone_entry",
    "encode_zone_entry",
    "is_zone_map_path",
    "load_scan_header",
    "load_zone_entries",
    "save_scan_header",
    "save_zone_entries",
    "sidecar_path",
    "zone_map_from_stats",
]
