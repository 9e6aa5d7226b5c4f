"""Per-chunk zone maps: the statistics behind predicate chunk skipping.

A *zone map* records, for every chunk of a chunked CSV scan and every
column, the minimum, maximum, null count and a (bounded) distinct-value
estimate of that chunk.  Given a pushdown predicate
(:mod:`repro.frame.predicate`), the planner tests each conjunct against the
chunk's min/max range and drops chunks that cannot possibly contain a
matching row — before a single data byte of the chunk is read.

Pruning is deliberately one-sided: a kept chunk may still contain zero
matching rows (the residual per-chunk filter handles that), but a skipped
chunk must provably contain none.  The rules encode the same SQL-like
missing semantics as the predicate evaluator — a missing value never
matches — so a chunk whose values are all missing for a filtered column is
always skippable.

Zone maps are persisted as a JSON *sidecar* next to the CSV
(``<file>.zones.json``) holding one entry per chunk *byte range*, each
validated by that chunk's ``(head_crc, tail_crc)`` content stamp
(:func:`repro.frame.io.compute_chunk_stamps`).  Appending to the CSV leaves
the old chunks' byte ranges and stamps untouched, so their entries answer
verbatim after a refresh and only the appended chunks parse to build their
statistics; a mutated chunk fails its stamp probe and rebuilds
individually.  Different chunk granularities coexist naturally — their byte
ranges differ, so their entries occupy distinct keys.  Building a zone map
costs one parse of the chunks that lack entries, so it happens lazily on
the first *filtered* plan over a scan and is amortized across every later
filtered call in any process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame.dtypes import DType, parse_datetime
from repro.frame.sidecar import atomic_replace

#: Distinct-value estimates saturate here; beyond this a chunk is simply
#: "high cardinality" and the exact count stops being useful for planning.
DISTINCT_CAP = 256

#: Sidecar schema version; bump on incompatible format changes.  Version 2
#: replaced the whole-file-stamp grids with per-chunk byte-range entries so
#: appends keep the old chunks' statistics warm.
SIDECAR_VERSION = 2

#: Per-column stat vectors, one entry per chunk.
ColumnStats = Dict[str, List[Any]]


@dataclass
class ZoneMap:
    """Chunk statistics for one file at one chunk granularity."""

    stamp: Tuple[int, int]          # (st_size, st_mtime_ns) of the CSV
    chunk_rows: int                 # granularity the chunks were cut at
    n_chunks: int
    #: column name -> {"min": [...], "max": [...], "nulls": [...],
    #: "distinct": [...], "values": [...]}, each list indexed by chunk.
    #: ``values`` holds the chunk's exact distinct-value list for
    #: dictionary-encoded string columns (None when unbounded/unknown).
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
            values_lists = stats.get("values")
            chunk_values = values_lists[index] if values_lists else None
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


def chunk_column_stats(frame: Any) -> Dict[str, Tuple[Any, ...]]:
    """``(min, max, nulls, distinct[, values])`` per column of one chunk.

    ``min``/``max`` are None when the chunk has no present values for the
    column; ``distinct`` saturates at :data:`DISTINCT_CAP`.  For
    dictionary-encoded string columns whose distinct count fits the cap,
    a fifth element lists the exact distinct values (sorted) — the
    membership set behind string-equality chunk skipping; it is None
    whenever the exact set is unknown or too large.
    """
    stats: Dict[str, Tuple[Any, ...]] = {}
    for name in frame.columns:
        column = frame.column(name)
        present = column.notna()
        nulls = int(len(column) - present.sum())
        if nulls == len(column):
            stats[name] = (None, None, nulls, 0, None)
            continue
        if column.dtype is DType.STRING:
            used = np.unique(column.codes[present])
            dictionary = column.dictionary
            distinct = int(used.size)
            values_set = [str(dictionary[code]) for code in used] \
                if distinct <= DISTINCT_CAP else None
            stats[name] = (str(dictionary[used[0]]),
                           str(dictionary[used[-1]]),
                           nulls, min(distinct, DISTINCT_CAP), values_set)
            continue
        values = column.to_numpy()[present]
        stats[name] = (_scalar(values.min()), _scalar(values.max()), nulls,
                       min(int(np.unique(values).size), DISTINCT_CAP), None)
    return stats


def build_zone_map(chunks: Iterable[Any], stamp: Tuple[int, int],
                   chunk_rows: int) -> ZoneMap:
    """Build a :class:`ZoneMap` from an iterable of parsed chunk frames."""
    return zone_map_from_stats([chunk_column_stats(frame) for frame in chunks],
                               stamp, chunk_rows)


def zone_map_from_stats(stats_list: Sequence[Dict[str, Tuple[Any, ...]]],
                        stamp: Tuple[int, int],
                        chunk_rows: int) -> ZoneMap:
    """Assemble a :class:`ZoneMap` from per-chunk statistics dictionaries.

    *stats_list* holds one :func:`chunk_column_stats`-shaped mapping per
    chunk, in chunk order — what the incremental build collects from a mix
    of sidecar hits and fresh parses.  Entries may be 4-tuples (pre-distinct
    -set sidecars) or 5-tuples; a missing value set just means no membership
    pruning for that chunk.  Only columns present in *every* chunk's
    statistics enter the map: a column with gaps cannot be safely indexed
    per chunk, and dropping it merely disables pruning on it.
    """
    columns: Dict[str, ColumnStats] = {}
    shared: Optional[set] = None
    for per_column in stats_list:
        names = set(per_column)
        shared = names if shared is None else (shared & names)
    for per_column in stats_list:
        for name in (shared or ()):
            vmin, vmax, nulls, distinct = per_column[name][:4]
            values = per_column[name][4] if len(per_column[name]) > 4 else None
            entry = columns.setdefault(
                name, {"min": [], "max": [], "nulls": [], "distinct": [],
                       "values": []})
            entry["min"].append(vmin)
            entry["max"].append(vmax)
            entry["nulls"].append(nulls)
            entry["distinct"].append(distinct)
            entry["values"].append(values)
    return ZoneMap(stamp=(int(stamp[0]), int(stamp[1])),
                   chunk_rows=int(chunk_rows), n_chunks=len(stats_list),
                   columns=columns)


# --------------------------------------------------------------------------- #
# Sidecar persistence.
# --------------------------------------------------------------------------- #
def sidecar_path(csv_path: str) -> str:
    """Where the zone-map sidecar for *csv_path* lives."""
    return csv_path + ".zones.json"


def chunk_key(byte_start: int, byte_stop: int) -> str:
    """The sidecar key of one chunk byte range."""
    return f"{int(byte_start)}-{int(byte_stop)}"


def encode_zone_entry(stats: Dict[str, Tuple[Any, ...]],
                      stamp: Tuple[int, int]) -> Dict[str, Any]:
    """JSON form of one chunk's statistics, guarded by its content stamp.

    The distinct-value set, when present, is written as a fifth element —
    a plain JSON list of strings, unambiguous next to the tagged-pair
    datetime encoding because those always have exactly two elements with
    a ``"dt"`` head.
    """
    encoded: Dict[str, List[Any]] = {}
    for name, packed in stats.items():
        vmin, vmax, nulls, distinct = packed[:4]
        entry = [_encode_stat(vmin), _encode_stat(vmax),
                 int(nulls), int(distinct)]
        values = packed[4] if len(packed) > 4 else None
        if values is not None:
            entry.append([str(value) for value in values])
        encoded[name] = entry
    return {"stamp": [int(stamp[0]), int(stamp[1])], "columns": encoded}


def decode_zone_entry(entry: Any, stamp: Tuple[int, int]
                      ) -> Optional[Dict[str, Tuple[Any, Any, int, int]]]:
    """Revive one chunk's statistics; None on stamp mismatch or bad shape.

    The stamp check is what invalidates a mutated chunk: its head/tail CRC
    probes change, the persisted entry stops answering, and the caller
    re-parses that chunk alone.
    """
    if not isinstance(entry, dict):
        return None
    try:
        if tuple(entry["stamp"]) != (int(stamp[0]), int(stamp[1])):
            return None
        stats: Dict[str, Tuple[Any, ...]] = {}
        for name, packed in entry["columns"].items():
            if len(packed) not in (4, 5):
                return None
            vmin, vmax, nulls, distinct = packed[:4]
            values = packed[4] if len(packed) > 4 else None
            if values is not None and not (
                    isinstance(values, list) and
                    all(isinstance(value, str) for value in values)):
                return None
            stats[name] = (_decode_stat(vmin), _decode_stat(vmax),
                           int(nulls), int(distinct), values)
        return stats
    except (KeyError, TypeError, ValueError):
        return None


def load_zone_entries(csv_path: str) -> Dict[str, Any]:
    """All persisted chunk entries of *csv_path* (empty on any problem)."""
    try:
        with open(sidecar_path(csv_path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or \
            payload.get("version") != SIDECAR_VERSION or \
            not isinstance(payload.get("chunks"), dict):
        return {}
    return payload["chunks"]


def save_zone_entries(csv_path: str, entries: Dict[str, Any]) -> bool:
    """Merge *entries* into the sidecar's chunk table.

    Entries already on disk are kept (stale byte ranges are harmless — the
    table is a cache probed by byte range *and* content stamp, so they are
    simply never consulted again).  Returns False — without raising — when
    the directory is not writable or an entry does not serialize; zone
    maps are a cache, never a correctness requirement.
    """
    merged = load_zone_entries(csv_path)
    merged.update(entries)
    try:
        serialized = json.dumps(
            {"version": SIDECAR_VERSION, "chunks": merged}).encode("utf-8")
    except (TypeError, ValueError):
        # Last-resort guard: a statistic the encoder does not know (e.g. a
        # future dtype) must degrade to "no sidecar", not crash the scan.
        return False
    return atomic_replace(sidecar_path(csv_path), serialized)


__all__ = [
    "DISTINCT_CAP",
    "ZoneMap",
    "build_zone_map",
    "chunk_column_stats",
    "chunk_key",
    "decode_zone_entry",
    "encode_zone_entry",
    "load_zone_entries",
    "save_zone_entries",
    "sidecar_path",
    "zone_map_from_stats",
]
