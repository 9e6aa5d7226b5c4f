"""Parsed-chunk binary sidecar cache: parse a CSV chunk once, ever.

Even after projection and predicate pushdown, a *warm* re-scan of an
out-of-core CSV still pays full CSV decoding in every process whose
in-memory :class:`~repro.graph.cache.TaskCache` has not seen the chunk —
which is every ``ProcessScheduler`` worker on every run, since that cache
is per-process.  This module spills each parsed, dtype-coerced chunk to a
compact binary file next to the CSV (``<file>.chunks/``) so any later scan
— same process, another process, another session — loads the coerced
arrays directly and decodes zero CSV bytes.

Keying mirrors the zone-map sidecar (:mod:`repro.frame.zonemap`): a chunk
file answers only for the exact content stamp — the CRC32 and byte count
of the chunk's whole byte range, from
:func:`repro.frame.io.compute_chunk_stamps` — byte range, delimiter and
per-column dtypes it was written under, so an overwritten file can never
serve stale rows.  The stamp is opaque two-int data to this module; keying
per chunk rather than per file is what lets an *append* keep every old
chunk's binary sidecar valid (their bytes are untouched) while an edited
chunk fails its stamp and re-parses.  Like zone maps, the
sidecar is a cache, never a correctness requirement — every read or write
failure degrades to "parse the CSV again".

On-disk format (version :data:`SIDECAR_VERSION`)::

    b"RPCH" | uint32-LE header length | header JSON | column payload

The header records the stamp, row count, delimiter and, per column, the
dtype plus ``[payload-relative offset, byte length]`` of each buffer.
Fixed-width columns (bool/int/float/datetime) store their raw array bytes
and load zero-copy through ``numpy.memmap``.  String columns store their
dictionary encoding — an ``int32`` code array (``-1`` = missing, loaded
zero-copy like the fixed-width dtypes) plus the dictionary as an ``int64``
offset array over a UTF-8 blob — so a low-cardinality string column costs
4 bytes per row on disk instead of its repeated text.  A file of another
version simply misses and re-parses.  Writes are atomic — a uniquely named temp file (pid + random suffix, so
concurrent writers never collide) is ``os.replace``\\d over the target —
and a byte budget is enforced per chunk directory by evicting the
least-recently-*read* files (atime LRU; every hit touches the file).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.frame.column import Column
from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame

#: Leading magic of every chunk file; anything else is not ours.
MAGIC = b"RPCH"

#: Chunk-file schema version; bump on incompatible format changes.
SIDECAR_VERSION = 3

#: Default per-directory byte budget (``cache.disk_bytes``).
DEFAULT_DISK_BYTES = 512 * 1024 * 1024


class SidecarRoute(NamedTuple):
    """Where one scan's chunk sidecars live and how large they may grow.

    A ``NamedTuple`` rather than a dataclass on purpose: the route travels
    as a task keyword argument into worker processes, and the payload gate
    (``Task.shippable``, :func:`repro.graph.task.tokenize`) admits tuples
    of plain scalars — a custom class would silently pin every
    parse task to the coordinator.
    """

    #: Directory override (``cache.disk_dir``); None puts the sidecar next
    #: to the CSV as ``<file>.chunks/``.
    directory: Optional[str] = None
    #: Byte budget for the chunk directory; least-recently-read files are
    #: evicted after every store until the directory fits.
    budget_bytes: int = DEFAULT_DISK_BYTES


# --------------------------------------------------------------------------- #
# Work-avoidance counters.
#
# Module-level and process-local: the coordinator's counters cover every
# task it executed itself (threaded/synchronous schedulers and unshippable
# tasks), while ProcessScheduler workers accumulate their own counters in
# their own processes — lost to the coordinator, which therefore reports a
# lower bound under the process backend.  Tests and benchmarks that assert
# exact counts use the threaded/synchronous schedulers (or read the
# counters inside the worker, as the cross-process warm-start test does).
# --------------------------------------------------------------------------- #
_STATS: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "bytes_decoded_avoided": 0,
    "csv_bytes_decoded": 0,
}
_STATS_LOCK = threading.Lock()


def record_hit(csv_bytes: int) -> None:
    """Count one chunk served from the sidecar instead of the CSV."""
    with _STATS_LOCK:
        _STATS["hits"] += 1
        _STATS["bytes_decoded_avoided"] += int(csv_bytes)


def record_miss(csv_bytes: int) -> None:
    """Count one chunk that had to decode its CSV byte range."""
    with _STATS_LOCK:
        _STATS["misses"] += 1
        _STATS["csv_bytes_decoded"] += int(csv_bytes)


def stats_snapshot() -> Dict[str, int]:
    """A point-in-time copy of this process's sidecar counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_stats() -> None:
    """Zero the counters (test and benchmark isolation)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


# --------------------------------------------------------------------------- #
# Paths.
# --------------------------------------------------------------------------- #
def chunk_dir(csv_path: str, route: SidecarRoute) -> str:
    """The directory holding *csv_path*'s chunk files under *route*.

    With a directory override the per-file subdirectory is named by a hash
    of the absolute CSV path, so two files with the same basename cannot
    collide inside a shared cache directory.
    """
    if route.directory:
        digest = hashlib.sha1(
            os.path.abspath(csv_path).encode("utf-8")).hexdigest()[:16]
        return os.path.join(route.directory, digest + ".chunks")
    return csv_path + ".chunks"


def chunk_path(csv_path: str, route: SidecarRoute,
               byte_start: int, byte_stop: int) -> str:
    """The chunk file for one byte range of *csv_path*."""
    return os.path.join(chunk_dir(csv_path, route),
                        f"chunk-{int(byte_start)}-{int(byte_stop)}.bin")


# --------------------------------------------------------------------------- #
# Atomic writes (shared with the zone-map sidecar).
# --------------------------------------------------------------------------- #
def atomic_replace(target: str, payload: bytes) -> bool:
    """Atomically write *payload* to *target*; False (never raise) on failure.

    The temp name carries the pid plus a random suffix so two processes
    writing the same target never race on one temp path, and every failure
    path removes the temp file so a crashed write cannot leak it.
    """
    temporary = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            handle.write(payload)
        os.replace(temporary, target)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        return False
    return True


#: The name :func:`atomic_replace` gives its temp file: the target plus
#: ``.<pid>.<8 hex digits>.tmp``.
_TEMPORARY = re.compile(r"\.\d+\.[0-9a-f]{8}\.tmp\Z")


def is_sidecar_artifact(path: str) -> bool:
    """Whether *path* is named like something this module writes next to a
    CSV: a ``<file>.chunks`` directory or an :func:`atomic_replace` temp
    file (which the zone-map sidecar's writes leave too, if interrupted)."""
    return path.endswith(".chunks") or _TEMPORARY.search(path) is not None


# --------------------------------------------------------------------------- #
# Encoding.
# --------------------------------------------------------------------------- #
def _encode_frame(frame: DataFrame, stamp: Tuple[int, int], n_rows: int,
                  delimiter: str) -> bytes:
    """Serialize *frame* into the chunk-file byte layout."""
    header_columns: Dict[str, Dict[str, Any]] = {}
    payload_parts: List[bytes] = []
    offset = 0

    def append(raw: bytes) -> Tuple[int, int]:
        nonlocal offset
        payload_parts.append(raw)
        span = (offset, len(raw))
        offset += len(raw)
        return span

    for name in frame.columns:
        column = frame.column(name)
        entry: Dict[str, Any] = {"dtype": column.dtype.value}
        if column.dtype is DType.STRING:
            codes = np.ascontiguousarray(column.codes, dtype=np.int32)
            dictionary = column.dictionary
            offsets = np.zeros(dictionary.size + 1, dtype=np.int64)
            blobs: List[bytes] = []
            total = 0
            for index, value in enumerate(dictionary.tolist()):
                encoded = str(value).encode("utf-8")
                blobs.append(encoded)
                total += len(encoded)
                offsets[index + 1] = total
            entry["codes"] = list(append(codes.tobytes()))
            entry["dict_offsets"] = list(append(offsets.tobytes()))
            entry["dict_data"] = list(append(b"".join(blobs)))
        else:
            entry["data"] = list(append(
                np.ascontiguousarray(column.data).tobytes()))
        entry["mask"] = list(append(
            np.ascontiguousarray(column.mask.astype(np.bool_)).tobytes()))
        header_columns[name] = entry

    header = {
        "version": SIDECAR_VERSION,
        "stamp": [int(stamp[0]), int(stamp[1])],
        "n_rows": int(n_rows),
        "delimiter": delimiter,
        "columns": header_columns,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    return (MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes
            + b"".join(payload_parts))


# --------------------------------------------------------------------------- #
# Decoding.
# --------------------------------------------------------------------------- #
def _read_header(handle: Any) -> Optional[Tuple[Dict[str, Any], int]]:
    """``(header, payload base offset)`` of an open chunk file, or None."""
    magic = handle.read(4)
    if magic != MAGIC:
        return None
    raw_length = handle.read(4)
    if len(raw_length) != 4:
        return None
    header_length = int.from_bytes(raw_length, "little")
    header_bytes = handle.read(header_length)
    if len(header_bytes) != header_length:
        return None
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict) or \
            header.get("version") != SIDECAR_VERSION:
        return None
    return header, 8 + header_length


def _read_span(handle: Any, base: int, span: Sequence[int]) -> Optional[bytes]:
    handle.seek(base + int(span[0]))
    raw = handle.read(int(span[1]))
    return raw if len(raw) == int(span[1]) else None


def _decode_column(path: str, handle: Any, base: int, name: str,
                   entry: Dict[str, Any], n_rows: int) -> Optional[Column]:
    """Rebuild one column from its header entry, or None on any mismatch."""
    try:
        dtype = DType(entry["dtype"])
    except (KeyError, ValueError):
        return None
    mask_raw = _read_span(handle, base, entry["mask"])
    if mask_raw is None or len(mask_raw) != n_rows:
        return None
    mask = np.frombuffer(mask_raw, dtype=np.bool_)
    if dtype.is_fixed_width:
        numpy_dtype = dtype.numpy_dtype()
        span = entry["data"]
        if int(span[1]) != n_rows * numpy_dtype.itemsize:
            return None
        if n_rows == 0:
            data: np.ndarray = np.empty(0, dtype=numpy_dtype)
        else:
            try:
                data = np.memmap(path, dtype=numpy_dtype, mode="r",
                                 offset=base + int(span[0]), shape=(n_rows,))
            except (OSError, ValueError):
                raw = _read_span(handle, base, span)
                if raw is None:
                    return None
                data = np.frombuffer(raw, dtype=numpy_dtype)
        return Column.from_storage(name, data, dtype, mask)
    codes_span = entry["codes"]
    if int(codes_span[1]) != n_rows * np.dtype(np.int32).itemsize:
        return None
    if n_rows == 0:
        codes: np.ndarray = np.empty(0, dtype=np.int32)
    else:
        try:
            codes = np.memmap(path, dtype=np.int32, mode="r",
                              offset=base + int(codes_span[0]),
                              shape=(n_rows,))
        except (OSError, ValueError):
            codes_raw = _read_span(handle, base, codes_span)
            if codes_raw is None:
                return None
            codes = np.frombuffer(codes_raw, dtype=np.int32)
    offsets_raw = _read_span(handle, base, entry["dict_offsets"])
    if offsets_raw is None or len(offsets_raw) < np.dtype(np.int64).itemsize \
            or len(offsets_raw) % np.dtype(np.int64).itemsize:
        return None
    offsets = np.frombuffer(offsets_raw, dtype=np.int64)
    blob = _read_span(handle, base, entry["dict_data"])
    if blob is None or int(offsets[-1]) != len(blob):
        return None
    size = offsets.size - 1
    dictionary = np.empty(size, dtype=object)
    for index in range(size):
        dictionary[index] = blob[offsets[index]:offsets[index + 1]].decode("utf-8")
    if codes.size and (int(codes.max()) >= size or
                       bool(((codes < 0) != mask).any())):
        return None
    return Column.from_codes(name, codes, dictionary, mask)


def _load_payload(path: str, stamp: Tuple[int, int],
                  expected_rows: Optional[int], delimiter: Optional[str],
                  columns: Optional[Sequence[str]],
                  dtypes: Optional[Dict[str, DType]]
                  ) -> Optional[DataFrame]:
    """Load *columns* (None = all stored) from one chunk file, or None.

    Every validation failure — wrong stamp, wrong row count, a needed
    column absent or stored under a different dtype — returns None so the
    caller falls back to the CSV parse.
    """
    try:
        with open(path, "rb") as handle:
            parsed = _read_header(handle)
            if parsed is None:
                return None
            header, base = parsed
            if tuple(header.get("stamp", ())) != \
                    (int(stamp[0]), int(stamp[1])):
                return None
            n_rows = header.get("n_rows")
            if not isinstance(n_rows, int) or n_rows < 0:
                return None
            if expected_rows is not None and n_rows != expected_rows:
                return None
            if delimiter is not None and \
                    header.get("delimiter") != delimiter:
                return None
            stored = header.get("columns")
            if not isinstance(stored, dict):
                return None
            wanted = list(stored) if columns is None else list(columns)
            built: List[Column] = []
            for name in wanted:
                entry = stored.get(name)
                if not isinstance(entry, dict):
                    return None
                declared = dtypes.get(name) if dtypes else None
                if declared is not None and entry.get("dtype") != \
                        declared.value:
                    return None
                column = _decode_column(path, handle, base, name, entry,
                                        n_rows)
                if column is None:
                    return None
                built.append(column)
            return DataFrame(built)
    except (OSError, KeyError, TypeError, ValueError):
        return None


# --------------------------------------------------------------------------- #
# The public cache operations.
# --------------------------------------------------------------------------- #
def load_chunk(csv_path: str, byte_start: int, byte_stop: int,
               stamp: Tuple[int, int], columns: Sequence[str],
               dtypes: Dict[str, DType], expected_rows: Optional[int],
               route: Sequence[Any],
               delimiter: str = ",") -> Optional[DataFrame]:
    """The parsed chunk for one byte range, or None (= parse the CSV).

    A hit touches the file's atime so the byte-budget eviction is LRU by
    last *read*, not last write.
    """
    resolved = SidecarRoute(*route)
    path = chunk_path(csv_path, resolved, byte_start, byte_stop)
    frame = _load_payload(path, stamp, expected_rows, delimiter, columns,
                          dtypes)
    if frame is None:
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return frame


def store_chunk(csv_path: str, byte_start: int, byte_stop: int,
                stamp: Tuple[int, int], frame: DataFrame,
                route: Sequence[Any], delimiter: str = ",") -> bool:
    """Best-effort spill of one parsed (pre-filter) chunk; never raises.

    An existing chunk file under the same stamp is *merged*: columns it
    holds that *frame* does not (written by a differently-projected scan)
    are carried over, so projections accumulate into one file instead of
    clobbering each other.  Writes always store the pre-filter rows — one
    entry serves filtered, unfiltered and any projection of the chunk.
    """
    resolved = SidecarRoute(*route)
    directory = chunk_dir(csv_path, resolved)
    target = chunk_path(csv_path, resolved, byte_start, byte_stop)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    merged = frame
    existing = _load_payload(target, stamp, len(frame), delimiter, None, None)
    if existing is not None:
        carried = [existing.column(name) for name in existing.columns
                   if name not in set(frame.columns)]
        if carried:
            merged = DataFrame([frame.column(name)
                                for name in frame.columns] + carried)
    try:
        payload = _encode_frame(merged, stamp, len(frame), delimiter)
    except (TypeError, ValueError, OverflowError):
        return False
    if not atomic_replace(target, payload):
        return False
    with _STATS_LOCK:
        _STATS["stores"] += 1
    _evict(directory, resolved.budget_bytes)
    return True


def _evict(directory: str, budget_bytes: int) -> None:
    """Delete least-recently-read chunk files until the budget holds."""
    try:
        names = [name for name in os.listdir(directory)
                 if name.endswith(".bin")]
    except OSError:
        return
    entries: List[Tuple[float, int, str]] = []
    total = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            status = os.stat(path)
        except OSError:
            continue
        entries.append((status.st_atime, status.st_size, path))
        total += status.st_size
    if total <= budget_bytes:
        return
    entries.sort()
    for _, size, path in entries:
        if total <= budget_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size


__all__ = [
    "DEFAULT_DISK_BYTES",
    "MAGIC",
    "SIDECAR_VERSION",
    "SidecarRoute",
    "atomic_replace",
    "chunk_dir",
    "chunk_path",
    "is_sidecar_artifact",
    "load_chunk",
    "record_hit",
    "record_miss",
    "reset_stats",
    "stats_snapshot",
    "store_chunk",
]
