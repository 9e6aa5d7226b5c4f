"""Structural content fingerprints for arrays, Columns and DataFrames.

The cross-call intermediate cache (:mod:`repro.graph.cache`) needs a cheap,
deterministic way to decide that two EDA calls operate on "the same data".
Object identity is not enough — a user who reloads a CSV gets a new frame
with identical content — and full hashing would defeat the purpose on large
data.  The fingerprints here hash the *structure* (shape, dtype, column
names) plus the content, sampling the content above a size threshold:

* arrays up to :data:`FULL_HASH_BYTES` are hashed byte-for-byte;
* larger arrays combine a full-coverage CRC32 (cheap, covers every element,
  so any edit anywhere changes the fingerprint) with a head block, a tail
  block and a strided sample fed to SHA1;
* object arrays (a STRING column's dictionary) are hashed in full, from
  every item's ``repr``.

STRING columns are hashed as stored (int32 codes + the dictionary entries in
use), so fingerprinting never decodes a per-row object array.

Fingerprints are cached on the Column/DataFrame object.  Every public frame
operation returns a *new* object, so a mutated frame naturally gets a fresh
fingerprint; callers that mutate the underlying numpy buffers in place must
call ``invalidate_fingerprint()`` to bump the cached value.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from repro.frame.dtypes import DType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.frame.column import Column
    from repro.frame.frame import DataFrame

#: Arrays up to this many bytes are hashed in full; larger ones are sampled.
FULL_HASH_BYTES = 1 << 20

#: Bytes hashed from the head and from the tail of a large array.
_EDGE_BYTES = 1 << 16

#: Number of strided interior samples taken from a large numeric array.
_STRIDE_SAMPLES = 1024

#: Items of an object array whose ``repr``s are hashed as one block.
_OBJECT_BLOCK_ITEMS = 4096


def fingerprint_array(array: np.ndarray) -> str:
    """Deterministic content fingerprint of a numpy array.

    Small arrays (including the boolean null masks) are hashed exactly;
    large numeric arrays are sampled as described in the module docstring.
    Object arrays (a STRING column's dictionary) are hashed from every
    item's ``repr``.
    """
    hasher = hashlib.sha1()
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    if array.dtype == object:
        _hash_object_array(hasher, array)
    else:
        _hash_numeric_array(hasher, array)
    return hasher.hexdigest()


def _hash_numeric_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    contiguous = np.ascontiguousarray(array)
    if contiguous.nbytes <= FULL_HASH_BYTES:
        hasher.update(contiguous.tobytes())
        return
    # Full-buffer CRC32: an order of magnitude cheaper than SHA1 and enough
    # to guarantee that a single-cell interior edit changes the fingerprint.
    hasher.update(zlib.crc32(contiguous.reshape(-1).view(np.uint8)).to_bytes(4, "big"))
    flat = contiguous.reshape(-1)
    itemsize = max(flat.itemsize, 1)
    edge_items = max(_EDGE_BYTES // itemsize, 1)
    hasher.update(flat[:edge_items].tobytes())
    hasher.update(flat[-edge_items:].tobytes())
    step = max(flat.size // _STRIDE_SAMPLES, 1)
    hasher.update(flat[::step].tobytes())


def _hash_object_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    # Every item's repr, each followed by a NUL, fed in bounded blocks: one
    # pass over the items and one SHA1 update per block, paid once per
    # Column since fingerprints are cached.
    items = array.reshape(-1).tolist()
    for start in range(0, len(items), _OBJECT_BLOCK_ITEMS):
        block = items[start:start + _OBJECT_BLOCK_ITEMS]
        hasher.update(("\x00".join(map(repr, block)) + "\x00").encode())


def fingerprint_column(column: "Column") -> str:
    """Fingerprint of one Column: name, dtype, length, values and null mask.

    A STRING column is hashed as stored — its int32 codes plus the
    dictionary — never through the decoded per-row object array.  Codes are
    first renumbered over the dictionary entries actually used, so a row
    subset that still shares its parent's larger dictionary fingerprints
    equal to a freshly built column of the same values.
    """
    hasher = hashlib.sha1()
    hasher.update(column.name.encode())
    hasher.update(column.dtype.value.encode())
    hasher.update(str(len(column)).encode())
    if column.dtype is DType.STRING:
        codes, dictionary = column.codes, column.dictionary
        used = np.flatnonzero(np.bincount(codes[codes >= 0],
                                          minlength=dictionary.size))
        if used.size != dictionary.size:
            rank = np.full(dictionary.size + 1, -1, dtype=np.int32)
            rank[used] = np.arange(used.size)
            codes = rank[codes]             # code -1 reads the spare last slot
            dictionary = dictionary[used]
        hasher.update(fingerprint_array(codes).encode())
        hasher.update(fingerprint_array(dictionary).encode())
    else:
        hasher.update(fingerprint_array(column.data).encode())
    hasher.update(fingerprint_array(column.mask).encode())
    return hasher.hexdigest()


def fingerprint_file_stamps(stamps: Iterable[Tuple]) -> str:
    """Fingerprint of on-disk inputs from per-file stamp tuples.

    Each stamp is ``(path, size, mtime_ns, *extra)`` where the optional
    extra elements are integers — the CSV scans append a content CRC folded
    from their per-chunk stamps, so even an in-place rewrite that preserves
    both size and mtime_ns (an editor restoring timestamps, or appends
    inside one mtime resolution) still changes the fingerprint.

    File-backed frame sources (:mod:`repro.frame.source`) identify their
    content by these stamps instead of reading the bytes: the fingerprint
    is stable across processes and sessions while every file is unchanged —
    which is what keeps cross-call cache keys warm over re-scans.  The
    order of *stamps* is significant: the same files concatenated in a
    different order are a different logical frame.
    """
    hasher = hashlib.sha1()
    for stamp in stamps:
        path, *numbers = stamp
        hasher.update(str(path).encode())
        hasher.update(b"\x00")
        for number in numbers:
            hasher.update(str(int(number)).encode())
            hasher.update(b"\x00")
    return hasher.hexdigest()


def fingerprint_frame(frame: "DataFrame") -> str:
    """Fingerprint of a DataFrame: shape plus every column's fingerprint."""
    hasher = hashlib.sha1()
    hasher.update(str(frame.shape).encode())
    for name in frame.columns:
        hasher.update(name.encode())
        hasher.update(b"\x00")
        hasher.update(frame.column(name).fingerprint().encode())
    return hasher.hexdigest()
