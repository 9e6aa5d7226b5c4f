"""Harness-owned seeded inputs: typed columns, CSV text, file digests.

Built on ``numpy`` and ``csv`` alone — never ``repro.datasets`` or
``repro.write_csv`` — so a change under ``src/`` cannot alter what the
benchmark feeds the program.  The seed is the only input: the same
``(seed, n_rows, row_offset, stream)`` always yields the same columns and
therefore byte-identical files.

Shared schema (15 columns): a monotone float ``ts``; eight numerics
``num_0..num_7`` cycling the five distribution families, with 2 % missing on
every third; three Zipf-skewed low-cardinality strings ``cat_0..cat_2``
(3 / 12 / 60 values); one high-cardinality string ``id`` (~5 k values); one
ISO-8601 datetime ``when``.
"""

from __future__ import annotations

import csv
import hashlib
import io
from typing import Dict, List

import numpy as np

NUMERIC_FAMILIES = ("normal", "lognormal", "uniform", "integer", "exponential")
N_NUMERIC = 8
CAT_CARDINALITIES = (3, 12, 60)
ID_CARDINALITY = 5000
MISSING_RATE = 0.02
_EPOCH = np.datetime64("2021-01-01T00:00:00", "s")


def generate_columns(seed: int, n_rows: int, row_offset: int = 0,
                     stream: int = 0) -> Dict[str, np.ndarray]:
    """Typed columns for rows ``[row_offset, row_offset + n_rows)``.

    *stream* separates independent draws under one seed (file index of a
    multi-file workload, iteration of an appended tail).  ``ts`` depends on
    the row position only, so a tail generated at ``row_offset = base rows``
    continues the base file's monotone order.
    """
    rng = np.random.default_rng([int(seed), int(stream), int(row_offset)])
    rows = np.arange(row_offset, row_offset + n_rows, dtype=np.float64)
    columns: Dict[str, np.ndarray] = {
        "ts": np.round(rows + rng.uniform(0.0, 0.9, n_rows), 3)}
    for index in range(N_NUMERIC):
        family = NUMERIC_FAMILIES[index % len(NUMERIC_FAMILIES)]
        scale = float(index + 1)
        if family == "normal":
            values = rng.normal(10.0 * scale, scale, n_rows)
        elif family == "lognormal":
            values = rng.lognormal(np.log(10.0 * scale), 0.5, n_rows)
        elif family == "uniform":
            values = rng.uniform(0.0, 100.0 * scale, n_rows)
        elif family == "integer":
            values = rng.integers(0, 1000 * int(scale), n_rows).astype(np.float64)
        else:
            values = rng.exponential(10.0 * scale, n_rows)
        values = np.round(values, 4)
        if index % 3 == 0:
            values[rng.random(n_rows) < MISSING_RATE] = np.nan
        columns[f"num_{index}"] = values
    for index, cardinality in enumerate(CAT_CARDINALITIES):
        columns[f"cat_{index}"] = _zipf_labels(rng, n_rows, cardinality,
                                               f"c{index}v")
    columns["id"] = _zipf_labels(rng, n_rows, ID_CARDINALITY, "id", skew=0.3)
    columns["when"] = _EPOCH + (rows * 60).astype("timedelta64[s]")
    return columns


def _zipf_labels(rng: np.random.Generator, n_rows: int, cardinality: int,
                 prefix: str, skew: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, cardinality + 1) ** skew
    picks = rng.choice(cardinality, size=n_rows, p=weights / weights.sum())
    labels = np.array([f"{prefix}{value:04d}" for value in range(cardinality)],
                      dtype=object)
    return labels[picks]


def _cells(values: np.ndarray) -> List[object]:
    """One column as the python objects ``csv.writer`` formats.

    Floats go through ``repr`` (shortest round-trip text of the rounded
    value), NaN becomes an empty cell, datetimes their ISO-8601 text.
    """
    if values.dtype.kind == "M":
        return values.astype(str).tolist()
    if values.dtype.kind == "f":
        cells = values.tolist()
        for index in np.flatnonzero(np.isnan(values)).tolist():
            cells[index] = None
        return cells
    return values.tolist()


def csv_text(columns: Dict[str, np.ndarray], header: bool = False) -> bytes:
    """*columns* as RFC 4180 CSV bytes (header-less: an appended tail)."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    if header:
        writer.writerow(list(columns))
    writer.writerows(zip(*(_cells(values) for values in columns.values())))
    return buffer.getvalue().encode("utf-8")


def write_csv(path: str, columns: Dict[str, np.ndarray]) -> None:
    """Write *columns*, with a header row, to *path*."""
    with open(path, "wb") as handle:
        handle.write(csv_text(columns, header=True))


def sha256_file(path: str) -> str:
    """Hex SHA-256 of a generated file, recorded in the result header."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_columns(columns: Dict[str, np.ndarray]) -> str:
    """Hex SHA-256 of in-memory columns (the workload without a file)."""
    digest = hashlib.sha256()
    for name, values in columns.items():
        digest.update(name.encode("utf-8"))
        if values.dtype == object:
            digest.update("\x1f".join(values.tolist()).encode("utf-8"))
        else:
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()
