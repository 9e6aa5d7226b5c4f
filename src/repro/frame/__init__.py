"""Columnar DataFrame substrate.

The execution environment for this reproduction does not ship pandas, so the
package provides a small, self-contained columnar DataFrame built on numpy:

* :class:`~repro.frame.column.Column` — a typed 1-D array with a null mask.
* :class:`~repro.frame.frame.DataFrame` — an ordered collection of equal
  length columns with selection, filtering and summary operations.
* :func:`~repro.frame.io.read_csv` / :func:`~repro.frame.io.write_csv` — CSV
  input/output with dtype inference.
* :mod:`~repro.frame.fingerprint` — structural content fingerprints
  (shape, column names/dtypes, sampled content hash) that let the
  cross-call intermediate cache (:mod:`repro.graph.cache`) recognise "the
  same data" across separate EDA calls.
* :mod:`~repro.frame.source` — the :class:`~repro.frame.source.FrameSource`
  protocol unifying in-memory frames, single CSV scans and multi-file CSV
  datasets behind one partitioned, capability-declaring input contract.

The EDA layer (``repro.eda``) and the lazy execution engine (``repro.graph``)
are written against this substrate only.
"""

from repro.frame.dtypes import DType, infer_dtype
from repro.frame.column import Column
from repro.frame.fingerprint import fingerprint_array, fingerprint_column, fingerprint_frame
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.io import (
    CsvSource,
    read_csv,
    scan_csv,
    write_csv,
)
from repro.frame.predicate import (
    ColumnExpr,
    Conjunct,
    Predicate,
    compile_predicate,
)
from repro.frame.source import (
    FilteredSource,
    FrameSource,
    InMemorySource,
    SourceCapabilities,
    SourcePartition,
    as_source,
    refresh_input,
)
from repro.frame.zonemap import (
    ZoneMap,
    load_zone_entries,
    save_zone_entries,
    zone_map_from_stats,
)

__all__ = [
    "Column",
    "ColumnExpr",
    "Conjunct",
    "CsvSource",
    "DataFrame",
    "DType",
    "FilteredSource",
    "FrameSource",
    "InMemorySource",
    "Predicate",
    "SourceCapabilities",
    "SourcePartition",
    "ZoneMap",
    "as_source",
    "compile_predicate",
    "load_zone_entries",
    "refresh_input",
    "save_zone_entries",
    "zone_map_from_stats",
    "concat_rows",
    "fingerprint_array",
    "fingerprint_column",
    "fingerprint_frame",
    "infer_dtype",
    "read_csv",
    "scan_csv",
    "write_csv",
]
