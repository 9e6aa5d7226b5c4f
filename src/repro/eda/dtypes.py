"""Semantic type detection used by the Figure 2 mapping rules.

The mapping rules dispatch on whether a column is *Numerical* (N) or
*Categorical* (C).  The storage dtype alone is not enough: an integer column
with three distinct values behaves like a category, and a constant column is
uninteresting for most plots.  This module implements the detection rules.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.frame.column import Column
from repro.frame.dtypes import DType


class SemanticType(enum.Enum):
    """Semantic (analysis-level) type of a column."""

    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"
    CONSTANT = "constant"

    @property
    def short(self) -> str:
        """Single-letter code used in the Figure 2 mapping table (N/C/D/K)."""
        return {"numerical": "N", "categorical": "C",
                "datetime": "D", "constant": "K"}[self.value]


#: Integer columns with at most this many distinct values are treated as
#: categorical (e.g. a 0/1 encoded flag or a 1-5 rating).
LOW_CARDINALITY_INT_THRESHOLD = 10


def detect_semantic_type(column: Column,
                         low_cardinality_threshold: int = LOW_CARDINALITY_INT_THRESHOLD,
                         nunique: Optional[int] = None) -> SemanticType:
    """Detect the semantic type of a column.

    Rules, in order:

    1. A column with at most one distinct present value is CONSTANT.
    2. Datetime storage is DATETIME.
    3. Strings and booleans are CATEGORICAL.
    4. Floats are NUMERICAL.
    5. Integers are CATEGORICAL when their distinct count is at most
       *low_cardinality_threshold*, otherwise NUMERICAL.

    *nunique* can be passed when the caller has already computed the distinct
    count (the compute module shares it), avoiding a second pass.
    """
    if nunique is None:
        nunique = column.nunique()
    if nunique <= 1:
        return SemanticType.CONSTANT
    if column.dtype is DType.DATETIME:
        return SemanticType.DATETIME
    if column.dtype in (DType.STRING, DType.BOOL):
        return SemanticType.CATEGORICAL
    if column.dtype is DType.FLOAT:
        return SemanticType.NUMERICAL
    if column.dtype is DType.INT:
        if nunique <= low_cardinality_threshold:
            return SemanticType.CATEGORICAL
        return SemanticType.NUMERICAL
    return SemanticType.CATEGORICAL


def detect_frame_types(frame, sample_rows: int = 10_000,
                       low_cardinality_threshold: int = LOW_CARDINALITY_INT_THRESHOLD
                       ) -> dict:
    """Semantic type of every column in a DataFrame.

    Detection runs on a row prefix (at most *sample_rows* rows) so it stays
    cheap even for very large frames; the EDA compute functions call this
    before deciding which mapping rule of Figure 2 applies.
    """
    preview = frame.head(sample_rows) if len(frame) > sample_rows else frame
    types = {}
    for name in frame.columns:
        types[name] = detect_semantic_type(
            preview.column(name),
            low_cardinality_threshold=low_cardinality_threshold)
    return types
