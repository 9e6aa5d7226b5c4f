"""Semantic type detection used by the Figure 2 mapping rules.

The mapping rules dispatch on whether a column is *Numerical* (N) or
*Categorical* (C).  The storage dtype alone is not enough: an integer column
with three distinct values behaves like a category, and a constant column is
uninteresting for most plots.  This module implements the detection rules.
"""

from __future__ import annotations

import enum

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

#: Leading rows a column's semantic type is decided on, for every call and
#: every source: an in-memory frame's first rows and a scan's preview rows
#: of the same data are the same rows.
SEMANTIC_TYPE_ROWS = 10_000


def detect_semantic_type(column: Column) -> SemanticType:
    """Detect the semantic type of *column* from all of its rows.

    Rules, in order:

    1. A column with at most one distinct present value is CONSTANT.
    2. Datetime storage is DATETIME.
    3. Strings and booleans are CATEGORICAL.
    4. Floats are NUMERICAL.
    5. Integers are CATEGORICAL when their distinct count is at most
       :data:`LOW_CARDINALITY_INT_THRESHOLD`, otherwise NUMERICAL.

    So NUMERICAL implies INT or FLOAT storage.  The EDA tasks do not call
    this: they ask their :class:`~repro.eda.compute.base.ComputeContext`,
    which classifies the first :data:`SEMANTIC_TYPE_ROWS` rows once per
    column per call.
    """
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
        if nunique <= LOW_CARDINALITY_INT_THRESHOLD:
            return SemanticType.CATEGORICAL
        return SemanticType.NUMERICAL
    return SemanticType.CATEGORICAL
