"""Generic synthetic dataset generation.

A :class:`DatasetSpec` describes the shape of a dataset (rows, numerical and
categorical columns, missing rates); :func:`generate_dataset` turns it into a
:class:`~repro.frame.DataFrame` deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import DatasetError
from repro.frame.column import Column
from repro.frame.frame import DataFrame

#: Distribution families supported for numerical columns.
NUMERIC_DISTRIBUTIONS = ("normal", "lognormal", "uniform", "integer", "exponential")

_CATEGORY_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu",
)


@dataclass
class ColumnSpec:
    """Specification of one synthetic column."""

    name: str
    kind: str = "normal"              # one of NUMERIC_DISTRIBUTIONS or "categorical"
    missing_rate: float = 0.0
    cardinality: int = 8              # categorical columns only
    mean: float = 0.0
    std: float = 1.0
    low: float = 0.0
    high: float = 100.0
    skew_categories: bool = True      # Zipf-like category frequencies

    def __post_init__(self) -> None:
        if self.kind != "categorical" and self.kind not in NUMERIC_DISTRIBUTIONS:
            raise DatasetError(f"unknown column kind {self.kind!r}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise DatasetError("missing_rate must be in [0, 1)")
        if self.cardinality <= 0:
            raise DatasetError("cardinality must be positive")


@dataclass
class DatasetSpec:
    """Specification of a whole synthetic dataset."""

    name: str
    n_rows: int
    columns: List[ColumnSpec] = field(default_factory=list)
    seed: int = 0

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def n_numerical(self) -> int:
        """Number of numerical columns."""
        return sum(1 for column in self.columns if column.kind != "categorical")

    @property
    def n_categorical(self) -> int:
        """Number of categorical columns."""
        return sum(1 for column in self.columns if column.kind == "categorical")

    def scaled(self, n_rows: int) -> "DatasetSpec":
        """A copy of this spec with a different row count."""
        return DatasetSpec(name=self.name, n_rows=n_rows, columns=list(self.columns),
                           seed=self.seed)


def mixed_spec(name: str, n_rows: int, n_numerical: int, n_categorical: int,
               missing_rate: float = 0.02, seed: int = 0) -> DatasetSpec:
    """A dataset spec with the requested numerical/categorical split.

    Numerical columns rotate through the supported distribution families and
    categorical columns rotate through a range of cardinalities, so generated
    datasets exercise every code path of the compute module.
    """
    columns: List[ColumnSpec] = []
    for index in range(n_numerical):
        kind = NUMERIC_DISTRIBUTIONS[index % len(NUMERIC_DISTRIBUTIONS)]
        columns.append(ColumnSpec(
            name=f"num_{index}", kind=kind,
            missing_rate=missing_rate if index % 3 == 0 else 0.0,
            mean=float(10 * (index + 1)), std=float(1 + index % 5),
            low=0.0, high=float(100 * (index + 1))))
    for index in range(n_categorical):
        columns.append(ColumnSpec(
            name=f"cat_{index}", kind="categorical",
            missing_rate=missing_rate if index % 2 == 0 else 0.0,
            cardinality=(3, 5, 8, 12, 26, 60)[index % 6]))
    return DatasetSpec(name=name, n_rows=n_rows, columns=columns, seed=seed)


def generate_dataset(spec: DatasetSpec) -> DataFrame:
    """Generate the DataFrame described by *spec* (deterministic per seed)."""
    rng = np.random.default_rng(spec.seed)
    columns = []
    for index, column_spec in enumerate(spec.columns):
        columns.append(_generate_column(column_spec, spec.n_rows, rng))
    if not columns:
        raise DatasetError("dataset spec has no columns")
    return DataFrame(columns)


def _generate_column(spec: ColumnSpec, n_rows: int, rng: np.random.Generator) -> Column:
    if spec.kind == "categorical":
        return _categorical_column(spec, n_rows, rng)
    return _numeric_column(spec, n_rows, rng)


def _numeric_column(spec: ColumnSpec, n_rows: int, rng: np.random.Generator) -> Column:
    if spec.kind == "normal":
        values = rng.normal(spec.mean, max(spec.std, 1e-9), n_rows)
    elif spec.kind == "lognormal":
        values = rng.lognormal(np.log(max(abs(spec.mean), 1.0)),
                               max(spec.std, 1e-9) / 4, n_rows)
    elif spec.kind == "uniform":
        values = rng.uniform(spec.low, max(spec.high, spec.low + 1e-9), n_rows)
    elif spec.kind == "exponential":
        values = rng.exponential(max(abs(spec.mean), 1.0), n_rows)
    elif spec.kind == "integer":
        values = rng.integers(int(spec.low), int(max(spec.high, spec.low + 1)),
                              n_rows).astype(np.float64)
    else:
        raise DatasetError(f"unknown numeric kind {spec.kind!r}")
    if spec.missing_rate > 0:
        missing = rng.random(n_rows) < spec.missing_rate
        values = values.astype(np.float64)
        values[missing] = np.nan
    if spec.kind == "integer" and spec.missing_rate == 0:
        return Column(spec.name, values.astype(np.int64))
    return Column(spec.name, values)


def _categorical_column(spec: ColumnSpec, n_rows: int,
                        rng: np.random.Generator) -> Column:
    categories = _category_labels(spec.cardinality)
    if spec.skew_categories:
        weights = 1.0 / np.arange(1, spec.cardinality + 1)
        probabilities = weights / weights.sum()
    else:
        probabilities = np.full(spec.cardinality, 1.0 / spec.cardinality)
    values = rng.choice(categories, size=n_rows, p=probabilities).astype(object)
    if spec.missing_rate > 0:
        missing = rng.random(n_rows) < spec.missing_rate
        values[missing] = None
    return Column(spec.name, list(values))


def _category_labels(cardinality: int) -> np.ndarray:
    labels = []
    for index in range(cardinality):
        word = _CATEGORY_WORDS[index % len(_CATEGORY_WORDS)]
        suffix = index // len(_CATEGORY_WORDS)
        labels.append(f"{word}{suffix}" if suffix else word)
    return np.asarray(labels, dtype=object)
