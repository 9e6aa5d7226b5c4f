"""An eager whole-dataset profiler (the Pandas-profiling stand-in).

The real Pandas-profiling is not available in this environment, so Table 2
and Figure 6(b) compare against this reimplementation.  It reproduces the
baseline's *cost structure* rather than its exact code:

* it always profiles every column and every section — there is no way to ask
  for a subset (the paper's "coarse-grained API" critique);
* every visualization recomputes what it needs from the raw column — value
  counts, minima/maxima, quantiles and histograms are not shared between the
  statistics table, the histogram and the common/extreme value tables;
* the Interactions section renders a scatter for every pair of numerical
  columns from the full data;
* the Correlations section computes Pearson, Spearman and Kendall tau on the
  full dataset (DataPrep.EDA samples Kendall), each with its own pass, and
  Kendall's tau — like Pandas' ``DataFrame.corr("kendall")`` — with one
  ``scipy.stats.kendalltau`` call per column pair, not the library's batched
  kernel, so the baseline stays as slow as the tool it models;
* everything runs eagerly on a single thread — no task graph, no sharing, no
  parallelism.

This mirrors how Pandas-profiling derives a report and is the honest
competitor for the benchmarks: the gap measured against
:func:`repro.report.create_report` comes from redundant work and missing
parallelism, not from artificial sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
from scipy.stats import kendalltau

from repro.errors import EDAError
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.stats.association import missing_spectrum, nullity_correlation, nullity_dendrogram
from repro.stats.correlation import pearson_matrix, spearman_matrix
from repro.stats.histogram import compute_histogram


@dataclass
class EagerProfileReport:
    """The result of :func:`eager_profile_report`."""

    title: str
    overview: Dict[str, Any]
    variables: Dict[str, Dict[str, Any]]
    interactions: Dict[str, Any]
    correlations: Dict[str, Any]
    missing: Dict[str, Any]
    timings: Dict[str, float] = field(default_factory=dict)
    html: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds spent building the report."""
        return sum(self.timings.values())

    @property
    def section_names(self) -> List[str]:
        """The five report sections, mirroring the baseline's layout."""
        return ["Overview", "Variables", "Interactions", "Correlations",
                "Missing Values"]

    def __repr__(self) -> str:
        return (f"EagerProfileReport(title={self.title!r}, "
                f"columns={len(self.variables)}, seconds={self.total_seconds:.2f})")


def eager_profile_report(df: DataFrame, title: str = "Profile Report",
                         histogram_bins: int = 50,
                         kendall_max_rows: Optional[int] = None,
                         render: bool = False) -> EagerProfileReport:
    """Profile *df* eagerly, one section and one visualization at a time.

    *kendall_max_rows* caps the rows used for Kendall's tau (None = use all
    rows, like the real baseline).  The cap exists so very large benchmark
    datasets do not dominate total runtime; Table 2-scale data uses all rows.

    With ``render=True`` the report is also rendered to HTML — the baseline
    always produces the full rendered report, so the Table 2 benchmark passes
    ``render=True`` to compare end-to-end report generation for both tools.
    """
    if not isinstance(df, DataFrame):
        raise EDAError("eager_profile_report expects a repro.frame.DataFrame")
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    overview = _overview_section(df)
    timings["overview"] = time.perf_counter() - started

    started = time.perf_counter()
    variables = {name: _variable_section(df.column(name), histogram_bins)
                 for name in df.columns}
    timings["variables"] = time.perf_counter() - started

    started = time.perf_counter()
    interactions = _interactions_section(df)
    timings["interactions"] = time.perf_counter() - started

    started = time.perf_counter()
    correlations = _correlations_section(df, kendall_max_rows)
    timings["correlations"] = time.perf_counter() - started

    started = time.perf_counter()
    missing = _missing_section(df)
    timings["missing"] = time.perf_counter() - started

    report = EagerProfileReport(title=title, overview=overview, variables=variables,
                                interactions=interactions, correlations=correlations,
                                missing=missing, timings=timings)
    if render:
        started = time.perf_counter()
        report.html = _render_report(report)
        report.timings["render"] = time.perf_counter() - started
    return report


def _render_report(report: EagerProfileReport, width: int = 640,
                   height: int = 360) -> str:
    """Render every section of the eager report to HTML, one chart at a time.

    The baseline renders everything it computed: a statistics table and chart
    per column, one scatter per numerical pair, three correlation heat maps
    and the four missing-value charts.  Nothing is shared or parallelised.
    """
    from repro.render.charts import (
        render_bar_chart,
        render_heat_map,
        render_histogram,
        render_scatter,
        render_stats_table,
    )

    parts: List[str] = [f"<h1>{report.title}</h1>"]
    parts.append(render_stats_table(report.overview, width, height,
                                    title="Dataset statistics"))
    for column, section in report.variables.items():
        parts.append(render_stats_table(section["stats"], width, height,
                                        title=f"Statistics of {column}"))
        if "histogram" in section:
            parts.append(render_histogram(section["histogram"], width, height,
                                          title=f"Histogram of {column}"))
        if "common_values" in section:
            common = section["common_values"]
            parts.append(render_bar_chart(
                {"categories": [str(value) for value, _ in common],
                 "counts": [count for _, count in common]},
                width, height, title=f"Common values of {column}"))
    for pair, data in report.interactions.items():
        parts.append(render_scatter(data, width, height,
                                    title=f"Interaction: {pair}"))
    if report.correlations:
        columns = report.correlations["columns"]
        for method in ("pearson", "spearman", "kendall"):
            parts.append(render_heat_map(report.correlations[method], columns,
                                         columns, width, height,
                                         title=f"{method.title()} correlation",
                                         diverging=True))
    missing = report.missing
    if missing.get("counts"):
        parts.append(render_bar_chart(
            {"categories": list(missing["counts"].keys()),
             "counts": list(missing["counts"].values())},
            width, height, title="Missing values per column"))
    if missing.get("correlation") and missing["correlation"]["columns"]:
        parts.append(render_heat_map(
            missing["correlation"]["matrix"], missing["correlation"]["columns"],
            missing["correlation"]["columns"], width, height,
            title="Nullity correlation", diverging=True))
    return "\n".join(parts)


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
def _overview_section(df: DataFrame) -> Dict[str, Any]:
    missing_cells = sum(df.column(name).missing_count() for name in df.columns)
    numeric = df.numeric_columns()
    return {
        "n_rows": len(df),
        "n_columns": df.n_columns,
        "n_numerical": len(numeric),
        "n_categorical": df.n_columns - len(numeric),
        "missing_cells": missing_cells,
        "missing_cells_rate": missing_cells / max(len(df) * df.n_columns, 1),
        "duplicate_rows": df.duplicate_row_count(),
        "memory_bytes": df.memory_bytes(),
    }


def _variable_section(column: Column, histogram_bins: int) -> Dict[str, Any]:
    """Profile one column the way the baseline does: each block on its own.

    Note how the minimum/maximum, quantiles and value counts are recomputed
    by the blocks that need them instead of being shared — this is the
    redundant work the paper's Compute module eliminates.
    """
    section: Dict[str, Any] = {"dtype": column.dtype.value}
    section["stats"] = column.describe()

    if column.dtype.is_numeric:
        values = column.to_numpy(drop_missing=True).astype(np.float64)
        # Histogram block: rescans for min/max.
        if values.size:
            low, high = float(values.min()), float(values.max())
            histogram = compute_histogram(values, histogram_bins, (low, high))
            section["histogram"] = {"counts": histogram.counts.tolist(),
                                    "edges": histogram.edges.tolist()}
        # Quantile block: recomputes quantiles from the raw values.
        section["quantiles"] = {
            str(probability): float(np.quantile(values, probability))
            for probability in (0.05, 0.25, 0.5, 0.75, 0.95)
        } if values.size else {}
        # Extreme values block: two full sorts.
        if values.size:
            section["minimum_values"] = np.sort(values)[:10].tolist()
            section["maximum_values"] = np.sort(values)[-10:][::-1].tolist()
        # Common values block: a full value-count pass.
        section["common_values"] = column.value_counts()[:10]
    else:
        # Common values / length blocks each re-walk the raw values.
        section["common_values"] = column.value_counts()[:10]
        lengths = [len(str(value)) for value in column.dropna().to_list()]
        section["length_stats"] = {
            "mean_length": float(np.mean(lengths)) if lengths else float("nan"),
            "min_length": int(np.min(lengths)) if lengths else 0,
            "max_length": int(np.max(lengths)) if lengths else 0,
        }
        section["first_rows"] = [str(value) for value in column.head(5).to_list()]
    return section


def _interactions_section(df: DataFrame) -> Dict[str, Any]:
    """A scatter for every pair of numerical columns, from the full data."""
    numeric = df.numeric_columns()
    interactions: Dict[str, Any] = {}
    for index, first in enumerate(numeric):
        x_column = df.column(first)
        for second in numeric[index + 1:]:
            y_column = df.column(second)
            keep = x_column.notna() & y_column.notna()
            x = x_column.filter(keep).to_numpy().astype(np.float64)
            y = y_column.filter(keep).to_numpy().astype(np.float64)
            # The baseline renders up to 10k points per pair.
            if x.size > 10_000:
                x, y = x[:10_000], y[:10_000]
            interactions[f"{first} x {second}"] = {
                "x": x.tolist(), "y": y.tolist(),
                "x_label": first, "y_label": second,
            }
    return interactions


def _correlations_section(df: DataFrame,
                          kendall_max_rows: Optional[int]) -> Dict[str, Any]:
    """Pearson, Spearman and Kendall matrices, each from its own pass."""
    numeric = df.numeric_columns()
    if len(numeric) < 2:
        return {}
    matrix = _dense_matrix(df, numeric)
    correlations = {
        "columns": numeric,
        "pearson": pearson_matrix(matrix).tolist(),
        "spearman": spearman_matrix(matrix).tolist(),
    }
    kendall_input = matrix
    if kendall_max_rows is not None and matrix.shape[0] > kendall_max_rows:
        kendall_input = matrix[:kendall_max_rows]
    correlations["kendall"] = _pairwise_kendall(kendall_input).tolist()
    return correlations


def _pairwise_kendall(matrix: np.ndarray) -> np.ndarray:
    """Kendall's tau-b as ``DataFrame.corr("kendall")`` gets it: one
    ``scipy.stats.kendalltau`` per pair, on its jointly finite rows."""
    result = np.eye(matrix.shape[1])
    for i, j in zip(*np.triu_indices(matrix.shape[1], 1)):
        both = np.isfinite(matrix[:, i]) & np.isfinite(matrix[:, j])
        result[i, j] = result[j, i] = (
            kendalltau(matrix[both, i], matrix[both, j])[0]
            if both.sum() >= 2 else np.nan)
    return result


def _missing_section(df: DataFrame) -> Dict[str, Any]:
    mask = df.missing_mask()
    columns = df.columns
    if not mask.size:
        return {"counts": {}, "spectrum": None, "correlation": None,
                "dendrogram": None}
    spectrum = missing_spectrum(mask, columns)
    kept, matrix = nullity_correlation(mask, columns)
    labels, linkage = nullity_dendrogram(mask, columns)
    return {
        "counts": {name: int(mask[:, index].sum())
                   for index, name in enumerate(columns)},
        "spectrum": {"columns": spectrum.columns,
                     "densities": spectrum.densities.tolist()},
        "correlation": {"columns": kept, "matrix": matrix.tolist()},
        "dendrogram": {"labels": labels,
                       "steps": [{"left": node.left, "right": node.right,
                                  "distance": node.distance, "size": node.size}
                                 for node in linkage]},
    }


def _dense_matrix(df: DataFrame, columns: List[str]) -> np.ndarray:
    arrays = []
    for name in columns:
        column = df.column(name)
        values = column.to_numpy(drop_missing=False).astype(np.float64)
        values[column.isna()] = np.nan
        arrays.append(values)
    return np.column_stack(arrays)
