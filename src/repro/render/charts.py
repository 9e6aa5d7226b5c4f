"""Chart renderers: turn intermediate data structures into SVG strings.

Each function consumes the plain-python data the Compute module stores in
``Intermediates.items`` and produces a self-contained SVG string.  All
functions take explicit width/height so the layout can size panels uniformly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.render.svg import (
    Canvas,
    PlotArea,
    color_for,
    diverging_color,
    format_tick,
    sequential_color,
)


# --------------------------------------------------------------------------- #
# Basic chart families
# --------------------------------------------------------------------------- #
def render_histogram(data: Dict[str, Any], width: int, height: int,
                     title: str = "Histogram") -> str:
    """Histogram from ``{"counts": [...], "edges": [...]}``."""
    counts = data.get("counts", [])
    edges = data.get("edges", [])
    if not counts or len(edges) != len(counts) + 1:
        return _empty_chart(width, height, title)
    area = PlotArea.create(width, height, (edges[0], edges[-1]),
                           (0, max(max(counts), 1)), title=title)
    area.draw_axes()
    baseline = area.y_scale(0)
    for index, count in enumerate(counts):
        x_left = area.x_scale(edges[index])
        x_right = area.x_scale(edges[index + 1])
        y_top = area.y_scale(count)
        area.canvas.rect(x_left, y_top, max(x_right - x_left - 0.5, 0.5),
                         baseline - y_top, color_for(0), opacity=0.85,
                         tooltip=f"[{format_tick(edges[index])}, "
                                 f"{format_tick(edges[index + 1])}): {count}")
    return area.canvas.to_svg()


def render_bar_chart(data: Dict[str, Any], width: int, height: int,
                     title: str = "Bar Chart", counts_key: str = "counts",
                     categories_key: str = "categories") -> str:
    """Vertical bar chart from category/count lists."""
    categories = [str(value) for value in data.get(categories_key, [])]
    counts = data.get(counts_key, [])
    if not categories or not counts:
        return _empty_chart(width, height, title)
    area = PlotArea.create(width, height, (0, len(categories)),
                           (0, max(max(counts), 1)), title=title)
    area.draw_axes(x_ticks=False)
    area.draw_category_axis(categories)
    baseline = area.y_scale(0)
    for index, count in enumerate(counts):
        left, band_width = area.category_band(index, len(categories))
        y_top = area.y_scale(count)
        area.canvas.rect(left, y_top, band_width, baseline - y_top, color_for(0),
                         opacity=0.85, tooltip=f"{categories[index]}: {count}")
    return area.canvas.to_svg()


def render_grouped_bars(groups: List[Dict[str, Any]], inner: List[str],
                        width: int, height: int, title: str,
                        stacked: bool = False) -> str:
    """Nested (grouped) or stacked bar chart for two categorical columns."""
    if not groups or not inner:
        return _empty_chart(width, height, title)
    if stacked:
        maximum = max((sum(group["counts"]) for group in groups), default=1)
    else:
        maximum = max((max(group["counts"]) for group in groups if group["counts"]),
                      default=1)
    outer_labels = [str(group["category"]) for group in groups]
    area = PlotArea.create(width, height, (0, len(groups)), (0, max(maximum, 1)),
                           title=title)
    area.draw_axes(x_ticks=False)
    area.draw_category_axis(outer_labels)
    baseline = area.y_scale(0)
    for group_index, group in enumerate(groups):
        left, band_width = area.category_band(group_index, len(groups))
        counts = group["counts"]
        if stacked:
            cumulative = 0.0
            for inner_index, count in enumerate(counts):
                y_top = area.y_scale(cumulative + count)
                y_bottom = area.y_scale(cumulative)
                area.canvas.rect(left, y_top, band_width, y_bottom - y_top,
                                 color_for(inner_index), opacity=0.9,
                                 tooltip=f"{group['category']} / {inner[inner_index]}: {count}")
                cumulative += count
        else:
            slot = band_width / max(len(counts), 1)
            for inner_index, count in enumerate(counts):
                y_top = area.y_scale(count)
                area.canvas.rect(left + slot * inner_index, y_top,
                                 max(slot - 1, 1), baseline - y_top,
                                 color_for(inner_index), opacity=0.9,
                                 tooltip=f"{group['category']} / {inner[inner_index]}: {count}")
    _legend(area.canvas, inner, width)
    return area.canvas.to_svg()


def render_line_chart(x_values: Sequence[float], series: Dict[str, Sequence[float]],
                      width: int, height: int, title: str,
                      x_label: str = "", y_label: str = "") -> str:
    """Multi-series line chart."""
    if not x_values or not series:
        return _empty_chart(width, height, title)
    all_values = [value for values in series.values() for value in values
                  if value == value]
    maximum = max(all_values, default=1.0)
    minimum = min(all_values, default=0.0)
    if minimum > 0:
        minimum = 0.0
    area = PlotArea.create(width, height, (min(x_values), max(x_values)),
                           (minimum, max(maximum, 1e-9)), title=title,
                           x_label=x_label, y_label=y_label)
    area.draw_axes()
    for index, (name, values) in enumerate(series.items()):
        points = [(area.x_scale(x), area.y_scale(y))
                  for x, y in zip(x_values, values) if y == y]
        area.canvas.polyline(points, color_for(index))
    _legend(area.canvas, list(series.keys()), width)
    return area.canvas.to_svg()


def render_scatter(data: Dict[str, Any], width: int, height: int,
                   title: str = "Scatter Plot",
                   regression: bool = False) -> str:
    """Scatter plot, optionally with a least-squares regression line."""
    xs, ys = _finite_points(data.get("x", []), data.get("y", []))
    if not xs.size:
        return _empty_chart(width, height, title)
    x0, x1 = float(xs.min()), float(xs.max())
    area = PlotArea.create(width, height, (x0, x1),
                           (float(ys.min()), float(ys.max())), title=title,
                           x_label=data.get("x_label", ""),
                           y_label=data.get("y_label", ""))
    area.draw_axes()
    area.canvas.circles(area.x_scale(xs), area.y_scale(ys), 2.2, color_for(0),
                        opacity=0.5)
    if regression and "slope" in data:
        slope, intercept = data["slope"], data["intercept"]
        area.canvas.line(area.x_scale(x0), area.y_scale(slope * x0 + intercept),
                         area.x_scale(x1), area.y_scale(slope * x1 + intercept),
                         color_for(3), width=2.0)
    return area.canvas.to_svg()


def _finite_points(xs: Sequence[Any], ys: Sequence[Any]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The points of *xs*, *ys* finite in both coordinates (``None`` reads as
    NaN), as float arrays: a scatter's axis domain and marks both use them."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def render_qq_plot(data: Dict[str, Any], width: int, height: int,
                   title: str = "Normal Q-Q Plot") -> str:
    """Normal Q-Q plot with the identity reference line."""
    xs, ys = _finite_points(data.get("theoretical", []), data.get("sample", []))
    if not xs.size:
        return _empty_chart(width, height, title)
    low = float(min(xs.min(), ys.min()))
    high = float(max(xs.max(), ys.max()))
    area = PlotArea.create(width, height, (low, high), (low, high), title=title,
                           x_label="theoretical quantiles",
                           y_label="sample quantiles")
    area.draw_axes()
    area.canvas.line(area.x_scale(low), area.y_scale(low), area.x_scale(high),
                     area.y_scale(high), "#999999", dash="4,3")
    area.canvas.circles(area.x_scale(xs), area.y_scale(ys), 2.2, color_for(0),
                        opacity=0.7)
    return area.canvas.to_svg()


def render_box_plots(boxes: List[Dict[str, Any]], width: int, height: int,
                     title: str = "Box Plot", label_key: str = "category") -> str:
    """One or more box-and-whisker glyphs side by side."""
    if not boxes:
        return _empty_chart(width, height, title)
    lows = [box.get("lower_whisker", box.get("min", 0.0)) for box in boxes]
    highs = [box.get("upper_whisker", box.get("max", 1.0)) for box in boxes]
    area = PlotArea.create(width, height, (0, len(boxes)),
                           (min(lows), max(max(highs), min(lows) + 1e-9)),
                           title=title)
    area.draw_axes(x_ticks=False)
    labels = [str(box.get(label_key, box.get("label", index)))
              for index, box in enumerate(boxes)]
    area.draw_category_axis(labels)
    for index, box in enumerate(boxes):
        left, band_width = area.category_band(index, len(boxes), padding=0.25)
        center = left + band_width / 2
        q1 = area.y_scale(box["q1"])
        q3 = area.y_scale(box["q3"])
        median = area.y_scale(box["median"])
        lower = area.y_scale(box.get("lower_whisker", box.get("min", box["q1"])))
        upper = area.y_scale(box.get("upper_whisker", box.get("max", box["q3"])))
        color = color_for(index)
        area.canvas.line(center, lower, center, q1, "#555555")
        area.canvas.line(center, q3, center, upper, "#555555")
        area.canvas.line(center - band_width / 4, lower, center + band_width / 4,
                         lower, "#555555")
        area.canvas.line(center - band_width / 4, upper, center + band_width / 4,
                         upper, "#555555")
        area.canvas.rect(left, q3, band_width, q1 - q3, color, opacity=0.7,
                         tooltip=f"{labels[index]}: median {format_tick(box['median'])}")
        area.canvas.line(left, median, left + band_width, median, "#222222", width=2)
        outliers = np.asarray(box.get("outlier_samples", [])[:50],
                              dtype=np.float64)
        area.canvas.circles(np.full(outliers.size, center),
                            area.y_scale(outliers), 1.8, "#d62728", opacity=0.7)
    return area.canvas.to_svg()


def render_heat_map(matrix: List[List[float]], x_categories: Sequence[str],
                    y_categories: Sequence[str], width: int, height: int,
                    title: str, diverging: bool = False) -> str:
    """Heat map of a dense matrix; diverging palette for correlations."""
    if not matrix or not x_categories or not y_categories:
        return _empty_chart(width, height, title)
    flat = [value for row in matrix for value in row
            if value is not None and value == value]
    maximum = max((abs(value) for value in flat), default=1.0) or 1.0
    area = PlotArea.create(width, height, (0, len(x_categories)),
                           (0, len(y_categories)), title=title)
    area.draw_category_axis([str(c) for c in x_categories])
    n_rows = len(y_categories)
    cell_height = (area.y_scale.start - area.y_scale.stop) / n_rows
    for row_index, row_name in enumerate(y_categories):
        y_top = area.y_scale.stop + row_index * cell_height
        area.canvas.text(area.x_scale.start - 6, y_top + cell_height / 2 + 3,
                         str(row_name)[:12], size=9, anchor="end")
        for col_index in range(len(x_categories)):
            value = matrix[row_index][col_index] if row_index < len(matrix) and \
                col_index < len(matrix[row_index]) else None
            left, band_width = area.category_band(col_index, len(x_categories),
                                                  padding=0.02)
            if value is None or value != value:
                fill = "#eeeeee"
                label = "n/a"
            elif diverging:
                fill = diverging_color(value / maximum if maximum else 0.0)
                label = f"{value:.2f}"
            else:
                fill = sequential_color(value / maximum if maximum else 0.0)
                label = format_tick(value)
            area.canvas.rect(left, y_top + 1, band_width, cell_height - 2, fill,
                             tooltip=f"{y_categories[row_index]} x "
                                     f"{x_categories[col_index]}: {label}")
    return area.canvas.to_svg()


def render_pie_chart(data: Dict[str, Any], width: int, height: int,
                     title: str = "Pie Chart") -> str:
    """Pie chart from label/count lists."""
    labels = data.get("labels", [])
    counts = data.get("counts", [])
    total = sum(counts)
    if not labels or total <= 0:
        return _empty_chart(width, height, title)
    canvas = Canvas(width, height)
    canvas.text(width / 2, 16, title, size=13, bold=True)
    center_x, center_y = width * 0.4, height / 2 + 10
    radius = min(width, height) / 2 - 40
    angle = -math.pi / 2
    for index, (label, count) in enumerate(zip(labels, counts)):
        fraction = count / total
        sweep = fraction * 2 * math.pi
        end = angle + sweep
        large_arc = 1 if sweep > math.pi else 0
        x1 = center_x + radius * math.cos(angle)
        y1 = center_y + radius * math.sin(angle)
        x2 = center_x + radius * math.cos(end)
        y2 = center_y + radius * math.sin(end)
        canvas.elements.append(
            f'<path d="M {center_x:.2f} {center_y:.2f} L {x1:.2f} {y1:.2f} '
            f'A {radius:.2f} {radius:.2f} 0 {large_arc} 1 {x2:.2f} {y2:.2f} Z" '
            f'fill="{color_for(index)}" fill-opacity="0.9">'
            f'<title>{_escape(label)}: {count} ({fraction:.1%})</title></path>')
        angle = end
    _legend(canvas, [f"{label} ({count / total:.0%})"
                     for label, count in zip(labels, counts)], width)
    return canvas.to_svg()


def render_dendrogram(labels: Sequence[str], linkage: List[Dict[str, Any]],
                      width: int, height: int,
                      title: str = "Nullity Dendrogram") -> str:
    """Dendrogram from hierarchical-clustering linkage steps."""
    if not labels:
        return _empty_chart(width, height, title)
    canvas = Canvas(width, height)
    canvas.text(width / 2, 16, title, size=13, bold=True)
    margin_left, margin_right, margin_top, margin_bottom = 90, 20, 30, 16
    n_leaves = len(labels)
    leaf_positions: Dict[int, Tuple[float, float]] = {}
    usable_height = height - margin_top - margin_bottom
    for index, label in enumerate(labels):
        y = margin_top + usable_height * (index + 0.5) / n_leaves
        leaf_positions[index] = (margin_left, y)
        canvas.text(margin_left - 6, y + 3, str(label)[:14], size=9, anchor="end")
    if not linkage:
        return canvas.to_svg()
    max_distance = max((node["distance"] for node in linkage), default=1.0) or 1.0
    x_span = width - margin_left - margin_right
    positions = dict(leaf_positions)
    for step, node in enumerate(linkage):
        left = positions[node["left"]]
        right = positions[node["right"]]
        x = margin_left + (node["distance"] / max_distance) * x_span
        canvas.line(left[0], left[1], x, left[1], "#1f77b4")
        canvas.line(right[0], right[1], x, right[1], "#1f77b4")
        canvas.line(x, left[1], x, right[1], "#1f77b4")
        positions[n_leaves + step] = (x, (left[1] + right[1]) / 2)
    return canvas.to_svg()


def render_stats_table(stats: Dict[str, Any], width: int, height: int,
                       title: str = "Statistics",
                       highlights: Optional[Dict[str, str]] = None) -> str:
    """Two-column key/value statistics table rendered as HTML."""
    highlights = highlights or {}
    rows = []
    for key, value in stats.items():
        css = ' class="insight-row"' if key in highlights else ""
        hint = f' title="{highlights[key]}"' if key in highlights else ""
        rows.append(f"<tr{css}{hint}><td>{_escape(key)}</td>"
                    f"<td>{_escape(_format_value(value))}</td></tr>")
    body = "\n".join(rows)
    return (f'<div class="stats-table" style="max-height:{height}px">'
            f"<h4>{_escape(title)}</h4>"
            f"<table>{body}</table></div>")


def render_missing_spectrum(data: Dict[str, Any], width: int, height: int,
                            title: str = "Missing Spectrum") -> str:
    """Missing spectrum: per-column missing density along row order."""
    columns = data.get("columns", [])
    densities = data.get("densities", [])
    if not columns or not densities:
        return _empty_chart(width, height, title)
    x_values = list(range(len(densities)))
    series = {str(column): [row[index] for row in densities]
              for index, column in enumerate(columns)}
    return render_line_chart(x_values, series, width, height, title,
                             x_label="row block", y_label="missing fraction")


def render_word_cloud(data: Dict[str, Any], width: int, height: int,
                      title: str = "Word Cloud") -> str:
    """Deterministic word-cloud-like layout (size encodes weight)."""
    words = data.get("words", [])
    weights = data.get("weights", [])
    if not words:
        return _empty_chart(width, height, title)
    canvas = Canvas(width, height)
    canvas.text(width / 2, 16, title, size=13, bold=True)
    columns = 3
    for index, (word, weight) in enumerate(zip(words, weights)):
        row, column = divmod(index, columns)
        x = width * (column + 0.5) / columns
        y = 44 + row * 34
        if y > height - 10:
            break
        canvas.text(x, y, word, size=int(10 + 16 * weight),
                    color=color_for(index), bold=weight > 0.66)
    return canvas.to_svg()


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _legend(canvas: Canvas, labels: Sequence[str], width: int) -> None:
    x = width - 14
    for index, label in enumerate(labels[:8]):
        y = 30 + index * 14
        canvas.rect(x - 8, y - 8, 8, 8, color_for(index))
        canvas.text(x - 12, y, str(label)[:18], size=9, anchor="end")


def _empty_chart(width: int, height: int, title: str) -> str:
    canvas = Canvas(width, height)
    canvas.text(width / 2, 16, title, size=13, bold=True)
    canvas.text(width / 2, height / 2, "no data to display", size=11,
                color="#999999")
    return canvas.to_svg()


def _format_value(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, (list, tuple)):
        return ", ".join(str(item) for item in value)
    return str(value)


def _escape(text: Any) -> str:
    import html as html_module
    return html_module.escape(str(text))
