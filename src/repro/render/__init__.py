"""The Render module (component 3 of the paper's back-end, Figure 3).

``render_intermediates`` converts the Compute module's
:class:`~repro.eda.intermediates.Intermediates` into a
:class:`~repro.render.layout.Container`: one tab per visualization, each with
its insight badge and how-to guide.  The mapping from intermediate item names
to chart renderers lives here so the Compute module stays free of any
presentation concerns.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from repro.eda.config import Config
from repro.eda.howto import how_to_guide
from repro.eda.intermediates import Intermediates
from repro.render import charts
from repro.render.layout import Container, Panel
from repro.render.svg import color_for

__all__ = ["Container", "Panel", "render_intermediates"]

#: Display titles per intermediate item name.
_TITLES = {
    "stats": "Stats",
    "overview": "Overview",
    "variables": "Variables",
    "histogram": "Histogram",
    "kde_plot": "KDE Plot",
    "qq_plot": "Normal Q-Q Plot",
    "box_plot": "Box Plot",
    "bar_chart": "Bar Chart",
    "pie_chart": "Pie Chart",
    "word_frequencies": "Word Frequencies",
    "word_cloud": "Word Cloud",
    "scatter_plot": "Scatter Plot",
    "hexbin_plot": "Hexbin Plot",
    "binned_box_plot": "Binned Box Plot",
    "nested_bar_chart": "Nested Bar Chart",
    "stacked_bar_chart": "Stacked Bar Chart",
    "heat_map": "Heat Map",
    "multi_line_chart": "Line Chart",
    "correlation_pearson": "Pearson",
    "correlation_spearman": "Spearman",
    "correlation_kendall": "KendallTau",
    "correlation_scatter": "Scatter (regression)",
    "top_pairs": "Top Correlations",
    "missing_bar_chart": "Bar Chart",
    "missing_spectrum": "Spectrum",
    "nullity_correlation": "Nullity Correlation",
    "nullity_dendrogram": "Dendrogram",
    "missing_impact": "Impact",
    "pdf": "PDF",
    "cdf": "CDF",
}

#: Tab ordering preference; anything not listed keeps insertion order after these.
_ORDER = ["stats", "overview", "variables", "histogram", "kde_plot", "qq_plot",
          "box_plot", "bar_chart", "pie_chart", "word_frequencies", "word_cloud"]


def render_intermediates(intermediates: Intermediates, config: Config,
                         call: str = "plot(df)") -> Container:
    """Render every visualization in *intermediates* into a tabbed Container."""
    width = config.get("render.width")
    height = config.get("render.height")
    max_tabs = config.get("render.max_tabs")

    panels: List[Panel] = []
    names = _ordered_items(intermediates)
    for name in names:
        body = _render_item(name, intermediates, config, width, height)
        if body is None:
            continue
        panels.append(Panel(
            name=name,
            title=_TITLES.get(name, name.replace("_", " ").title()),
            body=body,
            insights=intermediates.insights_for(name),
            howto=how_to_guide(name, call=call),
        ))
        if len(panels) >= max_tabs:
            break
    title = f"DataPrep.EDA — {call}"
    return Container(intermediates, panels, call=call, title=title)


def _ordered_items(intermediates: Intermediates) -> List[str]:
    names = intermediates.visualization_names()
    ranked = [name for name in _ORDER if name in names]
    ranked.extend(name for name in names if name not in ranked)
    return ranked


def _render_item(name: str, intermediates: Intermediates, config: Config,
                 width: int, height: int) -> Optional[str]:
    """Render one intermediate item; None hides it from the container."""
    data = intermediates[name]
    column_label = ", ".join(intermediates.columns) or "dataset"

    if name == "stats":
        highlights = {insight.column: insight.message
                      for insight in intermediates.insights_for("stats")}
        return charts.render_stats_table(data, width, height,
                                         title=f"Statistics of {column_label}",
                                         highlights=highlights)
    if name == "overview":
        return charts.render_stats_table(data, width, height,
                                         title="Dataset statistics")
    if name == "variables":
        return _render_variables(data, config, width, height)
    if name == "histogram":
        return charts.render_histogram(data, width, height,
                                       title=f"Histogram of {column_label}")
    if name == "kde_plot":
        return _render_kde(data, width, height, column_label)
    if name == "qq_plot":
        return charts.render_qq_plot(data, width, height)
    if name == "box_plot":
        return _render_box(data, width, height, column_label)
    if name == "bar_chart":
        return charts.render_bar_chart(data, width, height,
                                       title=f"Bar chart of {column_label}")
    if name == "pie_chart":
        return charts.render_pie_chart(data, width, height,
                                       title=f"Pie chart of {column_label}")
    if name == "word_frequencies":
        return charts.render_bar_chart(
            {"categories": data.get("words", []), "counts": data.get("counts", [])},
            width, height, title=f"Word frequencies of {column_label}")
    if name == "word_cloud":
        return charts.render_word_cloud(data, width, height,
                                        title=f"Word cloud of {column_label}")
    if name == "scatter_plot":
        return charts.render_scatter(data, width, height,
                                     title=f"Scatter plot of {column_label}")
    if name == "correlation_scatter":
        return charts.render_scatter(data, width, height,
                                     title=f"Correlation of {column_label}",
                                     regression=True)
    if name == "hexbin_plot":
        return charts.render_heat_map(
            data.get("counts", []),
            [f"{edge:.2f}" for edge in data.get("x_edges", [])[:-1]],
            [f"{edge:.2f}" for edge in data.get("y_edges", [])[:-1]],
            width, height, title=f"Hexbin plot of {column_label}")
    if name == "binned_box_plot":
        boxes = [{"category": label, **box}
                 for label, box in zip(data.get("bins", []), data.get("boxes", []))]
        return charts.render_box_plots(boxes, width, height,
                                       title=f"Binned box plot of {column_label}")
    if name in ("nested_bar_chart", "stacked_bar_chart"):
        return charts.render_grouped_bars(
            data.get("groups", []), data.get("inner_categories", []), width, height,
            title=_TITLES[name] + f" of {column_label}",
            stacked=(name == "stacked_bar_chart"))
    if name == "heat_map":
        return charts.render_heat_map(
            data.get("counts", []), data.get("x_categories", []),
            data.get("y_categories", []), width, height,
            title=f"Heat map of {column_label}")
    if name == "multi_line_chart":
        return charts.render_line_chart(
            data.get("bins", []), data.get("series", {}), width, height,
            title=f"Distribution of {column_label}")
    if name.startswith("correlation_"):
        return _render_correlation(name, data, width, height)
    if name == "top_pairs":
        return _render_top_pairs(data, width, height)
    if name == "missing_bar_chart":
        return charts.render_bar_chart(
            {"categories": data.get("columns", []),
             "counts": data.get("missing_counts", [])},
            width, height, title="Missing values per column")
    if name == "missing_spectrum":
        return charts.render_missing_spectrum(data, width, height)
    if name == "nullity_correlation":
        return charts.render_heat_map(
            data.get("matrix", []), data.get("columns", []), data.get("columns", []),
            width, height, title="Nullity correlation", diverging=True)
    if name == "nullity_dendrogram":
        return charts.render_dendrogram(
            data.get("labels", []), data.get("linkage", []), width, height)
    if name == "missing_impact":
        return _render_missing_impact(data, width, height)
    if name in ("pdf", "cdf"):
        return _render_density_comparison(name, data, width, height)
    # Unknown items are shown as a table so nothing silently disappears.
    if isinstance(data, dict):
        return charts.render_stats_table(
            {key: value for key, value in data.items()
             if isinstance(value, (int, float, str, bool, type(None)))},
            width, height, title=_TITLES.get(name, name))
    return None


def _render_kde(data: Dict[str, Any], width: int, height: int,
                column_label: str) -> str:
    grid = data.get("grid", [])
    series = {"KDE": data.get("density", [])}
    return charts.render_line_chart(grid, series, width, height,
                                    title=f"KDE plot of {column_label}",
                                    x_label=column_label, y_label="density")


def _render_box(data: Dict[str, Any], width: int, height: int,
                column_label: str) -> str:
    if "boxes" in data:
        boxes = data["boxes"]
        label_key = "category" if boxes and "category" in boxes[0] else "label"
        return charts.render_box_plots(boxes, width, height,
                                       title=f"Box plot of {column_label}",
                                       label_key=label_key)
    return charts.render_box_plots([{**data, "category": column_label}],
                                   width, height,
                                   title=f"Box plot of {column_label}")


def _render_correlation(name: str, data: Dict[str, Any], width: int,
                        height: int) -> str:
    method = data.get("method", name.replace("correlation_", ""))
    if "matrix" in data:
        columns = data.get("columns", [])
        return charts.render_heat_map(data["matrix"], columns, columns, width,
                                      height, title=f"{method.title()} correlation",
                                      diverging=True)
    # Correlation vector of one column against the others.
    others = data.get("others", [])
    values = data.get("values", [])
    return charts.render_bar_chart(
        {"categories": others, "counts": values}, width, height,
        title=f"{method.title()} correlation with {data.get('column', '')}")


def _render_top_pairs(data: Any, width: int, height: int) -> str:
    rows = {f"{entry['col1']} x {entry['col2']}": round(entry["correlation"], 3)
            for entry in data}
    return charts.render_stats_table(rows or {"(none)": "no strongly correlated pairs"},
                                     width, height, title="Highly correlated pairs")


def _render_missing_impact(data: Dict[str, Any], width: int, height: int) -> str:
    """Impact panels: before/after distributions per impacted column."""
    if "type" in data:
        blocks = {"": data}
    else:
        blocks = data
    parts: List[str] = []
    for column, block in blocks.items():
        title = f"Impact on {column}" if column else "Impact of dropping missing rows"
        if block.get("type") == "numerical":
            edges = block.get("edges", [])
            centers = [(edges[i] + edges[i + 1]) / 2 for i in range(len(edges) - 1)]
            series = {"all rows": block.get("before_counts", []),
                      "after drop": block.get("after_counts", [])}
            parts.append(charts.render_line_chart(centers, series, width, height,
                                                  title=title))
        else:
            groups = [{"category": category,
                       "counts": [before, after]}
                      for category, before, after in zip(
                          block.get("categories", []),
                          block.get("before_counts", []),
                          block.get("after_counts", []))]
            parts.append(charts.render_grouped_bars(
                groups, ["all rows", "after drop"], width, height, title=title))
    return "\n".join(parts) if parts else charts.render_stats_table(
        {"(none)": "nothing to compare"}, width, height, title="Impact")


def _render_density_comparison(name: str, data: Dict[str, Any], width: int,
                               height: int) -> str:
    edges = data.get("edges", [])
    centers = [(edges[i] + edges[i + 1]) / 2 for i in range(len(edges) - 1)]
    series = {"all rows": data.get("before", []), "after drop": data.get("after", [])}
    return charts.render_line_chart(centers, series, width, height,
                                    title=name.upper())


def _render_variables(variables: Dict[str, Dict[str, Any]], config: Config,
                      width: int, height: int) -> str:
    """The per-column grid of the overview task: stats + small chart each."""
    parts: List[str] = []
    small_width, small_height = max(width // 2, 320), max(height // 2, 220)
    for column, entry in variables.items():
        parts.append(f"<h4>{html.escape(str(column))} "
                     f"<small>({entry.get('type')})</small></h4>")
        parts.append(charts.render_stats_table(entry.get("stats", {}), small_width,
                                               small_height, title=""))
        if "histogram" in entry:
            parts.append(charts.render_histogram(entry["histogram"], small_width,
                                                 small_height,
                                                 title=f"Histogram of {column}"))
        elif "bar_chart" in entry:
            parts.append(charts.render_bar_chart(entry["bar_chart"], small_width,
                                                 small_height,
                                                 title=f"Bar chart of {column}"))
    return "\n".join(parts)
