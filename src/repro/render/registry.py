"""The chart registry: every chart kind declared once.

A chart kind is one :class:`ChartKind` entry of :data:`CHART_KINDS`: the
intermediate items it draws with each item's tab title, the config keys its
how-to guide lists (Section 4.1, part E of Figure 1) and its renderer.  Its
position in the table is its tab order.  ``render_intermediates`` reads the
table for titles, order and bodies; ``how_to_guide()`` reads it for guides.
Adding a chart means adding one entry.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.eda.config import DEFAULTS
from repro.eda.insights import Insight
from repro.render import charts


class Item(NamedTuple):
    """One intermediate item, as its renderer sees it."""

    name: str
    title: str
    data: Any
    #: The call's columns, or "dataset" when the call names none.
    label: str
    insights: List[Insight]


#: ``(item, width, height)`` -> HTML body; None hides the item.
Renderer = Callable[[Item, int, int], Optional[str]]


class ChartKind(NamedTuple):
    """One chart kind: its items and their tab titles, its how-to guide's
    config keys (None: the kind has no guide) and its renderer."""

    name: str
    titles: Dict[str, str]
    keys: Optional[Tuple[str, ...]]
    render: Renderer


#: The stats-table row each kind of insight on a ``stats`` item is about;
#: that row is highlighted, like the distinct count in Figure 1.
_STATS_ROW: Dict[str, str] = {"missing": "missing_rate", "infinite": "infinite",
                              "constant": "distinct"}


def _render_stats(item: Item, width: int, height: int) -> str:
    highlights = {_STATS_ROW[insight.kind]: insight.message
                  for insight in item.insights if insight.kind in _STATS_ROW}
    return charts.render_stats_table(item.data, width, height,
                                     title=f"Statistics of {item.label}",
                                     highlights=highlights)


def _render_variables(item: Item, width: int, height: int) -> str:
    """The per-column grid of the overview task: stats + small chart each."""
    parts: List[str] = []
    small_width, small_height = max(width // 2, 320), max(height // 2, 220)
    for column, entry in item.data.items():
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


def _render_kde(item: Item, width: int, height: int) -> str:
    series = {"KDE": item.data.get("density", [])}
    return charts.render_line_chart(item.data.get("grid", []), series, width, height,
                                    title=f"KDE plot of {item.label}",
                                    x_label=item.label, y_label="density")


def _render_box(item: Item, width: int, height: int) -> str:
    title = f"Box plot of {item.label}"
    if "boxes" in item.data:
        boxes = item.data["boxes"]
        label_key = "category" if boxes and "category" in boxes[0] else "label"
        return charts.render_box_plots(boxes, width, height, title=title,
                                       label_key=label_key)
    return charts.render_box_plots([{**item.data, "category": item.label}],
                                   width, height, title=title)


def _render_hexbin(item: Item, width: int, height: int) -> str:
    data = item.data
    return charts.render_heat_map(
        data.get("counts", []),
        [f"{edge:.2f}" for edge in data.get("x_edges", [])[:-1]],
        [f"{edge:.2f}" for edge in data.get("y_edges", [])[:-1]],
        width, height, title=f"Hexbin plot of {item.label}")


def _render_binned_box(item: Item, width: int, height: int) -> str:
    boxes = [{"category": label, **box}
             for label, box in zip(item.data.get("bins", []),
                                   item.data.get("boxes", []))]
    return charts.render_box_plots(boxes, width, height,
                                   title=f"Binned box plot of {item.label}")


def _render_grouped_bars(item: Item, width: int, height: int) -> str:
    return charts.render_grouped_bars(
        item.data.get("groups", []), item.data.get("inner_categories", []),
        width, height, title=f"{item.title} of {item.label}",
        stacked=(item.name == "stacked_bar_chart"))


def _render_correlation(item: Item, width: int, height: int) -> str:
    data = item.data
    method = data.get("method", item.name.replace("correlation_", ""))
    if "matrix" in data:
        columns = data.get("columns", [])
        return charts.render_heat_map(data["matrix"], columns, columns, width,
                                      height, title=f"{method.title()} correlation",
                                      diverging=True)
    # Correlation vector of one column against the others.
    return charts.render_bar_chart(
        {"categories": data.get("others", []), "counts": data.get("values", [])},
        width, height,
        title=f"{method.title()} correlation with {data.get('column', '')}")


def _render_top_pairs(item: Item, width: int, height: int) -> str:
    rows = {f"{entry['col1']} x {entry['col2']}": round(entry["correlation"], 3)
            for entry in item.data}
    return charts.render_stats_table(rows or {"(none)": "no strongly correlated pairs"},
                                     width, height, title="Highly correlated pairs")


def _render_missing_impact(item: Item, width: int, height: int) -> str:
    """Impact panels: before/after distributions per impacted column."""
    blocks = {"": item.data} if "type" in item.data else item.data
    parts: List[str] = []
    for column, block in blocks.items():
        title = f"Impact on {column}" if column else "Impact of dropping missing rows"
        if block.get("type") == "numerical":
            series = {"all rows": block.get("before_counts", []),
                      "after drop": block.get("after_counts", [])}
            parts.append(charts.render_line_chart(_centers(block), series, width,
                                                  height, title=title))
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


def _render_density_comparison(item: Item, width: int, height: int) -> str:
    series = {"all rows": item.data.get("before", []),
              "after drop": item.data.get("after", [])}
    return charts.render_line_chart(_centers(item.data), series, width, height,
                                    title=item.name.upper())


def _centers(data: Dict[str, Any]) -> List[float]:
    edges = data.get("edges", [])
    return [(edges[i] + edges[i + 1]) / 2 for i in range(len(edges) - 1)]


def _render_undeclared(item: Item, width: int, height: int) -> Optional[str]:
    """An item no kind declares is shown as a table, so nothing silently
    disappears; one that is not a dict is hidden."""
    if not isinstance(item.data, dict):
        return None
    return charts.render_stats_table(
        {key: value for key, value in item.data.items()
         if isinstance(value, (int, float, str, bool, type(None)))},
        width, height, title=item.name)


#: Every chart kind, in tab order.
CHART_KINDS: Tuple[ChartKind, ...] = (
    ChartKind("stats", {"stats": "Stats"},
              ("insight.missing.threshold", "insight.skewness.threshold",
               "insight.high_cardinality.threshold"), _render_stats),
    ChartKind("overview", {"overview": "Overview"}, None,
              lambda item, width, height: charts.render_stats_table(
                  item.data, width, height, title="Dataset statistics")),
    ChartKind("variables", {"variables": "Variables"}, None, _render_variables),
    ChartKind("histogram", {"histogram": "Histogram"},
              ("hist.bins", "hist.auto_bins"),
              lambda item, width, height: charts.render_histogram(
                  item.data, width, height, title=f"Histogram of {item.label}")),
    ChartKind("kde_plot", {"kde_plot": "KDE Plot"}, ("kde.grid_points",),
              _render_kde),
    ChartKind("qq_plot", {"qq_plot": "Normal Q-Q Plot"}, ("qq.points",),
              lambda item, width, height: charts.render_qq_plot(
                  item.data, width, height)),
    ChartKind("box_plot", {"box_plot": "Box Plot"},
              ("box.whisker", "box.max_groups"), _render_box),
    ChartKind("bar_chart", {"bar_chart": "Bar Chart"}, ("bar.top_words",),
              lambda item, width, height: charts.render_bar_chart(
                  item.data, width, height, title=f"Bar chart of {item.label}")),
    ChartKind("pie_chart", {"pie_chart": "Pie Chart"}, ("pie.slices",),
              lambda item, width, height: charts.render_pie_chart(
                  item.data, width, height, title=f"Pie chart of {item.label}")),
    ChartKind("word_frequencies", {"word_frequencies": "Word Frequencies"},
              ("wordfreq.top_words", "wordfreq.lowercase"),
              lambda item, width, height: charts.render_bar_chart(
                  {"categories": item.data.get("words", []),
                   "counts": item.data.get("counts", [])},
                  width, height, title=f"Word frequencies of {item.label}")),
    ChartKind("word_cloud", {"word_cloud": "Word Cloud"},
              ("wordfreq.top_words", "wordfreq.lowercase"),
              lambda item, width, height: charts.render_word_cloud(
                  item.data, width, height, title=f"Word cloud of {item.label}")),
    ChartKind("scatter_plot", {"scatter_plot": "Scatter Plot"},
              ("scatter.sample_size",),
              lambda item, width, height: charts.render_scatter(
                  item.data, width, height, title=f"Scatter plot of {item.label}")),
    ChartKind("hexbin_plot", {"hexbin_plot": "Hexbin Plot"}, ("hexbin.gridsize",),
              _render_hexbin),
    ChartKind("binned_box_plot", {"binned_box_plot": "Binned Box Plot"},
              ("binnedbox.bins", "box.whisker"), _render_binned_box),
    ChartKind("nested_bar_chart", {"nested_bar_chart": "Nested Bar Chart"},
              ("nested.max_categories",), _render_grouped_bars),
    ChartKind("stacked_bar_chart", {"stacked_bar_chart": "Stacked Bar Chart"},
              ("nested.max_categories",), _render_grouped_bars),
    ChartKind("heat_map", {"heat_map": "Heat Map"}, ("heatmap.max_categories",),
              lambda item, width, height: charts.render_heat_map(
                  item.data.get("counts", []), item.data.get("x_categories", []),
                  item.data.get("y_categories", []), width, height,
                  title=f"Heat map of {item.label}")),
    ChartKind("multi_line_chart", {"multi_line_chart": "Line Chart"},
              ("line.max_groups", "line.bins"),
              lambda item, width, height: charts.render_line_chart(
                  item.data.get("bins", []), item.data.get("series", {}),
                  width, height, title=f"Distribution of {item.label}")),
    # Drawn once per method, in the order the compute step inserts them.
    ChartKind("correlation_matrix",
              {"correlation_pearson": "Pearson", "correlation_spearman": "Spearman",
               "correlation_kendall": "KendallTau"},
              ("correlation.methods", "insight.correlation.threshold"),
              _render_correlation),
    ChartKind("correlation_scatter", {"correlation_scatter": "Scatter (regression)"},
              ("correlation.scatter_sample_size",),
              lambda item, width, height: charts.render_scatter(
                  item.data, width, height, title=f"Correlation of {item.label}",
                  regression=True)),
    ChartKind("top_pairs", {"top_pairs": "Top Correlations"}, None,
              _render_top_pairs),
    ChartKind("missing_bar_chart", {"missing_bar_chart": "Bar Chart"},
              ("insight.missing.threshold",),
              lambda item, width, height: charts.render_bar_chart(
                  {"categories": item.data.get("columns", []),
                   "counts": item.data.get("missing_counts", [])},
                  width, height, title="Missing values per column")),
    ChartKind("missing_spectrum", {"missing_spectrum": "Spectrum"},
              ("missing.spectrum_bins",),
              lambda item, width, height: charts.render_missing_spectrum(
                  item.data, width, height)),
    ChartKind("nullity_correlation", {"nullity_correlation": "Nullity Correlation"},
              (),
              lambda item, width, height: charts.render_heat_map(
                  item.data.get("matrix", []), item.data.get("columns", []),
                  item.data.get("columns", []), width, height,
                  title="Nullity correlation", diverging=True)),
    ChartKind("nullity_dendrogram", {"nullity_dendrogram": "Dendrogram"}, (),
              lambda item, width, height: charts.render_dendrogram(
                  item.data.get("labels", []), item.data.get("linkage", []),
                  width, height)),
    ChartKind("missing_impact", {"missing_impact": "Impact"}, ("missing.bins",),
              _render_missing_impact),
    ChartKind("pdf", {"pdf": "PDF"}, ("missing.bins",), _render_density_comparison),
    ChartKind("cdf", {"cdf": "CDF"}, ("missing.bins",), _render_density_comparison),
)

_KIND_OF: Dict[str, ChartKind] = {name: kind for kind in CHART_KINDS
                                   for name in kind.titles}
_POSITION: Dict[str, int] = {name: position
                             for position, kind in enumerate(CHART_KINDS)
                             for name in kind.titles}
_UNDECLARED = ChartKind("undeclared", {}, None, _render_undeclared)


def chart_kind(name: str) -> ChartKind:
    """The kind that draws item *name*; an undeclared item is a table."""
    return _KIND_OF.get(name, _UNDECLARED)


def tab_order(names: Iterable[str]) -> List[str]:
    """*names* sorted stably by their kind's position; undeclared ones last."""
    return sorted(names, key=lambda name: _POSITION.get(name, len(CHART_KINDS)))


@dataclass
class HowToEntry:
    """The how-to guide content for one visualization."""

    visualization: str
    keys: List[str]
    defaults: Dict[str, object]
    example: str

    def as_text(self) -> str:
        """Render the guide as plain text (used in reports and the API)."""
        lines = [f"How to customize the {self.visualization.replace('_', ' ')}:"]
        if not self.keys:
            lines.append("  (this visualization has no tunable parameters)")
            return "\n".join(lines)
        for key in self.keys:
            lines.append(f"  {key!r}: default {self.defaults[key]!r}")
        lines.append(f"  example: {self.example}")
        return "\n".join(lines)


def how_to_guide(visualization: str,
                 call: str = 'plot(df, "col")') -> Optional[HowToEntry]:
    """The how-to guide of the kind that draws item *visualization*, or None
    if no kind declares it or the kind has no guide."""
    keys = chart_kind(visualization).keys
    if keys is None:
        return None
    defaults = {key: DEFAULTS[key] for key in keys}
    if keys:
        first = keys[0]
        example_value = _example_value(DEFAULTS[first])
        example = f'{call[:-1]}, config={{"{first}": {example_value}}})'
    else:
        example = call
    return HowToEntry(visualization=visualization, keys=list(keys),
                      defaults=defaults, example=example)


def guides_for(visualizations: List[str],
               call: str = 'plot(df, "col")') -> Dict[str, HowToEntry]:
    """How-to guides for every visualization in a container."""
    guides = {}
    for name in visualizations:
        entry = how_to_guide(name, call=call)
        if entry is not None:
            guides[name] = entry
    return guides


def _example_value(default: object) -> str:
    if isinstance(default, bool):
        return "False" if default else "True"
    if isinstance(default, int):
        return str(default * 2)
    if isinstance(default, float):
        return str(default)
    if isinstance(default, tuple):
        return repr(list(default[:1]))
    return repr(default)
