"""Every call form's tabs: which panels, in which order, with which titles
and how-to guide keys.

The chart registry declares each chart kind's items, tab titles, tab order
and guide keys once; these cases pin what it yields for each call form of
the paper's API on one fixed frame.
"""

import numpy as np
import pytest

import repro
from repro.eda.config import Config
from repro.eda.intermediates import Intermediates
from repro.frame import DataFrame
from repro.render import render_intermediates

STATS = ("stats", "Stats", ["insight.missing.threshold", "insight.skewness.threshold",
                            "insight.high_cardinality.threshold"])
MATRIX = ["correlation.methods", "insight.correlation.threshold"]
PEARSON = ("correlation_pearson", "Pearson", MATRIX)
SPEARMAN = ("correlation_spearman", "Spearman", MATRIX)
KENDALL = ("correlation_kendall", "KendallTau", MATRIX)
TOP_PAIRS = ("top_pairs", "Top Correlations", None)
BOX = ("box_plot", "Box Plot", ["box.whisker", "box.max_groups"])
OVERVIEW = [("overview", "Overview", None), ("variables", "Variables", None)]
MISSING = [STATS,
           ("missing_bar_chart", "Bar Chart", ["insight.missing.threshold"]),
           ("missing_spectrum", "Spectrum", ["missing.spectrum_bins"]),
           ("nullity_correlation", "Nullity Correlation", []),
           ("nullity_dendrogram", "Dendrogram", [])]

#: call form -> ((function, columns, config), expected panels).
CASES = {
    "plot(df)": ((repro.plot, (), {}), OVERVIEW),
    "plot(df, num)": ((repro.plot, ("num_1",), {}), [
        STATS,
        ("histogram", "Histogram", ["hist.bins", "hist.auto_bins"]),
        ("kde_plot", "KDE Plot", ["kde.grid_points"]),
        ("qq_plot", "Normal Q-Q Plot", ["qq.points"]),
        BOX]),
    "plot(df, cat)": ((repro.plot, ("cat_1",), {}), [
        STATS,
        ("bar_chart", "Bar Chart", ["bar.top_words"]),
        ("pie_chart", "Pie Chart", ["pie.slices"]),
        ("word_frequencies", "Word Frequencies",
         ["wordfreq.top_words", "wordfreq.lowercase"]),
        ("word_cloud", "Word Cloud", ["wordfreq.top_words", "wordfreq.lowercase"])]),
    "plot(df, num, num)": ((repro.plot, ("num_1", "num_2"), {}), [
        STATS,
        ("scatter_plot", "Scatter Plot", ["scatter.sample_size"]),
        ("hexbin_plot", "Hexbin Plot", ["hexbin.gridsize"]),
        ("binned_box_plot", "Binned Box Plot", ["binnedbox.bins", "box.whisker"])]),
    "plot(df, num, cat)": ((repro.plot, ("num_1", "cat_1"), {}), [
        STATS, BOX,
        ("multi_line_chart", "Line Chart", ["line.max_groups", "line.bins"])]),
    "plot(df, cat, cat)": ((repro.plot, ("cat_1", "cat_2"), {}), [
        STATS,
        ("nested_bar_chart", "Nested Bar Chart", ["nested.max_categories"]),
        ("stacked_bar_chart", "Stacked Bar Chart", ["nested.max_categories"]),
        ("heat_map", "Heat Map", ["heatmap.max_categories"])]),
    "plot_correlation(df)": ((repro.plot_correlation, (), {}), [
        STATS, PEARSON, SPEARMAN, KENDALL, TOP_PAIRS]),
    "plot_correlation(df, num)": ((repro.plot_correlation, ("num_1",), {}), [
        STATS, PEARSON, SPEARMAN, KENDALL]),
    "plot_correlation(df, num, num)": (
        (repro.plot_correlation, ("num_1", "num_2"), {}), [
            STATS,
            ("correlation_scatter", "Scatter (regression)",
             ["correlation.scatter_sample_size"])]),
    # A kind's items keep the order the compute step inserts them in: the
    # one-column form follows correlation.methods, the overview does not.
    "plot_correlation(df, num) kendall first": (
        (repro.plot_correlation, ("num_1",),
         {"correlation.methods": ("kendall", "pearson")}),
        [STATS, KENDALL, PEARSON]),
    "plot_correlation(df) kendall first": (
        (repro.plot_correlation, (),
         {"correlation.methods": ("kendall", "pearson")}),
        [STATS, PEARSON, KENDALL, TOP_PAIRS]),
    "plot_missing(df)": ((repro.plot_missing, (), {}), MISSING),
    "plot_missing(df, col)": ((repro.plot_missing, ("num_0",), {}), [
        STATS, ("missing_impact", "Impact", ["missing.bins"])]),
    "plot_missing(df, col, num)": ((repro.plot_missing, ("num_0", "num_1"), {}), [
        STATS, BOX,
        ("missing_impact", "Impact", ["missing.bins"]),
        ("pdf", "PDF", ["missing.bins"]),
        ("cdf", "CDF", ["missing.bins"])]),
}

REPORT_SECTIONS = {
    "Overview": OVERVIEW,
    "Correlations": [STATS, PEARSON, SPEARMAN, KENDALL, TOP_PAIRS],
    "Missing Values": MISSING,
}


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(3)
    n = 400
    num_0 = rng.normal(10, 2, n)
    return DataFrame({
        "num_0": [None if index % 9 == 0 else float(value)
                  for index, value in enumerate(num_0)],
        "num_1": rng.lognormal(2, 0.5, n),
        "num_2": rng.uniform(0, 100, n),
        "cat_1": [f"c1v{value % 12:02d}" for value in rng.zipf(1.5, n)],
        "cat_2": [f"c2v{value:02d}" for value in rng.integers(0, 8, n)],
    })


def _panels(container):
    return [(panel.name, panel.title,
             panel.howto.keys if panel.howto is not None else None)
            for panel in container.panels]


@pytest.mark.parametrize("form", list(CASES))
def test_call_form_panels(frame, form):
    (function, columns, config), expected = CASES[form]
    assert _panels(function(frame, *columns, config=config)) == expected


def test_report_section_panels(frame):
    report = repro.create_report(frame)
    panels = {name: _panels(render_intermediates(section, report.config,
                                                 call="create_report(df)"))
              for name, section in report.sections.items()}
    assert panels == REPORT_SECTIONS


def test_undeclared_items_come_last_as_a_stats_table():
    """An item no chart kind declares is drawn as a stats table after every
    declared one, without a guide; one that is not a dict is hidden."""
    intermediates = Intermediates(task="univariate", columns=["x"], items={
        "extra_counts": {"rows": 3, "nested": [1, 2]},
        "raw_values": [1, 2, 3],
        "histogram": {"counts": [1, 2], "edges": [0.0, 1.0, 2.0]},
        "stats": {"count": 3},
    })
    container = render_intermediates(intermediates, Config.from_user())
    assert _panels(container) == [STATS, ("histogram", "Histogram",
                                          ["hist.bins", "hist.auto_bins"]),
                                  ("extra_counts", "Extra Counts", None)]
    body = container.panels[-1].body
    assert 'class="stats-table"' in body and "rows" in body
    assert "nested" not in body
