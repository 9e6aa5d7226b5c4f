"""Tests for the SVG backend and the chart renderers."""

import numpy as np
import pytest

from repro.render import charts
from repro.render.svg import (
    Canvas,
    LinearScale,
    PlotArea,
    color_for,
    diverging_color,
    format_tick,
    sequential_color,
)


class TestScalesAndPalettes:
    def test_linear_scale_maps_endpoints(self):
        scale = LinearScale(0, 10, 100, 200)
        assert scale(0) == 100
        assert scale(10) == 200
        assert scale(5) == 150

    def test_degenerate_domain_is_widened(self):
        scale = LinearScale(3, 3, 0, 10)
        assert scale(3) == 0.0

    def test_non_finite_domain_falls_back(self):
        scale = LinearScale(float("nan"), float("inf"), 0, 10)
        assert np.isfinite(scale(0.5))

    def test_ticks_cover_domain(self):
        ticks = LinearScale(0, 97, 0, 100).ticks(5)
        assert ticks[0] >= 0
        assert ticks[-1] <= 97 + 1e-9
        assert ticks == sorted(ticks)

    def test_format_tick(self):
        assert format_tick(0) == "0"
        assert format_tick(1500000) == "1.5e+06"
        assert format_tick(25000) == "25k"
        assert format_tick(3.14159) == "3.14"
        assert format_tick(12) == "12"

    def test_palettes_are_valid_hex(self):
        for index in range(12):
            assert color_for(index).startswith("#")
        assert sequential_color(0.0).startswith("#")
        assert sequential_color(2.0).startswith("#")
        assert diverging_color(-1.0) != diverging_color(1.0)


class TestCanvas:
    def test_elements_are_serialised(self):
        canvas = Canvas(100, 50)
        canvas.rect(0, 0, 10, 10, "#ff0000", tooltip="a <b>")
        canvas.line(0, 0, 5, 5, "#000000", dash="2,2")
        canvas.circles([3, 4, float("inf"), 5], [3, 4, 5, float("nan")], 1,
                       "#00ff00", opacity=0.5)
        canvas.polyline([(0, 0), (1, 1)], "#0000ff")
        canvas.text(5, 5, "label & more", rotate=-30)
        svg = canvas.to_svg()
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 1
        assert "&lt;b&gt;" in svg          # tooltip is escaped
        assert "label &amp; more" in svg    # text is escaped
        assert 'stroke-dasharray="2,2"' in svg
        # One styled group per call, in tenths of a pixel; non-finite points
        # are not drawn.
        assert ('<g transform="scale(0.1)" fill="#00ff00" fill-opacity="0.5">'
                '<circle cx="30" cy="30" r="10"/>'
                '<circle cx="40" cy="40" r="10"/></g>') in svg

    def test_plot_area_draws_axes(self):
        area = PlotArea.create(300, 200, (0, 10), (0, 5), title="T",
                               x_label="x", y_label="y")
        area.draw_axes()
        svg = area.canvas.to_svg()
        assert "T" in svg and "x" in svg and "y" in svg

    def test_category_band_partitions_width(self):
        area = PlotArea.create(300, 200, (0, 4), (0, 1))
        left0, width0 = area.category_band(0, 4)
        left3, _ = area.category_band(3, 4)
        assert left3 > left0
        assert width0 > 0


class TestChartRenderers:
    def test_histogram(self):
        svg = charts.render_histogram({"counts": [1, 5, 3], "edges": [0, 1, 2, 3]},
                                      400, 300)
        assert svg.count("<rect") == 3

    def test_histogram_with_no_data(self):
        svg = charts.render_histogram({"counts": [], "edges": []}, 400, 300)
        assert "no data" in svg

    def test_bar_chart(self):
        svg = charts.render_bar_chart({"categories": ["a", "b"], "counts": [3, 7]},
                                      400, 300)
        assert svg.count("<rect") == 2
        assert "a" in svg and "b" in svg

    def test_grouped_and_stacked_bars(self):
        groups = [{"category": "g1", "counts": [1, 2]},
                  {"category": "g2", "counts": [3, 4]}]
        grouped = charts.render_grouped_bars(groups, ["x", "y"], 400, 300, "t")
        stacked = charts.render_grouped_bars(groups, ["x", "y"], 400, 300, "t",
                                             stacked=True)
        assert grouped.count("<rect") >= 4
        assert stacked.count("<rect") >= 4

    def test_line_chart_with_multiple_series(self):
        svg = charts.render_line_chart([0, 1, 2], {"a": [1, 2, 3], "b": [3, 2, 1]},
                                       400, 300, "lines")
        assert svg.count("<polyline") == 2

    def test_scatter_with_regression(self):
        svg = charts.render_scatter({"x": [1, 2, 3], "y": [2, 4, 6],
                                     "slope": 2.0, "intercept": 0.0},
                                    400, 300, regression=True)
        assert svg.count("<circle") == 3
        assert "<line" in svg

    def test_qq_plot(self):
        svg = charts.render_qq_plot({"theoretical": [1, 2, 3],
                                     "sample": [1.1, 2.2, 2.9]}, 400, 300)
        assert svg.count("<circle") == 3

    def test_box_plots_with_outliers(self):
        boxes = [{"category": "a", "q1": 1, "median": 2, "q3": 3,
                  "lower_whisker": 0, "upper_whisker": 4,
                  "outlier_samples": [9.0, 10.0]}]
        svg = charts.render_box_plots(boxes, 400, 300)
        assert svg.count("<circle") == 2

    def test_heat_map_with_missing_cells(self):
        svg = charts.render_heat_map([[1.0, None], [0.5, 2.0]], ["x1", "x2"],
                                     ["y1", "y2"], 400, 300, "heat")
        assert svg.count("<rect") == 4
        assert "n/a" in svg

    def test_pie_chart(self):
        svg = charts.render_pie_chart({"labels": ["a", "b"], "counts": [1, 3]},
                                      400, 300)
        assert svg.count("<path") == 2

    def test_dendrogram(self):
        linkage = [{"left": 0, "right": 1, "distance": 1.0, "size": 2},
                   {"left": 2, "right": 3, "distance": 2.0, "size": 3}]
        svg = charts.render_dendrogram(["a", "b", "c"], linkage, 400, 300)
        assert svg.count("<line") == 6

    def test_stats_table_highlights(self):
        html = charts.render_stats_table({"mean": 1.23456, "count": 1000},
                                         400, 300,
                                         highlights={"mean": "too high"})
        assert "insight-row" in html
        assert "1,000" in html

    def test_missing_spectrum(self):
        svg = charts.render_missing_spectrum(
            {"columns": ["a", "b"], "densities": [[0.1, 0.0], [0.2, 0.1]]}, 400, 300)
        assert svg.count("<polyline") == 2

    def test_word_cloud(self):
        svg = charts.render_word_cloud({"words": ["alpha", "beta"],
                                        "weights": [1.0, 0.5]}, 400, 300)
        assert "alpha" in svg and "beta" in svg
