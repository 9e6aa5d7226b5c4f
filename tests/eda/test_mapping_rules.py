"""Figure 2: the mapping rules between EDA tasks and stats/plots.

These tests assert that every call form of the task-centric API produces
exactly the visualization families the paper's Figure 2 prescribes for the
detected column types.
"""

import numpy as np
import pytest

from repro.eda import plot, plot_correlation, plot_missing
from repro.eda.compute import base
from repro.frame import DataFrame
from repro.frame.io import scan_csv, write_csv


class TestPlotMappingRules:
    def test_overview_row(self, house_frame):
        intermediates = plot(house_frame, mode="intermediates")
        assert intermediates.task == "overview"
        variables = intermediates["variables"]
        # Histogram for each numerical column, bar chart for each categorical.
        assert "histogram" in variables["price"]
        assert "histogram" in variables["size"]
        assert "bar_chart" in variables["city"]
        assert "bar_chart" in variables["house_type"]
        assert "overview" in intermediates

    def test_univariate_numerical_row(self, house_frame):
        intermediates = plot(house_frame, "price", mode="intermediates")
        expected = {"stats", "histogram", "kde_plot", "qq_plot", "box_plot"}
        assert expected <= set(intermediates.visualization_names())
        assert intermediates.meta["semantic_type"] == "numerical"

    def test_univariate_categorical_row(self, house_frame):
        intermediates = plot(house_frame, "city", mode="intermediates")
        expected = {"stats", "bar_chart", "pie_chart", "word_cloud",
                    "word_frequencies"}
        assert expected <= set(intermediates.visualization_names())

    def test_bivariate_nn_row(self, house_frame):
        intermediates = plot(house_frame, "size", "price", mode="intermediates")
        expected = {"scatter_plot", "hexbin_plot", "binned_box_plot"}
        assert expected <= set(intermediates.visualization_names())
        assert intermediates.meta["combination"] == "NN"

    @pytest.mark.parametrize("first,second", [("city", "price"), ("price", "city")])
    def test_bivariate_nc_and_cn_rows(self, house_frame, first, second):
        intermediates = plot(house_frame, first, second, mode="intermediates")
        expected = {"box_plot", "multi_line_chart"}
        assert expected <= set(intermediates.visualization_names())
        assert intermediates.meta["combination"] == "CN"

    def test_bivariate_cc_row(self, house_frame):
        intermediates = plot(house_frame, "city", "house_type", mode="intermediates")
        expected = {"nested_bar_chart", "stacked_bar_chart", "heat_map"}
        assert expected <= set(intermediates.visualization_names())
        assert intermediates.meta["combination"] == "CC"


class TestCorrelationMappingRules:
    def test_overview_row_has_three_methods(self, house_frame):
        intermediates = plot_correlation(house_frame, mode="intermediates")
        expected = {"correlation_pearson", "correlation_spearman",
                    "correlation_kendall"}
        assert expected <= set(intermediates.visualization_names())
        for name in expected:
            matrix = intermediates[name]["matrix"]
            assert len(matrix) == len(intermediates[name]["columns"])

    def test_single_column_row_gives_vectors(self, house_frame):
        intermediates = plot_correlation(house_frame, "price", mode="intermediates")
        vector = intermediates["correlation_pearson"]
        assert vector["column"] == "price"
        assert "price" not in vector["others"]
        assert len(vector["values"]) == len(vector["others"])

    def test_pair_row_gives_scatter_with_regression(self, house_frame):
        intermediates = plot_correlation(house_frame, "size", "price",
                                         mode="intermediates")
        scatter = intermediates["correlation_scatter"]
        assert "slope" in scatter and "intercept" in scatter
        assert intermediates.stats["pearson_correlation"] == pytest.approx(
            scatter["correlation"])


class TestMissingMappingRules:
    def test_overview_row(self, house_frame):
        intermediates = plot_missing(house_frame, mode="intermediates")
        expected = {"missing_bar_chart", "missing_spectrum",
                    "nullity_correlation", "nullity_dendrogram"}
        assert expected <= set(intermediates.visualization_names())

    def test_single_column_row_compares_all_other_columns(self, house_frame):
        intermediates = plot_missing(house_frame, "price", mode="intermediates")
        impact = intermediates["missing_impact"]
        assert set(impact) == set(house_frame.columns) - {"price"}
        assert impact["size"]["type"] == "numerical"
        assert impact["city"]["type"] == "categorical"
        for block in impact.values():
            assert len(block["before_counts"]) == len(block["after_counts"])

    def test_pair_row_numerical_target(self, house_frame):
        intermediates = plot_missing(house_frame, "price", "size",
                                     mode="intermediates")
        expected = {"missing_impact", "pdf", "cdf", "box_plot"}
        assert expected <= set(intermediates.visualization_names())

    def test_pair_row_categorical_target(self, house_frame):
        intermediates = plot_missing(house_frame, "price", "city",
                                     mode="intermediates")
        assert intermediates["missing_impact"]["type"] == "categorical"


def _drifting_frame() -> DataFrame:
    """24 000 rows whose int column ``x`` has 5 distinct values in its first
    12 000 rows and 100 after: categorical on the leading rows, numerical
    over the whole column."""
    index = np.arange(24_000)
    return DataFrame({
        "x": np.where(index < 12_000, index % 5, index % 100),
        "y": np.random.default_rng(3).normal(size=index.size),
    })


@pytest.fixture(params=["frame", "scan"])
def drifting(request, tmp_path):
    frame = _drifting_frame()
    if request.param == "frame":
        return frame
    write_csv(frame, tmp_path / "drift.csv")
    return scan_csv(tmp_path / "drift.csv")


def _semantic_answers(df) -> list:
    """The semantic type of ``x`` as each of the five call forms reads it."""
    return [
        plot(df, mode="intermediates").meta["semantic_types"]["x"],
        plot(df, "x", mode="intermediates").meta["semantic_type"],
        plot(df, "x", "y", mode="intermediates").meta["combination"],
        plot_missing(df, "y", mode="intermediates").meta["semantic_types"]["x"],
        plot_missing(df, "y", "x", mode="intermediates").meta["impacted_type"],
    ]


@pytest.mark.filterwarnings("ignore:.*materializing the scanned input")
class TestOneSemanticTypePerCall:
    """Every call decides a column's semantic type on the same leading rows,
    so the mapping rules agree across call forms and sources."""

    def test_every_call_form_agrees(self, drifting):
        assert _semantic_answers(drifting) == [
            "categorical", "categorical", "CN", "categorical", "categorical"]

    def test_frame_and_scan_agree(self, tmp_path):
        frame = _drifting_frame()
        write_csv(frame, tmp_path / "drift.csv")
        assert _semantic_answers(frame) == \
            _semantic_answers(scan_csv(tmp_path / "drift.csv"))

    def test_univariate_classifies_its_column_only(self, monkeypatch):
        classified = []

        def counting(column):
            classified.append(column.name)
            return detect(column)

        detect = base.detect_semantic_type
        monkeypatch.setattr(base, "detect_semantic_type", counting)
        plot(_drifting_frame(), "x", mode="intermediates")
        assert classified == ["x"]
