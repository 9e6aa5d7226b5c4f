"""Tests for semantic type detection, insights and the how-to guide."""

import pickle

import numpy as np
import pytest

import repro
from repro.eda.config import Config
from repro.eda.compute.base import ComputeContext
from repro.eda.dtypes import SemanticType, detect_semantic_type
from repro.eda.insights import (
    categorical_column_insights,
    correlation_insights,
    dataset_insights,
    numeric_column_insights,
    outlier_insight,
    similarity_insight,
)
from repro.frame import Column, DataFrame
from repro.render.registry import CHART_KINDS, guides_for, how_to_guide
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.histogram import compute_histogram


class TestSemanticTypes:
    def test_float_is_numerical(self):
        assert detect_semantic_type(Column("x", [1.5, 2.5, 3.5])) is \
            SemanticType.NUMERICAL

    def test_string_is_categorical(self):
        assert detect_semantic_type(Column("x", ["a", "b", "c"])) is \
            SemanticType.CATEGORICAL

    def test_bool_is_categorical(self):
        assert detect_semantic_type(Column("x", [True, False, True])) is \
            SemanticType.CATEGORICAL

    def test_low_cardinality_int_is_categorical(self):
        assert detect_semantic_type(Column("x", [1, 2, 3, 1, 2, 3])) is \
            SemanticType.CATEGORICAL

    def test_high_cardinality_int_is_numerical(self):
        assert detect_semantic_type(Column("x", list(range(100)))) is \
            SemanticType.NUMERICAL

    def test_constant_detection(self):
        assert detect_semantic_type(Column("x", [7, 7, 7])) is SemanticType.CONSTANT
        assert detect_semantic_type(Column("x", [None, None])) is SemanticType.CONSTANT

    def test_datetime_detection(self):
        column = Column("x", ["2020-01-01", "2021-01-01", "2022-03-04"])
        assert detect_semantic_type(column) is SemanticType.DATETIME

    def test_context_types_every_column(self, house_frame):
        types = ComputeContext(house_frame, Config.from_user()).semantic_types()
        assert list(types) == house_frame.columns
        assert types["price"] is SemanticType.NUMERICAL
        assert types["city"] is SemanticType.CATEGORICAL
        assert types["year_built"] is SemanticType.NUMERICAL

    def test_short_codes(self):
        assert SemanticType.NUMERICAL.short == "N"
        assert SemanticType.CATEGORICAL.short == "C"


class TestInsights:
    @pytest.fixture
    def config(self):
        return Config.from_user()

    def test_missing_insight_triggered_by_threshold(self, config):
        summary = NumericSummary.from_column(Column("x", [1.0, None, None, 4.0]))
        insights = numeric_column_insights("x", summary, None, config)
        assert any(insight.kind == "missing" for insight in insights)
        strict = Config.from_user({"insight.missing.threshold": 0.9})
        assert not any(insight.kind == "missing" for insight in
                       numeric_column_insights("x", summary, None, strict))

    def test_skewness_insight(self, config):
        values = np.random.default_rng(0).exponential(1.0, 3000) ** 2
        summary = NumericSummary.from_values(values)
        insights = numeric_column_insights("x", summary, None, config)
        assert any(insight.kind == "skewed" for insight in insights)

    def test_normality_insight(self, config):
        values = np.random.default_rng(0).normal(10, 2, 3000)
        summary = NumericSummary.from_values(values)
        histogram = compute_histogram(values, 50)
        insights = numeric_column_insights("x", summary, histogram, config,
                                           sample=values)
        assert any(insight.kind == "normal" for insight in insights)

    def test_infinite_insight(self, config):
        summary = NumericSummary.from_values(np.array([1.0, np.inf, 2.0]))
        summary.total = 3
        insights = numeric_column_insights("x", summary, None, config)
        assert any(insight.kind == "infinite" and insight.severity == "warning"
                   for insight in insights)

    def test_outlier_insight(self, config):
        assert outlier_insight("x", outlier_count=50, total=1000, config=config)
        assert not outlier_insight("x", outlier_count=1, total=1000, config=config)

    def test_high_cardinality_insight(self, config):
        summary = CategoricalSummary.from_values([f"v{i}" for i in range(200)])
        insights = categorical_column_insights("x", summary, config)
        assert any(insight.kind == "high_cardinality" for insight in insights)

    def test_constant_insight(self, config):
        summary = CategoricalSummary.from_values(["same"] * 20)
        insights = categorical_column_insights("x", summary, config)
        assert any(insight.kind == "constant" for insight in insights)

    def test_uniform_categorical_insight(self, config):
        summary = CategoricalSummary.from_values(["a", "b", "c", "d"] * 100)
        insights = categorical_column_insights("x", summary, config)
        assert any(insight.kind == "uniform" for insight in insights)

    def test_dataset_insights_duplicates(self, config):
        insights = dataset_insights(n_rows=100, duplicate_rows=20,
                                    missing_rates={"a": 0.0}, config=config)
        assert any(insight.kind == "duplicates" for insight in insights)

    def test_correlation_insights(self, config):
        matrix = np.array([[1.0, 0.95], [0.95, 1.0]])
        insights = correlation_insights(["a", "b"], matrix, "pearson", config)
        assert len(insights) == 1
        assert "highly correlated" in insights[0].message

    def test_similarity_insight_flags_changed_distribution(self, config):
        rng = np.random.default_rng(1)
        insights = similarity_insight("x", "missing_impact",
                                      rng.normal(0, 1, 2000),
                                      rng.normal(3, 1, 2000), config)
        assert insights[0].severity == "warning"

    def test_insights_disabled_globally(self):
        config = Config.from_user({"insight.enabled": False})
        summary = NumericSummary.from_column(Column("x", [1.0, None, None]))
        assert numeric_column_insights("x", summary, None, config) == []
        assert dataset_insights(10, 10, {"a": 1.0}, config) == []


def _shown(intermediates):
    return pickle.dumps((intermediates.items, intermediates.insights))


_NUMBER = (repro.plot, ("num",))
_WORDS = (repro.plot, ("cat",))
_PAIR = (repro.plot, ("num", "num2"))
_CATEGORIES = (repro.plot, ("cat", "cat2"))
_GROUPS = (repro.plot, ("cat", "num"))

#: (chart kind, key) -> ((function, columns), non-default value).
GUIDE_CASES = {
    ("histogram", "hist.bins"): (_NUMBER, 7),
    ("histogram", "hist.auto_bins"): (_NUMBER, True),
    ("kde_plot", "kde.grid_points"): (_NUMBER, 50),
    ("qq_plot", "qq.points"): (_NUMBER, 20),
    ("box_plot", "box.whisker"): (_NUMBER, 0.5),
    ("box_plot", "box.max_groups"): (_GROUPS, 3),
    ("bar_chart", "bar.top_words"): (_WORDS, 3),
    ("pie_chart", "pie.slices"): (_WORDS, 3),
    ("word_frequencies", "wordfreq.top_words"): ((repro.plot, ("text",)), 3),
    ("word_frequencies", "wordfreq.lowercase"): ((repro.plot, ("text",)), False),
    ("word_cloud", "wordfreq.top_words"): ((repro.plot, ("text",)), 3),
    ("word_cloud", "wordfreq.lowercase"): ((repro.plot, ("text",)), False),
    ("scatter_plot", "scatter.sample_size"): (_PAIR, 50),
    ("hexbin_plot", "hexbin.gridsize"): (_PAIR, 5),
    ("binned_box_plot", "binnedbox.bins"): (_PAIR, 4),
    ("binned_box_plot", "box.whisker"): (_PAIR, 0.5),
    ("nested_bar_chart", "nested.max_categories"): (_CATEGORIES, 3),
    ("stacked_bar_chart", "nested.max_categories"): (_CATEGORIES, 3),
    ("heat_map", "heatmap.max_categories"): (_CATEGORIES, 3),
    ("multi_line_chart", "line.max_groups"): (_GROUPS, 3),
    ("multi_line_chart", "line.bins"): (_GROUPS, 5),
    ("correlation_matrix", "correlation.methods"):
        ((repro.plot_correlation, ()), ("pearson",)),
    ("correlation_matrix", "insight.correlation.threshold"):
        ((repro.plot_correlation, ()), 0.999),
    ("correlation_scatter", "correlation.scatter_sample_size"):
        ((repro.plot_correlation, ("num", "num2")), 50),
    ("missing_bar_chart", "insight.missing.threshold"):
        ((repro.plot_missing, ()), 0.5),
    ("missing_spectrum", "missing.spectrum_bins"):
        ((repro.plot_missing, ()), 4),
    ("missing_impact", "missing.bins"): ((repro.plot_missing, ("miss",)), 5),
    ("pdf", "missing.bins"): ((repro.plot_missing, ("miss", "num")), 5),
    ("cdf", "missing.bins"): ((repro.plot_missing, ("miss", "num")), 5),
    ("stats", "insight.missing.threshold"): ((repro.plot, ("miss",)), 0.5),
    ("stats", "insight.skewness.threshold"): (_NUMBER, 100.0),
    ("stats", "insight.high_cardinality.threshold"):
        ((repro.plot, ("cat2",)), 10),
}


class TestHowToGuide:
    def test_every_guide_key_exists_in_defaults(self):
        from repro.eda.config import DEFAULTS
        for kind in CHART_KINDS:
            for key in kind.keys or ():
                assert key in DEFAULTS

    def test_guide_contains_example_with_key(self):
        entry = how_to_guide("histogram", call='plot(df, "price")')
        assert "hist.bins" in entry.keys
        assert "hist.bins" in entry.example
        assert "plot(df" in entry.example

    def test_unknown_visualization_returns_none(self):
        assert how_to_guide("spiral_chart") is None

    def test_guides_for_filters_unknown(self):
        guides = guides_for(["histogram", "unknown_viz"])
        assert set(guides) == {"histogram"}

    def test_guide_as_text(self):
        text = how_to_guide("box_plot").as_text()
        assert "box.whisker" in text
        text = how_to_guide("nullity_dendrogram").as_text()
        assert "no tunable parameters" in text

    @pytest.mark.parametrize("columns", [(), ("price",)])
    def test_every_correlation_method_panel_has_the_matrix_guide(
            self, house_frame, columns):
        container = repro.plot_correlation(house_frame, *columns)
        panels = [panel for panel in container.panels
                  if panel.name.startswith("correlation_")]
        assert [panel.name for panel in panels] == [
            "correlation_pearson", "correlation_spearman", "correlation_kendall"]
        for panel in panels:
            assert panel.howto.keys == ["correlation.methods",
                                        "insight.correlation.threshold"]

    def test_guide_cases_cover_every_listed_key(self):
        listed = {(kind.name, key) for kind in CHART_KINDS
                  for key in kind.keys or ()}
        assert set(GUIDE_CASES) == listed

    @pytest.mark.parametrize("name,key", sorted(GUIDE_CASES))
    def test_guide_key_changes_what_its_visualization_shows(
            self, guide_frame, name, key):
        """The guide promises each listed key customizes its chart: a
        non-default value (chosen to cross the key's threshold on
        ``guide_frame``) must change the items or insights of a call that
        shows that chart kind."""
        (function, columns), value = GUIDE_CASES[name, key]
        default = function(guide_frame, *columns, mode="intermediates")
        custom = function(guide_frame, *columns, config={key: value},
                          mode="intermediates")
        # The matrix kind is shown once per method, as correlation_<method>.
        titles = {kind.name: kind.titles for kind in CHART_KINDS}[name]
        assert set(titles) & set(default.items)
        assert _shown(default) != _shown(custom)


@pytest.fixture
def guide_frame():
    """Columns that cross every threshold ``GUIDE_CASES`` moves: a skewed
    number, a correlated twin, two many-valued categoricals, mixed-case
    text and a column 1 in 7 missing."""
    rng = np.random.default_rng(0)
    n = 600
    num = rng.lognormal(0, 1, n)
    words = ["Alpha", "beta", "Gamma", "delta", "eps", "zeta", "eta"]
    return DataFrame({
        "num": num,
        "num2": num * 2 + rng.normal(0, 0.5, n),
        "cat": [f"c{value % 30}" for value in rng.zipf(1.5, n)],
        "cat2": [f"d{value}" for value in rng.integers(0, 25, n)],
        "text": [" ".join(rng.choice(words, 3)) for _ in range(n)],
        "miss": [None if index % 7 == 0 else float(value)
                 for index, value in enumerate(num)],
    })
