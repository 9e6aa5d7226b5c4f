"""Tests for the tabbed Container layout and the report module."""

import re
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from repro.baselines import eager_profile_report
from repro.eda import plot, plot_correlation, plot_missing
from repro.eda.config import Config
from repro.errors import EDAError
from repro.frame import DataFrame
from repro.render import charts, render_intermediates
from repro.report import create_report


class TestContainer:
    def test_tabs_match_intermediates(self, house_frame):
        intermediates = plot(house_frame, "price", mode="intermediates")
        container = render_intermediates(intermediates, Config.from_user(),
                                         call='plot(df, "price")')
        assert set(container.tab_names) <= set(intermediates.visualization_names())
        assert container.tab_names[0] == "stats"

    def test_insight_badge_rendered(self, house_frame):
        container = plot(house_frame, "price")
        html = container.to_html()
        assert "insight-badge" in html  # price has missing values over threshold

    def test_howto_guides_rendered(self, house_frame):
        html = plot(house_frame, "price").to_html()
        assert "how to customize" in html
        assert "hist.bins" in html

    def test_max_tabs_limit(self, house_frame):
        container = plot(house_frame, "price", config={"render.max_tabs": 2})
        assert len(container.tab_names) == 2

    def test_each_container_gets_unique_ids(self, house_frame):
        first = plot(house_frame, "price")
        second = plot(house_frame, "size")
        assert first._id != second._id

    def test_show_prints_summary(self, house_frame, capsys):
        plot(house_frame, "price").show()
        captured = capsys.readouterr()
        assert "tabs" in captured.out

    def test_repr_html(self, house_frame):
        assert "<div" in plot(house_frame, "city")._repr_html_()


@pytest.fixture(scope="module")
def non_finite_frame() -> DataFrame:
    """Numerical columns holding ``inf``, ``-inf`` and NaN cells (one of them
    nothing else), beside a categorical one."""
    rng = np.random.default_rng(3)
    rows = 300
    x = rng.normal(0, 1, rows)
    y = 2 * x + rng.normal(0, 1, rows)
    z = rng.normal(0, 1, rows)
    x[5], y[7], y[9], z[11], z[5] = np.inf, -np.inf, np.nan, np.inf, -np.inf
    hollow = np.full(rows, np.inf)
    hollow[::2] = np.nan
    return DataFrame({"x": x, "y": y, "z": z, "hollow": hollow,
                      "group": list(rng.choice(["a", "b", "c"], rows))})


NON_FINITE_CALLS = {
    "plot(df)": plot,
    "plot(df, x)": lambda df: plot(df, "x"),
    "plot(df, hollow)": lambda df: plot(df, "hollow"),
    "plot(df, x, y)": lambda df: plot(df, "x", "y"),
    "plot(df, x, hollow)": lambda df: plot(df, "x", "hollow"),
    "plot(df, group, x)": lambda df: plot(df, "group", "x"),
    "plot_correlation(df)": plot_correlation,
    "plot_correlation(df, x)": lambda df: plot_correlation(df, "x"),
    "plot_correlation(df, x, y)": lambda df: plot_correlation(df, "x", "y"),
    "plot_missing(df)": plot_missing,
    "plot_missing(df, y)": lambda df: plot_missing(df, "y"),
    "plot_missing(df, y, x)": lambda df: plot_missing(df, "y", "x"),
    "create_report(df)": create_report,
}


class TestNonFiniteCells:
    """``inf`` and ``nan`` are not SVG numbers: a mark that would carry one
    is not drawn, and it does not stretch the axis of the marks that are."""

    @pytest.mark.parametrize("call", list(NON_FINITE_CALLS))
    def test_every_svg_is_well_formed_with_finite_attributes(
            self, non_finite_frame, call):
        html = NON_FINITE_CALLS[call](non_finite_frame).to_html()
        svgs = re.findall(r"<svg.*?</svg>", html, flags=re.DOTALL)
        assert svgs
        for svg in svgs:
            for element in ElementTree.fromstring(svg).iter():
                for name, value in element.attrib.items():
                    assert not re.search(r"inf|nan", value, re.IGNORECASE), \
                        (element.tag, name, value[:80])

    def test_interaction_scatter_keeps_its_scale(self, non_finite_frame):
        """One ``inf`` used to reset the axis domain to [0, 1], which drew
        every finite point of the pair off-scale."""
        report = create_report(non_finite_frame)
        pair = report.interactions["x x y"]
        assert np.inf in pair["x"]                  # the data keeps the cell
        svg = charts.render_scatter(pair, 450, 300)
        finite = np.isfinite(pair["x"]) & np.isfinite(pair["y"])
        centers = [(int(cx) / 10, int(cy) / 10) for cx, cy in   # tenths of a px
                   re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]
        assert len(centers) == finite.sum()
        assert all(60 <= cx <= 434 and 28 <= cy <= 256 for cx, cy in centers)

    def test_scatter_drops_points_missing_a_coordinate(self):
        svg = charts.render_scatter({"x": [1, 2, float("nan"), 4, None],
                                     "y": [1, float("inf"), 3, 4, 5]}, 450, 300)
        assert svg.count("<circle") == 2
        assert "no data" in charts.render_scatter(
            {"x": [float("inf")], "y": [1.0]}, 450, 300)


HOSTILE_NUM, HOSTILE_NUM_2 = "x</svg><script>alert(1)</script>", 'n"&<i>'
HOSTILE_CAT = "c<at>&"
HOSTILE_LABELS = ["u<v", "<b>bold</b>", "a&b", "</title><script>"]


@pytest.fixture(scope="module")
def hostile_frame() -> DataFrame:
    """Markup in column names and in category labels, as a CSV may carry."""
    rng = np.random.default_rng(5)
    rows = 240
    x = rng.normal(0, 1, rows)
    y = x + rng.normal(0, 1, rows)
    y[::17] = np.nan
    return DataFrame({HOSTILE_NUM: x, HOSTILE_NUM_2: y,
                      HOSTILE_CAT: list(rng.choice(HOSTILE_LABELS, rows))})


HOSTILE_CALLS = {
    "plot(df)": plot,
    "plot(df, num)": lambda df: plot(df, HOSTILE_NUM),
    "plot(df, cat)": lambda df: plot(df, HOSTILE_CAT),
    "plot(df, num, num)": lambda df: plot(df, HOSTILE_NUM, HOSTILE_NUM_2),
    "plot(df, cat, num)": lambda df: plot(df, HOSTILE_CAT, HOSTILE_NUM),
    "plot_correlation(df)": plot_correlation,
    "plot_correlation(df, num)": lambda df: plot_correlation(df, HOSTILE_NUM),
    "plot_missing(df)": plot_missing,
    "plot_missing(df, num)": lambda df: plot_missing(df, HOSTILE_NUM_2),
    "plot_missing(df, num, cat)":
        lambda df: plot_missing(df, HOSTILE_NUM_2, HOSTILE_CAT),
    "create_report(df)": create_report,
}


class TestHostileNames:
    """A column name or a label is data: it reaches the page as text only."""

    @pytest.mark.parametrize("call", list(HOSTILE_CALLS))
    def test_names_and_labels_never_become_markup(self, hostile_frame, call):
        html = HOSTILE_CALLS[call](hostile_frame).to_html()
        svgs = re.findall(r"<svg.*?</svg>", html, flags=re.DOTALL)
        assert svgs
        for svg in svgs:
            ElementTree.fromstring(svg)         # raises on stray markup
        assert "<script" not in html
        for text in [HOSTILE_NUM, HOSTILE_NUM_2, HOSTILE_CAT, *HOSTILE_LABELS]:
            assert text not in html, text
        assert "&lt;" in html                   # ...they are there, escaped

    def test_saved_report_is_escaped_too(self, hostile_frame, tmp_path):
        path = tmp_path / "report.html"
        create_report(hostile_frame).save(str(path))
        page = path.read_text(encoding="utf-8")
        assert "<script" not in page and HOSTILE_NUM not in page


class TestReport:
    def test_report_sections(self, house_frame):
        report = create_report(house_frame)
        assert "Overview" in report.section_names
        assert "Correlations" in report.section_names
        assert "Missing Values" in report.section_names
        assert report.total_seconds > 0

    def test_report_interactions_cover_numeric_pairs(self, house_frame):
        report = create_report(house_frame)
        assert len(report.interactions) == 3  # C(3 numeric columns, 2)

    def test_report_interactions_drop_rows_missing_in_either_column(
            self, house_frame):
        """A pair keeps the sampled rows present in both columns, and its
        lists share one python float per sampled value with the column's
        other pairs (a report used to box each value once per pair)."""
        report = create_report(house_frame)   # 400 rows: the sample is the frame
        size, price = (house_frame.column(name) for name in ("size", "price"))
        keep = size.notna() & price.notna()
        pair = report.interactions["size x price"]
        assert pair["x"] == size.to_numpy()[keep].tolist()
        assert pair["y"] == price.to_numpy()[keep].tolist()
        assert len(pair["x"]) < len(house_frame)        # price has missing rows
        other = report.interactions["size x year_built"]["x"]
        assert other == size.to_numpy().tolist()
        assert all(a is b for a, b in zip(
            pair["x"], (value for value, kept in zip(other, keep) if kept)))

    def test_report_insights_collected(self, house_frame):
        report = create_report(house_frame)
        # size and price are constructed to be strongly correlated.
        assert any(insight.kind == "high_correlation" for insight in report.insights())

    def test_report_save(self, house_frame, tmp_path):
        report = create_report(house_frame)
        path = report.save(str(tmp_path / "report.html"))
        content = open(path).read()
        assert "<h2>Overview</h2>" in content
        assert "<svg" in content

    def test_report_title_override(self, house_frame):
        report = create_report(house_frame, title="Housing Report")
        assert report.title == "Housing Report"

    def test_report_requires_dataframe(self):
        with pytest.raises(EDAError):
            create_report({"a": [1, 2]})

    def test_report_without_numeric_columns_skips_correlations(self):
        from repro.frame import DataFrame
        frame = DataFrame({"a": ["x", "y", "z"], "b": ["1a", "2b", "3c"]})
        report = create_report(frame)
        assert "Correlations" not in report.section_names


class TestEagerBaseline:
    def test_sections_present(self, house_frame):
        report = eager_profile_report(house_frame)
        assert set(report.variables) == set(house_frame.columns)
        assert report.overview["n_rows"] == len(house_frame)
        assert len(report.interactions) == 3
        assert "pearson" in report.correlations
        assert report.missing["counts"]["price"] == \
            house_frame.column("price").missing_count()

    def test_render_produces_html(self, house_frame):
        report = eager_profile_report(house_frame, render=True)
        assert report.html is not None
        assert "<svg" in report.html
        assert "render" in report.timings

    def test_numeric_variable_blocks(self, house_frame):
        report = eager_profile_report(house_frame)
        section = report.variables["size"]
        assert "histogram" in section
        assert "quantiles" in section
        assert len(section["minimum_values"]) == 10

    def test_categorical_variable_blocks(self, house_frame):
        report = eager_profile_report(house_frame)
        section = report.variables["city"]
        assert "common_values" in section
        assert "length_stats" in section

    def test_kendall_row_cap(self, house_frame):
        capped = eager_profile_report(house_frame, kendall_max_rows=50)
        assert "kendall" in capped.correlations

    def test_requires_dataframe(self):
        with pytest.raises(EDAError):
            eager_profile_report([1, 2, 3])
