"""Tests for the tabbed Container layout and the report module."""

import pytest

from repro.baselines import eager_profile_report
from repro.eda import plot
from repro.eda.config import Config
from repro.errors import EDAError
from repro.render import render_intermediates
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
