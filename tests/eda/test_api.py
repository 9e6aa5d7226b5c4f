"""Tests for the public task-centric API surface."""

import re

import pytest

from repro.eda import plot, plot_correlation, plot_missing
from repro.errors import ConfigError, EDAError
from repro.frame import DataFrame
from repro.render import Container


class TestArgumentValidation:
    def test_first_argument_must_be_a_dataframe(self):
        with pytest.raises(EDAError):
            plot([1, 2, 3])

    def test_col2_without_col1(self, house_frame):
        with pytest.raises(EDAError):
            plot(house_frame, None, "price")
        with pytest.raises(EDAError):
            plot_correlation(house_frame, None, "price")
        with pytest.raises(EDAError):
            plot_missing(house_frame, None, "price")

    def test_invalid_mode(self, house_frame):
        with pytest.raises(EDAError):
            plot(house_frame, mode="json")

    def test_invalid_config_key_is_rejected_early(self, house_frame):
        with pytest.raises(ConfigError):
            plot(house_frame, "price", config={"hist.binz": 10})


class TestReturnTypes:
    def test_plot_returns_container_by_default(self, house_frame):
        container = plot(house_frame, "price")
        assert isinstance(container, Container)
        assert container.tab_names[0] == "stats"
        assert "<svg" in container.to_html()

    def test_intermediates_mode_returns_raw_values(self, house_frame):
        intermediates = plot(house_frame, "price", mode="intermediates")
        assert intermediates.task == "univariate"
        assert "histogram" in intermediates

    def test_call_string_reflected_in_title(self, house_frame):
        container = plot_correlation(house_frame, "size", "price")
        assert 'plot_correlation(df, "size", "price")' in container.title

    def test_display_limits_tabs(self, house_frame):
        container = plot(house_frame, "price", display=["histogram", "stats"])
        assert set(container.tab_names) == {"stats", "histogram"}

    def test_stats_table_marks_the_missing_rate_row(self):
        values = [None if index % 5 == 0 else float(index % 37)
                  for index in range(200)]
        table = plot(DataFrame({"x": values}), "x").panel("stats").body
        rows = re.findall(r'<tr class="insight-row"[^>]*><td>([^<]*)</td>', table)
        assert rows == ["missing_rate"]

    def test_insight_badges_follow_intermediates(self, house_frame):
        container = plot(house_frame, "price")
        assert len(container.insights) == len(container.intermediates.insights)

    def test_config_flows_through(self, house_frame):
        container = plot(house_frame, "price", config={"hist.bins": 13})
        assert len(container.intermediates["histogram"]["counts"]) == 13

    def test_panel_lookup(self, house_frame):
        container = plot(house_frame, "city")
        panel = container.panel("bar_chart")
        assert panel.title == "Bar Chart"
        with pytest.raises(KeyError):
            container.panel("no_such_panel")

    def test_save_writes_html(self, house_frame, tmp_path):
        path = tmp_path / "univariate.html"
        plot(house_frame, "price").save(str(path))
        content = path.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "<svg" in content
