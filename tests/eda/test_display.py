"""``display=`` is one filter over the finished intermediates.

Every compute function builds all of its items; the API keeps the ones
``display`` names (case-insensitive, in build order) for all twelve call
forms, on in-memory frames and scanned CSVs alike, so a kept item equals
the same call's item without ``display``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import DataFrame, plot, plot_correlation, plot_missing
from repro.errors import EDAError
from repro.frame.io import scan_csv, write_csv

#: The twelve call forms: the function, its columns and one item it makes.
CALL_FORMS = {
    "overview": (plot, (), "overview"),
    "numeric": (plot, ("x",), "histogram"),
    "categorical": (plot, ("city",), "bar_chart"),
    "NN": (plot, ("x", "y"), "scatter_plot"),
    "CN": (plot, ("city", "y"), "box_plot"),
    "CC": (plot, ("city", "kind"), "heat_map"),
    "correlation": (plot_correlation, (), "correlation_pearson"),
    "correlation-single": (plot_correlation, ("x",), "correlation_spearman"),
    "correlation-pair": (plot_correlation, ("x", "y"), "correlation_scatter"),
    "missing": (plot_missing, (), "missing_bar_chart"),
    "missing-single": (plot_missing, ("x",), "missing_impact"),
    "missing-pair": (plot_missing, ("x", "y"), "pdf"),
}


def _frame() -> DataFrame:
    rng = np.random.default_rng(7)
    n = 300
    x = rng.normal(10, 2, n)
    return DataFrame({
        "x": [None if rng.random() < 0.2 else float(v) for v in x],
        "y": x * 3 + rng.normal(0, 1, n),
        "z": rng.normal(0, 1, n),
        "city": list(rng.choice(["vancouver", "toronto", "montreal"], n)),
        "kind": list(rng.choice(["detached", "condo"], n)),
    })


@pytest.fixture(scope="module", params=["frame", "scan"])
def source(request, tmp_path_factory):
    frame = _frame()
    if request.param == "frame":
        return frame
    path = tmp_path_factory.mktemp("display") / "data.csv"
    write_csv(frame, path)
    return scan_csv(str(path), chunk_rows=100)


def _same(left, right) -> bool:
    """``==`` that also holds NaN equal to NaN."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    if isinstance(left, dict) and isinstance(right, dict):
        return list(left) == list(right) and all(
            _same(left[key], right[key]) for key in left)
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(map(_same, left, right))
    return left == right


@pytest.mark.filterwarnings("ignore:.*materializ:UserWarning")
@pytest.mark.parametrize("form", list(CALL_FORMS))
def test_display_keeps_exactly_the_named_items(source, form):
    function, columns, item = CALL_FORMS[form]
    full = function(source, *columns, mode="intermediates")
    assert item in full.items
    expected = [name for name in full.items if name in (item, "stats")]

    kept = function(source, *columns, display=[item, "stats"],
                    mode="intermediates")
    assert list(kept.items) == expected
    for name in expected:
        assert _same(kept[name], full[name]), name

    container = function(source, *columns, display=[item, "stats"])
    assert sorted(container.tab_names) == sorted(expected)


def test_display_default_keeps_every_item():
    frame = _frame()
    intermediates = plot(frame, "x", mode="intermediates")
    assert list(intermediates.items) == [
        "stats", "histogram", "kde_plot", "qq_plot", "box_plot"]
    assert plot(frame, "x").tab_names == list(intermediates.items)


def test_display_names_are_case_insensitive():
    kept = plot(_frame(), "x", display=["Histogram", "BOX_PLOT"],
                mode="intermediates")
    assert list(kept.items) == ["histogram", "box_plot"]


def test_display_selecting_nothing_names_the_items():
    with pytest.raises(EDAError) as excinfo:
        plot_correlation(_frame(), display=["pearson"])
    message = str(excinfo.value)
    assert "correlation_pearson" in message and "top_pairs" in message


def test_overview_display_selects_tabs_not_variable_charts():
    frame = _frame()
    kept = plot(frame, display=["variables"], mode="intermediates")
    assert list(kept.items) == ["variables"]
    assert "histogram" in kept["variables"]["y"]
    assert "bar_chart" in kept["variables"]["city"]
    with pytest.raises(EDAError):
        plot(frame, display=["histogram"])


def test_display_drops_the_insights_of_hidden_items(source):
    # x is 20 % missing: the missing insight sits on the stats tab.
    full = plot(source, "x", mode="intermediates")
    assert [insight.item for insight in full.insights
            if insight.kind == "missing"] == ["stats"]
    assert plot(source, "x").insights == full.insights

    kept = plot(source, "x", display=["histogram"], mode="intermediates")
    assert kept.insights == [insight for insight in full.insights
                             if insight.item == "histogram"]
    assert "missing" not in {insight.kind for insight in kept.insights}
    container = plot(source, "x", display=["histogram"])
    assert container.insights == kept.insights
