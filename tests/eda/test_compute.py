"""Tests of the Compute module's numeric correctness and pipeline behaviour."""

import dataclasses
import math

import numpy as np
import pytest

from repro.eda.compute import (
    ComputeContext,
    compute_bivariate,
    compute_correlation_overview,
    compute_correlation_pair,
    compute_missing_overview,
    compute_missing_pair,
    compute_missing_single,
    compute_overview,
    compute_univariate,
)
from repro.eda.config import Config
from repro.errors import ColumnNotFoundError, EDAError
from repro.frame import DataFrame
from repro.graph.scheduler import RunStats


@pytest.fixture
def config():
    return Config.from_user()


class TestOverview:
    def test_dataset_statistics(self, house_frame, config):
        intermediates = compute_overview(house_frame, config)
        stats = intermediates.stats
        assert stats["n_rows"] == len(house_frame)
        assert stats["n_columns"] == 5
        assert stats["n_numerical"] == 3
        assert stats["n_categorical"] == 2
        assert stats["missing_cells"] == sum(house_frame.missing_counts().values())
        assert 0 <= stats["missing_cells_rate"] <= 1

    def test_variable_entries_have_stats(self, house_frame, config):
        intermediates = compute_overview(house_frame, config)
        for name in house_frame.columns:
            assert "stats" in intermediates["variables"][name]


class TestUnivariate:
    def test_numeric_statistics_match_column(self, house_frame, config):
        intermediates = compute_univariate(house_frame, "size", config)
        column = house_frame.column("size")
        assert intermediates.stats["mean"] == pytest.approx(column.mean())
        assert intermediates.stats["std"] == pytest.approx(column.std())
        assert intermediates.stats["min"] == pytest.approx(column.min())
        assert intermediates.stats["max"] == pytest.approx(column.max())
        assert intermediates.stats["missing"] == column.missing_count()

    def test_histogram_total_equals_present_count(self, house_frame, config):
        intermediates = compute_univariate(house_frame, "price", config)
        histogram = intermediates["histogram"]
        assert sum(histogram["counts"]) == house_frame.column("price").count()
        assert len(histogram["edges"]) == len(histogram["counts"]) + 1

    def test_hist_bins_config_is_respected(self, house_frame):
        config = Config.from_user({"hist.bins": 17})
        intermediates = compute_univariate(house_frame, "price", config)
        assert len(intermediates["histogram"]["counts"]) == 17

    def test_quantiles_are_ordered(self, house_frame, config):
        stats = compute_univariate(house_frame, "price", config).stats
        assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]

    def test_categorical_counts_match_value_counts(self, house_frame, config):
        intermediates = compute_univariate(house_frame, "city", config)
        bar = intermediates["bar_chart"]
        expected = dict(house_frame.column("city").value_counts())
        assert dict(zip(bar["categories"], bar["counts"])) == \
            {key: expected[key] for key in bar["categories"]}
        pie = intermediates["pie_chart"]
        assert sum(pie["counts"]) == house_frame.column("city").count()

    def test_word_frequencies_lowercase_option(self):
        frame = DataFrame({"text": ["Alpha Beta", "alpha", "BETA beta"]})
        lowered = compute_univariate(frame, "text", Config.from_user())
        words = dict(zip(lowered["word_frequencies"]["words"],
                         lowered["word_frequencies"]["counts"]))
        assert words["alpha"] == 2
        assert words["beta"] == 3

    def test_unknown_column_raises_with_suggestion(self, house_frame, config):
        with pytest.raises(ColumnNotFoundError) as excinfo:
            compute_univariate(house_frame, "prices", config)
        assert "price" in str(excinfo.value)


class TestBivariate:
    def test_nn_correlation_matches_direct(self, house_frame, config):
        intermediates = compute_bivariate(house_frame, "size", "price", config)
        both = house_frame.column("size").notna() & house_frame.column("price").notna()
        x = house_frame.column("size").filter(both).to_numpy()
        y = house_frame.column("price").filter(both).to_numpy()
        expected = np.corrcoef(x, y)[0, 1]
        assert intermediates.stats["pearson_correlation"] == pytest.approx(expected,
                                                                           abs=1e-9)

    def test_scatter_sample_size_respected(self, house_frame):
        config = Config.from_user({"scatter.sample_size": 50})
        intermediates = compute_bivariate(house_frame, "size", "price", config)
        assert len(intermediates["scatter_plot"]["x"]) <= 50

    @pytest.mark.parametrize("in_x, in_y", [
        ([np.inf], []), ([], [-np.inf]), ([np.inf, -np.inf], [np.inf]),
    ])
    def test_nn_keeps_only_rows_finite_in_both_columns(self, config, in_x, in_y):
        """``notna`` does not mask ``inf``; ``np.histogram2d`` used to raise
        "autodetected range ... is not finite" on the first one."""
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 200)
        y = 3 * x + rng.normal(0, 0.1, 200)
        x[:len(in_x)] = in_x
        y[10:10 + len(in_y)] = in_y
        y[20] = np.nan
        frame = DataFrame({"x": x, "y": y})
        finite = np.isfinite(x) & np.isfinite(y)

        scatter = compute_bivariate(frame, "x", "y", config)
        assert scatter["scatter_plot"]["x"] == x[finite].tolist()
        assert scatter["scatter_plot"]["y"] == y[finite].tolist()
        assert scatter.stats["sampled_points"] == int(finite.sum())
        assert np.isfinite(scatter["hexbin_plot"]["x_edges"]).all()
        assert np.sum(scatter["hexbin_plot"]["counts"]) == finite.sum()

        pair = compute_correlation_pair(frame, "x", "y", config)
        assert pair["correlation_scatter"]["x"] == x[finite].tolist()
        assert pair.stats["regression_slope"] == pytest.approx(3.0, abs=0.05)

    def test_nn_without_a_finite_pair_degrades_to_empty_charts(self, config):
        frame = DataFrame({"x": [np.inf, 1.0, np.nan, -np.inf] * 30,
                           "y": [1.0, np.inf, 2.0, np.nan] * 30})
        scatter = compute_bivariate(frame, "x", "y", config)
        assert scatter["scatter_plot"]["x"] == []
        assert scatter["hexbin_plot"]["counts"] == []
        assert scatter["binned_box_plot"] == {"bins": [], "boxes": []}
        pair = compute_correlation_pair(frame, "x", "y", config)
        assert pair.stats["sampled_points"] == 0

    def test_cn_box_plot_groups(self, house_frame, config):
        intermediates = compute_bivariate(house_frame, "city", "size", config)
        boxes = intermediates["box_plot"]["boxes"]
        categories = {box["category"] for box in boxes}
        assert categories <= set(house_frame.column("city").unique())
        for box in boxes:
            assert box["q1"] <= box["median"] <= box["q3"]

    def test_cc_heat_map_counts(self, house_frame, config):
        intermediates = compute_bivariate(house_frame, "city", "house_type", config)
        heat = intermediates["heat_map"]
        total = sum(sum(row) for row in heat["counts"])
        both = house_frame.column("city").notna() & \
            house_frame.column("house_type").notna()
        assert total == int(both.sum())


class TestCorrelationAndMissing:
    def test_correlation_requires_two_numeric_columns(self, config):
        frame = DataFrame({"only": [1.0, 2.0, 3.0], "cat": ["a", "b", "c"]})
        with pytest.raises(EDAError):
            compute_correlation_overview(frame, config)

    def test_correlation_matrix_is_symmetric(self, house_frame, config):
        intermediates = compute_correlation_overview(house_frame, config)
        matrix = np.asarray(intermediates["correlation_pearson"]["matrix"])
        assert np.allclose(matrix, matrix.T, equal_nan=True)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_missing_overview_counts(self, house_frame, config):
        intermediates = compute_missing_overview(house_frame, config)
        bar = intermediates["missing_bar_chart"]
        counts = dict(zip(bar["columns"], bar["missing_counts"]))
        assert counts == house_frame.missing_counts()

    def test_missing_single_row_counts(self, house_frame, config):
        intermediates = compute_missing_single(house_frame, "price", config)
        stats = intermediates.stats
        assert stats["missing_rows"] == house_frame.column("price").missing_count()
        assert stats["rows_after_drop"] == len(house_frame) - stats["missing_rows"]

    def test_missing_impact_categories_follow_value_counts(self, config):
        """STRING, INT and BOOL blocks list the top values by descending
        count, ties in label order, as ``Column.value_counts`` does."""
        rng = np.random.default_rng(3)
        n = 300
        frame = DataFrame({
            "target": [None if rng.random() < 0.3 else 1.0 for _ in range(n)],
            "text": list(rng.choice(["b", "a", "c", "d"], n)),
            "ints": rng.integers(0, 6, n),
            "flags": list(rng.random(n) < 0.4),
        })
        dropped = frame.filter(frame.column("target").notna())
        impact = compute_missing_single(frame, "target", config)["missing_impact"]
        top = config.get("bar.top_words")
        for name in ("text", "ints", "flags"):
            before = frame.column(name).value_counts()[:top]
            after = dict(dropped.column(name).value_counts())
            assert impact[name] == {
                "type": "categorical",
                "categories": [str(value) for value, _ in before],
                "before_counts": [count for _, count in before],
                "after_counts": [after.get(value, 0) for value, _ in before],
            }, name

    def test_missing_impact_labels_datetimes_like_plot(self, config):
        rng = np.random.default_rng(5)
        n = 200
        frame = DataFrame({
            "x": [None if rng.random() < 0.2 else float(v)
                  for v in rng.normal(size=n)],
            "when": [f"2021-03-0{day} {hour:02d}:00:00" for day, hour in
                     zip(rng.integers(1, 5, n), rng.integers(0, 3, n))],
        })
        bar = compute_univariate(frame, "when", config)["bar_chart"]
        impact = compute_missing_pair(frame, "x", "when", config)["missing_impact"]
        assert impact["categories"] == bar["categories"]
        assert impact["before_counts"] == bar["counts"]
        assert not any("T" in label for label in impact["categories"])


def _identical(left, right, path="result"):
    """Exact structural equality: ``==`` on every leaf, no tolerance; the
    only concession is that NaN equals NaN."""
    if isinstance(left, float) and isinstance(right, float) \
            and math.isnan(left) and math.isnan(right):
        return
    assert type(left) is type(right), f"{path}: {type(left)} vs {type(right)}"
    if dataclasses.is_dataclass(left):
        left, right = dataclasses.asdict(left), dataclasses.asdict(right)
    if isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            _identical(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (one, other) in enumerate(zip(left, right)):
            _identical(one, other, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert np.array_equal(left, right, equal_nan=True), path
    else:
        assert left == right, f"{path}: {left!r} != {right!r}"


@pytest.fixture(scope="module")
def ragged_frame() -> DataFrame:
    """Numerical and categorical columns with missing cells, plus an
    all-missing column and a constant column."""
    rng = np.random.default_rng(7)
    n = 600
    size = rng.normal(2000, 350, n)
    price = size * 150 + rng.normal(0, 20_000, n)
    price[rng.random(n) < 0.1] = np.nan
    rooms = rng.normal(4, 1.5, n)
    rooms[rng.random(n) < 0.25] = np.nan
    city = [None if missing else name for missing, name in zip(
        rng.random(n) < 0.05,
        rng.choice(["vancouver", "toronto", "montreal", "calgary"], n))]
    return DataFrame({
        "size": size, "price": price, "rooms": rooms, "city": city,
        "house_type": list(rng.choice(["detached", "condo", "townhouse"], n)),
        "empty": [None] * n,
        "constant": [1.0] * n,
    })


#: The nine task shapes of Figure 2 the compute layer implements.
TASK_SHAPES = {
    "overview": lambda frame, config: compute_overview(frame, config),
    "univariate-N": lambda frame, config: compute_univariate(frame, "price", config),
    "univariate-C": lambda frame, config: compute_univariate(frame, "city", config),
    "bivariate-NN": lambda frame, config: compute_bivariate(
        frame, "size", "price", config),
    "bivariate-NC": lambda frame, config: compute_bivariate(
        frame, "price", "city", config),
    "bivariate-CC": lambda frame, config: compute_bivariate(
        frame, "city", "house_type", config),
    "correlation-overview": lambda frame, config: compute_correlation_overview(
        frame, config),
    "missing-overview": lambda frame, config: compute_missing_overview(
        frame, config),
    "missing-single": lambda frame, config: compute_missing_single(
        frame, "price", config),
}


class TestPipelineModes:
    @pytest.mark.parametrize("shape", sorted(TASK_SHAPES))
    def test_local_stage_is_the_graph_plan_run_inline(self, ragged_frame, shape):
        """``compute.use_graph="never"`` evaluates the very plans the graph
        stage binds, so against one partition every number is identical —
        not close: equal."""
        local = TASK_SHAPES[shape](
            ragged_frame, Config.from_user({"compute.use_graph": "never"}))
        graph = TASK_SHAPES[shape](
            ragged_frame, Config.from_user({
                "compute.use_graph": "always",
                "compute.partition_rows": len(ragged_frame)}))
        assert not local.meta["execution_reports"]
        # missing-single aligns rows on the whole frame in either mode.
        assert graph.meta["execution_reports"] or shape == "missing-single"
        _identical(local.items, graph.items, "items")
        _identical(local.stats, graph.stats, "stats")
        _identical(local.insights, graph.insights, "insights")

    def test_graph_mode_records_stage_timings(self, house_frame):
        config = Config.from_user({"compute.use_graph": "always",
                                   "compute.partition_rows": 100})
        intermediates = compute_overview(house_frame, config)
        assert "precompute_chunk_sizes" in intermediates.timings
        assert "graph" in intermediates.timings
        assert "local" in intermediates.timings

    def test_context_reports_sharing(self, house_frame):
        config = Config.from_user({"compute.use_graph": "always",
                                   "compute.partition_rows": 100})
        context = ComputeContext(house_frame, config)
        compute_overview(house_frame, config, context=context)
        assert context.reports, "the graph stage should have produced execution reports"
        assert all(type(report) is RunStats for report in context.reports)

    def test_each_batch_report_is_the_schedulers_last_run(self, house_frame):
        config = Config.from_user({"compute.use_graph": "always",
                                   "compute.partition_rows": 100,
                                   "compute.scheduler": "synchronous"})
        context = ComputeContext(house_frame, config)
        scheduler = context.scheduler
        compute_overview(house_frame, config, context=context)
        assert context.scheduler is scheduler     # built once per context
        assert context.reports[-1] is scheduler.last_run
        assert all(report.shared_tasks >= 0 and
                   report.tasks_before_optimization
                   == report.planned + report.shared_tasks
                   for report in context.reports)
        with pytest.raises(TypeError):
            ComputeContext(house_frame, config, engine="lazy")


class TestProjectionPlanner:
    """The planner is a pure function of (column names, projections already
    built, requests): no source, no scheduler, nothing executes."""

    COLUMNS = ["a", "b", "c", "d", "e"]

    def plan(self, requests, built=()):
        from repro.eda.compute.base import _plan_projections
        return _plan_projections(self.COLUMNS, list(built), requests)

    def test_overlapping_requests_merge_into_one_projection(self):
        # a-b and b-c overlap on b; the shared group is emitted once, in
        # source column order whatever order the requests named them in.
        assert self.plan([("b", "a"), ("c", "b")]) == [("a", "b", "c")] * 2

    def test_a_late_request_can_bridge_two_earlier_groups(self):
        assert self.plan([("a",), ("c",), ("c", "a")]) == [("a", "c")] * 3

    def test_disjoint_groups_stay_apart(self):
        assert self.plan([("a",), ("d", "e"), ("a",)]) == \
            [("a",), ("d", "e"), ("a",)]

    def test_whole_row_request_collapses_the_batch_to_full_width(self):
        assert self.plan([("a",), None, ("e",)]) == [None, None, None]
        assert self.plan([tuple(self.COLUMNS)]) == [None]

    def test_narrower_request_reuses_the_narrowest_built_superset(self):
        built = [None, ("a", "b", "c"), ("a", "b")]
        assert self.plan([("a",)], built) == [("a", "b")]
        assert self.plan([("c",)], built) == [("a", "b", "c")]
        assert self.plan([("e",)], built) == [None]      # only full covers e
        assert self.plan([("a", "b")], built) == [("a", "b")]   # exact match
        assert self.plan([("e",)], [("a", "b")]) == [("e",)]    # nothing covers

    def test_unknown_or_empty_names_fall_back_to_full_width(self):
        assert self.plan([("a", "nope")]) == [None]
        assert self.plan([()]) == [None]
        # ... and drag every request they touch (all of them) with them.
        assert self.plan([("a",), ("nope",)]) == [None, None]

    def test_planning_is_pure(self):
        built, requests = [("a", "b")], [("a",), ("d",)]
        first = self.plan(requests, built)
        assert first == self.plan(requests, built) == [("a", "b"), ("d",)]
        assert built == [("a", "b")] and requests == [("a",), ("d",)]

    def test_context_plans_through_the_pure_planner(self, house_frame, tmp_path):
        """A batch plan feeds the planner the source's column names, the
        partition sets already built and the requests' declared columns;
        the context's resolve runs exactly what its plan built."""
        from repro.eda.compute.base import plan_batch
        from repro.frame.io import scan_csv, write_csv
        path = tmp_path / "houses.csv"
        write_csv(house_frame, str(path))
        context = ComputeContext(scan_csv(str(path)), Config.from_user())
        pending = context.numeric_summary("price")
        assert pending.required == ("price",)
        first = plan_batch(context.call, context.source, {}, {"summary": pending})
        assert list(first.partitions) == [("price",)]
        second = plan_batch(context.call, context.source, first.partitions, {
            "again": context.histogram("price", 10, 0.0, 1.0),
            "other": context.numeric_summary("size")})
        assert list(second.partitions) == [("price",), ("size",)]
        assert second.partitions[("price",)] is first.partitions[("price",)]
        context.resolve({"summary": pending})
        assert context.views(context.reports)["projection"][
            "projected_parse_tasks"] == \
            first.partitions[("price",)].npartitions == \
            context.reports[-1].projected_parses
