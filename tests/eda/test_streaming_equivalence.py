"""Streaming (scan_csv) results must match the in-memory path.

Every compute kind is run twice over the same CSV — once on the fully
materialized ``read_csv`` frame, once on the out-of-core ``scan_csv`` handle
split into many small chunks — and the intermediates must agree, with the
cross-call cache enabled and disabled.

One documented divergence is excluded from the comparison:

* ``memory_bytes`` (in-memory footprint vs. on-disk size).

``duplicate_rows`` — historically a second divergence — is now compared
too: the streaming path counts duplicates through the bounded row-hash
``DuplicateSketch`` and must match the in-memory exact scan while the
distinct rows fit its capacity (they do here).

The test dataset stays below every sampling cutoff (scatter, kendall,
reservoir capacities), so even the sample-derived items are bit-comparable.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro import DataFrame, create_report, plot, plot_correlation, plot_missing
from repro.frame.io import read_csv, scan_csv, write_csv
from repro.graph import TaskCache, get_global_cache, set_global_cache

N_ROWS = 2_500
CHUNK_ROWS = 300

#: Dataset-stat keys that legitimately differ between the two modes.
EXCLUDED_KEYS = {"memory_bytes"}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """A CSV with numeric, categorical and missing-heavy columns."""
    rng = np.random.default_rng(99)
    price = rng.normal(250_000, 60_000, N_ROWS)
    price[rng.random(N_ROWS) < 0.08] = np.nan
    size = rng.normal(1_800, 400, N_ROWS)
    rating = rng.integers(1, 6, N_ROWS).astype(float)
    rating[rng.random(N_ROWS) < 0.30] = np.nan
    city = rng.choice(["vancouver", "toronto", "montreal", "calgary"],
                      N_ROWS, p=[0.4, 0.3, 0.2, 0.1])
    kind = rng.choice(["detached", "condo", "townhouse"], N_ROWS)
    # String-column archetypes for the dictionary encoding: high-cardinality
    # (most chunk dictionaries near-distinct), low-cardinality/duplicate-
    # heavy (tiny dictionary, massively repeated codes), plus missing.
    district = [None if missing else f"district-{code:03d}"
                for missing, code in zip(rng.random(N_ROWS) < 0.05,
                                         rng.integers(0, 300, N_ROWS))]
    badge = rng.choice(["standard", "premium"], N_ROWS, p=[0.95, 0.05])
    frame = DataFrame({
        "price": price,
        "size": size,
        "rating": rating,
        "city": list(city),
        "house_type": list(kind),
        "district": district,
        "badge": list(badge),
    })
    path = tmp_path_factory.mktemp("streaming") / "houses.csv"
    write_csv(frame, str(path))
    return str(path)


@pytest.fixture(params=["synchronous", "threaded", "process", "remote"])
def scheduler_name(request):
    """Every registered execution backend; results must not depend on it."""
    return request.param


@pytest.fixture(params=[True, False], ids=["cache-on", "cache-off"])
def cache_config(request, scheduler_name):
    """A fresh process-wide cache per test, toggled on/off via config.

    The sampling cutoffs are lifted above the dataset size so both modes
    retain every row — the in-memory sample and the streaming reservoir are
    then the exact same rows and all sample-derived items are comparable.
    The whole suite is crossed with ``compute.scheduler`` so all three
    execution backends are pinned to identical intermediates.
    """
    previous = get_global_cache()
    set_global_cache(TaskCache())
    yield {"cache.enabled": request.param,
           "compute.scheduler": scheduler_name,
           "compute.max_workers": 2,
           "scatter.sample_size": N_ROWS + 1,
           "correlation.scatter_sample_size": N_ROWS + 1}
    set_global_cache(previous)


def _memory_frame(csv_path):
    return read_csv(csv_path)


def _scan(csv_path):
    return scan_csv(csv_path, chunk_rows=CHUNK_ROWS)


def assert_equivalent(streaming, in_memory, path="items"):
    """Recursive comparison with float tolerance and documented exclusions."""
    if isinstance(in_memory, dict):
        assert isinstance(streaming, dict), path
        keys_memory = set(in_memory) - EXCLUDED_KEYS
        keys_streaming = set(streaming) - EXCLUDED_KEYS
        assert keys_streaming == keys_memory, \
            f"{path}: {keys_streaming ^ keys_memory}"
        for key in keys_memory:
            assert_equivalent(streaming[key], in_memory[key], f"{path}.{key}")
        return
    if isinstance(in_memory, (list, tuple)):
        assert len(streaming) == len(in_memory), path
        for index, (left, right) in enumerate(zip(streaming, in_memory)):
            assert_equivalent(left, right, f"{path}[{index}]")
        return
    if isinstance(in_memory, float) or isinstance(streaming, float):
        left, right = float(streaming), float(in_memory)
        if math.isnan(left) and math.isnan(right):
            return
        assert left == pytest.approx(right, rel=1e-6, abs=1e-9), path
        return
    assert streaming == in_memory, path


def _compare_call(call, csv_path, config):
    streaming = call(_scan(csv_path), config=config)
    in_memory = call(_memory_frame(csv_path), config=config)
    assert_equivalent(streaming.items, in_memory.items)
    streaming_kinds = sorted((i.kind, i.column) for i in streaming.insights)
    memory_kinds = sorted((i.kind, i.column) for i in in_memory.insights)
    assert streaming_kinds == memory_kinds
    return streaming


def test_overview_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot(df, config=config, mode="intermediates")
    _compare_call(call, csv_path, cache_config)


def test_univariate_numeric_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot(df, "price", config=config, mode="intermediates")
    result = _compare_call(call, csv_path, cache_config)
    assert "histogram" in result.items and "qq_plot" in result.items


def test_univariate_categorical_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot(df, "city", config=config, mode="intermediates")
    result = _compare_call(call, csv_path, cache_config)
    assert "bar_chart" in result.items and "pie_chart" in result.items


def test_univariate_high_cardinality_string_equivalent(csv_path, cache_config):
    """Per-chunk dictionaries are near-distinct here; unification at combine
    time must still match the whole-column in-memory encoding."""
    def call(df, config):
        return plot(df, "district", config=config, mode="intermediates")
    _compare_call(call, csv_path, cache_config)


def test_univariate_duplicate_heavy_string_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot(df, "badge", config=config, mode="intermediates")
    _compare_call(call, csv_path, cache_config)


@pytest.mark.parametrize("pair", [("price", "size"),      # N x N
                                  ("city", "price"),      # C x N
                                  ("city", "house_type"),   # C x C
                                  ("district", "badge")])   # C x C, high card
def test_bivariate_equivalent(csv_path, cache_config, pair):
    def call(df, config):
        return plot(df, pair[0], pair[1], config=config, mode="intermediates")
    _compare_call(call, csv_path, cache_config)


def test_correlation_overview_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot_correlation(df, config=config, mode="intermediates")
    result = _compare_call(call, csv_path, cache_config)
    for method in ("pearson", "spearman", "kendall"):
        assert f"correlation_{method}" in result.items


def test_correlation_single_and_pair_equivalent(csv_path, cache_config):
    def single(df, config):
        return plot_correlation(df, "price", config=config, mode="intermediates")

    def pair(df, config):
        return plot_correlation(df, "price", "size", config=config,
                                mode="intermediates")
    _compare_call(single, csv_path, cache_config)
    _compare_call(pair, csv_path, cache_config)


def test_missing_overview_equivalent(csv_path, cache_config):
    def call(df, config):
        return plot_missing(df, config=config, mode="intermediates")
    result = _compare_call(call, csv_path, cache_config)
    for item in ("missing_bar_chart", "missing_spectrum",
                 "nullity_correlation", "nullity_dendrogram"):
        assert item in result.items


def test_missing_single_and_pair_equivalent(csv_path, cache_config):
    def single(df, config):
        return plot_missing(df, "rating", config=config, mode="intermediates")

    def pair(df, config):
        return plot_missing(df, "rating", "price", config=config,
                            mode="intermediates")
    _compare_call(single, csv_path, cache_config)
    _compare_call(pair, csv_path, cache_config)


def test_create_report_equivalent(csv_path, cache_config):
    streaming = create_report(_scan(csv_path), config=cache_config)
    in_memory = create_report(_memory_frame(csv_path), config=cache_config)
    assert streaming.section_names == in_memory.section_names
    for name in in_memory.section_names:
        assert_equivalent(streaming.sections[name].items,
                          in_memory.sections[name].items, path=name)
    assert sorted(streaming.interactions) == sorted(in_memory.interactions)
    for key in in_memory.interactions:
        assert_equivalent(streaming.interactions[key],
                          in_memory.interactions[key], path=f"interactions.{key}")


def test_streaming_repeat_with_warm_cache_is_identical(csv_path):
    """A second streaming run served from the cache must change nothing."""
    previous = get_global_cache()
    set_global_cache(TaskCache())
    try:
        cold = plot(_scan(csv_path), mode="intermediates",
                    config={"cache.enabled": True})
        warm = plot(_scan(csv_path), mode="intermediates",
                    config={"cache.enabled": True})
        assert_equivalent(warm.items, cold.items)
        warm_reports = warm.meta["execution_reports"]
        assert sum(report.cache_hits for report in warm_reports) > 0
    finally:
        set_global_cache(previous)


def test_streaming_releases_partitions(csv_path):
    """The scheduler must free parsed chunks as their sketches finish."""
    previous = get_global_cache()
    set_global_cache(TaskCache())
    try:
        result = plot(_scan(csv_path), mode="intermediates",
                      config={"cache.enabled": False})
        reports = result.meta["execution_reports"]
        assert reports, "streaming run must go through the graph engine"
    finally:
        set_global_cache(previous)


def test_streaming_duplicate_rows_match_exact_scan(tmp_path):
    """A scan with real duplicates must report the exact in-memory count."""
    rng = np.random.default_rng(7)
    base = DataFrame({
        "price": rng.normal(100, 10, 400).round(1),
        "rating": [None if i % 7 == 0 else float(i % 5) for i in range(400)],
        "city": list(rng.choice(["x", "y", "z"], 400)),
    })
    from repro.frame.frame import concat_rows
    duplicated = concat_rows([base, base.slice(0, 120)])
    path = str(tmp_path / "dupes.csv")
    write_csv(duplicated, path)

    expected = read_csv(path).duplicate_row_count()
    assert expected >= 120
    streaming = plot(scan_csv(path, chunk_rows=75), mode="intermediates")
    assert streaming.stats["duplicate_rows"] == expected


def test_missing_single_over_scan_warns_before_materializing(csv_path):
    """The fine-grained missing tasks break the memory bound: they must say
    so (with an estimated size) before falling back to materialization."""
    with pytest.warns(UserWarning, match="materializ"):
        plot_missing(_scan(csv_path), "rating", mode="intermediates")
    with pytest.warns(UserWarning, match="MB estimated"):
        plot_missing(_scan(csv_path), "rating", "price", mode="intermediates")


def test_scan_rejects_unknown_column(csv_path):
    with pytest.raises(Exception):
        plot(_scan(csv_path), "not_a_column", mode="intermediates")


def test_streaming_pair_counts_are_capacity_bounded(csv_path):
    """Two categorical columns over a scan must not accumulate an unbounded
    pair table: the reduction prunes to the streaming capacity."""
    from repro.eda.compute.base import (
        STREAMING_CATEGORY_CAPACITY,
        _chunk_pair_counts,
        _combine_pair_counts_bounded,
    )
    from repro.frame.frame import DataFrame as _DF

    chunk = _DF({"a": [f"a{i}" for i in range(500)],
                 "b": [f"b{i}" for i in range(500)]})
    counts = _chunk_pair_counts(chunk, "a", "b", 100)
    assert len(counts) == 100
    merged = _combine_pair_counts_bounded([counts, counts])
    assert len(merged) <= STREAMING_CATEGORY_CAPACITY
    # And the end-to-end C x C call over a scan still matches in-memory on
    # low-cardinality data (exact below the bound) — covered by
    # test_bivariate_equivalent; here we just confirm the streaming call
    # goes through the bounded reduction without error.
    result = plot(_scan(csv_path), "city", "house_type", mode="intermediates")
    assert "nested_bar_chart" in result.items or "stats" in result.items
