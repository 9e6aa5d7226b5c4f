"""Property-based suite pinning the sketch merge semantics.

For every mergeable sketch: merging the sketches of an *arbitrary* split of
the data equals the sketch of the concatenation — exactly for counts, min,
max and set-like state; within a floating-point tolerance for the derived
moments; deterministically for the randomized sketches (reservoir, KMV).
Empty and all-missing partitions participate like any other partition.

These properties are what make the out-of-core streaming path trustworthy:
the tree reduction may group partitions in any order and shape, so every
grouping must resolve to the same statistics the in-memory path computes.
"""

from __future__ import annotations

import naive_reference as naive
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.association import (
    missing_spectrum,
    nullity_correlation,
    nullity_dendrogram,
)
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.sketches import (
    DistinctSketch,
    MomentsSketch,
    NullitySketch,
    ReservoirSketch,
    StreamingHistogram,
    hash_texts,
    merge_all,
    merge_reservoirs,
)
from repro.frame.frame import DataFrame

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def split_points(values, n_chunks):
    """Split a list into n_chunks contiguous (possibly empty) pieces."""
    return np.array_split(np.asarray(values, dtype=np.float64), n_chunks)


# --------------------------------------------------------------------------- #
# MomentsSketch
# --------------------------------------------------------------------------- #
@given(values=st.lists(finite_floats, min_size=0, max_size=400),
       n_chunks=st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_moments_merge_matches_whole(values, n_chunks):
    whole = MomentsSketch.from_values(np.asarray(values))
    merged = merge_all([MomentsSketch.from_values(chunk)
                        for chunk in split_points(values, n_chunks)])
    assert merged.count == whole.count
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum
    if whole.count:
        assert np.isclose(merged.mean, whole.mean, rtol=1e-9, atol=1e-9)
    if whole.count >= 2:
        assert np.isclose(merged.variance, whole.variance, rtol=1e-6, atol=1e-6)
    if whole.count >= 3 and whole.m2 / whole.count > 1e-12:
        assert np.isclose(merged.skewness, whole.skewness, rtol=1e-4, atol=1e-4)
    if whole.count >= 4 and whole.m2 / whole.count > 1e-12:
        assert np.isclose(merged.kurtosis, whole.kurtosis, rtol=1e-4, atol=1e-4)


@given(values=st.lists(finite_floats, min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_moments_scalar_update_matches_batch(values):
    streamed = MomentsSketch()
    for value in values:
        streamed.update(value)
    batch = MomentsSketch.from_values(np.asarray(values))
    assert streamed.count == batch.count
    assert np.isclose(streamed.mean, batch.mean, rtol=1e-9, atol=1e-9)
    assert np.isclose(streamed.m2, batch.m2, rtol=1e-6, atol=1e-6)


@given(values=st.lists(finite_floats, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_moment_sums_are_the_power_sums_of_the_deviations(values):
    # The kernel multiplies (d*d, d*d*d, (d*d)*(d*d)) where it used to call
    # ``d ** k``: each term may round differently in the last place, so the
    # sums agree to 1e-12 of the magnitude summed.
    array = np.asarray(values)
    sketch = MomentsSketch.from_values(array)
    deltas = array - array.mean()
    for moment, power in ((sketch.m2, 2), (sketch.m3, 3), (sketch.m4, 4)):
        assert abs(moment - np.sum(deltas ** power)) <= \
            1e-12 * np.sum(np.abs(deltas) ** power)


def test_moments_empty_and_nonfinite_partitions():
    empty = MomentsSketch.from_values(np.array([]))
    nan_only = MomentsSketch.from_values(np.array([np.nan, np.inf, -np.inf]))
    data = MomentsSketch.from_values(np.array([1.0, 2.0, 3.0]))
    merged = merge_all([empty, nan_only, data, empty])
    assert merged.count == 3
    assert merged.mean == pytest.approx(2.0)
    assert merged.minimum == 1.0 and merged.maximum == 3.0


# --------------------------------------------------------------------------- #
# NumericSummary (the descriptive adapter over MomentsSketch)
# --------------------------------------------------------------------------- #
@given(values=st.lists(finite_floats, min_size=0, max_size=300),
       missing=st.integers(min_value=0, max_value=50),
       n_chunks=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_numeric_summary_split_invariant_with_missing(values, missing, n_chunks):
    whole = NumericSummary.from_values(np.asarray(values), missing=missing)
    chunks = split_points(values, n_chunks)
    partials = [NumericSummary.from_values(chunk,
                                           missing=missing if index == 0 else 0)
                for index, chunk in enumerate(chunks)]
    merged = merge_all(partials)
    assert merged.count == whole.count
    assert merged.missing == whole.missing
    assert merged.total == whole.total
    assert merged.zeros == whole.zeros
    assert merged.negatives == whole.negatives
    if whole.count:
        assert np.isclose(merged.mean, whole.mean, rtol=1e-9, atol=1e-9)
        assert np.isclose(merged.sum1, whole.sum1, rtol=1e-9, atol=1e-6)
    if whole.count >= 2:
        assert np.isclose(merged.variance, whole.variance, rtol=1e-6, atol=1e-6)


def test_numeric_summary_all_missing_partition():
    all_missing = NumericSummary.from_values(np.array([]), missing=7)
    data = NumericSummary.from_values(np.array([5.0, 10.0]), missing=1)
    merged = all_missing.merge(data)
    assert merged.missing == 8
    assert merged.total == 10
    assert merged.count == 2
    assert merged.mean == pytest.approx(7.5)


# --------------------------------------------------------------------------- #
# StreamingHistogram
# --------------------------------------------------------------------------- #
@given(values=st.lists(finite_floats, min_size=0, max_size=300),
       n_chunks=st.integers(min_value=1, max_value=8),
       bins=st.integers(min_value=1, max_value=40))
@settings(max_examples=50, deadline=None)
def test_streaming_histogram_merge_matches_whole(values, n_chunks, bins):
    low, high = -1e5, 1e5
    whole = StreamingHistogram.from_values(np.asarray(values), bins, low, high)
    merged = merge_all([StreamingHistogram.from_values(chunk, bins, low, high)
                        for chunk in split_points(values, n_chunks)])
    np.testing.assert_array_equal(merged.counts, whole.counts)
    in_range = [v for v in values if low <= v <= high]
    assert whole.total == len(in_range)


def test_streaming_histogram_incremental_update():
    sketch = StreamingHistogram.with_range(4, 0.0, 4.0)
    sketch.update(np.array([0.5, 1.5]))
    sketch.update(np.array([2.5, 3.5, -1.0, 9.0, np.nan]))
    assert sketch.counts.tolist() == [1, 1, 1, 1]


# --------------------------------------------------------------------------- #
# ReservoirSketch
# --------------------------------------------------------------------------- #
@given(values=st.lists(finite_floats, min_size=0, max_size=120),
       n_chunks=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_reservoir_exact_below_capacity(values, n_chunks):
    capacity = max(len(values), 1)
    chunks = split_points(values, n_chunks)
    merged = merge_all([
        ReservoirSketch.from_frame(DataFrame({"x": chunk}), capacity, seed=3)
        for chunk in chunks])
    assert merged.n_seen == len(values)
    assert merged.is_exact
    kept = merged.frame.column("x").to_numpy()
    np.testing.assert_allclose(kept, np.asarray(values, dtype=np.float64))


@given(values=st.lists(finite_floats, min_size=30, max_size=200),
       capacity=st.integers(min_value=5, max_value=25),
       n_chunks=st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_reservoir_bounded_and_drawn_from_input(values, capacity, n_chunks):
    chunks = split_points(values, n_chunks)
    merged = merge_all([
        ReservoirSketch.from_frame(DataFrame({"x": chunk}), capacity, seed=11)
        for chunk in chunks])
    assert merged.n_seen == len(values)
    assert len(merged.frame) == min(capacity, len(values))
    universe = set(np.asarray(values, dtype=np.float64).tolist())
    assert set(merged.frame.column("x").to_numpy().tolist()) <= universe
    # Deterministic: the same merge replays to the same sample.
    replay = merge_all([
        ReservoirSketch.from_frame(DataFrame({"x": chunk}), capacity, seed=11)
        for chunk in chunks])
    np.testing.assert_array_equal(replay.frame.column("x").to_numpy(),
                                  merged.frame.column("x").to_numpy())


def _tagged(tag: float, n_seen: int, capacity: int, seed: int,
            start: int) -> ReservoirSketch:
    """A full reservoir of a stream whose every row is *tag*."""
    held = min(n_seen, capacity)
    return ReservoirSketch(capacity, DataFrame({"s": np.full(held, tag)}),
                           n_seen, seed, start)


def _shares(sketch: ReservoirSketch, n_streams: int) -> np.ndarray:
    tags = sketch.frame.column("s").to_numpy().astype(np.int64)
    return np.bincount(tags, minlength=n_streams)


def _mean_shares(merge, sizes, capacity, n_seeds):
    """Mean rows per stream kept by *merge* over seeds ``0..n_seeds-1``."""
    total = np.zeros(len(sizes))
    for seed in range(n_seeds):
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        streams = [_tagged(tag, size, capacity, seed, int(start))
                   for tag, (size, start) in enumerate(zip(sizes, starts))]
        merged = merge(streams)
        assert len(merged.frame) == capacity
        assert merged.n_seen == sum(sizes)
        total += _shares(merged, len(sizes))
    return total / n_seeds


def _hypergeometric_tolerance(sizes, capacity, n_seeds):
    """Five standard errors of each stream's mean share over *n_seeds*."""
    sizes = np.asarray(sizes, dtype=np.float64)
    whole = sizes.sum()
    variance = capacity * sizes / whole * (1 - sizes / whole) \
        * (whole - capacity) / (whole - 1)
    return 5 * np.sqrt(variance / n_seeds)


def test_reservoir_merge_keeps_a_small_streams_exact_share():
    # 100 rows and 10 rows at capacity 10: the merged sample holds
    # 10 * 10 / 110 = 0.909 rows of the small stream on average.  A merge
    # that weights each held row by the rows it stands for keeps ~1.6.
    sizes, capacity, n_seeds = (100, 10), 10, 2_000
    mean = _mean_shares(merge_reservoirs, sizes, capacity, n_seeds)
    expected = capacity * np.asarray(sizes) / sum(sizes)
    tolerance = _hypergeometric_tolerance(sizes, capacity, n_seeds)
    assert abs(mean[1] - expected[1]) < tolerance[1]      # ±0.10 rows
    # the same through the pairwise form
    pairwise = _mean_shares(lambda pair: pair[0].merge(pair[1]),
                            sizes, capacity, n_seeds)
    assert abs(pairwise[1] - expected[1]) < tolerance[1]


@pytest.mark.parametrize("merge", [
    merge_reservoirs,
    lambda three: merge_reservoirs([three[0].merge(three[1]), three[2]]),
], ids=["k-way", "pairwise-then-k-way"])
def test_reservoir_merge_splits_three_streams_hypergeometrically(merge):
    sizes, capacity, n_seeds = (1_000, 300, 50), 20, 1_000
    mean = _mean_shares(merge, sizes, capacity, n_seeds)
    expected = capacity * np.asarray(sizes) / sum(sizes)
    assert np.all(np.abs(mean - expected)
                  < _hypergeometric_tolerance(sizes, capacity, n_seeds))


def test_reservoir_merge_draws_past_a_billion_rows():
    # numpy's (multivariate_)hypergeometric raises once the total reaches
    # 1e9; the merge draws positions of the concatenation instead.
    sizes, capacity = (10 ** 9, 3 * 10 ** 9, 7), 50
    streams = [_tagged(tag, size, capacity, 0, 0)
               for tag, size in enumerate(sizes)]
    merged = merge_reservoirs(streams)
    assert merged.n_seen == sum(sizes)
    assert len(merged.frame) == capacity
    assert _shares(merged, 3).sum() == capacity


def test_reservoir_merge_replays_the_same_sample():
    frames = [DataFrame({"x": np.arange(start, start + 400, dtype=np.float64)})
              for start in (0, 400, 800)]
    def merged():
        return merge_reservoirs([
            ReservoirSketch.from_frame(frame, 60, seed=5, start=400 * index)
            for index, frame in enumerate(frames)])
    first, second = merged(), merged()
    np.testing.assert_array_equal(first.frame.column("x").to_numpy(),
                                  second.frame.column("x").to_numpy())
    assert len(first.frame) == 60


# --------------------------------------------------------------------------- #
# The label hash and DistinctSketch
# --------------------------------------------------------------------------- #
#: Arbitrary unicode (astral planes included) salted with the cases a
#: fixed-width or NUL-terminated carrier would get wrong.
label_texts = st.text(max_size=12) | st.sampled_from(
    ["", "a", "a\0", "a\0\0", "\0", "\0a", "ab", "abc", "abcd",
     "\U0001F600", "a\U0001F600", "\U0010FFFF\0", "\ud800"])


@given(labels=st.lists(label_texts, min_size=0, max_size=300))
@settings(max_examples=60, deadline=None)
def test_bulk_hash_equals_the_per_label_oracle(labels):
    hashes = hash_texts(labels)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [naive.hash_text(label) for label in labels]


@given(label=st.text(min_size=1, max_size=40), others=st.lists(label_texts))
@settings(max_examples=40, deadline=None)
def test_label_hash_ignores_its_neighbours(label, others):
    """Equal prefixes of different length hash apart, and a label's hash
    does not depend on how long the labels hashed beside it are."""
    prefixes = [label[:stop] for stop in range(len(label) + 1)]
    hashes = hash_texts(prefixes + others)[:len(prefixes)]
    assert len(set(hashes.tolist())) == len(prefixes)
    assert np.array_equal(hashes, hash_texts(prefixes))


@given(values=st.lists(st.integers(min_value=0, max_value=10_000) | label_texts,
                       min_size=0, max_size=400),
       n_chunks=st.integers(min_value=1, max_value=8),
       capacity=st.integers(min_value=4, max_value=64))
@settings(max_examples=50, deadline=None)
def test_distinct_merge_equals_whole_exactly(values, n_chunks, capacity):
    whole = DistinctSketch.from_values(values, capacity=capacity)
    merged = merge_all([DistinctSketch.from_values(list(chunk), capacity=capacity)
                        for chunk in np.array_split(np.asarray(values, dtype=object),
                                                    n_chunks)])
    assert merged.hashes.dtype == np.uint64
    assert np.array_equal(merged.hashes, whole.hashes)
    assert merged == whole
    assert merged.estimate() == whole.estimate()


@given(distinct=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_distinct_exact_below_capacity_and_bounded_error_above(distinct):
    values = [f"value-{index}" for index in range(distinct)]
    sketch = DistinctSketch.from_values(values * 3, capacity=128)
    if distinct <= 128:
        assert sketch.estimate() == distinct
    else:
        assert len(sketch.hashes) == 128
        assert sketch.estimate() == pytest.approx(distinct, rel=0.5)


def test_distinct_estimate_on_sequential_labels():
    """Sequential ids are the adversarial input for a weak fold: adjacent
    labels differ in one or two trailing digits.  The standard error of a
    4096-value KMV estimate is 1.6 %; five of them bound the assertion."""
    labels = [f"id_{index:06d}" for index in range(100_000)]
    assert np.unique(hash_texts(labels)).size == len(labels)
    sketch = DistinctSketch.from_values(labels, capacity=4096)
    assert sketch.saturated
    assert sketch.estimate() == pytest.approx(len(labels), rel=0.08)


# --------------------------------------------------------------------------- #
# Bounded CategoricalSummary (space-bounded counts + distinct sketch)
# --------------------------------------------------------------------------- #
@given(values=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=0, max_size=300),
       split=st.integers(min_value=0, max_value=300),
       capacity=st.integers(min_value=3, max_value=50))
@settings(max_examples=50, deadline=None)
def test_bounded_categorical_count_exact_under_pruning(values, split, capacity):
    values = [f"cat-{v}" for v in values]
    split = min(split, len(values))
    whole = CategoricalSummary.from_values(values, capacity=capacity)
    merged = CategoricalSummary.from_values(values[:split], capacity=capacity) \
        .merge(CategoricalSummary.from_values(values[split:], capacity=capacity))
    exact = CategoricalSummary.from_values(values)
    # Present-value totals and lengths stay exact no matter the pruning.
    for summary in (whole, merged):
        assert summary.count == exact.count
        assert summary.total == exact.total
        assert summary.total_length == exact.total_length
        assert len(summary.counts) <= capacity
    if len(set(values)) <= capacity:
        assert merged.counts_by_label() == exact.counts_by_label()
        assert merged.distinct == exact.distinct


def test_bounded_categorical_distinct_estimate_when_pruned():
    values = [f"unique-{index}" for index in range(5_000)]
    chunks = [values[:2_000], values[2_000:4_000], values[4_000:]]
    merged = merge_all(
        [CategoricalSummary.from_values(chunk, capacity=100) for chunk in chunks])
    assert len(merged.counts) <= 100
    assert merged.count == 5_000
    assert merged.distinct == pytest.approx(5_000, rel=0.1)


@given(values=st.lists(st.integers(min_value=0, max_value=60),
                       min_size=1, max_size=300),
       n_chunks=st.integers(min_value=1, max_value=6),
       capacity=st.integers(min_value=2, max_value=80),
       order=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_bounded_categorical_sketch_is_lazy_and_order_free(values, n_chunks,
                                                           capacity, order):
    """The KMV sketch exists exactly when a label was dropped, and is then
    the sketch of *every* label seen — what building it eagerly per chunk
    gives — whichever order the chunk summaries merge in.  (Which labels
    survive top-k pruning does depend on the order, so only the order-free
    fields are compared.)"""
    values = [f"cat-{value}" for value in values]
    chunks = [list(chunk) for chunk in
              np.array_split(np.asarray(values, dtype=object), n_chunks)]

    def fold(parts):
        return merge_all(
            [CategoricalSummary.from_values(part, capacity=capacity)
             for part in parts])

    shuffled = list(chunks)
    order.shuffle(shuffled)
    truth = len(set(values))
    for summary in (fold(chunks), fold(shuffled), fold([values])):
        assert summary.count == len(values)
        assert summary.distinct == truth         # below the sketch's capacity
        if truth <= capacity:
            assert summary.distinct_sketch is None
            assert summary.pruned_count == 0
            assert summary.distinct == summary.labels.size
            assert summary.counts_by_label() == \
                CategoricalSummary.from_values(values).counts_by_label()
        else:
            assert summary.pruned_count > 0
            assert summary.distinct_sketch == DistinctSketch.from_values(values)


def test_bounded_categorical_merge_hashes_a_sketchless_side():
    """One side pruned, the other never did: the merge covers the second
    side's labels, so the estimate still counts every label seen."""
    pruned = CategoricalSummary.from_values(
        [f"left-{index}" for index in range(300)], capacity=100)
    exact = CategoricalSummary.from_values(
        [f"right-{index}" for index in range(50)], capacity=100)
    unbounded = CategoricalSummary.from_values(["right-1", "other"])
    assert exact.distinct_sketch is None and pruned.distinct_sketch is not None
    for merged in (pruned.merge(exact), exact.merge(pruned)):
        assert merged.distinct == 350
    assert pruned.merge(exact).merge(unbounded).distinct == 351


# --------------------------------------------------------------------------- #
# NullitySketch
# --------------------------------------------------------------------------- #
mask_strategy = st.integers(min_value=1, max_value=120).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.booleans(), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@given(rows=mask_strategy, n_chunks=st.integers(min_value=1, max_value=6),
       n_bins=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_nullity_sketch_split_invariant(rows, n_chunks, n_bins):
    mask = np.asarray(rows, dtype=np.bool_)
    columns = [f"c{index}" for index in range(mask.shape[1])]
    total = mask.shape[0]
    whole = NullitySketch.from_mask(mask, columns, 0, total, n_bins)

    partials = []
    start = 0
    for chunk in np.array_split(mask, n_chunks, axis=0):
        partials.append(NullitySketch.from_mask(chunk, columns, start, total,
                                                n_bins))
        start += chunk.shape[0]
    merged = merge_all(partials)

    np.testing.assert_array_equal(merged.counts, whole.counts)
    np.testing.assert_array_equal(merged.co_counts, whole.co_counts)
    np.testing.assert_array_equal(merged.bin_missing, whole.bin_missing)
    assert merged.n_rows_seen == whole.n_rows_seen == total


@given(rows=mask_strategy)
@settings(max_examples=50, deadline=None)
def test_nullity_sketch_matches_mask_based_statistics(rows):
    mask = np.asarray(rows, dtype=np.bool_)
    columns = [f"c{index}" for index in range(mask.shape[1])]
    sketch = NullitySketch.from_mask(mask, columns, 0, mask.shape[0], n_bins=8)

    # The BLAS (float64) co-occurrence product is the integer one.
    as_int = mask.astype(np.int64)
    assert sketch.co_counts.dtype == sketch.counts.dtype == np.int64
    np.testing.assert_array_equal(sketch.co_counts, as_int.T @ as_int)
    np.testing.assert_array_equal(sketch.counts, as_int.sum(axis=0))

    # Spectrum densities match the mask-based computation bin for bin.
    spectrum = missing_spectrum(mask, columns, n_bins=8)
    np.testing.assert_allclose(sketch.spectrum_densities(), spectrum.densities,
                               atol=1e-12)
    np.testing.assert_array_equal(sketch.bin_edges, spectrum.bin_edges)

    # Closed-form nullity correlation matches the Pearson-on-mask route.
    kept_sketch, matrix_sketch = sketch.nullity_correlation()
    kept_mask, matrix_mask = nullity_correlation(mask, columns)
    assert kept_sketch == kept_mask
    np.testing.assert_allclose(matrix_sketch, matrix_mask, atol=1e-9)

    # Count-derived distances equal the Euclidean distances linkage uses.
    if len(columns) >= 2:
        labels_sketch, _ = nullity_dendrogram(mask, columns)
        from scipy.spatial.distance import pdist
        np.testing.assert_allclose(sketch.nullity_distances(),
                                   pdist(mask.T.astype(np.float64)), atol=1e-9)
        assert labels_sketch == list(columns)


# --------------------------------------------------------------------------- #
# DuplicateSketch
# --------------------------------------------------------------------------- #
small_values = st.integers(min_value=0, max_value=6)


def _duplicate_frame(codes, missing_flags):
    """A two-column frame from small integer codes (forces duplicates)."""
    return DataFrame({
        "number": [None if missing else float(code)
                   for code, missing in zip(codes, missing_flags)],
        "label": [f"v{code % 3}" for code in codes],
    })


@given(codes=st.lists(small_values, min_size=0, max_size=300),
       flags=st.lists(st.booleans(), min_size=300, max_size=300),
       n_chunks=st.integers(min_value=1, max_value=9))
@settings(max_examples=50, deadline=None)
def test_duplicate_sketch_merge_matches_whole(codes, flags, n_chunks):
    from repro.stats.sketches import DuplicateSketch

    frame = _duplicate_frame(codes, flags)
    whole = DuplicateSketch.from_frame(frame)
    splits = np.array_split(np.arange(len(frame)), n_chunks)
    merged = merge_all([
        DuplicateSketch.from_frame(frame.slice(int(part[0]), int(part[-1]) + 1)
                                   if part.size else frame.slice(0, 0))
        for part in splits])
    assert merged.n_rows == whole.n_rows == len(frame)
    assert merged.saturated == whole.saturated
    assert merged.duplicate_count() == whole.duplicate_count()


@given(codes=st.lists(small_values, min_size=1, max_size=300),
       flags=st.lists(st.booleans(), min_size=300, max_size=300))
@settings(max_examples=50, deadline=None)
def test_duplicate_sketch_matches_exact_scan(codes, flags):
    from repro.stats.sketches import DuplicateSketch

    frame = _duplicate_frame(codes, flags)
    sketch = DuplicateSketch.from_frame(frame)
    assert not sketch.saturated
    assert sketch.duplicate_count() == frame.duplicate_row_count()


@given(codes=st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_duplicate_sketch_saturates_instead_of_lying(codes):
    from repro.stats.sketches import DuplicateSketch

    frame = DataFrame({"number": [float(code) for code in codes]})
    bounded = DuplicateSketch.from_frame(frame, capacity=4)
    distinct = len(set(codes))
    if distinct <= 4:
        assert bounded.duplicate_count() == frame.duplicate_row_count()
    else:
        assert bounded.saturated
        assert bounded.duplicate_count() is None
    # Merging a saturated sketch stays saturated (never resurrects a count).
    merged = bounded.merge(DuplicateSketch.from_frame(frame, capacity=4))
    assert merged.n_rows == 2 * len(frame)
    if distinct > 4:
        assert merged.duplicate_count() is None
