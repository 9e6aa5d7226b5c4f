"""Dictionary-encoded string columns: representation and kernel contracts.

STRING columns are carried as int32 codes plus a sorted unique-values
dictionary (``-1`` = missing).  The contracts pinned here:

* encode → decode round-trips exactly, including missing slots, empty
  strings and non-ASCII values — and survives the binary sidecar;
* the dictionary is *canonical* (sorted uniques of the present values), so
  concatenating independently encoded parts yields bit-identical codes and
  dictionary to encoding the whole column at once — the invariant streaming
  scans rely on when combining per-chunk dictionaries;
* the codes are the *only* STRING storage — every constructor encodes,
  distinct strings stay distinct (trailing NULs included), and a whole
  ``create_report`` never decodes a column;
* vectorized kernels (value counts, unique, min/max, predicate masks,
  crosstab/groupby, pair counts, summaries, duplicate rows) agree with the
  naive per-row reference in ``tests/naive_reference.py`` for every
  categorical dtype, through row slices and pickling;
* pickled payloads ship codes + dictionary, never the decoded object
  array, and ``memory_bytes`` is O(dictionary) and memoized;
* zone maps record exact bounded distinct sets, so a string-equality
  literal absent from a chunk's dictionary prunes the chunk.
"""

from __future__ import annotations

import operator
import pickle

import naive_reference as naive
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import create_report
from repro.eda.compute.base import _chunk_pair_counts
from repro.frame import ops
from repro.frame.column import Column
from repro.frame.dtypes import (
    DType,
    decode_string_codes,
    encode_string_codes,
    unify_dictionaries,
)
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.predicate import Conjunct
from repro.frame.sidecar import SidecarRoute, load_chunk, store_chunk
from repro.frame.zonemap import chunk_column_stats, zone_map_from_stats
from repro.stats.descriptive import CategoricalSummary

ROUTE = tuple(SidecarRoute())
STAMP = (1234, 5678)

#: Strings that exercise empty values, whitespace, unicode and sort order.
string_values = st.sampled_from(
    ["", "a", "b", "apple", "Apple", "zebra", "x y", "日本語", "0", "-1"])
optional_strings = st.one_of(st.none(), string_values)
string_lists = st.lists(optional_strings, min_size=0, max_size=60)


def _column(values):
    return Column("s", list(values), DType.STRING)


# --------------------------------------------------------------------------- #
# Representation invariants.
# --------------------------------------------------------------------------- #
class TestRepresentation:
    def test_string_columns_encode_by_default(self):
        column = _column(["b", "a", None, "b"])
        assert column.codes.dtype == np.int32
        assert list(column.dictionary) == ["a", "b"]
        assert list(column.codes) == [1, 0, -1, 1]

    def test_adopted_object_arrays_encode(self):
        data = np.array(["b", "a", "", "b"], dtype=object)
        mask = np.array([False, False, True, False])
        column = Column("s", data, DType.STRING, mask)
        assert list(column.dictionary) == ["a", "b"]
        assert list(column.codes) == [1, 0, -1, 1]
        assert column._data is None
        assert column.to_list() == ["b", "a", None, "b"]
        # Every other way to a STRING column lands on the same carrier.
        for other in (Column("s", np.array(["b", "a", "", "b"])),
                      Column("s", [1, 2, 3]).astype(DType.STRING),
                      pickle.loads(pickle.dumps(column))):
            assert other.codes.dtype == np.int32 and other._data is None

    def test_trailing_nul_strings_stay_distinct(self, tmp_path):
        values = ["a\x00", "a", "b"]
        column = Column("s", values)
        assert list(column.dictionary) == ["a", "a\x00", "b"]
        assert column.nunique() == 3
        path = str(tmp_path / "data.csv")
        frame = DataFrame([column])
        assert store_chunk(path, 0, 100, STAMP, frame, ROUTE)
        stored = load_chunk(path, 0, 100, STAMP, ("s",), {"s": DType.STRING},
                            3, ROUTE).column("s")
        merged = concat_rows([frame, DataFrame([Column("s", ["a", "c"])])])
        for other in (pickle.loads(pickle.dumps(column)), stored,
                      merged.column("s")[:3]):
            assert other.to_list() == values

    def test_mask_iff_negative_codes(self):
        column = _column(["x", None, "y", None])
        np.testing.assert_array_equal(column.mask, column.codes < 0)

    @given(values=string_lists)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip(self, values):
        data = np.array(["" if v is None else v for v in values], dtype=object)
        mask = np.array([v is None for v in values], dtype=bool)
        codes, dictionary = encode_string_codes(data, mask)
        assert codes.dtype == np.int32
        # Canonical form: sorted uniques of the present values only.
        assert list(dictionary) == sorted({v for v in values if v is not None})
        np.testing.assert_array_equal(codes < 0, mask)
        decoded = decode_string_codes(codes, dictionary)
        np.testing.assert_array_equal(decoded, data)

    @given(values=string_lists, split=st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_split_equals_whole_column_encoding(self, values, split):
        split = min(split, len(values))
        whole = _column(values) if values else None
        parts = [(part.codes, part.dictionary)
                 for part in (_column(values[:split]), _column(values[split:]))]
        codes, dictionary = unify_dictionaries(parts)
        if whole is None:
            assert codes.size == 0
            return
        np.testing.assert_array_equal(codes, whole.codes)
        np.testing.assert_array_equal(dictionary, whole.dictionary)

    @given(values=string_lists)
    @settings(max_examples=40, deadline=None)
    def test_concat_rows_matches_whole_encoding(self, values):
        if len(values) < 2:
            return
        split = max(1, len(values) // 2)
        combined = concat_rows([DataFrame([_column(values[:split])]),
                                DataFrame([_column(values[split:])])])
        whole = _column(values)
        np.testing.assert_array_equal(combined.column("s").codes, whole.codes)
        np.testing.assert_array_equal(combined.column("s").dictionary,
                                      whole.dictionary)

    def test_slices_and_takes_preserve_encoding(self):
        column = _column(["a", "b", None, "c", "a"])
        for view in (column[1:4], column.take(np.array([0, 3, 4])),
                     column.filter(np.array([1, 0, 1, 1, 0], dtype=bool)),
                     column.dropna(), column.copy()):
            assert view.codes.dtype == np.int32 and view._data is None
        np.testing.assert_array_equal(column[1:4].codes, column.codes[1:4])
        assert column[1:4].dictionary is column.dictionary


# --------------------------------------------------------------------------- #
# Kernel equivalence against the naive per-row reference.
# --------------------------------------------------------------------------- #
_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              ">=": operator.ge}

#: One categorical column per dtype the Figure 2 rules treat as C.
_CATEGORY_POOLS = {
    DType.STRING: ["a", "b", "apple", "Apple", "x y", "日本語", "10", "9"],
    DType.BOOL: [True, False],
    DType.INT: [-1, 0, 2, 9, 10, 33],
}


@st.composite
def categorical_frames(draw):
    """A 3-column frame (two categoricals + a float) that went through a
    row slice — so STRING dictionaries keep unused entries — and, maybe, a
    pickle round trip; plus the python lists it must behave like."""
    n_rows = draw(st.integers(min_value=0, max_value=40))

    def categorical(name):
        dtype = draw(st.sampled_from(sorted(_CATEGORY_POOLS, key=str)))
        pool = st.sampled_from(_CATEGORY_POOLS[dtype])
        values = draw(st.lists(st.one_of(st.none(), pool),
                               min_size=n_rows, max_size=n_rows))
        return Column(name, values, dtype)

    numbers = draw(st.lists(
        st.one_of(st.none(), st.integers(-5, 5).map(float)),
        min_size=n_rows, max_size=n_rows))
    frame = DataFrame([categorical("a"), categorical("b"),
                       Column("v", numbers, DType.FLOAT)])
    start = draw(st.integers(0, n_rows))
    stop = draw(st.integers(start, n_rows))
    frame = frame.slice(start, stop)
    if draw(st.booleans()):
        frame = pickle.loads(pickle.dumps(frame))
    return frame


class TestKernelEquivalence:
    @given(values=string_lists)
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_reference(self, values):
        encoded = _column(values)
        expected = encoded.to_list()
        assert [None if v in (None, "") else v for v in values] == expected
        assert encoded.value_counts() == naive.value_counts(expected)
        assert encoded.nunique() == len(naive.unique(expected))
        assert encoded.unique() == naive.unique(expected)
        assert encoded.min() == naive.minimum(expected)
        assert encoded.max() == naive.maximum(expected)

    @given(frame=categorical_frames(), limit=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_every_categorical_kernel_matches_reference(self, frame, limit):
        a, b, v = (frame.column(name).to_list() for name in "abv")
        for name, values in (("a", a), ("b", b)):
            column = frame.column(name)
            assert column.value_counts() == naive.value_counts(values)
            assert column.unique() == naive.unique(values)
            assert column.nunique() == len(naive.unique(values))
            assert column.min() == naive.minimum(values)
            assert column.max() == naive.maximum(values)
            summary = CategoricalSummary.from_column(column)
            expected = naive.categorical_summary(values)
            assert summary.counts_by_label() == expected.pop("counts")
            assert {key: getattr(summary, key) for key in expected} == expected
            # A slice that keeps its parent's dictionary, pickled or not,
            # fingerprints like a column built fresh from the same values.
            assert column.fingerprint() == \
                Column(name, values, column.dtype).fingerprint()

        rows, cols, counts = ops.crosstab(frame, "a", "b", limit, limit + 1)
        assert (rows, cols, counts.tolist()) == \
            naive.crosstab(a, b, limit, limit + 1)
        expected_groups = naive.grouped_values(a, v, limit)
        groups = ops.grouped_values(frame, "a", "v", max_groups=limit)
        assert [(g, values.tolist()) for g, values in groups] == expected_groups
        for aggregation, reducer in ops.AGGREGATIONS.items():
            np.testing.assert_equal(          # NaN-aware (std of one value)
                ops.groupby_aggregate(frame, "a", "v", aggregation, limit),
                [(g, reducer(np.asarray(values, dtype=np.float64)))
                 for g, values in expected_groups])
        assert _chunk_pair_counts(frame, "a", "b") == naive.pair_counts(a, b)
        assert frame.duplicate_row_count() == \
            naive.duplicate_row_count([a, b, v])

    @given(values=string_lists, literal=string_values,
           op=st.sampled_from(sorted(_OPERATORS)))
    @settings(max_examples=60, deadline=None)
    def test_predicate_mask_matches_reference(self, values, literal, op):
        if not values:
            return
        frame = DataFrame([_column(values)])
        expected = [value is not None and _OPERATORS[op](value, literal)
                    for value in frame.column("s").to_list()]
        assert Conjunct("s", op, literal).mask(frame).tolist() == expected

    def test_equality_on_absent_literal(self):
        frame = DataFrame({"s": ["a", None, "b"]})
        assert list(Conjunct("s", "==", "zzz").mask(frame)) == \
            [False, False, False]
        # != with an absent literal matches every present row, never missing.
        assert list(Conjunct("s", "!=", "zzz").mask(frame)) == \
            [True, False, True]


def test_create_report_never_decodes_string_columns():
    rng = np.random.default_rng(7)
    n_rows = 600
    frame = DataFrame({
        "city": rng.choice(["vancouver", "toronto", "montreal"], n_rows),
        "kind": list(rng.choice(["condo", "detached", None], n_rows)),
        "flag": rng.random(n_rows) < 0.3,
        "rooms": rng.integers(1, 6, n_rows),
        "price": rng.normal(500.0, 90.0, n_rows),
    })
    for config in ({}, {"compute.use_graph": "always",
                        "compute.partition_rows": 200}):
        create_report(frame, config=config).to_html()
        for name in frame.string_columns():
            assert frame.column(name)._data is None, name


# --------------------------------------------------------------------------- #
# Transport: pickle payloads and the binary sidecar.
# --------------------------------------------------------------------------- #
class TestTransport:
    def test_pickle_round_trip_preserves_encoding(self):
        column = _column(["a", None, "b", "a"])
        restored = pickle.loads(pickle.dumps(column))
        np.testing.assert_array_equal(restored.codes, column.codes)
        np.testing.assert_array_equal(restored.dictionary, column.dictionary)
        assert restored.to_list() == column.to_list()

    def test_pickle_ships_codes_not_decoded_strings(self):
        values = [f"category-{i % 8:02d}" for i in range(5_000)]
        column = _column(values)
        assert sorted(column.__getstate__()) == \
            ["codes", "dictionary", "dtype", "mask", "name"]
        encoded_bytes = len(pickle.dumps(column))
        per_row_bytes = len(pickle.dumps(np.array(values, dtype=object)))
        assert encoded_bytes < per_row_bytes / 2
        # Pickling must not materialize the decoded object array.
        assert column._data is None
        pickle.dumps(column)
        assert column._data is None

    @given(values=string_lists)
    @settings(max_examples=25, deadline=None)
    def test_sidecar_round_trips_encoding(self, values, tmp_path_factory):
        if not values:
            return
        directory = tmp_path_factory.mktemp("sidecar")
        path = str(directory / "data.csv")
        frame = DataFrame([_column(values)])
        assert store_chunk(path, 0, 100, STAMP, frame, ROUTE)
        back = load_chunk(path, 0, 100, STAMP, ("s",), {"s": DType.STRING},
                          len(frame), ROUTE)
        assert back is not None
        column = back.column("s")
        np.testing.assert_array_equal(column.codes, frame.column("s").codes)
        np.testing.assert_array_equal(column.dictionary,
                                      frame.column("s").dictionary)
        assert column.to_list() == frame.column("s").to_list()


# --------------------------------------------------------------------------- #
# memory_bytes: O(dictionary) for encoded columns, memoized everywhere.
# --------------------------------------------------------------------------- #
class TestMemoryBytes:
    def test_encoded_footprint_counts_codes_plus_dictionary(self):
        values = ["left", "right"] * 10_000
        encoded = _column(values)
        assert encoded.memory_bytes() < naive.per_row_object_bytes(values) / 3
        # Computing the footprint must not decode the column.
        assert encoded._data is None

    def test_memoized(self):
        column = _column(["a", "b", "a"])
        first = column.memory_bytes()
        assert column._memory_bytes == first
        assert column.memory_bytes() == first


# --------------------------------------------------------------------------- #
# Zone maps: exact distinct sets gate string-equality chunk pruning.
# --------------------------------------------------------------------------- #
class TestZoneMapDistinctSets:
    def test_stats_carry_bounded_distinct_values(self):
        frame = DataFrame({"s": ["b", "a", None, "b"]})
        stats = chunk_column_stats(frame)
        minimum, maximum, nulls, distinct, values = stats["s"]
        assert (minimum, maximum, nulls, distinct) == ("a", "b", 1, 2)
        assert values == ["a", "b"]

    def test_high_cardinality_drops_the_distinct_set(self):
        frame = DataFrame({"s": [f"v{i:04d}" for i in range(400)]})
        values = chunk_column_stats(frame)["s"][4]
        assert values is None

    def test_absent_literal_prunes_chunk(self):
        chunk_a = DataFrame({"s": ["a", "b"]})
        chunk_b = DataFrame({"s": ["c", "d"]})
        zone_map = zone_map_from_stats(
            [chunk_column_stats(chunk_a), chunk_column_stats(chunk_b)],
            STAMP, 2)
        spec = (("s", "==", "c"),)
        assert zone_map.keep_flags(spec) == [False, True]
        # Min/max alone could not prune "b" < "bb" < "c"; the exact
        # distinct set can.
        assert zone_map.keep_flags((("s", "==", "bb"),)) == [False, False]

    def test_range_operators_still_use_min_max(self):
        chunk = DataFrame({"s": ["a", "b"]})
        zone_map = zone_map_from_stats([chunk_column_stats(chunk)], STAMP, 1)
        assert zone_map.keep_flags((("s", ">", "b"),)) == [False]
        assert zone_map.keep_flags((("s", ">=", "b"),)) == [True]
