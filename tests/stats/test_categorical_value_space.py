"""A categorical summary of a BOOL / INT / FLOAT / DATETIME column keeps its
table on storage values and formats labels only when they are read.  Every
property here compares that value-space path with the text path
(``CategoricalSummary.from_values`` on the decoded values), which is what
the summary meant before: same table, same statistics, same top-k ties,
same pruning and the same texts hashed into the distinct sketch.
"""

from __future__ import annotations

import contextlib
import itertools
import pickle

import naive_reference as naive
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Column, DType
from repro.stats import sketches
from repro.stats.descriptive import CategoricalSummary
from repro.stats.sketches import merge_all

_EPOCH = np.datetime64("1970-01-01T00:00:00", "s")
#: Epoch seconds inside python's ``datetime`` range (years 1-9999) and
#: outside it — year 10000 and later, year 0 and negative years — where a
#: label is the epoch-second count itself.
_SECONDS = [0, 1, 59, 86_400, 1_609_459_200,
            -62_135_596_800,            # 0001-01-01 00:00:00
            253_402_300_799,            # 9999-12-31 23:59:59
            253_402_300_800,            # 10000-01-01 00:00:00
            253_402_300_810, 300_000_000_000,
            -62_135_596_801,            # 0000-12-31 23:59:59
            -62_135_596_810, -62_319_888_000, -100_000_000_000]
_VALUES = {
    DType.INT: st.sampled_from([-100, -10, -9, -1, 0, 1, 9, 10, 100]),
    DType.FLOAT: st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-05, 1e16, 10.0,
                                  9.5, np.inf, -np.inf]),
    DType.BOOL: st.booleans(),
    DType.DATETIME: st.sampled_from(_SECONDS),
}
_STORAGE = {DType.INT: np.int64, DType.FLOAT: np.float64, DType.BOOL: np.bool_}


@st.composite
def value_columns(draw, min_size=0):
    """A non-STRING column with missing slots, built from numpy storage."""
    dtype = draw(st.sampled_from(sorted(_VALUES, key=lambda d: d.value)))
    cells = draw(st.lists(st.one_of(st.none(), _VALUES[dtype]),
                          min_size=min_size, max_size=40))
    mask = np.array([cell is None for cell in cells], dtype=np.bool_)
    filled = [0 if cell is None else cell for cell in cells]
    if dtype is DType.DATETIME:
        data = _EPOCH + np.array(filled, dtype=np.int64).astype("timedelta64[s]")
    else:
        data = np.array(filled, dtype=_STORAGE[dtype])
    return Column.from_storage("c", data, dtype, mask)


def _present(column: Column) -> list:
    """The present values as ``to_list`` decodes them, ``-0.0`` as ``0.0``."""
    return [value + 0.0 if isinstance(value, float) else value
            for value in column.to_list() if value is not None]


def _text(column: Column, capacity=None) -> CategoricalSummary:
    return CategoricalSummary.from_values(
        _present(column), missing=column.missing_count(), capacity=capacity)


def _chunks(column: Column, cuts):
    first, second = sorted(cut % (len(column) + 1) for cut in cuts)
    return [column[:first], column[first:second], column[second:]]


@contextlib.contextmanager
def _recorded_hashes():
    """The sorted texts of every ``hash_texts`` call, in call order."""
    hashed = []
    original = sketches.hash_texts
    sketches.hash_texts = lambda texts: hashed.append(sorted(texts)) or \
        original(texts)
    try:
        yield hashed
    finally:
        sketches.hash_texts = original


def _assert_same_reading(value: CategoricalSummary, text: CategoricalSummary):
    """Everything a caller reads off the two summaries agrees exactly."""
    assert value == text and text == value
    for n in (0, 1, 2, 3, 100):
        assert value.top_values(n) == text.top_values(n)
    assert value.mode() == text.mode()
    assert value.counts_by_label() == text.counts_by_label()
    assert value.labels.tolist() == text.labels.tolist()
    assert value.counts.tolist() == text.counts.tolist()
    assert repr(value.as_dict()) == repr(text.as_dict())


def test_out_of_range_datetimes_are_labelled_by_epoch_seconds():
    seconds = [253_402_300_800, -62_319_888_000, 1_609_459_200]
    column = Column("when", _EPOCH + np.array(seconds).astype("timedelta64[s]"))
    # Outside years 1-9999 numpy decodes a datetime64[s] to its epoch seconds.
    assert column.to_list()[:2] == seconds[:2]
    summary = CategoricalSummary.from_column(column)
    assert summary.labels.tolist() == sorted(
        ["253402300800", "-62319888000", "2021-01-01 00:00:00"])
    assert summary.as_dict()["min_length"] == 12
    _assert_same_reading(summary, _text(column))


@pytest.mark.parametrize("values, top", [
    ([9, 10, 10, 9, 100], [("10", 2), ("9", 2)]),
    ([-1, -10, -9, 5], [("-1", 1), ("-10", 1)]),
])
def test_int_ties_at_the_cut_off_order_by_label(values, top):
    summary = CategoricalSummary.from_column(Column("n", values, DType.INT))
    assert summary.top_values(2) == top == naive.top_values(values, 2)


@given(column=value_columns(), cuts=st.tuples(st.integers(0, 40),
                                              st.integers(0, 40)))
@settings(max_examples=200, deadline=None)
def test_merges_in_every_order_equal_the_text_path(column, cuts):
    chunks = _chunks(column, cuts)
    partials = [CategoricalSummary.from_column(chunk) for chunk in chunks]
    for partial, chunk in zip(partials, chunks):
        _assert_same_reading(partial, _text(chunk))
    whole = _text(column)
    for order in itertools.permutations(partials):
        _assert_same_reading(merge_all(list(order)), whole)
    # A value summary merged with a text summary merges as text.
    texts = [_text(chunk) for chunk in chunks]
    _assert_same_reading(partials[0].merge(texts[1]).merge(partials[2]), whole)
    _assert_same_reading(texts[0].merge(partials[1]).merge(texts[2]), whole)


@given(column=value_columns(), cuts=st.tuples(st.integers(0, 40),
                                              st.integers(0, 40)),
       capacity=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_pruning_keeps_the_text_paths_table_and_sketch(column, cuts, capacity):
    chunks = _chunks(column, cuts)
    for order in itertools.permutations(range(3)):
        with _recorded_hashes() as hashed_by_value:
            value = merge_all([CategoricalSummary.from_column(
                chunks[index], capacity=capacity) for index in order])
        with _recorded_hashes() as hashed_by_text:
            text = merge_all([_text(chunks[index], capacity) for index in order])
        assert hashed_by_value == hashed_by_text
        _assert_same_reading(value, text)
        assert (value.distinct_sketch, value.pruned_count, value.pruned_max) \
            == (text.distinct_sketch, text.pruned_count, text.pruned_max)


@given(column=value_columns(min_size=1), capacity=st.one_of(
    st.none(), st.integers(1, 3)))
@settings(max_examples=100, deadline=None)
def test_pickle_and_equality_ignore_what_has_been_formatted(column, capacity):
    fresh = CategoricalSummary.from_column(column, capacity=capacity)
    read = CategoricalSummary.from_column(column, capacity=capacity)
    before = pickle.dumps(read)
    read.top_values(2)
    read.as_dict()
    read.counts_by_label()
    assert pickle.dumps(read) == before
    assert read == fresh and fresh == read
    loaded = pickle.loads(before)
    assert loaded == fresh
    _assert_same_reading(loaded, _text(column, capacity))
