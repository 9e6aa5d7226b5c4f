"""CSV cell decode: the batch paths denote what the per-scalar reference does.

``decode_cells`` (behind ``coerce_values`` / ``encode_cells``) parses a
column in C when it can and otherwise falls back to one cell at a time.  A
fast path is a rewriting of the scalar definition and must give the same answers,
so every property here draws a column of text cells and asserts, against the
naive reference in ``tests/naive_reference.py``, an equal inferred dtype and —
under every dtype, strict and lenient — bitwise-equal data (NaN sign and
position included), mask, codes and dictionary, or the same exception type.

The cell families are the ones a batch parse could get wrong: numeric text
(signs, exponents, ``inf``/``nan``, ``_``, beyond int64, beyond 2**53,
non-ASCII digits), every ``DATETIME_FORMATS`` shape plus what only
``strptime`` reads (1-digit months, tabs) and what only numpy reads
(``2021-01``, year 0000, fractions), impossible dates, bool tokens and
missing tokens in case / whitespace variants.
"""

from __future__ import annotations

import io
from datetime import datetime

import naive_reference as naive
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import DTypeError, ReproError
from repro.frame import dtypes as dtypes_module
from repro.frame.dtypes import (
    DATETIME_FORMATS,
    DType,
    coerce_values,
    decode_cells,
    encode_cells,
    encode_string_codes,
    infer_dtype,
)
from repro.frame.io import read_csv

# --------------------------------------------------------------------------- #
# Cell families
# --------------------------------------------------------------------------- #
missing_cells = st.sampled_from(
    ["", " ", "NA", "na ", " N/A", "nan", "NaN", " NAN\t", "null", "NULL",
     "None", "missing", "MISSING", "?", " ? "])

int_cells = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(-2 ** 63 - 3, 2 ** 63 + 3).map(str),
    st.integers(2 ** 53 - 2, 2 ** 53 + 5).map(str),
    st.sampled_from(["0", "1", "+5", "-0", "007", " 12 ", "1_0", "1_000_000",
                     "١٢٣", "９", "9007199254740993", "-9223372036854775808",
                     "9223372036854775807", "9223372036854775808",
                     "99999999999999999999", "1" + "0" * 400,
                     "0" * 4400 + "7"]))

float_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda value: f"{value:.4f}"),
    st.sampled_from(["1.", ".5", "-.5e-3", "1e5", "1E5", "2e+3", "1e400",
                     "-1e400", "1e-400", "inf", "-inf", "+Infinity", "INF",
                     "+nan", "-nan", "1.0", "-0.0", " 3.25\t", "1_0.5",
                     "٣.٥"]))

bool_cells = st.sampled_from(["true", "True", "FALSE", "t", "F", "yes", "No",
                              " y ", "n", "TRUE\t"])


def _iso(moment: datetime, separator: str) -> str:
    return moment.strftime(f"%Y-%m-%d{separator}%H:%M:%S")


moments = st.datetimes(min_value=datetime(1, 1, 1),
                       max_value=datetime(9999, 12, 31, 23, 59, 59))
iso_datetime_cells = st.one_of(
    moments.map(lambda moment: _iso(moment, "T")),
    moments.map(lambda moment: _iso(moment, " ")),
    moments.map(lambda moment: moment.strftime("%Y-%m-%d")))
other_datetime_cells = st.one_of(
    st.tuples(moments, st.sampled_from(DATETIME_FORMATS),
              st.sampled_from(["", "Z", "+02:00", "-0530", "+0000"])).map(
        lambda drawn: drawn[0].strftime(drawn[1].replace("%z", drawn[2]))),
    st.sampled_from([
        "2021-1-5", "2021-1-5 7:8:9", "2021-05-03\t10:00:00",
        "2021-05-03  10:00:00", " 2021-05-03 ", "2021-05-03T10:00:00Z",
        "2021-05-03 10:00:00+02:00", "2021-05-03t10:00:00",
        "2021-02-30", "2021-02-29", "2020-02-29", "2021-13-01", "2021-00-10",
        "2021-01-01T24:00:00", "2021-01-01 00:00:60", "2021-01-01 00:60:00",
        "2021-01", "2021", "0000-01-01", "0000-01-01 00:00:00", "0001-01-01",
        "2021-01-01T00:00", "2021-01-01T00:00:00.5", "20210101",
        "２０２１-０１-０１", "2021-01-01 ", "2021-01-01\n", "31-12-2021",
        "12/31/2021", "2021/12/31"]))

string_cells = st.one_of(
    st.sampled_from(["a", "b", "apple", "Apple", "x y", "日本語", "a\x00",
                     "nap", "1 2", "0x10", "--1", "1e", "e5", "tru"]),
    st.text(max_size=6))

FAMILIES = (int_cells, float_cells, bool_cells, iso_datetime_cells,
            other_datetime_cells, string_cells)


@st.composite
def columns(draw) -> list:
    """Mostly one family (so a batch parse is attempted), some missing cells,
    and now and then a cell of another family (so it must be refused)."""
    family = draw(st.sampled_from(FAMILIES))
    pool = [family, family, family, missing_cells]
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(FAMILIES)))
    return draw(st.lists(st.one_of(*pool), min_size=0, max_size=24))


# --------------------------------------------------------------------------- #
# Comparing storage against the reference's python values
# --------------------------------------------------------------------------- #
def _stored(dtype: DType, values: list) -> np.ndarray:
    if dtype is DType.DATETIME:
        return np.array(values, dtype="int64").astype("datetime64[s]")
    array = np.empty(len(values), dtype=dtype.numpy_dtype())
    array[:] = values
    return array


def _bits(array: np.ndarray):
    """What bitwise equality compares: the raw bytes of fixed-width data,
    the python objects of STRING."""
    return array.tolist() if array.dtype == object else array.tobytes()


def _outcome(function, *args, **kwargs):
    """The call's value, or the class of what it raised."""
    try:
        return function(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - the class *is* the result
        return type(error)


# --------------------------------------------------------------------------- #
# The properties
# --------------------------------------------------------------------------- #
@given(columns())
@example(["0000-01-01"])                   # numpy reads year 0, strptime does not
@example(["2021-01", "2021-02"])
@example(["1", "9223372036854775808"])     # widens to FLOAT
@example(["1", "nan", "NA"])               # "nan" is missing, not a float
@example(["1.5", "yes"])
def test_inferred_dtype_matches_the_reference(cells):
    assert infer_dtype(cells) is naive.decode_infer(cells)
    assert infer_dtype(iter(cells)) is naive.decode_infer(cells)


@given(columns(), st.sampled_from(list(DType)), st.booleans())
@example(["0000-01-01", "2021-01-06"], DType.DATETIME, True)    # numpy only
@example(["2021-01", "2021-01-06"], DType.DATETIME, True)       # numpy only
@example(["2021-1-5", "2021-01-06"], DType.DATETIME, False)     # strptime only
@example(["2021-02-30", "2021-01-06"], DType.DATETIME, True)    # neither
@example(["9007199254740993", "yes"], DType.INT, False)         # exact past 2**53
@example(["9223372036854775808", "1"], DType.INT, True)         # beyond int64
@example(["-0", "nan", "+nan", "-nan", ""], DType.FLOAT, False)
@example(["1.5", " NaN", "+nan"], DType.FLOAT, False)   # missing, yet a float literal
@example(["0\x1f", "1"], DType.FLOAT, False)      # str.strip's whitespace, not float's
def test_coercion_matches_the_reference(cells, dtype, lenient):
    expected = _outcome(naive.decode_column, cells, dtype, lenient)
    actual = _outcome(coerce_values, cells, dtype, lenient=lenient)
    if isinstance(expected, type):
        assert actual is expected
        return
    assert not isinstance(actual, type), actual
    values, mask = expected
    data, actual_mask = actual
    assert actual_mask.dtype == np.bool_ and actual_mask.tolist() == mask
    assert data.dtype == dtype.numpy_dtype()
    assert _bits(data) == _bits(_stored(dtype, values))


@given(columns())
def test_string_encoding_matches_the_reference(cells):
    values, mask = naive.decode_column(cells, DType.STRING, lenient=True)
    codes, dictionary = naive.decode_dictionary(values, mask)
    fused = encode_cells(cells)
    data, coerced_mask = coerce_values(cells, DType.STRING, lenient=True)
    staged = (*encode_string_codes(data, coerced_mask), coerced_mask)
    for actual_codes, actual_dictionary, actual_mask in (fused, staged):
        assert actual_codes.dtype == np.int32
        assert actual_codes.tolist() == codes
        assert actual_dictionary.dtype == object
        assert actual_dictionary.tolist() == dictionary
        assert actual_mask.tolist() == mask


@given(columns(), st.one_of(st.none(), st.sampled_from(list(DType))),
       st.booleans())
@example(["+nan", "NaN", " na "], None, False)
@example(["+nan", "1.5", ""], DType.FLOAT, False)
@example(["1", "9223372036854775808", "NA"], None, False)  # widens to FLOAT
@example(["1", "9223372036854775808"], DType.INT, True)
@example(["0000-01-01", "2021-01-06", ""], None, False)   # numpy only
@example(["0000-01-01", "2021-01-06"], DType.DATETIME, True)
@example(["yes", "No", " ? "], None, False)
@example(["1", "0", "NULL"], None, False)         # numbers before bools
@example(["1", "true"], DType.INT, False)
@example(["", " NA", "nan"], None, False)         # all missing: FLOAT
@example(["1", " nan "], None, False)     # a padded "nan" is missing: INT
@example(["1", " NA", "2"], DType.INT, False)     # a padded token
@example(["1.5", " nan", "+nan"], DType.FLOAT, False)
@example(["2021-01-01", "NA ", ""], None, False)
@example(["1", "nUlL", "MISSING", "N/a"], None, False)   # no whitespace, ASCII
@example(["1", "None", "\u00b5"], None, False)        # non-ASCII text
def test_decode_cells_is_inference_then_coercion(cells, dtype, lenient):
    """The fused routine: the reference's inference (when no dtype is
    given) followed by its coercion, as ``(dtype, data, mask, codes,
    dictionary)``."""
    expected_dtype = naive.decode_infer(cells) if dtype is None else dtype
    expected = _outcome(naive.decode_column, cells, expected_dtype, lenient)
    actual = _outcome(decode_cells, cells, dtype, lenient)
    if isinstance(expected, type):
        assert actual is expected
        return
    assert not isinstance(actual, type), actual
    values, mask = expected
    assert actual.dtype is expected_dtype
    assert actual.mask.dtype == np.bool_ and actual.mask.tolist() == mask
    if expected_dtype is DType.STRING:
        codes, dictionary = naive.decode_dictionary(values, mask)
        assert actual.data is None
        assert actual.codes.dtype == np.int32
        assert actual.codes.tolist() == codes
        assert actual.dictionary.dtype == object
        assert actual.dictionary.tolist() == dictionary
    else:
        assert actual.codes is None and actual.dictionary is None
        assert actual.data.dtype == expected_dtype.numpy_dtype()
        assert _bits(actual.data) == _bits(_stored(expected_dtype, values))


@given(columns(), st.integers(0, 24))
def test_a_cell_does_not_depend_on_its_chunk(cells, cut):
    """Bit-identical across chunkings: coercing two row ranges apart equals
    coercing them together, under the dtype the whole column infers."""
    dtype = infer_dtype(cells)
    whole, whole_mask = coerce_values(cells, dtype, lenient=True)
    parts = [coerce_values(part, dtype, lenient=True)
             for part in (cells[:cut], cells[cut:])]
    assert _bits(np.concatenate([data for data, _ in parts])) == _bits(whole)
    assert np.concatenate([mask for _, mask in parts]).tolist() == \
        whole_mask.tolist()


@given(columns())
def test_read_csv_decodes_like_the_reference(cells):
    """The whole cell→column step: tokenise, infer, coerce, encode."""
    text = "".join(f'"{cell.replace(chr(34), chr(34) * 2)}",x\n'
                   for cell in cells)
    frame = read_csv(io.StringIO(text, newline=""), has_header=False,
                     column_names=["a", "pad"])
    dtype = naive.decode_infer(cells)
    values, mask = naive.decode_column(cells, dtype, lenient=False)
    column = frame.column("a")
    assert column.dtype is dtype
    if dtype is DType.FLOAT:
        # The Column constructor masks every NaN, a parsed "+nan" included.
        mask = [missing or value != value
                for value, missing in zip(values, mask)]
    assert column.mask.tolist() == mask
    if dtype is DType.STRING:
        codes, dictionary = naive.decode_dictionary(values, mask)
        assert column.codes.tolist() == codes
        assert column.dictionary.tolist() == dictionary
    else:
        assert _bits(column.data) == _bits(_stored(dtype, values))


# --------------------------------------------------------------------------- #
# Every branch of guess → verify → fall back, pinned by example
# --------------------------------------------------------------------------- #
class TestBatchPathsAreTakenAndRefused:
    """Which columns stay in C and which go cell by cell."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        calls = []
        original = dtypes_module._coerce_scalar

        def counted(value, dtype):
            calls.append(value)
            return original(value, dtype)
        monkeypatch.setattr(dtypes_module, "_coerce_scalar", counted)
        return calls

    @pytest.mark.parametrize("cells, dtype", [
        (["1", "2", ""], DType.INT),
        (["1.5", "NA", "nan", "+nan", "1e400"], DType.FLOAT),
        (["1.5", "nan", "-nan"], DType.FLOAT),
        (["2021-01-01", "2021-01-01 10:00:00", "?"], DType.DATETIME),
        (["2021-01-01T10:00:00"] * 3, DType.DATETIME),
        (["a", "", "b"], DType.STRING),
        (["1", " NA", ""], DType.INT),           # a padded token
        (["1.5", " nan", "2"], DType.FLOAT),
        (["2021-01-01", "? ", "NULL"], DType.DATETIME),
    ])
    def test_clean_columns_never_reach_the_scalar_coercion(
            self, scalar_calls, cells, dtype):
        assert infer_dtype(cells) is dtype
        coerce_values(cells, dtype)
        assert scalar_calls == []

    @pytest.mark.parametrize("cells, dtype", [
        (["1", "yes"], DType.INT),                   # a bool token
        (["1", "9223372036854775808", "x"], DType.INT),
        (["1.5", "no"], DType.FLOAT),
        (["2021-1-5", "2021-01-06"], DType.DATETIME),         # strptime only
        (["2021-01", "2021-01-06"], DType.DATETIME),          # numpy only
        (["0000-01-01", "2021-01-06"], DType.DATETIME),       # numpy only
        (["2021-02-30", ""], DType.DATETIME),                 # nobody
        (["true", "x"], DType.BOOL),
    ])
    def test_any_other_cell_sends_the_column_to_the_scalar_path(
            self, scalar_calls, cells, dtype):
        expected = naive.decode_column(cells, dtype, lenient=True)
        data, mask = coerce_values(cells, dtype, lenient=True)
        assert mask.tolist() == expected[1]
        assert _bits(data) == _bits(_stored(dtype, expected[0]))
        assert scalar_calls

    def test_non_text_values_take_the_scalar_path(self, scalar_calls):
        data, mask = coerce_values(["1", 2, None], DType.INT)
        assert data.tolist() == [1, 2, 0] and mask.tolist() == [0, 0, 1]
        assert scalar_calls == ["1", 2]
        codes, dictionary, mask = encode_cells(["b", 1, None])
        assert dictionary.tolist() == ["1", "b"]
        assert codes.tolist() == [1, 0, -1] and mask.tolist() == [0, 0, 1]

    def test_empty_columns(self):
        assert infer_dtype([]) is DType.FLOAT
        codes, dictionary, mask = encode_cells([])
        assert codes.size == dictionary.size == mask.size == 0


class TestIntegersBeyondInt64:
    """Satellite bugs: a file must never abort a read with a raw
    ``OverflowError``, and a cell must not depend on its chunk-mates."""

    def test_out_of_range_integer_text_widens_to_float(self):
        frame = read_csv(io.StringIO("a\n99999999999999999999\n1\n"))
        assert frame.dtypes == {"a": DType.FLOAT}
        assert frame.column("a").to_list() == [1e20, 1.0]

    def test_out_of_range_python_int_widens_to_float(self):
        assert infer_dtype([2 ** 63, 1]) is DType.FLOAT
        assert infer_dtype([2 ** 63 - 1, -2 ** 63]) is DType.INT

    def test_strict_int_override_raises_a_repro_error(self):
        with pytest.raises(ReproError):
            read_csv(io.StringIO("a\n99999999999999999999\n"),
                     dtypes={"a": DType.INT})
        with pytest.raises(DTypeError):
            coerce_values([2 ** 63], DType.INT)

    def test_integers_past_2_53_are_exact_on_both_paths(self):
        exact = 9007199254740993
        for chunk_mate in ("1", "1_0", "yes"):   # "yes": the scalar path
            data, _ = coerce_values([str(exact), chunk_mate], DType.INT)
            assert data[0] == exact
