"""Tests for CSV input/output."""

import csv
import io

import naive_reference as naive
import numpy as np
import pytest

from repro.errors import FrameError
from repro.frame import DataFrame, DType, read_csv, write_csv


def roundtrip(frame: DataFrame, **kwargs) -> DataFrame:
    buffer = io.StringIO()
    write_csv(frame, buffer)
    buffer.seek(0)
    return read_csv(buffer, **kwargs)


class TestReadCsv:
    def test_basic_read_with_inference(self):
        text = "a,b,c\n1,x,2020-01-01\n2,y,2021-02-03\n"
        frame = read_csv(io.StringIO(text))
        assert frame.shape == (2, 3)
        assert frame.dtypes["a"] is DType.INT
        assert frame.dtypes["b"] is DType.STRING
        assert frame.dtypes["c"] is DType.DATETIME

    def test_missing_tokens_become_missing(self):
        text = "a,b\n1,\n,x\nNA,y\n"
        frame = read_csv(io.StringIO(text))
        assert frame.column("a").missing_count() == 2
        assert frame.column("b").missing_count() == 1

    def test_dtype_override(self):
        text = "a\n1\n2\n"
        frame = read_csv(io.StringIO(text), dtypes={"a": DType.STRING})
        assert frame.dtypes["a"] is DType.STRING

    def test_no_header_requires_names(self):
        with pytest.raises(FrameError):
            read_csv(io.StringIO("1,2\n"), has_header=False)
        frame = read_csv(io.StringIO("1,2\n3,4\n"), has_header=False,
                         column_names=["x", "y"])
        assert frame.columns == ["x", "y"]
        assert len(frame) == 2

    def test_max_rows(self):
        text = "a\n" + "\n".join(str(index) for index in range(100)) + "\n"
        frame = read_csv(io.StringIO(text), max_rows=10)
        assert len(frame) == 10

    def test_ragged_rows_are_normalised(self):
        text = "a,b\n1,2\n3\n4,5,6\n"
        frame = read_csv(io.StringIO(text))
        assert frame.shape == (3, 2)
        assert frame.column("b").missing_count() == 1

    def test_empty_stream(self):
        frame = read_csv(io.StringIO(""))
        assert frame.shape == (0, 0)

    def test_utf8_byte_order_mark_is_not_in_the_first_name(self, tmp_path):
        """An Excel "CSV UTF-8" export starts with a byte-order mark: every
        reader drops it from the header, and a scan's byte offsets still
        count it."""
        from repro import plot, scan_csv
        text = "id,x\n1,2\n3,4\n"
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(text, encoding="utf-8-sig")
        path = str(tmp_path / "a.csv")
        assert read_csv(path).columns == ["id", "x"]
        one = scan_csv(path)
        both = scan_csv(str(tmp_path / "*.csv"))
        for scan in (one, both):
            assert scan.columns == ["id", "x"]
            assert scan.byte_ranges[0] == (3 + len("id,x\n"), 3 + len(text))
        assert both.to_frame().column("id").to_list() == [1, 3, 1, 3]
        assert plot(one, "id", mode="intermediates",
                    config={"cache.enabled": False}).stats["count"] == 2

    def test_file_round_trip(self, tmp_path, house_frame):
        path = tmp_path / "houses.csv"
        write_csv(house_frame, str(path))
        loaded = read_csv(str(path))
        assert loaded.shape == house_frame.shape
        assert loaded.columns == house_frame.columns


class TestRoundTrip:
    def test_values_and_missing_survive(self, mixed_frame):
        loaded = roundtrip(mixed_frame)
        assert loaded.shape == mixed_frame.shape
        assert loaded.column("ints").missing_count() == 1
        assert loaded.column("strings").to_list()[:3] == ["a", "b", "a"]

    def test_numeric_precision(self):
        frame = DataFrame({"x": [0.1, 1e-7, 123456.789]})
        loaded = roundtrip(frame)
        for original, copied in zip(frame.column("x").to_list(),
                                    loaded.column("x").to_list()):
            assert copied == pytest.approx(original)

    def test_bool_round_trip(self):
        frame = DataFrame({"flag": [True, False, None]})
        loaded = roundtrip(frame)
        assert loaded.dtypes["flag"] is DType.BOOL
        assert loaded.column("flag").to_list() == [True, False, None]

    def test_datetime_round_trip(self, mixed_frame):
        loaded = roundtrip(mixed_frame)
        assert loaded.dtypes["dates"] is DType.DATETIME
        assert loaded.column("dates").missing_count() == 1


class TestUsecolsProjection:
    TEXT = "a,b,c,d\n1,x,2020-01-01,1.5\n2,y,2021-02-03,2.5\n3,z,2022-03-04,3.5\n"

    def test_projected_read_matches_select(self):
        full = read_csv(io.StringIO(self.TEXT))
        projected = read_csv(io.StringIO(self.TEXT), usecols=["d", "a"])
        # File order regardless of the order given.
        assert projected.columns == ["a", "d"]
        assert projected == full.select(["a", "d"])

    def test_projected_dtypes_match_full_inference(self):
        projected = read_csv(io.StringIO(self.TEXT), usecols=["c"])
        assert projected.dtypes["c"] is DType.DATETIME

    def test_unknown_usecols_raises_with_suggestion(self):
        from repro.errors import ColumnNotFoundError
        with pytest.raises(ColumnNotFoundError, match="did you mean 'a'"):
            read_csv(io.StringIO(self.TEXT), usecols=["aa"])

    def test_empty_usecols_rejected(self):
        with pytest.raises(FrameError, match="at least one column"):
            read_csv(io.StringIO(self.TEXT), usecols=[])

    def test_ragged_rows_still_normalized(self):
        text = "a,b,c\n1,x\n2,y,z,extra\n"
        projected = read_csv(io.StringIO(text), usecols=["c"])
        assert projected.column("c").to_list() == [None, "z"]

    def test_parse_csv_range_projection(self, tmp_path, house_frame):
        from repro.frame.io import parse_csv_range, scan_csv
        path = str(tmp_path / "houses.csv")
        write_csv(house_frame, path)
        scan = scan_csv(path, chunk_rows=3)
        byte_start, byte_stop = scan.byte_ranges[0]
        full = parse_csv_range(path, byte_start, byte_stop, scan.columns,
                               scan.dtypes)
        name = scan.columns[0]
        projected = parse_csv_range(path, byte_start, byte_stop, scan.columns,
                                    scan.dtypes, usecols=[name])
        assert projected.columns == [name]
        assert projected == full.select([name])


class TestDtypeKeyValidation:
    def test_read_csv_rejects_unknown_dtype_key(self):
        from repro.errors import ColumnNotFoundError
        with pytest.raises(ColumnNotFoundError, match="did you mean 'a'"):
            read_csv(io.StringIO("a,b\n1,x\n"), dtypes={"aa": DType.FLOAT})

    def test_scan_csv_rejects_unknown_dtype_key(self, tmp_path, house_frame):
        from repro.errors import ColumnNotFoundError
        from repro.frame.io import scan_csv
        path = str(tmp_path / "houses.csv")
        write_csv(house_frame, path)
        with pytest.raises(ColumnNotFoundError, match="did you mean 'price'"):
            scan_csv(path, dtypes={"pricee": DType.FLOAT})

    def test_multifile_scan_rejects_unknown_dtype_key(self, tmp_path):
        from repro.errors import ColumnNotFoundError
        from repro.frame.io import scan_csv
        for name in ("one.csv", "two.csv"):
            write_csv(DataFrame({"alpha": [1.0], "beta": ["x"]}),
                      str(tmp_path / name))
        with pytest.raises(ColumnNotFoundError, match="did you mean 'alpha'"):
            scan_csv([str(tmp_path / "one.csv"), str(tmp_path / "two.csv")],
                     dtypes={"alphaa": DType.FLOAT})

    def test_valid_dtype_keys_still_accepted(self, tmp_path, house_frame):
        from repro.frame.io import scan_csv
        path = str(tmp_path / "houses.csv")
        write_csv(house_frame, path)
        scan = scan_csv(path, dtypes={"price": DType.FLOAT})
        assert scan.dtypes["price"] is DType.FLOAT

    def test_zero_byte_file_has_no_column_to_name(self, tmp_path):
        from repro.errors import ColumnNotFoundError
        from repro.frame.io import scan_csv
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_csv(str(path)).shape == (0, 0)
        assert scan_csv(str(path)).columns == []
        for reader in (read_csv, scan_csv):
            with pytest.raises(ColumnNotFoundError):
                reader(str(path), dtypes={"a": DType.INT})


class TestDecodePaysOnlyForWhatItReturns:
    """Counts, not timings: inference runs for columns nobody named a dtype
    for, and a scan tokenises its preview rows once."""

    TEXT = "n,s,when\n" + "".join(
        f"{i}.5,v{i % 3},2021-01-{i % 28 + 1:02d}\n" for i in range(40))
    DTYPES = {"n": DType.FLOAT, "s": DType.STRING, "when": DType.DATETIME}

    @pytest.fixture
    def inferred(self, monkeypatch):
        """The columns ``decode_cells`` was asked to infer a dtype for, as
        cell lists."""
        from repro.frame import io as io_module
        original = io_module.decode_cells
        calls = []

        def counted(values, dtype=None, lenient=False):
            if dtype is None:
                calls.append(list(values))
            return original(values, dtype, lenient)
        monkeypatch.setattr(io_module, "decode_cells", counted)
        return calls

    @pytest.fixture
    def tokenised(self, monkeypatch):
        """``max_rows`` of every pass over CSV text (None = a chunk parse)."""
        from repro.frame import io as io_module
        original = io_module._read_csv_stream
        calls = []

        def counted(stream, delimiter, has_header, column_names, dtypes,
                    max_rows, *args, **kwargs):
            calls.append(max_rows)
            return original(stream, delimiter, has_header, column_names,
                            dtypes, max_rows, *args, **kwargs)
        monkeypatch.setattr(io_module, "_read_csv_stream", counted)
        return calls

    def _write(self, tmp_path, name="data.csv"):
        path = tmp_path / name
        path.write_text(self.TEXT)
        return str(path)

    def test_chunk_parse_with_a_complete_map_infers_nothing(
            self, tmp_path, inferred):
        from repro.frame.io import _read_csv_slice, parse_csv_range, scan_csv
        scan = scan_csv(self._write(tmp_path), chunk_rows=16,
                        dtypes=self.DTYPES)
        assert inferred == []
        for start, stop in scan.byte_ranges:
            parse_csv_range(scan.path, start, stop, scan.columns, scan.dtypes)
            parse_csv_range(scan.path, start, stop, scan.columns, scan.dtypes,
                            usecols=["s"])
            _read_csv_slice(scan.path, start, stop, tuple(scan.columns),
                            scan.dtypes)
        assert len(scan.to_frame()) == 40
        assert inferred == []

    def test_partial_override_infers_only_the_unnamed_columns(
            self, tmp_path, inferred):
        from repro.frame.io import scan_csv
        scan = scan_csv(self._write(tmp_path), dtypes={"n": DType.FLOAT})
        assert [cells[0] for cells in inferred] == ["v0", "2021-01-01"]
        assert scan.dtypes["n"] is DType.FLOAT
        read_csv(io.StringIO(self.TEXT), dtypes={"s": DType.STRING,
                                                 "when": DType.DATETIME})
        assert [cells[0] for cells in inferred[2:]] == ["0.5"]

    def test_scan_with_overrides_reads_the_preview_rows_once(
            self, tmp_path, tokenised):
        from repro.frame.io import scan_csv
        scan = scan_csv(self._write(tmp_path), dtypes={"n": DType.FLOAT},
                        inference_rows=25)
        assert tokenised == [25]
        assert len(scan.preview) == 25
        assert scan.dtypes == self.DTYPES

    def test_glob_scan_reads_each_files_preview_rows_once(
            self, tmp_path, tokenised, inferred):
        from repro.frame.io import scan_csv
        for name in ("part-0.csv", "part-1.csv", "part-2.csv"):
            self._write(tmp_path, name)
        scan = scan_csv(str(tmp_path / "part-*.csv"), inference_rows=30)
        assert tokenised == [30, 30, 30]
        # Files 2..N are handed file 1's complete map: nothing to infer.
        assert len(inferred) == 3
        assert scan.n_rows == 120


class TestRowsAroundTheTransposeBatch:
    """Blank, short and long rows at and around the transpose batch size
    and the scan's inference window decode like the per-cell reference;
    blank rows count toward ``max_rows``."""

    NAMES = ["i", "f", "s", "when"]
    INFERENCE_ROWS = 1500

    def _rows(self):
        from repro.frame.io import TRANSPOSE_ROWS as seam
        window = self.INFERENCE_ROWS
        count = max(2 * seam, window) + 50
        odd = {0: "short", seam - 2: "long", seam - 1: "blank",
               seam: "short", seam + 1: "blank", 2 * seam - 1: "short",
               2 * seam: "long", window - 2: "blank", window - 1: "blank",
               window: "float", window + 1: "short", count - 1: "blank"}
        rows = []
        for number in range(count):
            row = [str(number), f"{number}.25", f"s{number % 7}",
                   f"2021-01-{number % 28 + 1:02d} 10:00:00"]
            kind = odd.get(number)
            if kind == "blank":
                row = []
            elif kind == "short":
                row = row[:1 + number % 2]
            elif kind == "long":
                row += ["extra", ""]
            elif kind == "float":
                row[0] = "2.5"              # first row past the window
            rows.append(row)
        return rows

    def _expected(self, rows, max_rows=None, dtypes=None):
        columns = naive.decode_rows(rows, len(self.NAMES), max_rows)
        expected = {}
        for name, cells in zip(self.NAMES, columns):
            dtype = dtypes[name] if dtypes else naive.decode_infer(cells)
            expected[name] = (dtype, *naive.decode_column(
                cells, dtype, lenient=dtypes is not None))
        return expected

    def _assert_decodes(self, frame, expected):
        assert frame.columns == self.NAMES
        for name, (dtype, values, mask) in expected.items():
            column = frame.column(name)
            assert column.dtype is dtype
            assert column.mask.tolist() == mask
            if dtype is DType.STRING:
                codes, dictionary = naive.decode_dictionary(values, mask)
                assert column.codes.tolist() == codes
                assert column.dictionary.tolist() == dictionary
            else:                          # bits: NaN == NaN here
                stored = np.array(values, dtype=np.int64 if dtype is
                                  DType.DATETIME else dtype.numpy_dtype())
                assert column.data.tobytes() == stored.tobytes()

    def test_every_reader_decodes_like_the_reference(self, tmp_path):
        from repro.frame.io import scan_csv
        rows = self._rows()
        path = str(tmp_path / "seams.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(self.NAMES)
            writer.writerows(rows)
        whole = self._expected(rows)
        assert whole["i"][0] is DType.FLOAT
        self._assert_decodes(read_csv(path), whole)
        window = self._expected(rows, max_rows=self.INFERENCE_ROWS)
        assert window["i"][0] is DType.INT     # the blank rows are counted
        for chunk_rows in (1, 700):
            scan = scan_csv(path, chunk_rows=chunk_rows,
                            inference_rows=self.INFERENCE_ROWS)
            self._assert_decodes(scan.preview, window)
            self._assert_decodes(scan.to_frame(), self._expected(
                rows, dtypes={name: dtype for name, (dtype, _, _)
                              in window.items()}))

    def test_a_parse_leaves_the_garbage_collector_alone(self):
        """The rows of one batch never fill the collector's first
        generation, so a parse starts no collection: a full collection it
        provoked would land in whatever call came next."""
        import gc
        text = "a,b,c\n" + "".join(f"{n},{n / 4},s{n % 9}\n"
                                    for n in range(5000))
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            read_csv(io.StringIO(text))
        finally:
            gc.callbacks.remove(count)
        assert started == []
