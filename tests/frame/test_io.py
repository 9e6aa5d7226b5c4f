"""Tests for CSV input/output."""

import io

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
        """The columns ``infer_dtype`` was asked about, as cell lists."""
        from repro.frame import io as io_module
        calls = []

        def counted(values):
            calls.append(list(values))
            return DType.STRING
        monkeypatch.setattr(io_module, "infer_dtype", counted)
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
