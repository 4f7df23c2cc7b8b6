"""Tests for CSV ingestion, scaling, window construction and splitting."""

import random
import tracemalloc

import numpy as np
import pytest

from oracles import row_wise_load_csv
from synth import write_wind_csv
from windcast import data
from windcast.data import (
    CsvSchema,
    Scaler,
    apply_column,
    apply_scaler,
    chronological_split,
    fit_scaler,
    invert_column,
    load_csv,
    make_lag_windows,
    make_nwp_set,
)
from windcast.errors import (
    DataError,
    ToolkitError,
    EmptyDataError,
    InsufficientDataError,
    IntegrityError,
    ParseError,
    SchemaError,
    ShapeError,
)
from windcast.data import SupervisedSet


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


SCHEMA = CsvSchema(timestamp_col="timestamp", target_col="power", feature_cols=("ws",))


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "timestamp,power,ws",
                "2021-01-01T00:00:00,1.5,3.0",
                "2021-01-01T00:15:00,2.5,4.0",
            ],
        )
        frame = load_csv(path, SCHEMA)
        assert len(frame) == 2
        assert frame.target_name == "power"
        np.testing.assert_allclose(frame.target, [1.5, 2.5])
        np.testing.assert_allclose(frame.features["ws"], [3.0, 4.0])
        assert frame.timestamps.tolist() == [b"2021-01-01T00:00:00", b"2021-01-01T00:15:00"]

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "timestamp,power,ws",
                "2021-01-01T01:00:00,2.0,4.0",
                "2021-01-01T00:00:00,1.0,3.0",
            ],
        )
        frame = load_csv(path, SCHEMA)
        np.testing.assert_allclose(frame.target, [1.0, 2.0])
        assert frame.timestamps[0] < frame.timestamps[1]

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "other,timestamp,power,ws",
                "x,2021-01-01T00:00:00,1.0,3.0",
            ],
        )
        frame = load_csv(path, SCHEMA)
        assert len(frame) == 1

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["timestamp,power", "2021-01-01T00:00:00,1.0"],
        )
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError) as excinfo:
            load_csv(str(tmp_path / "nope.csv"), SCHEMA)
        assert excinfo.value.exit_code == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyDataError):
            load_csv(str(path), SCHEMA)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["timestamp,power,ws"])
        with pytest.raises(EmptyDataError):
            load_csv(path, SCHEMA)

    def test_bad_number_reports_row(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "timestamp,power,ws",
                "2021-01-01T00:00:00,1.0,3.0",
                "2021-01-01T00:15:00,oops,4.0",
            ],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv(path, SCHEMA)
        assert "row 3" in str(excinfo.value)

    def test_bad_timestamp_reports_row(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["timestamp,power,ws", "not-a-time,1.0,3.0"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_csv(path, SCHEMA)
        assert "row 2" in str(excinfo.value)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            ["timestamp,power,ws", "2021-01-01T00:00:00,nan,3.0"],
        )
        with pytest.raises(ParseError):
            load_csv(path, SCHEMA)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            [
                "timestamp,power,ws",
                "2021-01-01T00:00:00,1.0,3.0",
                "2021-01-01T00:00:00,2.0,4.0",
            ],
        )
        with pytest.raises(IntegrityError) as excinfo:
            load_csv(path, SCHEMA)
        assert excinfo.value.exit_code == 3


def write_bytes(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def assert_same_frame(got, want):
    assert got.timestamps.dtype.kind == "S" and got.timestamps.shape == (len(want),)
    assert got.timestamps.tolist() == [t.isoformat().encode() for t in want.timestamps]
    assert got.target_name == want.target_name
    assert list(got.features) == list(want.features)
    for a, b in zip((got.target, *got.features.values()), (want.target, *want.features.values())):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def load_outcome(loader, path, schema=SCHEMA):
    try:
        loader(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return None


VALID_CSVS = {
    "crlf": "timestamp,power,ws\r\n2021-01-01T00:00:00,1.5,3.0\r\n2021-01-01T00:15:00,2.5,4.0\r\n",
    "blank_lines": "timestamp,power,ws\n\n2021-01-01T00:00:00,1.5,3.0\n\n\n2021-01-01T00:15:00,2.5,4.0\n\n",
    "quoted": (
        'timestamp,power,ws,note\n'
        '"2021-01-01T00:00:00","1.5",3.0,"a, ""b"""\n'
        '2021-01-01T00:15:00,2.5,"4.0","two\nlines"\n'
    ),
    "extra_reordered": "ws,x,power,y,timestamp\n3.0,a,1.5,b,2021-01-01T00:00:00\n4.0,c,2.5,d,2021-01-01T00:15:00\n",
    "hash_in_cell": "timestamp,power,ws,note\n2021-01-01T00:00:00,1.5,3.0,#1\n2021-01-01T00:15:00,2.5,4.0,a#b\n",
    "padded_exponent": (
        "timestamp,power,ws\n"
        "2021-01-01T00:00:00, 1.5 ,\t3e0\n"
        "2021-01-01T00:15:00,-2.5E-3,+4.\n"
        "2021-01-01T00:30:00,.5e+2 ,1e-320\n"
    ),
    "unsorted": (
        "timestamp,power,ws\n"
        "2021-01-01T00:30:00,3.0,6.0\n2021-01-01T00:00:00,1.0,4.0\n"
        "2021-01-01T00:45:00,4.0,7.0\n2021-01-01T00:15:00,2.0,5.0\n"
    ),
    "tz_aware": (
        "timestamp,power,ws\n"
        "2021-01-01T01:00:00+01:00,1.0,3.0\n2021-01-01T00:15:00+00:00,2.0,4.0\n"
        "2021-01-01T00:30:00Z,3.0,5.0\n"
    ),
    "cr_only": "timestamp,power,ws\r2021-01-01T00:00:00,1.5,3.0\r2021-01-01T00:15:00,2.5,4.0\r",
}

MALFORMED_CSVS = {
    "bad_number": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n2021-01-01T00:15:00,oops,4.0\n",
    "empty_cell": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,\n",
    "bad_timestamp": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\nnot-a-time,1.0,3.0\n",
    "nan": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n2021-01-01T00:15:00,nan,4.0\n",
    "overflow": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,1e400\n",
    "ragged": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n2021-01-01T00:15:00,2.0\n",
    "whitespace_line": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n   \n",
    "header_only": "timestamp,power,ws\n",
    "blank_lines_only": "timestamp,power,ws\n\n\n",
    "empty": "",
    "duplicate_after_sort": (
        "timestamp,power,ws\n"
        "2021-01-01T00:30:00,3.0,6.0\n2021-01-01T00:00:00,1.0,4.0\n2021-01-01T00:30:00,4.0,7.0\n"
    ),
    "missing_column": "timestamp,power\n2021-01-01T00:00:00,1.0\n",
    "two_errors": "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\nbad,1.0,3.0\n2021-01-01T00:30:00,x,3.0\n",
    "error_after_blank_line": "timestamp,power,ws\n\n2021-01-01T00:00:00,1.0,x\n",
}


class TestBulkReaderMatchesRowWise:
    @pytest.mark.parametrize("name", sorted(VALID_CSVS))
    def test_valid_input(self, tmp_path, name):
        path = write_bytes(tmp_path / "a.csv", VALID_CSVS[name])
        assert_same_frame(load_csv(path, SCHEMA), row_wise_load_csv(path, SCHEMA))

    def test_synthetic_file(self, tmp_path):
        path = str(tmp_path / "wind.csv")
        write_wind_csv(path, n_rows=3000, seed=20240)
        schema = CsvSchema("timestamp", "power", ("WS10", "WD10", "WS100", "WD100"))
        assert_same_frame(load_csv(path, schema), row_wise_load_csv(path, schema))

    @pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
    def test_malformed_input(self, tmp_path, name):
        path = write_bytes(tmp_path / "a.csv", MALFORMED_CSVS[name])
        want = load_outcome(row_wise_load_csv, path)
        assert want is not None
        assert load_outcome(load_csv, path) == want

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.csv")
        assert load_outcome(load_csv, path) == load_outcome(row_wise_load_csv, path)

    def test_underscore_in_number_rejected(self, tmp_path):
        # float() reads "1_0" as 10.0; numpy's reader does not, so neither
        # does the loader
        path = write_bytes(
            tmp_path / "a.csv",
            "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n2021-01-01T00:15:00,1_0,4.0\n",
        )
        with pytest.raises(ParseError, match="row 3: bad number"):
            load_csv(path, SCHEMA)

    def test_mixed_timezone_awareness_rejected(self, tmp_path):
        path = write_bytes(
            tmp_path / "a.csv",
            "timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n"
            "2021-01-01T00:15:00,2.0,4.0\n2021-01-01T00:30:00+00:00,3.0,5.0\n",
        )
        with pytest.raises(ParseError, match="row 4: timezone-aware timestamp"):
            load_csv(path, SCHEMA)

    def test_oversized_cell_before_a_bad_row_is_parse_error(self, tmp_path):
        # numpy's reader takes the 200,000-character cell in the unused
        # column; the row walk's csv reader stops there, over its field limit
        path = write_bytes(
            tmp_path / "a.csv",
            "timestamp,power,ws,note\n2021-01-01T00:00:00,1.0,3.0," + "x" * 200_000 + "\n"
            "2021-01-01T00:15:00,oops,4.0,\n",
        )
        with pytest.raises(ParseError, match="line 2: field larger than field limit"):
            load_csv(path, SCHEMA)

    def test_oversized_header_cell_is_parse_error(self, tmp_path):
        path = write_bytes(
            tmp_path / "a.csv",
            "timestamp,power,ws," + "x" * 200_000 + "\n2021-01-01T00:00:00,1.0,3.0,\n",
        )
        with pytest.raises(ParseError, match="line 1: field larger than field limit") as excinfo:
            load_csv(path, SCHEMA)
        assert excinfo.value.exit_code == 3

    def test_invalid_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"timestamp,power,ws\n2021-01-01T00:00:00,1.0,3.0\n2021-01-01T00:15:00,\xff,4.0\n")
        with pytest.raises(DataError, match="not valid UTF-8") as excinfo:
            load_csv(str(path), SCHEMA)
        assert type(excinfo.value) is DataError

    def test_valid_files_skip_the_row_walk(self, tmp_path, monkeypatch):
        def row_walk(*args):
            raise AssertionError("the row-by-row walk ran on a valid file")

        monkeypatch.setattr(data, "_raise_first_bad_row", row_walk)
        schema = CsvSchema("timestamp", "power", ("WS10", "WD10", "WS100", "WD100"))
        plain = tmp_path / "wind.csv"
        write_wind_csv(str(plain), n_rows=3000, seed=20240)
        text = plain.read_text(encoding="utf-8")
        crlf = write_bytes(tmp_path / "crlf.csv", text.replace("\n", "\r\n"))
        quoted = write_bytes(
            tmp_path / "quoted.csv",
            "\n".join(",".join(f'"{c}"' for c in line.split(",")) for line in text.splitlines()),
        )
        for path in (str(plain), crlf, quoted):
            assert_same_frame(load_csv(path, schema), row_wise_load_csv(path, schema))


def canonical_csv(stamps):
    rows = [f"{t},{i}.5,{2 * i}.25" for i, t in enumerate(stamps)]
    return "timestamp,power,ws\n" + "\n".join(rows) + "\n"


def quarter_hours(n):
    from datetime import datetime, timedelta

    return [(datetime(2021, 1, 1) + timedelta(minutes=15 * i)).isoformat() for i in range(n)]


QUARTER_HOURS = quarter_hours(12)

# Files at the edge of the canonical check, most of them left to the
# per-row parse; each loads as the loader with that check off and the
# row-wise reference load it, or fails with their message.
EDGE_CSVS = {
    "space_separator": canonical_csv(["2021-01-01 00:00:00", "2021-01-01 00:15:00"]),
    "zero_fraction": canonical_csv(["2021-01-01T00:00:00.000000", "2021-01-01T00:15:00"]),
    "fraction": canonical_csv(["2021-01-01T00:00:00.123456", "2021-01-01T00:15:00"]),
    "utc_offset": canonical_csv(["2021-01-01T00:00:00+00:00", "2021-01-01T00:15:00+00:00"]),
    "z_suffix": canonical_csv(["2021-01-01T00:00:00Z", "2021-01-01T00:15:00Z"]),
    "32_chars": canonical_csv(["2021-01-01T00:00:00.000000+00:00",
                               "2021-01-01T00:15:00.000000+01:00"]),
    "35_chars": canonical_csv(["2021-01-01T00:00:00.000000+00:00:00",
                               "2021-01-01T00:15:00.000000+00:00:00"]),
    "non_latin1_separator": canonical_csv(["2021-01-01\u219200:00:00", "2021-01-01T00:15:00"]),
    "latin1_separator": canonical_csv(["2021-01-01\u00e900:00:00", "2021-01-01T00:15:00"]),
    "feb_29_2023": canonical_csv(["2023-02-28T00:00:00", "2023-02-29T00:00:00"]),
    "feb_29_2024": canonical_csv(["2024-02-28T00:00:00", "2024-02-29T00:00:00"]),
    "hour_24": canonical_csv(["2021-01-01T23:00:00", "2021-01-01T24:00:00"]),
    "year_0": canonical_csv(["0000-01-01T00:00:00", "0001-01-01T00:00:00"]),
    "month_13": canonical_csv(["2021-12-01T00:00:00", "2021-13-01T00:00:00"]),
    "unsorted": canonical_csv(["2021-01-01T00:30:00", "2021-01-01T00:00:00",
                               "2021-01-01T00:15:00"]),
    "duplicate": canonical_csv(["2021-01-01T00:00:00", "2021-01-01T00:15:00",
                                "2021-01-01T00:15:00"]),
    "trailing_nul": canonical_csv(["2021-01-01T00:00:00\x00", "2021-01-01T00:15:00"]),
    "padded": canonical_csv([" 2021-01-01T00:00:00", "2021-01-01T00:15:00 "]),
    "infinite_value": canonical_csv(QUARTER_HOURS).replace("1.5,", "inf,"),
    "bad_number_in_block_2": canonical_csv(quarter_hours(5000)).replace(",4500.5,", ",oops,"),
    # the first row of the second 4,096-row block is earlier than the last
    # row of the first
    "unsorted_across_blocks": canonical_csv(
        [f"{1000 + i:04d}-06-15T12:00:00" for i in range(4096)]
        + ["1000-06-15T11:00:00"] + [f"{5096 + i:04d}-06-15T12:00:00" for i in range(10)]
    ),
}


def text_outcome(path):
    """load_csv's frame as bytes and text, or its error."""
    try:
        frame = load_csv(path, SCHEMA)
    except Exception as exc:
        return type(exc), str(exc)
    return (frame.timestamps.tolist(), frame.timestamps.dtype.str,
            frame.target.tobytes(), frame.features["ws"].tobytes())


def general_outcome(monkeypatch, path):
    """text_outcome with the canonical check turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(data, "_canonical_text", lambda *args: None)
        return text_outcome(path)


class TestCanonicalTimestamps:
    def test_canonical_file_skips_the_per_row_parse(self, tmp_path, monkeypatch):
        class NoParse:
            @staticmethod
            def fromisoformat(text):
                raise AssertionError("a canonical file was parsed row by row")

        path = write_bytes(tmp_path / "a.csv", canonical_csv(QUARTER_HOURS))
        want = row_wise_load_csv(path, SCHEMA)
        monkeypatch.setattr(data, "datetime", NoParse)
        frame = load_csv(path, SCHEMA)
        assert_same_frame(frame, want)
        assert frame.timestamps.dtype == np.dtype("S19")

    def test_synthetic_file_is_canonical(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wind.csv")
        write_wind_csv(path, n_rows=9000, seed=3)
        schema = CsvSchema("timestamp", "power", ("WS10", "WD10", "WS100", "WD100"))
        want = row_wise_load_csv(path, schema)
        monkeypatch.setattr(data, "datetime", None)
        assert_same_frame(load_csv(path, schema), want)

    @pytest.mark.parametrize("name", sorted(EDGE_CSVS))
    def test_edge_files_load_as_the_general_path_loads_them(self, tmp_path, monkeypatch, name):
        path = write_bytes(tmp_path / "a.csv", EDGE_CSVS[name])
        assert text_outcome(path) == general_outcome(monkeypatch, path)
        try:
            want = row_wise_load_csv(path, SCHEMA)
        except Exception as exc:
            assert load_outcome(load_csv, path) == (type(exc), str(exc))
        else:
            assert_same_frame(load_csv(path, SCHEMA), want)

    def test_unreadable_cell_goes_to_the_general_path_not_the_row_walk(
        self, tmp_path, monkeypatch
    ):
        # a bytes field cannot hold the arrow, so numpy's one-pass read fails
        def row_walk(*args):
            raise AssertionError("the row-by-row walk ran on a valid file")

        path = write_bytes(tmp_path / "a.csv", EDGE_CSVS["non_latin1_separator"])
        want = row_wise_load_csv(path, SCHEMA)
        monkeypatch.setattr(data, "_raise_first_bad_row", row_walk)
        assert_same_frame(load_csv(path, SCHEMA), want)

    def test_a_nul_byte_leaves_the_fast_path(self, tmp_path, monkeypatch):
        # numpy's bytes field drops a cell's trailing NULs; where
        # fromisoformat rejects them, as this stand-in does, so does load_csv
        from datetime import datetime

        class NoNul:
            @staticmethod
            def fromisoformat(text):
                if "\0" in text:
                    raise ValueError(f"Invalid isoformat string: {text!r}")
                return datetime.fromisoformat(text)

        monkeypatch.setattr(data, "datetime", NoNul)
        path = write_bytes(tmp_path / "a.csv", EDGE_CSVS["trailing_nul"])
        with pytest.raises(ParseError, match="row 2: bad timestamp"):
            load_csv(path, SCHEMA)

    @pytest.mark.parametrize("name, reads", [
        ("canonical", 1), ("space_separator", 1), ("utc_offset", 1), ("tz_aware", 1),
        ("32_chars", 2), ("non_latin1_separator", 2), ("trailing_nul", 1),
    ])
    def test_reads_per_file(self, tmp_path, monkeypatch, name, reads):
        # a second read only where the bytes field cannot hold the cells: a
        # cell that fills it or that it rejects; a NUL skips the bytes read
        texts = {**EDGE_CSVS, "canonical": canonical_csv(QUARTER_HOURS),
                 "tz_aware": VALID_CSVS["tz_aware"]}
        path = write_bytes(tmp_path / "a.csv", texts[name])
        read_cells, calls = data._read_cells, []

        def counted(*args, **kwargs):
            calls.append(args)
            return read_cells(*args, **kwargs)

        monkeypatch.setattr(data, "_read_cells", counted)
        text_outcome(path)
        assert len(calls) == reads

    def test_block_check_matches_fromisoformat(self):
        from datetime import datetime

        rng = np.random.default_rng(20)
        n = 120_000
        years = np.where(rng.random(n) < 0.5, rng.integers(0, 10_000, n),
                         rng.choice([0, 1, 4, 100, 400, 1900, 2000, 2023, 2024, 9999], n))
        fields = zip(years.tolist(), rng.integers(0, 14, n).tolist(),
                     rng.integers(0, 33, n).tolist(), rng.integers(0, 26, n).tolist(),
                     rng.integers(0, 62, n).tolist(), rng.integers(0, 62, n).tolist())
        texts = [f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}"
                 for y, mo, d, h, mi, s in fields]
        # one cell in ten has one character swapped for another printable one
        for i in np.flatnonzero(rng.random(n) < 0.1).tolist():
            at, char = int(rng.integers(0, 19)), chr(int(rng.integers(32, 127)))
            texts[i] = texts[i][:at] + char + texts[i][at + 1:]
        cells = np.array(texts, dtype="S32")
        ok = data._canonical(cells.view(np.uint8).reshape(n, 32))

        def parse(text):
            try:
                stamp = datetime.fromisoformat(text)
            except ValueError:
                return None
            return stamp if stamp.isoformat() == text else None

        stamps = [parse(text) for text in texts]
        want = np.array([stamp is not None for stamp in stamps])
        assert want.sum() > n // 4 and (~want).sum() > n // 4
        assert np.array_equal(ok, want)
        # canonical cells sort by their bytes as by their times
        good = [stamp for stamp in stamps if stamp is not None]
        by_bytes = np.argsort(cells[ok], kind="stable")
        by_time = sorted(range(len(good)), key=good.__getitem__)
        assert by_bytes.tolist() == by_time

    def test_load_allocates_no_whole_column_scratch(self, tmp_path):
        path = str(tmp_path / "wind.csv")
        n = 20_000
        write_wind_csv(path, n_rows=n, seed=4)
        schema = CsvSchema("timestamp", "power", ("WS10", "WD10", "WS100", "WD100"))
        tracemalloc.start()
        try:
            frame = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.timestamps.dtype == np.dtype("S19")
        # 151 bytes a row: the one-pass table (72), the columns (40), the
        # text (19) and the check's 4,096-row scratch (about 0.4 MB); a
        # whole-column int64 array of the 14 digits would add 112
        assert peak < 180 * n, peak


BOM_CSVS = {
    "canonical": canonical_csv(QUARTER_HOURS),
    "quoted": VALID_CSVS["quoted"],
    "tz_aware": VALID_CSVS["tz_aware"],
    "32_chars": EDGE_CSVS["32_chars"],
    "duplicate": EDGE_CSVS["duplicate"],
    "bad_number": MALFORMED_CSVS["bad_number"],
    "header_only": MALFORMED_CSVS["header_only"],
}


@pytest.mark.parametrize("name", sorted(BOM_CSVS))
def test_a_byte_order_mark_is_skipped(tmp_path, name):
    # Excel's "CSV UTF-8" export starts a file with one
    path = tmp_path / "a.csv"
    want = text_outcome(write_bytes(path, BOM_CSVS[name]))
    path.write_bytes(b"\xef\xbb\xbf" + BOM_CSVS[name].encode("utf-8"))
    assert text_outcome(str(path)) == want


class TestScaler:
    def test_fit_records_min_max(self):
        frame = _frame(target=[1.0, 5.0, 3.0], ws=[10.0, 20.0, 15.0])
        scaler = fit_scaler(frame)
        assert scaler.columns["power"] == (1.0, 5.0)
        assert scaler.columns["ws"] == (10.0, 20.0)

    def test_apply_maps_to_unit_interval(self):
        frame = _frame(target=[1.0, 5.0, 3.0], ws=[10.0, 20.0, 15.0])
        scaler = fit_scaler(frame)
        scaled = apply_scaler(frame, scaler)
        np.testing.assert_allclose(scaled.target, [0.0, 1.0, 0.5])
        np.testing.assert_allclose(scaled.features["ws"], [0.0, 1.0, 0.5])

    def test_round_trip_tight(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.normal(0.0, 50.0, size=64)
            frame = _frame(target=values, ws=rng.uniform(0, 30, size=64))
            scaler = fit_scaler(frame)
            fwd = apply_column(scaler, "power", values)
            back = invert_column(scaler, "power", fwd)
            np.testing.assert_allclose(back, values, atol=1e-12)

    def test_constant_column_maps_to_zeros(self):
        frame = _frame(target=[2.0, 2.0, 2.0], ws=[1.0, 2.0, 3.0])
        scaler = fit_scaler(frame)
        np.testing.assert_array_equal(apply_column(scaler, "power", frame.target), 0.0)

    def test_dict_round_trip(self):
        frame = _frame(target=[1.0, 5.0], ws=[10.0, 20.0])
        scaler = fit_scaler(frame)
        again = Scaler.from_dict(scaler.to_dict())
        assert again.columns == scaler.columns

    def test_empty_frame_rejected(self):
        frame = _frame(target=[], ws=[])
        with pytest.raises(EmptyDataError):
            fit_scaler(frame)


class TestLagWindows:
    def test_documented_example_horizon_one(self):
        sset = make_lag_windows([1, 2, 3, 4, 5, 6], lag=3, horizon=1)
        np.testing.assert_array_equal(sset.x[0], [1.0, 2.0, 3.0])
        assert sset.y[0] == 4.0
        assert len(sset) == 3
        assert sset.feature_names == ("lag_3", "lag_2", "lag_1")

    def test_documented_example_horizon_two(self):
        sset = make_lag_windows([1, 2, 3, 4, 5, 6], lag=3, horizon=2)
        np.testing.assert_array_equal(sset.x[0], [1.0, 2.0, 3.0])
        assert sset.y[0] == 5.0
        assert len(sset) == 2

    def test_sample_count_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(5, 200))
            lag = int(rng.integers(1, 5))
            horizon = int(rng.integers(1, 4))
            if n - lag - horizon + 1 < 1:
                continue
            sset = make_lag_windows(rng.normal(size=n), lag=lag, horizon=horizon)
            assert len(sset) == n - lag - horizon + 1

    def test_no_future_leakage(self):
        # On an increasing ramp every feature must precede its target.
        values = np.arange(50.0)
        for horizon in (1, 2, 3):
            sset = make_lag_windows(values, lag=4, horizon=horizon)
            assert np.all(sset.x.max(axis=1) < sset.y)
            # most recent lag is exactly `horizon` steps before delivery
            np.testing.assert_array_equal(sset.y - sset.x[:, -1], float(horizon))

    def test_target_indices_point_at_frame_rows(self):
        values = np.arange(10.0) * 2.0
        sset = make_lag_windows(values, lag=3, horizon=1)
        np.testing.assert_array_equal(values[sset.target_indices], sset.y)

    def test_windows_are_a_read_only_view_of_the_series(self):
        # rows x lag values would be a copy of the series lag times over
        values = np.random.default_rng(2).random(1000)
        sset = make_lag_windows(values, lag=48, horizon=2)
        assert np.shares_memory(sset.x, values)
        assert not sset.x.flags.writeable
        assert not np.shares_memory(sset.y, values)
        np.testing.assert_array_equal(
            sset.x, [values[i:i + 48] for i in range(len(sset))]
        )

    def test_too_short_series(self):
        with pytest.raises(InsufficientDataError):
            make_lag_windows([1.0, 2.0, 3.0], lag=3, horizon=1)

    def test_bad_lag(self):
        with pytest.raises(SchemaError):
            make_lag_windows([1.0, 2.0, 3.0], lag=0)


class TestNwpSet:
    def test_aligned_columns(self):
        frame = _frame(target=[1.0, 2.0, 3.0], ws=[10.0, 11.0, 12.0])
        sset = make_nwp_set(frame, ["ws"])
        np.testing.assert_array_equal(sset.x[:, 0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(sset.y, [1.0, 2.0, 3.0])
        assert sset.feature_names == ("ws",)

    def test_alignment_shift(self):
        frame = _frame(target=[1.0, 2.0, 3.0, 4.0], ws=[10.0, 11.0, 12.0, 13.0])
        sset = make_nwp_set(frame, ["ws"], horizon_alignment=2)
        np.testing.assert_array_equal(sset.x[:, 0], [10.0, 11.0])
        np.testing.assert_array_equal(sset.y, [3.0, 4.0])

    def test_unknown_feature(self):
        frame = _frame(target=[1.0], ws=[2.0])
        with pytest.raises(SchemaError):
            make_nwp_set(frame, ["nope"])

    def test_no_features(self):
        frame = _frame(target=[1.0], ws=[2.0])
        with pytest.raises(SchemaError):
            make_nwp_set(frame, [])


class TestChronologicalSplit:
    def test_ten_rows(self):
        sset = _supervised(10)
        train, val, test = chronological_split(sset)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_hundred_rows(self):
        sset = _supervised(100)
        train, val, test = chronological_split(sset)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_remainder_goes_to_test(self):
        train, val, test = chronological_split(_supervised(101))
        assert (len(train), len(val), len(test)) == (80, 10, 11)

    def test_order_preserved_and_contiguous(self):
        sset = _supervised(57)
        train, val, test = chronological_split(sset)
        rebuilt = np.concatenate([train.y, val.y, test.y])
        np.testing.assert_array_equal(rebuilt, sset.y)
        assert train.y.max() < val.y.min() < test.y.min()

    def test_splits_are_views_of_the_full_set(self):
        sset = _supervised(50)
        sset.target_indices = np.arange(50)
        for piece in chronological_split(sset):
            for name in ("x", "y", "target_indices"):
                assert np.shares_memory(getattr(piece, name), getattr(sset, name))

    def test_ratio_validation(self):
        with pytest.raises(SchemaError):
            chronological_split(_supervised(10), ratios=(0.5, 0.4, 0.2))
        with pytest.raises(SchemaError):
            chronological_split(_supervised(10), ratios=(1.0, -0.1, 0.1))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            chronological_split(_supervised(5), ratios=(0.9, 0.05, 0.05))


class TestSupervisedSet:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            SupervisedSet(np.zeros((3, 2)), np.zeros(4), ("a", "b"))
        with pytest.raises(ShapeError):
            SupervisedSet(np.zeros((3, 2)), np.zeros(3), ("a",))
        with pytest.raises(ShapeError):
            SupervisedSet(np.zeros(3), np.zeros(3), ("a",))


def _frame(target, ws):
    from datetime import datetime, timedelta
    from windcast.data import TimeSeriesFrame

    n = len(target)
    t0 = datetime(2021, 1, 1)
    return TimeSeriesFrame(
        timestamps=np.array([(t0 + timedelta(minutes=15 * i)).isoformat() for i in range(n)],
                            dtype=bytes),
        target=np.asarray(target, dtype=float),
        target_name="power",
        features={"ws": np.asarray(ws, dtype=float)},
    )


def _supervised(n):
    x = np.arange(2 * n, dtype=float).reshape(n, 2)
    y = np.arange(n, dtype=float)
    return SupervisedSet(x, y, ("a", "b"))


# what a mutation inserts into a CSV's bytes, or puts in place of some
CSV_TOKENS = [b"\x00", b"\xff", "\ufeff".encode(), b'"', b"#", b"\r\n", b"nan", b"1e999",
              b"1_0", "\u0663".encode(), b"9" * 400, b"7" * 200_000]


def test_csv_fuzz_ends_in_a_frame_or_an_exit_code(tmp_path):
    source = tmp_path / "source.csv"
    write_wind_csv(str(source), n_rows=40, seed=7)
    text = source.read_bytes()
    schema = CsvSchema("timestamp", "power", ("WS10", "WD10", "WS100", "WD100"))
    target = tmp_path / "mutated.csv"
    rng = random.Random(20242)
    for case in range(1000):
        mutated = text
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(mutated) + 1)
            cut = at + rng.choice((0, 1, rng.randint(1, 12)))  # 0: insert, else replace
            token = b"" if rng.random() < 0.2 else rng.choice(CSV_TOKENS)  # b"": delete
            mutated = mutated[:at] + token + mutated[cut:]
        target.write_bytes(mutated)
        try:
            load_csv(str(target), schema)
        except ToolkitError as exc:
            assert exc.exit_code in (1, 2, 3), f"case {case}: {exc!r}"
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
