"""CSV ingestion, min-max scaling and supervised-set construction.

A time series arrives as a CSV with an ISO-8601 timestamp column, a power
column and optional weather-forecast feature columns. From it we build
either lag-window samples (autoregressive mode) or feature-aligned samples
(weather mode), then split chronologically into train/validation/test.
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import warnings
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import (
    DataError,
    EmptyDataError,
    InsufficientDataError,
    IntegrityError,
    ParseError,
    SchemaError,
    ShapeError,
)


@dataclass(frozen=True)
class CsvSchema:
    """Names of the columns to pull out of a CSV file."""

    timestamp_col: str
    target_col: str
    feature_cols: tuple[str, ...] = ()


@dataclass
class TimeSeriesFrame:
    """One time series: strictly increasing timestamps, a target column
    and equally long named feature columns.

    timestamps is an (n,) bytes array holding each row's time as the ASCII
    text of datetime.isoformat(), the text the prediction CSV writes."""

    timestamps: np.ndarray
    target: np.ndarray
    target_name: str
    features: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.timestamps)


def load_csv(path: str, schema: CsvSchema) -> TimeSeriesFrame:
    """Parse a CSV file into a frame, sorted ascending by timestamp.

    Rejects missing columns, unparsable or non-finite cells (with the
    offending row number), timestamps that mix timezone-aware and naive
    values, duplicate timestamps and text that is not UTF-8.

    The columns are read in bulk by numpy's C reader, which converts
    numbers with the same routine as ``float()`` and splits cells like the
    csv module. A file whose timestamps are all canonical naive
    ``YYYY-MM-DDTHH:MM:SS`` text in strictly increasing order is read in
    one pass, its timestamp cells checked by numpy and kept as they are,
    which is their isoformat() text; any other file is read again and its
    cells parsed with datetime.fromisoformat, a trailing Z read as +00:00
    on every Python, sorted and checked for duplicates. When numpy's
    reader rejects the file, a row-by-row walk with the csv module finds
    the first bad row and names it.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from None
    with fh:
        try:
            return _load_columns(fh, path, schema)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 text ({exc})") from None


def _read_header(fh, path: str) -> list[str]:
    reader = csv.reader(fh)
    try:
        return next(reader)
    except StopIteration:
        raise EmptyDataError(f"{path}: file is empty") from None
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_cells(fh, usecols, dtype, ndmin: int) -> np.ndarray:
    """The given columns of the rest of the file, one read by numpy's C
    reader; a `#` is cell text, not a comment."""
    with warnings.catch_warnings():
        # loadtxt warns on a file without data rows, which the caller rejects
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
            usecols=usecols, ndmin=ndmin,
        )


def _load_columns(fh, path: str, schema: CsvSchema) -> TimeSeriesFrame:
    header = _read_header(fh, path)
    for name in (schema.timestamp_col, schema.target_col, *schema.feature_cols):
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r}")
    ts_col = header.index(schema.timestamp_col)
    value_cols = [header.index(c) for c in (schema.target_col, *schema.feature_cols)]

    canonical = _read_canonical(fh, path, ts_col, value_cols)
    if canonical is not None:
        return _frame(schema, *canonical)
    fh.seek(0)
    _read_header(fh, path)
    try:
        values = _read_cells(fh, value_cols, float, ndmin=2)
        if len(values) == 0:
            raise EmptyDataError(f"{path}: no data rows")
        fh.seek(0)
        _read_header(fh, path)
        cells = _read_cells(fh, ts_col, object, ndmin=1).tolist()
        stamps = list(map(_parse_time, cells))
        if not np.isfinite(values).all():
            raise ValueError("non-finite value")
        if not all(map(operator.lt, stamps, stamps[1:])):
            order = sorted(range(len(stamps)), key=stamps.__getitem__)
            stamps = [stamps[i] for i in order]
            values = values[order]
            for a, b in zip(stamps, stamps[1:]):
                if a == b:
                    raise IntegrityError(f"{path}: duplicate timestamp {a.isoformat()}")
    except UnicodeDecodeError:  # a ValueError, but no row walk can name a row for it
        raise
    except (ValueError, TypeError) as exc:
        # TypeError: the sort compared a timezone-aware and a naive timestamp
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        _raise_first_bad_row(reader, path, ts_col, value_cols)
        # the walk found every row good, so report what numpy's reader said
        raise ParseError(f"{path}: {exc}") from None

    text = np.array([stamp.isoformat() for stamp in stamps], dtype=bytes)
    return _frame(schema, text, [col.copy() for col in values.T])


def _frame(schema: CsvSchema, stamps: np.ndarray, columns: list) -> TimeSeriesFrame:
    """The frame of the schema's columns, target first. Each column is an
    array of its own, so dropping one frees its memory."""
    target, *features = columns
    return TimeSeriesFrame(
        timestamps=stamps,
        target=target,
        target_name=schema.target_col,
        features=dict(zip(schema.feature_cols, features)),
    )


# The canonical fast path. A timestamp cell is read into a _CELL_BYTES-wide
# bytes field, which pads shorter text with NUL bytes and truncates longer
# text, so a cell that fills every byte may have been cut. Canonical text
# is YYYY-MM-DDTHH:MM:SS, _ISO_CHARS bytes. The tables are built without
# numpy arithmetic: each numpy routine a command runs first adds its code
# pages to the command's resident memory.
_CELL_BYTES = 32
_ISO_CHARS = 19
_CHECK_ROWS = 4096  # cells checked per block, so the check's arrays stay small
# the lowest and highest byte canonical text holds at each place: a digit
# (bounded as far as one digit bounds its number), a separator or padding
_LOW = np.frombuffer(b"0000-00-00T00:00:00".ljust(_CELL_BYTES, b"\0"), dtype=np.uint8)
_HIGH = np.frombuffer(b"9999-19-39T29:59:59".ljust(_CELL_BYTES, b"\0"), dtype=np.uint8)
_DIGIT_AT = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_MULTIPLE_OF_4 = np.frombuffer(bytes(i % 4 == 0 for i in range(256)), dtype=np.bool_)


def _days_by_month(leap: bool) -> bytes:
    days = [31, 28 + leap, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    return bytes([0, *days]).ljust(256, b"\0")


# [leap year, month] -> days in the month; 0 for a byte that is no month
_MONTH_DAYS = np.frombuffer(_days_by_month(False) + _days_by_month(True),
                            dtype=np.uint8).reshape(2, 256)


def _read_canonical(fh, path: str, ts_col: int, value_cols: list[int]):
    """(timestamp text, value columns) of a file read in one pass, or None
    unless it has data rows, every value is finite, every timestamp cell is
    canonical and the timestamps strictly increase.

    None leaves the file to the general path, which accepts every file
    accepted here and reads it to the same frame. A file with a NUL byte
    goes there too: the bytes field would drop a cell's trailing NULs."""
    if _has_nul(path):
        return None
    fields = [("stamp", f"S{_CELL_BYTES}")] + [(f"v{j}", float) for j in range(len(value_cols))]
    try:
        table = _read_cells(fh, [ts_col, *value_cols], np.dtype(fields), ndmin=1)
    except UnicodeDecodeError:
        raise
    except (ValueError, TypeError):  # e.g. a bad number, or a cell bytes cannot hold
        return None
    if len(table) == 0:
        return None
    columns = [table[name].copy() for name, _ in fields[1:]]
    if not all(np.isfinite(col).all() for col in columns):
        return None
    # the stamp field is each record's first _CELL_BYTES bytes
    cells = table.view(np.uint8).reshape(len(table), -1)[:, :_CELL_BYTES]
    stamps = _canonical_text(cells)
    return None if stamps is None else (stamps, columns)


def _has_nul(path: str) -> bool:
    with open(path, "rb") as raw:
        return any(b"\0" in chunk for chunk in iter(lambda: raw.read(1 << 14), b""))


def _canonical_text(cells: np.ndarray) -> np.ndarray | None:
    """The (n,) S19 text of (n, _CELL_BYTES) uint8 rows of timestamp
    cells, if every cell is canonical and the cells strictly increase;
    None otherwise.

    Checked _CHECK_ROWS cells at a time. For a canonical cell c,
    datetime.fromisoformat(c).isoformat() == c, and as canonical text is
    fixed-width and zero-padded, its byte order is the order of the times
    it names."""
    n = len(cells)
    text = np.empty(n, dtype=f"S{_ISO_CHARS}")
    chars = text.view(np.uint8).reshape(n, _ISO_CHARS)
    for lo in range(0, n, _CHECK_ROWS):
        block = cells[lo:lo + _CHECK_ROWS]
        if not _canonical(block).all():
            return None
        chars[lo:lo + _CHECK_ROWS] = block[:, :_ISO_CHARS]
        run = text[max(lo - 1, 0):lo + _CHECK_ROWS]  # with the last cell of the block before
        if not (run[1:] > run[:-1]).all():
            return None
    return text


def _canonical(block: np.ndarray) -> np.ndarray:
    """For (m, _CELL_BYTES) uint8 rows of timestamp cells, whether each is
    canonical naive YYYY-MM-DDTHH:MM:SS text of a time that exists: year
    >= 1, a day its month has, hour <= 23, minute and second <= 59."""
    ok = ((_LOW <= block) & (block <= _HIGH)).all(axis=1)
    digits = block[:, _DIGIT_AT] - np.uint8(ord("0"))
    # two-digit numbers, as uint8; they wrap only where a digit is not one
    century, yy, month, day, hour = (digits[:, 0:10:2] * 10 + digits[:, 1:10:2]).T
    # year % 4 is yy % 4, as 100 is a multiple of 4
    leap = _MULTIPLE_OF_4[yy] & ((1 <= yy) | _MULTIPLE_OF_4[century])
    ok &= (1 <= century) | (1 <= yy)
    ok &= (1 <= day) & (day <= _MONTH_DAYS[leap.view(np.uint8), month]) & (hour <= 23)
    return ok


def _parse_time(text: str) -> datetime:
    """datetime.fromisoformat(text), but with a trailing Z read as +00:00
    on every Python: 3.11 reads it so, 3.10 rejects it. A text that
    fromisoformat rejects, with and without the rewrite, raises its
    ValueError for the text as given; so does a Z after a date alone,
    which 3.11 rejects but would read as naive once rewritten."""
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        if text.endswith("Z"):
            with contextlib.suppress(ValueError):
                stamp = datetime.fromisoformat(text[:-1] + "+00:00")
                if stamp.tzinfo is not None:
                    return stamp
        raise


def _number(cell: str) -> float:
    """float(), less the spellings numpy's reader rejects: underscores
    between digits and non-ASCII digits."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _raise_first_bad_row(reader, path: str, ts_col: int, value_cols: list[int]) -> None:
    """Raise the error of the first bad row, walking the rows one by one."""
    first_naive = None
    mixed = None
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts = _parse_time(row[ts_col])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: row {lineno}: bad timestamp ({exc})") from None
            try:
                values = [_number(row[i]) for i in value_cols]
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: row {lineno}: bad number ({exc})") from None
            for value in values:
                if not math.isfinite(value):
                    raise ParseError(f"{path}: row {lineno}: non-finite value {value!r}")
            naive = ts.tzinfo is None
            if first_naive is None:
                first_naive = naive
            elif naive != first_naive and mixed is None:
                kinds = ("timezone-aware", "naive")
                mixed = ParseError(
                    f"{path}: row {lineno}: {kinds[naive]} timestamp in a file "
                    f"whose first row is {kinds[first_naive]}"
                )
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if mixed is not None:
        raise mixed


@dataclass
class Scaler:
    """Per-column min/max for mapping columns onto [0, 1]."""

    columns: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {name: [lo, hi] for name, (lo, hi) in self.columns.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Scaler":
        return cls({name: (float(lo), float(hi)) for name, (lo, hi) in doc.items()})


def fit_scaler(frame: TimeSeriesFrame) -> Scaler:
    """Record min and max of the target and every feature column."""
    if len(frame) == 0:
        raise EmptyDataError("cannot fit a scaler on an empty frame")
    columns = {frame.target_name: (float(frame.target.min()), float(frame.target.max()))}
    for name, col in frame.features.items():
        columns[name] = (float(col.min()), float(col.max()))
    return Scaler(columns)


def apply_column(scaler: Scaler, name: str, values: np.ndarray) -> np.ndarray:
    """Map one column to [0, 1]; a constant column maps to all zeros."""
    lo, hi = scaler.columns[name]
    if hi == lo:
        return np.zeros_like(np.asarray(values, dtype=float))
    return (np.asarray(values, dtype=float) - lo) / (hi - lo)


def invert_column(scaler: Scaler, name: str, values: np.ndarray) -> np.ndarray:
    """Undo apply_column; identity for non-constant columns."""
    lo, hi = scaler.columns[name]
    return lo + np.asarray(values, dtype=float) * (hi - lo)


def apply_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    """Return a frame with every column of this one scaled by the scaler.

    The new frame shares this one's timestamps array, which nothing
    writes into. A column the scaler does not know raises SchemaError."""
    for name in (frame.target_name, *frame.features):
        if name not in scaler.columns:
            raise SchemaError(f"the scaler has no column {name!r}")
    return TimeSeriesFrame(
        timestamps=frame.timestamps,
        target=apply_column(scaler, frame.target_name, frame.target),
        target_name=frame.target_name,
        features={
            name: apply_column(scaler, name, col) for name, col in frame.features.items()
        },
    )


@dataclass
class SupervisedSet:
    """Feature matrix, target vector and the feature names that label X's
    columns. target_indices maps each sample back to its frame row.

    x may be a read-only view in any memory order (lag windows are a view
    of their series), so nothing may write into it; whatever hands rows
    to BLAS makes them C-ordered first."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    target_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise ShapeError("X must be 2-D and Y 1-D")
        if self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(
                f"X has {self.x.shape[0]} rows but Y has {self.y.shape[0]}"
            )
        if len(self.feature_names) != self.x.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {self.x.shape[1]} columns"
            )

    def __len__(self) -> int:
        return self.x.shape[0]


def make_lag_windows(target, lag: int, horizon: int = 1) -> SupervisedSet:
    """Build autoregressive samples from a single series.

    Sample i uses values[i .. i+lag-1] as features (chronological order)
    and values[i+lag+horizon-1] as the target, giving
    n = len - lag - horizon + 1 samples. Column j holds the value lag-j
    steps before delivery, so the names run lag_L .. lag_1 with lag_1 the
    most recent observation. x is a read-only view of the series, not a
    copy: row i + 1 starts one value after row i.
    """
    values = np.asarray(target, dtype=float)
    if lag < 1 or horizon < 1:
        raise SchemaError("lag and horizon must be >= 1")
    n = len(values) - lag - horizon + 1
    if n < 1:
        raise InsufficientDataError(
            f"series of length {len(values)} too short for lag {lag}, horizon {horizon}"
        )
    x = np.lib.stride_tricks.sliding_window_view(values, lag)[:n]
    first_target = lag + horizon - 1
    y = values[first_target : first_target + n].copy()
    names = tuple(f"lag_{lag - j}" for j in range(lag))
    return SupervisedSet(x, y, names, target_indices=np.arange(first_target, first_target + n))


def make_nwp_set(
    frame: TimeSeriesFrame,
    feature_columns,
    horizon_alignment: int = 0,
) -> SupervisedSet:
    """Build samples from weather-forecast columns aligned with the target.

    Feature values are treated as forecasts valid at delivery time, so the
    default alignment pairs row i with target row i. A positive
    horizon_alignment instead pairs features at i with the target at
    i + horizon_alignment.
    """
    names = tuple(feature_columns)
    if not names:
        raise SchemaError("at least one feature column is required")
    for name in names:
        if name not in frame.features:
            raise SchemaError(f"unknown feature column {name!r}")
    if horizon_alignment < 0:
        raise SchemaError("horizon_alignment must be >= 0")
    n = len(frame) - horizon_alignment
    if n < 1:
        raise InsufficientDataError("alignment leaves no rows")
    x = np.column_stack([frame.features[name][:n] for name in names])
    y = frame.target[horizon_alignment : horizon_alignment + n].copy()
    return SupervisedSet(x, y, names, target_indices=np.arange(horizon_alignment, horizon_alignment + n))


def chronological_split(
    sset: SupervisedSet,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[SupervisedSet, SupervisedSet, SupervisedSet]:
    """Split into contiguous train/validation/test slices, no shuffling.

    Train and validation sizes are floored; leftover rows go to test.
    Each split's arrays are row-slice views of sset's, not copies, so
    nothing may write into a split.
    """
    if not all(0.0 < r < 1.0 for r in ratios):  # NaN fails this too
        raise SchemaError(f"split ratios must lie strictly inside (0, 1), got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SchemaError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(sset)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise InsufficientDataError(f"{n} samples cannot fill a {ratios} split")

    def piece(lo: int, hi: int) -> SupervisedSet:
        ti = None if sset.target_indices is None else sset.target_indices[lo:hi]
        return SupervisedSet(sset.x[lo:hi], sset.y[lo:hi], sset.feature_names, ti)

    return (
        piece(0, n_train),
        piece(n_train, n_train + n_val),
        piece(n_train + n_val, n),
    )
