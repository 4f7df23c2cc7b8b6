"""The prediction CSV written a block at a time, in worker processes or in
this one, and the splits that share memory with the full supervised set
without being written into."""

import json
import os
import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

import windcast._util
import windcast.pipeline
from windcast.cli import main
from windcast.config import load_config
from windcast.data import (
    CsvSchema, TimeSeriesFrame, apply_scaler, fit_scaler, make_lag_windows, make_nwp_set,
)
from windcast.metrics import DEFAULT_QUANTILE_LEVELS
from windcast.model_io import ModelBundle, load_model
from windcast.network import Architecture, Loss, init_network
from windcast.pipeline import (
    CSV_BLOCK_ROWS,
    PreparedData,
    build_dataset,
    evaluate_bundle,
    explain_lime,
    explain_pfi,
    write_predictions,
)

from conftest import assert_no_child_left
from oracles import row_wise_load_csv, whole_predictions_csv
from synth import wind_arrays, write_wind_csv

FEATURES = ("WS10", "WD10", "WS100", "WD100")
LOSSES = {"point": Loss("mse"), "quantile": Loss("pinball", DEFAULT_QUANTILE_LEVELS)}
ALIGNMENT = 2  # samples start two frame rows in, so timestamps go through target_indices


def _stamps(n_rows):
    t0 = datetime(2021, 1, 1)
    return [t0 + timedelta(minutes=15 * i) for i in range(n_rows)]


def _whole_csv(bundle, prepared):
    """The oracle's CSV of a frame made by _prepared."""
    return whole_predictions_csv(bundle, prepared, _stamps(len(prepared.raw_frame)))


def _prepared(n_samples):
    n_rows = n_samples + ALIGNMENT
    cols = wind_arrays(n_rows, seed=8)
    frame = TimeSeriesFrame(
        timestamps=np.array([t.isoformat() for t in _stamps(n_rows)], dtype=bytes),
        target=cols["power"],
        target_name="power",
        features={name: cols[name] for name in FEATURES},
    )
    scaler = fit_scaler(frame)
    full = make_nwp_set(apply_scaler(frame, scaler), FEATURES, ALIGNMENT)
    return PreparedData(frame, scaler, full, full, full, full)


def _bundle(kind, prepared):
    loss = LOSSES[kind]
    arch = Architecture((len(FEATURES), 8, loss.n_outputs), "tanh")
    return ModelBundle(init_network(arch, 5), prepared.scaler, "power", FEATURES, loss)


class RecordingFile:
    """A text file stand-in that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("kind", sorted(LOSSES))
@pytest.mark.parametrize("n_samples", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_writer_streams_the_bytes_of_the_whole_csv(kind, n_samples):
    prepared = _prepared(n_samples)
    bundle = _bundle(kind, prepared)
    fh = RecordingFile()
    assert write_predictions(fh, bundle, prepared) == n_samples
    header, *blocks = fh.writes
    assert header.count("\n") == 1
    assert len(blocks) == -(-n_samples // CSV_BLOCK_ROWS)
    assert all(0 < block.count("\n") <= CSV_BLOCK_ROWS for block in blocks)
    assert "".join(fh.writes) == _whole_csv(bundle, prepared)


@pytest.fixture(scope="module")
def two_block_run(tmp_path_factory):
    """A CSV of more than one block of samples and a model trained on it."""
    root = tmp_path_factory.mktemp("stream")
    write_wind_csv(str(root / "wind.csv"), n_rows=CSV_BLOCK_ROWS + 500, seed=3)
    cfg = {
        "data": {"path": "wind.csv", "timestamp_col": "timestamp", "target_col": "power",
                 "mode": "nwp", "feature_cols": list(FEATURES)},
        "model": {"hidden_sizes": [4], "loss": "pinball"},
        "training": {"epochs": 1, "seed": 0},
    }
    (root / "run.json").write_text(json.dumps(cfg))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["train", "--config", "run.json", "--out", "model.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


def _fail_after_first_block(monkeypatch, exc, first_row):
    """Make formatting every block but the one starting at frame row
    first_row raise exc. The block is told by its rows, not by a count of
    calls, as it may be formatted in a worker process."""
    real = windcast.pipeline.predictions_csv

    def failing(bundle, frame, rows, x):
        if rows[0] != first_row:
            raise exc
        return real(bundle, frame, rows, x)

    monkeypatch.setattr(windcast.pipeline, "predictions_csv", failing)


@pytest.mark.parametrize("existing", [None, b"kept,bytes\n"])
@pytest.mark.parametrize("exc, code", [
    (RuntimeError("interrupted"), None),
    (OSError(28, "No space left on device"), 3),
])
def test_failure_after_the_first_block_leaves_no_partial_file(
    two_block_run, monkeypatch, capsys, existing, exc, code
):
    out = two_block_run / "predictions.csv"
    if existing is None:
        out.unlink(missing_ok=True)
    else:
        out.write_bytes(existing)
    _fail_after_first_block(monkeypatch, exc, first_row=0)
    argv = ["predict", "--model", "model.json", "--config", "run.json",
            "--out", "predictions.csv"]
    cwd = os.getcwd()
    os.chdir(two_block_run)
    try:
        if code is None:
            with pytest.raises(type(exc), match=str(exc)):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err.startswith(
                "windcast: DataError: cannot write predictions.csv"
            )
    finally:
        os.chdir(cwd)
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing
    assert not list(two_block_run.glob(".tmp-*"))
    assert_no_child_left()


BLOCK_ROWS = 8  # blocks this small keep a 25-block CSV quick to check


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"{n}cpu")
def cpus(request, monkeypatch):
    """Small blocks, and the writer told that this many CPUs are usable."""
    monkeypatch.setattr(windcast.pipeline, "CSV_BLOCK_ROWS", BLOCK_ROWS)
    monkeypatch.setattr(windcast._util, "usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("kind", sorted(LOSSES))
@pytest.mark.parametrize("n_blocks", [1, 2, 25])
def test_every_worker_count_writes_the_bytes_of_the_whole_csv(
    cpus, monkeypatch, kind, n_blocks
):
    prepared = _prepared((n_blocks - 1) * BLOCK_ROWS + 3)
    bundle = _bundle(kind, prepared)
    real = windcast.pipeline._block_text
    here = []  # blocks formatted in this process; a worker's calls stay in the worker

    def counted(blocks, lo):
        here.append(lo)
        return real(blocks, lo)

    monkeypatch.setattr(windcast.pipeline, "_block_text", counted)
    fh = RecordingFile()
    assert write_predictions(fh, bundle, prepared) == len(prepared.full)
    assert len(fh.writes) == 1 + n_blocks
    assert "".join(fh.writes) == _whole_csv(bundle, prepared)
    in_process = min(cpus, n_blocks) == 1
    assert len(here) == (n_blocks if in_process else 0)
    assert_no_child_left()


@pytest.mark.parametrize("kind", sorted(LOSSES))
def test_a_timezone_aware_file_writes_its_isoformat_text(cpus, tmp_path, kind):
    # offsets and Z suffixes leave the canonical fast path, and the offsets
    # put the rows out of order; the CSV carries each row's isoformat(),
    # +00:00 for Z
    write_wind_csv(str(tmp_path / "plain.csv"), n_rows=5 * BLOCK_ROWS + 3, seed=9)
    lines = (tmp_path / "plain.csv").read_text(encoding="utf-8").splitlines()
    suffixes = ("-05:30", "Z", "-05:30", "+00:00")
    aware = [lines[0]] + [
        line.replace(",", suffixes[i % 4] + ",", 1) for i, line in enumerate(lines[1:])
    ]
    (tmp_path / "wind.csv").write_text("\n".join(aware) + "\n", encoding="utf-8")
    doc = {"data": {"path": str(tmp_path / "wind.csv"), "timestamp_col": "timestamp",
                    "target_col": "power", "mode": "nwp", "feature_cols": list(FEATURES),
                    "horizon_alignment": ALIGNMENT}}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    config = load_config(str(tmp_path / "run.json"))
    prepared = build_dataset(config)
    bundle = _bundle(kind, prepared)
    fh = RecordingFile()
    write_predictions(fh, bundle, prepared)
    schema = CsvSchema("timestamp", "power", FEATURES)
    stamps = row_wise_load_csv(config.data_path, schema).timestamps
    text = "".join(fh.writes)
    assert text == whole_predictions_csv(bundle, prepared, stamps)
    assert "+00:00," in text and "-05:30," in text and "Z," not in text
    assert_no_child_left()


def test_a_failing_block_ends_every_worker(cpus, monkeypatch):
    prepared = _prepared(24 * BLOCK_ROWS)
    bundle = _bundle("quantile", prepared)
    _fail_after_first_block(monkeypatch, RuntimeError("interrupted"), first_row=ALIGNMENT)
    fh = RecordingFile()
    with pytest.raises(RuntimeError, match="interrupted"):
        write_predictions(fh, bundle, prepared)
    assert len(fh.writes) == 2  # the header and the first block
    assert_no_child_left()


def test_a_forecast_that_overflows_in_original_units_is_exit_four(
    two_block_run, cpus, capsys
):
    # scaled forecasts of 1e300 pass the model's own check, and overflow
    # when the scaler maps them back to original units
    doc = json.loads((two_block_run / "model.json").read_text())
    doc["biases"][-1] = [1e300] * len(doc["biases"][-1])
    doc["scaler"]["power"] = [0.0, 1e10]
    (two_block_run / "huge_model.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(two_block_run)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", "--model", "huge_model.json", "--config", "run.json",
                         "--out", "huge.csv"]) == 4
    finally:
        os.chdir(cwd)
    err = capsys.readouterr().err
    assert err.startswith("windcast: NonFiniteForecastError: the model forecasts inf in 'power'")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (two_block_run / "huge.csv").exists()
    assert not list(two_block_run.glob(".tmp-*"))
    assert_no_child_left()


class FullDisk(RecordingFile):
    """Takes the header, then refuses every write."""

    def write(self, text):
        if self.writes:
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_a_failing_write_ends_every_worker(cpus):
    prepared = _prepared(24 * BLOCK_ROWS)
    bundle = _bundle("quantile", prepared)
    with pytest.raises(OSError, match="No space left"):
        write_predictions(FullDisk(), bundle, prepared)
    assert_no_child_left()


def test_prepared_data_keeps_only_the_raw_columns_predict_reads(two_block_run):
    cwd = os.getcwd()
    os.chdir(two_block_run)
    try:
        prepared = build_dataset(load_config("run.json"))
    finally:
        os.chdir(cwd)
    raw = prepared.raw_frame
    assert raw.features == {}
    assert raw.timestamps.dtype == np.dtype("S19") and len(raw.target) == len(raw)


def test_commands_leave_the_shared_arrays_unchanged(two_block_run):
    cwd = os.getcwd()
    os.chdir(two_block_run)
    try:
        prepared = build_dataset(load_config("run.json"))
        bundle = load_model("model.json")
    finally:
        os.chdir(cwd)
    full = prepared.full
    for split in (prepared.train, prepared.val, prepared.test):
        assert np.shares_memory(split.x, full.x)
        assert np.shares_memory(split.y, full.y)
    before = full.x.tobytes(), full.y.tobytes()
    evaluate_bundle(bundle, prepared)
    explain_pfi(bundle, prepared, split="train", repeats=2)
    explain_pfi(bundle, prepared, split="test", repeats=2)
    explain_lime(bundle, prepared)
    write_predictions(RecordingFile(), bundle, prepared)
    assert (full.x.tobytes(), full.y.tobytes()) == before


def _spreads():
    """Arrays whose column spread LIME takes: C-ordered ones of several
    shapes, row counts around multiples of the 7-row blocks used here, and
    lag-window views of a series."""
    rng = np.random.default_rng(12)
    for rows, cols in [(1, 3), (6, 2), (7, 2), (8, 5), (50, 1), (64, 48), (4097, 4)]:
        yield rng.normal(3.0, 2.0, size=(rows, cols)) * rng.uniform(0.01, 100.0, cols)
    series = rng.random(300)
    for lag in (1, 2, 48):
        yield make_lag_windows(series, lag).x


@pytest.mark.parametrize("rows", [7, CSV_BLOCK_ROWS])
def test_the_streamed_spread_is_numpys_std_bit_for_bit(rows):
    for x in _spreads():
        expected = np.ascontiguousarray(x).std(axis=0)
        assert windcast.pipeline._column_std(x, rows).tobytes() == expected.tobytes()
        assert x.std(axis=0).tobytes() == expected.tobytes()


def test_the_streamed_spread_allocates_a_block_not_the_windows():
    # x - mean of 80,000 x 48 windows would take 30.7 MB
    x = make_lag_windows(np.random.default_rng(1).random(80_047), 48).x
    tracemalloc.start()
    try:
        windcast.pipeline._column_std(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * CSV_BLOCK_ROWS * 48 * 8
