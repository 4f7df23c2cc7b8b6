"""The prediction CSV written a block at a time, in worker processes or in
this one, and the splits that share memory with the full supervised set
without being written into."""

import json
import os
from datetime import datetime, timedelta

import numpy as np
import pytest

import windcast._util
import windcast.pipeline
from windcast.cli import main
from windcast.config import load_config
from windcast.data import TimeSeriesFrame, apply_scaler, fit_scaler, make_nwp_set
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
from oracles import whole_predictions_csv
from synth import wind_arrays, write_wind_csv

FEATURES = ("WS10", "WD10", "WS100", "WD100")
LOSSES = {"point": Loss("mse"), "quantile": Loss("pinball", DEFAULT_QUANTILE_LEVELS)}
ALIGNMENT = 2  # samples start two frame rows in, so timestamps go through target_indices


def _prepared(n_samples):
    n_rows = n_samples + ALIGNMENT
    cols = wind_arrays(n_rows, seed=8)
    t0 = datetime(2021, 1, 1)
    frame = TimeSeriesFrame(
        timestamps=[t0 + timedelta(minutes=15 * i) for i in range(n_rows)],
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
    assert "".join(fh.writes) == whole_predictions_csv(bundle, prepared)


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
    assert "".join(fh.writes) == whole_predictions_csv(bundle, prepared)
    in_process = min(cpus, n_blocks) == 1
    assert len(here) == (n_blocks if in_process else 0)
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
