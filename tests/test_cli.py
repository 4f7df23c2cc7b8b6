"""End-to-end command-line tests: every subcommand, the exit-code
taxonomy and byte-level determinism of the written artifacts."""

import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import windcast._util
import windcast.explain
import windcast.model_io
import windcast.optim
import windcast.pipeline
from windcast._util import atomic_write_text, dump_json
from windcast.cli import main
from windcast.config import load_config
from windcast.data import Scaler, invert_column
from windcast.errors import DataError, NonFiniteReportError, ToolkitError
from windcast.explain import LimeConfig, fit_lime, permutation_importance
from windcast.metrics import deterministic_report
from windcast.model_io import ModelBundle, load_model, save_model
from windcast.network import (
    MAX_BENCHMARK_SEEDS,
    MAX_LAYER_WIDTH,
    MAX_LIME_SAMPLES,
    MAX_LIME_VALUES,
    MAX_PFI_REPEATS,
    Architecture,
    Loss,
    infer,
    init_network,
    predict_quantiles,
)
from windcast.optim import OptimizerConfig, StrategyConfig, train
from windcast.pipeline import build_dataset, evaluate_bundle, explain_lime

from conftest import assert_no_child_left, fork_fails_after, open_descriptors
from synth import write_wind_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A CSV plus point and quantile configs shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = str(root / "wind.csv")
    write_wind_csv(csv_path, n_rows=400, seed=20240)

    point_cfg = {
        "schema_version": 1,
        "data": {
            "path": "wind.csv",
            "timestamp_col": "timestamp",
            "target_col": "power",
            "mode": "nwp",
            "feature_cols": ["WS10", "WD10", "WS100", "WD100"],
        },
        "model": {"hidden_sizes": [8], "loss": "mse"},
        "optimizer": {"kind": "adam", "fixed_lr": 0.05},
        "strategies": {"centralize": True, "cosine_lr": True, "initial_lr": 0.05,
                       "noise_tau": 0.0001, "noise_seed": 5},
        "training": {"epochs": 12, "seed": 3},
    }
    (root / "point.json").write_text(json.dumps(point_cfg))

    quantile_cfg = json.loads(json.dumps(point_cfg))
    quantile_cfg["model"] = {"hidden_sizes": [8], "loss": "pinball"}
    (root / "quantile.json").write_text(json.dumps(quantile_cfg))

    lag_cfg = {
        "schema_version": 1,
        "data": {
            "path": "wind.csv",
            "timestamp_col": "timestamp",
            "target_col": "power",
            "mode": "lags",
            "lag": 6,
            "horizon": 1,
        },
        "model": {"hidden_sizes": [8], "loss": "mse"},
        "optimizer": {"kind": "adam", "fixed_lr": 0.05},
        "training": {"epochs": 8, "seed": 1},
    }
    (root / "lags.json").write_text(json.dumps(lag_cfg))
    return root


def run(workdir, *argv):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def trained(workdir):
    """Point and quantile models trained once for the whole module."""
    assert run(workdir, "train", "--config", "point.json", "--out", "point_model.json") == 0
    assert run(
        workdir, "train", "--config", "quantile.json", "--out", "quantile_model.json"
    ) == 0
    return workdir


@pytest.fixture(scope="module")
def lag_trained(workdir):
    """A lags model trained for horizon 1."""
    assert run(workdir, "train", "--config", "lags.json", "--out", "lag_h1_model.json") == 0
    return workdir


class TestTrain:
    def test_writes_model_and_trace(self, trained):
        assert (trained / "point_model.json").exists()
        assert (trained / "point_model.trace.csv").exists()

    def test_trace_has_one_row_per_epoch(self, trained):
        lines = (trained / "point_model.trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss"
        assert len(lines) - 1 == 12

    def test_rerun_is_byte_identical(self, workdir):
        assert run(workdir, "train", "--config", "point.json", "--out", "re1.json") == 0
        assert run(workdir, "train", "--config", "point.json", "--out", "re2.json") == 0
        assert (workdir / "re1.json").read_bytes() == (workdir / "re2.json").read_bytes()
        assert (
            (workdir / "re1.trace.csv").read_bytes()
            == (workdir / "re2.trace.csv").read_bytes()
        )

    def test_seed_override_changes_model(self, workdir):
        assert run(workdir, "train", "--config", "point.json", "--out", "s1.json",
                   "--seed", "11") == 0
        assert (workdir / "s1.json").read_bytes() != (workdir / "re1.json").read_bytes()

    def test_lag_mode_trains(self, workdir):
        assert run(workdir, "train", "--config", "lags.json", "--out", "lag_model.json") == 0
        doc = json.loads((workdir / "lag_model.json").read_text())
        assert doc["feature_names"][0] == "lag_6"
        assert doc["feature_names"][-1] == "lag_1"


class TestPredict:
    def test_writes_csv(self, trained):
        assert run(
            trained, "predict", "--model", "point_model.json",
            "--config", "point.json", "--out", "preds.csv",
        ) == 0
        lines = (trained / "preds.csv").read_text().splitlines()
        assert lines[0] == "timestamp,y_true,prediction"
        assert len(lines) - 1 == 400

    def test_quantile_prediction_columns(self, trained):
        assert run(
            trained, "predict", "--model", "quantile_model.json",
            "--config", "quantile.json", "--out", "qpreds.csv",
        ) == 0
        header = (trained / "qpreds.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[:2] == ["timestamp", "y_true"]
        assert "q0.5" in cols and "q0.025" in cols and "q0.975" in cols

    def test_predictions_in_original_units(self, trained):
        rows = (trained / "preds.csv").read_text().splitlines()[1:]
        y_true = np.array([float(r.split(",")[1]) for r in rows])
        preds = np.array([float(r.split(",")[2]) for r in rows])
        # power sits on a 0..10-ish scale, not the model's 0..1 scale
        assert y_true.max() > 5.0
        assert preds.max() > 2.0

    def test_feature_mismatch_rejected(self, trained):
        assert run(
            trained, "predict", "--model", "point_model.json",
            "--config", "lags.json", "--out", "bad.csv",
        ) == 2

    @pytest.mark.parametrize("part", ["prefix", "shifted_suffix"])
    @pytest.mark.parametrize("loss", ["mse", "pinball"])
    @pytest.mark.parametrize("config", ["point.json", "lags.json"])
    def test_rows_do_not_depend_on_the_rest_of_the_file(
        self, workdir, tmp_path, config, loss, part
    ):
        # The model's stored scaler, not one refitted on the file, scales a
        # row's inputs, and its forecast runs in blocks of one shape, so
        # neither the rows after it nor those before it change its bytes.
        write_wind_csv(str(tmp_path / "wind.csv"), n_rows=3000, seed=7)
        header, *body = (tmp_path / "wind.csv").read_text().splitlines(keepends=True)
        rows = body[:1500] if part == "prefix" else body[333:]
        (tmp_path / "part").mkdir()
        (tmp_path / "part" / "wind.csv").write_text(header + "".join(rows))
        cfg = json.loads((workdir / config).read_text())
        cfg["model"]["loss"] = loss
        cfg["training"]["epochs"] = 3
        for root in (tmp_path, tmp_path / "part"):
            (root / "run.json").write_text(json.dumps(cfg))
        assert run(tmp_path, "train", "--config", "run.json", "--out", "model.json") == 0
        assert run(tmp_path, "predict", "--model", "model.json",
                   "--config", "run.json", "--out", "full.csv") == 0
        assert run(tmp_path / "part", "predict", "--model", "../model.json",
                   "--config", "run.json", "--out", "part.csv") == 0
        full = (tmp_path / "full.csv").read_text().splitlines()
        head, *lines = (tmp_path / "part" / "part.csv").read_text().splitlines()
        lag = cfg["data"]["lag"] if cfg["data"]["mode"] == "lags" else 0
        assert len(lines) == len(rows) - lag
        if part == "prefix":
            assert [head, *lines] == full[:len(lines) + 1]
        else:
            assert [head, *lines] == [full[0], *full[-len(lines):]]


@pytest.fixture(scope="module", params=[("point.json", "mse"), ("lags.json", "pinball")],
                ids=["nwp-mse", "lags-pinball"])
def one_forecast(request, workdir, tmp_path_factory):
    """A model trained on 600 rows and the prediction CSV of that file."""
    root = tmp_path_factory.mktemp("one_forecast")
    write_wind_csv(str(root / "wind.csv"), n_rows=600, seed=11)
    config, loss = request.param
    cfg = json.loads((workdir / config).read_text())
    cfg["model"]["loss"] = loss
    cfg["training"]["epochs"] = 5
    (root / "run.json").write_text(json.dumps(cfg))
    assert run(root, "train", "--config", "run.json", "--out", "model.json") == 0
    assert run(root, "predict", "--model", "model.json",
               "--config", "run.json", "--out", "predictions.csv") == 0
    return root


def _csv_cells(bundle, scaled):
    """Scaled forecasts as the prediction CSV's forecast cells."""
    values = invert_column(bundle.scaler, bundle.target_name, np.asarray(scaled))
    return [[repr(v) for v in row] for row in values.reshape(len(values), -1).tolist()]


class TestOneForecast:
    """evaluate and explain score and explain the forecast predict writes."""

    def test_evaluate_scores_the_rows_predict_writes(self, one_forecast, monkeypatch):
        seen = {}
        point_report = windcast.pipeline.deterministic_report
        quantile_report = windcast.pipeline.probabilistic_report

        def record_point(y, yhat):
            seen["point"] = yhat
            return point_report(y, yhat)

        def record_quantiles(forecast, y):
            seen["quantiles"] = forecast.values
            return quantile_report(forecast, y)

        monkeypatch.setattr(windcast.pipeline, "deterministic_report", record_point)
        monkeypatch.setattr(windcast.pipeline, "probabilistic_report", record_quantiles)
        assert run(one_forecast, "evaluate", "--model", "model.json",
                   "--config", "run.json", "--out", "evaluation.json") == 0
        bundle = load_model(str(one_forecast / "model.json"))
        lines = (one_forecast / "predictions.csv").read_text().splitlines()
        header = lines[0].split(",")
        tail = [line.split(",") for line in lines[-len(seen["point"]):]]
        point = header.index("q0.5" if bundle.kind == "quantile" else "prediction")
        assert _csv_cells(bundle, seen["point"]) == [[row[point]] for row in tail]
        if bundle.kind == "quantile":
            assert _csv_cells(bundle, seen["quantiles"]) == [row[2:] for row in tail]

    def test_lime_explains_the_forecast_predict_writes(self, one_forecast):
        bundle = load_model(str(one_forecast / "model.json"))
        prepared = build_dataset(load_config(str(one_forecast / "run.json")), bundle)
        lines = (one_forecast / "predictions.csv").read_text().splitlines()
        header = lines[0].split(",")
        point = header.index("q0.5" if bundle.kind == "quantile" else "prediction")
        tail = [line.split(",")[point] for line in lines[-len(prepared.test):]]
        lime = LimeConfig(n_samples=20)
        explained = [
            explain_lime(bundle, prepared, i, lime)["model_prediction"]
            for i in range(len(prepared.test))
        ]
        assert [cells[0] for cells in _csv_cells(bundle, explained)] == tail


class TestLibraryReports:
    """permutation_importance and fit_lime, given what explain gives them,
    return the reports it writes; LIME's model_prediction, the forecast of
    its cloud's row 0, is the forecast of the instance alone."""

    @staticmethod
    def _model(root):
        bundle = load_model(str(root / "model.json"))
        return bundle, build_dataset(load_config(str(root / "run.json")), bundle)

    def test_pfi_report_is_the_commands(self, one_forecast):
        assert run(one_forecast, "explain", "--model", "model.json", "--config", "run.json",
                   "--mode", "pfi", "--repeats", "3", "--seed", "4", "--out", "pfi.json") == 0
        bundle, prepared = self._model(one_forecast)
        report = permutation_importance(lambda rows: bundle.forecast(rows)[1], prepared.test.x,
                                        prepared.test.y, repeats=3, seed=4,
                                        feature_names=bundle.feature_names)
        report["split"] = "test"
        assert dump_json(report) == (one_forecast / "pfi.json").read_text()

    def test_lime_report_is_the_commands(self, one_forecast):
        assert run(one_forecast, "explain", "--model", "model.json", "--config", "run.json",
                   "--mode", "lime", "--instance-index", "3", "--seed", "5",
                   "--lime-samples", "300", "--out", "lime.json") == 0
        bundle, prepared = self._model(one_forecast)
        report = fit_lime(lambda rows: bundle.forecast(rows)[1], prepared.test.x[3],
                          prepared.train.x.std(axis=0), LimeConfig(n_samples=300, seed=5),
                          feature_names=bundle.feature_names)
        report.update(instance_index=3, actual=float(prepared.test.y[3]))
        assert dump_json(report) == (one_forecast / "lime.json").read_text()

    @pytest.mark.parametrize("n_samples", [None, 1000, 1025, 5000])
    def test_lime_model_prediction_is_the_forecast_of_the_instance_alone(self, one_forecast,
                                                                         n_samples):
        bundle, prepared = self._model(one_forecast)
        test = prepared.test
        lime = LimeConfig(n_samples=n_samples or test.x.shape[1] + 2)  # None: the least
        for i in range(0, len(test), 7):
            explained = explain_lime(bundle, prepared, i, lime)["model_prediction"]
            alone = bundle.forecast(test.x[i][None])[1][0]
            assert np.float64(explained).tobytes() == alone.tobytes(), i


class TestEvaluate:
    def test_point_report(self, trained):
        assert run(
            trained, "evaluate", "--model", "point_model.json",
            "--config", "point.json", "--out", "eval.json",
        ) == 0
        doc = json.loads((trained / "eval.json").read_text())
        assert {"r2", "nmae", "nrmse", "n"} <= set(doc)
        assert doc["n"] == 40  # 10% of 400

    def test_probabilistic_report(self, trained):
        assert run(
            trained, "evaluate", "--model", "quantile_model.json",
            "--config", "quantile.json", "--out", "qeval.json", "--probabilistic",
        ) == 0
        doc = json.loads((trained / "qeval.json").read_text())
        assert {"qs", "crps", "per_pinc"} <= set(doc)
        assert set(doc["per_pinc"]) == {"80", "90", "95"}
        for block in doc["per_pinc"].values():
            assert {"picp", "ace", "pinaw", "winkler"} <= set(block)

    def test_quantile_report_does_not_need_the_flag(self, trained):
        # the flag only checks the model kind: every quantile report has the
        # interval metrics
        for name, flag in (("qeval_flag.json", ["--probabilistic"]), ("qeval_plain.json", [])):
            assert run(
                trained, "evaluate", "--model", "quantile_model.json",
                "--config", "quantile.json", "--out", name, *flag,
            ) == 0
        plain = (trained / "qeval_plain.json").read_bytes()
        assert plain == (trained / "qeval_flag.json").read_bytes()
        assert {"qs", "crps", "per_pinc"} <= set(json.loads(plain))

    def test_quantile_model_forecasts_the_test_split_once(self, trained, monkeypatch):
        assert run(
            trained, "evaluate", "--model", "quantile_model.json",
            "--config", "quantile.json", "--out", "qeval_once.json", "--probabilistic",
        ) == 0
        calls = []

        def counting(net, x, levels):
            calls.append(len(x))
            return predict_quantiles(net, x, levels)

        monkeypatch.setattr(windcast.model_io, "predict_quantiles", counting)
        bundle = load_model(str(trained / "quantile_model.json"))
        prepared = build_dataset(load_config(str(trained / "quantile.json")))
        report = evaluate_bundle(bundle, prepared)
        assert calls == [40]
        assert dump_json(report) == (trained / "qeval_once.json").read_text()

    def test_probabilistic_flag_needs_quantile_model(self, trained):
        assert run(
            trained, "evaluate", "--model", "point_model.json",
            "--config", "point.json", "--out", "nope.json", "--probabilistic",
        ) == 1


class TestExplain:
    def test_pfi_report_and_chart(self, trained):
        assert run(
            trained, "explain", "--model", "point_model.json", "--config", "point.json",
            "--mode", "pfi", "--out", "pfi.json", "--svg-out", "pfi.svg",
            "--repeats", "3",
        ) == 0
        doc = json.loads((trained / "pfi.json").read_text())
        assert doc["kind"] == "pfi"
        assert doc["feature_names"] == ["WS10", "WD10", "WS100", "WD100"]
        assert len(doc["values"]) == 4
        svg = (trained / "pfi.svg").read_text()
        assert svg.count("<rect") == 4
        assert "WS100" in svg

    def test_pfi_rerun_byte_identical(self, trained):
        args = (
            "explain", "--model", "point_model.json", "--config", "point.json",
            "--mode", "pfi", "--repeats", "2", "--seed", "4",
        )
        assert run(trained, *args, "--out", "pfi_a.json") == 0
        assert run(trained, *args, "--out", "pfi_b.json") == 0
        assert (trained / "pfi_a.json").read_bytes() == (trained / "pfi_b.json").read_bytes()

    @pytest.fixture(scope="class")
    def wide(self, workdir):
        """A lags model of 8 features, so that each of 4 processes permutes two."""
        cfg = json.loads((workdir / "lags.json").read_text())
        cfg["data"]["lag"] = 8
        (workdir / "lags8.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "lags8.json", "--out", "lag8_model.json") == 0
        return workdir

    def test_pfi_bytes_do_not_depend_on_the_cpu_count(self, wide, monkeypatch):
        # 16-row blocks: the 40-row test split is 3 blocks per permutation
        monkeypatch.setattr(windcast.explain, "PFI_BLOCK_ROWS", 16)
        made, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
        args = ("explain", "--model", "lag8_model.json", "--config", "lags8.json",
                "--mode", "pfi", "--repeats", "3", "--seed", "2")
        outputs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(windcast._util, "usable_cpus", lambda: cpus)
            made.clear()
            assert run(wide, *args, "--out", f"pfi_{cpus}cpu.json") == 0
            assert len(made) == cpus - 1
            assert_no_child_left()
            outputs.append((wide / f"pfi_{cpus}cpu.json").read_bytes())
        assert len(json.loads(outputs[0])["values"]) == 8
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_lime_report(self, trained):
        assert run(
            trained, "explain", "--model", "point_model.json", "--config", "point.json",
            "--mode", "lime", "--instance-index", "5", "--out", "lime.json",
            "--lime-samples", "200",
        ) == 0
        doc = json.loads((trained / "lime.json").read_text())
        assert doc["kind"] == "lime"
        assert doc["instance_index"] == 5
        assert len(doc["values"]) == 4
        total = doc["intercept"] + sum(doc["values"])
        np.testing.assert_allclose(total, doc["local_prediction"], rtol=1e-12)

    def test_lime_instance_out_of_range(self, trained):
        assert run(
            trained, "explain", "--model", "point_model.json", "--config", "point.json",
            "--mode", "lime", "--instance-index", "100000", "--out", "x.json",
        ) == 2


@pytest.fixture(params=[None, 1, 2], ids=["cpus", "1cpu", "2cpu"])
def forks(request, monkeypatch):
    """The benchmark told that this many CPUs are usable (None: the real
    count); the list of forks it made, where with one CPU forking fails."""
    if request.param is not None:
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: request.param)
    made, real_fork = [], os.fork

    def fork():
        if request.param == 1:
            raise AssertionError("a process was forked with one usable CPU")
        made.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield made
    assert_no_child_left()


def _arm_in_child(monkeypatch, child):
    """Run child(*args) for the arm the forked child trains; the parent's
    arm trains as usual."""
    monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
    here, real = os.getpid(), windcast.pipeline._benchmark_arm

    def arm(*args):
        return real(*args) if os.getpid() == here else child(*args)

    monkeypatch.setattr(windcast.pipeline, "_benchmark_arm", arm)


class TestBenchmark:
    def test_report_shape(self, trained):
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "3",
            "--out", "bench.json",
        ) == 0
        doc = json.loads((trained / "bench.json").read_text())
        assert doc["kind"] == "benchmark"
        assert len(doc["runs"]) == 3
        for entry in doc["runs"]:
            assert {"with_strategies", "without_strategies", "seed"} <= set(entry)
        assert doc["medians"]["with_strategies"]["runs_ok"] == 3
        assert "nrmse" in doc["deltas_pct"]

    def test_split_hash_stable_across_reruns(self, trained):
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "2",
            "--out", "bench2.json",
        ) == 0
        a = json.loads((trained / "bench.json").read_text())
        b = json.loads((trained / "bench2.json").read_text())
        assert a["split_hash"] == b["split_hash"]

    def test_report_matches_sequential_training(self, trained, forks):
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "3",
            "--out", "bench3.json",
        ) == 0
        # one block per pass, so no training workers: a child for the off arm
        assert len(forks) == (windcast._util.usable_cpus() > 1)
        doc = json.loads((trained / "bench3.json").read_text())
        reference = json.loads(dump_json(_sequential_benchmark(trained / "point.json", 3)))
        assert _without_wall_times(doc) == reference

    def test_arms_stay_sequential_where_training_forks_workers(self, trained, monkeypatch):
        # blocks of 32 rows and two usable CPUs: full-batch passes fork a worker
        monkeypatch.setattr(windcast.optim, "TRAIN_ROWS", 32)
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
        pids, real = [], windcast.pipeline._benchmark_arm

        def arm(*args):
            pids.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(windcast.pipeline, "_benchmark_arm", arm)
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "2",
            "--out", "bench_blocks.json",
        ) == 0
        assert pids == [os.getpid()] * 2
        assert_no_child_left()

    @pytest.mark.parametrize("child, code", [
        (lambda *args: os._exit(3), 3),
        # a megabyte reaches the pipe before pickling fails: an answer cut short
        (lambda *args: [b"x" * 2**20, lambda: None], 1),
    ], ids=["exit", "unpicklable"])
    def test_a_child_that_dies_ends_in_a_windcast_error(self, trained, capsys, monkeypatch,
                                                       child, code):
        _arm_in_child(monkeypatch, child)
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "2",
            "--out", "dead_bench.json",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("windcast: ToolkitError: benchmark worker process ")
        assert err.endswith(f" ended with exit code {code}\n")
        assert "Traceback" not in err
        assert not (trained / "dead_bench.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("exc, code", [(ToolkitError("no off arm"), 1),
                                           (DataError("no off arm"), 3)])
    def test_an_error_in_the_childs_arm_is_raised_here(self, trained, capsys, monkeypatch,
                                                       exc, code):
        def failing(*args):
            raise exc

        _arm_in_child(monkeypatch, failing)
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "2",
            "--out", "failed_bench.json",
        ) == code
        assert capsys.readouterr().err == f"windcast: {type(exc).__name__}: no off arm\n"
        assert not (trained / "failed_bench.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [RuntimeError("no on arm"), KeyboardInterrupt()])
    def test_an_error_in_this_process_ends_the_child(self, trained, monkeypatch, exc):
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
        here = os.getpid()

        def arm(*args):
            if os.getpid() != here:
                time.sleep(60)
            raise exc

        monkeypatch.setattr(windcast.pipeline, "_benchmark_arm", arm)
        started = time.perf_counter()
        with pytest.raises(type(exc)):
            main(["benchmark", "--config", str(trained / "point.json"), "--seeds", "2",
                  "--out", str(trained / "interrupted_bench.json")])
        assert time.perf_counter() - started < 30
        assert not (trained / "interrupted_bench.json").exists()
        assert_no_child_left()

    def test_workers_flag_is_gone(self, trained, capsys):
        assert run(
            trained, "benchmark", "--config", "point.json", "--workers", "2",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("windcast:")
        assert "Traceback" not in err

    def test_metrics_identical_across_reruns(self, trained):
        a = json.loads((trained / "bench.json").read_text())
        b = json.loads((trained / "bench2.json").read_text())
        for run_a, run_b in zip(a["runs"], b["runs"]):
            for arm in ("with_strategies", "without_strategies"):
                assert run_a[arm]["nrmse"] == run_b[arm]["nrmse"]
                assert run_a[arm]["r2"] == run_b[arm]["r2"]


class TestForkFailure:
    """A fork that fails, as at the process limit, leaves the work to the
    children already forked, or to this process: the command exits 0 with
    the bytes it writes on one CPU, and no descriptor is left open."""

    def _one_cpu_then_failing_forks(self, trained, monkeypatch, forks, cpus, *argv):
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 1)
        assert run(trained, *argv, "--out", "one_cpu.out") == 0
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: cpus)
        fork_fails_after(monkeypatch, forks)
        open_fds = open_descriptors()
        assert run(trained, *argv, "--out", "failed_fork.out") == 0
        assert open_descriptors() == open_fds
        assert_no_child_left()
        return [(trained / name).read_text() for name in ("one_cpu.out", "failed_fork.out")]

    @pytest.mark.parametrize("forks", [0, 1])
    def test_predict(self, trained, monkeypatch, forks):
        # 64-row blocks: seven for the 400 rows, three children planned
        monkeypatch.setattr(windcast.pipeline, "CSV_BLOCK_ROWS", 64)
        one_cpu, failed = self._one_cpu_then_failing_forks(
            trained, monkeypatch, forks, 3,
            "predict", "--model", "quantile_model.json", "--config", "quantile.json",
        )
        assert failed == one_cpu

    @pytest.mark.parametrize("forks", [0, 1])
    def test_explain(self, trained, monkeypatch, forks):
        # four features, three processes planned
        one_cpu, failed = self._one_cpu_then_failing_forks(
            trained, monkeypatch, forks, 3,
            "explain", "--model", "point_model.json", "--config", "point.json", "--mode", "pfi",
        )
        assert failed == one_cpu

    def test_benchmark(self, trained, monkeypatch):
        one_cpu, failed = self._one_cpu_then_failing_forks(
            trained, monkeypatch, 0, 2,
            "benchmark", "--config", "point.json", "--seeds", "2",
        )
        assert _without_wall_times(json.loads(failed)) == _without_wall_times(
            json.loads(one_cpu))


# windcast's CLI as a user runs it, with two usable CPUs faked and small
# blocks, so that benchmark, predict, explain and full-batch train fork
# children on any host. The parent's first fork leaves a file named "forked";
# a forecast takes 0.1 s, so predict's and explain's children are still busy
# when it appears.
SIGTERM_DRIVER = """
import os, sys, time
import windcast._util, windcast.cli, windcast.optim, windcast.pipeline as pipeline
from windcast.model_io import ModelBundle
windcast._util.usable_cpus = lambda: 2
windcast.optim.TRAIN_ROWS = 32
pipeline.CSV_BLOCK_ROWS = 8
forecast, fork = ModelBundle.forecast, os.fork
ModelBundle.forecast = lambda *args: time.sleep(0.1) or forecast(*args)
def marked_fork():
    pid = fork()
    if pid:
        open("forked", "w").close()
    return pid
os.fork = marked_fork
sys.exit(windcast.cli.main(sys.argv[1:]))
"""


def _until(done, seconds: float) -> bool:
    """Whether done() turns true within seconds, polled."""
    deadline = time.monotonic() + seconds
    while not done():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _group_ended(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


class TestSigterm:
    @pytest.fixture(scope="class")
    def long_runs(self, trained):
        """Configs that train for minutes: full batch, and minibatches of 32
        rows, with which benchmark forks a child for an arm."""
        cfg = json.loads((trained / "point.json").read_text())
        cfg["training"]["epochs"] = 100_000
        (trained / "long.json").write_text(json.dumps(cfg))
        cfg["training"]["batch_size"] = 32
        (trained / "long_minibatch.json").write_text(json.dumps(cfg))
        return trained

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--config", "long_minibatch.json", "--seeds", "2"],
        ["predict", "--model", "point_model.json", "--config", "point.json"],
        ["explain", "--model", "point_model.json", "--config", "point.json", "--mode", "pfi"],
        ["train", "--config", "long.json"],
    ], ids=lambda argv: argv[0])
    def test_no_process_or_output_is_left(self, long_runs, argv):
        root, out = long_runs, long_runs / f"sigterm_{argv[0]}.out"
        (root / "forked").unlink(missing_ok=True)
        src = os.path.dirname(os.path.dirname(windcast._util.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", SIGTERM_DRIVER, *argv, "--out", out.name], cwd=root,
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _until(lambda: (root / "forked").exists() or proc.poll() is not None, 60)
            assert proc.poll() is None, "the command ended before it was sent SIGTERM"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) in (-signal.SIGTERM, 128 + signal.SIGTERM)
            assert _until(lambda: _group_ended(proc.pid), 5), "a child outlived the command"
        finally:
            if not _group_ended(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert not out.exists()
        assert not list(root.glob(".tmp-*"))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasPin:
    """Importing windcast pins BLAS to one thread where the environment
    sets no thread count, so training writes the bytes of a one-thread run;
    a count set outside wins."""

    @staticmethod
    def _env(**blas):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        src = os.path.dirname(os.path.dirname(windcast._util.__file__))
        return dict(env, PYTHONPATH=src, **blas)

    @pytest.mark.parametrize("blas, want", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ], ids=["unset", "openblas_2"])
    def test_import_sets_only_unset_variables(self, blas, want):
        probe = "import json, os, windcast; print(json.dumps([os.environ.get(v) for v in %r]))"
        out = subprocess.run([sys.executable, "-c", probe % (BLAS_VARS,)], env=self._env(**blas),
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == want

    def test_unpinned_training_writes_the_bytes_of_one_thread(self, tmp_path):
        # products of 48 x 64 weights over 2,000-row batches: large enough
        # for a multi-threaded BLAS to split them, so on a host with more
        # than one CPU an unpinned run would give other bytes; under
        # TRAIN_ROWS rows, so no training worker is forked
        write_wind_csv(str(tmp_path / "wind.csv"), n_rows=3000, seed=7)
        cfg = {"data": {"path": "wind.csv", "timestamp_col": "timestamp", "target_col": "power",
                        "mode": "lags", "lag": 48, "horizon": 1},
               "model": {"hidden_sizes": [64], "loss": "mse"},
               "training": {"epochs": 5, "seed": 1}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        outputs = []
        for name, blas in (("unset", {}), ("pinned", dict.fromkeys(BLAS_VARS, "1"))):
            subprocess.run([sys.executable, "-m", "windcast.cli", "train", "--config", "run.json",
                            "--out", f"{name}.json"], cwd=tmp_path, env=self._env(**blas),
                           capture_output=True, check=True)
            outputs.append([(tmp_path / f"{name}{ext}").read_bytes()
                            for ext in (".json", ".trace.csv")])
        assert outputs[0] == outputs[1]


def _without_wall_times(doc):
    if isinstance(doc, dict):
        return {k: _without_wall_times(v) for k, v in doc.items() if k != "wall_time_s"}
    if isinstance(doc, list):
        return [_without_wall_times(v) for v in doc]
    return doc


def _sequential_benchmark(config_path, n_seeds):
    """The report of `benchmark` on an mse config, wall times left out,
    computed by training every run on its own, one after another."""
    config = load_config(str(config_path))
    prepared = build_dataset(config)
    test = prepared.test
    arch = Architecture((test.x.shape[1], *config.model.architecture.layer_sizes[1:-1], 1))
    o, s = config.optimizer, config.strategies
    opt_config = OptimizerConfig(o.kind, o.beta1, o.beta2, o.epsilon, o.fixed_lr)
    on = StrategyConfig(centralize=True, cosine_lr=True, initial_lr=s.initial_lr,
                        total_epochs=config.training.epochs, noise_tau=s.noise_tau)
    split_hash = hashlib.sha256(test.x.tobytes() + test.y.tobytes()).hexdigest()[:16]
    seeds = [config.training.seed + i for i in range(n_seeds)]
    runs = []
    for seed in seeds:
        entry = {"seed": seed}
        arms = (("with_strategies", dataclasses.replace(on, noise_seed=s.noise_seed + seed)),
                ("without_strategies", StrategyConfig()))
        for arm, strategies in arms:
            net, trace = train(init_network(arch, seed), prepared.train, prepared.val,
                               opt_config, strategies, Loss(), config.training.epochs,
                               batch_size=config.training.batch_size)
            report = deterministic_report(test.y, infer(net, test.x)[:, 0])
            report["epochs_run"] = len(trace)
            report["best_val_epoch"] = int(np.argmin([row[3] for row in trace.rows])) + 1
            report["split_hash"] = split_hash
            entry[arm] = report
        runs.append(entry)
    medians = {
        arm: {
            **{m: float(np.median([r[arm][m] for r in runs])) for m in ("r2", "nmae", "nrmse")},
            "runs_ok": n_seeds,
        }
        for arm in ("with_strategies", "without_strategies")
    }
    on_m, off_m = medians["with_strategies"], medians["without_strategies"]
    deltas = {m: 100.0 * (off_m[m] - on_m[m]) / off_m[m] for m in ("nrmse", "nmae")}
    deltas["r2"] = 100.0 * (on_m["r2"] - off_m["r2"]) / abs(off_m["r2"])
    return {"kind": "benchmark", "seeds": seeds, "split_hash": split_hash, "runs": runs,
            "medians": medians, "deltas_pct": deltas}


# windcast's CLI as a user runs it, with 1 GiB of address space and every
# array constructor refused: a flag above its cap exits 2 before any array
# is built, and a missing check fails fast rather than filling the memory
CAP_DRIVER = """
import resource, sys
import numpy as np, numpy.random
import windcast.cli
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
def no_arrays(*args, **kwargs):
    raise AssertionError("an array was built")
np.empty = np.array = no_arrays
sys.exit(windcast.cli.main(sys.argv[1:]))
"""


class TestFlagCaps:
    @pytest.mark.parametrize("argv, flag, cap", [
        (("explain", "--model", "point_model.json", "--mode", "pfi"), "--repeats",
         MAX_PFI_REPEATS),
        (("explain", "--model", "point_model.json", "--mode", "lime"), "--lime-samples",
         MAX_LIME_SAMPLES),
        (("benchmark",), "--seeds", MAX_BENCHMARK_SEEDS),
    ], ids=["repeats", "lime_samples", "seeds"])
    def test_one_over_the_cap_exits_two_before_any_array(self, trained, argv, flag, cap):
        src = os.path.dirname(os.path.dirname(windcast._util.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", CAP_DRIVER, *argv, "--config", "point.json",
             flag, str(cap + 1), "--out", "capped.json"],
            cwd=trained, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.stderr == f"windcast: SchemaError: {flag} {cap + 1:,} is above the cap of {cap:,}\n"
        assert proc.returncode == 2
        assert not (trained / "capped.json").exists()

    @pytest.mark.parametrize("mode, flag, cap", [("pfi", "--repeats", MAX_PFI_REPEATS),
                                                 ("lime", "--lime-samples", MAX_LIME_SAMPLES)])
    def test_the_cap_itself_is_accepted(self, trained, mode, flag, cap):
        assert run(trained, "explain", "--model", "point_model.json", "--config", "point.json",
                   "--mode", mode, flag, str(cap), "--out", f"at_cap_{mode}.json") == 0

    @pytest.mark.parametrize("samples", [MAX_LIME_SAMPLES, 599])
    def test_lime_samples_over_a_wide_models_bound_exit_two_before_the_config(self, workdir,
                                                                               capsys, samples):
        """samples x (inputs + 1), one design matrix, is bounded once the
        model is read: a config that cannot be read is not reached."""
        inputs = MAX_LAYER_WIDTH
        assert MAX_LIME_VALUES // (inputs + 1) == 598
        bundle = ModelBundle(init_network(Architecture((inputs, 1, 1)), 0),
                             Scaler({"power": (0.0, 1.0)}), "power",
                             tuple(f"lag_{i}" for i in range(inputs)), lag=inputs)
        save_model(str(workdir / "wide_model.json"), bundle)
        capsys.readouterr()
        assert run(workdir, "explain", "--model", "wide_model.json", "--config", "missing.json",
                   "--mode", "lime", "--lime-samples", str(samples), "--out", "wide.json") == 2
        assert capsys.readouterr().err == (
            f"windcast: SchemaError: --lime-samples {samples:,} for a model of 8,192 inputs "
            f"gives {samples * 8193:,} design values, above the cap of 4,900,000\n")
        # 598 samples pass the bound and go on to the config
        assert run(workdir, "explain", "--model", "wide_model.json", "--config", "missing.json",
                   "--mode", "lime", "--lime-samples", "598", "--out", "wide.json") == 1
        assert "cannot read config missing.json" in capsys.readouterr().err
        assert not (workdir / "wide.json").exists()


HUGE = 10 ** 400  # a JSON integer too large for a float
# output paths no file can be written to: a directory, too long a name, a missing directory
UNWRITABLE = ("a_dir", "x" * 300, os.path.join("no_such_dir", "x"))


class TestExitCodes:
    def test_missing_config_is_usage(self, workdir):
        assert run(workdir, "train", "--config", "missing.json") == 1

    def test_malformed_config_is_schema(self, workdir):
        (workdir / "broken.json").write_text("{not json")
        assert run(workdir, "train", "--config", "broken.json") == 2

    def test_unknown_config_key_is_schema(self, workdir):
        (workdir / "extra.json").write_text(
            json.dumps({"data": {"path": "wind.csv", "timestamp_col": "timestamp",
                                 "target_col": "power"}, "surprise": 1})
        )
        assert run(workdir, "train", "--config", "extra.json") == 2

    @pytest.mark.parametrize("section, body, key", [
        ("optimizer", {"fixed_lr": HUGE}, "optimizer.fixed_lr"),
        ("strategies", {"noise_tau": HUGE}, "strategies.noise_tau"),
        ("split", [0.8, 0.1, HUGE], "split.2"),
        # the cosine schedule divides by its horizon, total_epochs or else epochs, as a float
        ("training", {"epochs": HUGE}, "training.epochs"),
        ("strategies", {"total_epochs": HUGE}, "strategies.total_epochs"),
    ])
    def test_a_huge_integer_in_a_config_is_schema(self, workdir, capsys, section, body, key):
        cfg = json.loads((workdir / "point.json").read_text())
        cfg[section] = {**cfg[section], **body} if section in cfg else body
        (workdir / "huge.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(workdir, "train", "--config", "huge.json", "--out", "huge_model.json") == 2
        assert capsys.readouterr().err == (
            f"windcast: SchemaError: config {key}: an integer too large for a float\n"
        )
        assert not (workdir / "huge_model.json").exists()

    def test_huge_epochs_and_seed_train_without_the_cosine_schedule(self, workdir):
        cfg = json.loads((workdir / "point.json").read_text())
        cfg["strategies"]["cosine_lr"] = False
        cfg["training"] = {"epochs": HUGE, "seed": HUGE, "early_stop_patience": 0}
        (workdir / "huge_no_cosine.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "huge_no_cosine.json",
                   "--out", "huge_no_cosine_model.json") == 0
        assert load_model(str(workdir / "huge_no_cosine_model.json")).metadata["seed"] == HUGE

    def test_huge_epochs_end_the_benchmark_whose_arm_takes_the_cosine_schedule(self, workdir,
                                                                               capsys):
        cfg = json.loads((workdir / "point.json").read_text())
        cfg["strategies"]["cosine_lr"] = False
        cfg["training"]["epochs"] = HUGE
        (workdir / "huge_benchmark.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(workdir, "benchmark", "--config", "huge_benchmark.json", "--seeds", "2",
                   "--out", "huge_benchmark_out.json") == 2
        assert capsys.readouterr().err == ("windcast: ScheduleOverflowError: the schedule "
                                           "horizon total_epochs is too large for a float\n")
        assert not (workdir / "huge_benchmark_out.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("where, key", [
        (lambda doc: doc["weights"][1][0], "weights[1]"),
        (lambda doc: doc["scaler"]["power"], "scaler bounds of 'power'"),
    ])
    def test_a_huge_integer_in_a_model_file_is_schema(self, trained, capsys, where, key):
        doc = json.loads((trained / "point_model.json").read_text())
        where(doc)[0] = HUGE
        (trained / "huge_int_model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(trained, "evaluate", "--model", "huge_int_model.json", "--config", "point.json",
                   "--out", "huge_int.json") == 2
        assert capsys.readouterr().err == (
            f"windcast: SchemaError: huge_int_model.json: {key} must hold finite numbers only\n"
        )

    def test_a_nan_quantile_level_in_a_config_is_schema(self, workdir, capsys):
        cfg = json.loads((workdir / "quantile.json").read_text())
        cfg["model"]["quantile_levels"] = [0.1, float("nan"), 0.9]
        (workdir / "nan_levels.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(workdir, "train", "--config", "nan_levels.json", "--out", "nan.json") == 2
        assert capsys.readouterr().err == (
            "windcast: SchemaError: quantile levels must lie strictly inside (0, 1)\n"
        )

    def test_a_nan_quantile_level_in_a_model_file_is_schema(self, trained, capsys):
        doc = json.loads((trained / "quantile_model.json").read_text())
        doc["quantile_levels"][1] = float("nan")
        (trained / "nan_level_model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(trained, "evaluate", "--model", "nan_level_model.json",
                   "--config", "quantile.json", "--out", "nan_level.json") == 2
        assert capsys.readouterr().err == ("windcast: SchemaError: nan_level_model.json: "
                                           "quantile levels must lie strictly inside (0, 1)\n")

    def test_a_training_worker_that_dies_ends_in_a_windcast_error(self, workdir, capsys,
                                                                  monkeypatch):
        # blocks of 32 rows and two usable CPUs: full-batch passes fork a worker
        monkeypatch.setattr(windcast.optim, "TRAIN_ROWS", 32)
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
        here, real = os.getpid(), windcast.optim._train_block

        def dying(*args):
            if os.getpid() != here:
                os._exit(3)
            time.sleep(0.01)  # so that the worker claims a block
            return real(*args)

        monkeypatch.setattr(windcast.optim, "_train_block", dying)
        assert run(workdir, "train", "--config", "point.json", "--out", "dead.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("windcast: ToolkitError: training worker process ")
        assert err.endswith(" ended with exit code 3\n")
        assert "Traceback" not in err
        assert not (workdir / "dead.json").exists()
        assert_no_child_left()

    def test_a_prediction_worker_that_dies_ends_in_a_windcast_error(self, trained, capsys,
                                                                    monkeypatch):
        # blocks of 8 rows and two usable CPUs: predict formats them in workers
        monkeypatch.setattr(windcast.pipeline, "CSV_BLOCK_ROWS", 8)
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
        here, real = os.getpid(), windcast.pipeline.predictions_csv

        def dying(*args):
            if os.getpid() != here:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(windcast.pipeline, "predictions_csv", dying)
        assert run(
            trained, "predict", "--model", "point_model.json", "--config", "point.json",
            "--out", "dead.csv",
        ) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"windcast: ToolkitError: prediction worker process \d+ "
                            r"ended with exit code 3\n", err)
        assert not (trained / "dead.csv").exists()
        assert not list(trained.glob(".tmp-*"))
        assert_no_child_left()

    def test_a_permutation_importance_worker_that_dies_ends_in_a_windcast_error(
        self, trained, capsys, monkeypatch
    ):
        # four features and two usable CPUs: a child permutes two of them
        monkeypatch.setattr(windcast._util, "usable_cpus", lambda: 2)
        here, real = os.getpid(), windcast.model_io.ModelBundle.forecast

        def dying(*args):
            if os.getpid() != here:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(windcast.model_io.ModelBundle, "forecast", dying)
        assert run(
            trained, "explain", "--model", "point_model.json", "--config", "point.json",
            "--mode", "pfi", "--out", "dead_pfi.json",
        ) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"windcast: ToolkitError: permutation importance worker process "
                            r"\d+ ended with exit code 3\n", err)
        assert not (trained / "dead_pfi.json").exists()
        assert not list(trained.glob(".tmp-*"))
        assert_no_child_left()

    def test_missing_data_file_is_data_error(self, workdir):
        cfg = {"data": {"path": "not_there.csv", "timestamp_col": "timestamp",
                        "target_col": "power"}}
        (workdir / "nodata.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "nodata.json") == 3

    @pytest.mark.parametrize("name", ["bad_utf8", "mixed_tz"])
    def test_unreadable_csv_is_data_error(self, workdir, capsys, name):
        body = {
            "bad_utf8": b"timestamp,power,WS10\n2021-01-01T00:00:00,1.0,\xff\n",
            "mixed_tz": b"timestamp,power,WS10\n2021-01-01T00:00:00,1.0,3.0\n"
                        b"2021-01-01T00:15:00+00:00,2.0,4.0\n",
        }[name]
        (workdir / f"{name}.csv").write_bytes(body)
        cfg = {"data": {"path": f"{name}.csv", "timestamp_col": "timestamp",
                        "target_col": "power", "mode": "nwp", "feature_cols": ["WS10"]}}
        (workdir / f"{name}.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", f"{name}.json", "--out", f"{name}_model.json") == 3
        err = capsys.readouterr().err
        assert err.startswith("windcast:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("optimizer", "beta1", float("nan")),
        ("optimizer", "beta2", float("inf")),
        ("optimizer", "epsilon", float("nan")),
        ("optimizer", "fixed_lr", float("inf")),
        ("strategies", "initial_lr", float("nan")),
        ("strategies", "noise_tau", float("inf")),
        ("strategies", "noise_tau", float("nan")),
        ("training", "batch_size", 0),
        ("training", "early_stop_patience", -1),
        ("split", None, 0.8),
        ("split", None, [0.8, "a", 0.1]),
        ("split", None, [0.8, float("nan"), 0.1]),
        ("model", "quantile_levels", [0.1, "median", 0.9]),
        ("training", "seed", -3),
        ("training", "epochs", 0),
        ("strategies", "noise_seed", -1),
        ("data", "feature_cols", "WS10"),
        ("data", "feature_cols", ["WS10", 3]),
    ])
    def test_bad_config_value_is_schema(self, workdir, capsys, section, key, value):
        cfg = json.loads((workdir / "quantile.json").read_text())
        if key is None:
            cfg[section] = value
        else:
            cfg.setdefault(section, {})[key] = value
        (workdir / "bad_value.json").write_text(json.dumps(cfg))  # NaN/Infinity tokens
        assert run(workdir, "train", "--config", "bad_value.json", "--out", "bv.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast:")
        assert "Traceback" not in err
        if section == "data":
            assert f"config data.{key}" in err
        assert not (workdir / "bv.json").exists()

    @pytest.mark.parametrize("argv", [
        ("train", "--config", "point.json", "--out", "neg.json"),
        ("benchmark", "--config", "point.json", "--seeds", "1", "--out", "neg.json"),
        ("explain", "--model", "point_model.json", "--config", "point.json",
         "--mode", "pfi", "--out", "neg.json"),
        ("explain", "--model", "point_model.json", "--config", "point.json",
         "--mode", "lime", "--out", "neg.json"),
    ], ids=["train", "benchmark", "pfi", "lime"])
    def test_negative_seed_flag_is_usage(self, trained, capsys, argv):
        capsys.readouterr()
        assert run(trained, *argv, "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("windcast: UsageError: argument --seed: a seed must be")
        assert "Traceback" not in err
        assert not (trained / "neg.json").exists()

    @pytest.mark.parametrize("flag", ["--perturb-scale", "--ridge-lambda", "--kernel-width"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lime_setting_is_schema(self, trained, capsys, flag, value):
        capsys.readouterr()
        assert run(trained, "explain", "--model", "point_model.json", "--config", "point.json",
                   "--mode", "lime", flag, value, "--out", "lime_bad.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast: SchemaError: ")
        assert "must be finite" in err
        assert not (trained / "lime_bad.json").exists()

    def test_every_command_validates_the_whole_config(self, trained):
        cfg = json.loads((trained / "point.json").read_text())
        cfg["strategies"]["noise_tau"] = float("inf")
        (trained / "bad_tau.json").write_text(json.dumps(cfg))
        for command in ("predict", "evaluate", "explain"):
            assert run(trained, command, "--model", "point_model.json",
                       "--config", "bad_tau.json", "--out", f"bad_{command}.out") == 2

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"horizon": 4}, "horizon 1 but the config's data.horizon is 4",
                     id="horizon"),
        pytest.param({"lag": 8}, "lag 6 but the config's data.lag is 8", id="lag"),
        pytest.param({"target_col": "WS100"},
                     "target_col power but the config's data.target_col is WS100", id="target"),
        pytest.param({"mode": "nwp", "feature_cols": ["WS10"]},
                     "mode lags but the config's data.mode is nwp", id="mode"),
    ])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "explain"])
    def test_horizon_mismatch_is_schema(self, lag_trained, capsys, request, command, edit,
                                        message):
        workdir = lag_trained
        name = request.node.callspec.id  # e.g. "predict-lag"
        cfg = json.loads((workdir / "lags.json").read_text())
        cfg["data"].update(edit)
        (workdir / f"lags_{name}.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(workdir, command, "--model", "lag_h1_model.json",
                   "--config", f"lags_{name}.json", "--out", f"{name}.out") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast: SchemaError: model was trained for " + message)
        assert not (workdir / f"{name}.out").exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"horizon_alignment": 2},
                     "horizon_alignment 0 but the config's data.horizon_alignment is 2",
                     id="alignment"),
        pytest.param({"target_col": "WS100"},
                     "target_col power but the config's data.target_col is WS100", id="target"),
        pytest.param({"mode": "lags"}, "mode nwp but the config's data.mode is lags", id="mode"),
        pytest.param({"feature_cols": ["WD10", "WS10", "WS100", "WD100"]},
                     "feature_cols ('WS10', 'WD10', 'WS100', 'WD100') but the config's "
                     "data.feature_cols is ('WD10', 'WS10', 'WS100', 'WD100')", id="reordered"),
        pytest.param({"feature_cols": ["WS10", "WD10", "WS100"]},
                     "feature_cols ('WS10', 'WD10', 'WS100', 'WD100') but the config's "
                     "data.feature_cols is ('WS10', 'WD10', 'WS100')", id="fewer"),
    ])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "explain"])
    def test_alignment_mismatch_is_schema(self, trained, capsys, request, command, edit, message):
        name = request.node.callspec.id  # e.g. "predict-reordered"
        cfg = json.loads((trained / "point.json").read_text())
        cfg["data"].update(edit)
        (trained / f"point_{name}.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(trained, command, "--model", "point_model.json",
                   "--config", f"point_{name}.json", "--out", f"{name}.out") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast: SchemaError: model was trained for " + message)
        assert not (trained / f"{name}.out").exists()

    @pytest.mark.parametrize("csv", ["no_such.csv", "garbage.csv"])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "explain"])
    def test_mismatch_is_schema_before_the_csv_is_read(self, trained, capsys, command, csv):
        (trained / "garbage.csv").write_text("not,a\nwind,file\n")
        cfg = json.loads((trained / "point.json").read_text())
        cfg["data"].update(path=csv, target_col="WS100")
        (trained / f"target_{csv}.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(trained, command, "--model", "point_model.json",
                   "--config", f"target_{csv}.json", "--out", f"csv_{command}.out") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast: SchemaError: model was trained for target_col power "
                              "but the config's data.target_col is WS100")
        assert not (trained / f"csv_{command}.out").exists()

    def test_aligned_model_keeps_its_alignment(self, workdir):
        cfg = json.loads((workdir / "point.json").read_text())
        cfg["data"]["horizon_alignment"] = 2
        cfg["training"]["epochs"] = 2
        (workdir / "aligned.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "aligned.json", "--out", "aligned_model.json") == 0
        assert load_model(str(workdir / "aligned_model.json")).horizon_alignment == 2
        assert run(workdir, "evaluate", "--model", "aligned_model.json",
                   "--config", "aligned.json", "--out", "aligned_eval.json") == 0

    def test_oversized_network_is_schema(self, workdir, capsys):
        cfg = json.loads((workdir / "point.json").read_text())
        cfg["model"]["hidden_sizes"] = [1_000_000_000]
        (workdir / "huge.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(workdir, "train", "--config", "huge.json", "--out", "huge_model.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("windcast: SchemaError: config model.hidden_sizes: ")
        assert "above the cap of 10,000,000" in err and "Traceback" not in err
        assert not (workdir / "huge_model.json").exists()

    def test_bad_model_file_is_schema(self, trained, capsys):
        doc = json.loads((trained / "point_model.json").read_text())
        doc["weights"][0][0][0] = "heavy"
        (trained / "bad_weight_model.json").write_text(json.dumps(doc))
        assert run(trained, "predict", "--model", "bad_weight_model.json",
                   "--config", "point.json", "--out", "bad_weight.csv") == 2
        assert "bad_weight_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate", "explain"])
    def test_column_missing_from_the_models_scaler_is_schema(self, trained, capsys, command):
        doc = json.loads((trained / "point_model.json").read_text())
        del doc["scaler"]["WS10"]
        (trained / "no_ws10_model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(trained, command, "--model", "no_ws10_model.json",
                   "--config", "point.json", "--out", f"no_ws10_{command}.out") == 2
        assert "'WS10'" in capsys.readouterr().err
        assert not (trained / f"no_ws10_{command}.out").exists()

    def test_divergence_is_exit_four(self, workdir):
        cfg = {
            "data": {"path": "wind.csv", "timestamp_col": "timestamp",
                     "target_col": "power", "mode": "nwp",
                     "feature_cols": ["WS10", "WD10", "WS100", "WD100"]},
            "model": {"hidden_sizes": [4], "loss": "mse"},
            "optimizer": {"kind": "adam", "fixed_lr": 1e160},
            "training": {"epochs": 10, "seed": 0},
        }
        (workdir / "diverge.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "diverge.json", "--out", "d.json") == 4

    @pytest.mark.parametrize("argv", [
        ("predict",), ("evaluate",), ("explain", "--mode", "pfi"), ("explain", "--mode", "lime"),
    ])
    def test_an_overflowing_forecast_is_exit_four(self, trained, capsys, argv):
        # finite parameters, so load_model accepts them, whose forecast overflows
        doc = json.loads((trained / "quantile_model.json").read_text())
        doc["weights"] = [[[1e200] * len(row) for row in w] for w in doc["weights"]]
        doc["biases"] = [[1e200] * len(b) for b in doc["biases"]]
        (trained / "overflow_model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(trained, *argv, "--model", "overflow_model.json",
                       "--config", "quantile.json", "--out", "overflow.out") == 4
        err = capsys.readouterr().err
        assert err.startswith("windcast: NonFiniteForecastError: the model forecasts inf")
        assert "Traceback" not in err
        assert not (trained / "overflow.out").exists()
        assert not list(trained.glob(".tmp-*"))

    @pytest.mark.parametrize("argv, where", [
        # scaled forecasts of 1e300 pass the forecast check; their squares overflow
        (("evaluate", "--model", "huge_forecast_model.json"), "nrmse is inf"),
        # and so do those of the unpermuted error, in this process and in children
        (("explain", "--model", "huge_forecast_model.json", "--mode", "pfi"), "e_ori is inf"),
    ])
    def test_a_non_finite_report_value_is_exit_four(self, trained, capsys, argv, where):
        doc = json.loads((trained / "quantile_model.json").read_text())
        doc["biases"][-1] = [1e300] * len(doc["biases"][-1])
        (trained / "huge_forecast_model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(trained, *argv, "--config", "quantile.json", "--out", "non_finite.json") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"windcast: NonFiniteReportError: the value at {where}, ")
        assert "Traceback" not in err
        assert not (trained / "non_finite.json").exists()
        assert not list(trained.glob(".tmp-*"))

    @pytest.mark.parametrize("flag, text", [
        # a kernel this narrow gives every perturbed row a weight of 0
        (("--kernel-width", "1e-200"),
         "kernel_width 1e-200 gives every perturbed row a weight of 0"),
        # perturbations this wide overflow the normal equations
        (("--perturb-scale", "1e308"),
         "perturb_scale 1e+308 gives normal equations that are not finite"),
    ])
    def test_a_lime_setting_that_leaves_no_finite_fit_is_named(self, trained, capsys, flag, text):
        capsys.readouterr()
        assert run(trained, "explain", "--model", "quantile_model.json", "--mode", "lime", *flag,
                   "--config", "quantile.json", "--out", "no_fit.json") == 4
        assert capsys.readouterr().err == f"windcast: RankDeficiencyError: {text}\n"
        assert not (trained / "no_fit.json").exists()
        assert not list(trained.glob(".tmp-*"))

    def test_a_non_finite_value_is_named_by_its_key_path(self):
        report = {"b": 1.0, "a": {"z": [0.0, np.float64(np.inf)], "y": [[1.0, float("nan")]]}}
        with pytest.raises(NonFiniteReportError, match=r"at a\.y\[0\]\[1\] is nan,"):
            dump_json(report)

    def test_a_chart_that_cannot_be_written_leaves_the_report_as_it_was(self, trained, capsys):
        (trained / "kept.json").write_bytes(b"kept bytes\n")
        assert run(trained, "explain", "--model", "point_model.json", "--config", "point.json",
                   "--out", "kept.json", "--svg-out", os.path.join("no_such_dir", "x.svg")) == 3
        err = capsys.readouterr().err
        assert err.startswith("windcast: DataError: cannot write no_such_dir")
        assert "Traceback" not in err
        assert (trained / "kept.json").read_bytes() == b"kept bytes\n"
        assert not list(trained.glob(".tmp-*"))

    @pytest.mark.parametrize("argv, other", [
        *((("train", "--config", "point.json", "--out", "lone.json", "--trace-out", bad),
           "lone.json") for bad in UNWRITABLE),
        *((("explain", "--model", "point_model.json", "--config", "point.json",
            "--svg-out", "lone.svg", "--out", bad), "lone.svg") for bad in ("", *UNWRITABLE)),
    ])
    def test_an_output_that_cannot_be_written_leaves_no_other(self, trained, capsys, argv,
                                                              other):
        (trained / "a_dir").mkdir(exist_ok=True)
        (trained / other).unlink(missing_ok=True)
        assert run(trained, *argv) == 3
        assert capsys.readouterr().err.startswith("windcast: DataError: cannot write ")
        assert not (trained / other).exists()
        assert not list(trained.glob(".tmp-*")) and not list(trained.parent.glob(".tmp-*"))

    @pytest.mark.parametrize("argv", [
        ("train", "--config", "point.json"),
        ("benchmark", "--config", "point.json", "--seeds", "1"),
    ])
    def test_output_in_a_missing_directory_is_data_error(self, workdir, capsys, argv):
        out = os.path.join("no_such_dir", "out.json")
        assert run(workdir, *argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("windcast: DataError: cannot write no_such_dir")
        assert "Traceback" not in err
        assert not (workdir / "no_such_dir").exists()
        assert not list(workdir.glob(".tmp-*"))

    def test_refused_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(DataError, match="cannot write"):
            atomic_write_text(str(tmp_path / "taken"), "text")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("argv", [
        ("train", "--config", "point.json", "--out", "same.json", "--trace-out", "same.json"),
        ("explain", "--model", "point_model.json", "--config", "point.json",
         "--out", "b.json", "--svg-out", "b.json"),
        ("explain", "--model", "point_model.json", "--config", "point.json",
         "--out", "b.json", "--svg-out", "./b.json"),
    ], ids=["train", "explain", "explain-dot"])
    def test_two_outputs_that_name_one_file_are_usage(self, trained, capsys, argv):
        assert run(trained, *argv) == 1
        flag, path = argv[-2:]
        assert capsys.readouterr().err == (
            f"windcast: UsageError: --out and {flag} name the same file, {path}\n")
        assert not (trained / path).exists()

    def test_bad_flag_is_usage(self, workdir, capsys):
        assert run(workdir, "train", "--no-such-flag") == 1
        assert "windcast:" in capsys.readouterr().err

    def test_missing_subcommand_is_usage(self, workdir):
        assert run(workdir) == 1

    def test_error_goes_to_stderr(self, workdir, capsys):
        run(workdir, "train", "--config", "missing.json")
        captured = capsys.readouterr()
        assert "windcast:" in captured.err
