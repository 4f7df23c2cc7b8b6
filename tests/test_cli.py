"""End-to-end command-line tests: every subcommand, the exit-code
taxonomy and byte-level determinism of the written artifacts."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from windcast._util import dump_json
from windcast.cli import main
from windcast.config import load_config
from windcast.metrics import deterministic_report
from windcast.network import Architecture, Loss, forward, init_network
from windcast.optim import OptimizerConfig, StrategyConfig, train
from windcast.pipeline import build_dataset

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

    def test_report_matches_sequential_training(self, trained):
        assert run(
            trained, "benchmark", "--config", "point.json", "--seeds", "3",
            "--out", "bench3.json",
        ) == 0
        doc = json.loads((trained / "bench3.json").read_text())
        reference = json.loads(dump_json(_sequential_benchmark(trained / "point.json", 3)))
        assert _without_wall_times(doc) == reference

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
    arch = Architecture((test.x.shape[1], *config.model.hidden_sizes, 1))
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
            report = deterministic_report(test.y, forward(net, test.x)[:, 0]).to_dict()
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

    def test_missing_data_file_is_data_error(self, workdir):
        cfg = {"data": {"path": "not_there.csv", "timestamp_col": "timestamp",
                        "target_col": "power"}}
        (workdir / "nodata.json").write_text(json.dumps(cfg))
        assert run(workdir, "train", "--config", "nodata.json") == 3

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

    def test_bad_flag_is_usage(self, workdir, capsys):
        assert run(workdir, "train", "--no-such-flag") == 1
        assert "windcast:" in capsys.readouterr().err

    def test_missing_subcommand_is_usage(self, workdir):
        assert run(workdir) == 1

    def test_error_goes_to_stderr(self, workdir, capsys):
        run(workdir, "train", "--config", "missing.json")
        captured = capsys.readouterr()
        assert "windcast:" in captured.err
