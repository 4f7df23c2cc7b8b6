"""End-to-end flows behind the CLI commands.

Everything here works in the scaled [0, 1] space: train and benchmark fit
the scaler on the whole series, a trained model's commands apply the one it
stores, the supervised sets and every reported metric use scaled
values, and only the prediction CSV converts back to original units.
build_dataset(config, model) is the one place that checks a config's data
section against a trained model, before the CSV is read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import _shortest, _util
from .config import DataConfig, RunConfig
from .data import (
    CsvSchema,
    Scaler,
    SupervisedSet,
    TimeSeriesFrame,
    apply_scaler,
    chronological_split,
    fit_scaler,
    invert_column,
    load_csv,
    make_lag_windows,
    make_nwp_set,
)
from .errors import DivergenceError, NonFiniteForecastError, SchemaError
from .explain import LimeConfig, fit_lime, permutation_importance
from .metrics import deterministic_report, probabilistic_report
from .model_io import ModelBundle
from .network import INFER_ROWS, Network, QuantileForecast, init_network
from .network import forward  # noqa: F401  perfbench's tracer test reads pipeline.forward
from .optim import StrategyConfig, forks_workers, stack_size, train, train_seeds

CSV_BLOCK_ROWS = 4 * INFER_ROWS  # prediction rows forecast, formatted and written per block


@dataclass
class PreparedData:
    """Scaled supervised splits plus what predict reads back of the raw
    frame they came from: its timestamps and its unscaled target."""

    raw_frame: TimeSeriesFrame
    scaler: Scaler
    full: SupervisedSet
    train: SupervisedSet
    val: SupervisedSet
    test: SupervisedSet


def build_dataset(config: RunConfig, model: ModelBundle | None = None) -> PreparedData:
    """Load the config's CSV, scale it, window it and split it.

    Given a trained model, the config's data section must describe the
    data the model was trained on, checked before the CSV is read, and the
    model's scaler is applied as it is, so a row scales the same whichever
    file it comes in; without one, min/max are fitted on this file.
    """
    data = config.data
    if model is not None:
        _check_compatible(model, data)
    raw = load_csv(config.data_path, CsvSchema(data.timestamp_col, data.target_col,
                                                 data.feature_cols))
    scaler = fit_scaler(raw) if model is None else model.scaler
    scaled = apply_scaler(raw, scaler)
    # predict reads back only the timestamps and the raw target
    raw = TimeSeriesFrame(raw.timestamps, raw.target, raw.target_name)
    if data.mode == "lags":
        full = make_lag_windows(scaled.target, data.lag, data.horizon)
    else:
        full = make_nwp_set(scaled, data.feature_cols, data.horizon_alignment)
    return PreparedData(raw, scaler, full, *chronological_split(full, config.split))


def _check_compatible(model: ModelBundle, data: DataConfig) -> None:
    """Raise SchemaError unless data names what model was trained on: a
    model whose lag is None is an nwp model."""
    lags = model.lag is not None
    trained = {"mode": "lags" if lags else "nwp", "target_col": model.target_name}
    if lags:
        trained.update(lag=model.lag, horizon=model.horizon)
    else:
        trained.update(feature_cols=model.feature_names,
                       horizon_alignment=model.horizon_alignment)
    for key, value in trained.items():
        given = getattr(data, key)
        if given != value:
            raise SchemaError(
                f"model was trained for {key} {value} but the config's data.{key} is {given}"
            )


def train_from_config(config: RunConfig, prepared: PreparedData | None = None):
    """Train a model per the config; returns (bundle, trace, prepared)."""
    if prepared is None:
        prepared = build_dataset(config)
    net = init_network(config.model.architecture, config.training.seed)
    net, trace = train(
        net,
        prepared.train,
        prepared.val,
        config.optimizer,
        config.strategies,
        config.model.loss,
        epochs=config.training.epochs,
        batch_size=config.training.batch_size,
        early_stop_patience=config.training.early_stop_patience,
    )
    return _bundle(config, prepared, net, config.training.seed, len(trace)), trace, prepared


def _bundle(config: RunConfig, prepared: PreparedData, net: Network, seed: int,
            epochs_run: int) -> ModelBundle:
    """The model of a network trained per the config on prepared's splits."""
    return ModelBundle(
        network=net,
        scaler=prepared.scaler,
        target_name=config.data.target_col,
        feature_names=prepared.full.feature_names,
        loss=config.model.loss,
        lag=config.data.lag if config.data.mode == "lags" else None,
        horizon=config.data.horizon,
        horizon_alignment=config.data.horizon_alignment,
        metadata={"mode": config.data.mode, "seed": seed, "epochs_run": epochs_run},
    )


def evaluate_bundle(bundle: ModelBundle, prepared: PreparedData) -> dict:
    """Test-split metric report; quantile models add probabilistic keys,
    from the one forecast whose point column the point metrics score. A
    metric that overflows is reported as it comes out, inf or nan, with no
    RuntimeWarning: dump_json then ends the command naming it."""
    test = prepared.test
    values, point = bundle.forecast(test.x)
    with np.errstate(all="ignore"):
        report = deterministic_report(test.y, point)
        if bundle.quantile_levels:
            forecast = QuantileForecast(bundle.quantile_levels, values)
            report.update(probabilistic_report(forecast, test.y))
    return report


def explain_pfi(
    bundle: ModelBundle,
    prepared: PreparedData,
    split: str = "test",
    repeats: int = 5,
    seed: int = 0,
) -> dict:
    """permutation_importance's report of the model on the split's rows.

    The features are spread over forked processes, this one included
    (_util.forked_map), and the report is assembled in feature order.
    Each (feature, repeat) pair draws its own permutation and a row's
    forecast does not depend on the rows around it, so the bytes do not
    depend on the route. A child that dies ends the command with
    ToolkitError.
    """
    if split not in ("train", "test"):
        raise SchemaError(f"pfi split must be 'train' or 'test', got {split!r}")
    subset = prepared.test if split == "test" else prepared.train
    with np.errstate(all="ignore"):  # as evaluate_bundle; forked children inherit it
        report = permutation_importance(
            lambda rows: bundle.forecast(rows)[1],
            subset.x,
            subset.y,
            repeats=repeats,
            seed=seed,
            feature_names=bundle.feature_names,
            _map=_forked_map,
        )
    doc = report.to_dict()
    doc["split"] = split
    return doc


def _forked_map(errors, features) -> list:
    """list(map(errors, features)), spread as explain_pfi says."""
    with _util.forked_map("permutation importance", errors, features, here=True) as out:
        return list(out)


def explain_lime(
    bundle: ModelBundle,
    prepared: PreparedData,
    instance_index: int = 0,
    lime: LimeConfig | None = None,
) -> dict:
    test = prepared.test
    if not 0 <= instance_index < len(test):
        raise SchemaError(
            f"instance index {instance_index} outside the test split "
            f"(0..{len(test) - 1})"
        )
    stats = _column_std(prepared.train.x)
    with np.errstate(all="ignore"):  # as evaluate_bundle
        explanation = fit_lime(
            lambda rows: bundle.forecast(rows)[1],
            test.x[instance_index],
            stats,
            lime if lime is not None else LimeConfig(),
            feature_names=bundle.feature_names,
        )
    doc = explanation.to_dict()
    doc["instance_index"] = instance_index
    doc["actual"] = float(test.y[instance_index])
    return doc


def _column_std(x: np.ndarray, rows: int = CSV_BLOCK_ROWS) -> np.ndarray:
    """x.std(axis=0) bit for bit, from C-ordered copies of rows rows at a
    time instead of a full-size x - mean.

    numpy sums a C-ordered array's columns down the rows, one row after
    another, starting from 0.0; each block's sum carries on from the last
    by taking the running sum as its first row. One column numpy sums
    pairwise instead, so that goes to numpy whole; its x - mean is only a
    column.
    """
    n, k = x.shape
    if k == 1:
        return x.std(axis=0)
    buf = np.empty((min(n, rows) + 1, k))

    def total(fill):
        acc = np.zeros(k)
        for lo in range(0, n, rows):
            block = buf[:min(rows, n - lo) + 1]
            block[0] = acc
            fill(block[1:], x[lo:lo + rows])
            acc = block.sum(axis=0)
        return acc

    mean = total(np.copyto) / n

    def squared_deviations(out, part):
        np.square(np.subtract(part, mean, out=out), out=out)

    return np.sqrt(total(squared_deviations) / n)


def write_predictions(fh, bundle: ModelBundle, prepared: PreparedData) -> int:
    """Write a forecast of every constructible sample, in original target
    units, to the text file fh; returns the number of rows written.

    The header goes first, then the rows a block of CSV_BLOCK_ROWS at a
    time, in order. Forked children forecast and format the blocks
    (_util.forked_map); a child formats its next block once the last is
    in its pipe, so at most about two blocks per child are in flight.
    Either way each block is predictions_csv's text, and a row's forecast
    does not depend on the rows around it, so the bytes do not depend on
    the route. A child that dies ends the write with ToolkitError.
    """
    full = prepared.full
    names = [f"q{q:g}" for q in bundle.quantile_levels] or ["prediction"]
    fh.write(",".join(["timestamp", "y_true", *names]) + "\n")
    blocks = (bundle, prepared.raw_frame, full.target_indices, full.x)
    starts = range(0, len(full.target_indices), CSV_BLOCK_ROWS)
    with _util.forked_map("prediction", lambda lo: _block_text(blocks, lo), starts) as texts:
        for text in texts:
            fh.write(text)
    return len(full.target_indices)


def _block_text(blocks, lo: int) -> str:
    """The CSV text of the block of rows starting at sample lo."""
    bundle, frame, idx, x = blocks
    hi = lo + CSV_BLOCK_ROWS
    return predictions_csv(bundle, frame, idx[lo:hi], x[lo:hi])


def predictions_csv(bundle: ModelBundle, frame: TimeSeriesFrame, rows, x) -> str:
    """One block of prediction CSV lines: for each frame row in rows, its
    timestamp, its actual target and the forecast of its sample in x, in
    original units. The timestamp is the frame's isoformat() text, written
    as it is stored, and each value is written as repr writes it, the
    shortest text that reads back as the same double. A forecast that
    overflows on its way back to original units raises
    NonFiniteForecastError."""
    scaled, _ = bundle.forecast(x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = invert_column(bundle.scaler, bundle.target_name, scaled)
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)][0])
        raise NonFiniteForecastError(
            f"the model forecasts {bad!r} in {bundle.target_name!r} units, not a finite "
            "value: its scaler's bounds overflow float64 arithmetic"
        )
    table = np.column_stack([frame.target[rows], values])
    return _shortest.csv_rows(frame.timestamps[rows], table)


def _split_hash(subset: SupervisedSet) -> str:
    digest = hashlib.sha256(subset.x.tobytes() + subset.y.tobytes())
    return digest.hexdigest()[:16]


def _benchmark_strategies(config: RunConfig) -> tuple[StrategyConfig, StrategyConfig]:
    """The two arms: all three strategies on (noise at tau 1e-4 unless the
    config sets one), and the plain optimizer."""
    tau = config.strategies.noise_tau
    on = dataclasses.replace(
        config.strategies, centralize=True, cosine_lr=True,
        noise_tau=tau if tau > 0.0 else 1e-4,
    )
    return on, StrategyConfig()


def _benchmark_arm(config, prepared, strategies, seeds) -> list[dict]:
    """One report per seed, its network trained in a stack with others."""
    reports = []
    arch = config.model.architecture
    per_stack = stack_size(arch, len(prepared.train), config.training.batch_size)
    for lo in range(0, len(seeds), per_stack):
        chunk = seeds[lo:lo + per_stack]
        nets = [init_network(arch, run_seed) for run_seed in chunk]
        started = time.perf_counter()
        results = train_seeds(
            nets,
            prepared.train,
            prepared.val,
            config.optimizer,
            strategies,
            config.model.loss,
            epochs=config.training.epochs,
            batch_size=config.training.batch_size,
            noise_seeds=[strategies.noise_seed + run_seed for run_seed in chunk],
        )
        wall = (time.perf_counter() - started) / len(chunk)
        for run_seed, net, result in zip(chunk, nets, results):
            if isinstance(result, DivergenceError):
                reports.append({"error": str(result), "wall_time_s": wall})
                continue
            bundle = _bundle(config, prepared, net, run_seed, len(result))
            _, yhat = bundle.forecast(prepared.test.x)
            report = deterministic_report(prepared.test.y, yhat)
            val_losses = [row[3] for row in result.rows if row[3] is not None]
            report["wall_time_s"] = wall
            report["epochs_run"] = len(result)
            report["best_val_epoch"] = (
                int(np.argmin(val_losses)) + 1 if val_losses else None
            )
            reports.append(report)
    return reports


def run_benchmark(config: RunConfig, n_seeds: int) -> dict:
    """Paired A/B comparison: strategies on vs off, matched per-seed inits.

    Both arms of a seed share the same data splits and the same initial
    parameters; the off arm trains with the plain optimizer at fixed_lr.
    Each arm trains its seeds as stacked networks (optim.train_seeds), as
    many per stack as optim.stack_size allows, and every run ends bit for
    bit where its solo training would. A run's wall_time_s is therefore
    its stack's training time divided by the number of seeds in the stack,
    timed in the process that trained it. Every run trains all
    training.epochs: training.early_stop_patience is not applied. Failed
    (diverged) runs are recorded but excluded from the medians.

    The arms train in two processes, this one and a forked child
    (_util.forked_map), or one after the other here where training would
    share its passes with forked workers of its own
    (optim.forks_workers). The report does not depend on the route, but
    for its wall times.
    """
    if n_seeds < 1:
        raise SchemaError("benchmark needs at least one seed")
    prepared = build_dataset(config)
    split_hash = _split_hash(prepared.test)
    seeds = [config.training.seed + i for i in range(n_seeds)]
    runs = [{"seed": run_seed} for run_seed in seeds]
    arms = _benchmark_strategies(config)
    arch, batch_size = config.model.architecture, config.training.batch_size
    ways = 1 if forks_workers(arch, len(prepared.train), batch_size) else 2

    def train_arm(strategies):
        return _benchmark_arm(config, prepared, strategies, seeds)

    with _util.forked_map("benchmark", train_arm, arms, here=True, cap=ways) as reports:
        for arm, arm_reports in zip(("with_strategies", "without_strategies"), reports):
            for entry, report in zip(runs, arm_reports):
                entry[arm] = dict(report, split_hash=split_hash)

    medians = {}
    for arm in ("with_strategies", "without_strategies"):
        ok = [r[arm] for r in runs if "error" not in r[arm]]
        medians[arm] = {
            metric: float(np.median([r[metric] for r in ok])) if ok else None
            for metric in ("r2", "nmae", "nrmse", "wall_time_s")
        }
        medians[arm]["runs_ok"] = len(ok)

    deltas = {}
    on, off = medians["with_strategies"], medians["without_strategies"]
    if on["runs_ok"] and off["runs_ok"]:
        for metric in ("nrmse", "nmae"):
            if off[metric]:
                deltas[metric] = 100.0 * (off[metric] - on[metric]) / off[metric]
        if off["r2"]:
            deltas["r2"] = 100.0 * (on["r2"] - off["r2"]) / abs(off["r2"])

    return {
        "kind": "benchmark",
        "seeds": seeds,
        "split_hash": split_hash,
        "runs": runs,
        "medians": medians,
        "deltas_pct": deltas,
    }
