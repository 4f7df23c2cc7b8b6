"""End-to-end flows behind the CLI commands.

Everything here works in the scaled [0, 1] space: the scaler is fitted on
the whole series, the supervised sets and every reported metric use scaled
values, and only the prediction CSV converts back to original units.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import (
    CsvSchema,
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
from .errors import DivergenceError, SchemaError
from .explain import LimeConfig, fit_lime, permutation_importance
from .metrics import deterministic_report, probabilistic_report
from .model_io import ModelBundle
from .network import (
    Architecture,
    Loss,
    Network,
    forward,
    init_network,
    predict_quantiles,
)
from .optim import OptimizerConfig, StrategyConfig, stack_size, train, train_seeds


@dataclass
class PreparedData:
    """Scaled supervised splits plus the raw frame they came from."""

    raw_frame: TimeSeriesFrame
    scaler: object
    full: SupervisedSet
    train: SupervisedSet
    val: SupervisedSet
    test: SupervisedSet


def build_dataset(config: RunConfig) -> PreparedData:
    schema = CsvSchema(
        timestamp_col=config.data.timestamp_col,
        target_col=config.data.target_col,
        feature_cols=tuple(config.data.feature_cols),
    )
    raw = load_csv(config.data_path, schema)
    scaler = fit_scaler(raw)
    scaled = apply_scaler(raw, scaler)
    if config.data.mode == "lags":
        full = make_lag_windows(scaled.target, config.data.lag, config.data.horizon)
    else:
        full = make_nwp_set(scaled, config.data.feature_cols, config.data.horizon_alignment)
    train_set, val_set, test_set = chronological_split(full, config.split)
    return PreparedData(raw, scaler, full, train_set, val_set, test_set)


def _loss_from_config(config: RunConfig) -> Loss:
    if config.model.loss == "pinball":
        return Loss("pinball", tuple(config.model.quantile_levels))
    return Loss("mse")


def _strategy_config(config: RunConfig) -> StrategyConfig:
    s = config.strategies
    return StrategyConfig(
        centralize=s.centralize,
        cosine_lr=s.cosine_lr,
        initial_lr=s.initial_lr,
        total_epochs=s.total_epochs if s.total_epochs is not None else config.training.epochs,
        noise_tau=s.noise_tau,
        noise_seed=s.noise_seed,
    )


def _optimizer_config(config: RunConfig) -> OptimizerConfig:
    o = config.optimizer
    return OptimizerConfig(o.kind, o.beta1, o.beta2, o.epsilon, o.fixed_lr)


def _architecture(config: RunConfig, prepared: PreparedData, loss: Loss) -> Architecture:
    return Architecture(
        (prepared.train.x.shape[1], *config.model.hidden_sizes, loss.n_outputs),
        hidden_activation=config.model.hidden_activation,
        output_activation=config.model.output_activation,
    )


def train_from_config(config: RunConfig, prepared: PreparedData | None = None):
    """Train a model per the config; returns (bundle, trace, prepared)."""
    if prepared is None:
        prepared = build_dataset(config)
    loss = _loss_from_config(config)
    net = init_network(_architecture(config, prepared, loss), config.training.seed)
    net, trace = train(
        net,
        prepared.train,
        prepared.val,
        _optimizer_config(config),
        _strategy_config(config),
        loss,
        epochs=config.training.epochs,
        batch_size=config.training.batch_size,
        early_stop_patience=config.training.early_stop_patience,
    )
    bundle = ModelBundle(
        network=net,
        scaler=prepared.scaler,
        target_name=config.data.target_col,
        feature_names=prepared.full.feature_names,
        kind="quantile" if loss.kind == "pinball" else "point",
        loss_kind=loss.kind,
        quantile_levels=loss.levels,
        lag=config.data.lag if config.data.mode == "lags" else None,
        horizon=config.data.horizon,
        metadata={
            "mode": config.data.mode,
            "seed": config.training.seed,
            "epochs_run": len(trace),
        },
    )
    return bundle, trace, prepared


def _check_compatible(bundle: ModelBundle, prepared: PreparedData) -> None:
    if tuple(bundle.feature_names) != tuple(prepared.full.feature_names):
        raise SchemaError(
            "model and data disagree on features: "
            f"{bundle.feature_names} vs {prepared.full.feature_names}"
        )


def _point_forecast(net: Network, x: np.ndarray, levels) -> np.ndarray:
    """Scaled point forecast: the single output, or with quantile levels
    the quantile nearest the median."""
    if not levels:
        return forward(net, x)[:, 0]
    median_col = int(np.argmin(np.abs(np.asarray(levels) - 0.5)))
    return predict_quantiles(net, x, levels).values[:, median_col]


def point_predictions(bundle: ModelBundle, x: np.ndarray) -> np.ndarray:
    """Scaled point forecast; quantile models contribute their median."""
    levels = bundle.quantile_levels if bundle.kind == "quantile" else ()
    return _point_forecast(bundle.network, x, levels)


def evaluate_bundle(bundle: ModelBundle, prepared: PreparedData) -> dict:
    """Test-split metric report; quantile models add probabilistic keys."""
    _check_compatible(bundle, prepared)
    test = prepared.test
    report = deterministic_report(test.y, point_predictions(bundle, test.x)).to_dict()
    if bundle.kind == "quantile":
        forecast = predict_quantiles(bundle.network, test.x, bundle.quantile_levels)
        prob = probabilistic_report(forecast, test.y)
        doc = prob.to_dict()
        report["qs"] = doc["qs"]
        report["crps"] = doc["crps"]
        report["per_pinc"] = doc["per_pinc"]
    return report


def explain_pfi(
    bundle: ModelBundle,
    prepared: PreparedData,
    split: str = "test",
    repeats: int = 5,
    seed: int = 0,
) -> dict:
    _check_compatible(bundle, prepared)
    if split not in ("train", "test"):
        raise SchemaError(f"pfi split must be 'train' or 'test', got {split!r}")
    subset = prepared.test if split == "test" else prepared.train
    report = permutation_importance(
        lambda m: point_predictions(bundle, m),
        subset.x,
        subset.y,
        repeats=repeats,
        seed=seed,
        feature_names=bundle.feature_names,
    )
    doc = report.to_dict()
    doc["split"] = split
    return doc


def explain_lime(
    bundle: ModelBundle,
    prepared: PreparedData,
    instance_index: int = 0,
    lime: LimeConfig | None = None,
) -> dict:
    _check_compatible(bundle, prepared)
    test = prepared.test
    if not 0 <= instance_index < len(test):
        raise SchemaError(
            f"instance index {instance_index} outside the test split "
            f"(0..{len(test) - 1})"
        )
    stats = prepared.train.x.std(axis=0)
    explanation = fit_lime(
        lambda m: point_predictions(bundle, m),
        test.x[instance_index],
        stats,
        lime if lime is not None else LimeConfig(),
        feature_names=bundle.feature_names,
    )
    doc = explanation.to_dict()
    doc["instance_index"] = instance_index
    doc["actual"] = float(test.y[instance_index])
    return doc


def predictions_csv(bundle: ModelBundle, prepared: PreparedData) -> str:
    """Forecast every constructible sample, in original target units."""
    _check_compatible(bundle, prepared)
    full = prepared.full
    idx = full.target_indices
    timestamps = [prepared.raw_frame.timestamps[i].isoformat() for i in idx]
    y_true = prepared.raw_frame.target[idx]
    name = bundle.target_name

    if bundle.kind == "point":
        pred = invert_column(bundle.scaler, name, point_predictions(bundle, full.x))
        lines = ["timestamp,y_true,prediction"]
        for ts, yt, yp in zip(timestamps, y_true, pred):
            lines.append(f"{ts},{float(yt)!r},{float(yp)!r}")
        return "\n".join(lines) + "\n"

    forecast = predict_quantiles(bundle.network, full.x, bundle.quantile_levels)
    values = invert_column(bundle.scaler, name, forecast.values)
    header = "timestamp,y_true," + ",".join(f"q{q:g}" for q in forecast.levels)
    lines = [header]
    for row, ts, yt in zip(values, timestamps, y_true):
        cells = ",".join(repr(float(v)) for v in row)
        lines.append(f"{ts},{float(yt)!r},{cells}")
    return "\n".join(lines) + "\n"


def _split_hash(subset: SupervisedSet) -> str:
    digest = hashlib.sha256(subset.x.tobytes() + subset.y.tobytes())
    return digest.hexdigest()[:16]


def _benchmark_strategies(config: RunConfig) -> tuple[StrategyConfig, StrategyConfig]:
    """The two arms: all three strategies on (noise at tau 1e-4 unless the
    config sets one), and the plain optimizer."""
    tau = config.strategies.noise_tau
    on = dataclasses.replace(
        _strategy_config(config), centralize=True, cosine_lr=True,
        noise_tau=tau if tau > 0.0 else 1e-4,
    )
    return on, StrategyConfig()


def _benchmark_arm(config, prepared, loss, arch, strategies, seeds) -> list[dict]:
    """One report per seed, its network trained in a stack with others."""
    reports = []
    per_stack = stack_size(arch, len(prepared.train), config.training.batch_size)
    for lo in range(0, len(seeds), per_stack):
        chunk = seeds[lo:lo + per_stack]
        nets = [init_network(arch, run_seed) for run_seed in chunk]
        started = time.perf_counter()
        results = train_seeds(
            nets,
            prepared.train,
            prepared.val,
            _optimizer_config(config),
            strategies,
            loss,
            epochs=config.training.epochs,
            batch_size=config.training.batch_size,
            noise_seeds=[strategies.noise_seed + run_seed for run_seed in chunk],
        )
        wall = (time.perf_counter() - started) / len(chunk)
        for net, result in zip(nets, results):
            if isinstance(result, DivergenceError):
                reports.append({"error": str(result), "wall_time_s": wall})
                continue
            yhat = _point_forecast(net, prepared.test.x, loss.levels)
            report = deterministic_report(prepared.test.y, yhat).to_dict()
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
    its stack's training time divided by the number of seeds in the stack.
    Failed (diverged) runs are recorded but excluded from the medians.
    """
    if n_seeds < 1:
        raise SchemaError("benchmark needs at least one seed")
    prepared = build_dataset(config)
    loss = _loss_from_config(config)
    arch = _architecture(config, prepared, loss)
    split_hash = _split_hash(prepared.test)
    seeds = [config.training.seed + i for i in range(n_seeds)]
    runs = [{"seed": run_seed} for run_seed in seeds]
    arms = zip(("with_strategies", "without_strategies"), _benchmark_strategies(config))
    for arm, strategies in arms:
        reports = _benchmark_arm(config, prepared, loss, arch, strategies, seeds)
        for entry, report in zip(runs, reports):
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
