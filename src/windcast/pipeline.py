"""End-to-end flows behind the CLI commands.

Everything here works in the scaled [0, 1] space: train and benchmark fit
the scaler on the whole series, a trained model's commands apply the one it
stores, the supervised sets and every reported metric use scaled
values, and only the prediction CSV converts back to original units.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
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
from .errors import DivergenceError, SchemaError
from .explain import LimeConfig, fit_lime, permutation_importance
from .metrics import deterministic_report, probabilistic_report
from .model_io import ModelBundle
from .network import INFER_ROWS, Architecture, Network, QuantileForecast, init_network
from .network import forward  # noqa: F401  perfbench's tracer test reads pipeline.forward
from .optim import StrategyConfig, stack_size, train, train_seeds

CSV_BLOCK_ROWS = 4 * INFER_ROWS  # prediction rows forecast, formatted and written per block


@dataclass
class PreparedData:
    """Scaled supervised splits plus the raw frame they came from."""

    raw_frame: TimeSeriesFrame
    scaler: Scaler
    full: SupervisedSet
    train: SupervisedSet
    val: SupervisedSet
    test: SupervisedSet
    horizon: int | None = None  # steps ahead of a lag set's targets; None for nwp
    horizon_alignment: int | None = None  # an nwp set's target offset; None for lags


def build_dataset(config: RunConfig, scaler: Scaler | None = None) -> PreparedData:
    """Load the config's CSV, scale it, window it and split it.

    A given scaler, a trained model's, is applied as it is, so a row scales
    the same whichever file it comes in; without one, min/max are fitted
    on this file.
    """
    schema = CsvSchema(
        timestamp_col=config.data.timestamp_col,
        target_col=config.data.target_col,
        feature_cols=tuple(config.data.feature_cols),
    )
    raw = load_csv(config.data_path, schema)
    if scaler is None:
        scaler = fit_scaler(raw)
    scaled = apply_scaler(raw, scaler)
    if config.data.mode == "lags":
        full = make_lag_windows(scaled.target, config.data.lag, config.data.horizon)
    else:
        full = make_nwp_set(scaled, config.data.feature_cols, config.data.horizon_alignment)
    train_set, val_set, test_set = chronological_split(full, config.split)
    lags = config.data.mode == "lags"
    return PreparedData(raw, scaler, full, train_set, val_set, test_set,
                        config.data.horizon if lags else None,
                        None if lags else config.data.horizon_alignment)


def _architecture(config: RunConfig, prepared: PreparedData) -> Architecture:
    return Architecture(
        (prepared.train.x.shape[1], *config.model.hidden_sizes, config.model.loss.n_outputs),
        hidden_activation=config.model.hidden_activation,
        output_activation=config.model.output_activation,
    )


def train_from_config(config: RunConfig, prepared: PreparedData | None = None):
    """Train a model per the config; returns (bundle, trace, prepared)."""
    if prepared is None:
        prepared = build_dataset(config)
    net = init_network(_architecture(config, prepared), config.training.seed)
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


def _check_compatible(bundle: ModelBundle, prepared: PreparedData) -> None:
    if tuple(bundle.feature_names) != tuple(prepared.full.feature_names):
        raise SchemaError(
            "model and data disagree on features: "
            f"{bundle.feature_names} vs {prepared.full.feature_names}"
        )
    for key in ("horizon", "horizon_alignment"):
        trained, given = getattr(bundle, key), getattr(prepared, key)
        if given is not None and trained != given:
            raise SchemaError(
                f"model was trained for {key} {trained} but the config's data.{key} is {given}"
            )


def evaluate_bundle(bundle: ModelBundle, prepared: PreparedData) -> dict:
    """Test-split metric report; quantile models add probabilistic keys,
    from the one forecast whose point column the point metrics score."""
    _check_compatible(bundle, prepared)
    test = prepared.test
    values, point = bundle.forecast(test.x)
    report = deterministic_report(test.y, point).to_dict()
    if bundle.quantile_levels:
        forecast = QuantileForecast(bundle.quantile_levels, values)
        doc = probabilistic_report(forecast, test.y).to_dict()
        report.update((key, doc[key]) for key in ("qs", "crps", "per_pinc"))
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
        lambda rows: bundle.forecast(rows)[1],
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


def write_predictions(fh, bundle: ModelBundle, prepared: PreparedData) -> int:
    """Write a forecast of every constructible sample, in original target
    units, to the text file fh; returns the number of rows written.

    The header goes first, then the rows a block of CSV_BLOCK_ROWS at a
    time, in order. Forked worker processes forecast and format their own
    blocks, one per CPU this process may use, with at most two blocks per
    worker in flight; with one CPU or one block, or where fork does not
    exist, the blocks are done here. Either way each block is
    predictions_csv's text, and a row's forecast does not depend on the
    rows around it, so the bytes do not depend on the route.
    """
    _check_compatible(bundle, prepared)
    full = prepared.full
    names = [f"q{q:g}" for q in bundle.quantile_levels] or ["prediction"]
    fh.write(",".join(["timestamp", "y_true", *names]) + "\n")
    blocks = (bundle, prepared.raw_frame, full.target_indices, full.x)
    starts = range(0, len(full.target_indices), CSV_BLOCK_ROWS)
    # imported here: multiprocessing would add 13-16 ms to every command's start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(_usable_cpus(), len(starts))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for lo in starts:
            fh.write(_block_text(blocks, lo))
    else:
        # Forked workers inherit the arrays, so a task is one block start.
        # An executor, not multiprocessing.Pool: it forks every worker
        # before it starts a thread; its exit lets the workers finish what
        # is queued and joins them, where Pool.terminate can kill one that
        # holds a queue lock and hang; and a worker that dies fails its
        # blocks instead of leaving them unanswered.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, context, _start_worker, blocks) as pool:
            pending = collections.deque()
            for lo in starts:
                pending.append(pool.submit(_worker_block_text, lo))
                if len(pending) == 2 * workers:
                    fh.write(pending.popleft().result())
            while pending:
                fh.write(pending.popleft().result())
    return len(full.target_indices)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_text(blocks, lo: int) -> str:
    """The CSV text of the block of rows starting at sample lo."""
    bundle, frame, idx, x = blocks
    hi = lo + CSV_BLOCK_ROWS
    return predictions_csv(bundle, frame, idx[lo:hi], x[lo:hi])


_worker_blocks = None  # a worker's (bundle, frame, idx, x), set by _start_worker


def _start_worker(*blocks) -> None:
    import signal  # loaded with multiprocessing, so free here

    # Ctrl-C reaches the whole process group; the parent alone handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _worker_blocks
    _worker_blocks = blocks


def _worker_block_text(lo: int) -> str:
    return _block_text(_worker_blocks, lo)


def predictions_csv(bundle: ModelBundle, frame: TimeSeriesFrame, rows, x) -> str:
    """One block of prediction CSV lines: for each frame row in rows, its
    timestamp, its actual target and the forecast of its sample in x, in
    original units."""
    scaled, _ = bundle.forecast(x)
    table = np.column_stack(
        [frame.target[rows], invert_column(bundle.scaler, bundle.target_name, scaled)]
    )
    # repr of a Python float is the shortest round-trip form. The block is
    # formatted column by column, so no Python code runs per row.
    timestamps = [frame.timestamps[i].isoformat() for i in rows]
    columns = [map(repr, col) for col in table.T.tolist()]
    return "\n".join(map(",".join, zip(timestamps, *columns))) + "\n"


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


def _benchmark_arm(config, prepared, arch, strategies, seeds) -> list[dict]:
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
    Every run trains all training.epochs: training.early_stop_patience is
    not applied. Failed (diverged) runs are recorded but excluded from the
    medians.
    """
    if n_seeds < 1:
        raise SchemaError("benchmark needs at least one seed")
    prepared = build_dataset(config)
    arch = _architecture(config, prepared)
    split_hash = _split_hash(prepared.test)
    seeds = [config.training.seed + i for i in range(n_seeds)]
    runs = [{"seed": run_seed} for run_seed in seeds]
    arms = zip(("with_strategies", "without_strategies"), _benchmark_strategies(config))
    for arm, strategies in arms:
        reports = _benchmark_arm(config, prepared, arch, strategies, seeds)
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
