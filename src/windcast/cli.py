"""Command-line entry point.

Subcommands: train, predict, evaluate, explain, benchmark. All outputs
are written atomically; given identical inputs and seeds, every command
except benchmark (whose reports carry wall times) produces byte-identical
files. Exit codes: 0 success, 1 usage, 2 schema/shape, 3 data, 4
numerical failure. SIGTERM ends a command as an exception does, so its
forked children end with it and no partial output is left; the exit
status is then 143.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys

from ._util import atomic_write_text, atomic_writer, dump_json
from .config import load_config
from .errors import SchemaError, ToolkitError, UsageError
from .explain import LimeConfig, render_bar_chart
from .model_io import load_model, save_model
from .network import MAX_BENCHMARK_SEEDS, MAX_LIME_SAMPLES, MAX_LIME_VALUES, MAX_PFI_REPEATS
from .pipeline import (
    build_dataset,
    evaluate_bundle,
    explain_lime,
    explain_pfi,
    run_benchmark,
    train_from_config,
    write_predictions,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the exit-code taxonomy."""

    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, the seeds numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"a seed must be an integer >= 0, got {text!r}")
    return int(text)


def _check_cap(flag: str, value: int, cap: int) -> None:
    """SchemaError naming flag where value is above cap: checked before any
    file is read, so a size no run could hold fails fast."""
    if value > cap:
        raise SchemaError(f"{flag} {value:,} is above the cap of {cap:,}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="windcast", description="Wind power forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[], help="fit a model from a run config")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--out", default="model.json", help="model output path")
    p_train.add_argument("--trace-out", default=None,
                         help="training trace CSV (default: <out>.trace.csv)")
    p_train.add_argument("--seed", type=_seed, default=None, help="override training.seed")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="write forecasts for every sample")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--config", required=True)
    p_predict.add_argument("--out", default="predictions.csv")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="test-split metric report")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default="evaluation.json")
    p_eval.add_argument("--probabilistic", action="store_true",
                        help="require interval metrics (quantile models only)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_explain = sub.add_parser("explain", help="feature importance or local surrogate")
    p_explain.add_argument("--model", required=True)
    p_explain.add_argument("--config", required=True)
    p_explain.add_argument("--mode", choices=("pfi", "lime"), default="pfi")
    p_explain.add_argument("--out", default="explanation.json")
    p_explain.add_argument("--svg-out", default=None, help="optional bar chart")
    p_explain.add_argument("--seed", type=_seed, default=0)
    p_explain.add_argument("--split", choices=("train", "test"), default="test",
                           help="rows used for pfi")
    p_explain.add_argument("--repeats", type=int, default=5, help="pfi shuffles per feature")
    p_explain.add_argument("--instance-index", type=int, default=0,
                           help="test-split row for lime")
    p_explain.add_argument("--lime-samples", type=int, default=1000)
    p_explain.add_argument("--perturb-scale", type=float, default=0.1)
    p_explain.add_argument("--kernel-width", type=float, default=None)
    p_explain.add_argument("--ridge-lambda", type=float, default=1e-6)
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser("benchmark", help="paired strategies-on/off comparison")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seeds", type=int, default=10, help="number of paired runs")
    p_bench.add_argument("--out", default="benchmark.json")
    p_bench.add_argument("--seed", type=_seed, default=None, help="override base seed")
    p_bench.set_defaults(func=cmd_benchmark)

    return parser


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.training.seed = args.seed
    bundle, trace, _ = train_from_config(config)
    save_model(args.out, bundle)
    trace_path = args.trace_out or os.path.splitext(args.out)[0] + ".trace.csv"
    atomic_write_text(trace_path, trace.to_csv())
    if trace.rows:
        _, _, train_loss, val_loss = trace.rows[-1]
        val = "n/a" if val_loss is None else repr(val_loss)
        print(f"trained {len(trace)} epochs: train_loss {train_loss!r} val_loss {val}")
    print(f"model written to {args.out}")
    print(f"trace written to {trace_path}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_model(args.model)
    config = load_config(args.config)
    prepared = build_dataset(config, bundle)
    with atomic_writer(args.out) as fh:
        rows = write_predictions(fh, bundle, prepared)
    print(f"{rows} predictions written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_model(args.model)
    config = load_config(args.config)
    if args.probabilistic and bundle.kind != "quantile":
        raise UsageError("--probabilistic needs a quantile model")
    report = evaluate_bundle(bundle, build_dataset(config, bundle))
    atomic_write_text(args.out, dump_json(report))
    print(
        f"n {report['n']}  r2 {report['r2']:.4f}  "
        f"nmae {report['nmae']:.4f}  nrmse {report['nrmse']:.4f}"
    )
    print(f"report written to {args.out}")
    return 0


def cmd_explain(args) -> int:
    _check_cap("--repeats", args.repeats, MAX_PFI_REPEATS)
    _check_cap("--lime-samples", args.lime_samples, MAX_LIME_SAMPLES)
    bundle = load_model(args.model)
    inputs = bundle.network.architecture.n_inputs
    values = args.lime_samples * (inputs + 1)  # of one of LIME's design matrices
    if args.mode == "lime" and values > MAX_LIME_VALUES:
        raise SchemaError(f"--lime-samples {args.lime_samples:,} for a model of {inputs:,} "
                          f"inputs gives {values:,} design values, above the cap of "
                          f"{MAX_LIME_VALUES:,}")
    config = load_config(args.config)
    prepared = build_dataset(config, bundle)
    if args.mode == "pfi":
        report = explain_pfi(
            bundle, prepared, split=args.split, repeats=args.repeats, seed=args.seed
        )
        title = "permutation feature importance"
    else:
        lime_cfg = LimeConfig(
            n_samples=args.lime_samples,
            perturb_scale=args.perturb_scale,
            kernel_width=args.kernel_width,
            ridge_lambda=args.ridge_lambda,
            seed=args.seed,
        )
        report = explain_lime(
            bundle, prepared, instance_index=args.instance_index, lime=lime_cfg
        )
        title = f"contributions for test instance {args.instance_index}"
    # both texts, then both temp files, before either file is replaced
    outputs = [(args.out, dump_json(report), "report")]
    if args.svg_out:
        svg = render_bar_chart(report["feature_names"], report["values"], title)
        outputs.append((args.svg_out, svg, "chart"))
    with contextlib.ExitStack() as stack:
        for path, text, _ in outputs:
            stack.enter_context(atomic_writer(path)).write(text)
    for path, _, what in outputs:
        print(f"{what} written to {path}")
    return 0


def cmd_benchmark(args) -> int:
    _check_cap("--seeds", args.seeds, MAX_BENCHMARK_SEEDS)
    config = load_config(args.config)
    if args.seed is not None:
        config.training.seed = args.seed
    report = run_benchmark(config, args.seeds)
    atomic_write_text(args.out, dump_json(report))
    on = report["medians"]["with_strategies"]
    off = report["medians"]["without_strategies"]
    print(
        f"median nrmse: with strategies {on['nrmse']}  without {off['nrmse']}"
    )
    for metric, delta in report["deltas_pct"].items():
        print(f"delta {metric}: {delta:+.2f}%")
    print(f"report written to {args.out}")
    return 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # numpy loads numpy.random on first use, and a SystemExit raised while
    # its compiled modules set up is lost: load it before SIGTERM raises one
    import numpy.random  # noqa: F401

    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ToolkitError as exc:
        print(f"windcast: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
