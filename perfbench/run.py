"""windcast benchmark: wall time of CLI sessions, with a traced per-layer split.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates its workload's CSV with ``tests/synth.py`` from ``--seed``
and then repeats one session for about ``--seconds`` seconds. A session
runs the workload's CLI commands one after another (a closed loop with one
client), each in a fresh Python process that calls
``windcast.cli.main(argv)``, because that is how users run them: an
in-memory cache shared between commands would show a gain no CLI user
gets. BLAS is pinned to one thread in every worker, which keeps timings
steady on a small machine and keeps output bytes independent of the
thread count.

Every output is checked (exit code, no traceback, finite values, row
counts, quantile order, an r2 floor, benchmark runs that all finished)
and hashed; the hashes must agree across all sessions of a run.

With ``--trace 0`` the last line of stdout is a JSON result holding the
end-to-end metrics, medians over the sessions. With ``--trace 1`` the run
alternates untraced and traced sessions; the traced ones wrap the
package's public functions (see ``tracer.py``) and give the per-layer
metrics, and the untraced ones give the tracing overhead and the check
that tracing changes no output byte.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import checks
from tracer import has_ancestor, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150
# A run holds at least two sessions: with --trace 1 one untraced and one
# traced, and without it no run's median rests on a single session.
MIN_SESSIONS = 2

EPOCHS = 60
BENCHMARK_SEEDS = 10
TRAIN_SHARE = 0.8  # the train part of the config's default chronological split
NWP = {"mode": "nwp", "feature_cols": ["WS10", "WD10", "WS100", "WD100"]}
# the strategies block of the README's example config
STRATEGIES = {"centralize": True, "cosine_lr": True, "initial_lr": 0.2,
              "noise_tau": 0.0001, "noise_seed": 5}


@dataclass(frozen=True)
class Workload:
    rows: int
    data: dict
    loss: str
    batch_size: int | None
    steps: tuple[str, ...]
    samples: int  # constructible samples, one prediction row each
    r2_floor: float | None  # test-split r2 that evaluate must beat


# nwp-pinball-100k stresses the quantile path: the pinball loss, 4 CSV
# parses and a 100k x 21 prediction CSV. lags-mse-100k is 48 inputs wide
# with one output, so forward/backward GEMMs and 240 PFI forward passes
# dominate. benchmark-nwp-3k makes 20 small minibatch trainings (12,000
# optimizer steps), so per-step Python overhead in optim dominates and
# the full-batch mechanisms of the other two are bypassed. The r2 floors
# sit below what seeds 1-30 score (nwp about 0.9; lags 0.18-0.65 after 60
# epochs), and a model that learned nothing scores r2 <= 0.
WORKLOADS = {
    "nwp-pinball-100k": Workload(100_000, NWP, "pinball", None,
                                 ("train", "evaluate", "predict", "pfi"), 100_000, 0.7),
    "lags-mse-100k": Workload(100_000, {"mode": "lags", "lag": 48}, "mse", None,
                              ("train", "evaluate", "predict", "pfi", "lime"), 99_952, 0.0),
    "benchmark-nwp-3k": Workload(3_000, NWP, "mse", 256, ("benchmark",), 3_000, None),
}

STEP_METRIC = {"train": "train_s", "evaluate": "evaluate_s", "predict": "predict_s",
               "pfi": "explain_s", "lime": "explain_s", "benchmark": "benchmark_s"}
# Reported for every workload; a CLI user sees each of them.
END_TO_END = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "train_samples_per_s": "1/s", "ops_ok_share": "ratio"}
# Reported where the workload runs the command.
COMMAND_TIMES = ("train_s", "evaluate_s", "predict_s", "explain_s", "benchmark_s")

TIMED_LABELS = (
    "cli.main", "config.load", "data.load_csv", "data.prepare", "network.loss",
    "network.forward_eval", "network.forward_grad", "network.backward",
    "network.predict_quantiles", "optim.step", "optim.train",
    "pipeline.run_benchmark", "pipeline.predictions_csv", "explain.pfi",
    "explain.lime", "metrics.report", "model_io.save", "model_io.load", "io.write",
)
CALL_LABELS = ("data.load_csv", "pipeline.build_dataset", "network.loss",
               "network.forward_eval", "network.forward_grad", "network.backward",
               "optim.step")
AMOUNTS = {"data.load_csv": "rows", "network.forward_eval": "rows",
           "network.forward_grad": "rows", "pipeline.predictions_csv": "bytes",
           "io.write": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run reports."""
    units = {f"{label}.self_s": "s" for label in TIMED_LABELS}
    units.update({f"{label}.calls": "count" for label in CALL_LABELS})
    units.update({f"{label}.{kind}": kind for label, kind in AMOUNTS.items()})
    units.update({
        "optim.train.forward_rows_per_grad_row": "ratio",
        "pipeline.run_benchmark.arms_ok_share": "ratio",
        "explain.pfi.predict_calls": "count",
        "trace.spans": "count",
        "trace.overhead_share": "ratio",
    })
    return units


def run_config(workload: Workload, data_path: str) -> dict:
    return {
        "schema_version": 1,
        "data": {"path": data_path, "timestamp_col": "timestamp",
                 "target_col": "power", **workload.data},
        "model": {"hidden_sizes": [16], "loss": workload.loss},
        "optimizer": {"kind": "adam", "fixed_lr": 0.2},
        "strategies": STRATEGIES,
        "training": {"epochs": EPOCHS, "seed": 1, "batch_size": workload.batch_size},
    }


OUTPUTS = {"train": ("model.json", "train_trace.csv"), "evaluate": ("evaluation.json",),
           "predict": ("predictions.csv",), "pfi": ("pfi.json",), "lime": ("lime.json",),
           "benchmark": ("benchmark.json",)}


def command(step: str, workload: Workload, config: str, out: str) -> list[str]:
    """CLI arguments of one step; its outputs go to directory out."""
    model = os.path.join(out, "model.json")
    if step == "train":
        return ["train", "--config", config, "--out", model,
                "--trace-out", os.path.join(out, "train_trace.csv")]
    if step == "evaluate":
        flag = ["--probabilistic"] if workload.loss == "pinball" else []
        return ["evaluate", "--config", config, "--model", model,
                "--out", os.path.join(out, "evaluation.json"), *flag]
    if step == "predict":
        return ["predict", "--config", config, "--model", model,
                "--out", os.path.join(out, "predictions.csv")]
    if step in ("pfi", "lime"):
        return ["explain", "--config", config, "--model", model, "--mode", step,
                "--out", os.path.join(out, f"{step}.json")]
    return ["benchmark", "--config", config, "--seeds", str(BENCHMARK_SEEDS),
            "--out", os.path.join(out, "benchmark.json")]


def check_step(step: str, workload: Workload, out: str) -> list[str]:
    path = os.path.join(out, OUTPUTS[step][0])
    if step == "train":
        return (checks.load_json(path)[1]
                + checks.numeric_csv(os.path.join(out, "train_trace.csv"), 0)[1])
    if step == "evaluate":
        return checks.check_evaluation(path, workload.r2_floor)
    if step == "predict":
        return checks.check_predictions(path, workload.samples, workload.loss == "pinball")
    return checks.load_json(path)[1]


def trained_samples(step: str, workload: Workload, out: str) -> int:
    """Training rows times epochs run, over every training the step did."""
    train_rows = int(workload.samples * TRAIN_SHARE)
    if step == "train":
        doc, _ = checks.load_json(os.path.join(out, "model.json"))
        return train_rows * doc["metadata"]["epochs_run"] if doc else 0
    doc, _ = checks.load_json(os.path.join(out, "benchmark.json"))
    if doc is None:
        return 0
    return sum(train_rows * run[arm].get("epochs_run", 0)
               for run in doc["runs"] for arm in ("with_strategies", "without_strategies"))


def run_worker(argv: list[str], out: str, name: str, traced: bool) -> dict:
    result_path = os.path.join(out, f".{name}.result.json")
    spans_path = os.path.join(out, f".{name}.spans.json") if traced else "-"
    started = time.perf_counter()
    problems = []
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, result_path, spans_path, *argv],
            env={**os.environ, **WORKER_ENV}, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        problems.append(f"{name}: timed out after {COMMAND_TIMEOUT_S} s")
    else:
        if proc.returncode != 0:
            problems.append(f"{name}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        if "Traceback" in proc.stderr:
            problems.append(f"{name}: traceback on stderr")
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.unlink(result_path)
    except (OSError, ValueError):
        # the command failed before it could report; time the whole process
        result = {"wall_s": time.perf_counter() - started, "setup_s": 0.0, "peak_rss_kb": 0}
        problems.append(f"{name}: worker wrote no result")
    result["problems"] = problems
    if traced and not problems:
        with open(spans_path, encoding="utf-8") as fh:
            result["spans"] = json.load(fh)
        os.unlink(spans_path)
    return result


def run_session(workload: Workload, config: str, out: str, traced: bool) -> dict:
    os.mkdir(out)
    session = {"traced": traced, "commands": [], "problems": [], "ops": 0, "failed": 0,
               "trained": 0, "train_time_s": 0.0, "spans": []}
    for step in workload.steps:
        result = run_worker(command(step, workload, config, out), out, step, traced)
        problems = result.pop("problems") or check_step(step, workload, out)
        session["ops"] += 1
        session["failed"] += bool(problems)
        if step == "benchmark":
            arms_ok, arm_problems = checks.benchmark_arms(os.path.join(out, "benchmark.json"),
                                                          BENCHMARK_SEEDS)
            session["ops"] += 2
            session["failed"] += 2 - arms_ok
            problems += arm_problems
        if step in ("train", "benchmark") and not problems:
            session["trained"] += trained_samples(step, workload, out)
            session["train_time_s"] += result["wall_s"]
        session["spans"].append(result.pop("spans", []))
        session["problems"] += problems
        session["commands"].append({"step": step, **result})
    session["digests"] = {
        name: checks.digest(os.path.join(out, name))
        for step in workload.steps for name in OUTPUTS[step]
        if os.path.exists(os.path.join(out, name))
    }
    session["metrics"] = session_metrics(session)
    return session


def session_metrics(session: dict) -> dict:
    cmds = session["commands"]
    metrics = {
        "session_s": sum(c["wall_s"] for c in cmds),
        "setup_s": statistics.median(c["setup_s"] for c in cmds),
        "peak_rss_mb": max(c["peak_rss_kb"] for c in cmds) / 1024.0,
        "train_samples_per_s": (session["trained"] / session["train_time_s"]
                                if session["train_time_s"] else 0.0),
        "ops_ok_share": 1.0 - session["failed"] / session["ops"],
    }
    for c in cmds:
        key = STEP_METRIC[c["step"]]
        metrics[key] = metrics.get(key, 0.0) + c["wall_s"]
    return metrics


def layer_metrics(span_sets: list[list], arms_ok_share: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced session, from its workers' spans, and
    every label ranked by its share of the session's traced self time."""
    self_s, calls, amounts = defaultdict(float), defaultdict(int), defaultdict(int)
    grad_rows = train_forward_rows = pfi_calls = n_spans = 0
    for spans in span_sets:
        n_spans += len(spans)
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            label, _, _, parent, amount = span
            self_s[label] += own
            calls[label] += 1
            amounts[label] += amount or 0
            if not label.startswith("network.forward_"):
                continue
            if parent >= 0 and spans[parent][0] == "optim.train":
                train_forward_rows += amount
                if label == "network.forward_grad":
                    grad_rows += amount
            if has_ancestor(spans, i, "explain.pfi"):
                pfi_calls += 1
    metrics = {f"{label}.self_s": self_s[label] for label in TIMED_LABELS}
    metrics.update({f"{label}.calls": calls[label] for label in CALL_LABELS})
    metrics.update({f"{label}.{kind}": amounts[label] for label, kind in AMOUNTS.items()})
    metrics["optim.train.forward_rows_per_grad_row"] = (
        train_forward_rows / grad_rows if grad_rows else 0.0)
    metrics["pipeline.run_benchmark.arms_ok_share"] = arms_ok_share
    metrics["explain.pfi.predict_calls"] = pfi_calls
    metrics["trace.spans"] = n_spans
    whole = sum(self_s.values()) or 1.0
    shares = sorted(((k, v / whole) for k, v in self_s.items()), key=lambda kv: -kv[1])
    return metrics, shares


def arms_ok_share(out: str) -> float:
    """Share of benchmark arm runs that finished; 0 when no benchmark ran."""
    doc, _ = checks.load_json(os.path.join(out, "benchmark.json"))
    if not doc:
        return 0.0
    medians = doc["medians"].values()
    return sum(m["runs_ok"] for m in medians) / (len(medians) * len(doc["seeds"]))


def environment(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "worker_env": WORKER_ENV,
        "git_commit": commit,
        "workload_seed": seed,
    }


def median_of(sessions: list[dict], key: str) -> float | None:
    values = [s["metrics"][key] for s in sessions if key in s["metrics"]]
    return statistics.median(values) if values else None


def load_synth():
    spec = importlib.util.spec_from_file_location("synth", os.path.join(ROOT, "tests", "synth.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    data_path = os.path.join(work, "wind.csv")
    load_synth().write_wind_csv(data_path, n_rows=workload.rows, seed=seed)
    config = os.path.join(work, "run.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(run_config(workload, data_path), fh)

    kinds = (False, True) if trace else (False,)
    sessions = []
    started = time.perf_counter()
    while True:
        traced = kinds[len(sessions) % len(kinds)]
        out = os.path.join(work, f"session{len(sessions)}")
        session = run_session(workload, config, out, traced)
        if traced:
            session["per_layer"], session["shares"] = layer_metrics(session["spans"],
                                                                    arms_ok_share(out))
        del session["spans"]
        sessions.append(session)
        elapsed = time.perf_counter() - started
        if len(sessions) >= MIN_SESSIONS and elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break
    return summarize(sessions, trace)


def summarize(sessions: list[dict], trace: bool) -> dict:
    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    problems = [p for s in sessions for p in s["problems"]]
    first = sessions[0]["digests"]
    for i, s in enumerate(sessions[1:], start=1):
        if s["digests"] != first:
            changed = sorted(k for k in set(first) | set(s["digests"])
                             if first.get(k) != s["digests"].get(k))
            problems.append(f"session {i} ({'traced' if s['traced'] else 'untraced'}) "
                            f"differs from session 0 in {', '.join(changed)}")
    summary = {
        "sessions": len(plain),
        "traced_sessions": len(traced),
        "medians": {key: median_of(plain, key) for key in (*END_TO_END, *COMMAND_TIMES)},
        "digests": first,
        "problems": problems,
        "attempted": sum(s["ops"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "session_table": [
            {"traced": s["traced"], **s["metrics"]}
            for s in sessions
        ],
    }
    if trace:
        layer = {key: statistics.median(s["per_layer"][key] for s in traced)
                 for key in traced[0]["per_layer"]}
        layer["trace.overhead_share"] = (median_of(traced, "session_s")
                                         / median_of(plain, "session_s") - 1.0)
        summary["per_layer"] = layer
        summary["self_time_shares"] = traced[0]["shares"]
    return summary


def print_report(name: str, summary: dict, env: dict) -> None:
    print(f"workload {name}: {summary['sessions']} untraced and "
          f"{summary['traced_sessions']} traced sessions")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    units = dict(END_TO_END, **{k: "s" for k in COMMAND_TIMES})
    for key, unit in units.items():
        value = summary["medians"][key]
        print(f"  {key:20s} {'n/a (not run)' if value is None else f'{value:.6g}'} {unit}")
    failed_share = summary["failed"] / summary["attempted"]
    print(f"  {'ops_failed_share':20s} {failed_share:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for file_name, sha in summary["digests"].items():
        print(f"  sha256 {file_name}: {sha}")
    for key, value in summary.get("per_layer", {}).items():
        print(f"  layer {key:45s} {value:.6g}")
    for label, share in summary.get("self_time_shares", [])[:6]:
        print(f"  self-time share {label:30s} {100 * share:5.1f} %")
    for problem in summary["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(ROOT, "src", "windcast", "cli.py"),
                           os.path.join(ROOT, "tests", "synth.py")) if not os.path.exists(p)]
    if missing:
        print(f"perfbench: program files not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        summary = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args.seed)
    print_report(args.workload, summary, env)

    if args.trace:
        units = per_layer_units()
        values = summary["per_layer"]
    else:
        units = END_TO_END
        values = summary["medians"]
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
