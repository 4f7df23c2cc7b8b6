"""Checks on the files one benchmark session writes.

Every check returns a list of problems; an empty list means the output is
correct. A command whose output has a problem counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def numeric_csv(path: str, skip_cols: int) -> tuple[np.ndarray, list[str]]:
    """The cells after the first skip_cols columns, and any problems with them."""
    try:
        with open(path, encoding="utf-8") as fh:
            width = len(fh.readline().split(","))
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                            usecols=range(skip_cols, width))
    except (OSError, ValueError) as exc:
        return np.empty((0, 0)), [f"{path}: {exc}"]
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        return values, [f"{path}: non-finite value in data row {bad[0][0] + 1}"]
    return values, []


def check_predictions(path: str, expected_rows: int, quantile: bool) -> list[str]:
    """One finite row per constructible sample; quantile rows never cross."""
    values, problems = numeric_csv(path, skip_cols=1)
    if problems:
        return problems
    if len(values) != expected_rows:
        problems.append(f"{path}: {len(values)} rows, expected {expected_rows}")
    if quantile:
        crossed = np.argwhere(np.diff(values[:, 1:], axis=1) < 0)
        if len(crossed):
            problems.append(f"{path}: quantiles cross in data row {crossed[0][0] + 1}")
    return problems


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def load_json(path: str) -> tuple[object, list[str]]:
    """The parsed document, or a problem when it holds NaN or Infinity."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: {exc}"]


def check_evaluation(path: str, r2_floor: float) -> list[str]:
    """A finite test-split r2 above the floor, which a model that learned nothing misses."""
    doc, problems = load_json(path)
    if problems:
        return problems
    r2 = doc.get("r2")
    if not isinstance(r2, float) or not math.isfinite(r2) or r2 <= r2_floor:
        problems.append(f"{path}: r2 {r2!r} is not above {r2_floor}")
    return problems


def benchmark_arms(path: str, n_seeds: int) -> tuple[int, list[str]]:
    """Arms whose runs all finished, and a problem for each that did not."""
    doc, problems = load_json(path)
    if problems:
        return 0, problems
    ok = 0
    for arm, medians in doc["medians"].items():
        if medians["runs_ok"] == n_seeds:
            ok += 1
        else:
            problems.append(f"{path}: arm {arm} ran {medians['runs_ok']} of {n_seeds} seeds")
    return ok, problems


def _strip_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def digest(path: str) -> str:
    """sha256 of a file; a benchmark report is hashed without its wall times."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("benchmark.json"):
        doc = _strip_wall_times(json.loads(data))
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()
