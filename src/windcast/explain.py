"""Model-agnostic interpretability over a prediction callback.

Two procedures, both taking predict: (n, d) array -> length-n vector:

* permutation feature importance (global): the increase in mean squared
  error after shuffling one feature column, averaged over repeats;
* a local linear surrogate (instance-level): weighted ridge regression on
  Gaussian perturbations around one instance, reported as per-feature
  contributions coefficient * instance value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePerturbationError,
    InsufficientDataError,
    RankDeficiencyError,
    SchemaError,
    ShapeError,
)
from .network import INFER_ROWS

PFI_BLOCK_ROWS = 4 * INFER_ROWS  # permuted rows handed to predict per call


def _mse(y: np.ndarray, pred: np.ndarray) -> float:
    return float(np.mean((y - pred) ** 2))


@dataclass
class FeatureImportanceReport:
    feature_names: tuple[str, ...]
    e_ori: float
    e_per_mean: np.ndarray
    fi: np.ndarray
    fi_std: np.ndarray
    repeats: int
    seed: int

    def fi_share(self) -> np.ndarray | None:
        """Each importance as a share of the total; None if total <= 0."""
        total = float(np.sum(self.fi))
        if total <= 0.0:
            return None
        return self.fi / total

    def to_dict(self) -> dict:
        share = self.fi_share()
        return {
            "kind": "pfi",
            "feature_names": list(self.feature_names),
            "values": list(self.fi),
            "e_ori": self.e_ori,
            "e_per_mean": list(self.e_per_mean),
            "fi_std": list(self.fi_std),
            "fi_share": None if share is None else list(share),
            "repeats": self.repeats,
            "seed": self.seed,
        }


def feature_errors(predict, x, y, i: int, repeats: int, seed: int, block, pred) -> np.ndarray:
    """The (repeats,) array of mean squared errors after each permutation
    of feature i.

    Every (feature, repeat) pair draws its permutation from a generator
    seeded with [seed, i, repeat], so a feature's errors do not depend on
    which other features are computed, or where. predict is called on row
    blocks of at most PFI_BLOCK_ROWS rows, filled in block, a
    (min(n, PFI_BLOCK_ROWS), d) buffer: each block of x is copied in once,
    and each repeat writes only its permuted column over it. The forecasts
    go to pred, a (repeats, n) buffer, so one feature's permuted columns
    and forecasts are held at once. A predict whose rows do not depend on
    each other gives the errors of whole-x calls. predict must not hold
    onto the array it is handed. x and y are as permutation_importance
    checks them.
    """
    n = len(x)
    columns = [x[np.random.default_rng([seed, i, r]).permutation(n), i] for r in range(repeats)]
    for lo in range(0, n, PFI_BLOCK_ROWS):
        rows = block[:min(PFI_BLOCK_ROWS, n - lo)]
        rows[:] = x[lo:lo + PFI_BLOCK_ROWS]
        for r, column in enumerate(columns):
            rows[:, i] = column[lo:lo + PFI_BLOCK_ROWS]
            pred[r, lo:lo + PFI_BLOCK_ROWS] = predict(rows)
    return np.array([_mse(y, p) for p in pred])


def permutation_importance(
    predict, x, y, repeats: int = 5, seed: int = 0, feature_names=None, *, _map=map,
) -> FeatureImportanceReport:
    """Shuffle each feature column and measure the error increase.

    predict sees x whole once, for the unshuffled error; the errors after
    permutation are feature_errors's, each process reusing one pair of
    buffers for its features. Nothing here forks, so predict may be any
    callable. e_per_mean and fi_std are each feature's errors' mean and
    sample standard deviation (0 for one repeat).

    _map is not for library callers: pipeline.explain_pfi passes one that
    maps the features over forked processes. It calls this function
    rather than a private copy so that a profiler that wraps
    permutation_importance by name still times the command.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError("x must be (n, d) with a length-n target")
    n, d = x.shape
    if n < 2:
        raise InsufficientDataError("permutation of fewer than 2 rows is the identity")
    if repeats < 1:
        raise SchemaError("repeats must be >= 1")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(d))
    if len(feature_names) != d:
        raise ShapeError(f"{len(feature_names)} names for {d} features")

    e_ori = _mse(y, np.asarray(predict(x), dtype=float))
    block, pred = np.empty((min(n, PFI_BLOCK_ROWS), d)), np.empty((repeats, n))
    e_per_mean = np.empty(d)
    fi_std = np.empty(d)
    errors = _map(lambda i: feature_errors(predict, x, y, i, repeats, seed, block, pred), range(d))
    for i, per in enumerate(errors):
        e_per_mean[i] = per.mean()
        fi_std[i] = per.std(ddof=1) if repeats > 1 else 0.0
    return FeatureImportanceReport(
        feature_names=tuple(feature_names),
        e_ori=e_ori,
        e_per_mean=e_per_mean,
        fi=e_per_mean - e_ori,
        fi_std=fi_std,
        repeats=repeats,
        seed=seed,
    )


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 1000
    perturb_scale: float = 0.1
    kernel_width: float | None = None
    ridge_lambda: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.perturb_scale < math.inf:
            raise SchemaError("perturb_scale must be finite and > 0")
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise SchemaError("ridge_lambda must be finite and >= 0")
        if self.kernel_width is not None and not 0.0 < self.kernel_width < math.inf:
            raise SchemaError("kernel_width must be finite and > 0, or None")


def generate_perturbations(instance, stats, cfg: LimeConfig) -> np.ndarray:
    """Gaussian cloud around the instance; row 0 is the instance itself.

    Feature i is perturbed with standard deviation
    perturb_scale * stats[i], so zero-spread features stay fixed.
    """
    instance = np.asarray(instance, dtype=float)
    stats = np.asarray(stats, dtype=float)
    if instance.ndim != 1 or stats.shape != instance.shape:
        raise ShapeError("instance and stats must be equal-length vectors")
    if np.all(stats == 0.0):
        raise DegeneratePerturbationError("every feature has zero spread")
    d = instance.size
    if cfg.n_samples < d + 2:
        raise SchemaError(f"n_samples must be >= d + 2 = {d + 2}")
    rng = np.random.default_rng(cfg.seed)
    noise = rng.normal(0.0, 1.0, size=(cfg.n_samples, d)) * (cfg.perturb_scale * stats)
    rows = instance + noise
    rows[0] = instance
    return rows


@dataclass
class LimeExplanation:
    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    contributions: np.ndarray
    local_prediction: float
    model_prediction: float

    def to_dict(self) -> dict:
        return {
            "kind": "lime",
            "feature_names": list(self.feature_names),
            "values": list(self.contributions),
            "coefficients": list(self.coefficients),
            "intercept": self.intercept,
            "local_prediction": self.local_prediction,
            "model_prediction": self.model_prediction,
        }


def fit_lime(predict, instance, stats, cfg: LimeConfig, feature_names=None) -> LimeExplanation:
    """Fit a weighted ridge surrogate to the model around one instance.

    Minimizes sum_j w_j * (predict(row_j) - b0 - b . row_j)^2
    + ridge_lambda * ||b||^2 via the normal equations; the intercept is
    not penalized. Weights are exp(-||row - instance||^2 / kernel_width^2),
    or uniform when kernel_width is None. Contributions are coefficient
    times instance value, so intercept + sum(contributions) is exactly the
    surrogate's prediction at the instance.
    """
    instance = np.asarray(instance, dtype=float)
    rows = generate_perturbations(instance, stats, cfg)
    targets = np.asarray(predict(rows), dtype=float)
    if targets.shape != (rows.shape[0],):
        raise ShapeError("predict must return one value per row")

    if cfg.kernel_width is None:
        weights = np.ones(rows.shape[0])
    else:
        sq_dist = np.sum((rows - instance) ** 2, axis=1)
        weights = np.exp(-sq_dist / cfg.kernel_width**2)
        # row 0 is the instance: a fit needs weight on a perturbed row too,
        # and rows too far apart to measure are perturb_scale's, below
        if not np.any(weights[1:] > 0.0) and np.isfinite(sq_dist).all():
            raise RankDeficiencyError(
                f"kernel_width {cfg.kernel_width} gives every perturbed row a weight of 0"
            )

    design = np.column_stack([np.ones(rows.shape[0]), rows])
    wd = design * weights[:, None]
    normal = design.T @ wd
    rhs = wd.T @ targets
    if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):
        raise RankDeficiencyError(
            f"perturb_scale {cfg.perturb_scale} gives normal equations that are not finite"
        )
    penalty = np.eye(design.shape[1]) * cfg.ridge_lambda
    penalty[0, 0] = 0.0
    if cfg.ridge_lambda == 0.0 and np.linalg.matrix_rank(normal) < design.shape[1]:
        # solve() would quietly return junk for an exactly collinear design
        raise RankDeficiencyError("normal equations are singular; set ridge_lambda > 0")
    try:
        beta = np.linalg.solve(normal + penalty, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "normal equations are singular; set ridge_lambda > 0"
        ) from None

    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(instance.size))
    if len(feature_names) != instance.size:
        raise ShapeError(f"{len(feature_names)} names for {instance.size} features")
    intercept = float(beta[0])
    coefficients = beta[1:]
    contributions = coefficients * instance
    return LimeExplanation(
        feature_names=tuple(feature_names),
        intercept=intercept,
        coefficients=coefficients,
        contributions=contributions,
        local_prediction=intercept + float(np.sum(contributions)),
        model_prediction=float(np.asarray(predict(instance[None, :]), dtype=float)[0]),
    )


def render_bar_chart(names, values, title: str) -> str:
    """Horizontal bar chart as a deterministic SVG string.

    Fixed viewport, one bar per feature, negative values drawn left of a
    zero axis. No timestamps or random ids, so equal inputs give equal
    bytes. The names and the title are XML-escaped.
    """
    from html import escape  # as xml.sax.saxutils.escape, which imports urllib.request
    names = [escape(str(name), quote=False) for name in names]
    values = [float(v) for v in values]
    if len(names) != len(values):
        raise ShapeError("one name per value required")
    bar_h, gap, label_w = 22, 8, 150
    plot_w = 420
    top = 36
    height = top + len(values) * (bar_h + gap) + 24
    width = label_w + plot_w + 70
    scale_max = max((abs(v) for v in values), default=0.0) or 1.0
    has_negative = any(v < 0 for v in values)
    zero_x = label_w + (plot_w / 2 if has_negative else 0.0)
    unit = (plot_w / 2 if has_negative else plot_w) / scale_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<text x="{label_w}" y="18" font-size="14">{escape(title, quote=False)}</text>',
        f'<line x1="{zero_x:.2f}" y1="{top - 6}" x2="{zero_x:.2f}" '
        f'y2="{height - 20}" stroke="#444" stroke-width="1"/>',
    ]
    for i, (name, value) in enumerate(zip(names, values)):
        y = top + i * (bar_h + gap)
        w = abs(value) * unit
        x = zero_x - w if value < 0 else zero_x
        fill = "#b2452c" if value < 0 else "#2c7fb2"
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{bar_h}" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 6}" text-anchor="end">{name}</text>'
        )
        parts.append(
            f'<text x="{label_w + plot_w + 8}" y="{y + bar_h - 6}">{value:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
