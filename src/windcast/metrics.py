"""Deterministic and probabilistic forecast evaluation.

Deterministic: R^2, NMAE, NRMSE. The normalized errors assume the inputs
already live on the [0, 1] capacity scale, where normalization by range
and by capacity coincide.

Probabilistic: mean pinball quantile score (QS), its doubled value as the
quantile approximation of CRPS, and per-confidence interval metrics
(PICP, ACE, PINAW, Winkler). An interval at nominal confidence p is read
off the quantile grid at levels (1-p)/2 and (1+p)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataError,
    InsufficientGridError,
    IntegrityError,
    SchemaError,
    ShapeError,
    UndefinedDenominatorError,
)
from .network import QuantileForecast, pinball_loss

DEFAULT_QUANTILE_LEVELS = (
    0.025,
    0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95,
    0.975,
)

DEFAULT_PINCS = (0.80, 0.90, 0.95)


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ShapeError(f"need equal-length vectors, got {y.shape} and {yhat.shape}")
    if y.size == 0:
        raise EmptyDataError("no observations")
    return y, yhat


def r2(y, yhat) -> float:
    """Coefficient of determination, 1 - SSE/SST; 1 means an exact fit."""
    y, yhat = _paired(y, yhat)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise UndefinedDenominatorError("r2 is undefined for constant observations")
    sse = float(np.sum((yhat - y) ** 2))
    return 1.0 - sse / sst


def nmae(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(np.mean(np.abs(yhat - y)))


def nrmse(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(np.sqrt(np.mean((yhat - y) ** 2)))


def deterministic_report(y, yhat) -> dict:
    """r2, nmae, nrmse and the number of observations n."""
    y, yhat = _paired(y, yhat)
    return {"r2": r2(y, yhat), "nmae": nmae(y, yhat), "nrmse": nrmse(y, yhat), "n": int(y.size)}


def quantile_score(forecast: QuantileForecast, y) -> float:
    """Mean pinball loss over all samples and all quantile levels."""
    y = np.asarray(y, dtype=float)
    if y.shape != (len(forecast),):
        raise ShapeError(f"{len(forecast)} forecast rows for {y.shape} observations")
    if y.size == 0:
        raise EmptyDataError("no observations")
    return pinball_loss(forecast.values, y, forecast.levels, want_grad=False)[0]


def crps_from_quantiles(forecast: QuantileForecast, y) -> float:
    """Quantile-decomposition CRPS: twice the mean pinball score.

    The approximation needs a grid, not a single level.
    """
    if len(forecast.levels) < 2:
        raise InsufficientGridError("crps needs at least two quantile levels")
    return 2.0 * quantile_score(forecast, y)


@dataclass
class IntervalForecast:
    """Central interval at nominal coverage pinc: [lower, upper] per sample."""

    pinc: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.pinc < 1.0:
            raise SchemaError(f"pinc must be in (0, 1), got {self.pinc}")
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ShapeError("lower and upper must be equal-length vectors")

    def __len__(self) -> int:
        return self.lower.size


def interval_from_quantiles(forecast: QuantileForecast, pinc: float) -> IntervalForecast:
    """Pick the (1-p)/2 and (1+p)/2 quantile columns as interval bounds."""
    lo_level = (1.0 - pinc) / 2.0
    hi_level = (1.0 + pinc) / 2.0
    levels = np.asarray(forecast.levels, dtype=float)
    lo_idx = int(np.argmin(np.abs(levels - lo_level)))
    hi_idx = int(np.argmin(np.abs(levels - hi_level)))
    if abs(levels[lo_idx] - lo_level) > 1e-9 or abs(levels[hi_idx] - hi_level) > 1e-9:
        raise SchemaError(
            f"quantile grid has no levels {lo_level:g}/{hi_level:g} for pinc {pinc:g}"
        )
    return IntervalForecast(pinc, forecast.values[:, lo_idx], forecast.values[:, hi_idx])


def interval_metrics(intervals: IntervalForecast, y) -> dict:
    """PICP (inclusive), ACE, PINAW and the mean Winkler score."""
    y = np.asarray(y, dtype=float)
    if y.shape != intervals.lower.shape:
        raise ShapeError("observations do not match the intervals")
    if y.size == 0:
        raise EmptyDataError("no observations")
    lower, upper = intervals.lower, intervals.upper
    if np.any(upper < lower):
        raise IntegrityError("interval with upper < lower")
    covered = (y >= lower) & (y <= upper)
    picp = float(np.mean(covered))
    width = upper - lower
    lam = 1.0 - intervals.pinc
    penalty = np.where(y < lower, (2.0 / lam) * (lower - y), 0.0) + np.where(
        y > upper, (2.0 / lam) * (y - upper), 0.0
    )
    return {
        "picp": picp,
        "ace": picp - intervals.pinc,
        "pinaw": float(np.mean(width)),
        "winkler": float(np.mean(width + penalty)),
    }


def probabilistic_report(forecast: QuantileForecast, y, pincs=DEFAULT_PINCS) -> dict:
    """qs, crps and per_pinc: each pinc's interval_metrics, keyed by its
    percentage ("80" for 0.80)."""
    return {
        "qs": quantile_score(forecast, y),
        "crps": crps_from_quantiles(forecast, y),
        "per_pinc": {
            str(int(round(pinc * 100))):
                interval_metrics(interval_from_quantiles(forecast, pinc), y)
            for pinc in pincs
        },
    }
