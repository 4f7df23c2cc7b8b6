"""Independent reference implementations used to check the package.

Everything here is written straight from the defining formulas, without
importing the package's own numerics (the loss/forward evaluations used
by the finite-difference check are the quantities under test, which is
exactly what a derivative check needs).
"""

import csv
import math
from datetime import datetime
from itertools import permutations

import numpy as np

# np.trapezoid is NumPy 2.0's name for np.trapz, which 2.4 removes
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def finite_difference_gradients(net, x, y, loss, h=1e-6):
    """Central differences of the total loss w.r.t. every parameter."""
    from windcast import forward

    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat, gf = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss.value(forward(net, x), y)
            flat[i] = orig - h
            lo = loss.value(forward(net, x), y)
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def adam_trajectory(theta0, steps, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain Adam minimizing f(theta) = 0.5 * ||theta||^2 (gradient = theta)."""
    theta = np.array(theta0, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trajectory = []
    for t in range(1, steps + 1):
        g = theta.copy()
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / np.sqrt(v_hat + eps)
        trajectory.append(theta.copy())
    return trajectory


def plain_steps(kind, theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Trajectory of the unmodified update rule for one optimizer kind."""
    theta = np.array(theta0, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    u = np.zeros_like(theta)
    trajectory = []
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=float)
        if kind == "adam":
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            theta = theta - lr * m_hat / np.sqrt(v_hat + eps)
        elif kind == "nadam":
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            g_hat = g / (1.0 - beta1**t)
            theta = theta - lr * (beta1 * m_hat + (1.0 - beta1) * g_hat) / np.sqrt(v_hat + eps)
        elif kind == "rmsprop":
            v = beta2 * v + (1.0 - beta2) * (g * g)
            theta = theta - lr * g / np.sqrt(v + eps)
        elif kind == "adamax":
            m = beta1 * m + (1.0 - beta1) * g
            u = np.maximum(beta2 * u, np.abs(g))
            m_hat = m / (1.0 - beta1**t)
            theta = theta - lr * m_hat / (u + eps)
        else:
            raise ValueError(kind)
        trajectory.append(theta.copy())
    return trajectory


def per_parameter_noisy_adam(params, grad_steps, lr, tau, noise_seeds,
                             beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with uniform parameter noise on a stack, one array at a time.

    params are arrays whose leading axis holds one network per noise seed,
    and grad_steps holds one list of gradients, shaped like params, per
    step. After array k's update, slice s adds uniform(-tau, tau) noise
    drawn for that array alone from its own stream, seeded
    [noise_seeds[s], 1], before array k + 1 is updated. Returns the final
    arrays.
    """
    params = [np.array(p, dtype=float) for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rngs = [np.random.default_rng([seed, 1]) for seed in noise_seeds]
    for t, grads in enumerate(grad_steps, start=1):
        for k, (p, g) in enumerate(zip(params, grads)):
            m[k] = beta1 * m[k] + (1.0 - beta1) * g
            v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
            m_hat = m[k] / (1.0 - beta1**t)
            v_hat = v[k] / (1.0 - beta2**t)
            p -= lr * m_hat / np.sqrt(v_hat + eps)
            for row, rng in zip(p, rngs):
                row += rng.uniform(-tau, tau, size=row.shape)
    return params


def mse(y, pred):
    return float(np.mean((np.asarray(y) - np.asarray(pred)) ** 2))


def exhaustive_permutation_errors(predict, x, y, feature):
    """Shuffled-column error for every permutation of one feature column."""
    n = len(y)
    errors = []
    for perm in permutations(range(n)):
        shuffled = x.copy()
        shuffled[:, feature] = x[list(perm), feature]
        errors.append(mse(y, predict(shuffled)))
    return np.array(errors)


def whole_permutation_errors(predict, x, y, repeats, seed):
    """The (d, repeats) errors of permutation importance, each from one
    predict call on a whole shuffled copy of x, with the permutation of
    (feature i, repeat r) drawn from a generator seeded [seed, i, r]."""
    n, d = x.shape
    errors = np.empty((d, repeats))
    for i in range(d):
        for r in range(repeats):
            shuffled = np.array(x)
            shuffled[:, i] = x[np.random.default_rng([seed, i, r]).permutation(n), i]
            errors[i, r] = mse(y, predict(shuffled))
    return errors


def crps_step_integral(values, y, n_grid=200_001):
    """CRPS of the empirical step CDF of one quantile row against point y.

    Integrates (F(x) - 1[x >= y])^2 over a padded range with the
    trapezoid rule; F steps by 1/len(values) at each sorted value.
    """
    values = np.sort(np.asarray(values, dtype=float))
    lo = min(values[0], y) - 2.0
    hi = max(values[-1], y) + 2.0
    xs = np.linspace(lo, hi, n_grid)
    cdf = np.searchsorted(values, xs, side="right") / values.size
    indicator = (xs >= y).astype(float)
    return float(_trapezoid((cdf - indicator) ** 2, xs))


def weighted_linear_fit(rows, targets, weights):
    """Closed-form weighted least squares with intercept, no penalty."""
    design = np.column_stack([np.ones(len(rows)), rows])
    sw = np.sqrt(np.asarray(weights, dtype=float))
    coef, *_ = np.linalg.lstsq(design * sw[:, None], targets * sw, rcond=None)
    return coef


def row_wise_load_csv(path, schema):
    """The csv-module loader that parsed every row in Python: the reference
    for the bulk reader's arrays, timestamps and error messages."""
    from windcast.data import TimeSeriesFrame
    from windcast.errors import (
        DataError, EmptyDataError, IntegrityError, ParseError, SchemaError,
    )

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        wanted = (schema.timestamp_col, schema.target_col, *schema.feature_cols)
        for name in wanted:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
        idx = {name: header.index(name) for name in wanted}

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts = datetime.fromisoformat(row[idx[schema.timestamp_col]])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: row {lineno}: bad timestamp ({exc})") from None
            try:
                target = float(row[idx[schema.target_col]])
                feats = tuple(float(row[idx[c]]) for c in schema.feature_cols)
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: row {lineno}: bad number ({exc})") from None
            for value in (target, *feats):
                if not math.isfinite(value):
                    raise ParseError(f"{path}: row {lineno}: non-finite value {value!r}")
            rows.append((ts, target, feats))

    if not rows:
        raise EmptyDataError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise IntegrityError(f"{path}: duplicate timestamp {a[0].isoformat()}")

    return TimeSeriesFrame(
        timestamps=[r[0] for r in rows],
        target=np.array([r[1] for r in rows], dtype=float),
        target_name=schema.target_col,
        features={
            name: np.array([r[2][j] for r in rows], dtype=float)
            for j, name in enumerate(schema.feature_cols)
        },
    )


def whole_predictions_csv(bundle, prepared, timestamps):
    """The prediction CSV as one string, formatted row by row: the
    reference for the bytes the streamed writer produces. timestamps are
    the datetimes of the frame's rows, each written as its isoformat().
    The forecasts come from the package's own forecast; only the text is
    checked."""
    from windcast.data import invert_column

    full, frame = prepared.full, prepared.raw_frame
    scaled, _ = bundle.forecast(full.x)
    if bundle.kind == "point":
        header = "timestamp,y_true,prediction"
    else:
        header = "timestamp,y_true," + ",".join(f"q{q:g}" for q in bundle.quantile_levels)
    values = invert_column(bundle.scaler, bundle.target_name, scaled)
    lines = [header]
    for i, row in zip(full.target_indices, values.tolist()):
        cells = [timestamps[i].isoformat(), repr(float(frame.target[i]))]
        lines.append(",".join(cells + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"
