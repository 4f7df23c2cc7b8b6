"""Acceptance gate: eleven numbered criteria, each asserted at its stated
tolerance and reported as a single pass/fail line in the terminal
summary. Oracles live in oracles.py; the synthetic dataset in synth.py."""

import time

import numpy as np
import pytest

from windcast.config import parse_config
from windcast.errors import RankDeficiencyError
from windcast.explain import LimeConfig, fit_lime, permutation_importance
from windcast.metrics import (
    IntervalForecast,
    interval_metrics,
    nmae,
    nrmse,
    quantile_score,
    r2,
)
from windcast.network import (
    Architecture,
    Loss,
    Network,
    QuantileForecast,
    backward,
    forward,
    init_network,
    pinball_loss,
    predict_quantiles,
)
from windcast.optim import (
    OPTIMIZER_KINDS,
    Optimizer,
    OptimizerConfig,
    StrategyConfig,
    centralize_gradient,
    cosine_lr,
)
from windcast.pipeline import run_benchmark, train_from_config

from conftest import record_criterion
from oracles import (
    adam_trajectory,
    exhaustive_permutation_errors,
    finite_difference_gradients,
    plain_steps,
)
from synth import write_wind_csv


def check(number, label, fn):
    """Run one criterion, record its outcome, and assert it."""
    try:
        detail = fn() or ""
    except BaseException as exc:
        record_criterion(number, label, False, f"{type(exc).__name__}: {exc}")
        raise
    record_criterion(number, label, True, detail)


@pytest.fixture(scope="module")
def wind_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("acceptance") / "wind.csv")
    write_wind_csv(path, n_rows=3000, seed=20240)
    return path


def _draw_gradcheck_case(seed):
    """One random MLP and batch; relu cases must clear a kink margin."""
    rng = np.random.default_rng(seed)
    loss_kind = "mse" if rng.integers(2) == 0 else "pinball"
    depth = int(rng.integers(1, 3))
    sizes = [int(rng.integers(1, 9))] + [int(rng.integers(1, 33)) for _ in range(depth)]
    hidden = ("relu", "tanh", "sigmoid")[int(rng.integers(3))]
    if loss_kind == "pinball":
        n_levels = int(rng.integers(2, 6))
        levels = tuple(np.sort(rng.uniform(0.05, 0.95, n_levels)))
        if len(set(levels)) < n_levels:
            return None
        sizes.append(n_levels)
        loss = Loss(kind="pinball", levels=levels)
        out_act = "identity"
    else:
        sizes.append(int(rng.integers(1, 4)))
        loss = Loss(kind="mse")
        out_act = "identity" if rng.integers(2) == 0 else "sigmoid"
    arch = Architecture(tuple(sizes), hidden_activation=hidden, output_activation=out_act)
    net = init_network(arch, seed=int(rng.integers(1e9)))
    x = rng.normal(size=(6, sizes[0]))
    y = rng.normal(size=6) if loss_kind == "pinball" else rng.normal(size=(6, sizes[-1]))
    if hidden == "relu":
        _, cache = forward(net, x, want_cache=True)
        hidden_zs = cache["zs"][:-1]
        if hidden_zs and min(np.abs(z).min() for z in hidden_zs) < 1e-3:
            # finite differences are invalid within h of a relu kink
            return None
    return net, x, y, loss


def test_criterion_1_gradient_oracle():
    def body():
        t0 = time.perf_counter()
        worst = 0.0
        count, seed = 0, 0
        while count < 20:
            case = _draw_gradcheck_case(seed)
            seed += 1
            if case is None:
                continue
            net, x, y, loss = case
            pred, cache = forward(net, x, want_cache=True)
            _, dpred = loss.value_and_grad(pred, y)
            analytic = backward(net, cache, dpred)
            numeric = finite_difference_gradients(net, x, y, loss)
            for a, n in zip(analytic, numeric):
                scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
                worst = max(worst, float((np.abs(a - n) / scale).max()))
            count += 1
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        return f"20 nets, worst rel err {worst:.1e}, {elapsed:.1f}s"

    check(1, "analytic gradients match central finite differences", body)


def test_criterion_2_adam_reference_equivalence():
    def body():
        rng = np.random.default_rng(20240)
        theta0 = rng.uniform(-1.0, 1.0, size=10)
        lr = 0.001
        reference = adam_trajectory(theta0.copy(), steps=100, lr=lr)
        p = theta0.copy()
        opt = Optimizer(OptimizerConfig(fixed_lr=lr), StrategyConfig(), [p])
        worst = 0.0
        for step in range(100):
            opt.step([p], [p.copy()])
            worst = max(worst, float(np.abs(p - reference[step]).max()))
            assert worst <= 1e-12, f"step {step + 1}: deviation {worst:.3e}"
        return f"100 steps, max deviation {worst:.1e}"

    check(2, "adam trajectory matches single-file reference", body)


def test_criterion_3_strategies_off_reduction():
    def body():
        rng = np.random.default_rng(321)
        trials = 0
        for kind in OPTIMIZER_KINDS:
            for _ in range(25):
                theta0 = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 16)))
                grads = [rng.normal(size=theta0.shape) for _ in range(4)]
                lr = float(rng.uniform(0.0005, 0.3))
                p = theta0.copy()
                off = StrategyConfig(centralize=False, cosine_lr=False, noise_tau=0.0)
                opt = Optimizer(OptimizerConfig(kind=kind, fixed_lr=lr), off, [p])
                for g in grads:
                    opt.step([p], [g.copy()])
                expected = plain_steps(kind, theta0, grads, lr)[-1]
                assert np.array_equal(p, expected), f"{kind}: bitwise mismatch"
                trials += 1
        return f"{trials} random inputs across {len(OPTIMIZER_KINDS)} kinds, all bitwise equal"

    check(3, "strategies-off step is bitwise the plain update", body)


def test_criterion_4_schedule_exactness():
    def body():
        alpha0 = 0.123
        assert cosine_lr(0, alpha0, 500) == alpha0
        assert cosine_lr(500, alpha0, 500) == 0.0
        assert abs(cosine_lr(250, alpha0, 500) - alpha0 / 2.0) <= 1e-16
        values = [cosine_lr(t, alpha0, 1000) for t in range(1001)]
        assert all(a >= b for a, b in zip(values, values[1:])), "not monotone"
        return "endpoints exact, 1000-point sweep monotone"

    check(4, "cosine schedule endpoints and monotonicity", body)


def test_criterion_5_centralization():
    def body():
        rng = np.random.default_rng(20240)
        worst_ulps = 0.0
        for _ in range(1000):
            g = rng.normal(
                rng.uniform(-2.0, 2.0),
                rng.uniform(0.1, 10.0),
                size=(int(rng.integers(1, 33)), int(rng.integers(1, 33))),
            )
            c = centralize_gradient(g)
            magnitude = np.abs(c).max(axis=1)
            means = np.abs(c.mean(axis=1))
            with np.errstate(invalid="ignore", divide="ignore"):
                ulps = np.where(magnitude > 0, means / np.spacing(magnitude), 0.0)
            worst_ulps = max(worst_ulps, float(ulps.max()))
            assert np.all(means <= 4.0 * np.spacing(magnitude)), "row mean above 4 ulps"
            assert np.array_equal(c, centralize_gradient(c)), "not idempotent"
            assert np.linalg.norm(c) <= np.linalg.norm(g), "Frobenius norm grew"
        return f"1000 matrices, worst row mean {worst_ulps:.2f} ulps"

    check(5, "gradient centralization row means, idempotence, norm", body)


def test_criterion_6_synthetic_benchmark(wind_csv):
    def body():
        doc = {
            "data": {
                "path": wind_csv,
                "timestamp_col": "timestamp",
                "target_col": "power",
                "mode": "nwp",
                "feature_cols": ["WS10", "WD10", "WS100", "WD100"],
            },
            "model": {"hidden_sizes": [16], "loss": "mse"},
            "optimizer": {"kind": "adam", "fixed_lr": 0.2},
            "strategies": {"initial_lr": 0.2, "noise_seed": 5},
            "training": {"epochs": 60, "seed": 1},
        }
        t0 = time.perf_counter()
        report = run_benchmark(parse_config(doc), n_seeds=10)
        elapsed = time.perf_counter() - t0
        on = report["medians"]["with_strategies"]
        off = report["medians"]["without_strategies"]
        assert on["runs_ok"] == 10 and off["runs_ok"] == 10, "diverged runs"
        assert on["nrmse"] <= off["nrmse"], (
            f"median nrmse with strategies {on['nrmse']:.4f} "
            f"> without {off['nrmse']:.4f}"
        )
        delta = report["deltas_pct"]["nrmse"]
        print(f"benchmark nrmse delta: {delta:+.2f}% (with {on['nrmse']:.4f}, "
              f"without {off['nrmse']:.4f})")
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        return f"10 seeds, nrmse delta {delta:+.1f}%, {elapsed:.1f}s"

    check(6, "paired synthetic benchmark, strategies non-inferior", body)


def test_criterion_7_pfi_oracle():
    def body():
        predict = lambda rows: 3.0 * rows[:, 0] + 0.0 * rows[:, 1] + 1.0 * rows[:, 2]
        rng = np.random.default_rng(77)
        x = rng.normal(size=(500, 3))
        x -= x.mean(axis=0)
        x /= x.std(axis=0)
        y = predict(x)
        report = permutation_importance(predict, x, y, repeats=5, seed=0)
        assert report.fi[1] == 0.0, f"null feature importance {report.fi[1]!r}"
        assert report.fi[0] > report.fi[2] > 0.0, f"ordering violated: {report.fi}"

        n, repeats = 6, 200
        small = rng.normal(size=(n, 2))
        small -= small.mean(axis=0)
        small /= small.std(axis=0)
        predict2 = lambda rows: 3.0 * rows[:, 0] + 0.5 * rows[:, 1]
        y2 = predict2(small)
        sampled = permutation_importance(predict2, small, y2, repeats=repeats, seed=3)
        for feature in range(2):
            exact = exhaustive_permutation_errors(predict2, small, y2, feature)
            se = exact.std(ddof=1) / np.sqrt(repeats)
            gap = abs(sampled.e_per_mean[feature] - exact.mean())
            assert gap <= 2.0 * se, f"feature {feature}: gap {gap:.3e} > 2 se {2*se:.3e}"
        return "null feature exact zero, exhaustive oracle within 2 se"

    check(7, "permutation importance null feature and exhaustive oracle", body)


def test_criterion_8_lime_exact_recovery():
    def body():
        coef = np.array([1.7, -0.4, 2.5, 0.0])
        intercept = -0.9
        predict = lambda rows: rows @ coef + intercept
        instance = np.array([0.25, 1.5, -2.0, 0.75])
        cfg = LimeConfig(n_samples=500, ridge_lambda=0.0, seed=20240)
        explanation = fit_lime(predict, instance, np.ones(4), cfg)
        coef_err = float(np.abs(explanation.coefficients - coef).max())
        assert coef_err < 1e-6, f"coefficient error {coef_err:.2e}"
        assert abs(explanation.intercept - intercept) < 1e-6
        reconstruction = explanation.intercept + float(np.sum(explanation.contributions))
        model_value = float(predict(instance[None, :])[0])
        assert abs(reconstruction - model_value) < 1e-6
        return f"coef err {coef_err:.1e}, reconstruction gap {abs(reconstruction - model_value):.1e}"

    check(8, "local surrogate recovers exact linear models", body)


def test_criterion_9_metric_oracles():
    def body():
        assert abs(r2([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) - 0.5) <= 1e-12
        assert abs(nmae([0.0, 0.0], [1.0, 1.0]) - 1.0) <= 1e-12
        assert abs(nrmse([0.0, 0.0], [1.0, 1.0]) - 1.0) <= 1e-12
        assert abs(nmae([0.0, 0.0], [0.0, 1.0]) - 0.5) <= 1e-12
        assert abs(nrmse([0.0, 0.0], [0.0, 1.0]) - np.sqrt(0.5)) <= 1e-12

        fc = QuantileForecast(levels=(0.1, 0.9), values=np.array([[0.0, 1.0]]))
        assert abs(quantile_score(fc, [0.5]) - 0.05) <= 1e-12
        loss_value, _ = pinball_loss(np.array([[0.0, 1.0]]), np.array([0.5]), (0.1, 0.9))
        assert abs(loss_value - 0.05) <= 1e-12

        iv = IntervalForecast(pinc=0.8, lower=np.array([0.2]), upper=np.array([0.4]))
        out = interval_metrics(iv, np.array([0.5]))
        assert abs(out["winkler"] - 1.2) <= 1e-12

        lower, upper = np.zeros(1000), np.ones(1000)
        y = np.full(1000, 0.5)
        y[:240] = 2.0
        table = interval_metrics(IntervalForecast(0.80, lower, upper), y)
        assert table["picp"] == 0.760
        assert table["ace"] == 0.760 - 0.80, f"ace {table['ace']!r}"
        return "hand values at 1e-12, ace sign exact"

    check(9, "metric hand values and ace sign convention", body)


def test_criterion_10_pfi_scaling():
    def body():
        net = init_network(Architecture((4, 16, 1), hidden_activation="tanh"), seed=5)
        predict = lambda rows: forward(net, rows).ravel()
        rng = np.random.default_rng(11)
        n = 5000
        x_small = rng.normal(size=(n, 4))
        y_small = predict(x_small)
        x_big = rng.normal(size=(4 * n, 4))
        y_big = predict(x_big)

        # CPU time of this process only: other processes' bursts on a shared
        # host do not enter the ratio
        def once(x, y):
            t0 = time.process_time()
            permutation_importance(predict, x, y, repeats=10, seed=0)
            return time.process_time() - t0

        once(x_small, y_small)  # warm-up
        once(x_big, y_big)
        smalls, bigs = [], []
        for _ in range(7):  # interleave so machine drift hits both sizes
            smalls.append(once(x_small, y_small))
            bigs.append(once(x_big, y_big))
        # the fastest repeat of each size: host noise only ever adds time
        t_small = min(smalls)
        t_big = min(bigs)
        ratio = t_big / t_small
        assert ratio <= 5.0, f"4x rows took {ratio:.2f}x the time"
        return f"{n} rows {t_small * 1e3:.0f}ms, {4 * n} rows {t_big * 1e3:.0f}ms, ratio {ratio:.2f}"

    check(10, "permutation importance scales about linearly", body)


def test_criterion_11_probabilistic_pipeline(wind_csv):
    def body():
        from windcast.pipeline import evaluate_bundle

        doc = {
            "data": {
                "path": wind_csv,
                "timestamp_col": "timestamp",
                "target_col": "power",
                "mode": "nwp",
                "feature_cols": ["WS10", "WD10", "WS100", "WD100"],
            },
            "model": {"hidden_sizes": [32, 16], "loss": "pinball"},
            "strategies": {"centralize": True, "cosine_lr": True, "initial_lr": 0.02,
                           "noise_tau": 0.0001, "noise_seed": 9},
            "training": {"epochs": 1200, "seed": 42, "early_stop_patience": 100},
        }
        config = parse_config(doc)
        bundle, _, prepared = train_from_config(config)
        assert len(bundle.quantile_levels) == 21  # 19 interior + 2 tail levels

        forecast = predict_quantiles(bundle.network, prepared.test.x, bundle.quantile_levels)
        assert np.all(np.diff(forecast.values, axis=1) >= 0.0), "crossing quantiles"

        report = evaluate_bundle(bundle, prepared)
        gaps = []
        for pinc in (0.80, 0.90, 0.95):
            picp = report["per_pinc"][str(int(pinc * 100))]["picp"]
            gap = abs(picp - pinc)
            gaps.append(f"{int(pinc * 100)}%: picp {picp:.3f}")
            assert gap <= 0.15, f"picp {picp:.3f} misses pinc {pinc} by {gap:.3f}"
        return "; ".join(gaps)

    check(11, "quantile pipeline coverage on synthetic data", body)
