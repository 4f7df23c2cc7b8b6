"""Tests for deterministic and probabilistic evaluation metrics."""

import numpy as np
import pytest

from windcast.errors import (
    EmptyDataError,
    InsufficientGridError,
    IntegrityError,
    SchemaError,
    ShapeError,
    UndefinedDenominatorError,
)
from windcast.metrics import (
    DEFAULT_PINCS,
    DEFAULT_QUANTILE_LEVELS,
    IntervalForecast,
    crps_from_quantiles,
    deterministic_report,
    interval_from_quantiles,
    interval_metrics,
    nmae,
    nrmse,
    probabilistic_report,
    quantile_score,
    r2,
)
from windcast.network import QuantileForecast

from oracles import crps_step_integral


class TestDeterministic:
    def test_r2_hand_value(self):
        assert r2([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]) == 0.5

    def test_r2_perfect_fit(self):
        y = np.array([0.1, 0.4, 0.9])
        assert r2(y, y.copy()) == 1.0

    def test_r2_perturbation_lowers(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.normal(size=12)
            bumped = y.copy()
            bumped[int(rng.integers(12))] += rng.uniform(0.01, 1.0)
            assert r2(y, bumped) < 1.0

    def test_r2_constant_observations_undefined(self):
        with pytest.raises(UndefinedDenominatorError):
            r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_nmae_nrmse_hand_values(self):
        assert nmae([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert nrmse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert nmae([0.0, 0.0], [0.0, 1.0]) == 0.5
        np.testing.assert_allclose(
            nrmse([0.0, 0.0], [0.0, 1.0]), np.sqrt(0.5), rtol=0, atol=1e-16
        )

    def test_nrmse_at_least_nmae(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.normal(size=int(rng.integers(2, 40)))
            yhat = y + rng.normal(size=y.shape)
            assert nrmse(y, yhat) >= nmae(y, yhat)

    def test_report_fields(self):
        doc = deterministic_report([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert set(doc) == {"r2", "nmae", "nrmse", "n"}
        assert doc["r2"] == 0.5
        assert doc["n"] == 3

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            nmae([1.0, 2.0], [1.0])
        with pytest.raises(EmptyDataError):
            nrmse([], [])


class TestQuantileScore:
    def test_documented_value(self):
        fc = QuantileForecast(levels=(0.1, 0.9), values=np.array([[0.0, 1.0]]))
        assert quantile_score(fc, [0.5]) == pytest.approx(0.05, abs=1e-15)

    def test_median_level_is_half_mae(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            pred = rng.normal(size=(n, 1))
            y = rng.normal(size=n)
            fc = QuantileForecast(levels=(0.5,), values=np.sort(pred, axis=1))
            expected = 0.5 * np.mean(np.abs(y - pred.ravel()))
            np.testing.assert_allclose(quantile_score(fc, y), expected, rtol=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        levels = tuple(np.linspace(0.1, 0.9, 5))
        for _ in range(30):
            values = np.sort(rng.normal(size=(8, 5)), axis=1)
            fc = QuantileForecast(levels=levels, values=values)
            assert quantile_score(fc, rng.normal(size=8)) >= 0.0

    def test_shape_mismatch(self):
        fc = QuantileForecast(levels=(0.5,), values=np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            quantile_score(fc, [1.0, 2.0])


class TestCrps:
    def test_twice_quantile_score(self):
        rng = np.random.default_rng(11)
        levels = tuple(np.linspace(0.05, 0.95, 19))
        values = np.sort(rng.normal(size=(12, 19)), axis=1)
        fc = QuantileForecast(levels=levels, values=values)
        y = rng.normal(size=12)
        assert crps_from_quantiles(fc, y) == 2.0 * quantile_score(fc, y)

    def test_needs_a_grid(self):
        fc = QuantileForecast(levels=(0.5,), values=np.zeros((3, 1)))
        with pytest.raises(InsufficientGridError):
            crps_from_quantiles(fc, [0.0, 0.0, 0.0])

    def test_oracle_identity_at_midpoint_levels(self):
        # At levels (k-0.5)/m the doubled pinball sum IS the CRPS of the
        # empirical step CDF; only grid integration error remains.
        k = np.arange(1, 20)
        levels = (k - 0.5) / 19.0
        values = -np.log(1.0 - levels)  # exponential(1) quantiles
        fc = QuantileForecast(levels=tuple(levels), values=values[None, :])
        for y in (0.1, 0.7, 3.0):
            pkg = crps_from_quantiles(fc, np.array([y]))
            oracle = crps_step_integral(values, y)
            np.testing.assert_allclose(pkg, oracle, rtol=1e-4)

    def test_oracle_agreement_on_regular_grid(self):
        # On the k/20 grid the two routes differ by a small constant
        # end-bin offset; off-center observations keep it under 5%.
        levels = np.arange(1, 20) / 20.0
        values = -np.log(1.0 - levels)
        fc = QuantileForecast(levels=tuple(levels), values=values[None, :])
        for y in (0.05, 3.0, 4.0):
            pkg = crps_from_quantiles(fc, np.array([y]))
            oracle = crps_step_integral(values, y)
            assert abs(pkg - oracle) / oracle < 0.05
            assert abs(pkg - oracle) < 0.025


class TestIntervals:
    def test_levels_picked_from_grid(self):
        values = np.tile(np.linspace(0.0, 1.0, 21), (4, 1))
        fc = QuantileForecast(levels=DEFAULT_QUANTILE_LEVELS, values=values)
        iv = interval_from_quantiles(fc, 0.80)
        lo_idx = DEFAULT_QUANTILE_LEVELS.index(0.10)
        hi_idx = DEFAULT_QUANTILE_LEVELS.index(0.90)
        np.testing.assert_array_equal(iv.lower, values[:, lo_idx])
        np.testing.assert_array_equal(iv.upper, values[:, hi_idx])

    def test_default_grid_supports_default_pincs(self):
        values = np.tile(np.linspace(0.0, 1.0, 21), (2, 1))
        fc = QuantileForecast(levels=DEFAULT_QUANTILE_LEVELS, values=values)
        for pinc in DEFAULT_PINCS:
            iv = interval_from_quantiles(fc, pinc)
            assert iv.pinc == pinc

    def test_missing_level_rejected(self):
        fc = QuantileForecast(levels=(0.25, 0.75), values=np.zeros((1, 2)))
        with pytest.raises(SchemaError):
            interval_from_quantiles(fc, 0.80)

    def test_winkler_hand_value(self):
        iv = IntervalForecast(pinc=0.8, lower=np.array([0.2]), upper=np.array([0.4]))
        out = interval_metrics(iv, np.array([0.5]))
        np.testing.assert_allclose(out["winkler"], 1.2, rtol=0, atol=1e-15)
        assert out["picp"] == 0.0
        np.testing.assert_allclose(out["pinaw"], 0.2, rtol=0, atol=1e-15)

    def test_ace_sign_convention(self):
        # picp 0.760 at pinc 0.80 must give ace -0.040 exactly
        lower = np.zeros(1000)
        upper = np.ones(1000)
        y = np.full(1000, 0.5)
        y[:240] = 2.0  # 240 observations escape above
        out = interval_metrics(IntervalForecast(0.80, lower, upper), y)
        assert out["picp"] == 0.760
        assert out["ace"] == 0.760 - 0.80
        np.testing.assert_allclose(out["ace"], -0.040, rtol=0, atol=1e-15)

    def test_coverage_is_inclusive(self):
        iv = IntervalForecast(pinc=0.5, lower=np.array([0.2, 0.2]), upper=np.array([0.4, 0.4]))
        out = interval_metrics(iv, np.array([0.2, 0.4]))
        assert out["picp"] == 1.0

    def test_full_coverage_winkler_equals_pinaw(self):
        rng = np.random.default_rng(13)
        lower = rng.normal(size=50)
        upper = lower + rng.uniform(0.5, 2.0, size=50)
        y = (lower + upper) / 2.0
        out = interval_metrics(IntervalForecast(0.9, lower, upper), y)
        assert out["winkler"] == out["pinaw"]

    def test_winkler_at_least_pinaw(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            lower = rng.normal(size=20)
            upper = lower + rng.uniform(0.0, 2.0, size=20)
            y = rng.normal(size=20)
            out = interval_metrics(IntervalForecast(0.8, lower, upper), y)
            assert out["winkler"] >= out["pinaw"]
            assert 0.0 <= out["picp"] <= 1.0

    def test_crossed_interval_rejected(self):
        iv = IntervalForecast(pinc=0.8, lower=np.array([0.4]), upper=np.array([0.2]))
        with pytest.raises(IntegrityError):
            interval_metrics(iv, np.array([0.3]))

    def test_pinc_validation(self):
        with pytest.raises(SchemaError):
            IntervalForecast(pinc=1.0, lower=np.zeros(1), upper=np.ones(1))


class TestProbabilisticReport:
    def test_per_pinc_keys(self):
        rng = np.random.default_rng(17)
        base = np.sort(rng.normal(size=(30, 21)), axis=1)
        fc = QuantileForecast(levels=DEFAULT_QUANTILE_LEVELS, values=base)
        doc = probabilistic_report(fc, rng.normal(size=30))
        assert set(doc["per_pinc"]) == {"80", "90", "95"}
        for block in doc["per_pinc"].values():
            assert set(block) == {"picp", "ace", "pinaw", "winkler"}
        assert doc["crps"] == 2.0 * doc["qs"]
