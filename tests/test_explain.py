"""Tests for permutation importance, the local linear surrogate and the
SVG bar chart renderer."""

import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

import windcast.explain
from windcast.data import make_lag_windows
from windcast.errors import (
    DegeneratePerturbationError,
    InsufficientDataError,
    RankDeficiencyError,
    SchemaError,
    ShapeError,
)
from windcast.explain import (
    LimeConfig,
    fit_lime,
    generate_perturbations,
    permutation_importance,
    render_bar_chart,
)

from oracles import (
    exhaustive_permutation_errors, mse, weighted_linear_fit, whole_permutation_errors,
)


def linear_predict(x):
    return 3.0 * x[:, 0] + 0.0 * x[:, 1] + 1.0 * x[:, 2]


def standardized_columns(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x -= x.mean(axis=0)
    x /= x.std(axis=0)
    return x


class TestPermutationImportance:
    def test_ignored_feature_importance_is_exactly_zero(self):
        x = standardized_columns(500, 3, seed=1)
        y = linear_predict(x) + np.random.default_rng(2).normal(0, 0.1, 500)
        report = permutation_importance(linear_predict, x, y, repeats=5, seed=0)
        assert report.fi[1] == 0.0
        assert report.fi_std[1] == 0.0

    def test_importance_ordering(self):
        x = standardized_columns(500, 3, seed=3)
        y = linear_predict(x)
        report = permutation_importance(linear_predict, x, y, repeats=5, seed=0)
        assert report.fi[0] > report.fi[2] > 0.0

    def test_matches_exhaustive_oracle(self):
        n, repeats = 6, 200
        x = standardized_columns(n, 2, seed=5)
        predict = lambda rows: 3.0 * rows[:, 0] + 0.5 * rows[:, 1]
        y = predict(x)
        report = permutation_importance(predict, x, y, repeats=repeats, seed=11)
        for feature in range(2):
            exact = exhaustive_permutation_errors(predict, x, y, feature)
            se = exact.std(ddof=1) / np.sqrt(repeats)
            assert abs(report.e_per_mean[feature] - exact.mean()) <= 2.0 * se

    def test_deterministic_under_seed(self):
        x = standardized_columns(40, 3, seed=7)
        y = linear_predict(x)
        a = permutation_importance(linear_predict, x, y, repeats=3, seed=9)
        b = permutation_importance(linear_predict, x, y, repeats=3, seed=9)
        np.testing.assert_array_equal(a.fi, b.fi)
        np.testing.assert_array_equal(a.fi_std, b.fi_std)

    def test_seed_changes_draws(self):
        x = standardized_columns(40, 3, seed=7)
        y = linear_predict(x) + np.random.default_rng(0).normal(0, 0.2, 40)
        a = permutation_importance(linear_predict, x, y, repeats=3, seed=1)
        b = permutation_importance(linear_predict, x, y, repeats=3, seed=2)
        assert np.any(a.e_per_mean != b.e_per_mean)

    def test_e_ori_is_plain_mse(self):
        x = standardized_columns(30, 3, seed=13)
        y = linear_predict(x) + 0.5
        report = permutation_importance(linear_predict, x, y, repeats=2, seed=0)
        np.testing.assert_allclose(report.e_ori, mse(y, linear_predict(x)), rtol=1e-15)

    def test_single_repeat_has_zero_std(self):
        x = standardized_columns(20, 2, seed=15)
        y = x[:, 0].copy()
        report = permutation_importance(lambda r: r[:, 0], x, y, repeats=1, seed=0)
        np.testing.assert_array_equal(report.fi_std, 0.0)

    def test_fi_share_sums_to_one(self):
        x = standardized_columns(200, 3, seed=17)
        y = linear_predict(x)
        report = permutation_importance(linear_predict, x, y, repeats=4, seed=0)
        share = report.fi_share()
        np.testing.assert_allclose(share.sum(), 1.0, rtol=1e-12)

    def test_fi_share_none_for_constant_predictor(self):
        x = standardized_columns(50, 2, seed=19)
        y = np.zeros(50)
        report = permutation_importance(lambda r: np.zeros(len(r)), x, y, repeats=2, seed=0)
        assert report.fi_share() is None

    def test_report_dict_keys(self):
        x = standardized_columns(30, 2, seed=21)
        y = x[:, 0].copy()
        doc = permutation_importance(
            lambda r: r[:, 0], x, y, repeats=2, seed=0, feature_names=("ws", "wd")
        ).to_dict()
        assert doc["kind"] == "pfi"
        assert doc["feature_names"] == ["ws", "wd"]
        assert len(doc["values"]) == 2

    @pytest.mark.parametrize("n", [2, 16, 17, 53])
    def test_row_blocks_give_the_errors_of_whole_calls(self, monkeypatch, n):
        monkeypatch.setattr(windcast.explain, "PFI_BLOCK_ROWS", 16)
        x = standardized_columns(n, 3, seed=25)
        y = linear_predict(x) + np.random.default_rng(26).normal(0, 0.3, n)
        sizes = []

        def predict(rows):
            sizes.append(len(rows))
            return linear_predict(rows)

        report = permutation_importance(predict, x, y, repeats=3, seed=4)
        errors = whole_permutation_errors(linear_predict, x, y, repeats=3, seed=4)
        assert report.e_per_mean.tobytes() == errors.mean(axis=1).tobytes()
        assert report.fi_std.tobytes() == errors.std(axis=1, ddof=1).tobytes()
        assert sizes[0] == n and max(sizes[1:]) == min(n, 16)
        assert len(sizes) == 1 + 3 * 3 * -(-n // 16)

    def test_permuted_rows_take_a_block_not_a_copy_of_x(self):
        # a copy of 80,000 x 48 lag windows would take 30.7 MB
        x = make_lag_windows(np.random.default_rng(27).random(80_047), 48).x
        y = x[:, -1] + x[:, 0]
        tracemalloc.start()
        try:
            permutation_importance(lambda rows: rows[:, -1] + rows[:, 0], x, y, repeats=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * windcast.explain.PFI_BLOCK_ROWS * 48 * 8, peak

    def test_input_validation(self):
        x = standardized_columns(10, 2, seed=23)
        with pytest.raises(InsufficientDataError):
            permutation_importance(lambda r: r[:, 0], x[:1], np.zeros(1))
        with pytest.raises(SchemaError):
            permutation_importance(lambda r: r[:, 0], x, np.zeros(10), repeats=0)
        with pytest.raises(ShapeError):
            permutation_importance(lambda r: r[:, 0], x, np.zeros(10), feature_names=("a",))


class TestPerturbations:
    def test_row_zero_is_instance(self):
        instance = np.array([1.0, -2.0, 0.5])
        stats = np.array([1.0, 2.0, 0.5])
        rows = generate_perturbations(instance, stats, LimeConfig(n_samples=100, seed=1))
        np.testing.assert_array_equal(rows[0], instance)

    def test_spread_tracks_scale_and_stats(self):
        instance = np.array([0.0, 10.0])
        stats = np.array([2.0, 0.5])
        cfg = LimeConfig(n_samples=20000, perturb_scale=0.1, seed=2)
        rows = generate_perturbations(instance, stats, cfg)
        sd = rows.std(axis=0)
        np.testing.assert_allclose(sd, [0.2, 0.05], rtol=0.05)
        np.testing.assert_allclose(rows.mean(axis=0), instance, atol=0.01)

    def test_zero_spread_feature_stays_fixed(self):
        instance = np.array([1.0, 5.0])
        stats = np.array([1.0, 0.0])
        rows = generate_perturbations(instance, stats, LimeConfig(n_samples=50, seed=3))
        np.testing.assert_array_equal(rows[:, 1], 5.0)

    def test_all_zero_stats_rejected(self):
        with pytest.raises(DegeneratePerturbationError):
            generate_perturbations(np.ones(2), np.zeros(2), LimeConfig(n_samples=50))

    def test_sample_floor(self):
        with pytest.raises(SchemaError):
            generate_perturbations(np.ones(4), np.ones(4), LimeConfig(n_samples=5))

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            LimeConfig(perturb_scale=0.0)
        with pytest.raises(SchemaError):
            LimeConfig(ridge_lambda=-1.0)
        with pytest.raises(SchemaError):
            LimeConfig(kernel_width=0.0)

    @pytest.mark.parametrize("key", ["perturb_scale", "ridge_lambda", "kernel_width"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_setting_rejected(self, key, value):
        with pytest.raises(SchemaError, match=f"{key} must be finite"):
            LimeConfig(**{key: value})


class TestLime:
    def test_recovers_linear_model_uniform_kernel(self):
        coef = np.array([2.0, -1.5, 0.25])
        predict = lambda rows: rows @ coef + 0.75
        instance = np.array([1.0, 2.0, -0.5])
        stats = np.ones(3)
        cfg = LimeConfig(n_samples=400, ridge_lambda=0.0, seed=5)
        exp = fit_lime(predict, instance, stats, cfg)
        np.testing.assert_allclose(exp.coefficients, coef, atol=1e-6)
        np.testing.assert_allclose(exp.intercept, 0.75, atol=1e-6)
        np.testing.assert_allclose(exp.local_prediction, exp.model_prediction, atol=1e-6)

    def test_recovers_linear_model_gaussian_kernel(self):
        coef = np.array([1.0, 4.0])
        predict = lambda rows: rows @ coef - 2.0
        instance = np.array([0.3, -0.8])
        cfg = LimeConfig(n_samples=400, ridge_lambda=0.0, kernel_width=0.5, seed=6)
        exp = fit_lime(predict, instance, np.ones(2), cfg)
        np.testing.assert_allclose(exp.coefficients, coef, atol=1e-6)
        np.testing.assert_allclose(exp.local_prediction, exp.model_prediction, atol=1e-6)

    def test_bookkeeping_identity_exact(self):
        predict = lambda rows: np.sin(rows[:, 0]) + rows[:, 1] ** 2
        instance = np.array([0.4, 1.1])
        cfg = LimeConfig(n_samples=300, seed=7)
        exp = fit_lime(predict, instance, np.ones(2), cfg)
        assert exp.local_prediction == exp.intercept + float(np.sum(exp.contributions))
        np.testing.assert_array_equal(exp.contributions, exp.coefficients * instance)

    def test_matches_weighted_least_squares_oracle(self):
        predict = lambda rows: np.tanh(rows[:, 0]) - 0.5 * rows[:, 1] * rows[:, 0]
        instance = np.array([0.2, -1.0])
        cfg = LimeConfig(n_samples=250, ridge_lambda=0.0, kernel_width=0.8, seed=8)
        exp = fit_lime(predict, instance, np.ones(2), cfg)

        rows = generate_perturbations(instance, np.ones(2), cfg)
        targets = predict(rows)
        weights = np.exp(-np.sum((rows - instance) ** 2, axis=1) / cfg.kernel_width**2)
        beta = weighted_linear_fit(rows, targets, weights)
        np.testing.assert_allclose(exp.intercept, beta[0], rtol=1e-8)
        np.testing.assert_allclose(exp.coefficients, beta[1:], rtol=1e-8)

    def test_constant_predictor(self):
        predict = lambda rows: np.full(len(rows), 4.25)
        cfg = LimeConfig(n_samples=300, seed=9)
        exp = fit_lime(predict, np.array([1.0, 2.0]), np.ones(2), cfg)
        np.testing.assert_allclose(exp.coefficients, 0.0, atol=1e-8)
        np.testing.assert_allclose(exp.intercept, 4.25, rtol=1e-10)

    def test_collinear_design_without_ridge_raises(self):
        predict = lambda rows: rows[:, 0] * 2.0
        instance = np.array([1.0, 3.0])
        stats = np.array([1.0, 0.0])  # second column never varies
        cfg = LimeConfig(n_samples=50, ridge_lambda=0.0, seed=10)
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_lime(predict, instance, stats, cfg)
        assert "ridge_lambda" in str(excinfo.value)
        assert excinfo.value.exit_code == 4

    def test_ridge_rescues_collinear_design(self):
        predict = lambda rows: rows[:, 0] * 2.0
        instance = np.array([1.0, 3.0])
        stats = np.array([1.0, 0.0])
        cfg = LimeConfig(n_samples=50, ridge_lambda=1e-6, seed=10)
        exp = fit_lime(predict, instance, stats, cfg)
        np.testing.assert_allclose(exp.coefficients[0], 2.0, rtol=1e-4)

    def test_deterministic_under_seed(self):
        predict = lambda rows: rows[:, 0] ** 2
        cfg = LimeConfig(n_samples=200, seed=12)
        a = fit_lime(predict, np.array([0.5]), np.ones(1), cfg)
        b = fit_lime(predict, np.array([0.5]), np.ones(1), cfg)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept

    def test_dict_keys(self):
        predict = lambda rows: rows[:, 0]
        cfg = LimeConfig(n_samples=100, seed=13)
        doc = fit_lime(predict, np.array([1.0]), np.ones(1), cfg, feature_names=("ws",)).to_dict()
        assert doc["kind"] == "lime"
        assert doc["feature_names"] == ["ws"]
        assert set(doc) >= {"values", "coefficients", "intercept", "local_prediction"}


class TestBarChart:
    def test_byte_deterministic(self):
        svg1 = render_bar_chart(["a", "b"], [0.5, -0.25], "importance")
        svg2 = render_bar_chart(["a", "b"], [0.5, -0.25], "importance")
        assert svg1 == svg2

    def test_one_rect_per_value(self):
        svg = render_bar_chart(["a", "b", "c"], [1.0, 2.0, 3.0], "t")
        assert svg.count("<rect") == 3
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_negative_bars_left_of_axis(self):
        svg = render_bar_chart(["neg"], [-1.0, ][:1], "t")
        # with a negative value present the zero axis sits mid-plot
        assert 'x1="360.00"' in svg
        rect_x = float(svg.split('<rect x="')[1].split('"')[0])
        assert rect_x < 360.0

    def test_name_value_mismatch(self):
        with pytest.raises(ShapeError):
            render_bar_chart(["a"], [1.0, 2.0], "t")

    def test_markup_in_names_and_title_is_escaped(self):
        names = ["WS<10", "a&b", "c>d", "WS10"]
        svg = render_bar_chart(names, [1.0, -2.0, 3.0, 4.0], "PFI <a&b>")
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "PFI <a&b>"
        assert texts[1::2] == names
        # a plain name keeps its bytes
        assert 'text-anchor="end">WS10</text>' in svg
