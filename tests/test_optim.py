"""Tests for the optimizers, the three training strategies and the
training loop."""

import contextlib
import dataclasses
import math
import mmap
import os
import re
import select
import signal
import time

import numpy as np
import pytest

import windcast._util
import windcast.optim
from windcast.data import SupervisedSet, make_lag_windows
from windcast.errors import (
    DivergenceError,
    ScheduleOverflowError,
    SchemaError,
    ShapeError,
    ToolkitError,
)
from windcast.network import (
    Architecture, Loss, Network, Params, Workspace, backward, forward, infer, init_network,
)
from windcast.optim import (
    OPTIMIZER_KINDS,
    STACK_BYTES,
    Optimizer,
    OptimizerConfig,
    StrategyConfig,
    TrainingTrace,
    centralize_gradient,
    cosine_lr,
    stack_size,
    train,
    train_seeds,
)

from conftest import assert_no_child_left, fork_fails_after, open_descriptors
from oracles import adam_trajectory, per_parameter_noisy_adam, plain_steps


class TestCentralize:
    def test_documented_example(self):
        g = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(centralize_gradient(g), [[-1.0, 0.0, 1.0]])

    def test_bias_vector_untouched(self):
        g = np.array([1.0, 2.0, 3.0])
        out = centralize_gradient(g)
        np.testing.assert_array_equal(out, g)

    def test_row_means_within_four_ulps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = rng.normal(0.0, rng.uniform(1e-6, 1e6), size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            c = centralize_gradient(g)
            magnitude = np.abs(c).max(axis=1)
            means = np.abs(c.mean(axis=1))
            assert np.all(means <= 4.0 * np.spacing(magnitude) + np.spacing(0.0))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            g = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            once = centralize_gradient(g)
            twice = centralize_gradient(once)
            np.testing.assert_array_equal(once, twice)

    def test_frobenius_norm_non_increasing(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g = rng.normal(size=(5, 8)) + rng.uniform(-3, 3)
            c = centralize_gradient(g)
            assert np.linalg.norm(c) <= np.linalg.norm(g) * (1.0 + 1e-15)

    def test_zero_matrix_unchanged(self):
        g = np.zeros((3, 4))
        np.testing.assert_array_equal(centralize_gradient(g), g)


class TestCosineSchedule:
    def test_endpoints(self):
        alpha0 = 0.37
        assert cosine_lr(0, alpha0, 100) == alpha0
        assert cosine_lr(100, alpha0, 100) == 0.0
        np.testing.assert_allclose(cosine_lr(50, alpha0, 100), alpha0 / 2.0, rtol=1e-15)

    def test_monotone_non_increasing(self):
        alpha0 = 1.0
        values = [cosine_lr(t, alpha0, 1000) for t in range(1001)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_overflow_raises(self):
        with pytest.raises(ScheduleOverflowError):
            cosine_lr(101, 0.1, 100)

    def test_negative_epoch_rejected(self):
        with pytest.raises(SchemaError):
            cosine_lr(-1, 0.1, 100)

    def test_optimizer_learning_rate_uses_schedule(self):
        params = [np.zeros(3)]
        strategies = StrategyConfig(cosine_lr=True, initial_lr=0.5, total_epochs=20)
        opt = Optimizer(OptimizerConfig(), strategies, params)
        for epoch in (1, 7, 20):
            assert opt.learning_rate(epoch) == cosine_lr(epoch, 0.5, 20)

    def test_fixed_rate_when_disabled(self):
        params = [np.zeros(3)]
        opt = Optimizer(OptimizerConfig(fixed_lr=0.01), StrategyConfig(), params)
        assert opt.learning_rate(1) == 0.01
        assert opt.learning_rate(999) == 0.01


class TestOptimizerSteps:
    def test_first_step_magnitude_adam(self):
        # With zero moments, one adam step moves by lr * g / sqrt(g^2 + eps).
        g = np.array([0.3, -2.0, 0.0001])
        p = np.zeros(3)
        lr, eps = 0.05, 1e-8
        opt = Optimizer(OptimizerConfig(fixed_lr=lr, epsilon=eps), StrategyConfig(), [p])
        opt.step([p], [g.copy()])
        expected = -lr * g / np.sqrt(g * g + eps)
        np.testing.assert_allclose(p, expected, rtol=1e-15)

    def test_constant_gradient_bias_correction(self):
        # For constant g the corrected first moment equals g itself.
        g = np.array([0.7, -1.3])
        p = np.zeros(2)
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), [p])
        for _ in range(25):
            opt.step([p], [g.copy()])
        m_hat = opt.m[0] / (1.0 - opt.config.beta1 ** opt.t)
        v_hat = opt.v[0] / (1.0 - opt.config.beta2 ** opt.t)
        np.testing.assert_allclose(m_hat, g, rtol=1e-12)
        np.testing.assert_allclose(v_hat, g * g, rtol=1e-12)

    def test_reduction_bitwise_all_kinds(self):
        # Strategies off: the step must equal the plain update bit for bit.
        rng = np.random.default_rng(23)
        for kind in OPTIMIZER_KINDS:
            for _ in range(25):
                theta0 = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 12)))
                grads = [rng.normal(size=theta0.shape) for _ in range(5)]
                lr = float(rng.uniform(0.001, 0.2))
                p = theta0.copy()
                opt = Optimizer(
                    OptimizerConfig(kind=kind, fixed_lr=lr), StrategyConfig(), [p]
                )
                for g in grads:
                    opt.step([p], [g.copy()])
                expected = plain_steps(kind, theta0, grads, lr)[-1]
                assert np.array_equal(p, expected)

    def test_adam_oracle_trajectory(self):
        rng = np.random.default_rng(29)
        theta = rng.uniform(-1.0, 1.0, size=10)
        lr = 0.01
        reference = adam_trajectory(theta.copy(), steps=100, lr=lr)
        p = theta.copy()
        opt = Optimizer(OptimizerConfig(fixed_lr=lr), StrategyConfig(), [p])
        for step in range(100):
            opt.step([p], [p.copy()])
            np.testing.assert_allclose(p, reference[step], rtol=0, atol=1e-12)

    def test_multiple_parameter_arrays(self):
        # several arrays reach the optimizer as views of one flat array
        rng = np.random.default_rng(31)
        params = Params(rng.normal(size=15), [(3, 4), (3,)])
        w, b = params
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), params)
        opt.step(params, Params(np.ones(15), [(3, 4), (3,)]))
        assert w.shape == (3, 4) and b.shape == (3,)
        assert opt.t == 1

    def test_gradient_shape_mismatch(self):
        p = np.zeros(3)
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), [p])
        with pytest.raises(ShapeError):
            opt.step([p], [np.zeros(4)])

    def test_parameter_count_mismatch(self):
        p = np.zeros(3)
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), [p])
        with pytest.raises(ShapeError):
            opt.step([p, p], [np.zeros(3), np.zeros(3)])

    def test_non_finite_gradient_diverges(self):
        p = np.zeros(3)
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), [p])
        with pytest.raises(DivergenceError) as excinfo:
            opt.step([p], [np.array([1.0, np.nan, 0.0])])
        assert excinfo.value.exit_code == 4
        assert str(excinfo.value) == "non-finite gradient in W0"

    def test_non_finite_bias_gradient_names_the_bias(self):
        params = Params(np.zeros(15), [(3, 4), (3,)])
        grads = Params(np.ones(15), [(3, 4), (3,)])
        grads[1][2] = np.inf
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), params)
        with pytest.raises(DivergenceError, match="^non-finite gradient in b0$"):
            opt.step(params, grads)

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            OptimizerConfig(kind="sgd")
        with pytest.raises(SchemaError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(SchemaError):
            OptimizerConfig(epsilon=0.0)
        with pytest.raises(SchemaError):
            StrategyConfig(noise_tau=-0.1)
        with pytest.raises(SchemaError):
            StrategyConfig(total_epochs=0)


class TestNoiseInjection:
    def test_stream_contract_bitwise(self):
        # Replicating the update and the dedicated noise stream reproduces
        # the noisy trajectory exactly.
        tau, lr, eps, b1, b2 = 1e-3, 0.05, 1e-8, 0.9, 0.999
        seed = 424
        rng = np.random.default_rng(37)
        theta0 = rng.uniform(-1.0, 1.0, size=6)
        grads = [rng.normal(size=6) for _ in range(5)]

        p = theta0.copy()
        opt = Optimizer(
            OptimizerConfig(fixed_lr=lr),
            StrategyConfig(noise_tau=tau, noise_seed=seed),
            [p],
        )
        for g in grads:
            opt.step([p], [g.copy()])

        noise_rng = np.random.default_rng([seed, 1])
        q = theta0.copy()
        m = np.zeros_like(q)
        v = np.zeros_like(q)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            q -= lr * m_hat / np.sqrt(v_hat + eps)
            q += noise_rng.uniform(-tau, tau, size=q.shape)
        assert np.array_equal(p, q)

    def test_same_seed_reproduces(self):
        def run():
            p = np.ones(4)
            opt = Optimizer(
                OptimizerConfig(),
                StrategyConfig(noise_tau=1e-4, noise_seed=7),
                [p],
            )
            for _ in range(10):
                opt.step([p], [p.copy()])
            return p

        np.testing.assert_array_equal(run(), run())

    def test_zero_tau_matches_plain_bitwise(self):
        rng = np.random.default_rng(41)
        theta0 = rng.uniform(-1.0, 1.0, size=5)
        grads = [rng.normal(size=5) for _ in range(4)]
        p = theta0.copy()
        opt = Optimizer(
            OptimizerConfig(fixed_lr=0.02),
            StrategyConfig(noise_tau=0.0, noise_seed=99),
            [p],
        )
        for g in grads:
            opt.step([p], [g.copy()])
        assert np.array_equal(p, plain_steps("adam", theta0, grads, 0.02)[-1])

    def test_noise_is_bounded(self):
        tau = 1e-3
        grads = [np.full(8, 0.5) for _ in range(6)]
        theta0 = np.zeros(8)
        p = theta0.copy()
        opt = Optimizer(
            OptimizerConfig(fixed_lr=0.01),
            StrategyConfig(noise_tau=tau, noise_seed=3),
            [p],
        )
        plain = plain_steps("adam", theta0, grads, 0.01)
        for step, g in enumerate(grads):
            opt.step([p], [g.copy()])
            # noise accumulates; per step it adds at most tau in magnitude
            assert np.max(np.abs(p - plain[step])) <= (step + 1) * tau


class TestFlatStep:
    SHAPES = [(5, 3), (5,), (2, 5), (2,)]  # W0, b0, W1, b1 of a 3 -> 5 -> 2 network

    def test_one_noise_draw_per_slice_equals_per_parameter_draws(self):
        rng = np.random.default_rng(43)
        seeds = [4, 9, 11]
        theta0 = rng.uniform(-1.0, 1.0, size=(len(seeds), 32))
        grad_steps = [rng.normal(size=(len(seeds), 32)) for _ in range(6)]
        params = Params(theta0.copy(), self.SHAPES)
        opt = Optimizer(OptimizerConfig(fixed_lr=0.05),
                        StrategyConfig(noise_tau=1e-3, noise_seed=99), params, noise_seeds=seeds)
        for g in grad_steps:
            opt.step(params, Params(g.copy(), self.SHAPES))
        expected = per_parameter_noisy_adam(
            Params(theta0.copy(), self.SHAPES),
            [Params(g, self.SHAPES) for g in grad_steps], 0.05, 1e-3, seeds,
        )
        for p, q in zip(params, expected):
            assert p.tobytes() == q.tobytes()

    def test_state_views_one_flat_array_per_moment(self):
        params = Params(np.zeros((3, 32)), self.SHAPES)
        opt = Optimizer(OptimizerConfig(), StrategyConfig(), params, noise_seeds=[0, 1, 2])
        opt.step(params, Params(np.ones((3, 32)), self.SHAPES))
        for state in (opt.m, opt.v):
            assert [a.shape for a in state] == [(3, *shape) for shape in self.SHAPES]
            assert all(np.shares_memory(a, state.flat) for a in state)
        assert opt.m.flat.shape == opt.v.flat.shape == (3, 32)

    def test_lists_of_several_separate_arrays_are_rejected(self):
        w, b = np.zeros((2, 3)), np.zeros(2)
        with pytest.raises(ShapeError, match="Params"):
            Optimizer(OptimizerConfig(), StrategyConfig(), [w, b])


class TestCentralizedStep:
    def test_weight_gradient_centralized_before_moments(self):
        w = np.zeros((2, 3))
        g = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        opt = Optimizer(
            OptimizerConfig(fixed_lr=0.1), StrategyConfig(centralize=True), [w]
        )
        opt.step([w], [g.copy()])
        np.testing.assert_array_equal(
            opt.m[0], (1.0 - opt.config.beta1) * centralize_gradient(g)
        )
        # second row is constant, centralizes to zero, so it never moves
        np.testing.assert_array_equal(w[1], 0.0)
        assert w[0, 0] != 0.0 and w[0, 2] != 0.0
        assert w[0, 1] == 0.0  # centered middle entry has exactly zero gradient


class TestTrainingTrace:
    def test_csv_round_trip_exact(self):
        rows = [
            (1, 0.1, 0.123456789123456789, 0.5),
            (2, 0.05, 3.14e-12, None),
        ]
        lines = TrainingTrace(rows).to_csv().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss" and len(lines) == 3
        for row, line in zip(rows, lines[1:]):
            assert [float(cell) if cell else None for cell in line.split(",")] == list(row)


def _linear_problem(seed=105):
    """A tiny exactly-linear regression task the net can drive to zero."""
    arch = Architecture(layer_sizes=(4, 1))
    net = init_network(arch, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-0.25, 0.25, size=(64, 4))
    w_true = net.weights[0] + rng.uniform(-0.05, 0.05, size=net.weights[0].shape)
    y = (x @ w_true.T).ravel()
    return net, SupervisedSet(x, y, ("a", "b", "c", "d"))


class TestTrainLoop:
    def test_zero_epochs_noop(self):
        net, data = _linear_problem()
        before = [p.copy() for p in net.parameters()]
        _, trace = train(
            net, data, None, OptimizerConfig(), StrategyConfig(), Loss(), epochs=0
        )
        assert len(trace) == 0
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_trace_rows_match_epochs(self):
        net, data = _linear_problem()
        _, trace = train(
            net, data, None, OptimizerConfig(fixed_lr=0.01), StrategyConfig(),
            Loss(), epochs=7,
        )
        assert [row[0] for row in trace.rows] == list(range(1, 8))
        assert all(row[1] == 0.01 for row in trace.rows)
        assert all(row[3] is None for row in trace.rows)

    def test_loss_decreases_monotonically_until_converged(self):
        net, data = _linear_problem()
        _, trace = train(
            net, data, None, OptimizerConfig(fixed_lr=0.001), StrategyConfig(),
            Loss(), epochs=500,
        )
        losses = [row[2] for row in trace.rows]
        first_small = next(i for i, v in enumerate(losses) if v < 1e-6)
        assert first_small < 500
        for a, b in zip(losses[:first_small], losses[1 : first_small + 1]):
            assert b < a

    def test_equal_seeds_identical_traces(self):
        def run():
            net, data = _linear_problem(seed=33)
            _, trace = train(
                net, data, None, OptimizerConfig(), StrategyConfig(noise_tau=1e-4, noise_seed=5),
                Loss(), epochs=20,
            )
            return trace.to_csv()

        assert run() == run()

    def test_validation_loss_recorded(self):
        net, data = _linear_problem()
        val = SupervisedSet(data.x[:10], data.y[:10], data.feature_names)
        _, trace = train(
            net, data, val, OptimizerConfig(), StrategyConfig(), Loss(), epochs=3
        )
        assert all(isinstance(row[3], float) for row in trace.rows)

    def test_early_stop_restores_best_parameters(self):
        net, data = _linear_problem(seed=51)
        val = SupervisedSet(data.x[:16], data.y[:16], data.feature_names)
        loss = Loss()
        net, trace = train(
            net, data, val, OptimizerConfig(fixed_lr=0.3), StrategyConfig(),
            loss, epochs=200, early_stop_patience=3,
        )
        best_val = min(row[3] for row in trace.rows)
        final_val = loss.value(forward(net, val.x), val.y)
        np.testing.assert_allclose(final_val, best_val, rtol=1e-12)

    def test_early_stop_needs_validation(self):
        net, data = _linear_problem()
        with pytest.raises(SchemaError):
            train(
                net, data, None, OptimizerConfig(), StrategyConfig(), Loss(),
                epochs=5, early_stop_patience=2,
            )

    def test_cosine_requires_room_in_schedule(self):
        net, data = _linear_problem()
        strategies = StrategyConfig(cosine_lr=True, initial_lr=0.1, total_epochs=5)
        with pytest.raises(ScheduleOverflowError):
            train(
                net, data, None, OptimizerConfig(), strategies, Loss(), epochs=6
            )

    def test_cosine_rates_recorded_in_trace(self):
        net, data = _linear_problem()
        strategies = StrategyConfig(cosine_lr=True, initial_lr=0.2, total_epochs=10)
        _, trace = train(
            net, data, None, OptimizerConfig(), strategies, Loss(), epochs=10
        )
        expected = [cosine_lr(t, 0.2, 10) for t in range(1, 11)]
        np.testing.assert_array_equal([row[1] for row in trace.rows], expected)

    def test_divergence_reports_epoch(self):
        net, data = _linear_problem()
        with pytest.raises(DivergenceError) as excinfo:
            train(
                net, data, None, OptimizerConfig(fixed_lr=1e160), StrategyConfig(),
                Loss(), epochs=50,
            )
        assert "epoch" in str(excinfo.value)
        assert excinfo.value.exit_code == 4

    def test_batched_training_runs(self):
        net, data = _linear_problem()
        _, trace = train(
            net, data, None, OptimizerConfig(), StrategyConfig(), Loss(),
            epochs=4, batch_size=16,
        )
        assert len(trace) == 4


def _last_finite(rows):
    """How a DivergenceError names the last finite train_loss of trace rows."""
    if not rows:
        return "no finite train_loss yet"
    epoch, _, train_loss, _ = rows[-1]
    return f"last finite train_loss {train_loss!r} at epoch {epoch}"


def _two_pass_train(net, train_set, val_set, opt_config, strategies, loss, epochs,
                    batch_size=None, early_stop_patience=None):
    """Reference loop that evaluates the training set in a separate forward
    pass after every epoch's updates; returns the trace rows."""
    params = net.parameters()
    optimizer = Optimizer(opt_config, strategies, params)
    n = len(train_set)
    step = batch_size if batch_size else n
    rows, best_val, best_params, waited = [], math.inf, None, 0
    for epoch in range(1, epochs + 1):
        lr = optimizer.learning_rate(epoch)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, n, step):
                    pred, cache = forward(net, train_set.x[lo:lo + step], want_cache=True)
                    _, dpred = loss.value_and_grad(pred, train_set.y[lo:lo + step])
                    optimizer.step(params, backward(net, cache, dpred), epoch)
                train_loss = loss.value(forward(net, train_set.x), train_set.y)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}; {_last_finite(rows)}") from None
        if not math.isfinite(train_loss):
            raise DivergenceError(
                f"epoch {epoch}: training loss is {train_loss}; {_last_finite(rows)}"
            )
        val_loss = None if val_set is None else loss.value(forward(net, val_set.x), val_set.y)
        rows.append((epoch, lr, train_loss, val_loss))
        if early_stop_patience is not None:
            if val_loss < best_val:
                best_val, best_params, waited = val_loss, [p.copy() for p in params], 0
            else:
                waited += 1
                if waited > early_stop_patience:
                    break
    if best_params is not None:
        for p, best in zip(params, best_params):
            p[...] = best
    return rows


def _curved_problem(seed=4):
    """A small nonlinear task split 80 train / 16 validation rows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(96, 4))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2] + rng.normal(0.0, 0.05, 96)
    names = ("a", "b", "c", "d")
    return SupervisedSet(x[:80], y[:80], names), SupervisedSet(x[80:], y[80:], names)


STRATEGIES_ON = StrategyConfig(
    centralize=True, cosine_lr=True, initial_lr=0.05, total_epochs=12,
    noise_tau=1e-3, noise_seed=5,
)
LOSSES = {"mse": Loss(), "pinball": Loss(kind="pinball", levels=(0.1, 0.5, 0.9))}


class TestTrainMatchesTwoPassReference:
    def _compare(self, make_net, loss, opt_config, strategies, epochs, **kwargs):
        train_set, val = _curved_problem()
        net = make_net()
        _, trace = train(net, train_set, val, opt_config, strategies, loss, epochs, **kwargs)
        ref_net = make_net()
        rows = _two_pass_train(ref_net, train_set, val, opt_config, strategies, loss,
                               epochs, **kwargs)
        assert trace.rows == rows
        for p, q in zip(net.parameters(), ref_net.parameters()):
            np.testing.assert_array_equal(p, q)
        return rows

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    @pytest.mark.parametrize("strategies", [STRATEGIES_ON, StrategyConfig()], ids=["on", "off"])
    @pytest.mark.parametrize("batch_size", [None, 79, 80, 1000, 32])  # 80 train rows
    def test_bitwise_equal(self, kind, loss_kind, strategies, batch_size):
        loss = LOSSES[loss_kind]
        arch = Architecture((4, 6, loss.n_outputs))
        rows = self._compare(lambda: init_network(arch, seed=2), loss,
                             OptimizerConfig(kind=kind, fixed_lr=0.01), strategies, 12,
                             batch_size=batch_size)
        assert len(rows) == 12

    def test_early_stopping(self):
        arch = Architecture((4, 6, 1))
        rows = self._compare(lambda: init_network(arch, seed=2), Loss(),
                             OptimizerConfig(fixed_lr=0.3), StrategyConfig(), 100,
                             early_stop_patience=2)
        assert len(rows) < 100

    def test_zero_epochs(self):
        arch = Architecture((4, 6, 1))
        rows = self._compare(lambda: init_network(arch, seed=2), Loss(),
                             OptimizerConfig(), StrategyConfig(), 0)
        assert rows == []

    @pytest.mark.parametrize(
        "make_net, lr, message",
        [
            (lambda: init_network(Architecture((4, 6, 1)), seed=2), 1e160,
             r"epoch 1: training loss is inf; no finite train_loss yet"),
            (lambda: init_network(Architecture((4, 6, 1), hidden_activation="tanh"), seed=2),
             1e153, r"epoch 2: training loss is inf; last finite train_loss \S+ at epoch 1"),
            (lambda: Network(Architecture((4, 6, 1)), [np.full((6, 4), 1e200), np.full((1, 6), 1e-60)],
                             [np.zeros(6), np.zeros(1)]),
             0.001, r"epoch 1: non-finite gradient in W1; no finite train_loss yet"),
        ],
    )
    def test_divergence_message(self, make_net, lr, message):
        train_set, val = _curved_problem()
        config = OptimizerConfig(fixed_lr=lr)
        with pytest.raises(DivergenceError) as ours:
            train(make_net(), train_set, val, config, StrategyConfig(), Loss(), 30)
        with pytest.raises(DivergenceError) as ref:
            _two_pass_train(make_net(), train_set, val, config, StrategyConfig(), Loss(), 30)
        assert str(ours.value) == str(ref.value)
        assert re.fullmatch(message, str(ours.value))


class TestFullBatchForwardCount:
    @pytest.mark.parametrize("batch_size", [None, 80])
    def test_one_training_forward_per_epoch_plus_one(self, monkeypatch, batch_size):
        calls = []

        def counting_forward(net, x, **kwargs):
            calls.append(x)
            return forward(net, x, **kwargs)

        monkeypatch.setattr(windcast.optim, "forward", counting_forward)
        train_set, val = _curved_problem()
        for epochs in (0, 1, 9):
            calls.clear()
            train(init_network(Architecture((4, 6, 1)), seed=2), train_set, val,
                  OptimizerConfig(), StrategyConfig(), Loss(), epochs, batch_size=batch_size)
            assert sum(x is train_set.x for x in calls) == (epochs + 1 if epochs else 0)
            assert sum(x is val.x for x in calls) == epochs
            assert len(calls) == (2 * epochs + 1 if epochs else 0)


def _solo_and_stacked(make_net, seeds, train_set, val, opt_config, strategies, loss,
                      epochs, **kwargs):
    """Train each seed's network alone with train() and all of them as one
    stack with train_seeds(); returns (solo outcomes, stacked outcomes,
    solo nets, stacked nets). An outcome is trace rows or an error text."""
    noise_seeds = [strategies.noise_seed + s for s in seeds]
    solo_nets, solo = [], []
    for s, noise_seed in zip(seeds, noise_seeds):
        net = make_net(s)
        try:
            _, trace = train(net, train_set, val, opt_config,
                             dataclasses.replace(strategies, noise_seed=noise_seed),
                             loss, epochs, **kwargs)
            solo.append(trace.rows)
        except DivergenceError as exc:
            solo.append(str(exc))
        solo_nets.append(net)
    stacked_nets = [make_net(s) for s in seeds]
    results = train_seeds(stacked_nets, train_set, val, opt_config, strategies, loss,
                          epochs, noise_seeds=noise_seeds, **kwargs)
    stacked = [str(r) if isinstance(r, DivergenceError) else r.rows for r in results]
    return solo, stacked, solo_nets, stacked_nets


def _ending_early(arch):
    """init_network, but seed 3's training loss is inf at once and seed 4,
    every relu dead, soon stops early."""
    def make_net(seed):
        net = init_network(arch, seed=seed)
        if seed == 3:
            net.parameters()[3].flat[0] = 1e200
        if seed == 4:
            net.weights[0][...] = -10.0
        return net

    return make_net


def _assert_same_networks(nets_a, nets_b, skip=()):
    for i, (a, b) in enumerate(zip(nets_a, nets_b)):
        if i in skip:
            continue
        for p, q in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(p, q)


class TestTrainSeedsMatchesSolo:
    SEEDS = (2, 3, 7)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("strategies", [STRATEGIES_ON, StrategyConfig()], ids=["on", "off"])
    @pytest.mark.parametrize("batch_size", [None, 32, 79, 80, 1000])  # 80 train rows
    def test_bitwise_equal(self, kind, loss_kind, activation, strategies, batch_size):
        loss = LOSSES[loss_kind]
        arch = Architecture((4, 6, loss.n_outputs), hidden_activation=activation)
        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            lambda s: init_network(arch, seed=s), self.SEEDS, train_set, val,
            OptimizerConfig(kind=kind, fixed_lr=0.01), strategies, loss, 12,
            batch_size=batch_size,
        )
        assert stacked == solo
        assert all(len(rows) == 12 for rows in stacked)
        _assert_same_networks(solo_nets, stacked_nets)

    def test_early_stopping_per_slice(self):
        arch = Architecture((4, 6, 1))
        train_set, val = _curved_problem()
        seeds = (2, 3, 4, 5, 6, 7)
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            lambda s: init_network(arch, seed=s), seeds, train_set, val,
            OptimizerConfig(fixed_lr=0.3), StrategyConfig(), Loss(), 100,
            early_stop_patience=2,
        )
        assert stacked == solo
        lengths = {len(rows) for rows in solo}
        assert len(lengths) > 1 and max(lengths) < 100  # slices stop at different epochs
        _assert_same_networks(solo_nets, stacked_nets)

    @pytest.mark.parametrize("batch_size", [None, 32])
    @pytest.mark.parametrize("param, value, message", [
        (0, 1e308, "epoch 1: non-finite gradient in W1; no finite train_loss yet"),
        (2, 1e308, "epoch 1: non-finite gradient in W0; no finite train_loss yet"),
        (3, 1e200, "epoch 1: training loss is inf; no finite train_loss yet"),
    ])
    def test_one_slice_diverges(self, batch_size, param, value, message):
        arch = Architecture((4, 6, 1))

        def make_net(seed):
            net = init_network(arch, seed=seed)
            if seed == 3:
                net.parameters()[param].flat[0] = value
            return net

        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            make_net, (2, 3, 4), train_set, val, OptimizerConfig(fixed_lr=0.01),
            STRATEGIES_ON, Loss(), 12, batch_size=batch_size,
        )
        assert stacked == solo
        assert stacked[1] == message
        assert len(stacked[0]) == len(stacked[2]) == 12
        _assert_same_networks(solo_nets, stacked_nets, skip=(1,))
        # a diverged network is handed back as it was
        assert stacked_nets[1].parameters()[param].flat[0] == value

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("batch_size", [None, 32])
    def test_runs_ending_early_with_strategies_on(self, kind, batch_size):
        # ended slices ride along in the stack, one of them non-finite
        strategies = dataclasses.replace(STRATEGIES_ON, total_epochs=30)
        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            _ending_early(Architecture((4, 6, 1))), (2, 3, 4, 5, 6), train_set, val,
            OptimizerConfig(kind=kind), strategies, Loss(), 30, batch_size=batch_size,
            early_stop_patience=2,
        )
        assert stacked == solo
        assert stacked[1] == "epoch 1: training loss is inf; no finite train_loss yet"
        lengths = [len(rows) for i, rows in enumerate(stacked) if i != 1]
        assert min(lengths) < max(lengths)
        _assert_same_networks(solo_nets, stacked_nets, skip=(1,))

    def test_no_networks(self):
        train_set, val = _curved_problem()
        assert train_seeds([], train_set, val, OptimizerConfig(), StrategyConfig(),
                           Loss(), 3) == []

    def test_one_noise_seed_per_network(self):
        train_set, val = _curved_problem()
        nets = [init_network(Architecture((4, 6, 1)), seed=s) for s in (1, 2)]
        with pytest.raises(SchemaError):
            train_seeds(nets, train_set, val, OptimizerConfig(), StrategyConfig(),
                        Loss(), 3, noise_seeds=[1])


class TestWorkspace:
    """train_seeds builds one workspace per call; every slice still ends bit
    for bit where its solo run does."""

    @pytest.fixture
    def workspaces(self, monkeypatch):
        built = []

        def counting(net, n):
            built.append((len(net.flat), n))
            return Workspace(net, n)

        monkeypatch.setattr(windcast.optim, "Workspace", counting)
        return built

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_shorter_last_minibatch(self, workspaces, kind):
        train_set, val = _curved_problem()
        assert len(train_set) % 48 == 32  # one full batch of 48, then 32 rows
        arch = Architecture((4, 6, 1))
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            lambda s: init_network(arch, seed=s), (2, 3, 7), train_set, val,
            OptimizerConfig(kind=kind, fixed_lr=0.01), STRATEGIES_ON, Loss(), 12,
            batch_size=48,
        )
        assert stacked == solo
        _assert_same_networks(solo_nets, stacked_nets)
        # one per solo run, and one for the stack of three
        assert workspaces == [(1, 48)] * 3 + [(3, 48)]

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("batch_size", [None, 32])
    def test_runs_ending_early_keep_one_workspace(self, workspaces, kind, batch_size):
        train_set, val = _curved_problem()
        seeds = (2, 3, 4, 5, 6)
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            _ending_early(Architecture((4, 6, 1))), seeds, train_set, val,
            OptimizerConfig(kind=kind, fixed_lr=0.05), StrategyConfig(), Loss(), 30,
            batch_size=batch_size, early_stop_patience=2,
        )
        assert stacked == solo
        assert stacked[1] == "epoch 1: training loss is inf; no finite train_loss yet"
        lengths = [len(rows) for i, rows in enumerate(stacked) if i != 1]
        assert min(lengths) < max(lengths)  # the others stop at different epochs
        _assert_same_networks(solo_nets, stacked_nets, skip=(1,))
        # the stack keeps its shape, and its workspace, while runs end
        assert workspaces[len(seeds):] == [(len(seeds), batch_size or len(train_set))]


class TestStackSize:
    def test_three_thousand_rows_stack_every_seed(self):
        # benchmark at 3k rows: 2,400 training rows in batches of 256
        size = stack_size(Architecture((4, 16, 1)), 2400, 256)
        assert size >= 10
        assert size * 256 * 17 * 16 <= STACK_BYTES

    @pytest.mark.parametrize("arch", [Architecture((4, 16, 21)), Architecture((48, 16, 1))])
    def test_hundred_thousand_rows_full_batch_one_seed(self, arch):
        assert stack_size(arch, 80_000, None) == 1
        assert stack_size(arch, 80_000, 100_000) == 1

    def test_batch_rows_not_training_rows_set_the_size(self):
        arch = Architecture((4, 16, 1))
        assert stack_size(arch, 80_000, 256) == stack_size(arch, 256)


class TestOptimizerState:
    @pytest.mark.parametrize("kind, allocated", [
        ("adam", "mv"), ("nadam", "mv"), ("rmsprop", "v"), ("adamax", "mu"),
    ])
    def test_only_the_state_a_kind_reads(self, kind, allocated):
        p = np.zeros((2, 3))
        opt = Optimizer(OptimizerConfig(kind=kind), StrategyConfig(), [p])
        for name in "mvu":
            state = getattr(opt, name)
            if name in allocated:
                assert len(state) == 1 and state[0].shape == p.shape
            else:
                assert state is None
        opt.step([p], [np.ones((2, 3))])
        assert np.all(p < 0.0)

    def test_stacked_step_marks_the_diverged_slice(self):
        params = Params(np.zeros((3, 6)), [(2, 2), (2,)])
        w, b = params
        opt = Optimizer(OptimizerConfig(), StrategyConfig(centralize=True), params,
                        noise_seeds=[0, 1, 2])
        grads = Params(np.ones((3, 6)), [(2, 2), (2,)])
        gw, gb = grads
        gb[1, 0] = np.nan
        gw[2, 1, 1] = np.inf
        gb[2, 1] = np.nan
        with np.errstate(invalid="ignore"):
            assert opt.step(params, grads) == {1: 1, 2: 0}
        # the bias at the odd position is not centralized although it is 2-D
        assert np.all(b[0] < 0.0)
        np.testing.assert_array_equal(w[0], 0.0)


def _blocked_reference_train(net, train_set, val_set, opt_config, strategies, loss, epochs,
                             rows, batch_size=None):
    """Reference for training passes over blocks of `rows` rows, on one
    network: each block runs forward, its loss and backward; a batch's loss
    is the in-order sum of the blocks' sums divided by the batch's entry
    count, and its gradient the in-order sum of the blocks' gradients, each
    block's dL/dpred divided by that count. Each epoch's steps run first and
    the full-batch train_loss in a separate blocked pass after them; the
    minibatch train_loss is one unblocked pass. Returns the trace rows."""
    params = net.parameters()
    optimizer = Optimizer(opt_config, strategies, params)
    q = np.asarray(loss.levels)

    def blocked_pass(x, y):
        entries = len(x) * loss.n_outputs
        total = grad = None
        for lo in range(0, len(x), rows):
            pred, cache = forward(net, x[lo:lo + rows], want_cache=True)
            yb = y[lo:lo + rows, None]
            if loss.kind == "mse":
                d = pred - yb
                block_sum, dpred = float(np.sum(d * d)), d * 2.0 / entries
            else:
                d = yb - pred
                w = np.where(d >= 0.0, q, q - 1.0)
                block_sum, dpred = float(np.sum(d * w)), -w / entries
            block_grad = backward(net, cache, dpred).flat
            total = block_sum if total is None else total + block_sum
            grad = block_grad.copy() if grad is None else grad + block_grad
        return total / entries, Params(grad, params.shapes)

    n = len(train_set)
    step = batch_size if batch_size and batch_size < n else n
    trace = []
    for epoch in range(1, epochs + 1):
        lr = optimizer.learning_rate(epoch)
        for lo in range(0, n, step):
            optimizer.step(params, blocked_pass(train_set.x[lo:lo + step],
                                                train_set.y[lo:lo + step])[1], epoch)
        if step == n:
            train_loss = blocked_pass(train_set.x, train_set.y)[0]
        else:
            train_loss = loss.value(forward(net, train_set.x), train_set.y)
        trace.append((epoch, lr, train_loss, loss.value(forward(net, val_set.x), val_set.y)))
    return trace


def _fake_cpus(monkeypatch, count):
    """Tell training that count CPUs are usable; with one, forking fails."""
    monkeypatch.setattr(windcast._util, "usable_cpus", lambda: count)
    if count == 1:
        def no_fork():
            raise AssertionError("a process was forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)


class TestBlockedTraining:
    """Training passes over blocks of TRAIN_ROWS rows, made small here so the
    80 training rows take several blocks: 32, 32 and 16 rows. Each test runs
    with the CPU count this process really has, and with 1 and 2 usable CPUs
    faked: a full-batch pass then runs here alone, or shares its blocks with
    one forked worker, and must give the same bytes either way."""

    @pytest.fixture(autouse=True, params=[None, 1, 2], ids=["cpus", "1cpu", "2cpu"])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(windcast.optim, "TRAIN_ROWS", 32)
        if request.param is not None:
            _fake_cpus(monkeypatch, request.param)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    @pytest.mark.parametrize("batch_size", [None, 48])  # 48 rows: blocks of 32 and 16
    def test_bitwise_equal_to_blocked_reference(self, kind, loss_kind, batch_size):
        loss = LOSSES[loss_kind]
        arch = Architecture((4, 6, loss.n_outputs))
        train_set, val = _curved_problem()
        config = OptimizerConfig(kind=kind, fixed_lr=0.01)
        net = init_network(arch, seed=2)
        _, trace = train(net, train_set, val, config, STRATEGIES_ON, loss, 12,
                         batch_size=batch_size)
        ref_net = init_network(arch, seed=2)
        rows = _blocked_reference_train(ref_net, train_set, val, config, STRATEGIES_ON, loss,
                                        12, 32, batch_size=batch_size)
        assert trace.rows == rows
        assert net.flat.tobytes() == ref_net.flat.tobytes()

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    @pytest.mark.parametrize("batch_size", [None, 48])
    def test_stacked_equals_solo(self, kind, loss_kind, batch_size):
        loss = LOSSES[loss_kind]
        arch = Architecture((4, 6, loss.n_outputs), hidden_activation="tanh")
        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            lambda s: init_network(arch, seed=s), (2, 3, 7), train_set, val,
            OptimizerConfig(kind=kind, fixed_lr=0.01), STRATEGIES_ON, loss, 12,
            batch_size=batch_size,
        )
        assert stacked == solo
        assert all(len(rows) == 12 for rows in stacked)
        _assert_same_networks(solo_nets, stacked_nets)

    @pytest.mark.parametrize("batch_size", [None, 48])
    def test_runs_end_by_divergence_and_early_stopping(self, batch_size):
        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            _ending_early(Architecture((4, 6, 1))), (2, 3, 4, 5, 6), train_set, val,
            OptimizerConfig(fixed_lr=0.05), StrategyConfig(), Loss(), 30,
            batch_size=batch_size, early_stop_patience=2,
        )
        assert stacked == solo
        assert stacked[1] == "epoch 1: training loss is inf; no finite train_loss yet"
        lengths = [len(rows) for i, rows in enumerate(stacked) if i != 1]
        assert min(lengths) < max(lengths)
        _assert_same_networks(solo_nets, stacked_nets, skip=(1,))

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    def test_close_to_one_unblocked_pass(self, kind, loss_kind):
        # blocks move where partial sums are rounded, nothing else
        loss = LOSSES[loss_kind]
        arch = Architecture((4, 6, loss.n_outputs))
        train_set, val = _curved_problem()
        config = OptimizerConfig(kind=kind, fixed_lr=0.01)
        net = init_network(arch, seed=2)
        _, trace = train(net, train_set, val, config, STRATEGIES_ON, loss, 12)
        ref_net = init_network(arch, seed=2)
        rows = _two_pass_train(ref_net, train_set, val, config, STRATEGIES_ON, loss, 12)
        assert trace.rows != rows  # the blocks did change some rounding
        np.testing.assert_allclose(np.array(trace.rows, dtype=float),
                                   np.array(rows, dtype=float), rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(net.flat, ref_net.flat, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("train_rows, batch_size, rows", [
        (32, None, 32), (32, 48, 32), (32, 16, 16), (4096, None, 80), (4096, 48, 48),
    ])
    def test_workspace_holds_one_block(self, monkeypatch, train_rows, batch_size, rows):
        monkeypatch.setattr(windcast.optim, "TRAIN_ROWS", train_rows)
        built = []

        def counting(net, n):
            built.append(n)
            return Workspace(net, n)

        monkeypatch.setattr(windcast.optim, "Workspace", counting)
        train_set, val = _curved_problem()
        train(init_network(Architecture((4, 6, 1)), seed=2), train_set, val,
              OptimizerConfig(), StrategyConfig(), Loss(), 3, batch_size=batch_size)
        assert built == [rows]


@pytest.fixture
def worker_blocks(monkeypatch):
    """Small blocks, and a count of the training blocks run in other
    processes, kept in shared memory. This process pauses on each block it
    runs, so workers get some however the CPUs are scheduled."""
    monkeypatch.setattr(windcast.optim, "TRAIN_ROWS", 32)
    count = np.frombuffer(mmap.mmap(-1, 8), np.int64)
    here = os.getpid()
    real = windcast.optim._train_block

    def counting(*args):
        if os.getpid() == here:
            time.sleep(0.002)
        else:
            count[0] += 1
        return real(*args)

    monkeypatch.setattr(windcast.optim, "_train_block", counting)
    return count


@pytest.fixture
def worker_validations(monkeypatch, worker_blocks):
    """worker_blocks, and a count of the validation claims run in other
    processes, kept in shared memory. This process pauses before it takes
    a pass's first claim, the validation, so workers take some."""
    count = np.frombuffer(mmap.mmap(-1, 8), np.int64)
    here = os.getpid()
    real_validation = windcast.optim._validation
    real_run_blocks = windcast.optim._BlockWorkers._run_blocks

    def counting(*args):
        if os.getpid() != here:
            count[0] += 1
        return real_validation(*args)

    def pausing(self, *args):
        if os.getpid() == here:
            time.sleep(0.005)
        return real_run_blocks(self, *args)

    monkeypatch.setattr(windcast.optim, "_validation", counting)
    monkeypatch.setattr(windcast.optim._BlockWorkers, "_run_blocks", pausing)
    return count


@contextlib.contextmanager
def _within(seconds: int):
    """Raise AssertionError where the with block runs longer than seconds."""
    def late(signum, frame):
        raise AssertionError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBlockWorkers:
    """Full-batch passes of several blocks shared with forked workers: the
    same bytes at every CPU count, and no process left behind."""

    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    def test_every_cpu_count_gives_the_bytes_of_one_process(self, monkeypatch, worker_blocks,
                                                              loss_kind):
        loss = LOSSES[loss_kind]
        train_set, val = _curved_problem()
        outcomes = {}
        for cpus in (2, 4, 1):  # 4: two workers share the three blocks; 1 forbids fork
            _fake_cpus(monkeypatch, cpus)
            worker_blocks[0] = 0
            net = init_network(Architecture((4, 6, loss.n_outputs)), seed=2)
            _, trace = train(net, train_set, val, OptimizerConfig(fixed_lr=0.01),
                             STRATEGIES_ON, loss, 12)
            outcomes[cpus] = (trace.rows, net.flat.tobytes())
            assert (worker_blocks[0] > 0) == (cpus > 1)
            assert_no_child_left()
        assert outcomes[1] == outcomes[2] == outcomes[4]

    def test_claims_of_several_blocks_give_the_bytes_of_one_process(self, monkeypatch,
                                                                    worker_blocks):
        # room for two 8-byte claims: the three blocks go as claims of two and one
        monkeypatch.setattr(select, "PIPE_BUF", 16)
        train_set, val = _curved_problem()
        outcomes = []
        for cpus in (2, 1):
            _fake_cpus(monkeypatch, cpus)
            net = init_network(Architecture((4, 6, 1)), seed=2)
            _, trace = train(net, train_set, val, OptimizerConfig(fixed_lr=0.01),
                             STRATEGIES_ON, Loss(), 12)
            outcomes.append((trace.rows, net.flat.tobytes()))
        assert worker_blocks[0] > 0
        assert outcomes[0] == outcomes[1]
        assert_no_child_left()

    def test_runs_ending_early_fork_workers_once(self, monkeypatch, worker_blocks):
        _fake_cpus(monkeypatch, 2)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        train_set, val = _curved_problem()
        solo, stacked, solo_nets, stacked_nets = _solo_and_stacked(
            _ending_early(Architecture((4, 6, 1))), (2, 3, 4, 5, 6), train_set, val,
            OptimizerConfig(fixed_lr=0.05), StrategyConfig(), Loss(), 30, early_stop_patience=2,
        )
        assert stacked == solo
        _assert_same_networks(solo_nets, stacked_nets, skip=(1,))
        assert worker_blocks[0] > 0
        # one worker per solo run and one for the stack, which keeps it while runs end
        lengths = [len(rows) for i, rows in enumerate(stacked) if i != 1]
        assert min(lengths) < max(lengths)
        assert len(forks) == len(solo) + 1
        assert_no_child_left()

    @pytest.mark.parametrize("ending", ["success", "divergence", "error here", "worker exit",
                                        "worker killed"])
    def test_no_process_is_left(self, monkeypatch, worker_blocks, ending):
        _fake_cpus(monkeypatch, 2)
        here = os.getpid()
        counting = windcast.optim._train_block
        blocks_here = []

        def ending_block(*args):
            if ending == "worker exit" and os.getpid() != here:
                os._exit(7)
            if ending == "worker killed" and os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)  # with a block taken, its answer owed
            if ending == "error here" and os.getpid() == here:
                blocks_here.append(None)
                if len(blocks_here) == 5:
                    raise RuntimeError("interrupted")
            return counting(*args)

        monkeypatch.setattr(windcast.optim, "_train_block", ending_block)
        train_set, val = _curved_problem()
        net = init_network(Architecture((4, 6, 1)), seed=2)
        lr = 1e160 if ending == "divergence" else 0.01
        expected = {
            "success": None,
            "divergence": pytest.raises(DivergenceError, match="training loss is inf"),
            "error here": pytest.raises(RuntimeError, match="interrupted"),
            "worker exit": pytest.raises(
                ToolkitError, match=r"^training worker process \d+ ended with exit code 7$"
            ),
            "worker killed": pytest.raises(
                ToolkitError, match=r"^training worker process \d+ ended with exit code -9$"
            ),
        }[ending]
        with _within(30):  # a run that waits on a lost worker fails here, not hangs
            if expected is None:
                train(net, train_set, val, OptimizerConfig(fixed_lr=lr), StrategyConfig(),
                      Loss(), 6)
                assert worker_blocks[0] > 0
            else:
                with expected:
                    train(net, train_set, val, OptimizerConfig(fixed_lr=lr), StrategyConfig(),
                          Loss(), 6)
        assert_no_child_left()

    @staticmethod
    def _one_run():
        train_set, val = _curved_problem()
        net = init_network(Architecture((4, 6, 1)), seed=2)
        _, trace = train(net, train_set, val, OptimizerConfig(), StrategyConfig(), Loss(), 3)
        return trace.rows, net.flat.tobytes()

    def test_a_failed_fork_leaves_no_pipe_open(self, monkeypatch, worker_blocks):
        # at the process limit the run trains every block here, as on one CPU
        _fake_cpus(monkeypatch, 1)
        one_cpu = self._one_run()
        _fake_cpus(monkeypatch, 2)
        fork_fails_after(monkeypatch, 0)
        open_fds = open_descriptors()
        assert self._one_run() == one_cpu
        assert worker_blocks[0] == 0
        assert open_descriptors() == open_fds

    def test_a_fork_failing_after_the_first_trains_with_the_worker_made(self, monkeypatch,
                                                                        worker_blocks):
        # four CPUs: two workers planned for the three blocks, one forked
        _fake_cpus(monkeypatch, 1)
        one_cpu = self._one_run()
        _fake_cpus(monkeypatch, 4)
        fork_fails_after(monkeypatch, 1)
        open_fds = open_descriptors()
        assert self._one_run() == one_cpu
        assert worker_blocks[0] > 0
        assert open_descriptors() == open_fds
        assert_no_child_left()

    @staticmethod
    def _validated_run(case):
        """The trace rows, or the error text, and the network bytes of each
        network of a full-batch run that validates after every epoch."""
        loss = LOSSES["pinball" if case == "pinball" else "mse"]
        train_set, val = _curved_problem()
        arch = Architecture((4, 6, loss.n_outputs))
        if case == "lag windows":
            train_set, val = _window_sets(as_copies=False)
            arch = Architecture((6, 8, 1))
        make_net = lambda s: init_network(arch, seed=s)  # noqa: E731
        seeds, epochs, lr, patience = (2,), 12, 0.01, None
        if case == "early stopping":
            epochs, lr, patience = 100, 0.3, 2
        if case == "one slice diverges":  # seed 3 at once; 2 and 4 stop early
            make_net, seeds, epochs, lr, patience = _ending_early(arch), (2, 3, 4), 30, 0.05, 2
        nets = [make_net(s) for s in seeds]
        results = train_seeds(nets, train_set, val, OptimizerConfig(fixed_lr=lr),
                              STRATEGIES_ON if patience is None else StrategyConfig(), loss,
                              epochs, early_stop_patience=patience)
        return ([str(r) if isinstance(r, DivergenceError) else r.rows for r in results],
                [net.flat.tobytes() for net in nets])

    # a stack whose ended slices, one of them non-finite, are validated
    # unread must not warn
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["mse", "pinball", "lag windows", "early stopping",
                                      "one slice diverges"])
    def test_validation_claims_give_the_bytes_of_one_process(self, monkeypatch,
                                                             worker_validations, case):
        outcomes = {}
        for cpus in (2, 4, 1):
            _fake_cpus(monkeypatch, cpus)
            worker_validations[0] = 0
            outcomes[cpus] = self._validated_run(case)
            assert (worker_validations[0] > 0) == (cpus > 1)
            assert_no_child_left()
        assert outcomes[1] == outcomes[2] == outcomes[4]
        rows = outcomes[1][0]
        assert all(row[3] is not None for r in rows if not isinstance(r, str) for row in r)
        if case == "early stopping":
            assert len(rows[0]) < 100
        if case == "one slice diverges":
            assert rows[1] == "epoch 1: training loss is inf; no finite train_loss yet"
            assert len(rows[0]) != len(rows[2])  # ended slices ride along unread

    @pytest.mark.parametrize("pipe_buf", [16, 24])  # room for 1 or 2 claims of blocks
    def test_validation_fits_the_claims_pipe(self, monkeypatch, worker_validations, pipe_buf):
        monkeypatch.setattr(select, "PIPE_BUF", pipe_buf)
        real_write = os.write
        sizes = []

        def recording(fd, data):
            sizes.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", recording)
        outcomes = []
        for cpus in (2, 1):
            _fake_cpus(monkeypatch, cpus)
            outcomes.append(self._validated_run("mse"))
        assert worker_validations[0] > 0
        assert outcomes[0] == outcomes[1]
        # the validation and one claim per step of 3 or 2 of the 3 blocks
        assert max(sizes) == pipe_buf
        assert_no_child_left()

    @pytest.mark.parametrize("ending", ["worker exit", "worker killed"])
    def test_a_worker_lost_while_validating_fails_the_run(self, monkeypatch, worker_validations,
                                                          ending):
        _fake_cpus(monkeypatch, 2)
        here = os.getpid()
        counting = windcast.optim._validation

        def ending_validation(*args):
            if ending == "worker exit" and os.getpid() != here:
                os._exit(7)
            if ending == "worker killed" and os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)  # with the validation claim taken
            return counting(*args)

        monkeypatch.setattr(windcast.optim, "_validation", ending_validation)
        train_set, val = _curved_problem()
        code = 7 if ending == "worker exit" else -9
        with _within(30), pytest.raises(
            ToolkitError, match=rf"^training worker process \d+ ended with exit code {code}$"
        ):
            train(init_network(Architecture((4, 6, 1)), seed=2), train_set, val,
                  OptimizerConfig(fixed_lr=0.01), StrategyConfig(), Loss(), 6)
        assert worker_validations[0] == 0  # the worker ended before it ran one
        assert_no_child_left()

    def test_minibatches_fork_nothing(self, monkeypatch, worker_blocks):
        _fake_cpus(monkeypatch, 2)

        def no_fork():
            raise AssertionError("a minibatch run forked a process")

        monkeypatch.setattr(os, "fork", no_fork)
        train_set, val = _curved_problem()
        train(init_network(Architecture((4, 6, 1)), seed=2), train_set, val,
              OptimizerConfig(), StrategyConfig(), Loss(), 3, batch_size=48)
        assert worker_blocks[0] == 0


def _window_sets(as_copies: bool, lag: int = 6):
    """80 training and 16 validation samples of lag windows: the read-only
    views make_lag_windows gives, or C-ordered copies of them."""
    t = np.arange(96 + lag)
    series = 0.5 + 0.4 * np.sin(t / 5.0) + np.random.default_rng(6).normal(0.0, 0.02, len(t))
    full = make_lag_windows(series, lag)
    x = np.ascontiguousarray(full.x) if as_copies else full.x
    return (SupervisedSet(x[:80], full.y[:80], full.feature_names),
            SupervisedSet(x[80:], full.y[80:], full.feature_names))


class TestStridedInputs:
    """Lag windows are a strided view of their series; training and
    forecasts copy the rows they hand BLAS into C order, and give the bytes
    they give on a C-ordered copy of the windows."""

    @pytest.mark.parametrize("loss_kind", sorted(LOSSES))
    @pytest.mark.parametrize("batch_size", [None, 48])  # 48 rows: blocks of 32 and 16
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_training_gives_the_bytes_of_a_c_ordered_copy(self, monkeypatch, worker_blocks,
                                                          loss_kind, batch_size, cpus):
        _fake_cpus(monkeypatch, cpus)
        loss = LOSSES[loss_kind]
        assert not _window_sets(as_copies=False)[0].x.flags.c_contiguous
        outcomes = []
        for as_copies in (False, True):
            train_set, val = _window_sets(as_copies)
            net = init_network(Architecture((6, 8, loss.n_outputs)), seed=2)
            _, trace = train(net, train_set, val, OptimizerConfig(fixed_lr=0.01),
                             STRATEGIES_ON, loss, 12, batch_size=batch_size)
            outcomes.append((trace.rows, net.flat.tobytes()))
        assert outcomes[0] == outcomes[1]
        # two CPUs share a full batch's blocks with a forked worker
        assert (worker_blocks[0] > 0) == (cpus == 2 and batch_size is None)
        assert_no_child_left()

    @pytest.mark.parametrize("sizes", [(48, 16, 1), (48, 8, 3)])
    def test_infer_gives_the_bytes_of_a_c_ordered_copy(self, sizes):
        series = np.random.default_rng(8).random(2500)
        view = make_lag_windows(series, sizes[0]).x  # 2,452 rows: a padded last block
        net = init_network(Architecture(sizes), seed=3)
        assert infer(net, view).tobytes() == infer(net, np.ascontiguousarray(view)).tobytes()
