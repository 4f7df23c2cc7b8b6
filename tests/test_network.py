"""Tests for the MLP: shapes, activations, analytic gradients, losses,
quantile forecasts and model persistence."""

import numpy as np
import pytest

from windcast.errors import (
    CacheError,
    EmptyDataError,
    InvalidArchitectureError,
    SchemaError,
    ShapeError,
)
from windcast import network
from windcast.model_io import ModelBundle, load_model, save_model
from windcast.network import (
    Architecture,
    Loss,
    Network,
    QuantileForecast,
    backward,
    forward,
    infer,
    init_network,
    mse_loss,
    pinball_loss,
    predict_quantiles,
    stack_networks,
    unstack_network,
)
from windcast.data import Scaler

from oracles import finite_difference_gradients


class TestArchitecture:
    def test_needs_two_layers(self):
        with pytest.raises(InvalidArchitectureError):
            Architecture(layer_sizes=(4,))

    def test_rejects_zero_width(self):
        with pytest.raises(InvalidArchitectureError):
            Architecture(layer_sizes=(4, 0, 1))

    def test_rejects_unknown_activation(self):
        with pytest.raises(InvalidArchitectureError):
            Architecture(layer_sizes=(4, 1), hidden_activation="softplus")
        with pytest.raises(InvalidArchitectureError):
            Architecture(layer_sizes=(4, 1), output_activation="relu6")

    def test_size_properties(self):
        arch = Architecture(layer_sizes=(5, 8, 3))
        assert arch.n_inputs == 5
        assert arch.n_outputs == 3

    def test_parameter_cap(self):
        # n -> h -> 1 holds h(n + 2) + 1 parameters; nothing here allocates them
        assert network.MAX_PARAMETERS == 3 * 3_333_333 + 1 == 4649 * 2151 + 1
        Architecture(layer_sizes=(2149, 4649, 1))
        for sizes in [(1, 3_333_334, 1), (4, 1_000_000_000, 1)]:
            with pytest.raises(InvalidArchitectureError, match="above the cap of 10,000,000"):
                Architecture(layer_sizes=sizes)

    @pytest.mark.parametrize("sizes", [(1, 3_333_333, 1), (8193, 1), (4, 16, 8193)])
    def test_layer_width_cap(self, sizes):
        # within the parameter cap, each too wide for a training block
        assert network.MAX_LAYER_WIDTH == 8192
        Architecture(layer_sizes=(8192, 16, 8192))
        message = f"give {max(sizes):,} units in one layer, above the cap of 8,192"
        with pytest.raises(InvalidArchitectureError, match=message):
            Architecture(layer_sizes=sizes)


class TestInit:
    def test_same_seed_bit_identical(self):
        arch = Architecture(layer_sizes=(6, 10, 2))
        a = init_network(arch, seed=123)
        b = init_network(arch, seed=123)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        arch = Architecture(layer_sizes=(6, 10, 2))
        a = init_network(arch, seed=1)
        b = init_network(arch, seed=2)
        assert any(np.any(pa != pb) for pa, pb in zip(a.parameters(), b.parameters()))

    def test_bounds_and_zero_biases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sizes = tuple(int(s) for s in rng.integers(1, 40, size=3))
            net = init_network(Architecture(layer_sizes=sizes), seed=int(rng.integers(1e6)))
            for k, w in enumerate(net.weights):
                bound = 1.0 / np.sqrt(sizes[k])
                assert np.all(np.abs(w) <= bound)
            for b in net.biases:
                np.testing.assert_array_equal(b, 0.0)

    def test_weight_shapes(self):
        net = init_network(Architecture(layer_sizes=(3, 7, 2)), seed=0)
        assert net.weights[0].shape == (7, 3)
        assert net.weights[1].shape == (2, 7)
        assert [p.shape for p in net.parameters()] == [(7, 3), (7,), (2, 7), (2,)]

    def test_shape_validation(self):
        arch = Architecture(layer_sizes=(3, 2))
        with pytest.raises(ShapeError):
            Network(arch, [np.zeros((2, 4))], [np.zeros(2)])
        with pytest.raises(ShapeError):
            Network(arch, [np.zeros((2, 3))], [np.zeros(3)])


class TestForward:
    def test_hand_computed_tanh(self):
        arch = Architecture(layer_sizes=(2, 2, 1), hidden_activation="tanh")
        w0 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[2.0, -3.0]])
        b1 = np.array([0.25])
        net = Network(arch, [w0, w1], [b0, b1])
        x = np.array([[0.3, -0.7]])
        h = np.tanh(x @ w0.T + b0)
        expected = h @ w1.T + b1
        np.testing.assert_allclose(forward(net, x), expected, rtol=1e-15)

    def test_zero_weights_give_bias(self):
        arch = Architecture(layer_sizes=(3, 2))
        net = Network(arch, [np.zeros((2, 3))], [np.array([0.5, -1.5])])
        out = forward(net, np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(out, np.tile([0.5, -1.5], (4, 1)))

    def test_relu_clamps_hidden_layer(self):
        arch = Architecture(layer_sizes=(1, 1, 1), hidden_activation="relu")
        net = Network(
            arch,
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([0.0]), np.array([0.0])],
        )
        out = forward(net, np.array([[-2.0], [3.0]]))
        np.testing.assert_array_equal(out, [[0.0], [3.0]])

    def test_sigmoid_is_stable_for_large_inputs(self):
        arch = Architecture(layer_sizes=(1, 1), output_activation="sigmoid")
        net = Network(arch, [np.array([[1.0]])], [np.array([0.0])])
        out = forward(net, np.array([[-800.0], [800.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.ravel(), [0.0, 1.0], atol=1e-12)

    def test_input_shape_checks(self):
        net = init_network(Architecture(layer_sizes=(3, 2)), seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros(3))
        with pytest.raises(ShapeError):
            forward(net, np.zeros((4, 2)))

    def test_cache_contents(self):
        net = init_network(Architecture(layer_sizes=(3, 4, 2)), seed=1)
        x = np.random.default_rng(2).normal(size=(5, 3))
        pred, cache = forward(net, x, want_cache=True)
        assert cache["n"] == 5
        assert len(cache["zs"]) == 2
        assert len(cache["acts"]) == 3
        np.testing.assert_array_equal(cache["acts"][0], x)
        np.testing.assert_array_equal(cache["acts"][-1], pred)

    def test_cache_matches_written_out_layers_bitwise(self):
        def sigmoid(z):
            e = np.exp(-np.abs(z))
            return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        funcs = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh,
                 "sigmoid": sigmoid, "identity": lambda z: z}
        x = np.random.default_rng(8).normal(size=(40, 3))
        for hidden, out in (("relu", "identity"), ("tanh", "sigmoid"), ("sigmoid", "identity")):
            arch = Architecture((3, 5, 4, 2), hidden_activation=hidden, output_activation=out)
            net = init_network(arch, seed=21)
            zs, acts = [], [x]
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                zs.append(acts[-1] @ w.T + b)
                acts.append(funcs[out if k == net.n_layers - 1 else hidden](zs[-1]))
            pred, cache = forward(net, x, want_cache=True)
            for got, want in zip(cache["zs"] + cache["acts"], zs + acts):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(pred, acts[-1])
            np.testing.assert_array_equal(forward(net, x), acts[-1])


class TestBackward:
    def test_matches_finite_differences_smooth(self):
        rng = np.random.default_rng(31)
        for hidden_act in ("tanh", "sigmoid"):
            for out_act in ("identity", "sigmoid"):
                sizes = (3, 5, 2)
                arch = Architecture(
                    layer_sizes=sizes,
                    hidden_activation=hidden_act,
                    output_activation=out_act,
                )
                net = init_network(arch, seed=int(rng.integers(1e6)))
                x = rng.normal(size=(8, 3))
                y = rng.normal(size=(8, 2))
                loss = Loss(kind="mse")
                pred, cache = forward(net, x, want_cache=True)
                _, dpred = mse_loss(pred, y)
                analytic = backward(net, cache, dpred)
                numeric = finite_difference_gradients(net, x, y, loss)
                for a, n in zip(analytic, numeric):
                    np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-8)

    def test_matches_finite_differences_pinball(self):
        rng = np.random.default_rng(77)
        levels = (0.1, 0.5, 0.9)
        arch = Architecture(layer_sizes=(4, 6, 3), hidden_activation="tanh")
        net = init_network(arch, seed=9)
        x = rng.normal(size=(10, 4))
        y = rng.normal(size=(10,))
        loss = Loss(kind="pinball", levels=levels)
        pred, cache = forward(net, x, want_cache=True)
        _, dpred = pinball_loss(pred, y, levels)
        analytic = backward(net, cache, dpred)
        numeric = finite_difference_gradients(net, x, y, loss)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-8)

    def test_grad_shapes_match_parameters(self):
        net = init_network(Architecture(layer_sizes=(3, 4, 2)), seed=3)
        x = np.random.default_rng(4).normal(size=(6, 3))
        y = np.random.default_rng(5).normal(size=(6, 2))
        pred, cache = forward(net, x, want_cache=True)
        _, dpred = mse_loss(pred, y)
        grads = backward(net, cache, dpred)
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]

    @pytest.mark.parametrize("stacked", [False, True])
    def test_relu_mask_matches_float_mask(self, monkeypatch, stacked):
        # da * (z > 0) must be bit for bit da * (z > 0).astype(float),
        # down to the -0.0 that a negative da times 0 gives
        arch = Architecture((4, 16, 16, 3), hidden_activation="relu")
        nets = [init_network(arch, seed=s) for s in range(3)]
        net = stack_networks(nets) if stacked else nets[0]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 4))
        pred, cache = forward(net, x, want_cache=True)
        dpred = rng.normal(size=pred.shape)
        grads = backward(net, cache, dpred)

        def float_mask(z, a, kind):
            return (z > 0.0).astype(z.dtype)

        for z, a in zip(cache["zs"][:-1], cache["acts"][1:-1]):
            da = rng.normal(size=z.shape)
            dz = da * network._activate_grad(z, a, "relu")
            reference_dz = da * float_mask(z, a, "relu")
            assert np.signbit(reference_dz[reference_dz == 0.0]).any()
            assert dz.dtype == reference_dz.dtype
            assert dz.tobytes() == reference_dz.tobytes()

        monkeypatch.setattr(network, "_activate_grad", float_mask)
        reference = backward(net, cache, dpred)
        for g, r in zip(grads, reference):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()

    def test_cache_validation(self):
        net = init_network(Architecture(layer_sizes=(3, 2)), seed=0)
        with pytest.raises(CacheError):
            backward(net, {"zs": []}, np.zeros((1, 2)))



class TestStackedNetwork:
    """A stack of networks computes, slice by slice, bit for bit what each
    network computes alone."""

    @pytest.mark.parametrize("rows", [1, 256, 999])
    @pytest.mark.parametrize("hidden", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("outputs, output_activation",
                             [(1, "identity"), (8, "sigmoid"), (21, "identity")])
    def test_forward_backward_and_losses(self, rows, hidden, outputs, output_activation):
        rng = np.random.default_rng(rows + outputs)
        arch = Architecture((4, 16, outputs), hidden_activation=hidden,
                            output_activation=output_activation)
        nets = [init_network(arch, seed=s) for s in range(3)]
        stack = stack_networks(nets)
        x = rng.normal(size=(rows, 4))
        y = rng.normal(size=rows)
        levels = tuple(np.linspace(0.05, 0.95, outputs)) if outputs > 1 else (0.5,)
        pinball = Loss(kind="pinball", levels=levels)
        pred, cache = forward(stack, x, want_cache=True)
        assert pred.shape == (3, rows, outputs)
        values, dpred = pinball.value_and_grad(pred, y)
        grads = backward(stack, cache, dpred)
        for s, net in enumerate(nets):
            pred_s, cache_s = forward(net, x, want_cache=True)
            np.testing.assert_array_equal(pred[s], pred_s)
            value_s, dpred_s = pinball.value_and_grad(pred_s, y)
            assert values[s] == value_s
            np.testing.assert_array_equal(dpred[s], dpred_s)
            for g, g_s in zip(grads, backward(net, cache_s, dpred_s)):
                np.testing.assert_array_equal(g[s], g_s)
            mse_values, mse_grad = Loss().value_and_grad(pred[:, :, :1], y)
            mse_value_s, mse_grad_s = Loss().value_and_grad(pred_s[:, :1], y)
            assert mse_values[s] == mse_value_s
            np.testing.assert_array_equal(mse_grad[s], mse_grad_s)

    def test_unstack_views_the_stack(self):
        nets = [init_network(Architecture((3, 5, 2)), seed=s) for s in (1, 2)]
        stack = stack_networks(nets)
        views = unstack_network(stack)
        for net, view in zip(nets, views):
            for p, q in zip(net.parameters(), view.parameters()):
                np.testing.assert_array_equal(p, q)
        stack.weights[0][1] += 1.0
        np.testing.assert_array_equal(views[1].weights[0], nets[1].weights[0] + 1.0)

    def test_shape_validation(self):
        arch = Architecture((3, 2))
        with pytest.raises(ShapeError):
            Network(arch, [np.zeros((2, 2, 3))], [np.zeros(2)])
        with pytest.raises(ShapeError):
            Network(arch, [np.zeros((1, 2, 2, 3))], [np.zeros((1, 2, 2))])
        with pytest.raises(ShapeError):
            stack_networks([init_network(arch, 0), init_network(Architecture((3, 1)), 0)])

class TestFlatLayout:
    """Parameters and gradients are views of one flat array, and a
    Workspace changes where a step's arrays live, not a byte of them."""

    def test_parameters_view_the_flat_array(self):
        net = init_network(Architecture((3, 7, 2)), seed=1)
        params = net.parameters()
        assert params.flat is net.flat and net.flat.shape == (3 * 7 + 7 + 7 * 2 + 2,)
        assert [p.shape for p in params] == [(7, 3), (7,), (2, 7), (2,)]
        assert all(np.shares_memory(p, net.flat) for p in params)
        assert np.concatenate([p.ravel() for p in params]).tobytes() == net.flat.tobytes()
        params[2][1, 4] = 5.0  # W1, after the 28 values of W0 and b0
        assert net.flat[28 + 1 * 7 + 4] == 5.0

    def test_a_stack_is_one_flat_row_per_network(self):
        nets = [init_network(Architecture((3, 7, 2)), seed=s) for s in (1, 2, 3)]
        stack = stack_networks(nets)
        assert stack.flat.shape == (3, nets[0].flat.size)
        assert all(np.shares_memory(p, stack.flat) for p in stack.parameters())
        for net, view in zip(nets, unstack_network(stack)):
            assert np.shares_memory(view.flat, stack.flat)
            assert view.flat.tobytes() == net.flat.tobytes()

    def test_constructor_copies_the_arrays(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        net = Network(Architecture((3, 2)), [w], [b])
        w[0, 0] = 7.0
        assert net.weights[0][0, 0] == 1.0
        assert np.shares_memory(net.weights[0], net.flat)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("hidden", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("output_activation, loss", [
        ("identity", Loss()), ("sigmoid", Loss("pinball", (0.2, 0.5, 0.8))),
    ])
    def test_workspace_matches_the_allocating_path_bitwise(
        self, stacked, hidden, output_activation, loss
    ):
        arch = Architecture((4, 9, 5, loss.n_outputs), hidden_activation=hidden,
                            output_activation=output_activation)
        nets = [init_network(arch, seed=s) for s in (1, 2)]
        net = stack_networks(nets) if stacked else nets[0]
        work = network.Workspace(net, 50)
        # an identity output's a is its z, so it gets no buffer of its own
        assert (work.acts[-1] is work.zs[-1]) == (output_activation == "identity")
        rng = np.random.default_rng(3)
        for rows in (50, 17, 50):  # a full batch, a shorter one, a full one again
            x, y = rng.normal(size=(rows, 4)), rng.normal(size=rows)
            pred, cache = forward(net, x, want_cache=True)
            value, dpred = loss.value_and_grad(pred, y)
            grads = backward(net, cache, dpred)
            pred_w, cache_w = forward(net, x, want_cache=True, work=work)
            value_w, dpred_w = loss.value_and_grad(pred_w, y, out=work.dpred[..., :rows, :])
            assert backward(net, cache_w, dpred_w, out=work.grads) is work.grads
            out = work.zs[-1] if output_activation == "identity" else work.acts[-1]
            assert np.shares_memory(pred_w, out)
            assert np.shares_memory(dpred_w, work.dpred)
            assert pred_w.tobytes() == pred.tobytes()
            assert np.asarray(value_w).tobytes() == np.asarray(value).tobytes()
            assert dpred_w.tobytes() == dpred.tobytes()
            assert work.grads.flat.tobytes() == grads.flat.tobytes()

    def test_gradient_array_must_match_the_network(self):
        net = init_network(Architecture((3, 2)), seed=0)
        pred, cache = forward(net, np.ones((4, 3)), want_cache=True)
        wrong = network.Params(np.empty(9), [(2, 4), (1,)])
        with pytest.raises(ShapeError):
            backward(net, cache, np.ones((4, 2)), out=wrong)


class TestLosses:
    def test_mse_hand_value(self):
        pred = np.array([[1.0], [2.0]])
        y = np.array([[0.0], [4.0]])
        loss, grad = mse_loss(pred, y)
        assert loss == 2.5
        np.testing.assert_allclose(grad, [[1.0], [-2.0]])

    def test_mse_zero_at_perfect_fit(self):
        pred = np.array([[1.0, 2.0]])
        loss, grad = mse_loss(pred, pred.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_pinball_documented_value(self):
        # quantile 0.1 predicts 0, quantile 0.9 predicts 1, outcome 0.5
        pred = np.array([[0.0, 1.0]])
        y = np.array([0.5])
        loss, _ = pinball_loss(pred, y, (0.1, 0.9))
        np.testing.assert_allclose(loss, 0.05, rtol=0, atol=1e-15)

    def test_pinball_gradient_branches(self):
        pred = np.array([[1.0, 1.0, 1.0]])
        y = np.array([1.0])  # exact tie: under-forecast branch applies
        _, grad = pinball_loss(pred, y, (0.2, 0.5, 0.8))
        np.testing.assert_allclose(grad, [[-0.2 / 3, -0.5 / 3, -0.8 / 3]])
        y_above = np.array([2.0])
        _, grad_up = pinball_loss(pred, y_above, (0.2, 0.5, 0.8))
        np.testing.assert_allclose(grad_up, [[-0.2 / 3, -0.5 / 3, -0.8 / 3]])
        y_below = np.array([0.0])
        _, grad_down = pinball_loss(pred, y_below, (0.2, 0.5, 0.8))
        np.testing.assert_allclose(grad_down, [[0.8 / 3, 0.5 / 3, 0.2 / 3]])

    def test_pinball_nonnegative(self):
        rng = np.random.default_rng(13)
        levels = (0.05, 0.3, 0.7, 0.95)
        for _ in range(50):
            pred = rng.normal(size=(9, 4))
            y = rng.normal(size=9)
            loss, _ = pinball_loss(pred, y, levels)
            assert loss >= 0.0

    def test_pinball_level_validation(self):
        with pytest.raises(ShapeError):
            pinball_loss(np.zeros((2, 1)), np.zeros(2), (0.0,))
        with pytest.raises(ShapeError):
            pinball_loss(np.zeros((2, 1)), np.zeros(2), (1.0,))
        with pytest.raises(ShapeError):
            pinball_loss(np.zeros((2, 1)), np.zeros(2), (float("nan"),))

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyDataError):
            mse_loss(np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(EmptyDataError):
            pinball_loss(np.zeros((0, 2)), np.zeros(0), (0.4, 0.6))

    def test_value_is_value_and_grad_value_bitwise(self):
        rng = np.random.default_rng(14)
        pred, y = rng.normal(size=(301, 5)), rng.normal(size=301)
        pinball = Loss(kind="pinball", levels=(0.05, 0.3, 0.5, 0.7, 0.95))
        assert pinball.value(pred, y) == pinball.value_and_grad(pred, y)[0]
        mse = Loss(kind="mse")
        assert mse.value(pred[:, :1], y) == mse.value_and_grad(pred[:, :1], y)[0]

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("loss", [Loss(), Loss(kind="pinball", levels=(0.1, 0.5, 0.9))])
    def test_blocks_of_a_batch(self, stacked, loss):
        rng = np.random.default_rng(17)
        pred = rng.normal(size=(2, 50, loss.n_outputs) if stacked else (50, loss.n_outputs))
        y = rng.normal(size=50)
        entries = y.size * loss.n_outputs
        value, grad = loss.value_and_grad(pred, y)
        # one block of the whole batch: its sum over the entry count is the mean
        whole, whole_grad = loss.value_and_grad(pred, y, entries=entries)
        np.testing.assert_array_equal(whole / entries, value)
        np.testing.assert_array_equal(whole_grad, grad)
        # each block's gradient rows are the batch's rows; its sums add up
        sums, grads = zip(*(loss.value_and_grad(pred[..., lo:lo + 16, :], y[lo:lo + 16],
                                                entries=entries) for lo in range(0, 50, 16)))
        np.testing.assert_array_equal(np.concatenate(grads, axis=-2), grad)
        np.testing.assert_allclose(sum(sums) / entries, value, rtol=1e-14)

    def test_fused_pinball_matches_two_masks_bitwise(self):
        rng = np.random.default_rng(15)
        levels = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
        q = np.array(levels)
        pred = rng.normal(size=(200, 7))
        y = rng.normal(size=200)
        pred[::3, 2] = y[::3]  # exact ties take the y >= pred branch
        pred[1::5, :] = y[1::5, None]
        pred_before, y_before = pred.copy(), y.copy()
        value, grad = pinball_loss(pred, y, levels)
        diff = y[:, None] - pred
        under = diff >= 0.0
        assert value == float(np.mean(np.where(under, q * diff, (q - 1.0) * diff)))
        np.testing.assert_array_equal(grad, np.where(under, -q, 1.0 - q) / diff.size)
        np.testing.assert_array_equal(pred, pred_before)
        np.testing.assert_array_equal(y, y_before)

    def test_mse_leaves_inputs_untouched(self):
        rng = np.random.default_rng(16)
        pred, y = rng.normal(size=(50, 1)), rng.normal(size=(50, 1))
        pred_before, y_before = pred.copy(), y.copy()
        value, grad = mse_loss(pred, y)
        assert value == float(np.mean((pred - y) * (pred - y)))
        np.testing.assert_array_equal(grad, 2.0 * (pred - y) / pred.size)
        np.testing.assert_array_equal(pred, pred_before)
        np.testing.assert_array_equal(y, y_before)

    def test_loss_object_dispatch(self):
        pred = np.array([[1.0], [2.0]])
        y = np.array([0.0, 4.0])
        loss = Loss(kind="mse")
        value, grad = loss.value_and_grad(pred, y)
        assert value == 2.5
        assert grad.shape == pred.shape
        assert loss.value(pred, y) == 2.5

    def test_loss_validation(self):
        with pytest.raises(SchemaError):
            Loss(kind="huber")
        with pytest.raises(SchemaError):
            Loss(kind="pinball", levels=())
        with pytest.raises(SchemaError):
            Loss(kind="pinball", levels=(0.5, 0.5))
        with pytest.raises(SchemaError):
            Loss(kind="pinball", levels=(0.9, 0.1))


class TestInfer:
    @pytest.mark.parametrize("sizes", [(48, 16, 1), (6, 8, 1), (4, 16, 21)])
    def test_a_row_does_not_depend_on_its_batch(self, sizes):
        rng = np.random.default_rng(4)
        net = init_network(Architecture(sizes), 2)
        x = rng.random((2 * network.INFER_ROWS + 300, sizes[0]))
        whole = infer(net, x)
        for lo, hi in [(0, 1), (1, 1500), (333, len(x)), (700, 701), (5, 2 * network.INFER_ROWS)]:
            assert infer(net, x[lo:hi]).tobytes() == whole[lo:hi].tobytes()
        assert infer(net, np.asfortranarray(x)).tobytes() == whole.tobytes()

    def test_checks_the_width_of_an_empty_batch(self):
        net = init_network(Architecture((3, 2)), 0)
        assert infer(net, np.zeros((0, 3))).shape == (0, 2)
        with pytest.raises(ShapeError):
            infer(net, np.zeros((0, 4)))


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1e-300, -1e300, 1.5, -0.75])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


class TestBlasOperands:
    """The products forward and backward hand numpy: a one-column dz
    times W multiplied outside matmul, and W.T left a view, each with the
    bits of the plain product."""

    @pytest.mark.parametrize("stack", [None, 3])
    def test_a_one_column_product_is_matmul_bit_for_bit(self, stack):
        # every pair of special values: signed zeros, infinities, NaNs, subnormals
        lead = () if stack is None else (stack,)
        dz = np.broadcast_to(SPECIAL[:, None], (*lead, len(SPECIAL), 1)).copy()
        w = np.broadcast_to(SPECIAL[None, :], (*lead, 1, len(SPECIAL))).copy()
        with np.errstate(all="ignore"):
            expected = np.matmul(dz, w)
            assert _bits(network._times_weights(dz, w)) == _bits(expected)
            out = np.empty_like(expected)
            assert network._times_weights(dz, w, out=out) is out
            assert _bits(out) == _bits(expected)

    @pytest.mark.parametrize("hidden", ["relu", "tanh"])
    def test_backward_through_a_one_unit_output_is_matmul_bit_for_bit(self, hidden):
        rng = np.random.default_rng(9)
        net = init_network(Architecture((48, 16, 1), hidden), 4)
        net.weights[1][0, :len(SPECIAL)] = SPECIAL
        x = rng.random((300, 48))
        dpred = rng.choice(SPECIAL, size=(300, 1))
        with np.errstate(all="ignore"):
            _, cache = forward(net, x, want_cache=True)
            grads = backward(net, cache, dpred)
            z0, a1 = cache["zs"][0], cache["acts"][1]
            da1 = np.matmul(dpred, net.weights[1])
            dz0 = da1 * (z0 > 0.0) if hidden == "relu" else da1 * (1.0 - a1 * a1)
            expected = [np.matmul(dz0.T, x), dz0.sum(axis=0),
                        np.matmul(dpred.T, a1), dpred.sum(axis=0)]
        for got, want in zip(grads, expected):
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("rows", [1, 2, 64, 256, 1024, 2400, 4096])
    @pytest.mark.parametrize("sizes", [(4, 16, 21), (4, 16, 1), (48, 16, 1), (1, 8, 1),
                                       (4, 16, 3), (48, 32, 2)])
    @pytest.mark.parametrize("stack", [None, 10])
    def test_forward_gives_the_bits_of_transposed_views(self, rows, sizes, stack):
        # The benchmark workloads' layers and others, at batch and block
        # rows. OpenBLAS 0.3.31 rounds a C-ordered copy of W.T like the view
        # at the workloads' block shapes, but not at 1 row, nor at up to 75
        # rows of 48 inputs to 16 units, nor from 16 units to 2 or 3 outputs
        # at any row count, so forward multiplies by the view.
        rng = np.random.default_rng(rows + sum(sizes))
        nets = [init_network(Architecture(sizes), s) for s in range(stack or 1)]
        net = nets[0] if stack is None else stack_networks(nets)
        a = x = rng.normal(size=(rows, sizes[0]))
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = np.matmul(a, w.swapaxes(-1, -2)) + b[..., None, :]
            a = network._activate(z, net.architecture.activation(k))
        assert _bits(forward(net, x)) == _bits(a)

    @pytest.mark.parametrize("sizes", [(48, 16, 1), (4, 16, 21)])
    def test_forward_takes_a_window_view(self, sizes):
        series = np.random.default_rng(5).random(3000 + sizes[0])
        view = np.lib.stride_tricks.sliding_window_view(series, sizes[0])
        assert not view.flags.c_contiguous
        net = stack_networks([init_network(Architecture(sizes), s) for s in (1, 2)])
        copy = np.ascontiguousarray(view)
        assert forward(net, view).tobytes() == forward(net, copy).tobytes()
        work = network.Workspace(net, len(view))
        pred, cache = forward(net, view, want_cache=True, work=work)
        assert cache["acts"][0].base is work.x and cache["acts"][0].flags.c_contiguous
        assert pred.tobytes() == forward(net, copy).tobytes()


FINITE_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300])
NON_FINITE = np.array([np.inf, -np.inf, np.nan, -np.nan, 1e308, 1e308, -1e308, -1e308])


class TestBiasSums:
    """backward's bias gradients have the bits of dz.sum(axis=-2) in every
    layout: signed zeros and subnormals, 1e308 pairs whose sum overflows,
    and infinities and NaNs of both signs, where inf + -inf makes a NaN
    whose sign an input NaN added the other way round would not keep."""

    @staticmethod
    def _dpred(rng, lead, n, width, layout):
        # rows 0..n-1 of a taller buffer, as a workspace hands them out;
        # the even columns finite, the odd ones not always, and column 0
        # -0.0 in the first two rows, whose sum from 0.0 is 0.0
        buf = rng.normal(size=(*lead, n + 5, width))
        special = rng.random(buf.shape) < 0.05
        odd = np.arange(width) % 2 == 1
        buf[special & ~odd] = rng.choice(FINITE_SPECIAL, size=(special & ~odd).sum())
        pool = np.concatenate([FINITE_SPECIAL, NON_FINITE])
        buf[special & odd] = rng.choice(pool, size=(special & odd).sum())
        buf[..., :2, 0] = -0.0
        dpred = buf[..., :n, :]
        if layout == "reversed rows":
            return dpred[..., ::-1, :]
        if layout == "column-major":
            return dpred.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        return dpred

    @pytest.mark.parametrize("layout", ["workspace", "reversed rows", "column-major"])
    @pytest.mark.parametrize("width", [1, 2, 3, 16, 21, 48])
    @pytest.mark.parametrize("stack", [None, 1, 3, 10])
    def test_bias_gradients_are_row_sums_bit_for_bit(self, stack, width, layout):
        rng = np.random.default_rng([width, stack or 0])
        nets = [init_network(Architecture((3, width)), s) for s in range(stack or 1)]
        net = nets[0] if stack is None else stack_networks(nets)
        lead = () if stack is None else (stack,)
        for n in (1, 2, 7, 96, 256, 1808, 4096):
            dpred = self._dpred(rng, lead, n, width, layout)
            with np.errstate(all="ignore"):
                _, cache = forward(net, rng.normal(size=(n, 3)), want_cache=True)
                got = backward(net, cache, dpred)[1]
                want = dpred.sum(axis=-2)
            assert _bits(got) == _bits(want), (n, layout)


class TestQuantileForecast:
    def test_rows_are_sorted(self):
        arch = Architecture(layer_sizes=(1, 3))
        net = Network(arch, [np.zeros((3, 1))], [np.array([0.9, 0.1, 0.5])])
        fc = predict_quantiles(net, np.zeros((4, 1)), (0.1, 0.5, 0.9))
        np.testing.assert_array_equal(fc.values, np.tile([0.1, 0.5, 0.9], (4, 1)))

    def test_non_crossing_random_nets(self):
        rng = np.random.default_rng(21)
        levels = tuple(np.linspace(0.05, 0.95, 7))
        for _ in range(10):
            net = init_network(
                Architecture(layer_sizes=(3, 8, 7), hidden_activation="tanh"),
                seed=int(rng.integers(1e6)),
            )
            fc = predict_quantiles(net, rng.normal(size=(20, 3)), levels)
            assert np.all(np.diff(fc.values, axis=1) >= 0.0)

    def test_level_validation(self):
        with pytest.raises(SchemaError):
            QuantileForecast(levels=(0.5, 0.5), values=np.zeros((1, 2)))
        with pytest.raises(SchemaError):
            QuantileForecast(levels=(0.2,), values=np.zeros((1, 2)))
        with pytest.raises(SchemaError, match="strictly increasing"):
            QuantileForecast(levels=(0.2, float("nan")), values=np.zeros((1, 2)))

    @pytest.mark.parametrize("levels", [(float("nan"),), (0.1, float("nan"), 0.9), (10 ** 400,)])
    def test_a_loss_rejects_a_level_outside_the_open_interval(self, levels):
        with pytest.raises(SchemaError, match=r"^quantile levels must lie strictly inside"):
            Loss("pinball", levels)


class TestModelIo:
    def _bundle(self):
        net = init_network(Architecture(layer_sizes=(2, 4, 1)), seed=8)
        scaler = Scaler({"power": (0.0, 10.0), "ws": (0.0, 25.0)})
        return ModelBundle(
            network=net,
            scaler=scaler,
            target_name="power",
            feature_names=("ws", "ws_prev"),
            loss=Loss("mse"),
            lag=None,
            horizon=1,
            metadata={"note": "fixture"},
        )

    def test_round_trip_bit_identical(self, tmp_path):
        bundle = self._bundle()
        path = str(tmp_path / "model.json")
        save_model(path, bundle)
        loaded = load_model(path)
        for pa, pb in zip(bundle.network.parameters(), loaded.network.parameters()):
            np.testing.assert_array_equal(pa, pb)
        assert loaded.scaler.columns == bundle.scaler.columns
        assert loaded.feature_names == bundle.feature_names
        assert loaded.kind == "point"
        assert loaded.metadata == {"note": "fixture"}

    def test_round_trip_preserves_predictions(self, tmp_path):
        bundle = self._bundle()
        path = str(tmp_path / "model.json")
        save_model(path, bundle)
        loaded = load_model(path)
        x = np.random.default_rng(3).normal(size=(9, 2))
        np.testing.assert_array_equal(
            forward(bundle.network, x), forward(loaded.network, x)
        )

    def test_save_is_deterministic(self, tmp_path):
        bundle = self._bundle()
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_model(p1, bundle)
        save_model(p2, bundle)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "schema_version": 1}')
        with pytest.raises(SchemaError) as excinfo:
            load_model(str(path))
        assert excinfo.value.exit_code == 2

    def test_wrong_schema_version_rejected(self, tmp_path):
        bundle = self._bundle()
        path = str(tmp_path / "model.json")
        save_model(path, bundle)
        import json

        with open(path) as fh:
            doc = json.load(fh)
        doc["schema_version"] = 99
        path2 = tmp_path / "v99.json"
        path2.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_model(str(path2))

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_model(str(path))

    def test_quantile_bundle_consistency(self):
        net = init_network(Architecture(layer_sizes=(2, 4, 3)), seed=8)
        scaler = Scaler({"power": (0.0, 10.0)})
        with pytest.raises(SchemaError):
            ModelBundle(
                network=net,
                scaler=scaler,
                target_name="power",
                feature_names=("a", "b"),
                loss=Loss("pinball", (0.1, 0.9)),  # two levels, three outputs
                lag=None,
                horizon=1,
                metadata={},
            )
