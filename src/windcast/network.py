"""Fully connected feed-forward network with hand-written gradients.

Weights are stored (fan_out, fan_in) so a layer computes z = a @ W.T + b.
The forward pass can return a cache of pre-activations and activations;
the backward pass consumes it and produces gradients laid out exactly
like the parameter list, suitable for any first-order optimizer.

S networks of one architecture can run as a single stack: every
parameter gains a leading axis of length S, all slices see the same
input batch, and predictions, gradients and per-slice loss values carry
the same leading axis. Each slice computes bit for bit what its network
computes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CacheError, EmptyDataError, InvalidArchitectureError, SchemaError, ShapeError

HIDDEN_ACTIVATIONS = ("relu", "tanh", "sigmoid")
OUTPUT_ACTIVATIONS = ("identity", "sigmoid")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the activation; pass out=z to overwrite z instead of allocating."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "sigmoid":
        return _sigmoid(z, out)
    if kind == "identity":
        return z
    raise InvalidArchitectureError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation at z, reusing the stored output a."""
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "sigmoid":
        return a * (1.0 - a)
    raise InvalidArchitectureError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class Architecture:
    """Layer sizes plus the activation used on hidden and output layers."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise InvalidArchitectureError("need at least input and output layers")
        if any(int(s) < 1 for s in self.layer_sizes):
            raise InvalidArchitectureError(f"layer sizes must be >= 1: {self.layer_sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise InvalidArchitectureError(
                f"hidden activation must be one of {HIDDEN_ACTIVATIONS}"
            )
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise InvalidArchitectureError(
                f"output activation must be one of {OUTPUT_ACTIVATIONS}"
            )
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


class Network:
    """Parameter container: weights[k] has shape (sizes[k+1], sizes[k]).

    A stack of S networks puts a leading axis on every parameter:
    weights[k] is (S, sizes[k+1], sizes[k]) and biases[k] (S, sizes[k+1]).
    """

    def __init__(self, architecture: Architecture, weights, biases):
        self.architecture = architecture
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        sizes = architecture.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeError("one weight and bias per connection expected")
        lead = self.weights[0].shape[:-2]
        if len(lead) > 1:
            raise ShapeError("parameters carry at most one leading stack axis")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (*lead, sizes[k + 1], sizes[k]):
                raise ShapeError(
                    f"layer {k}: weight shape {w.shape} != {(*lead, sizes[k + 1], sizes[k])}"
                )
            if b.shape != (*lead, sizes[k + 1]):
                raise ShapeError(f"layer {k}: bias shape {b.shape} != {(*lead, sizes[k + 1])}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...] in a fixed order."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Network":
        return Network(
            self.architecture,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def stack_networks(nets) -> Network:
    """One stacked network whose slice s holds a copy of nets[s]'s parameters."""
    arch = nets[0].architecture
    if any(net.architecture != arch for net in nets):
        raise ShapeError("stacked networks must share one architecture")
    return Network(
        arch,
        [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
        [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
    )


def unstack_network(stack: Network) -> list[Network]:
    """The slices of a stacked network, as networks viewing its arrays."""
    return [
        Network(stack.architecture, [w[s] for w in stack.weights], [b[s] for b in stack.biases])
        for s in range(len(stack.weights[0]))
    ]


def init_network(architecture: Architecture, seed: int) -> Network:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    One generator seeded with `seed` is drawn layer by layer, so equal
    seeds give bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    sizes = architecture.layer_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(architecture, weights, biases)


def forward(net: Network, x: np.ndarray, *, want_cache: bool = False):
    """Run a batch through the network.

    Returns predictions (n, n_outputs), plus a cache dict when asked. The
    cache stores the input and each layer's pre-activation z and output a.
    A stacked network runs the same (n, features) batch through every
    slice and returns (S, n, n_outputs).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("input batch must be 2-D")
    if x.shape[1] != net.architecture.n_inputs:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {net.architecture.n_inputs}"
        )
    last = net.n_layers - 1
    zs = []
    acts = [x]
    a = x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        kind = (
            net.architecture.output_activation
            if k == last
            else net.architecture.hidden_activation
        )
        # without a cache nothing else holds z, so it can take the output
        a = _activate(z, kind, None if want_cache else z)
        if want_cache:
            zs.append(z)
            acts.append(a)
    if not want_cache:
        return a
    return a, {"zs": zs, "acts": acts, "n": x.shape[0]}


def backward(net: Network, cache: dict, dloss_dpred: np.ndarray) -> list[np.ndarray]:
    """Backpropagate dL/dpred through the cached forward pass.

    Returns gradients in the same order as Network.parameters():
    [dW0, db0, dW1, db1, ...]. A stacked network takes and returns one
    slice per network along the leading axis.
    """
    for key in ("zs", "acts", "n"):
        if key not in cache:
            raise CacheError(f"forward cache is missing {key!r}")
    zs, acts = cache["zs"], cache["acts"]
    if len(zs) != net.n_layers or len(acts) != net.n_layers + 1:
        raise CacheError("cache does not match this architecture")
    dloss_dpred = np.asarray(dloss_dpred, dtype=float)
    if dloss_dpred.shape != acts[-1].shape:
        raise ShapeError(
            f"upstream gradient shape {dloss_dpred.shape} != prediction shape {acts[-1].shape}"
        )

    grads: list[np.ndarray] = [np.empty(0)] * (2 * net.n_layers)
    last = net.n_layers - 1
    da = dloss_dpred
    for k in range(last, -1, -1):
        kind = (
            net.architecture.output_activation
            if k == last
            else net.architecture.hidden_activation
        )
        dz = da if kind == "identity" else da * _activate_grad(zs[k], acts[k + 1], kind)
        grads[2 * k] = dz.swapaxes(-1, -2) @ acts[k]
        grads[2 * k + 1] = dz.sum(axis=-2)
        if k > 0:
            da = dz @ net.weights[k]
    return grads


def _slice_mean(a: np.ndarray, stacked: bool):
    """Mean over all entries, or over each leading slice of a stacked batch."""
    if stacked:
        return a.reshape(len(a), -1).mean(axis=1)
    return float(np.mean(a))


def mse_loss(
    pred: np.ndarray, y: np.ndarray, *, want_grad: bool = True
) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean squared error over every entry and its gradient w.r.t. pred.

    A stacked (S, n, k) pred against an (n, k) target gives one loss per
    slice, and each slice's gradient is scaled by the size of one slice.
    With want_grad=False the gradient is not built and None stands in.
    """
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    stacked = pred.ndim == 3 and y.ndim == 2
    if pred.shape[stacked:] != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {y.shape}")
    if pred.size == 0:
        raise EmptyDataError("loss of zero samples is undefined")
    diff = pred - y
    loss = _slice_mean(diff * diff, stacked)
    if not want_grad:
        return loss, None
    diff *= 2.0
    diff /= y.size
    return loss, diff


def pinball_loss(
    pred: np.ndarray, y: np.ndarray, levels, *, want_grad: bool = True
) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean pinball loss across samples and quantile levels.

    Column j of pred targets quantile levels[j]. Where y >= pred the
    penalty is q * (y - pred), otherwise (1 - q) * (pred - y); the ties
    fall in the first branch, so the gradient there is -q. Both come from
    one weight w = q or q - 1 per entry: the loss is mean(w * (y - pred))
    and the gradient -w / size. A stacked (S, n, k) pred gives one loss
    per slice, size being that of one slice. With want_grad=False the
    gradient is not built and None stands in.
    """
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.asarray(levels, dtype=float)
    if q.ndim != 1 or pred.ndim not in (2, 3) or pred.shape[-1] != q.shape[0]:
        raise ShapeError("pred must be (n, len(levels)) or (S, n, len(levels))")
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ShapeError("quantile levels must lie strictly inside (0, 1)")
    if y.shape != (pred.shape[-2],):
        raise ShapeError(f"target shape {y.shape} != ({pred.shape[-2]},)")
    if pred.size == 0:
        raise EmptyDataError("loss of zero samples is undefined")
    diff = y[:, None] - pred
    w = np.where(diff >= 0.0, q, q - 1.0)
    diff *= w
    loss = _slice_mean(diff, pred.ndim == 3)
    if not want_grad:
        return loss, None
    # -(q - 1) rounds exactly like 1 - q, so this is where(diff >= 0, -q, 1 - q) / size
    w /= -(y.size * q.size)
    return loss, w


@dataclass(frozen=True)
class Loss:
    """Training objective: plain MSE or pinball over a quantile grid."""

    kind: str = "mse"
    levels: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mse", "pinball"):
            raise SchemaError(f"unknown loss kind {self.kind!r}")
        if self.kind == "pinball":
            levels = tuple(float(q) for q in self.levels)
            if not levels:
                raise SchemaError("pinball loss needs at least one quantile level")
            if any(q <= 0.0 or q >= 1.0 for q in levels):
                raise SchemaError("quantile levels must lie strictly inside (0, 1)")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise SchemaError("quantile levels must be strictly increasing")
            object.__setattr__(self, "levels", levels)

    @property
    def n_outputs(self) -> int:
        return len(self.levels) if self.kind == "pinball" else 1

    def value_and_grad(
        self, pred: np.ndarray, y: np.ndarray, *, want_grad: bool = True
    ) -> tuple[float | np.ndarray, np.ndarray | None]:
        """Loss value plus its gradient w.r.t. the (n, k) prediction batch.

        y is a length-n vector; for mse the single prediction column is
        compared against it directly. A stacked (S, n, k) batch gives an
        array of S loss values. With want_grad=False the gradient is not
        built and None stands in.
        """
        pred = np.asarray(pred, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "pinball":
            return pinball_loss(pred, y, self.levels, want_grad=want_grad)
        if pred.ndim in (2, 3) and pred.shape[-1] == 1 and y.ndim == 1:
            y = y[:, None]
        return mse_loss(pred, y, want_grad=want_grad)

    def value(self, pred: np.ndarray, y: np.ndarray) -> float:
        return self.value_and_grad(pred, y, want_grad=False)[0]


def compute_loss(pred: np.ndarray, y: np.ndarray, loss: Loss) -> float:
    """Scalar loss of a prediction batch against targets."""
    return loss.value(pred, y)


@dataclass
class QuantileForecast:
    """Per-sample quantile values on a strictly increasing level grid.

    Rows are non-decreasing across levels (repaired by sorting at
    prediction time, never during training).
    """

    levels: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.levels = tuple(float(q) for q in self.levels)
        self.values = np.asarray(self.values, dtype=float)
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise SchemaError("quantile levels must be strictly increasing")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.levels):
            raise ShapeError(
                f"values shape {self.values.shape} != (n, {len(self.levels)})"
            )

    def __len__(self) -> int:
        return self.values.shape[0]


def predict_quantiles(net: Network, x: np.ndarray, levels) -> QuantileForecast:
    """Forward pass plus per-row sort so quantiles never cross."""
    levels = tuple(float(q) for q in levels)
    if net.architecture.n_outputs != len(levels):
        raise ShapeError(
            f"network emits {net.architecture.n_outputs} outputs "
            f"for {len(levels)} quantile levels"
        )
    raw = forward(net, x)
    return QuantileForecast(levels, np.sort(raw, axis=1))
