"""Fully connected feed-forward network with hand-written gradients.

Weights are stored (fan_out, fan_in) so a layer computes z = a @ W.T + b.
A network's parameters are views into one flat array, Network.flat, that
holds W0, b0, W1, b1, ... in turn, each in C order. The forward pass can
return a cache of pre-activations and activations; the backward pass
consumes it and produces gradients in the same flat layout (a Params).

S networks of one architecture can run as a single stack: the flat array
is (S, P) instead of (P,), every parameter gains a leading axis of length
S, all slices see the same input batch, and predictions, gradients and
per-slice loss values carry the same leading axis. Each slice computes
bit for bit what its network computes alone.

forward takes any 2-D x, a strided view included, and hands BLAS a
C-ordered copy of an x that is not C-ordered. Every forecast runs through
infer, forward on blocks of one fixed shape.

A training loop hands forward, the loss and backward a Workspace, the
arrays one block of a training pass writes, allocated once. The values
are byte for byte those the allocating path gives; only where they are
stored differs. A loss given the entry count of the whole batch a block
belongs to returns the block's sum and scales its gradient for the
batch's mean, so a pass can sum blocks into the batch's loss and gradient
(optim.train_seeds runs that pass).

An architecture holds at most MAX_PARAMETERS parameters and at most
MAX_LAYER_WIDTH units per layer, checked from its layer sizes before any
array is allocated. The MAX_ constants after them cap the sizes the CLI's
flags set, which it checks before it reads any file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import CacheError, EmptyDataError, InvalidArchitectureError, SchemaError, ShapeError

HIDDEN_ACTIVATIONS = ("relu", "tanh", "sigmoid")
INFER_ROWS = 1024  # rows per forward call in infer, the last block zero-padded
MAX_PARAMETERS = 10_000_000
"""Cap on one network's weights and biases: 80 MB per copy, of which
training holds several (parameters, gradients, optimizer moments)."""
MAX_LAYER_WIDTH = 8192
"""Cap on any one layer's units, inputs included: a 4,096-row training block
holds three float64 arrays per hidden layer, 768 MiB at this width."""
MAX_PFI_REPEATS = 1000
"""Cap on explain --repeats: permutation importance holds one feature's
permuted columns and forecasts, 16 bytes per repeat and row, 16 MB per
thousand rows at this cap."""
MAX_LIME_SAMPLES = 100_000
"""Cap on explain --lime-samples, checked before any file is read; a
model's inputs narrow it further (MAX_LIME_VALUES)."""
MAX_LIME_VALUES = 4_900_000
"""Cap on explain --lime-samples times the model's inputs plus one: the
values of one of the surrogate's design matrices, 39 MB each, which is
MAX_LIME_SAMPLES at 48 inputs."""
MAX_BENCHMARK_SEEDS = 1000
"""Cap on benchmark --seeds: each seed trains two networks."""
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
    """Derivative of the activation at z, reusing the stored output a.

    For relu it is the bool mask z > 0, which multiplies as 1.0/0.0 without
    a float copy."""
    if kind == "relu":
        return z > 0.0
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
        caps = ((sum(map(math.prod, self.param_shapes)), "parameters", MAX_PARAMETERS),
                (max(self.layer_sizes), "units in one layer", MAX_LAYER_WIDTH))
        for count, what, cap in caps:
            if count > cap:
                raise InvalidArchitectureError(
                    f"layer sizes {list(self.layer_sizes)} give {count:,} {what}, "
                    f"above the cap of {cap:,}"
                )

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of W0, b0, W1, b1, ... of one network."""
        sizes = self.layer_sizes
        return [shape for fan_in, fan_out in zip(sizes, sizes[1:])
                for shape in ((fan_out, fan_in), (fan_out,))]

    def activation(self, k: int) -> str:
        """The activation of weight layer k: the output's on the last one."""
        return self.output_activation if k == len(self.layer_sizes) - 2 else self.hidden_activation


class Params(list):
    """Views of one flat array, (P,) for one network or (S, P) for a stack:
    each takes the next prod(shape) values of every slice, in C order, and
    keeps the stack axis in front."""

    def __init__(self, flat: np.ndarray, shapes):
        self.flat, self.shapes = flat, tuple(shapes)
        lead, lo = flat.shape[:-1], 0
        for shape in self.shapes:
            hi = lo + math.prod(shape)
            self.append(flat[..., lo:hi].reshape(*lead, *shape))
            lo = hi
        if lo != flat.shape[-1]:
            raise ShapeError(f"flat array of {flat.shape[-1]} values for shapes of {lo}")


class Network:
    """Parameter container: weights[k] has shape (sizes[k+1], sizes[k]).

    The parameters view `flat`. A stack of S networks puts a leading axis
    on every one: flat is (S, P), weights[k] (S, sizes[k+1], sizes[k]) and
    biases[k] (S, sizes[k+1]). The constructor copies the given arrays into
    a new flat array; Network.viewing wraps an existing one.
    """

    def __init__(self, architecture: Architecture, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        sizes = architecture.layer_sizes
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise ShapeError("one weight and bias per connection expected")
        lead = weights[0].shape[:-2]
        if len(lead) > 1:
            raise ShapeError("parameters carry at most one leading stack axis")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (*lead, sizes[k + 1], sizes[k]):
                raise ShapeError(
                    f"layer {k}: weight shape {w.shape} != {(*lead, sizes[k + 1], sizes[k])}"
                )
            if b.shape != (*lead, sizes[k + 1]):
                raise ShapeError(f"layer {k}: bias shape {b.shape} != {(*lead, sizes[k + 1])}")
        self._view(architecture, np.empty((*lead, sum(map(math.prod, architecture.param_shapes)))))
        for k in range(len(weights)):
            self.weights[k][...] = weights[k]
            self.biases[k][...] = biases[k]

    @classmethod
    def viewing(cls, architecture: Architecture, flat: np.ndarray) -> "Network":
        """A network whose parameters are views of flat, (P,) or (S, P)."""
        net = cls.__new__(cls)
        net._view(architecture, flat)
        return net

    def _view(self, architecture: Architecture, flat: np.ndarray) -> None:
        self.architecture, self.flat = architecture, flat
        self.params = Params(flat, architecture.param_shapes)
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> Params:
        """[W0, b0, W1, b1, ...], views of flat."""
        return self.params


def stack_networks(nets) -> Network:
    """One stacked network whose slice s holds a copy of nets[s]'s parameters."""
    arch = nets[0].architecture
    if any(net.architecture != arch for net in nets):
        raise ShapeError("stacked networks must share one architecture")
    return Network.viewing(arch, np.stack([net.flat for net in nets]))


def unstack_network(stack: Network) -> list[Network]:
    """The slices of a stacked network, as networks viewing its flat array."""
    return [Network.viewing(stack.architecture, row) for row in stack.flat]


class Workspace:
    """What one block of up to n rows of a training pass of net writes,
    allocated once.

    x holds the input block where the batch's rows are not C-ordered, zs
    and acts each layer's z and a (an identity output's a is its z), das
    each hidden layer's dL/da, which backward turns into dL/dz in place,
    dpred the loss gradient and grads the parameter gradient. A block of
    fewer rows uses the leading rows of each. A pass of several blocks
    writes each later block's gradient to block_grads and adds it to grads.
    """

    def __init__(self, net: Network, n: int):
        arch = net.architecture
        self.x = np.empty((n, arch.n_inputs))
        self.zs = [np.empty((*net.flat.shape[:-1], n, h)) for h in arch.layer_sizes[1:]]
        self.acts = [np.empty_like(z) for z in self.zs[:-1]]
        out = self.zs[-1]
        self.acts.append(out if arch.output_activation == "identity" else np.empty_like(out))
        self.das = [np.empty_like(z) for z in self.zs[:-1]]
        self.dpred = np.empty_like(out)
        self.grads = Params(np.empty_like(net.flat), net.params.shapes)
        self.block_grads = Params(np.empty_like(net.flat), net.params.shapes)


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


def forward(net: Network, x: np.ndarray, *, want_cache: bool = False,
            work: Workspace | None = None):
    """Run a batch through the network.

    Returns predictions (n, n_outputs), plus a cache dict when asked. The
    cache stores the input and each layer's pre-activation z and output a;
    with a workspace they are stored in its arrays, an x that is not
    C-ordered copied to its x. A stacked network runs the same (n,
    features) batch through every slice and returns (S, n, n_outputs).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("input batch must be 2-D")
    if x.shape[1] != net.architecture.n_inputs:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {net.architecture.n_inputs}"
        )
    n = x.shape[0]
    work = work if want_cache else None
    if work is not None and not x.flags.c_contiguous:
        work.x[:n] = x
        x = work.x[:n]
    x = np.ascontiguousarray(x)  # faster than matmul's own handling of a strided x
    zs = []
    acts = [x]
    a = x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        # a C-ordered copy of W.T is faster at some shapes, but OpenBLAS
        # rounds it unlike the view at others (see TestBlasOperands)
        z = np.matmul(a, w.swapaxes(-1, -2), out=None if work is None else work.zs[k][..., :n, :])
        z += b[..., None, :]
        kind = net.architecture.activation(k)
        # without a cache nothing else holds z, so it can take the output
        out = z if not want_cache else (None if work is None else work.acts[k][..., :n, :])
        a = _activate(z, kind, out)
        if want_cache:
            zs.append(z)
            acts.append(a)
    if not want_cache:
        return a
    das = None if work is None else [da[..., :n, :] for da in work.das]
    return a, {"zs": zs, "acts": acts, "n": n, "das": das}


def infer(net: Network, x: np.ndarray) -> np.ndarray:
    """forward's output, computed in blocks of INFER_ROWS rows, the last
    zero-padded. BLAS can round a row by how many rows share its call; with
    one shape for every call, a row's output is the same bytes whichever
    rows come with it. forward makes each block C-ordered, so a strided x
    is copied a block at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty((len(x), net.architecture.n_outputs))
    for lo in range(0, max(len(x), 1), INFER_ROWS):  # an empty x still has its width checked
        block = x[lo:lo + INFER_ROWS]
        rows = len(block)
        if rows < INFER_ROWS:
            block = np.concatenate([block, np.zeros((INFER_ROWS - rows, *x.shape[1:]))])
        out[lo:lo + rows] = forward(net, block)[:rows]
    return out


def backward(net: Network, cache: dict, dloss_dpred: np.ndarray, *,
             out: Params | None = None) -> Params:
    """Backpropagate dL/dpred through the cached forward pass.

    Returns gradients laid out like Network.parameters(): [dW0, db0, dW1,
    db1, ...] as views of one flat array, out's when given. A stacked
    network takes and returns one slice per network along the leading axis.
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
    if out is not None and out.flat.shape != net.flat.shape:
        raise ShapeError(f"gradient array shape {out.flat.shape} != {net.flat.shape}")

    grads = Params(np.empty_like(net.flat), net.params.shapes) if out is None else out
    das = cache.get("das")
    last = net.n_layers - 1
    da = dloss_dpred
    for k in range(last, -1, -1):
        kind = net.architecture.activation(k)
        dz = da
        if kind != "identity":  # da is the caller's on the last layer, else this pass's own
            grad = _activate_grad(zs[k], acts[k + 1], kind)
            dz = np.multiply(da, grad, out=None if k == last else da)
        np.matmul(dz.swapaxes(-1, -2), acts[k], out=grads[2 * k])
        _row_sum(dz, grads[2 * k + 1])
        if k > 0:
            da = _times_weights(dz, net.weights[k], None if das is None else das[k - 1])
    return grads


def _row_sum(dz: np.ndarray, out: np.ndarray) -> None:
    """dz.sum(axis=-2, out=out), bit for bit. Where dz is more than one
    column wide and its rows lie in ascending memory order, each one
    unit-strided, numpy's sum adds them one short row at a time, and
    einsum adds the same rows in the same order, from 0.0, several times
    faster. numpy sums other layouts in other orders (a lone column
    pairwise, reversed rows from the end), so they keep sum. einsum adds
    x + acc, not acc + x, which can flip the sign bit of a NaN; a finite
    result had only finite terms, so only a result that is not finite is
    summed again."""
    width, item = dz.shape[-1], dz.itemsize
    if width > 1 and dz.strides[-1] == item and dz.strides[-2] >= width * item:
        np.einsum("...ij->...j", dz, out=out)
        if np.isfinite(out).all():
            return
    dz.sum(axis=-2, out=out)


def _times_weights(dz: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.matmul(dz, w, out=out), bit for bit. Where dz is one column wide
    the product is an outer product, which numpy's matmul computes outside
    BLAS as 0.0 + a * b per entry; a multiplication gives those bits
    faster, once adding 0.0 turns a -0.0 product into 0.0."""
    if dz.shape[-1] != 1:
        return np.matmul(dz, w, out=out)
    out = np.multiply(dz, w, out=out)
    out += 0.0
    return out


def _slice_sum(a: np.ndarray, stacked: bool):
    """Sum over all entries, or over each leading slice of a stacked batch.
    Divided by the entry count, it is bitwise numpy's mean, which sums and
    then divides."""
    if stacked:
        return a.reshape(len(a), -1).sum(axis=1)
    return float(np.sum(a))


def mse_loss(
    pred: np.ndarray, y: np.ndarray, *, want_grad: bool = True, out=None,
    entries: int | None = None,
) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean squared error over every entry and its gradient w.r.t. pred.

    A stacked (S, n, k) pred against an (n, k) target gives one loss per
    slice, and each slice's gradient is scaled by the size of one slice.
    With want_grad=False the gradient is not built and None stands in.
    The gradient is written into out when given.

    With entries, the entry count of a whole batch that this is one block
    of, the value is the block's sum of squared errors instead, and the
    gradient is that of the batch's mean: divided by entries.
    """
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    stacked = pred.ndim == 3 and y.ndim == 2
    if pred.shape[stacked:] != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {y.shape}")
    if pred.size == 0:
        raise EmptyDataError("loss of zero samples is undefined")
    diff = np.subtract(pred, y, out=out)
    loss = _slice_sum(diff * diff, stacked)
    if entries is None:
        entries = y.size
        loss = loss / entries
    if not want_grad:
        return loss, None
    diff *= 2.0
    diff /= entries
    return loss, diff


def pinball_loss(
    pred: np.ndarray, y: np.ndarray, levels, *, want_grad: bool = True, out=None,
    entries: int | None = None,
) -> tuple[float | np.ndarray, np.ndarray | None]:
    """Mean pinball loss across samples and quantile levels.

    Column j of pred targets quantile levels[j]. Where y >= pred the
    penalty is q * (y - pred), otherwise (1 - q) * (pred - y); the ties
    fall in the first branch, so the gradient there is -q. Both come from
    one weight w = q or q - 1 per entry: the loss is mean(w * (y - pred))
    and the gradient -w / size. A stacked (S, n, k) pred gives one loss
    per slice, size being that of one slice. With want_grad=False the
    gradient is not built and None stands in. The gradient is written into
    out when given. entries turns this into one block of a batch, as in
    mse_loss: the value is the block's sum and size is entries.
    """
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.asarray(levels, dtype=float)
    if q.ndim != 1 or pred.ndim not in (2, 3) or pred.shape[-1] != q.shape[0]:
        raise ShapeError("pred must be (n, len(levels)) or (S, n, len(levels))")
    if not np.all((0.0 < q) & (q < 1.0)):  # NaN fails this too
        raise ShapeError("quantile levels must lie strictly inside (0, 1)")
    if y.shape != (pred.shape[-2],):
        raise ShapeError(f"target shape {y.shape} != ({pred.shape[-2]},)")
    if pred.size == 0:
        raise EmptyDataError("loss of zero samples is undefined")
    diff = y[:, None] - pred
    w = np.subtract(q, ~(diff >= 0.0), out=out)  # q - True is q - 1.0, q - False is q
    diff *= w
    loss = _slice_sum(diff, pred.ndim == 3)
    if entries is None:
        entries = y.size * q.size
        loss = loss / entries
    if not want_grad:
        return loss, None
    # -(q - 1) rounds exactly like 1 - q, so this is where(diff >= 0, -q, 1 - q) / size
    w /= -entries
    return loss, w


@dataclass(frozen=True)
class Loss:
    """Training objective: plain MSE or pinball over a quantile grid."""

    kind: str = "mse"
    levels: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mse", "pinball"):
            raise SchemaError(f"unknown loss kind {self.kind!r}")
        try:
            levels = tuple(self.levels)
        except TypeError:
            levels = None
        if levels is None or any(isinstance(q, bool) or not isinstance(q, Real) for q in levels):
            raise SchemaError(f"quantile levels must be a list of numbers, got {self.levels!r}")
        if self.kind == "mse" and levels:
            raise SchemaError("an mse loss takes no quantile levels")
        if self.kind == "pinball":
            if not levels:
                raise SchemaError("pinball loss needs at least one quantile level")
            if not all(0.0 < q < 1.0 for q in levels):  # NaN fails this too
                raise SchemaError("quantile levels must lie strictly inside (0, 1)")
            if not all(b > a for a, b in zip(levels, levels[1:])):
                raise SchemaError("quantile levels must be strictly increasing")
        object.__setattr__(self, "levels", tuple(float(q) for q in levels))

    @property
    def n_outputs(self) -> int:
        return len(self.levels) if self.kind == "pinball" else 1

    def value_and_grad(
        self, pred: np.ndarray, y: np.ndarray, *, want_grad: bool = True, out=None,
        entries: int | None = None,
    ) -> tuple[float | np.ndarray, np.ndarray | None]:
        """Loss value plus its gradient w.r.t. the (n, k) prediction batch.

        y is a length-n vector; for mse the single prediction column is
        compared against it directly. A stacked (S, n, k) batch gives an
        array of S loss values. With want_grad=False the gradient is not
        built and None stands in; otherwise it is written into out when
        given. With entries, the entry count (rows times outputs) of a
        whole batch that these rows are one block of, the value is the
        block's sum over its entries and the gradient is divided by
        entries: the rows' part of the batch's gradient, bitwise.
        """
        pred = np.asarray(pred, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "pinball":
            return pinball_loss(pred, y, self.levels, want_grad=want_grad, out=out,
                                entries=entries)
        if pred.ndim in (2, 3) and pred.shape[-1] == 1 and y.ndim == 1:
            y = y[:, None]
        return mse_loss(pred, y, want_grad=want_grad, out=out, entries=entries)

    def value(self, pred: np.ndarray, y: np.ndarray) -> float:
        return self.value_and_grad(pred, y, want_grad=False)[0]


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
        if not all(b > a for a, b in zip(self.levels, self.levels[1:])):
            raise SchemaError("quantile levels must be strictly increasing")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.levels):
            raise ShapeError(
                f"values shape {self.values.shape} != (n, {len(self.levels)})"
            )

    def __len__(self) -> int:
        return self.values.shape[0]


def predict_quantiles(net: Network, x: np.ndarray, levels) -> QuantileForecast:
    """infer's output sorted per row, so quantiles never cross.
    QuantileForecast rejects a network without one output per level."""
    return QuantileForecast(levels, np.sort(infer(net, x), axis=1))
