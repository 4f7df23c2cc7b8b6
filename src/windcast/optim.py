"""Adam-family optimizers with three optional training strategies.

The strategies, each independently switchable, are:

* gradient centralization: subtract the per-output-row mean from every
  weight-matrix gradient before the moment updates (biases untouched);
* cosine learning-rate decay: alpha_t = alpha0 * (1 + cos(pi*t/T)) / 2,
  advanced once per epoch, t = 1..T;
* uniform parameter noise: an independent uniform(-tau, tau) draw added
  to every parameter after each update, from a dedicated seeded stream.

With all three off, every step is bitwise identical to the plain update
rule of the selected optimizer kind. Formulas, with g the (possibly
centralized) gradient at step t and hat denoting bias correction
m_hat = m/(1-beta1^t), v_hat = v/(1-beta2^t), g_hat = g/(1-beta1^t):

* adam:    m = b1*m+(1-b1)*g; v = b2*v+(1-b2)*g^2;
           theta -= lr * m_hat / sqrt(v_hat + eps)
* nadam:   as adam, numerator b1*m_hat + (1-b1)*g_hat
* rmsprop: v only, no bias correction; theta -= lr * g / sqrt(v + eps)
* adamax:  u = max(b2*u, |g|); theta -= lr * m_hat / (u + eps)

Note eps sits inside the square root for adam/nadam/rmsprop.

Every formula works element by element and centralization row by row, so
the optimizer and the training loop run S networks as one stack (see
network.py) with each slice following its solo trajectory bit for bit;
a slice whose run has ended stays in the stack, unread, to the end.

The state shares the parameters' flat layout (see network.py): a step
applies its formula once to (P,) or (S, P) arrays, and a slice's noise is
one P-value draw, equal to per-parameter draws from the same stream.

The training loop gets every batch's loss and gradient from one training
pass over row blocks of at most TRAIN_ROWS rows: forward, loss and
backward run block by block in the stack's one network.Workspace of one
block, so a full batch of any size streams block-sized arrays through the
cache. A batch of up to TRAIN_ROWS rows is one block and gives bit for
bit what one unblocked pass gives. Over several blocks, the loss is the
in-order sum of the blocks' sums divided by the batch's entry count, and
the gradient the in-order sum of the blocks' gradients, each block's
dL/dpred already divided by that count: only where partial sums are
rounded differs from one pass.

A full-batch pass of more than one block uses every CPU the process may
run on: forked workers and the training process claim blocks from a
shared pipe as each becomes free and leave every block's loss sum and
gradient in shared memory, and the training process adds them up in
block order, so the bytes equal those of a pass run in one process.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _util
from .errors import (
    DivergenceError,
    ScheduleOverflowError,
    SchemaError,
    ShapeError,
)
from .network import (
    Loss, Network, Params, Workspace, backward, forward, stack_networks, unstack_network,
)

OPTIMIZER_KINDS = ("adam", "nadam", "rmsprop", "adamax")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    fixed_lr: float = 0.001

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise SchemaError(f"optimizer kind must be one of {OPTIMIZER_KINDS}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise SchemaError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise SchemaError("epsilon must be finite and > 0")
        if not 0.0 < self.fixed_lr < math.inf:
            raise SchemaError("fixed_lr must be finite and > 0")


@dataclass(frozen=True)
class StrategyConfig:
    """Switches and knobs for the three optional training strategies."""

    centralize: bool = False
    cosine_lr: bool = False
    initial_lr: float = 0.1
    total_epochs: int = 1
    noise_tau: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_lr < math.inf:
            raise SchemaError("initial_lr must be finite and > 0")
        if self.total_epochs < 1:
            raise SchemaError("total_epochs must be >= 1")
        if not 0.0 <= 2.0 * self.noise_tau < math.inf:  # the draw spans 2 * tau
            raise SchemaError("noise_tau must be >= 0, with 2 * noise_tau finite")
        if self.noise_seed < 0:  # numpy's generators take seeds >= 0
            raise SchemaError("noise_seed must be >= 0")


def centralize_gradient(g: np.ndarray) -> np.ndarray:
    """Subtract the mean over the input dimension from each output row.

    Only 2-D weight gradients are centralized; anything else (bias
    vectors) is returned untouched. A row whose mean is already at
    rounding level (within 4 ulps of its magnitude) is left bit-identical,
    which makes the operation exactly idempotent.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        return g
    return _centralize_rows(g)


def _centralize_rows(g: np.ndarray) -> np.ndarray:
    """centralize_gradient over the last axis of g, whatever its rank.

    Each row settles on its own, so a row's result does not depend on the
    other rows, nor on a leading stack axis.
    """
    out = g
    for _ in range(8):
        mean = out.mean(axis=-1, keepdims=True)
        magnitude = np.abs(out).max(axis=-1, keepdims=True)
        settled = np.abs(mean) <= 4.0 * np.spacing(magnitude)
        if np.all(settled):
            break
        out = np.where(settled, out, out - mean)
    return out


def cosine_lr(t: float, alpha0: float, total_epochs: int) -> float:
    """Half-cosine decay from alpha0 at t=0 to exactly 0 at t=total_epochs."""
    if total_epochs < 1:
        raise SchemaError("total_epochs must be >= 1")
    if t < 0:
        raise SchemaError("epoch index must be >= 0")
    if t > total_epochs:
        raise ScheduleOverflowError(
            f"epoch {t} is past the planned horizon {total_epochs}"
        )
    try:
        phase = math.pi * t / total_epochs
    except OverflowError:  # an integer horizon too large for a float
        raise ScheduleOverflowError(
            "the schedule horizon total_epochs is too large for a float") from None
    return alpha0 * (1.0 + math.cos(phase)) / 2.0


def _parameter_name(k: int) -> str:
    """W0, b0, W1, b1, ...: the name of position k of Network.parameters()."""
    return f"{'Wb'[k % 2]}{k // 2}"


def _as_params(arrays, stacked: bool) -> Params:
    """arrays as a Params: itself, or the one view of a lone C-contiguous array."""
    if isinstance(arrays, Params):
        return arrays
    if len(arrays) != 1 or not arrays[0].flags.c_contiguous:
        raise ShapeError("parameters must be a Params or one C-contiguous array")
    a = arrays[0]
    return Params(a.reshape(*a.shape[:stacked], -1), [a.shape[stacked:]])


class Optimizer:
    """Stateful update rule over a fixed list of parameter arrays.

    The list is ordered like Network.parameters(), so the weights, which
    centralization applies to, sit at the even positions: a Params, or a
    list of one C-contiguous array. Only the state the kind reads is
    allocated, zero, in the same layout: m and v for adam and nadam, v for
    rmsprop, m and u for adamax; the others are None. The step counter
    starts at 0 and advances once per step() call. The noise stream, when
    enabled, is seeded independently of anything else so a tau=0 rerun
    reproduces the noiseless trajectory exactly.

    With noise_seeds, every parameter is a stack whose leading axis holds
    one network per seed: slice s draws its noise from its own stream
    seeded noise_seeds[s], and a non-finite gradient marks its slice
    instead of raising.
    """

    def __init__(self, config: OptimizerConfig, strategies: StrategyConfig, params,
                 noise_seeds=None):
        self.config = config
        self.strategies = strategies
        self.t = 0
        self.stacked = noise_seeds is not None
        params = _as_params(params, self.stacked)
        self.shapes = params.shapes
        self.flat_shape = params.flat.shape
        kind = config.kind
        self.m = Params(np.zeros(self.flat_shape), self.shapes) if kind != "rmsprop" else None
        self.v = Params(np.zeros(self.flat_shape), self.shapes) if kind != "adamax" else None
        self.u = Params(np.zeros(self.flat_shape), self.shapes) if kind == "adamax" else None
        seeds = noise_seeds if self.stacked else [strategies.noise_seed]
        self._noise_rngs = (
            [np.random.default_rng([seed, 1]) for seed in seeds]
            if strategies.noise_tau > 0.0
            else None
        )

    def learning_rate(self, epoch: int) -> float:
        """Rate for the given 1-indexed epoch: cosine when enabled, else fixed."""
        if self.strategies.cosine_lr:
            return cosine_lr(epoch, self.strategies.initial_lr, self.strategies.total_epochs)
        return self.config.fixed_lr

    def step(self, params, grads, epoch: int = 1) -> dict[int, int]:
        """Update every parameter in place, in one pass over the flat arrays.

        Centralization overwrites the weight gradients. A non-finite
        gradient raises DivergenceError before any update. A stacked
        optimizer updates every slice instead and returns, for each slice
        with a non-finite gradient, the index of the first such parameter.
        """
        params = _as_params(params, self.stacked)
        grads = _as_params(grads, self.stacked)
        for arrays in (params, grads):
            if arrays.shapes != self.shapes or arrays.flat.shape != self.flat_shape:
                raise ShapeError(f"arrays of shapes {[a.shape for a in arrays]} do not "
                                 f"match the optimizer's {self.flat_shape} state")
        p, g = params.flat, grads.flat
        diverged: dict[int, int] = {}
        finite = np.isfinite(g)
        if not finite.all():
            ends = np.cumsum([math.prod(shape) for shape in self.shapes])
            for s, row in enumerate(finite.reshape(-1, g.shape[-1])):
                if not row.all():
                    diverged[s] = int(np.searchsorted(ends, np.argmin(row), side="right"))
            if not self.stacked:
                raise DivergenceError(f"non-finite gradient in {_parameter_name(diverged[0])}")
        if self.strategies.centralize:
            for w in grads[0::2]:
                w[...] = _centralize_rows(w)

        lr = self.learning_rate(epoch)
        b1, b2, eps = self.config.beta1, self.config.beta2, self.config.epsilon
        self.t += 1
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        m, v, u = (None if a is None else a.flat for a in (self.m, self.v, self.u))
        # m *= b1; m += x rounds exactly like b1 * m + x
        if m is not None:
            m *= b1
            m += (1.0 - b1) * g
        if v is not None:
            v *= b2
            v += (1.0 - b2) * (g * g)
        kind = self.config.kind
        if kind == "adam":
            p -= lr * (m / c1) / np.sqrt(v / c2 + eps)
        elif kind == "nadam":
            p -= lr * (b1 * (m / c1) + (1.0 - b1) * (g / c1)) / np.sqrt(v / c2 + eps)
        elif kind == "rmsprop":
            p -= lr * g / np.sqrt(v + eps)
        else:  # adamax
            u *= b2
            np.maximum(u, np.abs(g), out=u)
            p -= lr * (m / c1) / (u + eps)

        if self._noise_rngs is not None:
            tau = self.strategies.noise_tau
            for row, rng in zip(p if self.stacked else (p,), self._noise_rngs):
                row += rng.uniform(-tau, tau, size=row.shape)
        return diverged


@dataclass
class TrainingTrace:
    """Per-epoch log: (epoch, lr, train_loss, val_loss or None)."""

    rows: list

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["epoch,lr,train_loss,val_loss"]
        for epoch, lr, train_loss, val_loss in self.rows:
            val = "" if val_loss is None else repr(float(val_loss))
            lines.append(f"{epoch},{lr!r},{float(train_loss)!r},{val}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TrainingTrace":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != "epoch,lr,train_loss,val_loss":
            raise SchemaError("not a training trace file")
        rows = []
        for ln in lines[1:]:
            epoch, lr, train_loss, val_loss = ln.split(",")
            rows.append(
                (
                    int(epoch),
                    float(lr),
                    float(train_loss),
                    None if val_loss == "" else float(val_loss),
                )
            )
        return cls(rows)


TRAIN_ROWS = 4096
"""Rows per block of a training pass. For a 4 -> 16 -> 21 quantile network
a block's workspace takes about 3 MB, where one pass over 80,000 rows
writes 58 MB. 1,024 to 4,096 rows trained equally fast, within noise, on
a 2-vCPU Xeon; 4,096 keeps every batch of up to 4,096 rows one block."""


def _train_block(stack: Network, x, y, loss: Loss, work: Workspace, entries: int, grads):
    """One block's loss sum per slice, from forward and the loss run in
    work; unless grads is None, backward writes the block's gradient there."""
    pred, cache = forward(stack, x, want_cache=True, work=work)
    value, dpred = loss.value_and_grad(pred, y, want_grad=grads is not None, entries=entries,
                                       out=work.dpred[:, :len(x)])
    if grads is not None:
        backward(stack, cache, dpred, out=grads)
    return value


def _train_pass(stack: Network, x, y, loss: Loss, work: Workspace, want_grad: bool = True,
                workers: "_BlockWorkers | None" = None):
    """The loss of stack on (x, y), per slice, and unless want_grad is
    False its gradient (work.grads, else None), from forward, loss and
    backward run on each block of TRAIN_ROWS rows in turn.

    Each block adds its sum to the loss and its gradient to the gradient,
    in order; the loss is divided by the batch's entry count at the end.
    A batch of one block is passed on as it is, not sliced. workers,
    started on the same x and y, share the blocks out and give the same
    bytes.
    """
    if workers is not None:
        return workers.run(stack, work, want_grad)
    n = len(x)
    entries = n * loss.n_outputs
    blocks = [(x, y)] if n <= TRAIN_ROWS else [
        (x[lo:lo + TRAIN_ROWS], y[lo:lo + TRAIN_ROWS]) for lo in range(0, n, TRAIN_ROWS)
    ]
    for i, (xb, yb) in enumerate(blocks):
        out = None if not want_grad else work.block_grads if i else work.grads
        value = _train_block(stack, xb, yb, loss, work, entries, out)
        total = total + value if i else value
        if want_grad and i:
            work.grads.flat += work.block_grads.flat
    return total / entries, work.grads if want_grad else None


class _BlockWorkers:
    """Forked processes that compute blocks of a stack's full-batch
    training passes beside the training process (_util.forked).

    For each pass the parent puts the parameters in shared memory, writes
    the pass's claims to a pipe that every process reads, and sends each
    worker one byte. Every process then takes one claim per 8-byte read,
    until the pipe is empty, and leaves each claimed block's loss sum and
    gradient in that block's slot of shared memory; each worker then
    answers. The parent adds the slots up in block order, as _train_pass
    does, so a descheduled process delays a pass by at most one claim and
    the sums are bit for bit those of one process. A claim is the first of
    `step` blocks, so that a pass's claims fit in one write of at most
    PIPE_BUF bytes, which an empty pipe takes at once. A block of rows
    that are not C-ordered is copied into the workspace of the process
    that runs it. Where no worker could be forked the parent claims every
    block. A worker that dies fails the pass.
    """

    @classmethod
    @contextlib.contextmanager
    def started(cls, stack: Network, x, y, loss: Loss):
        """Workers for the full-batch passes of stack on (x, y), ended and
        reaped when the with block ends, or None where this process does
        them alone (see _ways)."""
        ways = _ways(len(x), stack.flat.shape)
        if not _util.children(ways, here=True):
            yield None
            return
        workers = cls(stack, x, y, loss)
        try:
            with _util.forked("training", workers._serve, ways, here=True) as workers.children:
                yield workers
        finally:
            os.close(workers.claims_r)
            os.close(workers.claims_w)

    def __init__(self, stack: Network, x, y, loss: Loss):
        import mmap
        import select

        self.x, self.y, self.loss, self.rows = x, y, loss, TRAIN_ROWS
        self.blocks = -(-len(x) // self.rows)
        self.entries = len(x) * loss.n_outputs
        s, p = stack.flat.shape
        shared = mmap.mmap(-1, 8 * (s * p + self.blocks * s * (1 + p)))
        floats = np.frombuffer(shared, np.float64)
        self.params = floats[:s * p].reshape(s, p)
        self.losses = floats[s * p:s * p + self.blocks * s].reshape(self.blocks, s)
        self.grads = floats[s * p + self.blocks * s:].reshape(self.blocks, s, p)
        self.architecture = stack.architecture
        self.step = -(-self.blocks // (select.PIPE_BUF // 8))
        self.claims = b"".join(lo.to_bytes(8, "little") for lo in range(0, self.blocks, self.step))
        self.claims_r, self.claims_w = os.pipe()
        os.set_blocking(self.claims_r, False)

    def _serve(self, i: int, n: int, commands: int):
        """A worker's answers: a pass per command byte, until the pipe ends."""
        net = Network.viewing(self.architecture, np.empty(self.params.shape))
        work = Workspace(net, self.rows)
        with np.errstate(over="ignore", invalid="ignore"):
            while command := os.read(commands, 1):
                net.flat[...] = self.params
                self._run_blocks(net, work, command == b"g")
                yield b"d"

    def _run_blocks(self, net: Network, work: Workspace, want_grad: bool) -> None:
        """Claim blocks and run them, until every claim is taken."""
        while True:
            try:
                lo = int.from_bytes(os.read(self.claims_r, 8), "little")
            except BlockingIOError:
                return
            for b in range(lo, min(lo + self.step, self.blocks)):
                rows = slice(b * self.rows, (b + 1) * self.rows)
                grads = work.block_grads if want_grad else None
                self.losses[b] = _train_block(net, self.x[rows], self.y[rows], self.loss, work,
                                              self.entries, grads)
                if want_grad:
                    self.grads[b] = grads.flat

    def run(self, stack: Network, work: Workspace, want_grad: bool):
        """_train_pass's result for stack, its blocks shared with the workers."""
        self.params[...] = stack.flat
        os.write(self.claims_w, self.claims)
        for child in self.children:
            child.send(b"g" if want_grad else b"l")
        self._run_blocks(stack, work, want_grad)
        for child in self.children:
            child.receive()
        total = self.losses[0]
        for value in self.losses[1:]:
            total = total + value
        if want_grad:
            work.grads.flat[...] = self.grads[0]
            for grads in self.grads[1:]:
                work.grads.flat += grads
        return total / self.entries, work.grads if want_grad else None


STACK_BYTES = 32 * 2**20
"""Cap on the activations of one stacked training step, counted over the
batch's rows: a pre-activation and an activation, 8 bytes each, per row,
unit and network. The cache holds at most TRAIN_ROWS rows, so this bounds it.
It also caps the block results a full-batch pass leaves in shared memory."""


def _step_rows(n_rows: int, batch_size: int | None) -> int:
    """The rows of one batch: all n_rows (full batch) where batch_size is
    None, 0 or at least n_rows."""
    return n_rows if not batch_size or batch_size >= n_rows else batch_size


def stack_size(architecture, n_rows: int, batch_size: int | None = None) -> int:
    """How many networks train_seeds should stack to train on n_rows rows.

    As many as keep the activations of one batch's rows within STACK_BYTES,
    an upper bound on the cache of at most TRAIN_ROWS rows, and at least one.
    """
    per_network = _step_rows(n_rows, batch_size) * sum(architecture.layer_sizes[1:]) * 16
    return max(1, STACK_BYTES // per_network)


def _ways(n_rows: int, shape) -> int:
    """How many ways a full-batch pass on n_rows rows of a stack whose
    flat parameters have shape (S, P) may be split over processes: one
    per block, or 1 where the blocks' results would take more than
    STACK_BYTES."""
    blocks = -(-n_rows // TRAIN_ROWS)
    s, p = shape
    return blocks if 8 * blocks * s * (p + 1) <= STACK_BYTES else 1


def forks_workers(architecture, n_rows: int, batch_size: int | None = None) -> bool:
    """Whether train_seeds, training networks of architecture on n_rows
    rows in batches of batch_size, may share its passes with forked
    workers: whether a full-batch stack of one network, the smallest a
    stack can be, would start them."""
    params = sum(map(math.prod, architecture.param_shapes))
    return (_step_rows(n_rows, batch_size) == n_rows
            and _util.children(_ways(n_rows, (1, params)), here=True) > 0)


def train(
    net: Network,
    train_set,
    val_set,
    opt_config: OptimizerConfig,
    strategies: StrategyConfig,
    loss: Loss,
    epochs: int,
    batch_size: int | None = None,
    early_stop_patience: int | None = None,
) -> tuple[Network, TrainingTrace]:
    """Gradient-descent training loop over full or sequential batches.

    The network's parameters are updated in place. Each trace row records
    the epoch's learning rate and the full-train-set (and validation)
    loss measured after that epoch's updates. With early stopping, the
    parameters of the best validation epoch are restored before
    returning; the cosine schedule still runs against its planned horizon.
    A non-finite gradient or training loss raises DivergenceError naming
    the epoch, the parameter (W0, b0, ...) whose gradient it was, and the
    last finite train_loss.

    This is train_seeds on a stack of one network.
    """
    (result,) = train_seeds(
        [net], train_set, val_set, opt_config, strategies, loss, epochs,
        batch_size, early_stop_patience,
    )
    if isinstance(result, DivergenceError):
        raise result
    return net, result


def train_seeds(
    nets,
    train_set,
    val_set,
    opt_config: OptimizerConfig,
    strategies: StrategyConfig,
    loss: Loss,
    epochs: int,
    batch_size: int | None = None,
    early_stop_patience: int | None = None,
    noise_seeds=None,
) -> list:
    """Train networks of one architecture together, as one stacked network.

    Network s draws its parameter noise from a stream seeded
    noise_seeds[s] (default: strategies.noise_seed for every network);
    otherwise each follows bit for bit the trajectory train() gives it
    alone. Returns one entry per network: its TrainingTrace, with the
    network's parameters updated, or the DivergenceError that ended its
    run, with the network left as it was. A run ends when it diverges,
    stops early or ends its last epoch; its slice trains on with a zero
    gradient, so one stack shape serves the call until every run has ended.

    An epoch runs its batches in order, each through one training pass
    (see the module docstring) in a workspace of min(batch rows,
    TRAIN_ROWS) rows. A batch_size of None, 0 or at least the training-set
    size means full batch: one batch of every row. There the pass on the
    training set after epoch e's update is the one epoch e+1
    differentiates (same parameters, same rows), so it runs once and gives
    both epoch e's train_loss and epoch e+1's gradient: E epochs cost
    E + 1 training-set passes instead of 2E; a pass of several blocks
    shares them with forked workers, one per other usable CPU. With
    minibatches, and for the validation loss, each network is evaluated on
    its own, unblocked, after the epoch's updates.
    """
    if epochs < 0:
        raise SchemaError("epochs must be >= 0")
    if len(train_set) == 0:
        raise SchemaError("training set is empty")
    has_val = val_set is not None and len(val_set) > 0
    if early_stop_patience is not None and not has_val:
        raise SchemaError("early stopping requires a validation set")
    if strategies.cosine_lr and epochs > strategies.total_epochs:
        raise ScheduleOverflowError(
            f"{epochs} epochs exceed the schedule horizon {strategies.total_epochs}"
        )
    if noise_seeds is None:
        noise_seeds = [strategies.noise_seed] * len(nets)
    if len(noise_seeds) != len(nets):
        raise SchemaError("one noise seed per network expected")
    if not nets:
        return []

    stack = stack_networks(nets)
    slices = unstack_network(stack)
    optimizer = Optimizer(opt_config, strategies, stack.parameters(), noise_seeds)
    ended: list = []  # the slices whose runs have ended
    results: list = [TrainingTrace([]) for _ in nets]  # or the DivergenceError that ends a run
    best_val = [math.inf] * len(nets)
    best_params: list = [None] * len(nets)  # flat copies
    best_epoch = [0] * len(nets)
    n = len(train_set)
    step_rows = _step_rows(n, batch_size)
    full_batch = step_rows == n
    # forward copies rows that are not C-ordered; rows it sees every epoch
    # are copied once here instead, but for a full batch's, which a pass
    # copies a block at a time
    train_x = train_set.x if full_batch else np.ascontiguousarray(train_set.x)
    val_x = np.ascontiguousarray(val_set.x) if has_val else None
    batches = [(train_x, train_set.y)] if full_batch else [
        (train_x[lo:lo + batch_size], train_set.y[lo:lo + batch_size])
        for lo in range(0, n, batch_size)
    ]
    work, grads = Workspace(stack, min(step_rows, TRAIN_ROWS)), None
    blocked = full_batch and epochs > 0
    with (_BlockWorkers.started(stack, train_x, train_set.y, loss) if blocked
          else contextlib.nullcontext()) as workers:
        for epoch in range(1, epochs + 1):
            lr = optimizer.learning_rate(epoch)
            diverged: dict[int, int] = {}
            # overflow here is not a bug but a diverging run; the non-finite
            # checks below end it with a DivergenceError
            with np.errstate(over="ignore", invalid="ignore"):
                for x, y in batches:
                    if grads is None:  # else the last full-batch pass left this epoch's
                        _, grads = _train_pass(stack, x, y, loss, work, workers=workers)
                    if ended:  # a diverged slice's rows would never settle in centralization
                        grads.flat[ended] = 0.0
                    for s, k in optimizer.step(stack.params, grads, epoch).items():
                        diverged.setdefault(s, k)
                    grads = None
                if full_batch:
                    train_losses, grads = _train_pass(stack, train_x, train_set.y, loss,
                                                      work, epoch < epochs, workers)
                else:
                    train_losses = [
                        None if s in diverged or s in ended
                        else loss.value(forward(net, train_x), train_set.y)
                        for s, net in enumerate(slices)
                    ]

            for s, net in enumerate(slices):
                if s in ended:
                    continue
                if s in diverged or not math.isfinite(train_losses[s]):
                    cause = (f"non-finite gradient in {_parameter_name(diverged[s])}"
                             if s in diverged else f"training loss is {float(train_losses[s])}")
                    rows = results[s].rows
                    last = (f"last finite train_loss {rows[-1][2]!r} at epoch {rows[-1][0]}"
                            if rows else "no finite train_loss yet")
                    results[s] = DivergenceError(f"epoch {epoch}: {cause}; {last}")
                    ended.append(s)
                    continue
                val_loss = loss.value(forward(net, val_x), val_set.y) if has_val else None
                results[s].rows.append((epoch, lr, float(train_losses[s]), val_loss))
                if early_stop_patience is not None and val_loss < best_val[s]:
                    best_val[s] = val_loss
                    best_params[s] = net.flat.copy()
                    best_epoch[s] = epoch
                stopped = (early_stop_patience is not None
                           and epoch - best_epoch[s] > early_stop_patience)
                if stopped or epoch == epochs:  # its network takes the trained or best parameters
                    nets[s].flat[...] = net.flat if best_params[s] is None else best_params[s]
                    ended.append(s)
            if len(ended) == len(nets):
                break
    return results

