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
network.py) with each slice following its solo trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    ScheduleOverflowError,
    SchemaError,
    ShapeError,
)
from .network import Loss, Network, backward, forward, stack_networks, unstack_network

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
        if self.epsilon <= 0.0:
            raise SchemaError("epsilon must be > 0")
        if self.fixed_lr <= 0.0:
            raise SchemaError("fixed_lr must be > 0")


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
        if self.initial_lr <= 0.0:
            raise SchemaError("initial_lr must be > 0")
        if self.total_epochs < 1:
            raise SchemaError("total_epochs must be >= 1")
        if self.noise_tau < 0.0:
            raise SchemaError("noise_tau must be >= 0")


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
    return alpha0 * (1.0 + math.cos(math.pi * t / total_epochs)) / 2.0


class Optimizer:
    """Stateful update rule over a fixed list of parameter arrays.

    The list is ordered like Network.parameters(), so the weights, which
    centralization applies to, sit at the even positions. Only the state
    the kind reads is allocated, zero: m and v for adam and nadam, v for
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
        self.n_params = len(params)
        kind = config.kind
        self.m = [np.zeros_like(p) for p in params] if kind != "rmsprop" else None
        self.v = [np.zeros_like(p) for p in params] if kind != "adamax" else None
        self.u = [np.zeros_like(p) for p in params] if kind == "adamax" else None
        self.stacked = noise_seeds is not None
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

    def keep_slices(self, keep) -> None:
        """Retain the state of the given stack slices only, in that order."""
        for name in ("m", "v", "u"):
            state = getattr(self, name)
            if state is not None:
                setattr(self, name, [a[keep] for a in state])
        if self._noise_rngs is not None:
            self._noise_rngs = [self._noise_rngs[s] for s in keep]

    def step(self, params, grads, epoch: int = 1) -> dict[int, int]:
        """Update every parameter array in place from its gradient.

        A non-finite gradient raises DivergenceError. A stacked optimizer
        updates every slice instead and returns, for each slice with a
        non-finite gradient, the index of the first such parameter.
        """
        if len(params) != self.n_params or len(grads) != len(params):
            raise ShapeError("parameter/gradient count does not match optimizer state")
        lr = self.learning_rate(epoch)
        b1, b2, eps = self.config.beta1, self.config.beta2, self.config.epsilon
        kind = self.config.kind
        self.t += 1
        t = self.t
        diverged: dict[int, int] = {}
        for k, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=float)
            if g.shape != p.shape:
                raise ShapeError(
                    f"parameter {k}: gradient shape {g.shape} != {p.shape}"
                )
            if not np.all(np.isfinite(g)):
                if not self.stacked:
                    raise DivergenceError(f"non-finite gradient in parameter {k}")
                finite = np.isfinite(g).reshape(len(g), -1).all(axis=1)
                for s in np.flatnonzero(~finite):
                    diverged.setdefault(int(s), k)
            if self.strategies.centralize and k % 2 == 0:
                g = _centralize_rows(g)

            if kind == "adam":
                self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
                self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
                m_hat = self.m[k] / (1.0 - b1 ** t)
                v_hat = self.v[k] / (1.0 - b2 ** t)
                p -= lr * m_hat / np.sqrt(v_hat + eps)
            elif kind == "nadam":
                self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
                self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
                m_hat = self.m[k] / (1.0 - b1 ** t)
                v_hat = self.v[k] / (1.0 - b2 ** t)
                g_hat = g / (1.0 - b1 ** t)
                p -= lr * (b1 * m_hat + (1.0 - b1) * g_hat) / np.sqrt(v_hat + eps)
            elif kind == "rmsprop":
                self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
                p -= lr * g / np.sqrt(self.v[k] + eps)
            else:  # adamax
                self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
                self.u[k] = np.maximum(b2 * self.u[k], np.abs(g))
                m_hat = self.m[k] / (1.0 - b1 ** t)
                p -= lr * m_hat / (self.u[k] + eps)

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


STACK_BYTES = 32 * 2**20
"""Cap on the activations one stacked training step caches: a cached
forward pass keeps a pre-activation and an activation, 8 bytes each, per
row, unit and network."""


def stack_size(architecture, n_rows: int, batch_size: int | None = None) -> int:
    """How many networks train_seeds should stack to train on n_rows rows.

    As many as keep the cached activations of one batch within
    STACK_BYTES, and at least one.
    """
    rows = n_rows if not batch_size or batch_size >= n_rows else batch_size
    per_network = rows * sum(architecture.layer_sizes[1:]) * 16
    return max(1, STACK_BYTES // per_network)


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
    the epoch.

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
    run, with the network left as it was. A network leaves the stack when
    it diverges or stops early; the others go on.

    A batch_size of None, 0 or at least the training-set size means full
    batch. There the forward pass on the training set after epoch e's
    update is the one epoch e+1 differentiates (same parameters, same
    rows), so it runs once, with a cache, and gives both epoch e's
    train_loss and epoch e+1's gradient: E epochs cost E + 1 training-set
    forward passes and loss evaluations instead of 2E. With minibatches,
    and for the validation loss, each network is evaluated on its own
    after the epoch's updates, so the stack caches one batch at a time.
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
    ids = list(range(len(nets)))  # the network each stack slice trains
    results: list = [None] * len(nets)
    rows: list = [[] for _ in nets]
    best_val = [math.inf] * len(nets)
    best_params: list = [None] * len(nets)
    waited = [0] * len(nets)
    n = len(train_set)
    full_batch = not batch_size or batch_size >= n
    cache = None
    for epoch in range(1, epochs + 1):
        lr = optimizer.learning_rate(epoch)
        params = stack.parameters()
        # overflow here is not a bug but a diverging run; the non-finite
        # checks below end it with a DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            if full_batch:
                if cache is None:
                    pred, cache = forward(stack, train_set.x, want_cache=True)
                    _, dpred = loss.value_and_grad(pred, train_set.y)
                diverged = optimizer.step(params, backward(stack, cache, dpred), epoch)
                # Drop the old cache before the next is built, to hold peak
                # memory down. dpred is left for the new gradient to
                # replace: freeing it too let glibc trim the heap top, and
                # the next pass page-faulted that memory back in.
                pred = cache = None
                pred, cache = forward(stack, train_set.x, want_cache=True)
                train_losses, dpred = loss.value_and_grad(
                    pred, train_set.y, want_grad=epoch < epochs
                )
            else:
                diverged = {}
                for lo in range(0, n, batch_size):
                    sl = slice(lo, min(lo + batch_size, n))
                    pred, cache = forward(stack, train_set.x[sl], want_cache=True)
                    _, dpred = loss.value_and_grad(pred, train_set.y[sl])
                    failed = optimizer.step(params, backward(stack, cache, dpred), epoch)
                    for s, k in failed.items():
                        diverged.setdefault(s, k)
                train_losses = [
                    None if s in diverged else loss.value(forward(net, train_set.x), train_set.y)
                    for s, net in enumerate(slices)
                ]

        leaving = []
        for s, net in enumerate(slices):
            i = ids[s]
            if s in diverged:
                message = f"non-finite gradient in parameter {diverged[s]}"
            elif not math.isfinite(train_losses[s]):
                message = f"training loss is {float(train_losses[s])}"
            else:
                message = None
            if message is not None:
                results[i] = DivergenceError(f"epoch {epoch}: {message}")
                leaving.append(s)
                continue
            val_loss = loss.value(forward(net, val_set.x), val_set.y) if has_val else None
            rows[i].append((epoch, lr, float(train_losses[s]), val_loss))
            if early_stop_patience is not None:
                if val_loss < best_val[i]:
                    best_val[i] = val_loss
                    best_params[i] = [p.copy() for p in net.parameters()]
                    waited[i] = 0
                else:
                    waited[i] += 1
                    if waited[i] > early_stop_patience:
                        _finish(nets[i], net, best_params[i])
                        results[i] = TrainingTrace(rows[i])
                        leaving.append(s)
        if leaving:
            keep = [s for s in range(len(ids)) if s not in leaving]
            ids = [ids[s] for s in keep]
            if not ids:
                break
            stack = stack_networks([slices[s] for s in keep])
            slices = unstack_network(stack)
            optimizer.keep_slices(keep)
            # the next epoch recomputes the full-batch forward pass for the
            # remaining slices
            pred = cache = dpred = None

    for s, i in enumerate(ids):
        _finish(nets[i], slices[s], best_params[i])
        results[i] = TrainingTrace(rows[i])
    return results


def _finish(net: Network, trained: Network, best_params) -> None:
    """Copy the trained (or, with early stopping, best) parameters into net."""
    source = best_params if best_params is not None else trained.parameters()
    for p, q in zip(net.parameters(), source):
        p[...] = q
