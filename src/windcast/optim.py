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
from .network import Loss, Network, backward, forward

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
    out = g
    for _ in range(8):
        mean = out.mean(axis=1, keepdims=True)
        magnitude = np.abs(out).max(axis=1, keepdims=True)
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

    Moments are allocated zero; the step counter starts at 0 and advances
    once per step() call. The noise stream, when enabled, is seeded
    independently of anything else so a tau=0 rerun reproduces the
    noiseless trajectory exactly.
    """

    def __init__(self, config: OptimizerConfig, strategies: StrategyConfig, params):
        self.config = config
        self.strategies = strategies
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.u = [np.zeros_like(p) for p in params]
        self._noise_rng = (
            np.random.default_rng([strategies.noise_seed, 1])
            if strategies.noise_tau > 0.0
            else None
        )

    def learning_rate(self, epoch: int) -> float:
        """Rate for the given 1-indexed epoch: cosine when enabled, else fixed."""
        if self.strategies.cosine_lr:
            return cosine_lr(epoch, self.strategies.initial_lr, self.strategies.total_epochs)
        return self.config.fixed_lr

    def step(self, params, grads, epoch: int = 1) -> None:
        """Update every parameter array in place from its gradient."""
        if len(params) != len(self.m) or len(grads) != len(params):
            raise ShapeError("parameter/gradient count does not match optimizer state")
        lr = self.learning_rate(epoch)
        b1, b2, eps = self.config.beta1, self.config.beta2, self.config.epsilon
        kind = self.config.kind
        self.t += 1
        t = self.t
        for k, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=float)
            if g.shape != p.shape:
                raise ShapeError(
                    f"parameter {k}: gradient shape {g.shape} != {p.shape}"
                )
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in parameter {k}")
            if self.strategies.centralize:
                g = centralize_gradient(g)

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

            if self._noise_rng is not None:
                tau = self.strategies.noise_tau
                p += self._noise_rng.uniform(-tau, tau, size=p.shape)


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

    A batch_size of None, 0 or at least the training-set size means full
    batch. There the forward pass on the training set after epoch e's
    update is the one epoch e+1 differentiates (same parameters, same
    rows), so it runs once, with a cache, and gives both epoch e's
    train_loss and epoch e+1's gradient: E epochs cost E + 1 training-set
    forward passes and loss evaluations instead of 2E. Trace rows and
    parameters are bitwise the same as with a separate evaluation pass.
    """
    if epochs < 0:
        raise SchemaError("epochs must be >= 0")
    if len(train_set) == 0:
        raise SchemaError("training set is empty")
    if early_stop_patience is not None and (val_set is None or len(val_set) == 0):
        raise SchemaError("early stopping requires a validation set")
    if strategies.cosine_lr and epochs > strategies.total_epochs:
        raise ScheduleOverflowError(
            f"{epochs} epochs exceed the schedule horizon {strategies.total_epochs}"
        )

    params = net.parameters()
    optimizer = Optimizer(opt_config, strategies, params)
    n = len(train_set)
    full_batch = not batch_size or batch_size >= n
    rows = []
    best_val = math.inf
    best_params = None
    waited = 0
    for epoch in range(1, epochs + 1):
        lr = optimizer.learning_rate(epoch)
        try:
            # overflow here is not a bug but a diverging run; the non-finite
            # checks below turn it into a DivergenceError
            with np.errstate(over="ignore", invalid="ignore"):
                if full_batch:
                    if epoch == 1:
                        pred, cache = forward(net, train_set.x, want_cache=True)
                        _, dpred = loss.value_and_grad(pred, train_set.y)
                    grads = backward(net, cache, dpred)
                    optimizer.step(params, grads, epoch)
                    # Drop the old cache before the next is built, to hold peak
                    # memory down. dpred is left for the new gradient to
                    # replace: freeing it too let glibc trim the heap top, and
                    # the next pass page-faulted that memory back in.
                    pred = cache = None
                    pred, cache = forward(net, train_set.x, want_cache=True)
                    train_loss, dpred = loss.value_and_grad(
                        pred, train_set.y, want_grad=epoch < epochs
                    )
                else:
                    for lo in range(0, n, batch_size):
                        sl = slice(lo, min(lo + batch_size, n))
                        pred, cache = forward(net, train_set.x[sl], want_cache=True)
                        _, dpred = loss.value_and_grad(pred, train_set.y[sl])
                        grads = backward(net, cache, dpred)
                        optimizer.step(params, grads, epoch)
                    train_loss = loss.value(forward(net, train_set.x), train_set.y)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch}: {exc}") from None
        if not math.isfinite(train_loss):
            raise DivergenceError(f"epoch {epoch}: training loss is {train_loss}")
        val_loss = None
        if val_set is not None and len(val_set) > 0:
            val_loss = loss.value(forward(net, val_set.x), val_set.y)
        rows.append((epoch, lr, train_loss, val_loss))

        if early_stop_patience is not None:
            if val_loss < best_val:
                best_val = val_loss
                best_params = [p.copy() for p in params]
                waited = 0
            else:
                waited += 1
                if waited > early_stop_patience:
                    break

    if best_params is not None:
        for p, best in zip(params, best_params):
            p[...] = best
    return net, TrainingTrace(rows)
