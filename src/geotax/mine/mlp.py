"""Self-contained MLP engine: forward, backprop, Adam, dropout, clipping.

Everything runs in float64 numpy so analytic gradients can be checked
against central finite differences to tight tolerances.  Parameters and
gradients live in single flat buffers (layer views share the memory),
which keeps the optimizer to a handful of vector operations per step.
All randomness (init, dropout masks, batch order) flows from one
generator, so a fixed seed reproduces final weights bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.rng import SeedSpec, rng_create
from ..errors import ConfigError, DataError
from ..procrustes import sigmoid

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Classifier early stopping: held-out share and epochs without improvement.
VAL_FRACTION = 0.15
PATIENCE = 20


@dataclass(frozen=True)
class MLPConfig:
    """Training knobs for the statistics/probe networks."""

    hidden: tuple = (256, 128)
    dropout: float = 0.10
    lr: float = 1e-4
    epochs: int = 500
    batch_size: int = 64
    clip_inf: float = 5.0       # rescale when max|grad| exceeds this

    def __post_init__(self):
        if not all(w >= 1 for w in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")


class MLP:
    """Fully connected ReLU network with a linear output layer."""

    def __init__(self, in_dim: int, hidden: tuple, out_dim: int, rng: np.random.Generator):
        dims = [in_dim, *hidden, out_dim]
        self.dims = dims
        total = sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))
        self.theta = np.empty(total)
        self.grad = np.zeros(total)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._gw: list[np.ndarray] = []
        self._gb: list[np.ndarray] = []
        off = 0
        for fi, fo in zip(dims[:-1], dims[1:]):
            w = self.theta[off : off + fi * fo].reshape(fi, fo)
            gw = self.grad[off : off + fi * fo].reshape(fi, fo)
            off += fi * fo
            b = self.theta[off : off + fo]
            gb = self.grad[off : off + fo]
            off += fo
            w[...] = rng.standard_normal((fi, fo)) * np.sqrt(2.0 / fi)  # He init
            b[...] = 0.0
            self.weights.append(w)
            self.biases.append(b)
            self._gw.append(gw)
            self._gb.append(gb)
        self.hidden_total = sum(dims[1:-1])

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray, dropout: float = 0.0,
                rng: np.random.Generator | None = None):
        """Returns (output, cache).  Inverted dropout applies after each
        hidden ReLU when dropout > 0 and an rng is supplied; one random
        draw covers all hidden layers of the batch."""
        x = np.asarray(x, dtype=np.float64)
        acts = [x]
        masks: list[np.ndarray | None] = []
        if dropout > 0.0 and rng is not None and self.hidden_total:
            pool = (rng.random((x.shape[0], self.hidden_total)) >= dropout) / (1.0 - dropout)
        else:
            pool = None
        col = 0
        h = x
        for i in range(self.n_layers - 1):
            h = np.maximum(h @ self.weights[i] + self.biases[i], 0.0)
            if pool is not None:
                width = self.dims[i + 1]
                mask = pool[:, col : col + width]
                col += width
                h = h * mask
            else:
                mask = None
            masks.append(mask)
            acts.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, (acts, masks)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Fill the flat gradient buffer; returns it for convenience."""
        acts, masks = cache
        delta = np.asarray(grad_out, dtype=np.float64)
        np.matmul(acts[-1].T, delta, out=self._gw[-1])
        self._gb[-1][...] = delta.sum(axis=0)
        upstream = delta @ self.weights[-1].T
        for i in range(self.n_layers - 2, -1, -1):
            if masks[i] is not None:
                upstream *= masks[i]
            upstream *= acts[i + 1] > 0.0
            np.matmul(acts[i].T, upstream, out=self._gw[i])
            self._gb[i][...] = upstream.sum(axis=0)
            if i > 0:
                upstream = upstream @ self.weights[i].T
        return self.grad

    def snapshot(self) -> np.ndarray:
        return self.theta.copy()

    def restore(self, theta: np.ndarray) -> None:
        self.theta[...] = theta


def clip_gradient(grad: np.ndarray, bound: float) -> np.ndarray:
    """Rescale in place so the infinity norm does not exceed ``bound``."""
    if np.isfinite(bound) and bound > 0:
        peak = np.abs(grad).max() if grad.size else 0.0
        if peak > bound:
            grad *= bound / peak
    return grad


class Adam:
    """Adam on a flat parameter vector (beta1=0.9, beta2=0.999)."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        theta -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + ADAM_EPS)


def train_binary_classifier(
    inputs: np.ndarray,
    labels01: np.ndarray,
    cfg: MLPConfig,
    seed: SeedSpec | int = SeedSpec(),
) -> MLP:
    """Logistic-loss training with early stopping on a validation split.

    Holds out ``VAL_FRACTION`` of the samples, keeps the best-validation
    weights, and stops after ``PATIENCE`` epochs without improvement.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels01, dtype=np.float64).reshape(-1, 1)
    rng = rng_create(SeedSpec.coerce(seed).derive("mlp-classifier"))
    n = x.shape[0]
    perm = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    y_val_pm = np.where(y[val_idx] > 0, 1.0, -1.0)
    net = MLP(x.shape[1], cfg.hidden, 1, rng)
    opt = Adam(net.theta.size, cfg.lr)
    best_loss, best_theta = np.inf, net.snapshot()
    stale = 0
    for _ in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, cache = net.forward(x[idx], cfg.dropout, rng)
            net.backward(cache, (sigmoid(out) - y[idx]) / idx.size)
            opt.step(net.theta, clip_gradient(net.grad, cfg.clip_inf))
        val_loss = float(np.logaddexp(0.0, -y_val_pm * net.predict(x[val_idx])).mean())
        if not np.isfinite(val_loss):
            raise DataError("classifier: loss left the finite range")
        if val_loss < best_loss - 1e-12:
            best_loss, best_theta = val_loss, net.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    net.restore(best_theta)
    return net
