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
        # a tuple, so a config can key the MINE cohorts
        object.__setattr__(self, "hidden", tuple(self.hidden))
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
        self._bind(dims, np.zeros(sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))))
        for w in self.weights:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])  # He init

    def _bind(self, dims: list, theta: np.ndarray) -> None:
        """Lay the layers out as views of the flat ``theta`` and gradient."""
        self.dims = dims
        self.theta = theta
        self.grad = np.zeros(theta.size)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._gw: list[np.ndarray] = []
        self._gb: list[np.ndarray] = []
        off = 0
        for fi, fo in zip(dims[:-1], dims[1:]):
            self.weights.append(theta[off : off + fi * fo].reshape(fi, fo))
            self._gw.append(self.grad[off : off + fi * fo].reshape(fi, fo))
            off += fi * fo
            self.biases.append(theta[off : off + fo])
            self._gb.append(self.grad[off : off + fo])
            off += fo
        self.hidden_total = sum(dims[1:-1])

    def clone(self) -> "MLP":
        """A network of the same shape starting from a copy of these weights."""
        twin = MLP.__new__(MLP)
        twin._bind(self.dims, self.theta.copy())
        return twin

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def dropout_mask(self, rows: int, rate: float,
                     rng: np.random.Generator) -> np.ndarray | None:
        """Inverted-dropout scales for every hidden unit of ``rows`` inputs,
        from one random draw; None (and no draw) when ``rate`` is 0 or the
        network has no hidden layer."""
        if not (rate > 0.0 and self.hidden_total):
            return None
        return (rng.random((rows, self.hidden_total)) >= rate) / (1.0 - rate)

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None):
        """Returns (output, cache).  A ``dropout_mask`` scales each hidden
        ReLU, one column block per hidden layer; None applies no dropout."""
        x = np.asarray(x, dtype=np.float64)
        acts = [x]
        masks: list[np.ndarray | None] = []
        col = 0
        h = x
        for i in range(self.n_layers - 1):
            h = np.maximum(h @ self.weights[i] + self.biases[i], 0.0)
            if mask is not None:
                width = self.dims[i + 1]
                layer_mask = mask[:, col : col + width]
                col += width
                h = h * layer_mask
            else:
                layer_mask = None
            masks.append(layer_mask)
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
            out, cache = net.forward(x[idx], net.dropout_mask(idx.size, cfg.dropout, rng))
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
