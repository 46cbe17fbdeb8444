"""Self-contained MLP engine: forward, backprop, Adam, dropout, clipping.

Everything runs in float64 numpy so analytic gradients can be checked
against central finite differences to tight tolerances.  Parameters and
gradients live in single flat buffers (layer views share the memory),
which keeps the optimizer to a handful of vector operations per step.
A forward and backward pass write every batch-sized array into a
``Workspace``.  The MINE cohort trainer builds one and steps every
network of the cohort through it, so a network step allocates no batch-sized
array; callers without one get fresh buffers from the same code.  All
randomness (init, dropout masks, batch order) flows from one generator,
so a fixed seed reproduces final weights bit-for-bit.
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
# Rows per optimizer step, and the max|grad| above which a gradient is rescaled.
BATCH_SIZE = 64
CLIP_INF = 5.0
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


class Workspace:
    """Batch buffers for networks with layer widths ``dims`` on up to
    ``rows`` inputs: the batch input and output gradient a training step
    fills, the dropout mask, each layer's output, and each hidden layer's
    upstream gradient and ReLU gate.  A pass's cache lives in these
    buffers until the next pass through the same workspace."""

    def __init__(self, dims: list, rows: int):
        hidden = dims[1:-1]
        self.input = np.empty((rows, dims[0]))
        self.grad_out = np.empty((rows, dims[-1]))
        self.mask = np.empty((rows, sum(hidden)))
        self.outs = [np.empty((rows, w)) for w in dims[1:]]
        self.upstream = [np.empty((rows, w)) for w in hidden]
        self.gates = [np.empty((rows, w), dtype=bool) for w in hidden]


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

    def dropout_mask(self, rows: int, rate: float, rng: np.random.Generator,
                     ws: Workspace | None = None) -> np.ndarray | None:
        """Inverted-dropout scales for every hidden unit of ``rows`` inputs,
        from one random draw, written into ``ws`` when given; None (and no
        draw) when ``rate`` is 0 or the network has no hidden layer.

        Equal to ``(rng.random(shape) >= rate) / (1 - rate)`` and drawing
        the same 64-bit words: ``random`` maps a word u to
        ``(u >> 11) * 2**-53``, which is >= rate exactly when
        u >= ceil(rate * 2**53) << 11, so the raw words need no float
        conversion."""
        if not (rate > 0.0 and self.hidden_total):
            return None
        raw = rng.bit_generator.random_raw((rows, self.hidden_total))
        keep = raw >= np.uint64(math.ceil(rate * 2.0**53) << 11)
        return np.divide(keep, 1.0 - rate, out=None if ws is None else ws.mask[:rows])

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None,
                ws: Workspace | None = None):
        """Returns (output, cache), both in ``ws`` (a fresh workspace when
        None).  A ``dropout_mask`` scales each hidden ReLU, one column block
        per hidden layer; None applies no dropout."""
        x = np.asarray(x, dtype=np.float64)
        rows = x.shape[0]
        if ws is None:
            ws = Workspace(self.dims, rows)
        acts = [x]
        masks: list[np.ndarray | None] = []
        col = 0
        for i in range(len(self.weights) - 1):
            h = np.matmul(acts[-1], self.weights[i], out=ws.outs[i][:rows])
            h += self.biases[i]
            np.maximum(h, 0.0, out=h)
            layer_mask = None
            if mask is not None:
                width = self.dims[i + 1]
                layer_mask = mask[:, col : col + width]
                col += width
                h *= layer_mask
            masks.append(layer_mask)
            acts.append(h)
        out = np.matmul(acts[-1], self.weights[-1], out=ws.outs[-1][:rows])
        out += self.biases[-1]
        return out, (acts, masks, ws)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Fill the flat gradient buffer; returns it for convenience.  The
        upstream gradients go into the workspace the forward pass used."""
        acts, masks, ws = cache
        delta = np.asarray(grad_out, dtype=np.float64)
        rows = delta.shape[0]
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=self._gw[i])
            self._gb[i][...] = delta.sum(axis=0)
            if i == 0:
                break
            upstream = np.matmul(delta, self.weights[i].T, out=ws.upstream[i - 1][:rows])
            if masks[i - 1] is not None:
                upstream *= masks[i - 1]
            upstream *= np.greater(acts[i], 0.0, out=ws.gates[i - 1][:rows])
            delta = upstream
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
        for start in range(0, order.size, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            out, cache = net.forward(x[idx], net.dropout_mask(idx.size, cfg.dropout, rng))
            net.backward(cache, (sigmoid(out) - y[idx]) / idx.size)
            opt.step(net.theta, clip_gradient(net.grad, CLIP_INF))
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
