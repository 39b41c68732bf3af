"""Small fully connected network trained with Adam on squared loss.

Hidden layers are ReLU, the output is a single linear unit.  Everything
runs in float64 so analytic gradients can be checked against central
finite differences.  Weights are a list alternating W and b per layer,
which keeps the forward and backward loops index-parallel.

During training the weights, their gradients and the two Adam moments
are each one flat float64 vector, laid out W0, b0, W1, b1, ... with each
W row-major; the per-layer arrays are reshaped views into it, so
backprop writes straight into the gradient vector and one Adam step is
a handful of whole-vector operations.  The fitted layers are copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import FloatArray, ModelSpec, Params, TrainedModel, check_training_data

MLP = "mlp"


class DivergenceError(RuntimeError):
    """Training loss left the realm of finite numbers."""


@dataclass(frozen=True)
class MlpParams(Params):
    families = (MLP,)
    layers: tuple[FloatArray, ...]  # W0, b0, W1, b1, ...

    def __post_init__(self):
        # W is (inputs, k) and b is (k,), where k is the next W's inputs (1 at the end).
        ws, bs = self.layers[::2], self.layers[1::2]
        outs = [w.shape[0] for w in ws[1:]] + [1]
        if not ws or len(ws) != len(bs) or any(
            w.shape[1:] != (k,) or b.shape != (k,) for w, b, k in zip(ws, bs, outs)
        ):
            raise ValueError("layers must alternate weight matrices and bias vectors "
                             "whose shapes chain from the inputs to one output")

    def check_features(self, n: int, path: str) -> None:
        rows = self.layers[0].shape[0]
        if rows != n:
            raise ValueError(f"model file: {path}: layers[0]: {rows} rows, "
                             f"not one per feature name ({n})")

    def predict(self, X: np.ndarray) -> np.ndarray:
        return forward(list(self.layers), np.asarray(X, dtype=float))


def init_weights(n_in: int, hidden: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    """He-normal weights, zero biases, one linear output unit."""
    sizes = [n_in, *hidden, 1]
    ws: list[np.ndarray] = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        ws.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        ws.append(np.zeros(fan_out))
    return ws


def forward(ws: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    a = X
    n_layers = len(ws) // 2
    for k in range(n_layers):
        z = a @ ws[2 * k] + ws[2 * k + 1]
        a = np.maximum(z, 0.0) if k < n_layers - 1 else z
    return a[:, 0]


def loss_and_grads(
    ws: list[np.ndarray], X: np.ndarray, y: np.ndarray, out: list[np.ndarray] | None = None
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error over the batch and its gradient per array.

    The gradients are written into ``out`` (arrays shaped like ``ws``)
    when it is given, and into new arrays otherwise.
    """
    n_layers = len(ws) // 2
    acts = [X]
    pre: list[np.ndarray] = []
    a = X
    for k in range(n_layers):
        z = a @ ws[2 * k] + ws[2 * k + 1]
        pre.append(z)
        a = np.maximum(z, 0.0) if k < n_layers - 1 else z
        acts.append(a)
    pred = acts[-1][:, 0]
    err = pred - y
    n = y.shape[0]
    loss = float(err @ err / n)

    grads = out if out is not None else [np.empty_like(w) for w in ws]
    delta = (2.0 / n) * err[:, None]
    for k in range(n_layers - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads[2 * k])
        np.add.reduce(delta, axis=0, out=grads[2 * k + 1])
        if k > 0:
            delta = (delta @ ws[2 * k].T) * (pre[k - 1] > 0.0)
    return loss, grads


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes`` (views, not copies)."""
    out = []
    start = 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        out.append(flat[start:stop].reshape(shape))
        start = stop
    return out


def fit_mlp(
    X: np.ndarray,
    y: np.ndarray,
    hidden: tuple[int, ...] = (5,),
    lr: float = 1e-3,
    batch_size: int = 32,
    max_epochs: int = 1000,
    patience: int = 20,
    seed: int = 0,
    dev: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainedModel:
    """Train the network with Adam and optional dev-loss early stopping.

    With a dev set, training stops after ``patience`` epochs without a
    new best dev loss and the best weights are restored.  max_epochs=0
    returns the untouched initialization.  Raises
    :class:`DivergenceError` when the loss goes non-finite.
    """
    X, y = check_training_data(X, y)
    if y.shape[0] == 0:
        raise ValueError("cannot train on zero rows")
    if any(h < 1 for h in hidden):
        raise ValueError(f"hidden sizes must be >= 1, got {hidden}")
    if lr <= 0 or batch_size < 1 or max_epochs < 0 or patience < 1:
        raise ValueError("bad training hyperparameters")

    rng = np.random.default_rng(seed)
    init = init_weights(X.shape[1], tuple(hidden), rng)
    shapes = [w.shape for w in init]
    theta = np.concatenate([w.ravel() for w in init])
    ws = _views(theta, shapes)
    grad = np.empty_like(theta)
    grads = _views(grad, shapes)
    n = y.shape[0]

    # Adam state, elementwise over the flat buffers
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    num = np.empty_like(theta)
    den = np.empty_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0

    best_dev = np.inf
    best_theta = None
    bad = 0
    for _ in range(max_epochs):
        perm = rng.permutation(n)
        Xp, yp = X[perm], y[perm]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            loss, _ = loss_and_grads(ws, Xp[start:stop], yp[start:stop], out=grads)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"training loss became {loss}; lower the learning rate "
                    f"(currently {lr:g})"
                )
            t += 1
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            m *= b1
            np.multiply(grad, 1 - b1, out=num)
            m += num
            v *= b2
            np.multiply(grad, grad, out=num)
            num *= 1 - b2
            v += num
            # theta -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
            np.divide(v, 1 - b2**t, out=den)
            np.sqrt(den, out=den)
            den += eps
            np.divide(m, 1 - b1**t, out=num)
            num *= lr
            num /= den
            theta -= num
        if dev is not None:
            dev_pred = forward(ws, np.asarray(dev[0], dtype=float))
            dev_err = dev_pred - np.asarray(dev[1], dtype=float)
            dev_loss = float(dev_err @ dev_err / dev_err.shape[0])
            if not np.isfinite(dev_loss):
                raise DivergenceError(
                    f"dev loss became {dev_loss}; lower the learning rate "
                    f"(currently {lr:g})"
                )
            if dev_loss < best_dev:
                best_dev = dev_loss
                best_theta = theta.copy()
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
    if best_theta is not None:
        theta = best_theta

    spec = ModelSpec(
        family=MLP,
        hyperparameters={
            "hidden": list(hidden),
            "lr": lr,
            "batch_size": batch_size,
            "max_epochs": max_epochs,
            "patience": patience,
        },
        seed=seed,
    )
    return TrainedModel(
        spec=spec, params=MlpParams(tuple(w.copy() for w in _views(theta, shapes)))
    )
