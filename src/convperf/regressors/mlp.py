"""Small fully connected network trained with Adam on squared loss.

Hidden layers are ReLU, the output is a single linear unit.  Everything
runs in float64 so analytic gradients can be checked against central
finite differences.  Weights live in one flat list alternating W and b
per layer, which keeps the forward, backward, and optimizer loops
index-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, TrainedModel, check_training_data, register_family

MLP = "mlp"


class DivergenceError(RuntimeError):
    """Training loss left the realm of finite numbers."""


@dataclass(frozen=True)
class MlpParams:
    layers: tuple[np.ndarray, ...]  # W0, b0, W1, b1, ...

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
    ws: list[np.ndarray], X: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error over the batch and its gradient per array."""
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

    grads: list[np.ndarray | None] = [None] * len(ws)
    delta = (2.0 / n) * err[:, None]
    for k in range(n_layers - 1, -1, -1):
        grads[2 * k] = acts[k].T @ delta
        grads[2 * k + 1] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ ws[2 * k].T) * (pre[k - 1] > 0.0)
    return loss, grads  # type: ignore[return-value]


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
    ws = init_weights(X.shape[1], tuple(hidden), rng)
    n = y.shape[0]

    # Adam state
    m = [np.zeros_like(w) for w in ws]
    v = [np.zeros_like(w) for w in ws]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0

    best_dev = np.inf
    best_ws = None
    bad = 0
    for _ in range(max_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = perm[start : start + batch_size]
            loss, grads = loss_and_grads(ws, X[rows], y[rows])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"training loss became {loss}; lower the learning rate "
                    f"(currently {lr:g})"
                )
            t += 1
            for k in range(len(ws)):
                m[k] = b1 * m[k] + (1 - b1) * grads[k]
                v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
                m_hat = m[k] / (1 - b1**t)
                v_hat = v[k] / (1 - b2**t)
                ws[k] = ws[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
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
                best_ws = [w.copy() for w in ws]
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
    if best_ws is not None:
        ws = best_ws

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
    return TrainedModel(spec=spec, params=MlpParams(tuple(ws)))


register_family(
    MLP,
    lambda p: {"layers": [w.tolist() for w in p.layers]},
    lambda o: MlpParams(
        tuple(np.array(w, dtype=float) for w in o["layers"])
    ),
)
