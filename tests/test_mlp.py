import numpy as np
import pytest

from convperf.regressors import (
    DivergenceError,
    MlpParams,
    fit_mlp,
)
from convperf.regressors.mlp import forward, init_weights, loss_and_grads


def fd_grads(ws, X, y, h=1e-6):
    """Central finite differences through the whole loss."""
    out = []
    for w in ws:
        g = np.zeros_like(w)
        flat = w.ravel()
        gf = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_grads(ws, X, y)
            flat[idx] = orig - h
            lm, _ = loss_and_grads(ws, X, y)
            flat[idx] = orig
            gf[idx] = (lp - lm) / (2.0 * h)
        out.append(g)
    return out


def min_abs_preactivation(ws, X):
    # finite differences are only trustworthy away from relu kinks
    a = X
    n_layers = len(ws) // 2
    smallest = np.inf
    for k in range(n_layers):
        z = a @ ws[2 * k] + ws[2 * k + 1]
        if k < n_layers - 1:
            smallest = min(smallest, float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        else:
            a = z
    return smallest


@pytest.mark.parametrize("hidden,seed", [((4,), 0), ((5, 3), 1), ((6,), 2)])
def test_gradients_match_finite_differences(hidden, seed):
    # deep nets can land a sample exactly on a relu kink (a fully dead
    # layer feeds the zero bias forward), so scan for a kink-free draw
    for attempt in range(30):
        rng = np.random.default_rng(100 * seed + attempt)
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        ws = init_weights(3, hidden, rng)
        if min_abs_preactivation(ws, X) > 1e-4:
            break
    else:
        pytest.fail("no kink-free initialization found")
    _, analytic = loss_and_grads(ws, X, y)
    numeric = fd_grads(ws, X, y)
    for ga, gf in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-6)
        assert (np.abs(ga - gf) / denom).max() < 1e-4


def test_loss_is_mean_squared_error():
    ws = [np.array([[1.0]]), np.array([0.0])]
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 0.0])
    loss, _ = loss_and_grads(ws, X, y)
    assert abs(loss - (1.0 + 4.0 + 9.0) / 3.0) < 1e-12


def test_forward_without_hidden_layers_is_linear():
    params = MlpParams(layers=(np.array([[2.0], [-1.0]]), np.array([3.0])))
    assert np.allclose(params.predict([[1.0, 1.0], [0.0, 2.0]]), [4.0, 1.0])


def test_max_epochs_zero_returns_initialization():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    model = fit_mlp(X, y, hidden=(4,), max_epochs=0, seed=5)
    expected = init_weights(3, (4,), np.random.default_rng(5))
    assert len(model.params.layers) == len(expected)
    for got, want in zip(model.params.layers, expected):
        assert np.array_equal(got, want)


def test_learns_smooth_interaction():
    rng = np.random.default_rng(42)
    corners = np.array(
        [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], dtype=float
    )
    X = np.tile(corners, (16, 1)) + 0.01 * rng.normal(size=(64, 2))
    y = X[:, 0] * X[:, 1]
    model = fit_mlp(X, y, hidden=(8,), lr=1e-2, max_epochs=500, seed=0)
    pred = model.predict_prepared(X)
    assert float(((pred - y) ** 2).mean()) < 0.05


def test_divergence_raises():
    # adam caps the step size at ~lr, so only an astronomically large
    # rate pushes the forward pass past float range and into inf loss
    rng = np.random.default_rng(7)
    X = rng.normal(size=(32, 3))
    y = rng.normal(size=32)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="learning rate"):
            fit_mlp(X, y, hidden=(8,), lr=1e200, max_epochs=200, seed=0)


def test_early_stopping_keeps_best_dev_weights():
    # train pushes predictions toward 1 while dev wants 0, so dev loss
    # worsens over time and stopping must hand back an early snapshot
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y_train = np.ones(40)
    y_dev = np.zeros(40)
    stopped = fit_mlp(
        X, y_train, hidden=(8,), lr=1e-2, max_epochs=300,
        patience=3, seed=2, dev=(X, y_dev),
    )
    plain = fit_mlp(X, y_train, hidden=(8,), lr=1e-2, max_epochs=300, seed=2)

    def dev_loss(model):
        err = model.predict_prepared(X) - y_dev
        return float(err @ err / err.shape[0])

    assert dev_loss(plain) > 0.5
    assert dev_loss(stopped) < dev_loss(plain)


def test_dev_bound_when_patience_never_triggers():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=30)
    Xd = rng.normal(size=(20, 2))
    yd = Xd[:, 0] - Xd[:, 1]
    kw = dict(hidden=(6,), lr=5e-3, seed=4)
    best = fit_mlp(X, y, max_epochs=30, patience=10_000, dev=(Xd, yd), **kw)
    first = fit_mlp(X, y, max_epochs=1, **kw)
    final = fit_mlp(X, y, max_epochs=30, **kw)

    def dev_loss(model):
        err = model.predict_prepared(Xd) - yd
        return float(err @ err / err.shape[0])

    assert dev_loss(best) <= dev_loss(first) + 1e-12
    assert dev_loss(best) <= dev_loss(final) + 1e-12


def test_deterministic_given_seed():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    a = fit_mlp(X, y, hidden=(4,), max_epochs=5, seed=3)
    b = fit_mlp(X, y, hidden=(4,), max_epochs=5, seed=3)
    c = fit_mlp(X, y, hidden=(4,), max_epochs=5, seed=4)
    for wa, wb in zip(a.params.layers, b.params.layers):
        assert np.array_equal(wa, wb)
    assert any(
        not np.array_equal(wa, wc)
        for wa, wc in zip(a.params.layers, c.params.layers)
    )


def test_validation_errors():
    X = np.ones((6, 2))
    y = np.ones(6)
    with pytest.raises(ValueError, match="hidden"):
        fit_mlp(X, y, hidden=(0,))
    with pytest.raises(ValueError, match="^lr must be positive, got 0.0$"):
        fit_mlp(X, y, lr=0.0)
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got 0$"):
        fit_mlp(X, y, batch_size=0)
    with pytest.raises(ValueError, match="^max_epochs must be >= 0, got -1$"):
        fit_mlp(X, y, max_epochs=-1)
    with pytest.raises(ValueError, match="^patience must be >= 1, got 0$"):
        fit_mlp(X, y, patience=0)
    with pytest.raises(ValueError, match="zero rows"):
        fit_mlp(np.ones((0, 2)), np.ones(0))
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        fit_mlp(np.ones(6), y)
