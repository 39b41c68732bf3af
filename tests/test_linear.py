import numpy as np
import pytest

from convperf.metrics import pearson, r_squared
from convperf.regressors import (
    LASSO,
    OLS,
    RIDGE,
    SingularSystemError,
    fit_linear,
)


def normal_equations(X, y):
    """Independent oracle: centered normal equations."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    beta = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
    intercept = y.mean() - X.mean(axis=0) @ beta
    return beta, intercept


def test_exact_line():
    model = fit_linear(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    assert abs(model.params.coef[0] - 2.0) < 1e-10
    assert abs(model.params.intercept) < 1e-10
    assert np.allclose(model.predict_prepared([[10.0]]), [20.0])


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        model = fit_linear(X, y, family=OLS)
        beta, b = normal_equations(X, y)
        assert np.abs(model.params.coef - beta).max() < 1e-8
        assert abs(model.params.intercept - b) < 1e-8


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=80)
    model = fit_linear(X, y)
    resid = y - model.predict_prepared(X)
    scale = np.abs(X).sum(axis=0)
    assert np.abs(X.T @ resid / scale).max() < 1e-6
    assert abs(resid.sum()) < 1e-6


def test_ols_train_identity_r2_equals_r_squared():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + rng.normal(size=60)
    pred = fit_linear(X, y).predict_prepared(X)
    r, _ = pearson(pred, y)
    assert abs(r_squared(pred, y) - r * r) < 1e-9


def test_singular_system_advises_ridge():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [0.0, 0.0]])
    y = np.array([1.0, 2.0, 3.0, 0.0])
    with pytest.raises(SingularSystemError, match="ridge"):
        fit_linear(X, y)


def test_ridge_without_regularization_reports_a_singular_system():
    # Like a standardized feature CSV: a zeroed constant column and two
    # columns that sum to 1.
    rng = np.random.default_rng(5)
    share = rng.uniform(size=40)
    X = np.column_stack([np.zeros(40), share, 1.0 - share, rng.normal(size=40)])
    y = rng.normal(size=40)
    with pytest.raises(SingularSystemError, match="ridge"):
        fit_linear(X, y, family=RIDGE, lam=0.0)
    with pytest.raises(SingularSystemError, match="ridge"):
        fit_linear(X[:, 1:], y, family=RIDGE, lam=0.0)
    with pytest.raises(SingularSystemError, match="positive lambda \\(--lambda\\)"):
        fit_linear(X, y, family=RIDGE, lam=0.0)
    assert np.isfinite(fit_linear(X, y, family=RIDGE, lam=1.0).params.coef).all()


def test_ols_needs_more_rows_than_columns():
    with pytest.raises(ValueError, match="rows"):
        fit_linear(np.ones((3, 3)), np.ones(3))


def test_ridge_at_zero_lambda_needs_more_rows_than_columns_as_ols_does():
    with pytest.raises(ValueError, match="^ridge at lambda 0 needs more rows than "
                                         "columns, got 3x3$"):
        fit_linear(np.eye(3), np.ones(3), family=RIDGE, lam=0.0)
    assert np.isfinite(fit_linear(np.eye(3), np.ones(3), family=RIDGE, lam=1.0).params.coef).all()


def test_ridge_limit_behavior():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40) + 5.0
    model = fit_linear(X, y, family=RIDGE, lam=1e12)
    assert np.abs(model.params.coef).max() < 1e-6
    assert abs(model.params.intercept - y.mean()) < 1e-4


def test_ridge_zero_lambda_equals_ols():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    a = fit_linear(X, y, family=OLS)
    b = fit_linear(X, y, family=RIDGE, lam=0.0)
    # One least-squares path: the same bits, not just close.
    assert a.params.coef.tobytes() == b.params.coef.tobytes()
    assert a.params.intercept == b.params.intercept


def test_ridge_stationarity():
    # gradient of the centered ridge objective vanishes at the solution
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    lam = 3.7
    model = fit_linear(X, y, family=RIDGE, lam=lam)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    grad = Xc.T @ (yc - Xc @ model.params.coef) - lam * model.params.coef
    assert np.abs(grad).max() < 1e-8


def test_lasso_orthonormal_soft_threshold():
    # with orthonormal columns the solution is soft(X^T y, lam/2) exactly
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.normal(size=(60, 4)))
    Xc = Q - Q.mean(axis=0)
    # re-orthonormalize after centering
    Xc, _ = np.linalg.qr(Xc)
    y = rng.normal(size=60) * 2.0
    lam = 0.8
    model = fit_linear(Xc, y, family=LASSO, lam=lam)
    rho = Xc.T @ (y - y.mean())
    expected = np.sign(rho) * np.maximum(np.abs(rho) - lam / 2.0, 0.0)
    assert np.abs(model.params.coef - expected).max() < 1e-7


def test_lasso_zero_lambda_matches_ols():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, 0.0, -2.0]) + 0.1 * rng.normal(size=40)
    a = fit_linear(X, y, family=OLS)
    b = fit_linear(X, y, family=LASSO, lam=0.0)
    assert np.abs(a.params.coef - b.params.coef).max() < 1e-6


def test_lasso_large_lambda_zeroes_out():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    model = fit_linear(X, y, family=LASSO, lam=1e6)
    assert np.all(model.params.coef == 0.0)
    assert abs(model.params.intercept - y.mean()) < 1e-12


def test_lasso_kkt_conditions():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(70, 5))
    y = X @ np.array([3.0, -1.5, 0.0, 0.0, 0.4]) + rng.normal(size=70)
    lam = 10.0
    model = fit_linear(X, y, family=LASSO, lam=lam)
    beta = model.params.coef
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    corr = Xc.T @ (yc - Xc @ beta)
    for j in range(5):
        if beta[j] == 0.0:
            assert abs(corr[j]) <= lam / 2.0 + 1e-6
        else:
            assert abs(corr[j] - np.sign(beta[j]) * lam / 2.0) < 1e-5


def test_linear_input_validation():
    X = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ValueError, match="NaN"):
        fit_linear(np.array([[np.nan, 1.0]] * 4), y)
    with pytest.raises(ValueError, match=">= 0"):
        fit_linear(X, y, family=RIDGE, lam=-1.0)
    with pytest.raises(ValueError, match="family"):
        fit_linear(X, y, family="elastic")
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        fit_linear(np.ones(4), y)


def test_shift_equivariance():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    base = fit_linear(X, y)
    shifted = fit_linear(X, y + 7.0)
    assert np.abs(base.params.coef - shifted.params.coef).max() < 1e-9
    assert abs(shifted.params.intercept - base.params.intercept - 7.0) < 1e-9
