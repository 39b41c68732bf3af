"""Linear family: ordinary least squares, ridge, and lasso.

All three fit an unpenalized intercept by centering.  OLS, and ridge at
``lam=0``, which is the same estimator, go through one QR factorization
(not the normal equations, which the test oracles use independently);
ridge at a positive ``lam`` solves the shifted normal system in closed
form; lasso runs cyclic coordinate descent with soft thresholding to a
stationarity tolerance on coefficient change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FloatVector, ModelSpec, Params, TrainedModel, check_training_data

OLS = "ols"
RIDGE = "ridge"
LASSO = "lasso"

# Lasso stops when no coefficient moved by more than LASSO_TOL in a sweep.
LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 100_000


class SingularSystemError(ValueError):
    """Raised when an unregularized (OLS or ridge at 0) system is singular."""


@dataclass(frozen=True)
class LinearParams(Params):
    families = (OLS, RIDGE, LASSO)
    coef: FloatVector
    intercept: float

    def check_features(self, n: int, path: str) -> None:
        if len(self.coef) != n:
            raise ValueError(f"{path}: coef: {len(self.coef)} coefficients, "
                             f"not one per feature name ({n})")

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _require_full_rank(R: np.ndarray) -> None:
    """Reject a least-squares system whose QR factor ``R`` is rank-deficient."""
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag.min() <= diag.max() * 1e-12 or diag.max() == 0.0:
        raise SingularSystemError(
            "singular least-squares system (collinear or constant features); "
            "use ridge with a positive lambda (--lambda) instead"
        )


def _fit_ols(Xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(Xc)
    _require_full_rank(R)
    return np.linalg.solve(R, Q.T @ yc)


def _fit_lasso(Xc: np.ndarray, yc: np.ndarray, lam: float) -> np.ndarray:
    n, d = Xc.shape
    col_sq = np.einsum("ij,ij->j", Xc, Xc)
    beta = np.zeros(d)
    resid = yc.copy()
    for _ in range(LASSO_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = Xc[:, j] @ resid + col_sq[j] * beta[j]
            # Penalty is lam * |beta|_1 on the squared-error sum, so the
            # soft threshold is lam / 2.
            new = _soft_threshold(rho, lam / 2.0) / col_sq[j]
            delta = new - beta[j]
            if delta != 0.0:
                resid -= Xc[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < LASSO_TOL:
            return beta
    raise RuntimeError(
        f"lasso coordinate descent did not reach tolerance {LASSO_TOL} "
        f"in {LASSO_MAX_SWEEPS} sweeps"
    )


def fit_linear(
    X: np.ndarray,
    y: np.ndarray,
    family: str = OLS,
    lam: float = 0.0,
) -> TrainedModel:
    """Fit one of the linear family members.

    ``lam`` is the ridge/lasso regularization weight (ignored for OLS).
    Ridge at ``lam=0`` is fitted as OLS is, so OLS and ridge at ``lam=0``
    both require more rows than columns and raise
    :class:`SingularSystemError` on rank-deficient inputs.
    """
    X, y = check_training_data(X, y)
    if not lam >= 0:  # NaN too
        raise ValueError(f"regularization must be >= 0, got {lam}")
    unpenalized = family == OLS or family == RIDGE and lam == 0.0
    if unpenalized and X.shape[0] <= X.shape[1]:
        what = "ols" if family == OLS else "ridge at lambda 0"
        raise ValueError(
            f"{what} needs more rows than columns, got {X.shape[0]}x{X.shape[1]}"
        )

    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean

    if unpenalized:
        beta = _fit_ols(Xc, yc)
    elif family == RIDGE:
        beta = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ yc)
    elif family == LASSO:
        beta = _fit_lasso(Xc, yc, lam)
    else:
        raise ValueError(f"unknown linear family: {family!r}")

    intercept = y_mean - float(x_mean @ beta)
    spec = ModelSpec(family=family, hyperparameters={"lambda": lam})
    return TrainedModel(spec=spec, params=LinearParams(beta, intercept))
