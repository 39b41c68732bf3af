"""Regression metrics: MSE, R-squared, and Pearson r with significance.

The two-tailed p-value for r comes from the exact t distribution with
n-2 degrees of freedom, evaluated through an in-repo regularized
incomplete beta function (continued fraction, ~1e-10 accuracy).  A
normal approximation would be fine at corpus scale but would make
small-fixture tests inexact.
"""

from __future__ import annotations

import math

import numpy as np

_FPMIN = 1e-300
_CF_EPS = 1e-14
_CF_MAXIT = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for T ~ Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return betainc_reg(dof / 2.0, 0.5, x)


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(
            f"prediction/truth shape mismatch: {p.shape} vs {t.shape}"
        )
    if p.size == 0:
        raise ValueError("empty vectors")
    return p, t


def mse(pred, truth) -> float:
    p, t = _check_pair(pred, truth)
    return float(np.mean((p - t) ** 2))


def r_squared(pred, truth) -> float:
    """Coefficient of determination; negative when worse than the mean."""
    p, t = _check_pair(pred, truth)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("truth is constant; R^2 undefined")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


# The fewest observations a correlation's p-value takes (n - 2 >= 1 degree of freedom).
MIN_N = 3


def pearson(pred, truth) -> tuple[float, float]:
    """Sample correlation and its two-tailed t-test p-value."""
    p, t = _check_pair(pred, truth)
    n = p.size
    if n < MIN_N:
        raise ValueError(f"need n >= {MIN_N} for a p-value, got {n}")
    dp = p - p.mean()
    dt = t - t.mean()
    denom = math.sqrt(float(np.sum(dp * dp)) * float(np.sum(dt * dt)))
    if denom == 0.0:
        raise ValueError("constant input; correlation undefined")
    r = float(np.sum(dp * dt)) / denom
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, student_t_two_tailed_p(t_stat, n - 2)
