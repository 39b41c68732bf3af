"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential minimal optimization over the
difference variables beta_i = alpha_i - alpha_i*, which live in the box
[-C, C] and sum to zero:

    maximize  -1/2 sum_ij beta_i beta_j K_ij
              - eps * sum_i |beta_i| + sum_i y_i beta_i

Working pairs come from the maximal-violation rule: each point's KKT
conditions pin the offset b to an interval, and the pair is the point
with the largest lower end against the point with the smallest upper
end.  The gap between those two ends is the convergence measure.  A
pair step maximizes the dual exactly along the feasible segment, which
is piecewise quadratic with breakpoints where either variable crosses
zero.

A point's interval is F_p = y_p - sum_q beta_q K_pq plus a pair of
offsets that depend only on the sign and bound state of beta_p
(:func:`_offsets`): [-eps, +eps] inside the tube, and -eps or +eps on
both ends, or one end opened to -inf/+inf at the box bound, for a
support vector.  The solver keeps the offset arrays and updates them at
the two points a step moves, so an iteration computes only F, F + a_lo
and F + a_hi over all points.

Training and :meth:`SvrParams.predict` share one kernel expression,
:func:`_rbf`: exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)) from the
inner products a.b and the squared norms.  The fit centres X once
(distances do not change, and the expansion's rounding, about
machine-eps * gamma * |x|^2, stays small for any column offset) and
keeps each row's squared norm, so a kernel row is one BLAS
matrix-vector product plus O(n) elementwise work.  A row's own entry
gets exactly zero distance, so K_ii = 1.  Rows are computed lazily, in
place, into the slots of one slab of at most a third of the rows and at
most ``KERNEL_CACHE_BYTES``, as LIBSVM bounds its kernel cache (Chang &
Lin, ACM TIST 2, 2011).  The slot of the least recently used row is
reused.  SMO asks again mostly for rows it used recently, so a third of
the rows recompute few more than all of them would.  An evicted row is
recomputed bit for bit, so the bound changes speed, not the fit.  Only
used slots are resident, and the slab goes back to the OS when the fit
returns.  :meth:`SvrParams.predict` builds the kernel a block of rows at
a time, each block and its temporary within the same byte budget, so
its memory does not grow with the number of rows predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FloatMatrix, FloatVector, ModelSpec, Params, TrainedModel, check_training_data

SVR = "svr"

# Byte budget of the fit's kernel slab, which also holds at most a third
# of the rows, and of each block of kernel rows a prediction builds.  Rows
# beyond it are evicted least recently used first and recomputed on
# demand; the budget is the smaller bound from 7,094 points.
KERNEL_CACHE_BYTES = 128 * 2**20

# SMO stops once the KKT gap (see the module docstring) is at most TOL.
TOL = 1e-3


class ConvergenceError(RuntimeError):
    """SMO ran out of iterations before the KKT gap closed."""


@dataclass(frozen=True)
class SvrParams(Params):
    families = (SVR,)
    sv_x: FloatMatrix
    sv_beta: FloatVector
    intercept: float
    gamma: float

    def __post_init__(self):
        if self.sv_x.shape[0] != self.sv_beta.shape[0]:
            raise ValueError(f"sv_x: {self.sv_x.shape[0]} support vectors, not one per "
                             f"sv_beta entry ({self.sv_beta.shape[0]})")

    def check_features(self, n: int, path: str) -> None:
        if len(self.sv_x) and self.sv_x.shape[1] != n:
            raise ValueError(f"{path}: sv_x: {self.sv_x.shape[1]} columns, "
                             f"not one per feature name ({n})")

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        m = self.sv_beta.shape[0]
        if m == 0:
            return np.full(X.shape[0], self.intercept)
        # A block's kernel and _rbf's temporary a_sq + b_sq, 16 bytes an entry.
        rows = max(1, KERNEL_CACHE_BYTES // (16 * m))
        sv_sq = (self.sv_x * self.sv_x).sum(axis=1)[None, :]
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows):
            Xb = X[start:start + rows]
            K = _rbf(Xb @ self.sv_x.T, (Xb * Xb).sum(axis=1)[:, None], sv_sq, self.gamma)
            out[start:start + rows] = K @ self.sv_beta + self.intercept
            del K  # else it lives on beside the next block's two arrays
        return out


def _rbf(cross, a_sq, b_sq, gamma):
    """exp(-gamma * max(a_sq + b_sq - 2 * cross, 0)), computed in place in ``cross``.

    ``cross`` holds inner products a.b, and ``a_sq`` and ``b_sq`` the
    squared norms broadcast against it.
    """
    cross *= -2.0
    cross += a_sq + b_sq
    np.maximum(cross, 0.0, out=cross)
    cross *= -gamma
    return np.exp(cross, out=cross)


def _kernel_rows(X, gamma):
    """``row(i)``: row i of the training kernel matrix, a view into a bounded LRU slab."""
    X = X - X.mean(axis=0)  # same distances; rounding no longer grows with offsets
    sq = (X * X).sum(axis=1)
    n = X.shape[0]
    max_rows = max(2, min(-(-n // 3), KERNEL_CACHE_BYTES // (8 * n)))
    slab = np.empty((max_rows, n))  # pages of unused slots stay unmapped
    slot_of: dict[int, int] = {}  # row -> slot; insertion order is recency order

    def row(i: int) -> np.ndarray:
        s = slot_of.pop(i, None)
        if s is None:
            if len(slot_of) < max_rows:
                s = len(slot_of)  # slots 0 .. len - 1 are in use
            else:
                s = slot_of.pop(next(iter(slot_of)))
            r = np.matmul(X, X[i], out=slab[s])
            r[i] = sq[i]  # then the distance to itself is exactly 0 and K_ii = 1
            _rbf(r, sq, sq[i], gamma)
        slot_of[i] = s
        return slab[s]

    return row


def resolve_gamma(X: np.ndarray, gamma) -> float:
    """Turn the "scale" shorthand into a number: 1 / (d * mean column variance)."""
    if gamma == "scale":
        mv = float(X.var(axis=0).mean())
        if mv <= 0.0:
            return 1.0
        return 1.0 / (X.shape[1] * mv)
    g = float(gamma)
    if not g > 0.0:  # NaN too
        raise ValueError(f"gamma must be positive, got {gamma}")
    return g


def _offsets(beta: float, eps: float, C: float) -> tuple[float, float]:
    """A point's offsets (a_lo, a_hi): its allowed-b interval is [F + a_lo, F + a_hi].

    A point inside the tube (beta = 0) gets [-eps, +eps]; beta > 0 pins
    b to F - eps from above, and from below too unless beta sits at C;
    beta < 0 pins it to F + eps from below, and from above too unless
    beta sits at -C.
    """
    tol = 1e-12 * max(1.0, C)
    if beta > tol:
        return (-np.inf if beta >= C - tol else -eps), -eps
    if beta < -tol:
        return eps, (np.inf if beta <= -C + tol else eps)
    return -eps, eps


def _pair_step(beta_i, beta_j, F_i, F_j, eta, eps, C):
    """Best new beta_i along the sum-preserving segment, or None."""
    s = beta_i + beta_j
    t_min = max(-C, s - C)
    t_max = min(C, s + C)
    if t_max - t_min <= 0.0:
        return None
    cuts = [t_min, t_max]
    for br in (0.0, s):
        if t_min < br < t_max:
            cuts.append(br)
    cuts = sorted(set(cuts))
    candidates = set(cuts)
    if eta > 0.0:
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = (a + b) / 2.0
            sig_i = 1.0 if mid > 0 else (-1.0 if mid < 0 else 0.0)
            rem = s - mid
            sig_j = 1.0 if rem > 0 else (-1.0 if rem < 0 else 0.0)
            t_star = beta_i + (F_i - F_j - eps * (sig_i - sig_j)) / eta
            if a <= t_star <= b:
                candidates.add(t_star)

    base = abs(beta_i) + abs(beta_j)
    best_t = None
    best_gain = 0.0
    for t in candidates:
        delta = t - beta_i
        gain = (
            delta * (F_i - F_j)
            - 0.5 * eta * delta * delta
            - eps * (abs(t) + abs(s - t) - base)
        )
        if gain > best_gain:
            best_gain = gain
            best_t = t
    return best_t


def fit_svr(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    epsilon: float = 0.1,
    gamma="scale",
    max_iter: int | None = None,
) -> TrainedModel:
    """Fit RBF support vector regression by SMO.

    Raises :class:`ConvergenceError` with the final KKT gap if the
    budget runs out before the gap closes to :data:`TOL`.  Only points
    with nonzero beta are stored.
    """
    X, y = check_training_data(X, y)
    n = y.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    # Written so that NaN fails each check.
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    g = resolve_gamma(X, gamma)
    if max_iter is None:
        max_iter = max(20_000, 200 * n)
    elif max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    krow = _kernel_rows(X, g)
    beta = np.zeros(n)
    G = np.zeros(n)  # G_i = sum_j beta_j K_ij
    lo0, hi0 = _offsets(0.0, epsilon, C)
    a_lo = np.full(n, lo0)
    a_hi = np.full(n, hi0)
    F = np.empty(n)
    lo = np.empty(n)
    hi = np.empty(n)
    step = np.empty(n)
    viol = np.inf
    for _ in range(max_iter):
        np.subtract(y, G, out=F)
        np.add(F, a_lo, out=lo)
        np.add(F, a_hi, out=hi)
        i = int(lo.argmax())
        j = int(hi.argmin())
        viol = lo[i] - hi[j]
        if viol <= TOL:
            break
        row_i = krow(i)
        row_j = krow(j)
        # Python floats: scalar arithmetic on numpy scalars costs more.
        beta_i, beta_j = float(beta[i]), float(beta[j])
        eta = float(row_i[i]) + float(row_j[j]) - 2.0 * float(row_i[j])
        t = _pair_step(beta_i, beta_j, float(F[i]), float(F[j]), max(eta, 0.0), epsilon, C)
        if t is None:
            break
        delta = t - beta_i
        beta[i] = t
        beta[j] = beta_j - delta
        a_lo[i], a_hi[i] = _offsets(t, epsilon, C)
        a_lo[j], a_hi[j] = _offsets(beta_j - delta, epsilon, C)
        np.subtract(row_i, row_j, out=step)
        step *= delta
        G += step
    else:
        raise ConvergenceError(
            f"SMO hit the iteration budget ({max_iter}) with KKT gap "
            f"{viol:.3e} > tol {TOL:g}; raise max_iter"
        )
    if viol > TOL:
        raise ConvergenceError(
            f"SMO stalled with KKT gap {viol:.3e} > tol {TOL:g}"
        )

    # The loop left before stepping, so lo and hi are the final
    # intervals and i, j their extreme ends.
    b_lo = float(lo[i])
    b_hi = float(hi[j])
    if not np.isfinite(b_lo) and not np.isfinite(b_hi):
        b = 0.0
    elif not np.isfinite(b_lo):
        b = b_hi
    elif not np.isfinite(b_hi):
        b = b_lo
    else:
        b = (b_lo + b_hi) / 2.0

    keep = beta != 0.0
    spec = ModelSpec(
        family=SVR,
        hyperparameters={
            "C": C, "epsilon": epsilon, "gamma": g, "tol": TOL, "max_iter": max_iter
        },
    )
    params = SvrParams(
        sv_x=X[keep].copy(), sv_beta=beta[keep].copy(), intercept=b, gamma=g
    )
    return TrainedModel(spec=spec, params=params)
