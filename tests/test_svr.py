import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convperf.experiment import fit_spec
from convperf.metrics import mse
from convperf.regressors import (
    ConvergenceError,
    ModelSpec,
    fit_linear,
    fit_svr,
    model_from_json,
    model_to_json,
    resolve_gamma,
    svr,
)


def recover_betas(X, model):
    """Expand stored support-vector weights back to one beta per row."""
    p = model.params
    beta = np.zeros(X.shape[0])
    k = 0
    for i in range(X.shape[0]):
        if k < p.sv_beta.shape[0] and np.array_equal(X[i], p.sv_x[k]):
            beta[i] = p.sv_beta[k]
            k += 1
    assert k == p.sv_beta.shape[0]
    return beta


def kkt_gap(X, y, model, C, eps):
    """Independent restatement of the dual optimality conditions.

    Each beta sign pins the offset to an interval; at optimality the
    largest lower end cannot exceed the smallest upper end by more than
    the solver tolerance, and the stored intercept sits in between.
    """
    beta = recover_betas(X, model)
    f = model.predict_prepared(X)
    F = y - (f - model.params.intercept)
    slack = 1e-9 * max(1.0, C)
    lo = np.empty_like(F)
    hi = np.empty_like(F)
    for i, b in enumerate(beta):
        if b >= C - slack:
            lo[i], hi[i] = -np.inf, F[i] - eps
        elif b > slack:
            lo[i], hi[i] = F[i] - eps, F[i] - eps
        elif b <= -C + slack:
            lo[i], hi[i] = F[i] + eps, np.inf
        elif b < -slack:
            lo[i], hi[i] = F[i] + eps, F[i] + eps
        else:
            lo[i], hi[i] = F[i] - eps, F[i] + eps
    assert np.abs(beta).max() <= C + slack
    assert abs(beta.sum()) < 1e-8 * max(1.0, C)
    return float(lo.max() - hi.min()), float(lo.max()), float(hi.min())


def sine_data():
    x = np.linspace(0.0, 2.0 * np.pi, 30, endpoint=False)
    return x[:, None], np.sin(x)


def test_constant_target_empty_support():
    X = np.arange(10.0)[:, None]
    y = np.full(10, 3.5)
    model = fit_svr(X, y, C=1.0, epsilon=0.1)
    assert model.params.sv_beta.shape[0] == 0
    assert abs(model.params.intercept - 3.5) < 1e-12
    assert np.allclose(model.predict_prepared([[100.0]]), [3.5])


def test_kkt_conditions_sine():
    X, y = sine_data()
    C, eps, tol = 10.0, 0.05, svr.TOL
    model = fit_svr(X, y, C=C, epsilon=eps, gamma=1.0)
    gap, lo_max, hi_min = kkt_gap(X, y, model, C, eps)
    assert gap <= tol + 1e-6
    assert lo_max - tol - 1e-6 <= model.params.intercept <= hi_min + tol + 1e-6


def test_kkt_conditions_two_features():
    rng = np.random.default_rng(300)
    X = rng.normal(size=(40, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
    C, eps, tol = 5.0, 0.1, svr.TOL
    model = fit_svr(X, y, C=C, epsilon=eps)
    gap, lo_max, hi_min = kkt_gap(X, y, model, C, eps)
    assert gap <= tol + 1e-6
    assert lo_max - tol - 1e-6 <= model.params.intercept <= hi_min + tol + 1e-6


def test_inside_tube_points_have_zero_beta():
    X, y = sine_data()
    eps, tol = 0.05, svr.TOL
    model = fit_svr(X, y, C=10.0, epsilon=eps, gamma=1.0)
    beta = recover_betas(X, model)
    resid = np.abs(y - model.predict_prepared(X))
    inside = resid < eps - tol
    assert inside.any()
    # smo can leave sub-machine-epsilon dust on cleared coefficients
    assert np.all(np.abs(beta[inside]) < 1e-10)


def test_free_support_vectors_sit_on_tube():
    X, y = sine_data()
    C, eps, tol = 10.0, 0.05, svr.TOL
    model = fit_svr(X, y, C=C, epsilon=eps, gamma=1.0)
    beta = recover_betas(X, model)
    resid = np.abs(y - model.predict_prepared(X))
    free = (np.abs(beta) > 1e-8) & (np.abs(beta) < C - 1e-8)
    assert free.any()
    assert np.abs(resid[free] - eps).max() <= tol + 1e-6


def test_beats_linear_fit_on_sine():
    X, y = sine_data()
    svr = fit_svr(X, y, C=10.0, epsilon=0.05, gamma=1.0)
    lin = fit_linear(X, y)
    assert mse(svr.predict_prepared(X), y) < mse(lin.predict_prepared(X), y) / 10.0


def test_resolve_gamma():
    X = np.array([[0.0, 0.0], [2.0, 4.0]])
    # column variances 1 and 4, mean 2.5, d=2
    assert abs(resolve_gamma(X, "scale") - 1.0 / 5.0) < 1e-12
    assert resolve_gamma(np.ones((3, 2)), "scale") == 1.0
    assert resolve_gamma(X, 0.5) == 0.5
    with pytest.raises(ValueError, match="gamma"):
        resolve_gamma(X, -1.0)
    with pytest.raises(ValueError, match="gamma"):
        resolve_gamma(X, 0.0)


def test_iteration_budget_error():
    X, y = sine_data()
    with pytest.raises(ConvergenceError, match="iteration budget"):
        fit_svr(X, y, C=10.0, epsilon=0.05, gamma=1.0, max_iter=1)


def test_deterministic():
    X, y = sine_data()
    a = fit_svr(X, y, C=10.0, epsilon=0.05, gamma=1.0)
    b = fit_svr(X, y, C=10.0, epsilon=0.05, gamma=1.0)
    assert a.params.intercept == b.params.intercept
    assert np.array_equal(a.params.sv_beta, b.params.sv_beta)


def test_validation_errors():
    X = np.ones((4, 2))
    y = np.arange(4.0)
    with pytest.raises(ValueError, match="C must be positive"):
        fit_svr(X, y, C=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        fit_svr(X, y, epsilon=-0.1)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        fit_svr(X, y, max_iter=0)
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_svr(np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        fit_svr(np.ones(4), y)


def test_serialization_round_trip():
    X, y = sine_data()
    model = fit_svr(X, y, C=10.0, epsilon=0.05, gamma=1.0)
    back = model_from_json(json.loads(json.dumps(model_to_json(model))))
    assert back.params.gamma == 1.0
    grid = np.linspace(-1.0, 7.0, 25)[:, None]
    assert np.allclose(
        back.predict_prepared(grid), model.predict_prepared(grid), atol=1e-12
    )


def test_serialization_round_trip_empty_support():
    X = np.arange(6.0)[:, None]
    model = fit_svr(X, np.zeros(6), C=1.0, epsilon=0.1)
    back = model_from_json(json.loads(json.dumps(model_to_json(model))))
    assert back.params.sv_x.shape == (0, 0)
    assert np.allclose(back.predict_prepared([[5.0], [9.0]]), [0.0, 0.0])


def test_spec_records_the_iteration_budget():
    X, y = sine_data()
    explicit = fit_spec(ModelSpec("svr", {"max_iter": 50_000}), X, y)
    assert explicit.spec.hyperparameters["max_iter"] == 50_000
    default = fit_spec(ModelSpec("svr"), X, y)
    assert default.spec.hyperparameters["max_iter"] == max(20_000, 200 * len(y))
    back = model_from_json(json.loads(json.dumps(model_to_json(explicit))))
    assert back.spec.hyperparameters["max_iter"] == 50_000


def test_kernel_cache_budget_of_two_rows_gives_the_same_fit(monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(120, 3))
    y = np.sin(X[:, 0]) + 0.3 * rng.normal(size=120)
    unbounded = fit_svr(X, y, C=3.0, epsilon=0.1)
    monkeypatch.setattr(svr, "KERNEL_CACHE_BYTES", 2 * 8 * X.shape[0])
    bounded = fit_svr(X, y, C=3.0, epsilon=0.1)
    # Far more support vectors than cached rows, so rows were evicted
    # and recomputed.
    assert unbounded.params.sv_beta.shape[0] > 50
    assert np.array_equal(bounded.params.sv_beta, unbounded.params.sv_beta)
    assert np.array_equal(bounded.params.sv_x, unbounded.params.sv_x)
    assert bounded.params.intercept == unbounded.params.intercept


def fresh_row(X, g, i):
    """Row i as the cache computes it on a miss."""
    return svr._kernel_rows(X, g)(i).copy()


def test_kernel_slab_keeps_a_third_of_the_rows_least_recently_used_first(monkeypatch):
    for n, slots in ((2, 2), (3, 2), (6, 2), (7, 3), (10, 4), (31, 11)):
        row = svr._kernel_rows(np.random.default_rng(n).normal(size=(n, 2)), 0.5)
        assert row(0).base.shape == (slots, n)

    X = np.random.default_rng(5).normal(size=(10, 3))
    expected = [fresh_row(X, 0.5, i) for i in range(10)]
    computed = []
    rbf = svr._rbf
    monkeypatch.setattr(svr, "_rbf", lambda r, *a: computed.append(r.ctypes.data) or rbf(r, *a))
    row = svr._kernel_rows(X, 0.5)
    for i in range(10):
        row(i)
    # Four slots, each reused once the slab is full.
    assert len(computed) == 10 and len(set(computed)) == 4
    # Rows 6-9 are held; a hit moves row 6 to most recent, so the next
    # miss takes the slot of row 7, the least recently used.
    computed.clear()
    assert np.array_equal(row(6), expected[6]) and not computed
    slot_of_7 = row(7).ctypes.data
    assert not computed
    for i in (8, 9, 6):
        row(i)
    got = row(0)
    assert computed == [slot_of_7] and got.ctypes.data == slot_of_7
    # An evicted row comes back bit for bit.
    assert np.array_equal(got, expected[0])
    assert np.array_equal(row(7), expected[7])

    # At two slots the two rows of an SMO step stay valid together.
    monkeypatch.setattr(svr, "_rbf", rbf)
    monkeypatch.setattr(svr, "KERNEL_CACHE_BYTES", 0)
    row = svr._kernel_rows(X, 0.5)
    for i, j in ((0, 1), (2, 3), (1, 2), (9, 0), (0, 9), (4, 0)):
        row_i, row_j = row(i), row(j)
        assert np.array_equal(row_i, expected[i]) and np.array_equal(row_j, expected[j])


@given(st.integers(2, 40), st.integers(0, 50), st.lists(st.integers(0, 39), max_size=60),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_kernel_slab_holds_at_most_max_rows_and_every_row_is_exact(n, budget_rows, requests,
                                                                   seed):
    X = np.random.default_rng(seed).normal(size=(n, 3))
    g = resolve_gamma(X, "scale")
    expected = [fresh_row(X, g, i) for i in range(n)]
    budget = budget_rows * 8 * n + 7  # a few bytes over budget_rows rows
    max_rows = max(2, min(-(-n // 3), budget_rows))
    with mock.patch.object(svr, "KERNEL_CACHE_BYTES", budget):
        row = svr._kernel_rows(X, g)
    last = None
    for i in (r % n for r in requests):
        got = row(i)
        assert got.base.shape == (max_rows, n)
        assert np.array_equal(got, expected[i])
        if last is not None:  # the row before stays valid, as an SMO step needs
            assert np.array_equal(last[1], expected[last[0]])
        last = (i, got)


def whole_matrix_prediction(p, X):
    """What predict computed before it went a block of rows at a time."""
    K = svr._rbf(X @ p.sv_x.T, (X * X).sum(axis=1)[:, None],
                 (p.sv_x * p.sv_x).sum(axis=1)[None, :], p.gamma)
    return K @ p.sv_beta + p.intercept


def random_params(rng, m, d):
    return svr.SvrParams(sv_x=rng.normal(size=(m, d)), sv_beta=rng.uniform(-1, 1, size=m),
                         intercept=0.25, gamma=1.0 / d)


def test_prediction_in_one_block_equals_the_whole_matrix_product():
    rng = np.random.default_rng(9)
    p = random_params(rng, 300, 4)
    X = rng.normal(size=(200, 4))
    assert np.array_equal(p.predict(X), whole_matrix_prediction(p, X))
    assert p.predict(np.empty((0, 4))).shape == (0,)


def test_prediction_in_blocks_bounds_memory_and_matches(monkeypatch):
    rng = np.random.default_rng(10)
    p = random_params(rng, 2000, 5)
    X = rng.normal(size=(3001, 5))  # 94 blocks of 32 rows, the last one short
    whole = whole_matrix_prediction(p, X)  # a 48 MB kernel
    budget = 2**20
    monkeypatch.setattr(svr, "KERNEL_CACHE_BYTES", budget)
    tracemalloc.start()
    try:
        got = p.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The budget plus arrays of one entry per row or per support-vector
    # coordinate (about 0.15 MB here), not the 48 MB of the whole kernel.
    assert peak <= 1.25 * budget
    assert np.abs(got - whole).max() <= 1e-12


def test_kkt_conditions_with_duplicated_rows(monkeypatch):
    # Each point three times with different targets, so the solver pairs
    # copies, whose eta = K_ii + K_jj - 2 K_ij is 0 or a rounding error
    # away from it: the pair step must cope with a flat segment.  The
    # copies differ by 1e-9 in one extra column, far below what the
    # kernel resolves (K between copies rounds to 1, as for exact
    # copies), so that recover_betas can tell them apart.
    rng = np.random.default_rng(8)
    X = np.repeat(rng.normal(size=(25, 3)), 3, axis=0)
    X = np.column_stack([X, np.tile([0.0, 1e-9, 2e-9], 25)])
    y = np.sin(X[:, 0]) + 0.5 * rng.normal(size=X.shape[0])
    C, eps, tol = 2.0, 0.1, svr.TOL
    etas = []
    step = svr._pair_step

    def recording(beta_i, beta_j, F_i, F_j, eta, *rest):
        etas.append(eta)
        return step(beta_i, beta_j, F_i, F_j, eta, *rest)

    monkeypatch.setattr(svr, "_pair_step", recording)
    model = fit_svr(X, y, C=C, epsilon=eps)
    assert min(etas) < 1e-12
    gap, lo_max, hi_min = kkt_gap(X, y, model, C, eps)
    assert gap <= tol + 1e-6
    assert lo_max - tol - 1e-6 <= model.params.intercept <= hi_min + tol + 1e-6


@st.composite
def kernel_matrices(draw):
    """Small matrices with mixed column scales, a shared offset, constant
    columns, duplicated rows and one row scaled to a large norm."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 3, size=d)
    X += rng.normal(size=d) * draw(st.sampled_from([0.0, 1.0, 1e3]))
    X[:, rng.random(d) < 0.3] = rng.normal() * 100.0
    if draw(st.booleans()):
        X[rng.integers(n)] *= 10.0 ** draw(st.integers(1, 6))
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]
    return X


@given(kernel_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_row_matches_the_direct_distance(X):
    # gamma="scale" (the fit's default) bounds gamma * |x - mean|^2 by
    # about n, which bounds the expansion's rounding.
    g = resolve_gamma(X, "scale")
    row = svr._kernel_rows(X, g)
    for i in range(X.shape[0]):
        direct = np.exp(-g * ((X - X[i]) ** 2).sum(axis=1))
        got = row(i)
        assert got[i] == 1.0
        assert np.abs(got - direct).max() <= 1e-12
