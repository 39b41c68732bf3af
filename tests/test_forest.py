import numpy as np
import pytest

from convperf.metrics import r_squared
from convperf.regressors import (
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
)


def leaf(value):
    return TreeParams(
        feature=np.array([-1], dtype=np.int64),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int64),
        right=np.array([-1], dtype=np.int64),
        value=np.array([float(value)]),
        n_samples=np.array([1], dtype=np.int64),
        impurity=np.array([0.0]),
    )


def test_prediction_is_mean_over_trees():
    params = ForestParams(trees=(leaf(4.0), leaf(6.0)))
    assert np.allclose(params.predict(np.zeros((3, 2))), [5.0, 5.0, 5.0])


def test_same_seed_same_forest():
    rng = np.random.default_rng(200)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80)
    a = fit_forest(X, y, n_trees=10, seed=7)
    b = fit_forest(X, y, n_trees=10, seed=7)
    grid = rng.normal(size=(30, 4))
    assert np.array_equal(a.predict_prepared(grid), b.predict_prepared(grid))


def test_different_seed_different_forest():
    rng = np.random.default_rng(201)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80)
    a = fit_forest(X, y, n_trees=5, seed=0)
    b = fit_forest(X, y, n_trees=5, seed=1)
    grid = rng.normal(size=(30, 4))
    assert not np.array_equal(a.predict_prepared(grid), b.predict_prepared(grid))


def test_degenerate_forest_equals_single_tree():
    # no bootstrap + all features + one tree collapses to plain CART
    rng = np.random.default_rng(202)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    forest = fit_forest(
        X, y, n_trees=1, feat_frac=1.0, bootstrap=False, seed=3, max_depth=4
    )
    tree = fit_tree(X, y, max_depth=4)
    grid = rng.normal(size=(40, 3))
    assert np.array_equal(forest.predict_prepared(grid), tree.predict_prepared(grid))


def test_bootstrap_changes_the_fit():
    rng = np.random.default_rng(203)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    forest = fit_forest(X, y, n_trees=1, feat_frac=1.0, bootstrap=True, seed=0)
    tree = fit_tree(X, y)
    assert not np.array_equal(forest.predict_prepared(X), tree.predict_prepared(X))


def test_recovers_planted_linear_signal():
    rng = np.random.default_rng(204)
    X = rng.normal(size=(200, 5))
    y = 3.0 * X[:, 1] - 2.0 * X[:, 2] + 1.0 + 0.05 * rng.normal(size=200)
    model = fit_forest(X, y, n_trees=100, seed=0)
    assert r_squared(model.predict_prepared(X), y) >= 0.95


def test_spec_records_hyperparameters_and_seed():
    X = np.arange(20.0).reshape(10, 2)
    y = np.arange(10.0)
    model = fit_forest(
        X, y, n_trees=3, max_depth=2, min_leaf=2, feat_frac=0.5, seed=11
    )
    assert model.spec.seed == 11
    assert model.spec.hyperparameters == {
        "n_trees": 3,
        "max_depth": 2,
        "min_leaf": 2,
        "feat_frac": 0.5,
        "bootstrap": True,
    }
    assert len(model.params.trees) == 3


def test_validation_errors():
    X = np.ones((6, 2))
    y = np.ones(6)
    with pytest.raises(ValueError, match="n_trees"):
        fit_forest(X, y, n_trees=0)
    with pytest.raises(ValueError, match="feat_frac"):
        fit_forest(X, y, feat_frac=0.0)
    with pytest.raises(ValueError, match="feat_frac"):
        fit_forest(X, y, feat_frac=1.5)
    with pytest.raises(ValueError, match="zero rows"):
        fit_forest(np.ones((0, 2)), np.ones(0))
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        fit_forest(np.ones(6), y)
