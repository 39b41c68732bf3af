import os
import threading
from dataclasses import fields

import numpy as np
import pytest

from convperf.metrics import r_squared
from convperf.regressors import (
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
)
from convperf.regressors import forest

# A warning on the fork path (Python 3.12 warns on a fork with threads
# running) fails the test instead of scrolling past.
pytestmark = pytest.mark.filterwarnings("error")


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


@pytest.mark.parametrize("sizes, message", [
    ({"min_leaf": 0}, "min_leaf must be >= 1, got 0"),
    ({"min_leaf": -3}, "min_leaf must be >= 1, got -3"),
    ({"max_depth": -1}, "max_depth must be >= 0, got -1"),
], ids=["min-leaf-0", "min-leaf-negative", "max-depth-negative"])
@pytest.mark.parametrize("fit", [fit_tree, fit_forest], ids=["tree", "forest"])
def test_a_tree_and_a_forest_refuse_the_same_sizes(fit, sizes, message):
    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit(X, X[:, 0], **sizes)


def same_trees(a, b):
    assert len(a.params.trees) == len(b.params.trees)
    for s, t in zip(a.params.trees, b.params.trees):
        for f in fields(TreeParams):
            assert np.array_equal(getattr(s, f.name), getattr(t, f.name)), f.name


@pytest.fixture
def problem():
    rng = np.random.default_rng(205)
    X = rng.integers(0, 5, size=(90, 5)) * 0.5
    X[:, 3] = 1.0  # a column that can never split
    return X, rng.normal(size=90)


def fit_on(monkeypatch, cpus, X, y, **hp):
    monkeypatch.setattr(forest, "_usable_cpus", lambda: cpus)
    return fit_forest(X, y, n_trees=5, max_depth=6, min_leaf=2, seed=4, **hp)


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("cpus", [2, 3, 9])
def test_the_forest_does_not_depend_on_the_cpu_count(monkeypatch, problem, cpus, bootstrap):
    one = fit_on(monkeypatch, 1, *problem, bootstrap=bootstrap)
    same_trees(fit_on(monkeypatch, cpus, *problem, bootstrap=bootstrap), one)


def test_the_parent_grows_every_tree_when_it_cannot_fork(monkeypatch, problem):
    one = fit_on(monkeypatch, 1, *problem)

    def no_fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", no_fork)
    same_trees(fit_on(monkeypatch, 3, *problem), one)
    monkeypatch.delattr(os, "fork")
    same_trees(fit_on(monkeypatch, 3, *problem), one)


def test_the_parent_does_not_fork_while_threads_run(monkeypatch, problem):
    one = fit_on(monkeypatch, 1, *problem)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a thread running"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        same_trees(fit_on(monkeypatch, 3, *problem), one)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def in_a_worker(monkeypatch, act):
    """Make every tree grown outside this process call ``act()``."""
    parent, grow = os.getpid(), forest.grow_tree

    def grow_here(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return grow(*args, **kwargs)

    monkeypatch.setattr(forest, "grow_tree", grow_here)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_error_is_raised_in_the_parent(monkeypatch, problem):
    def fail():
        raise ValueError("no tree from this worker")

    in_a_worker(monkeypatch, fail)
    with pytest.raises(ValueError, match="no tree from this worker"):
        fit_on(monkeypatch, 3, *problem)
    no_child_left()


def test_a_worker_that_dies_is_named_by_its_exit_status(monkeypatch, problem):
    in_a_worker(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match=r"ended without its trees \(exit status 3\)"):
        fit_on(monkeypatch, 2, *problem)
    no_child_left()


def test_a_parent_error_reaps_the_workers(monkeypatch, problem):
    parent, grow = os.getpid(), forest.grow_tree

    def grow_there(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return grow(*args, **kwargs)

    monkeypatch.setattr(forest, "grow_tree", grow_there)
    with pytest.raises(KeyboardInterrupt):
        fit_on(monkeypatch, 3, *problem)
    no_child_left()
