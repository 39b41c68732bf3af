import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convperf.regressors import fit_tree, model_from_json, model_to_json
from convperf.regressors.tree import best_split, grow_tree


def _ss(y):
    return float(((y - y.mean()) ** 2).sum())


def oracle_split(X, y, min_leaf):
    """Plain-loop split search with the shipped tie rules."""
    n, d = X.shape
    best = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            if i + 1 < min_leaf or n - i - 1 < min_leaf:
                continue
            score = _ss(ys[: i + 1]) + _ss(ys[i + 1 :])
            if best is None or score < best[2]:
                best = (j, float((xs[i] + xs[i + 1]) / 2.0), score)
    return best


def oracle_tree(X, y, depth, max_depth, min_leaf):
    node = {
        "feature": -1,
        "threshold": 0.0,
        "value": float(y.mean()),
        "n": int(y.shape[0]),
        "ss": _ss(y),
        "kids": None,
    }
    if depth >= max_depth or node["ss"] <= 0.0:
        return node
    split = oracle_split(X, y, min_leaf)
    if split is None:
        return node
    j, thr, _ = split
    mask = X[:, j] <= thr
    node["feature"] = j
    node["threshold"] = thr
    node["kids"] = (
        oracle_tree(X[mask], y[mask], depth + 1, max_depth, min_leaf),
        oracle_tree(X[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    )
    return node


def flatten_preorder(node, out=None):
    if out is None:
        out = []
    out.append(node)
    if node["kids"] is not None:
        flatten_preorder(node["kids"][0], out)
        flatten_preorder(node["kids"][1], out)
    return out


def all_split_scores(X, y, min_leaf):
    n, d = X.shape
    scores = []
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            if i + 1 < min_leaf or n - i - 1 < min_leaf:
                continue
            scores.append(_ss(ys[: i + 1]) + _ss(ys[i + 1 :]))
    return scores


def clear_margins(X, y, min_leaf, depth=0, max_depth=2, tol=1e-7):
    """True when every node's winning split beats the runner-up clearly.

    Near-tied split scores make the winner depend on float summation
    order, so structural oracle comparisons only make sense on datasets
    without knife-edge ties.
    """
    if depth >= max_depth or _ss(y) <= 0.0:
        return True
    scores = sorted(all_split_scores(X, y, min_leaf))
    if not scores:
        return True
    if len(scores) > 1 and scores[1] - scores[0] <= tol * max(1.0, scores[0]):
        return False
    j, thr, _ = oracle_split(X, y, min_leaf)
    mask = X[:, j] <= thr
    return clear_margins(
        X[mask], y[mask], min_leaf, depth + 1, max_depth, tol
    ) and clear_margins(X[~mask], y[~mask], min_leaf, depth + 1, max_depth, tol)


def generic_datasets(seed, count, n, d, min_leaf):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        if clear_margins(X, y, min_leaf):
            out.append((X, y))
    return out


def test_constant_target_single_leaf():
    model = fit_tree(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
    p = model.params
    assert p.n_nodes == 1
    assert p.feature[0] == -1
    assert p.value[0] == 5.0
    assert np.allclose(model.predict_prepared([[0.0], [99.0]]), [5.0, 5.0])


def test_step_function_split():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    p = fit_tree(X, y).params
    assert p.n_nodes == 3
    assert p.feature[0] == 0
    assert p.threshold[0] == 0.5
    assert p.value[p.left[0]] == 0.0
    assert p.value[p.right[0]] == 10.0
    assert p.impurity[0] == 100.0


def test_threshold_boundary_goes_left():
    model = fit_tree(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]))
    assert model.predict_prepared([[0.5]])[0] == 0.0
    assert model.predict_prepared([[0.5000001]])[0] == 10.0


def test_tie_breaks_lowest_feature():
    # identical columns score identically; feature 0 must win
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    p = fit_tree(X, y, max_depth=1).params
    assert p.feature[0] == 0


def test_tie_breaks_lowest_threshold():
    # boundaries at 0.5 and 2.5 tie on score; the lower one wins
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    p = fit_tree(X, y, max_depth=1).params
    assert p.feature[0] == 0
    assert p.threshold[0] == 0.5


def test_best_split_none_when_min_leaf_blocks():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 2.0])
    assert best_split(X, y, min_leaf=2) is None
    assert best_split(X, y, min_leaf=1) is not None


def test_best_split_ignores_constant_feature():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    j, thr, score = best_split(X, y, min_leaf=1)
    assert j == 1
    assert thr == 1.5
    assert score == 0.0


def test_matches_exhaustive_oracle_depth_two():
    for X, y in generic_datasets(100, 20, 20, 3, 1):
        p = fit_tree(X, y, max_depth=2, min_leaf=1).params
        nodes = flatten_preorder(oracle_tree(X, y, 0, 2, 1))
        assert p.n_nodes == len(nodes)
        for i, node in enumerate(nodes):
            assert p.feature[i] == node["feature"]
            assert p.n_samples[i] == node["n"]
            assert abs(p.threshold[i] - node["threshold"]) < 1e-12
            assert abs(p.value[i] - node["value"]) < 1e-9
            assert abs(p.impurity[i] - node["ss"]) < 1e-9


def test_matches_oracle_with_min_leaf():
    for X, y in generic_datasets(101, 10, 24, 3, 4):
        p = fit_tree(X, y, max_depth=2, min_leaf=4).params
        nodes = flatten_preorder(oracle_tree(X, y, 0, 2, 4))
        assert p.n_nodes == len(nodes)
        for i, node in enumerate(nodes):
            assert p.feature[i] == node["feature"]
            assert abs(p.threshold[i] - node["threshold"]) < 1e-12
            assert abs(p.value[i] - node["value"]) < 1e-9


def node_depths(p):
    depth = {0: 0}
    order = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if p.feature[i] != -1:
            depth[int(p.left[i])] = depth[i] + 1
            depth[int(p.right[i])] = depth[i] + 1
            stack.extend((int(p.left[i]), int(p.right[i])))
    return depth


def test_depth_bound_respected():
    rng = np.random.default_rng(102)
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    p = fit_tree(X, y, max_depth=3).params
    assert max(node_depths(p).values()) <= 3


def test_max_depth_zero_is_mean_predictor():
    rng = np.random.default_rng(103)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_tree(X, y, max_depth=0)
    assert model.params.n_nodes == 1
    assert abs(model.params.value[0] - y.mean()) < 1e-12


def test_min_leaf_respected_in_leaves():
    rng = np.random.default_rng(104)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    p = fit_tree(X, y, min_leaf=5).params
    leaf = p.feature == -1
    assert p.n_samples[leaf].min() >= 5
    assert p.n_samples[0] == 60


def test_unlimited_depth_fits_train_exactly():
    rng = np.random.default_rng(105)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_tree(X, y)
    assert np.abs(model.predict_prepared(X) - y).max() < 1e-12


def test_single_row_is_a_leaf():
    model = fit_tree(np.array([[1.0, 2.0]]), np.array([7.0]))
    assert model.params.n_nodes == 1
    assert model.params.value[0] == 7.0


def test_validation_errors():
    X = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ValueError, match="min_leaf"):
        fit_tree(X, y, min_leaf=0)
    with pytest.raises(ValueError, match="max_depth"):
        fit_tree(X, y, max_depth=-1)
    with pytest.raises(ValueError, match="zero rows"):
        fit_tree(np.ones((0, 2)), np.ones(0))
    with pytest.raises(ValueError, match="need at least 6 rows"):
        fit_tree(np.ones((5, 2)), np.arange(5.0), min_leaf=3)
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        fit_tree(np.ones(4), y)


def test_serialization_round_trip():
    rng = np.random.default_rng(106)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = fit_tree(X, y, max_depth=4, min_leaf=2)
    back = model_from_json(json.loads(json.dumps(model_to_json(model))))
    assert back.spec.hyperparameters == {"max_depth": 4, "min_leaf": 2}
    grid = rng.normal(size=(20, 3))
    assert np.array_equal(back.predict_prepared(grid), model.predict_prepared(grid))


def reference_grow(X, y, max_depth, min_leaf, rng, feat_frac):
    """grow_tree restated as best_split on X[rows] at every node.

    Nodes come out in preorder and the feature subsample is drawn, in
    that order, at every node that is neither at max_depth nor pure.
    """
    d = X.shape[1]
    cols = {k: [] for k in ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")}

    def grow(rows, depth):
        node = len(cols["feature"])
        ys = y[rows]
        for k, v in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1),
                     ("value", float(ys.mean())), ("n_samples", rows.shape[0]),
                     ("impurity", _ss(ys))):
            cols[k].append(v)
        if (max_depth is not None and depth >= max_depth) or cols["impurity"][node] <= 0.0:
            return
        feats = None
        if feat_frac is not None:
            k = max(1, min(int(np.ceil(feat_frac * d)), d))
            feats = np.sort(rng.choice(d, size=k, replace=False))
        split = best_split(X[rows], ys, min_leaf, feats)
        if split is None:
            return
        j, thr, _ = split
        mask = X[rows, j] <= thr
        cols["feature"][node], cols["threshold"][node] = j, thr
        cols["left"][node] = len(cols["feature"])
        grow(rows[mask], depth + 1)
        cols["right"][node] = len(cols["feature"])
        grow(rows[~mask], depth + 1)

    grow(np.arange(y.shape[0]), 0)
    return cols


@st.composite
def tree_problems(draw):
    """Small matrices with many tied values, some constant columns and
    (optionally) bootstrap-duplicated rows.  Targets are decimal fractions
    of mixed magnitude, so a different summation order shows up in the
    low bits."""
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.integers(1, 6))
    X = rng.integers(0, levels, size=(n, d)) * 0.3
    X[:, rng.random(d) < 0.25] = 1.5
    if draw(st.booleans()):
        # A mirrored copy ties column 0's scores in exact arithmetic, so
        # float rounding (the summation order) picks the winner.
        X = np.column_stack([X, 2.0 - X[:, 0]])
    y = rng.integers(-20, 21, size=n) / 10.0 * 10.0 ** rng.integers(-2, 3, size=n)
    if draw(st.booleans()):
        rows = rng.integers(0, n, size=n)
        X, y = X[rows], y[rows]
    max_depth = draw(st.one_of(st.none(), st.integers(0, 6)))
    min_leaf = draw(st.integers(1, 4))
    feat_frac = draw(st.one_of(st.none(), st.floats(0.2, 1.0)))
    return X, y, max_depth, min_leaf, feat_frac, seed


@given(tree_problems())
@settings(max_examples=150, deadline=None)
def test_grow_tree_matches_per_node_best_split(problem):
    X, y, max_depth, min_leaf, feat_frac, seed = problem
    rng = None if feat_frac is None else np.random.default_rng(seed)
    p = grow_tree(X, y, max_depth=max_depth, min_leaf=min_leaf, rng=rng, feat_frac=feat_frac)
    rng = None if feat_frac is None else np.random.default_rng(seed)
    ref = reference_grow(X, y, max_depth, min_leaf, rng, feat_frac)
    for name, values in ref.items():
        assert np.array_equal(getattr(p, name), np.array(values)), name
