"""Regression tree (CART) with an exhaustive, vectorized split search.

Each node minimizes the summed within-side squared deviation
(left_ss + right_ss) over every feature and every boundary between
consecutive distinct sorted values.  Thresholds are midpoints, rows with
x <= threshold go left, and ties in score break toward the lowest
feature index and then the lowest threshold.

The builder sorts each column once per tree, stably, and a split hands
each child its rows' per-column orders by a stable boolean partition
(Breiman et al., *Classification and Regression Trees*, 1984).  So at
every node each column's order is the node's rows sorted by (value, row
index): exactly what a stable argsort of that node's rows would give.
The node's row list stays in ascending order, so its sums and means add
in the same order as ``y[rows]``.  A node scores all its candidate
features in one pass over a (features, rows) array, and the fitted tree
is bit-identical to calling :func:`best_split` on ``X[rows]`` at every
node, which stays as the exhaustive reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, TrainedModel, check_training_data, register_family

TREE = "tree"

_LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    """Flat-array tree: node i is a leaf iff feature[i] == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[idx] != _LEAF
        while active.any():
            rows = np.nonzero(active)[0]
            nodes = idx[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            idx[rows] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = self.feature[idx] != _LEAF
        return self.value[idx]


def _node_ss(y: np.ndarray) -> float:
    m = y.mean()
    return float(((y - m) ** 2).sum())


def best_split(
    X: np.ndarray, y: np.ndarray, min_leaf: int, feature_ids: np.ndarray | None = None
) -> tuple[int, float, float] | None:
    """Return (feature, threshold, score) of the best split, or None.

    ``feature_ids`` restricts the search to those columns (used by the
    forest); score is left_ss + right_ss.  None means no boundary leaves
    min_leaf rows on both sides.
    """
    n = y.shape[0]
    if n < 2 * min_leaf:
        return None
    cols = range(X.shape[1]) if feature_ids is None else feature_ids
    best: tuple[int, float, float] | None = None
    total1 = y.sum()
    total2 = (y * y).sum()
    for j in cols:
        xs = X[:, j]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        ys = y[order]
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        counts = np.arange(1, n, dtype=float)
        left_ss = s2[:-1] - s1[:-1] ** 2 / counts
        right_ss = (total2 - s2[:-1]) - (total1 - s1[:-1]) ** 2 / (n - counts)
        scores = np.maximum(left_ss, 0.0) + np.maximum(right_ss, 0.0)
        valid = xs[:-1] < xs[1:]
        if min_leaf > 1:
            valid = valid.copy()
            valid[: min_leaf - 1] = False
            valid[n - min_leaf :] = False
        if not valid.any():
            continue
        scores = np.where(valid, scores, np.inf)
        i = int(np.argmin(scores))
        score = float(scores[i])
        if best is None or score < best[2]:
            thr = float((xs[i] + xs[i + 1]) / 2.0)
            best = (int(j), thr, score)
    return best


class _Builder:
    def __init__(self, X: np.ndarray, y: np.ndarray, max_depth, min_leaf: int, rng=None, feat_frac=None):
        self.XT = np.ascontiguousarray(X.T)
        self.y = y
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.rng = rng
        self.feat_frac = feat_frac
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_samples: list[int] = []
        self.impurity: list[float] = []

    def _candidate_features(self) -> np.ndarray:
        d = self.XT.shape[0]
        if self.feat_frac is None:
            return np.arange(d)
        k = int(np.ceil(self.feat_frac * d))
        k = max(1, min(k, d))
        return np.sort(self.rng.choice(d, size=k, replace=False))

    def _split(self, orders, ysub, feats):
        """best_split's answer for the node, from its presorted orders.

        Scores every candidate feature at once on a (k, m) array; the
        row-wise argmin takes each feature's lowest tied threshold and
        the argmin over features its lowest tied index.
        """
        m = ysub.shape[0]
        if m < 2 * self.min_leaf or feats.shape[0] == 0:
            return None
        order = orders[feats]
        xs = self.XT[feats[:, None], order]
        ys = self.y[order]
        s1 = np.cumsum(ys, axis=1)[:, :-1]
        s2 = np.cumsum(ys * ys, axis=1)[:, :-1]
        total1 = ysub.sum()
        total2 = (ysub * ysub).sum()
        counts = np.arange(1, m, dtype=float)
        left_ss = s2 - s1**2 / counts
        right_ss = (total2 - s2) - (total1 - s1) ** 2 / (m - counts)
        scores = np.maximum(left_ss, 0.0) + np.maximum(right_ss, 0.0)
        valid = xs[:, :-1] < xs[:, 1:]
        if self.min_leaf > 1:
            valid[:, : self.min_leaf - 1] = False
            valid[:, m - self.min_leaf :] = False
        scores[~valid] = np.inf
        best_i = scores.argmin(axis=1)
        f = int(scores[np.arange(feats.shape[0]), best_i].argmin())
        i = best_i[f]
        if not valid[f, i]:
            return None
        return int(feats[f]), float((xs[f, i] + xs[f, i + 1]) / 2.0)

    def build(self) -> TreeParams:
        n = self.y.shape[0]
        go_left = np.zeros(n, dtype=bool)
        # (ascending rows, per-column orders, depth, parent_id, is_left);
        # right child pushed first so ids come out in preorder.
        stack = [(np.arange(n), np.argsort(self.XT, axis=1, kind="stable"), 0, -1, False)]
        while stack:
            rows, orders, depth, parent, is_left = stack.pop()
            node_id = len(self.feature)
            if parent >= 0:
                if is_left:
                    self.left[parent] = node_id
                else:
                    self.right[parent] = node_id
            ysub = self.y[rows]
            ss = _node_ss(ysub)
            self.feature.append(_LEAF)
            self.threshold.append(0.0)
            self.left.append(_LEAF)
            self.right.append(_LEAF)
            self.value.append(float(ysub.mean()))
            self.n_samples.append(int(rows.shape[0]))
            self.impurity.append(ss)

            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if ss <= 0.0:
                continue
            split = self._split(orders, ysub, self._candidate_features())
            if split is None:
                continue
            j, thr = split
            self.feature[node_id] = j
            self.threshold[node_id] = thr
            mask = self.XT[j, rows] <= thr
            go_left[rows] = mask
            flags = go_left[orders]
            for side, sel in ((False, ~mask), (True, mask)):
                child = rows[sel]
                child_orders = None
                if child.shape[0] >= 2 * self.min_leaf and (
                    self.max_depth is None or depth + 1 < self.max_depth
                ):
                    # Only a child that may split needs its orders.
                    child_orders = orders[flags == side].reshape(-1, child.shape[0])
                stack.append((child, child_orders, depth + 1, node_id, side))
        return TreeParams(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value, dtype=float),
            n_samples=np.array(self.n_samples, dtype=np.int64),
            impurity=np.array(self.impurity, dtype=float),
        )


def grow_tree(X, y, max_depth=None, min_leaf: int = 1, rng=None, feat_frac=None) -> TreeParams:
    """Raw tree growth; the forest calls this with a feature subsample."""
    return _Builder(X, y, max_depth, min_leaf, rng, feat_frac).build()


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> TrainedModel:
    """Fit a CART regression tree.

    ``max_depth=None`` grows until nodes are pure or min_leaf blocks
    every boundary; depth 0 is a single leaf predicting the mean.
    """
    X, y = check_training_data(X, y)
    if y.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if y.shape[0] < 2 * min_leaf and y.shape[0] > 1:
        raise ValueError(
            f"need at least {2 * min_leaf} rows for min_leaf={min_leaf}, got {y.shape[0]}"
        )
    params = grow_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)
    spec = ModelSpec(
        family=TREE,
        hyperparameters={"max_depth": max_depth, "min_leaf": min_leaf},
    )
    return TrainedModel(spec=spec, params=params)


def _tree_to_json(p: TreeParams) -> dict:
    return {
        "feature": p.feature.tolist(),
        "threshold": p.threshold.tolist(),
        "left": p.left.tolist(),
        "right": p.right.tolist(),
        "value": p.value.tolist(),
        "n_samples": p.n_samples.tolist(),
        "impurity": p.impurity.tolist(),
    }


def _tree_from_json(o: dict) -> TreeParams:
    return TreeParams(
        feature=np.array(o["feature"], dtype=np.int64),
        threshold=np.array(o["threshold"], dtype=float),
        left=np.array(o["left"], dtype=np.int64),
        right=np.array(o["right"], dtype=np.int64),
        value=np.array(o["value"], dtype=float),
        n_samples=np.array(o["n_samples"], dtype=np.int64),
        impurity=np.array(o["impurity"], dtype=float),
    )


register_family(TREE, _tree_to_json, _tree_from_json)
