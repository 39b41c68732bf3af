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

from dataclasses import dataclass, fields

import numpy as np

from .base import FloatVector, IntVector, ModelSpec, Params, TrainedModel, check_training_data

TREE = "tree"

_LEAF = -1


@dataclass(frozen=True)
class TreeParams(Params):
    """Flat-array tree: node i is a leaf iff feature[i] == -1.  Nodes are in
    preorder; arrays that form no such tree are refused, so predict and export end."""

    families = (TREE,)
    feature: IntVector
    threshold: FloatVector
    left: IntVector
    right: IntVector
    value: FloatVector
    n_samples: IntVector
    impurity: FloatVector

    def __post_init__(self):
        n, split = self.n_nodes, self.feature != _LEAF
        for f in fields(self):
            if n == 0 or getattr(self, f.name).shape != (n,):
                raise ValueError(f"{f.name}: the node arrays need one equal length, at least 1")
        if self.feature.min() < _LEAF:
            raise ValueError("feature: a split feature is a column index, or -1 at a leaf")
        ids = np.arange(n)
        for name in ("left", "right"):
            child = getattr(self, name)
            bad = np.where(split, (child <= ids) | (child >= n), child != _LEAF)
            if bad.any():
                i = bad.argmax()
                raise ValueError(f"{name}: node {i}'s child is {child[i]}, not a later "
                                 "node (or -1 at a leaf)")
        children = np.concatenate([self.left[split], self.right[split]])
        if not np.array_equal(np.sort(children), ids[1:]):
            raise ValueError("left, right: each node but the root needs exactly one parent")

    def check_features(self, n: int, path: str) -> None:
        if self.feature.max() >= n:
            raise ValueError(f"model file: {path}: feature: split on column "
                             f"{self.feature.max()}, past the {n} feature names")

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

    def _split(self, orders, ysub, total1, feats):
        """best_split's answer for the node, from its presorted orders.

        Scores every candidate feature at once on a (k, m) array; the
        argmin over features' lowest scores takes the lowest tied
        feature index, and the argmin along its row its lowest tied
        threshold.  ``total1`` is ``ysub.sum()``.
        """
        m = ysub.shape[0]
        if m < 2 * self.min_leaf or feats.shape[0] == 0:
            return None
        order = orders[feats]
        xs = self.XT[feats[:, None], order]
        ys = self.y[order]
        s1 = np.cumsum(ys, axis=1)[:, :-1]
        s2 = np.cumsum(ys * ys, axis=1)[:, :-1]
        total2 = (ysub * ysub).sum()
        counts = np.arange(1, m, dtype=float)
        scores = s2 - s1**2 / counts  # left_ss
        right_ss = (total2 - s2) - (total1 - s1) ** 2 / (m - counts)
        np.maximum(scores, 0.0, out=scores)
        np.maximum(right_ss, 0.0, out=right_ss)
        scores += right_ss
        valid = xs[:, :-1] < xs[:, 1:]
        if self.min_leaf > 1:
            valid[:, : self.min_leaf - 1] = False
            valid[:, m - self.min_leaf :] = False
        scores[~valid] = np.inf
        f = int(scores.min(axis=1).argmin())
        i = int(scores[f].argmin())
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
            total1 = ysub.sum()
            mean = total1 / rows.shape[0]  # what ysub.mean() computes
            ss = float(((ysub - mean) ** 2).sum())
            self.feature.append(_LEAF)
            self.threshold.append(0.0)
            self.left.append(_LEAF)
            self.right.append(_LEAF)
            self.value.append(float(mean))
            self.n_samples.append(int(rows.shape[0]))
            self.impurity.append(ss)

            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if ss <= 0.0:
                continue
            split = self._split(orders, ysub, total1, self._candidate_features())
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
