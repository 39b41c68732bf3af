"""Random forest of regression trees.

Each tree trains on a bootstrap resample (same size as the input, drawn
with replacement) and considers only ceil(feat_frac * d) randomly drawn
features at every split.  Prediction is the plain mean over trees.  All
randomness flows from one seed through spawned per-tree generators, so
a given (data, hyperparameters, seed) triple always yields the same
forest regardless of how many trees ran before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, Params, TrainedModel, check_training_data
from .tree import TreeParams, grow_tree

FOREST = "forest"


@dataclass(frozen=True)
class ForestParams(Params):
    families = (FOREST,)
    trees: tuple[TreeParams, ...]

    def __post_init__(self):
        if not self.trees:
            raise ValueError("trees: a forest needs at least one tree")

    def check_features(self, n: int, path: str) -> None:
        for i, tree in enumerate(self.trees):
            tree.check_features(n, f"{path}.trees[{i}]")

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for t in self.trees:
            out += t.predict(X)
        return out / len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_depth: int | None = None,
    min_leaf: int = 1,
    feat_frac: float = 1.0 / 3.0,
    bootstrap: bool = True,
    seed: int = 0,
) -> TrainedModel:
    """Fit a seeded random forest.

    ``bootstrap=False`` trains every tree on the full sample, leaving
    the per-split feature draw as the only source of variety.
    """
    X, y = check_training_data(X, y)
    if y.shape[0] == 0:
        raise ValueError("cannot fit a forest on zero rows")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if not 0.0 < feat_frac <= 1.0:
        raise ValueError(f"feat_frac must be in (0, 1], got {feat_frac}")

    n = y.shape[0]
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            Xb, yb = X[rows], y[rows]
        else:
            Xb, yb = X, y
        trees.append(
            grow_tree(
                Xb, yb, max_depth=max_depth, min_leaf=min_leaf,
                rng=rng, feat_frac=feat_frac,
            )
        )
    spec = ModelSpec(
        family=FOREST,
        hyperparameters={
            "n_trees": n_trees,
            "max_depth": max_depth,
            "min_leaf": min_leaf,
            "feat_frac": feat_frac,
            "bootstrap": bootstrap,
        },
        seed=seed,
    )
    return TrainedModel(spec=spec, params=ForestParams(tuple(trees)))
