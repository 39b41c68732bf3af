"""Random forest of regression trees.

Each tree trains on a bootstrap resample (same size as the input, drawn
with replacement) and considers only ceil(feat_frac * d) randomly drawn
features at every split.  Prediction is the plain mean over trees.  All
randomness flows from one seed through spawned per-tree generators, so
a given (data, hyperparameters, seed) triple always yields the same
forest regardless of how many trees ran before.

A fit ranks the matrix's columns once (:func:`tree.dense_ranks`) and
each tree sorts its rows' ranks.  The trees are independent (Breiman,
*Random Forests*, 2001), so they grow on every CPU the process may use:
with w = min(usable CPUs, n_trees), w - 1 forked workers each grow every
w-th tree and send it back over a pipe, and the parent grows the rest.
Each tree depends only on its own index, so the forest is the same for
any w.  The parent grows every tree itself where ``os.fork`` is
missing, where other Python threads run, or where a fork fails.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, Params, TrainedModel, check_training_data
from .tree import TreeParams, check_sizes, dense_ranks, grow_tree

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
    check_sizes(max_depth, min_leaf)
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if not 0.0 < feat_frac <= 1.0:
        raise ValueError(f"feat_frac must be in (0, 1], got {feat_frac}")

    n = y.shape[0]
    ranks = dense_ranks(X)
    children = np.random.SeedSequence(seed).spawn(n_trees)

    def grow(i: int) -> TreeParams:
        rng = np.random.default_rng(children[i])
        if bootstrap:
            rows = rng.integers(0, n, size=n)
            Xb, yb, rb = X[rows], y[rows], ranks[:, rows]
        else:
            Xb, yb, rb = X, y, ranks
        return grow_tree(
            Xb, yb, max_depth=max_depth, min_leaf=min_leaf,
            rng=rng, feat_frac=feat_frac, ranks=rb,
        )

    trees = _map_on_cpus(grow, n_trees)
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


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_on_cpus(fn, count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, computed on up to ``_usable_cpus()`` CPUs.

    With w = min(usable CPUs, count), forked worker k computes fn(k),
    fn(k + w), ... and the parent computes share 0, and the share of any
    worker that could not be forked.  Every worker is reaped before this
    returns or raises; a worker's exception is raised here.
    """
    w = min(_usable_cpus(), count)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        w = 1  # forking with other threads running can deadlock the child
    results = [None] * count
    workers = {}  # share -> (pid, read end of its pipe)
    try:
        for k in range(1, w):
            started = _fork(fn, range(k, count, w))
            if started is None:
                break
            workers[k] = started
        for k in range(w):
            if k not in workers:
                for i in range(k, count, w):
                    results[i] = fn(i)
        for k in list(workers):
            pid, pipe = workers[k]
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[k]
            if code != 0 or not reply:
                raise RuntimeError(f"forest worker {pid} ended without its trees "
                                   f"(exit status {code})")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results[k::w] = value
    finally:
        for pid, pipe in workers.values():  # only on an error
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fork(fn, indices):
    """Fork a worker that sends back ``[fn(i) for i in indices]``, or the
    exception that stopped it; (pid, read end), or None if fork fails."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                reply = pickle.dumps((True, [fn(i) for i in indices]))
            except BaseException as exc:
                reply = pickle.dumps((False, exc))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(reply)
            code = 0
        finally:
            os._exit(code)  # no atexit handlers, no flush of the parent's buffers
    os.close(write)
    return pid, os.fdopen(read, "rb")

