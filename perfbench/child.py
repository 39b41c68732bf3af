"""Processes the benchmark starts; each measures one thing and exits.

    child.py probe OUT                    import convperf.cli, write versions
    child.py stage [trace opts] -- ARGV   run ``convperf ARGV`` (one CLI stage)
    child.py grid OUT --seed --conversations --seconds [trace opts]
    child.py prepare OUT --seed --conversations [trace opts]
    child.py fit OUT --family --data --seed [trace opts]

With ``--trace-out PATH`` a child wraps convperf's public functions (see
``tracing.py``) and writes its spans to PATH when it ends.  The parent
sets ``PYTHONPATH`` to the checkout's ``src`` and pins BLAS/OpenMP to one
thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import tracing
from run import SETUP_REPEATS

SVR_ROWS = 3000
MLP_HP = {"hidden": [100, 50], "max_epochs": 30}
FOREST_HP = {"n_trees": 10, "max_depth": 14, "min_leaf": 8}


class _Trace:
    """A tracer (when ``--trace-out`` is given) installed only inside ``traced()``."""

    def __init__(self, args):
        self.out = args.trace_out
        self.tracer = tracing.Tracer(parent=args.trace_parent) if self.out else None

    @contextlib.contextmanager
    def traced(self, run_id, name):
        if self.tracer is None:
            yield
            return
        self.tracer.run_id = run_id
        undo = tracing.install(self.tracer)
        span = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(span)
            undo()

    def dump(self):
        if self.tracer is not None:
            self.tracer.dump(self.out)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# ------------------------------------------------------------------ probe


def probe(args):
    import convperf.cli  # noqa: F401  (the import is what is measured)

    _write_json(args.out, {"python": platform.python_version(), "numpy": np.__version__})
    return 0


# ------------------------------------------------------------------ stage


def stage(args):
    import convperf.cli

    trace = _Trace(args)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        with trace.traced("job", "cli.main"):
            return convperf.cli.main(argv)
    finally:
        trace.dump()


# ------------------------------------------------------------ shared set-up


def build_corpus(n, seed):
    """synth -> tag -> length filter -> split, as the README library example.

    Returns the split corpus and the problems found by checking it
    against the raw corpus.
    """
    from convperf import corpus, synth, tagging

    raw = synth.generate(synth.GeneratorConfig(n_conversations=n, seed=seed))
    tagged = tagging.tag_corpus(raw, tagging.default_config())
    split = corpus.split_corpus(corpus.filter_min_length(tagged, checks.MIN_LENGTH), seed=seed)
    kept = sum(1 for c in raw if len(c.exchanges) >= checks.MIN_LENGTH)
    problems = []
    if len(split) != kept:
        problems.append(f"kept {len(split)} conversations, expected {kept}")
    counts = {s: 0 for s in ("train", "dev", "test")}
    for s in split.split_assignment.values():
        counts[s] += 1
    if counts != checks.split_sizes(kept):
        problems.append(f"split sizes {counts} break the floor 80/10/10 rule")
    return split, problems


def _setups(trace, n, seed):
    """Set up SETUP_REPEATS times (the last one traced); keep the last."""
    times = []
    built = None
    for i in range(SETUP_REPEATS):
        built = None  # free the previous copy before building the next
        last = i == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        with trace.traced("setup", "bench.setup") if last else contextlib.nullcontext():
            built = build_corpus(n, seed)
        times.append(time.perf_counter() - t0)
    return times, built


# ------------------------------------------------------------------- grid


def grid_cells(seed):
    """{independent, dependent} x {full, prefix 10, prefix 15} x {rating, length}."""
    from convperf.experiment import GridCell
    from convperf.regressors import CAPPED_LENGTH, RATING, ModelSpec, TargetKind

    return [
        GridCell(ModelSpec("ridge", {"lambda": 1.0}, seed=seed), fs, TargetKind(kind), k)
        for fs in ("independent", "dependent")
        for k in (None, 10, 15)
        for kind in (RATING, CAPPED_LENGTH)
    ]


def _grid_once(experiment, cells, corpus, seed, n_test):
    """One timed run_grid; returns (wall, failed cells, mean r2, report digest)."""
    t0 = time.perf_counter()
    try:
        results = experiment.run_grid(cells, corpus, seed=seed)
    except Exception:  # a failing cell aborts the grid: every cell counts
        traceback.print_exc()
        return time.perf_counter() - t0, len(cells), None, None
    wall = time.perf_counter() - t0
    text = io.StringIO()
    experiment.write_reports_csv(text, [r.report for r in results])
    problems, r2 = checks.check_report_csv(text.getvalue(), len(cells), n_test)
    for p in problems:
        print(f"grid check: {p}", file=sys.stderr)
    failed = len(cells) - len(r2) if problems else 0
    mean_r2 = statistics.fmean(r2) if r2 else None
    return wall, failed, mean_r2, checks.sha256_bytes(text.getvalue().encode("utf-8"))


def grid(args):
    from convperf import experiment

    trace = _Trace(args)
    setup_s, (corpus, problems) = _setups(trace, args.conversations, args.seed)
    if problems:
        raise SystemExit("grid set-up check failed: " + "; ".join(problems))
    n_test = checks.split_sizes(len(corpus))["test"]
    cells = grid_cells(args.seed)
    out = {
        "setup_s": setup_s,
        "exchanges": sum(len(c.exchanges) for c in corpus),
        "cells": len(cells),
        "iterations": [],
    }
    start = time.perf_counter()
    while True:
        out["iterations"].append(_grid_once(experiment, cells, corpus, args.seed, n_test))
        if time.perf_counter() - start >= args.seconds:
            break
    if trace.tracer is not None:
        with trace.traced("job", "bench.job"):
            out["traced"] = _grid_once(experiment, cells, corpus, args.seed, n_test)
    trace.dump()
    _write_json(args.out, out)
    return 0


# ---------------------------------------------------------------- solvers


def prepare(args):
    """Standardized dependent-feature matrices and length targets, as .npz."""
    from convperf import features
    from convperf.regressors import CAPPED_LENGTH, TargetKind, make_targets

    trace = _Trace(args)
    with trace.traced("setup", "bench.setup"):
        corpus, problems = build_corpus(args.conversations, args.seed)
        schema = features.FeatureSchema()
        names = schema.names(features.DEPENDENT)
        mats, ys = {}, {}
        for split in ("train", "dev", "test"):
            convs = corpus.subset(split)
            _, mats[split] = features.build_matrix(convs, schema, features.DEPENDENT)
            ys[split] = make_targets(convs, TargetKind(CAPPED_LENGTH))
        std = features.Standardizer.fit(mats["train"], names)
        arrays = {}
        for split in mats:
            arrays[f"X_{split}"] = std.transform(mats[split])
            arrays[f"y_{split}"] = ys[split]
            if not np.isfinite(arrays[f"X_{split}"]).all():
                problems.append(f"{split} matrix has a non-finite cell")
        np.savez(args.data, **arrays)
    trace.dump()
    _write_json(args.out, {
        "problems": problems,
        "exchanges": sum(len(c.exchanges) for c in corpus),
        "rows": {s: int(a.shape[0]) for s, a in mats.items()},
    })
    return 0


def solver_spec(family, seed):
    from convperf.regressors import ModelSpec

    hp = {"forest": FOREST_HP, "svr": {}, "mlp": MLP_HP}[family]
    return ModelSpec(family, dict(hp), seed=seed)


def fit(args):
    from convperf import experiment

    trace = _Trace(args)
    with np.load(args.data) as data:
        X, y = data["X_train"], data["y_train"]
        X_test, y_test = data["X_test"], data["y_test"]
    if args.family == "svr":
        X, y = X[:SVR_ROWS], y[:SVR_ROWS]
    with trace.traced("job", "child.fit"):
        t0 = time.perf_counter()
        model = experiment.fit_spec(solver_spec(args.family, args.seed), X, y)
        t1 = time.perf_counter()
        pred = model.predict_prepared(X_test)
        t2 = time.perf_counter()
    trace.dump()
    resid = y_test - pred
    centred = y_test - y_test.mean()
    _write_json(args.out, {
        "rows": int(X.shape[0]),
        "n_test": int(pred.shape[0]),
        "fit_s": t1 - t0,
        "predict_s": t2 - t1,
        "r2": float(1.0 - resid @ resid / (centred @ centred)),
        "predictions_sha256": checks.sha256_bytes(np.ascontiguousarray(pred).tobytes()),
    })
    return 0


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, out=True):
        p = sub.add_parser(name)
        if out:
            p.add_argument("out")
        p.add_argument("--trace-out")
        p.add_argument("--trace-parent")
        p.set_defaults(func=func)
        return p

    add("probe", probe)
    add("stage", stage, out=False).add_argument("argv", nargs=argparse.REMAINDER)
    p = add("grid", grid)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--conversations", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p = add("prepare", prepare)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--conversations", type=int, required=True)
    p.add_argument("--data", required=True)
    p = add("fit", fit)
    p.add_argument("--family", choices=("forest", "svr", "mlp"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
