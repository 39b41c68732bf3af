"""Release gate: seven end-to-end checks over the whole toolkit.

Each test prints one verdict line ('criterion N (<label>): PASS' or
'... FAIL') outside pytest's capture so a plain run shows the scoreboard.
Failures also surface through ordinary assertions with details.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from convperf import synth, tagging
from convperf.cli import main
from convperf.corpus import (
    filter_min_length,
    parse_corpus,
    split_corpus,
    write_corpus_jsonl,
)
from convperf.experiment import GridCell, run_grid
from convperf.features import (
    FeatureSchema,
    Standardizer,
    build_matrix,
)
from convperf.metrics import mse, pearson, r_squared, student_t_two_tailed_p
from convperf.regressors import (
    CAPPED_LENGTH,
    RATING,
    ModelSpec,
    TargetKind,
    fit_linear,
    fit_svr,
    fit_tree,
    svr,
)
from convperf.regressors.mlp import init_weights, loss_and_grads

from conftest import feature_values, record

SCHEMA = FeatureSchema()
FOREST_HP = {"n_trees": 10, "max_depth": 14, "min_leaf": 8}


def verdict(capsys, num, label, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures)


def prepared(raw, seed):
    tagged = tagging.tag_corpus(raw, tagging.default_config())
    return split_corpus(filter_min_length(tagged, 5), seed=seed)


# ----------------------------------------------------- expensive shared runs


@pytest.fixture(scope="session")
def default_runs():
    """Five default 30k corpora: calibration stats plus grid results."""
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(5):
        raw = synth.generate(synth.GeneratorConfig(n_conversations=30_000, seed=seed))
        ratings = np.array(raw.ratings, dtype=float)
        capped = np.array(raw.capped_lengths(), dtype=float)
        r, _ = pearson(ratings, capped)
        corpus = prepared(raw, seed)
        cells = [
            GridCell(
                ModelSpec("forest", dict(FOREST_HP), seed=0),
                "independent",
                TargetKind(CAPPED_LENGTH),
            ),
            GridCell(
                ModelSpec("forest", dict(FOREST_HP), seed=0),
                "independent",
                TargetKind(RATING),
            ),
            GridCell(
                ModelSpec("ridge", {"lambda": 1.0}),
                "independent",
                TargetKind(CAPPED_LENGTH),
                prefix_k=10,
            ),
            GridCell(
                ModelSpec("ridge", {"lambda": 1.0}),
                "independent",
                TargetKind(CAPPED_LENGTH),
                prefix_k=15,
            ),
        ]
        reports = [res.report for res in run_grid(cells, corpus, seed=seed)]
        per_seed.append(
            SimpleNamespace(
                seed=seed,
                mean_rating=float(ratings.mean()),
                median_rating=float(np.median(ratings)),
                rating_length_r=r,
                length_r2=reports[0].r2,
                rating_r2=reports[1].r2,
                prefix10_r2=reports[2].r2,
                prefix15_r2=reports[3].r2,
            )
        )
    return SimpleNamespace(per_seed=per_seed, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def compliment_runs():
    """Depth-5 length trees over five compliment-planted 30k corpora."""
    t0 = time.perf_counter()
    names = SCHEMA.names("independent")
    roots = []
    for seed in range(5):
        raw = synth.generate(synth.compliment_driven_config(30_000, seed=seed))
        corpus = prepared(raw, seed)
        train = corpus.subset("train")
        _, X = build_matrix(train, SCHEMA, "independent")
        std = Standardizer.fit(X, names)
        y = np.array(train.capped_lengths(), dtype=float)
        model = fit_tree(std.transform(X), y, max_depth=5, min_leaf=8)
        roots.append(names[model.params.feature[0]])
    return SimpleNamespace(roots=roots, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ablation_runs():
    raw = synth.generate(synth.single_signal_config(30_000, seed=0))
    corpus = prepared(raw, 0)
    cell = GridCell(
        ModelSpec("ridge", {"lambda": 1.0}),
        "independent",
        TargetKind(CAPPED_LENGTH),
    )
    drops = ((), ("freq_sda_compliment",), ("freq_midas_neg_answer",))
    cells = [replace(cell, drop=drop) for drop in drops]
    base, planted, inert = (r.report for r in run_grid(cells, corpus, seed=0))
    return SimpleNamespace(base=base, planted=planted, inert=inert)


# ------------------------------------------------- criterion 1: solver oracles


def _ss(v):
    v = np.asarray(v, dtype=float)
    return float(np.sum((v - v.mean()) ** 2))


def exhaustive_split(X, y):
    best = None
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for a, b in zip(xs[:-1], xs[1:]):
            thr = (a + b) / 2.0
            left = X[:, j] <= thr
            score = _ss(y[left]) + _ss(y[~left])
            if best is None or score < best[2]:
                best = (j, thr, score)
    return best


def exhaustive_tree(X, y, depth):
    node = {"value": float(np.mean(y)), "n": len(y)}
    sp = exhaustive_split(X, y) if depth > 0 and _ss(y) > 0 else None
    if sp is not None:
        j, thr, _ = sp
        mask = X[:, j] <= thr
        node["split"] = (j, thr)
        node["left"] = exhaustive_tree(X[mask], y[mask], depth - 1)
        node["right"] = exhaustive_tree(X[~mask], y[~mask], depth - 1)
    return node


def clear_margins(X, y, depth):
    """Reject datasets whose best split is a float-noise knife edge."""
    if depth <= 0 or _ss(y) <= 0.0:
        return True
    scores = []
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for a, b in zip(xs[:-1], xs[1:]):
            left = X[:, j] <= (a + b) / 2.0
            scores.append(_ss(y[left]) + _ss(y[~left]))
    scores.sort()
    if len(scores) > 1 and scores[1] - scores[0] <= 1e-7 * max(1.0, scores[0]):
        return False
    j, thr, _ = exhaustive_split(X, y)
    mask = X[:, j] <= thr
    return clear_margins(X[mask], y[mask], depth - 1) and clear_margins(
        X[~mask], y[~mask], depth - 1
    )


def trees_match(params, i, node):
    if "split" not in node:
        return params.feature[i] == -1 and abs(params.value[i] - node["value"]) < 1e-9
    if params.feature[i] != node["split"][0]:
        return False
    if abs(params.threshold[i] - node["split"][1]) > 1e-12:
        return False
    if params.n_samples[i] != node["n"]:
        return False
    return trees_match(params, params.left[i], node["left"]) and trees_match(
        params, params.right[i], node["right"]
    )


def min_hidden_preactivation(ws, X):
    a = X
    lowest = math.inf
    for i in range(0, len(ws) - 2, 2):
        z = a @ ws[i] + ws[i + 1]
        lowest = min(lowest, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return lowest


def test_criterion_1_solver_oracles(capsys):
    t0 = time.perf_counter()
    failures = []

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        model = fit_linear(X, y, family="ols")
        A = np.hstack([X, np.ones((50, 1))])
        theta = np.linalg.solve(A.T @ A, A.T @ y)
        got = np.append(model.params.coef, model.params.intercept)
        worst = max(worst, float(np.max(np.abs(got - theta))))
    if worst > 1e-8:
        failures.append(f"ols vs normal equations, max abs diff {worst:.3g}")

    rng = np.random.default_rng(202)
    case = 0
    while case < 20:
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        if not clear_margins(X, y, 2):
            continue
        case += 1
        model = fit_tree(X, y, max_depth=2)
        if not trees_match(model.params, 0, exhaustive_tree(X, y, 2)):
            failures.append(f"depth-2 tree differs from exhaustive search, case {case}")
            break

    ws = None
    for seed in range(7, 30):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        cand = init_weights(3, (5, 3), rng)
        # keep finite differences away from relu kinks
        if min_hidden_preactivation(cand, X) > 1e-4:
            ws = cand
            break
    assert ws is not None
    _, grads = loss_and_grads(ws, X, y)
    h = 1e-6
    worst_rel = 0.0
    for wi, gi in zip(ws, grads):
        flat = wi.ravel()
        gflat = np.asarray(gi).ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_and_grads(ws, X, y)[0]
            flat[k] = orig - h
            down = loss_and_grads(ws, X, y)[0]
            flat[k] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(gflat[k] - fd) / max(abs(gflat[k]), abs(fd), 1e-6)
            worst_rel = max(worst_rel, rel)
    if worst_rel > 1e-4:
        failures.append(f"mlp gradient vs finite differences, rel {worst_rel:.3g}")

    X = np.linspace(0.0, 2.0 * np.pi, 30, endpoint=False).reshape(-1, 1)
    y = np.sin(X[:, 0])
    C, eps, tol = 10.0, 0.05, svr.TOL
    model = fit_svr(X, y, C=C, epsilon=eps, gamma=1.0)
    beta = np.zeros(len(y))
    for row, b in zip(model.params.sv_x, model.params.sv_beta):
        hits = np.where((X == row).all(axis=1))[0]
        assert len(hits) == 1
        beta[hits[0]] = b
    if np.max(np.abs(beta)) > C + 1e-9 or abs(beta.sum()) > 1e-8 * C:
        failures.append("svr box or equality constraint violated")
    resid = y - model.predict_prepared(X)
    at_bound = 1e-8 * C
    gap = 0.0
    for b, r in zip(beta, resid):
        if b >= C - at_bound:
            gap = max(gap, eps - r)
        elif b > at_bound:
            gap = max(gap, abs(r - eps))
        elif b > -at_bound:
            gap = max(gap, abs(r) - eps)
        elif b > -C + at_bound:
            gap = max(gap, abs(r + eps))
        else:
            gap = max(gap, r + eps)
    if gap > tol + 1e-6:
        failures.append(f"svr tube conditions violated by {gap:.3g}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"oracle suite took {elapsed:.1f}s, budget 60s")
    verdict(capsys, 1, "solver oracles", failures)


# --------------------------------------------- criterion 2: metric correctness


def quad_two_tailed(t, dof):
    def pdf(x):
        ln = (
            math.lgamma((dof + 1) / 2.0)
            - math.lgamma(dof / 2.0)
            - 0.5 * math.log(dof * math.pi)
        )
        return math.exp(ln) * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)

    tail, _ = scipy.integrate.quad(pdf, abs(t), np.inf)
    return 2.0 * tail


def test_criterion_2_metric_correctness(capsys):
    failures = []
    pred = [1.0, 2.0, 3.0, 4.0]
    truth = [2.0, 2.0, 4.0, 4.0]
    if abs(mse(pred, truth) - 0.5) > 1e-10:
        failures.append("mse hand fixture")
    if abs(r_squared(pred, truth) - 0.5) > 1e-10:
        failures.append("r_squared hand fixture")
    r, _ = pearson(pred, truth)
    if abs(r - 2.0 / math.sqrt(5.0)) > 1e-10:
        failures.append("pearson hand fixture")

    rng = np.random.default_rng(4)
    truth = rng.normal(size=50)
    flat = np.full(50, truth.mean())
    if abs(r_squared(flat, truth)) > 1e-12:
        failures.append("mean predictor should score R^2 = 0")

    X = rng.normal(size=(60, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=60)
    model = fit_linear(X, y, family="ols")
    fitted = model.predict_prepared(X)
    r, _ = pearson(fitted, y)
    if abs(r_squared(fitted, y) - r * r) > 1e-9:
        failures.append("train-set R^2 != r^2 for a linear fit")

    for t in (0.3, 1.5, 2.2):
        for dof in (5, 18, 200):
            got = student_t_two_tailed_p(t, dof)
            want = quad_two_tailed(t, dof)
            if abs(got - want) > 1e-6:
                failures.append(f"p(t={t}, dof={dof}) off by {abs(got - want):.2g}")

    n = 25
    a = rng.normal(size=n)
    b = 0.4 * a + rng.normal(size=n)
    r, p = pearson(a, b)
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    if abs(p - quad_two_tailed(t_stat, n - 2)) > 1e-6:
        failures.append("pearson p-value disagrees with quadrature")

    verdict(capsys, 2, "metric correctness", failures)


# ---------------------------------------------- criterion 3: feature invariants


def mixed_conversation():
    plan = [
        ("movies", ("user_init",), ()),
        ("music", (), ("sda_compliment",)),
        ("movies", ("pos_answer",), ()),
        ("animals", (), ("sda_complaint", "sda_compliment")),
        ("music", ("sys_init",), ()),
        ("food", (), ()),
        ("movies", ("neg_answer",), ()),
    ]
    exchanges = [
        {"topic": t, "user": "some words " + "x " * (i % 4),
         "midas": list(midas), "sda": list(sda)}
        for i, (t, midas, sda) in enumerate(plan)
    ]
    return record("dup", rating=4, exchanges=exchanges)


def test_criterion_3_feature_invariants(capsys):
    failures = []

    conv = mixed_conversation()
    base = feature_values(conv, SCHEMA, "dependent")
    for times in (2, 3):
        big = {**conv, "exchanges": conv["exchanges"] * times}
        if feature_values(big, SCHEMA, "dependent") != base:
            failures.append("features changed under exchange duplication")
            break

    raw = synth.generate(synth.GeneratorConfig(n_conversations=2000, seed=11))
    corpus = prepared(raw, 11)
    _, X = build_matrix(corpus.subset("train"), SCHEMA, "dependent")
    std = Standardizer.fit(X, SCHEMA.names("dependent"))
    Z = std.transform(X)
    live = std.std > 0.0
    if np.max(np.abs(Z[:, live].mean(axis=0))) > 1e-9:
        failures.append("standardized train columns are not mean zero")
    if np.max(np.abs(Z[:, live].std(axis=0) - 1.0)) > 1e-9:
        failures.append("standardized train columns are not unit std")
    if not np.all(Z[:, ~live] == 0.0):
        failures.append("constant columns should standardize to zero")

    plan = ["comics"] * 13 + ["movies"] * 5 + ["music"] * 23
    conv = record("worked", rating=4, exchanges=[{"topic": t} for t in plan])
    vec = feature_values(conv, SCHEMA, "dependent")
    if vec["topic_freq_comics"] != 13 / 41 or vec["topic_freq_movies"] != 5 / 41:
        failures.append("worked topic frequencies 13/41 and 5/41 do not hold")

    verdict(capsys, 3, "feature invariants", failures)


# ---------------------------------------------- criterion 4: planted patterns


def test_criterion_4_planted_patterns(capsys, default_runs, compliment_runs):
    failures = []
    for run in default_runs.per_seed:
        if run.length_r2 < 0.80:
            failures.append(f"seed {run.seed}: length R^2 {run.length_r2:.3f} < 0.80")
        if run.rating_r2 > 0.25:
            failures.append(f"seed {run.seed}: rating R^2 {run.rating_r2:.3f} > 0.25")
        if run.prefix15_r2 < run.prefix10_r2:
            failures.append(
                f"seed {run.seed}: R^2(k=15) {run.prefix15_r2:.3f} < "
                f"R^2(k=10) {run.prefix10_r2:.3f}"
            )
    for seed, root in enumerate(compliment_runs.roots):
        if root != "freq_sda_compliment":
            failures.append(f"seed {seed}: tree root split on {root}")
    elapsed = default_runs.elapsed + compliment_runs.elapsed
    if elapsed >= 600.0:
        failures.append(f"pattern suite took {elapsed:.0f}s, budget 600s")
    verdict(capsys, 4, "planted patterns", failures)


# --------------------------------------------------- criterion 5: calibration


def test_criterion_5_calibration(capsys, default_runs):
    failures = []
    for run in default_runs.per_seed:
        if abs(run.mean_rating - 3.7) > 0.1:
            failures.append(f"seed {run.seed}: mean rating {run.mean_rating:.3f}")
        if run.median_rating != 4.0:
            failures.append(f"seed {run.seed}: median rating {run.median_rating}")
        if abs(run.rating_length_r - 0.134) > 0.05:
            failures.append(
                f"seed {run.seed}: rating/length r {run.rating_length_r:.3f}"
            )
    verdict(capsys, 5, "calibration", failures)


# --------------------------------------------------- criterion 6: determinism


def cli_run(root):
    root.mkdir()
    raw = root / "raw.jsonl"
    kept = root / "kept.jsonl"
    tagged = root / "tagged.jsonl"
    feats = root / "features.csv"
    model = root / "model.json"
    rep = root / "report.csv"
    corr = root / "correlations.csv"
    steps = [
        ["synth", "--out", str(raw), "--n", "2000", "--seed", "3"],
        ["ingest", "--in", str(raw), "--out", str(kept)],
        ["tag", "--in", str(kept), "--out", str(tagged)],
        ["featurize", "--in", str(tagged), "--out", str(feats), "--seed", "3"],
        [
            "train",
            "--features", str(feats),
            "--model-out", str(model),
            "--family", "ridge",
            "--lambda", "1.0",
            "--target", "length",
            "--seed", "3",
        ],
        ["evaluate", "--features", str(feats), "--model", str(model),
         "--report-out", str(rep)],
        ["correlate", "--in", str(tagged), "--report-out", str(corr)],
    ]
    for argv in steps:
        assert main(argv) == 0
    return [p.read_bytes() for p in (raw, kept, tagged, feats, model, rep, corr)]


def test_criterion_6_determinism(capsys, tmp_path):
    failures = []
    first = cli_run(tmp_path / "run1")
    second = cli_run(tmp_path / "run2")
    labels = ["corpus", "filtered corpus", "tagged corpus", "features",
              "model", "report", "correlations"]
    for label, a, b in zip(labels, first, second):
        if a != b:
            failures.append(f"{label} file differs between identical runs")

    corpus = synth.generate(synth.GeneratorConfig(n_conversations=300, seed=9))
    p1 = tmp_path / "round1.jsonl"
    p2 = tmp_path / "round2.jsonl"
    with open(p1, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(corpus, fh)
    with open(p1, encoding="utf-8") as fh:
        back = parse_corpus(fh)
    if back != corpus:
        failures.append("corpus changed across a jsonl round trip")
    with open(p2, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(back, fh)
    if p1.read_bytes() != p2.read_bytes():
        failures.append("jsonl serialization is not stable")

    verdict(capsys, 6, "determinism", failures)


# ------------------------------------------------------ criterion 7: ablation


def test_criterion_7_ablation(capsys, ablation_runs):
    failures = []
    base = ablation_runs.base.r2
    if base < 0.5:
        failures.append(f"base R^2 {base:.3f} too weak for the ablation contrast")
    if ablation_runs.planted.r2 >= 0.1:
        failures.append(
            f"R^2 {ablation_runs.planted.r2:.3f} after removing the planted signal"
        )
    if abs(base - ablation_runs.inert.r2) >= 0.02:
        failures.append(
            f"removing an inert feature moved R^2 by "
            f"{abs(base - ablation_runs.inert.r2):.3g}"
        )
    verdict(capsys, 7, "ablation", failures)
