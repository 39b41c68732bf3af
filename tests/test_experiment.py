import dataclasses
import functools
import inspect
import io
import json
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import convperf.corpus as cz
import convperf.experiment as experiment
import convperf.synth as synth
import convperf.tagging as tg
from convperf.experiment import (
    EvalReport,
    GridCell,
    METRIC_PAIRS,
    SplitRows,
    correlate_metrics,
    export_tree,
    fit_and_report,
    fit_spec,
    format_correlations,
    format_report_table,
    run_grid,
    write_correlations_csv,
    write_reports_csv,
)
from convperf.features import FeatureSchema, FeatureTable, Standardizer, build_matrix
from convperf.regressors import (
    CAPPED_LENGTH,
    MEDIAN_SPLIT,
    RATING,
    ModelSpec,
    TargetKind,
    fit_forest,
    fit_linear,
    fit_mlp,
    fit_svr,
    fit_target,
    fit_tree,
)
from conftest import record


@pytest.fixture(scope="module")
def corpus400():
    cfg = synth.GeneratorConfig(n_conversations=400, seed=3)
    corp = tg.tag_corpus(
        cz.filter_min_length(synth.generate(cfg), 5), tg.default_config()
    )
    return cz.split_corpus(corp, seed=3)


def reports(cells, corpus, seed=0):
    return [result.report for result in run_grid(cells, corpus, seed=seed)]


def ridge_cell(target=None, **kw):
    return GridCell(
        spec=ModelSpec(family="ridge", hyperparameters={"lambda": 1.0}),
        feature_set="independent",
        target=target if target is not None else TargetKind(RATING),
        **kw,
    )


def test_run_grid_encodes_once_and_builds_each_window_once(corpus400, monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, name, key in (
        (FeatureTable, "__init__", "table"),
        (FeatureTable, "matrix", "matrix"),
        (cz.Corpus, "subset", "subset"),
    ):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    windows = [("independent", None), ("dependent", 10), ("independent", 3),
               ("independent", 10), ("dependent", None)]
    # Cells of one window are not adjacent, and both feature sets share the
    # full and the 10-exchange window: every prefix window is built once.
    spec = ModelSpec(family="ridge", hyperparameters={"lambda": 1.0})
    cells = [
        GridCell(spec, feature_set, TargetKind(kind), k)
        for kind in (RATING, CAPPED_LENGTH)
        for feature_set, k in windows
    ]
    run_grid(cells, corpus400, seed=0)
    assert (calls["table"], calls["matrix"], calls["subset"]) == (1, 3, 0)


def test_user_words_are_counted_once_per_corpus(monkeypatch):
    calls = Counter()
    count = cz.word_counts

    def counted(texts):
        calls["count"] += 1
        return count(texts)

    monkeypatch.setattr(cz, "word_counts", counted)
    cells = [ridge_cell(), replace(ridge_cell(prefix_k=3), feature_set="dependent")]
    raw = synth.generate(synth.GeneratorConfig(n_conversations=120, seed=8))
    tagged = tg.tag_corpus(raw, tg.default_config())
    # Generating, reading, tagging and writing a corpus count nothing ...
    text = io.StringIO()
    cz.write_corpus_jsonl(tagged, text)
    parsed = cz.parse_corpus(text.getvalue().splitlines())
    cz.write_corpus_jsonl(tg.tag_corpus(parsed, tg.default_config()), io.StringIO())
    assert calls["count"] == 0
    # ... and a split corpus counts once, when a matrix first needs it.
    for corpus in (tagged, parsed):
        split = cz.split_corpus(cz.filter_min_length(corpus, 5), seed=8)
        calls.clear()
        run_grid(cells, split)
        run_grid(cells, split)
        assert calls["count"] == 1


def test_an_independent_window_maps_no_topic(caplog):
    convs = [record(f"c{i}", n=5 + i % 7, rating=1 + i % 5, topic="grid_only_topic")
             for i in range(40)]
    corpus = cz.split_corpus(cz.Corpus.from_records(convs), seed=0)
    cells = [ridge_cell(prefix_k=k) for k in (None, 3)]
    with caplog.at_level(logging.WARNING, logger="convperf.features"):
        run_grid(cells, corpus)
        assert caplog.records == []
        run_grid(cells + [replace(cells[1], feature_set="dependent")], corpus)
    assert [r.getMessage() for r in caplog.records] == [
        "unknown topic 'grid_only_topic' mapped to 'other'"
    ]


def test_run_grid_order_fields_and_binding(corpus400):
    cells = [
        ridge_cell(),
        GridCell(
            spec=ModelSpec(family="tree", hyperparameters={"max_depth": 3}),
            feature_set="independent",
            target=TargetKind(CAPPED_LENGTH),
            name="cart",
        ),
    ]
    results = run_grid(cells, corpus400, seed=0)
    assert [r.report.model for r in results] == ["ridge", "cart"]
    assert [r.report.target_kind for r in results] == [RATING, CAPPED_LENGTH]
    n_test = len(corpus400.subset("test"))
    assert all(r.report.n == n_test for r in results)
    schema = FeatureSchema()
    bound = results[0].model
    assert bound.feature_names == schema.names("independent")
    assert bound.standardizer is not None
    assert bound.target == TargetKind(RATING)
    for r in results:
        assert r.report.mse >= 0.0
        assert r.report.r2 <= 1.0
        assert -1.0 <= r.report.pearson_r <= 1.0
        assert 0.0 <= r.report.p_value <= 1.0


def test_identical_runs_give_identical_reports(corpus400):
    cells = [ridge_cell(), ridge_cell(target=TargetKind(CAPPED_LENGTH))]
    a = reports(cells, corpus400)
    b = reports(cells, corpus400)
    assert a == b


def test_conversation_order_does_not_change_metrics(corpus400):
    rng = np.random.default_rng(8)
    buf = io.StringIO()
    cz.write_corpus_jsonl(corpus400, buf)
    shuffled = [json.loads(line) for line in buf.getvalue().splitlines()]
    rng.shuffle(shuffled)
    permuted = cz.Corpus.from_records(shuffled, corpus400.split_assignment)
    (a,) = reports([ridge_cell()], corpus400)
    (b,) = reports([ridge_cell()], permuted)
    assert abs(a.mse - b.mse) < 1e-9
    assert abs(a.r2 - b.r2) < 1e-9
    assert abs(a.pearson_r - b.pearson_r) < 1e-9


def test_median_split_target_stays_frozen(corpus400):
    train_lengths = corpus400.subset("train").capped_lengths()
    target = fit_target(MEDIAN_SPLIT, train_lengths)
    assert target.median == float(np.median(train_lengths))
    (result,) = run_grid([ridge_cell(target=target)], corpus400, seed=0)
    assert result.model.target == target
    assert result.report.target_kind == MEDIAN_SPLIT


def test_prefix_cell_reports_its_window(corpus400):
    (report,) = reports(
        [ridge_cell(target=TargetKind(CAPPED_LENGTH), prefix_k=5)], corpus400
    )
    assert report.prefix_k == 5
    assert np.isfinite(report.r2)


def test_mlp_cell_uses_dev_split(corpus400):
    cell = GridCell(
        spec=ModelSpec(
            family="mlp",
            hyperparameters={"hidden": [4], "max_epochs": 2},
        ),
        feature_set="independent",
        target=TargetKind(RATING),
    )
    (report,) = reports([cell], corpus400)
    assert np.isfinite(report.mse)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("ols"),
        ModelSpec("ridge", {"lambda": 2.0}),
        ModelSpec("lasso", {"lambda": 0.5}),
        ModelSpec("tree", {"max_depth": 3}),
        ModelSpec("forest", {"n_trees": 2, "max_depth": 3}),
        ModelSpec("svr", {"C": 1.0, "epsilon": 0.2}),
        ModelSpec("mlp", {"hidden": [4], "max_epochs": 2}),
    ],
)
def test_fit_spec_dispatches_every_family(spec):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(30, 3))
    y = X[:, 0] + 0.1 * rng.normal(size=30)
    model = fit_spec(spec, X, y)
    assert model.spec.family == spec.family
    assert model.predict_prepared(X).shape == (30,)


FITS = {
    "ols": lambda X, y: fit_linear(X, y, family="ols"),
    "ridge": lambda X, y: fit_linear(X, y, family="ridge"),
    "lasso": lambda X, y: fit_linear(X, y, family="lasso"),
    "tree": fit_tree,
    "forest": fit_forest,
    "svr": fit_svr,
    "mlp": fit_mlp,
}


@pytest.mark.parametrize("family", list(FITS))
def test_fit_spec_defaults_come_from_the_fit_signature(family):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    y = X[:, 0] + 0.1 * rng.normal(size=20)
    assert fit_spec(ModelSpec(family), X, y).spec == FITS[family](X, y).spec


@pytest.mark.parametrize(
    "family,hp,message",
    [
        ("tree", {"max_dept": 2},
         "tree has no hyperparameter 'max_dept' (it takes max_depth, min_leaf)"),
        ("ridge", {"lamda": 5.0},
         "ridge has no hyperparameter 'lamda' (it takes lambda)"),
        ("ridge", {"n_trees": 10}, "ridge has no hyperparameter 'n_trees'"),
        ("ols", {"lam": 1.0}, "ols has no hyperparameter 'lam' (it takes lambda)"),
        ("forest", {"seed": 1, "hidden": [4]},
         "forest has no hyperparameters 'seed', 'hidden' (it takes n_trees,"),
        ("mlp", {"dev": None}, "mlp has no hyperparameter 'dev'"),
    ],
    ids=["misspelled", "misspelled-lambda", "other-family", "keyword-name",
         "supplied-and-other", "supplied"],
)
def test_fit_spec_rejects_keys_the_fit_function_does_not_take(family, hp, message):
    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError) as exc:
        fit_spec(ModelSpec(family, hp), X, X[:, 0])
    assert message in str(exc.value)


def test_run_grid_names_the_cell_of_an_unknown_hyperparameter(corpus400):
    spec = ModelSpec("tree", {"max_dept": 2})
    cell = GridCell(spec, "independent", TargetKind(RATING))
    with pytest.raises(RuntimeError, match=r"grid cell 0 \(tree, .*'max_dept'"):
        run_grid([cell], corpus400, seed=0)


def test_run_grid_names_a_failing_cell_whose_target_is_a_kind_name(corpus400):
    cell = GridCell(ModelSpec("ridge", {"lambdaa": 1.0}), "independent", MEDIAN_SPLIT)
    message = (r"grid cell 0 \(ridge, independent, median_split, prefix_k=None\) "
               r"failed: ridge has no hyperparameter 'lambdaa'")
    with pytest.raises(RuntimeError, match=message):
        run_grid([cell], corpus400, seed=0)


def split_rows(rng, n, ratings=None):
    ratings = list(rng.integers(1, 6, size=n)) if ratings is None else ratings
    return SplitRows([f"r{i}" for i in range(n)], rng.normal(size=(n, 3)),
                     [int(r) for r in ratings], [5 + i % 7 for i in range(n)])


@pytest.mark.parametrize(
    "spec",
    [ModelSpec("ridge", {"lambda": 1.0}), ModelSpec("lasso", {"lambda": 1e9}),
     ModelSpec("tree", {"max_depth": 0})],
    ids=["ridge", "lasso-constant", "tree-depth-0"],
)
def test_constant_test_target_gets_one_message(spec):
    rng = np.random.default_rng(8)
    splits = {"train": split_rows(rng, 30), "dev": split_rows(rng, 0),
              "test": split_rows(rng, 6, ratings=[4] * 6)}
    with pytest.raises(ValueError) as exc:
        fit_and_report(GridCell(spec, "independent", TargetKind(RATING)),
                       ("a", "b", "c"), splits)
    assert str(exc.value) == (
        "test split's rating target is constant (every value is 4); R² is undefined"
    )


@pytest.mark.parametrize("family", list(FITS))
def test_every_family_trains_with_an_empty_dev_split(family):
    rng = np.random.default_rng(9)
    splits = {"train": split_rows(rng, 40), "dev": split_rows(rng, 0),
              "test": split_rows(rng, 8)}
    small = {"forest": {"n_trees": 3}, "mlp": {"hidden": [3], "max_epochs": 40}}
    spec = ModelSpec(family, small.get(family, {}), seed=0)
    report, model = fit_and_report(GridCell(spec, "independent", TargetKind(RATING)),
                                   ("a", "b", "c"), splits)
    assert report.n == 8 and np.isfinite(report.mse)
    if family == "mlp":  # no dev rows, so no early stopping: every epoch runs
        train = splits["train"]
        direct = fit_mlp(model.standardizer.transform(train.X),
                         np.array(train.ratings, dtype=float), hidden=(3,),
                         max_epochs=40, seed=0)
        for a, b in zip(model.params.layers, direct.params.layers):
            assert np.array_equal(a, b)


def test_fit_and_report_rejects_an_empty_test_split():
    rng = np.random.default_rng(10)
    splits = {"train": split_rows(rng, 20), "dev": split_rows(rng, 4),
              "test": split_rows(rng, 0)}
    with pytest.raises(ValueError, match="test split is empty"):
        fit_and_report(ridge_cell(), ("a", "b", "c"), splits)


def test_run_grid_wraps_failures_with_context():
    # 8 train rows against 11 features makes plain least squares refuse
    convs = [record(f"c{i}", n=5 + i, rating=1 + i % 5) for i in range(10)]
    corp = cz.split_corpus(cz.Corpus.from_records(convs))
    cell = GridCell(
        spec=ModelSpec("ols"),
        feature_set="independent",
        target=TargetKind(RATING),
    )
    with pytest.raises(RuntimeError, match=r"grid cell 0 \(ols, independent"):
        run_grid([cell], corp, seed=0)


def test_ablate_nothing_matches_base_run(corpus400):
    # The ablated cell between them shares the window's matrix: it must
    # leave the matrix as it found it.
    cell = ridge_cell()
    cells = [cell, replace(cell, drop=("length_median",)), replace(cell, drop=())]
    base, _, unablated = run_grid(cells, corpus400, seed=0)
    assert unablated.report == base.report
    assert unablated.model.feature_names == FeatureSchema().names("independent")


def test_ablate_drops_named_feature(corpus400):
    cell = ridge_cell(target=TargetKind(CAPPED_LENGTH), drop=("length_median",))
    (result,) = run_grid([cell], corpus400, seed=0)
    names = FeatureSchema().names("independent")
    assert result.model.feature_names == tuple(n for n in names if n != "length_median")
    assert np.isfinite(result.report.r2)


def test_ablate_unknown_feature_errors(corpus400):
    cell = ridge_cell(drop=("no_such_column",))
    with pytest.raises(RuntimeError, match="unknown feature names: no_such_column"):
        run_grid([cell], corpus400, seed=0)


def per_cell_reference(cell, corpus, seed=0):
    """fit_and_report fed by build_matrix, one fresh matrix per split and cell."""
    schema = FeatureSchema()
    splits = {}
    for split in cz.SPLIT_NAMES:
        convs = corpus.subset(split)
        ids, X = build_matrix(convs, schema, cell.feature_set, cell.prefix_k)
        splits[split] = SplitRows(
            ids, X, convs.ratings, convs.capped_lengths()
        )
    return fit_and_report(cell, schema.names(cell.feature_set), splits, seed)


def grid_of_windows():
    return [
        GridCell(ModelSpec("ridge", {"lambda": 1.0}), fs, TargetKind(kind), k)
        for fs in ("independent", "dependent")
        for k in (None, 3, 10)
        for kind in (RATING, CAPPED_LENGTH)
    ] + [
        GridCell(
            ModelSpec("tree", {"max_depth": 3}),
            "dependent",
            TargetKind(CAPPED_LENGTH),
            50,
            name="cart",
        )
    ]


def test_run_grid_matches_per_cell_build_matrix(corpus400):
    base = grid_of_windows()
    cells = base + base[::-1] + base[3:5]
    results = run_grid(cells, corpus400, seed=4)
    assert len(results) == len(cells)
    for cell, result in zip(cells, results):
        report, model = per_cell_reference(cell, corpus400, seed=4)
        assert result.report == report
        assert result.model.feature_names == model.feature_names
        mean = result.model.standardizer.mean
        assert mean.tobytes() == model.standardizer.mean.tobytes()


def param_arrays(params):
    """Every array (and scalar) of a params dataclass, in field order."""
    out = []
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        out += value if isinstance(value, tuple) else [value]
    return [np.asarray(a) for a in out]


def test_cells_sharing_a_window_and_columns_share_one_design(corpus400, monkeypatch):
    fit = Standardizer.fit.__func__
    fitted = []

    def counted(cls, X, names):
        fitted.append(tuple(names))
        return fit(cls, X, names)

    monkeypatch.setattr(Standardizer, "fit", classmethod(counted))
    ridge = ModelSpec("ridge", {"lambda": 1.0})
    cells = [
        GridCell(ridge, fs, TargetKind(kind), k)
        for fs in ("independent", "dependent")
        for k in (None, 10)
        for kind in (RATING, CAPPED_LENGTH)
    ]
    # The MLP reads dev and comes before the ridge cells of its design, and
    # the ablated cell has columns no other cell has.
    mlp = GridCell(ModelSpec("mlp", {"hidden": [4], "max_epochs": 5}, seed=2),
                   "dependent", TargetKind(RATING), 10, name="mlp")
    cells = [mlp] + cells + [replace(cells[0], drop=("length_median",))]
    results = run_grid(cells, corpus400, seed=4)
    monkeypatch.undo()
    schema = FeatureSchema()
    designs = {(c.prefix_k, tuple(n for n in schema.names(c.feature_set)
                                  if n not in c.drop)) for c in cells}
    assert len(designs) == 5
    assert len(fitted) == len(designs)
    assert sorted(fitted) == sorted(names for _, names in designs)
    for cell, result in zip(cells, results):
        report, model = per_cell_reference(cell, corpus400, seed=4)
        assert result.report == report
        assert result.model.feature_names == model.feature_names
        for a, b in zip(param_arrays(result.model.params), param_arrays(model.params),
                        strict=True):
            assert a.tobytes() == b.tobytes()
        for field in ("mean", "std"):
            got = getattr(result.model.standardizer, field)
            assert got.tobytes() == getattr(model.standardizer, field).tobytes()


def test_fit_spec_reads_each_fit_signature_once(monkeypatch):
    # A wrapped fit function (as a tracer installs one) is the one
    # called, and its hyperparameters still come from the signature it wraps.
    called = []

    @functools.wraps(fit_linear)
    def traced(*args, **kwargs):
        called.append(kwargs)
        return fit_linear(*args, **kwargs)

    read = Counter()
    signature = inspect.signature

    def counted(function):
        read[function] += 1
        return signature(function)

    monkeypatch.setattr(experiment, "fit_linear", traced)
    monkeypatch.setattr(inspect, "signature", counted)
    X = np.arange(12.0).reshape(6, 2) ** 0.5
    models = [fit_spec(ModelSpec("ridge", {"lambda": 2.0}), X, X[:, 0])
              for _ in range(3)]
    monkeypatch.undo()
    assert read == {traced: 1}
    assert called == [{"lam": 2.0, "family": "ridge"}] * 3
    direct = fit_linear(X, X[:, 0], family="ridge", lam=2.0)
    for model in models:
        assert model.params.coef.tobytes() == direct.params.coef.tobytes()


@pytest.mark.parametrize("index", [0, 9, 12])
def test_ablate_matches_per_cell_build_matrix(corpus400, index):
    cell = replace(grid_of_windows()[index], drop=("length_median", "freq_sda_compliment"))
    (result,) = run_grid([cell], corpus400, seed=4)
    assert result.report == per_cell_reference(cell, corpus400, 4).report


def hand_metric_corpus():
    return cz.Corpus.from_records([
        record("a", n=10, rating=5, sda=["sda_compliment"]),
        record("b", n=20, rating=4),
        record("c", n=30, rating=2, sda=["sda_complaint"]),
        record("d", n=80, rating=1, sda=["sda_complaint"]),
    ])


def test_correlate_metrics_hand_values():
    report = correlate_metrics(hand_metric_corpus())
    assert report.n == 4
    assert {(a, b) for a, b, _, _ in report.entries} == set(METRIC_PAIRS)

    # lengths are capped: [10, 20, 30, 75]; ratings [5, 4, 2, 1]
    ratings = [5.0, 4.0, 2.0, 1.0]
    lengths = [10.0, 20.0, 30.0, 75.0]
    mr = sum(ratings) / 4
    ml = sum(lengths) / 4
    cov = sum((r - mr) * (l - ml) for r, l in zip(ratings, lengths)) / 4
    sr = math.sqrt(sum((r - mr) ** 2 for r in ratings) / 4)
    sl = math.sqrt(sum((l - ml) ** 2 for l in lengths) / 4)
    r, p = report.get("rating", "length")
    assert abs(r - cov / (sr * sl)) < 1e-12
    assert 0.0 <= p <= 1.0

    # compliment rates [1, 0, 0, 0]: every exchange of "a" is tagged
    r_rc, _ = report.get("rating", "compliments")
    comp = [1.0, 0.0, 0.0, 0.0]
    mc = 0.25
    cov_rc = sum((r - mr) * (c - mc) for r, c in zip(ratings, comp)) / 4
    sc = math.sqrt(sum((c - mc) ** 2 for c in comp) / 4)
    assert abs(r_rc - cov_rc / (sr * sc)) < 1e-12


def test_correlate_metrics_symmetric_lookup():
    report = correlate_metrics(hand_metric_corpus())
    assert report.get("length", "rating") == report.get("rating", "length")
    with pytest.raises(KeyError):
        report.get("rating", "nonsense")


def test_correlate_metrics_requires_ratings():
    corp = cz.Corpus.from_records([
        record("a", n=6, rating=None),
        record("b", n=7, rating=3),
    ])
    with pytest.raises(ValueError, match="'a'"):
        correlate_metrics(corp)


def step_tree():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    return fit_tree(X, y)


def test_export_tree_dot_structure():
    dot = export_tree(step_tree())
    assert dot.startswith("digraph tree {")
    assert dot.endswith("}\n")
    assert 'x0 <= 0.5' in dot
    assert 'label="yes"' in dot and 'label="no"' in dot
    assert "value=0.0" in dot and "value=10.0" in dot
    assert "n=4 ss=100.0" in dot
    assert export_tree(step_tree()) == dot


def test_export_tree_feature_names_override():
    dot = export_tree(step_tree(), feature_names=("talkativeness",))
    assert "talkativeness <= 0.5" in dot
    assert "x0" not in dot


def test_export_tree_depth_limit():
    dot = export_tree(step_tree(), depth_limit=0)
    assert "(depth limit)" in dot
    assert "->" not in dot


def test_export_tree_single_leaf():
    model = fit_tree(np.array([[1.0], [2.0]]), np.array([3.0, 3.0]))
    dot = export_tree(model)
    assert "value=3.0" in dot
    assert "->" not in dot


def test_export_tree_forest_indexing():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    from convperf.regressors import fit_forest

    forest = fit_forest(X, y, n_trees=3, max_depth=2, seed=0)
    with pytest.raises(ValueError, match="tree_index"):
        export_tree(forest)
    with pytest.raises(ValueError, match="out of range"):
        export_tree(forest, tree_index=3)
    assert export_tree(forest, tree_index=0).startswith("digraph")


def test_export_tree_rejects_other_families():
    model = fit_linear(np.arange(6.0)[:, None], np.arange(6.0))
    with pytest.raises(ValueError, match="cannot export"):
        export_tree(model)
    with pytest.raises(ValueError, match="only applies"):
        export_tree(step_tree(), tree_index=0)


def sample_report(**kw):
    base = dict(
        model="ridge",
        target_kind="rating",
        feature_set="independent",
        prefix_k=None,
        mse=0.5,
        r2=0.25,
        pearson_r=0.5,
        p_value=0.004,
        n=100,
    )
    base.update(kw)
    return EvalReport(**base)


def test_write_reports_csv_layout():
    buf = io.StringIO()
    write_reports_csv(buf, [sample_report()], config_hash="cafe")
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "model,target,feature_set,prefix_k,n,mse,r2,pearson_r,p_value,config_hash"
    )
    assert lines[1] == "ridge,rating,independent,,100,0.5,0.25,0.5,0.004,cafe"

    buf2 = io.StringIO()
    write_reports_csv(buf2, [sample_report()], config_hash="cafe")
    assert buf2.getvalue() == buf.getvalue()


def test_write_reports_csv_prefix_column():
    buf = io.StringIO()
    write_reports_csv(buf, [sample_report(prefix_k=10)])
    assert ",10," in buf.getvalue().splitlines()[1]


def test_format_report_table_significance_star():
    text = format_report_table([sample_report(), sample_report(p_value=0.5)])
    lines = text.splitlines()
    assert lines[0].split() == [
        "model", "target", "features", "k", "n", "MSE", "R2", "r",
    ]
    assert "0.500**" in lines[1]
    assert "**" not in lines[2]
    assert lines[1].split()[3] == "-"


def test_correlations_csv_and_table():
    report = correlate_metrics(hand_metric_corpus())
    buf = io.StringIO()
    write_correlations_csv(buf, report, config_hash="beef")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "metric_a,metric_b,n,r,p_value,config_hash"
    assert len(lines) == 1 + len(METRIC_PAIRS)
    assert lines[1].startswith("rating,length,4,")
    assert lines[1].endswith(",beef")

    text = format_correlations(report)
    assert "rating/length" in text
    assert text.endswith("n=4\n")


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "fit",
    [fit_linear, fit_tree, fit_forest, fit_svr, fit_mlp],
    ids=lambda f: f.__name__,
)
def test_every_family_rejects_non_finite_training_data(fit, bad, where):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    if where == "X":
        X[4, 1] = bad
    else:
        y[4] = bad
    with pytest.raises(ValueError, match="NaN or inf in training data"):
        fit(X, y)
