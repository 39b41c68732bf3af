"""The model-file codec: one encoder and one checked decoder for every family.

The round trip is parametrized over FAMILIES and checks the spec, the
bound target, schema and standardizer, every decoded array's dtype and
shape, the predictions, and that the decoded model encodes to the same
JSON.  The other tests feed the decoder and the parameter classes input
that a fit could not have produced.
"""

import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from convperf.experiment import fit_spec
from convperf.features import Standardizer
from convperf.regressors import (
    CAPPED_LENGTH,
    FAMILIES,
    ForestParams,
    MlpParams,
    ModelSpec,
    SvrParams,
    TargetKind,
    TreeParams,
    fit_svr,
    fit_tree,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from convperf.regressors.base import (
    FloatMatrix,
    FloatVector,
    IntVector,
    Params,
    decode,
)

SPECS = {
    "ols": ModelSpec("ols", {"lambda": 0.0}),
    "ridge": ModelSpec("ridge", {"lambda": 2.0}),
    "lasso": ModelSpec("lasso", {"lambda": 1.0}),
    "tree": ModelSpec("tree", {"max_depth": 4, "min_leaf": 2}),
    "forest": ModelSpec("forest", {"n_trees": 4, "max_depth": 3}, seed=2),
    "svr": ModelSpec("svr", {"C": 10.0, "epsilon": 0.05, "gamma": 1.0, "max_iter": 50_000}),
    "mlp": ModelSpec("mlp", {"hidden": (5, 3), "max_epochs": 3}, seed=1),
}


def assert_same_params(a, b):
    """Field by field: arrays of equal dtype, shape and values; an empty
    array comes back as an empty array of the same rank."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert b.dtype == a.dtype
        assert b.shape == (a.shape if a.size else (0,) * a.ndim)
        assert np.array_equal(a, b)
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_params(x, y)
    elif is_dataclass(a):
        for f in fields(a):
            assert_same_params(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert model_to_json(back) == json.loads(path.read_text())
    return back


@pytest.mark.parametrize("family", FAMILIES)
def test_model_file_round_trip(family, tmp_path):
    rng = np.random.default_rng(106)
    X = rng.normal(size=(50, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=50)
    names = ("a", "b", "c")
    std = Standardizer.fit(X, names)
    model = fit_spec(SPECS[family], X, y).bind(TargetKind(CAPPED_LENGTH), names, std)
    back = round_trip(model, tmp_path)
    assert back.spec.family == family
    assert back.spec.hyperparameters == model.spec.hyperparameters
    assert back.spec.seed == model.spec.seed
    if family in ("ols", "ridge", "lasso"):
        assert back.spec.hyperparameters["lambda"] == SPECS[family].hyperparameters["lambda"]
    if family == "svr":
        assert back.spec.hyperparameters["max_iter"] == 50_000
    assert (back.target, back.feature_names) == (model.target, names)
    assert_same_params(model.standardizer, back.standardizer)
    assert_same_params(model.params, back.params)
    grid = rng.normal(size=(20, 3))
    assert np.array_equal(back.predict_prepared(grid), model.predict_prepared(grid))


def test_svr_without_support_vectors_round_trips(tmp_path):
    model = fit_svr(np.arange(6.0)[:, None], np.zeros(6), C=1.0, epsilon=0.1)
    assert model.params.sv_x.shape == (0, 1)
    back = round_trip(model, tmp_path)
    assert back.params.sv_x.shape == (0, 0)
    assert np.allclose(back.predict_prepared([[5.0], [9.0]]), [0.0, 0.0])


def test_a_model_bound_to_no_feature_names_round_trips(tmp_path):
    X = np.zeros((10, 0))
    model = fit_spec(SPECS["ridge"], X, np.arange(10.0))
    model = model.bind(TargetKind(CAPPED_LENGTH), (), Standardizer.fit(X, ()))
    back = round_trip(model, tmp_path)
    assert back.feature_names == ()
    assert np.array_equal(back.predict_prepared(X), model.predict_prepared(X))


def test_every_family_has_one_params_class():
    for family in FAMILIES:
        owners = [c for c in Params.__subclasses__() if family in c.families]
        assert len(owners) == 1, family


def test_an_empty_list_decodes_at_the_declared_rank():
    assert decode(FloatMatrix, [], "x").shape == (0, 0)
    assert decode(IntVector, [], "x").dtype == np.int64
    assert decode(FloatMatrix, [[1, 2.5]], "x").dtype == np.float64


@pytest.mark.parametrize(
    "hint, value",
    [(IntVector, [1, 1.5]), (IntVector, [True, 1]), (IntVector, [2**70]),
     (FloatVector, [1.0, "a"]), (FloatVector, [1.0, None]), (FloatVector, [[1.0]]),
     (FloatVector, [float("nan")]), (FloatVector, [10**400]), (FloatVector, 5),
     (FloatMatrix, [1.0, 2.0]), (FloatMatrix, [[1.0, 2.0], [3.0]]),
     (float, "1"), (float, float("inf")), (float, True), (int, 1.0), (int | None, True),
     (str, 3), (dict, []), (tuple[str, ...], "ab"), (TargetKind, 5), (TargetKind, [])],
)
def test_decode_names_the_key_of_a_malformed_value(hint, value):
    with pytest.raises(ValueError, match=r"^a\.b\[2\] must be "):
        decode(hint, value, "a.b[2]")


def test_decode_names_a_missing_key_and_fills_defaults():
    with pytest.raises(ValueError, match=r"^missing key 'target\.kind'$"):
        decode(TargetKind, {"median": None}, "target")
    assert decode(TargetKind, {"kind": CAPPED_LENGTH}, "target") == TargetKind(CAPPED_LENGTH)


@pytest.fixture(scope="module")
def tree_json():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    obj = model_to_json(fit_tree(X, X[:, 1] + 0.1 * rng.normal(size=60), max_depth=3))
    assert len(obj["parameters"]["feature"]) > 3
    return obj["parameters"]


def _edit(params, key, i, value):
    out = {k: list(v) for k, v in params.items()}
    if value is None:
        del out[key][i]
    else:
        out[key][i] = value
    return out


TREE_DEFECTS = {
    "short value": "value: the node arrays need one equal length",
    "no nodes": "feature: the node arrays need one equal length, at least 1",
    "feature -2": "feature: a split feature is a column index, or -1 at a leaf",
    "cyclic left": "left: node 0's child is 0, not a later node",
    "child past the end": "right: node 0's child is",
    "earlier child": "left: node {i}'s child is 0, not a later node",
    "leaf with a child": "left: node {leaf}'s child is 1",
    "shared child": "left, right: each node but the root needs exactly one parent",
}


@pytest.mark.parametrize("case", TREE_DEFECTS)
def test_a_tree_the_builder_could_not_grow_is_refused(tree_json, case):
    p = tree_json
    n = len(p["feature"])
    i = next(i for i, f in enumerate(p["feature"]) if f >= 0 and i > 0)  # a split, not the root
    leaf = p["feature"].index(-1)
    bad = {
        "short value": lambda: _edit(p, "value", 0, None),
        "no nodes": lambda: {k: [] for k in p},
        "feature -2": lambda: _edit(p, "feature", leaf, -2),
        "cyclic left": lambda: _edit(p, "left", 0, 0),
        "child past the end": lambda: _edit(p, "right", 0, n),
        "earlier child": lambda: _edit(p, "left", i, 0),
        "leaf with a child": lambda: _edit(p, "left", leaf, 1),
        "shared child": lambda: _edit(p, "right", 0, p["left"][0]),
    }[case]()
    expected = "parameters.trees[1]: " + TREE_DEFECTS[case].format(i=i, leaf=leaf)
    forest = {"trees": [p, bad]}
    with pytest.raises(ValueError) as err:
        decode(ForestParams, forest, "parameters")
    assert str(err.value).startswith(expected)


# What each family's check_features says when its parameters need one
# more column than there are feature names.
_TOO_WIDE = {
    "ols": r"parameters: coef: 3 coefficients, not one per feature name \(2\)",
    "ridge": r"parameters: coef: 3 coefficients, not one per feature name \(2\)",
    "lasso": r"parameters: coef: 3 coefficients, not one per feature name \(2\)",
    "tree": r"parameters: feature: split on column 2, past the 2 feature names",
    "forest": r"parameters\.trees\[\d+\]: feature: split on column 2, past the 2",
    "svr": r"parameters: sv_x: 3 columns, not one per feature name \(2\)",
    "mlp": r"parameters: layers\[0\]: 3 rows, not one per feature name \(2\)",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_split_feature_past_the_feature_names_is_refused(family):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 3))
    y = X[:, 2] + 0.1 * rng.normal(size=80)  # so trees split on column 2
    params = fit_spec(SPECS[family], X, y).params
    params.check_features(3, "parameters")
    with pytest.raises(ValueError, match="^" + _TOO_WIDE[family]):
        params.check_features(2, "parameters")


def test_svr_needs_one_support_vector_row_per_coefficient():
    params = {"sv_x": [[1.0], [2.0]], "sv_beta": [0.5], "intercept": 0.0, "gamma": 1.0}
    with pytest.raises(ValueError, match=r"^parameters: sv_x: 2 support "
                                         r"vectors, not one per sv_beta entry \(1\)"):
        decode(SvrParams, params, "parameters")


def test_a_forest_needs_a_tree():
    with pytest.raises(ValueError, match="trees: a forest needs at least one tree"):
        decode(ForestParams, {"trees": []}, "parameters")


@pytest.mark.parametrize(
    "layers",
    [[], [[[1.0]]], [[1.0], [[1.0]]], [[[1.0, 2.0]], [1.0]], [[[1.0]], [1.0, 2.0]],
     [[[1.0, 1.0]], [0.0, 0.0], [[1.0]], [0.0]]],
    ids=["none", "no bias", "bias first", "two outputs", "long bias", "broken chain"],
)
def test_mlp_layers_must_chain_to_one_output(layers):
    with pytest.raises(ValueError, match="layers must alternate weight matrices"):
        decode(MlpParams, {"layers": layers}, "parameters")
    good = decode(MlpParams, {"layers": [[[1.0, 1.0]], [0.0, 0.0], [[1.0], [2.0]], [0.5]]}, "p")
    assert good.predict(np.array([[1.0]])).tolist() == [3.5]


def test_standardizer_needs_one_value_per_feature_name():
    X = np.random.default_rng(0).normal(size=(10, 2))
    model = fit_tree(X, X[:, 0], max_depth=1)
    obj = model_to_json(model.bind(TargetKind(CAPPED_LENGTH), ("a", "b"),
                                   Standardizer.fit(X, ("a", "b"))))
    obj["standardizer"]["std"].pop()
    with pytest.raises(ValueError, match=r"standardizer mean and std need one value per "
                                         r"feature name \(2\)"):
        model_from_json(obj)
