"""Model containers, training-data checks and the model-file codec.

A trained model carries its full spec (family, hyperparameters, seed),
its learned parameters, the target it predicts, and the feature schema
it was fitted on (names + fingerprint) together with the train-fitted
standardizer, so a serialized model is reproducible and can be checked
against the feature columns it is applied to.  Every family's fit
function passes its inputs through :func:`check_training_data` first.

This module is the model file's only reader and writer: :func:`encode`
writes a dataclass field by field and :func:`decode` reads the same
declarations back, raising ValueError that names the key path (e.g.
``parameters.trees[3].left``) of a missing or malformed value.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from itertools import chain
from types import UnionType
from typing import Annotated, ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from ..corpus import open_output, read_input
from ..features import Standardizer
from .targets import TargetKind

MODEL_FORMAT_VERSION = 1

FAMILIES = ("ols", "ridge", "lasso", "tree", "forest", "svr", "mlp")


# Array fields: Annotated[np.ndarray, element type, rank (None: any)].
IntVector = Annotated[np.ndarray, int, 1]
FloatVector = Annotated[np.ndarray, float, 1]
FloatMatrix = Annotated[np.ndarray, float, 2]
FloatArray = Annotated[np.ndarray, float, None]


class Params:
    """A family's learned parameters: a frozen dataclass whose fields are a model
    file's ``parameters``, with ``predict(X)`` over standardized rows."""

    families: ClassVar[tuple[str, ...]] = ()

    def check_features(self, n: int, path: str) -> None:
        """Raise ValueError naming the key under ``path`` that does not fit n
        feature columns."""


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, shaped (n, d) and (n,), every value finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) and y must be (n,)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("NaN or inf in training data")
    return X, y


def schema_fingerprint(feature_names) -> str:
    payload = "\x00".join(feature_names).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family: {self.family!r}")


@dataclass(frozen=True)
class TrainedModel:
    """Spec + learned parameters, optionally bound to a schema and target."""

    spec: ModelSpec
    params: Params
    target: TargetKind | None = None
    feature_names: tuple[str, ...] | None = None
    standardizer: Standardizer | None = None

    def predict_prepared(self, X: np.ndarray) -> np.ndarray:
        """Predict on rows that are already standardized."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.params.predict(X)

    def bind(
        self,
        target: TargetKind,
        feature_names,
        standardizer: Standardizer | None,
    ) -> "TrainedModel":
        return replace(
            self,
            target=target,
            feature_names=tuple(feature_names),
            standardizer=standardizer,
        )


@dataclass(frozen=True)
class _Moments:
    mean: FloatVector
    std: FloatVector


@dataclass(frozen=True, kw_only=True)
class _ModelFile:  # a model file's keys in file order
    version: int
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int | None = None
    target: TargetKind | None = None
    feature_names: tuple[str, ...] | None = None
    fingerprint: str | None = None
    standardizer: _Moments | None = None
    parameters: dict  # decoded by the family's Params class


def encode(value):
    """``value`` as JSON data: dataclasses field by field, arrays and tuples as lists."""
    if is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


_type_hints = cache(partial(get_type_hints, include_extras=True))  # per dataclass
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _array(value, kind: type, rank: int | None, path: str) -> np.ndarray:
    error = ValueError(f"{path} must be a {'' if rank is None else f'rank-{rank} '}"
                       f"list of {'64-bit integers' if kind is int else 'finite numbers'}")
    items, depth = [value], 0
    while items and all(type(v) is list for v in items) and depth != rank:
        items, depth = list(chain.from_iterable(items)), depth + 1
    allowed = {int} if kind is int else {int, float}
    # Lists nested exactly rank deep (any depth if None) around allowed numbers, or empty.
    if depth == 0 or items and (depth != (rank or depth) or not set(map(type, items)) <= allowed):
        raise error
    try:
        arr = np.array(value, dtype=np.int64 if kind is int else float)
    except (ValueError, OverflowError):  # ragged, or out of range
        raise error from None
    if not np.isfinite(arr).all():
        raise error
    return arr.reshape((0,) * rank) if arr.ndim < (rank or 0) else arr  # [] at rank > 1


def decode(hint, value, path: str):
    """``value`` read from JSON as ``hint`` declares: a dataclass (fields with
    defaults may be missing), array alias, tuple[X, ...], X | None, float, int, str or dict."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _array(value, *hint.__metadata__, path)
    if origin is UnionType:  # X | None
        return None if value is None else decode(args[0], value, path)
    if origin is tuple and type(value) is list:  # tuple[X, ...]
        return tuple(decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if is_dataclass(hint) and type(value) is dict:
        hints, kwargs = _type_hints(hint), {}
        for f in fields(hint):
            key = f"{path}.{f.name}" if path else f.name
            if f.name in value:
                kwargs[f.name] = decode(hints[f.name], value[f.name], key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing key {key!r}")
        try:
            return hint(**kwargs)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is hint is not float:
        return value
    expected = "a list" if origin is tuple else "an object" if is_dataclass(hint) else (
        "a finite number" if hint is float else _JSON_TYPES[hint])
    raise ValueError(f"{path} must be {expected}, not {_JSON_TYPES[type(value)]}")


def model_to_json(model: TrainedModel) -> dict:
    std, names = model.standardizer, model.feature_names
    return encode(_ModelFile(
        version=MODEL_FORMAT_VERSION,
        family=model.spec.family,
        hyperparameters=model.spec.hyperparameters,
        seed=model.spec.seed,
        target=model.target,
        feature_names=names,
        fingerprint=None if names is None else schema_fingerprint(names),
        standardizer=None if std is None else _Moments(std.mean, std.std),
        parameters=encode(model.params),
    ))


def model_from_json(obj) -> TrainedModel:
    """The model a file's JSON describes; ValueError names a malformed key."""
    if not isinstance(obj, dict):
        raise ValueError("a model file must hold a JSON object")
    if obj.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {obj.get('version')!r}")
    f = decode(_ModelFile, obj, "")
    cls = next((c for c in Params.__subclasses__() if f.family in c.families), None)
    if cls is None:
        raise ValueError(f"unknown model family in file: {f.family!r}")
    params = decode(cls, f.parameters, "parameters")
    names, std = f.feature_names, f.standardizer
    if std is not None and not len(std.mean) == len(std.std) == len(names or ()):
        raise ValueError("standardizer mean and std need one value per "
                         f"feature name ({len(names or ())})")
    fingerprint = None if names is None else schema_fingerprint(names)
    if f.fingerprint != fingerprint:
        raise ValueError(f"fingerprint {f.fingerprint!r} does not match "
                         f"feature_names, whose fingerprint is {fingerprint!r}")
    if names is not None:
        params.check_features(len(names), "parameters")
    return TrainedModel(
        ModelSpec(f.family, f.hyperparameters, f.seed), params, f.target, names,
        None if std is None else Standardizer(names or (), std.mean, std.std),
    )


def save_model(model: TrainedModel, path) -> None:
    with open_output(path) as fh:
        json.dump(model_to_json(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """The model in the file ``path``; a ValueError names the file first."""
    obj = read_input(path, "trained model", as_json=True)
    try:
        return model_from_json(obj)
    except ValueError as e:
        raise ValueError(f"trained model {path}: {e}") from None
