"""Model containers, training-data checks and self-describing JSON.

A trained model carries its full spec (family, hyperparameters, seed),
its learned parameters, the target it predicts, and the feature schema
it was fitted on (names + fingerprint) together with the train-fitted
standardizer, so a serialized model is reproducible and can be checked
against the feature columns it is applied to.  Every family's fit
function passes its inputs through :func:`check_training_data` first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..features import Standardizer
from .targets import TargetKind

MODEL_FORMAT_VERSION = 1

FAMILIES = ("ols", "ridge", "lasso", "tree", "forest", "svr", "mlp")


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
    """Spec + learned parameters, optionally bound to a schema and target.

    ``params`` is a family-specific object exposing ``predict(X)`` over
    prepared (already standardized) matrices, plus to/from-JSON hooks.
    """

    spec: ModelSpec
    params: object
    target: TargetKind | None = None
    feature_names: tuple[str, ...] | None = None
    standardizer: Standardizer | None = None

    @property
    def fingerprint(self) -> str | None:
        if self.feature_names is None:
            return None
        return schema_fingerprint(self.feature_names)

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


_PARAM_CODECS: dict[str, tuple] = {}


def register_family(family: str, to_json, from_json) -> None:
    _PARAM_CODECS[family] = (to_json, from_json)


def model_to_json(model: TrainedModel) -> dict:
    to_json, _ = _PARAM_CODECS[model.spec.family]
    return {
        "version": MODEL_FORMAT_VERSION,
        "family": model.spec.family,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "target": model.target.to_json() if model.target else None,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "fingerprint": model.fingerprint,
        "standardizer": (
            {
                "mean": model.standardizer.mean.tolist(),
                "std": model.standardizer.std.tolist(),
            }
            if model.standardizer is not None
            else None
        ),
        "parameters": to_json(model.params),
    }


def model_from_json(obj: dict) -> TrainedModel:
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    family = obj["family"]
    if family not in _PARAM_CODECS:
        raise ValueError(f"unknown model family in file: {family!r}")
    _, from_json = _PARAM_CODECS[family]
    names = obj.get("feature_names")
    std_obj = obj.get("standardizer")
    standardizer = None
    if std_obj is not None:
        standardizer = Standardizer(
            feature_names=tuple(names or ()),
            mean=np.array(std_obj["mean"], dtype=float),
            std=np.array(std_obj["std"], dtype=float),
        )
    return TrainedModel(
        spec=ModelSpec(
            family=family,
            hyperparameters=obj.get("hyperparameters", {}),
            seed=obj.get("seed"),
        ),
        params=from_json(obj["parameters"]),
        target=TargetKind.from_json(obj["target"]) if obj.get("target") else None,
        feature_names=tuple(names) if names else None,
        standardizer=standardizer,
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
