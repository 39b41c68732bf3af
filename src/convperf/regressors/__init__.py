"""Regression suite: linear family, trees, forests, SVR, and MLP.

Importing this package registers every family's JSON codec, so
``load_model`` works on any saved model without further imports.
"""

from .base import (
    FAMILIES,
    MODEL_FORMAT_VERSION,
    ModelSpec,
    TrainedModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    schema_fingerprint,
)
from .forest import FOREST, ForestParams, fit_forest
from .linear import LASSO, OLS, RIDGE, LinearParams, SingularSystemError, fit_linear
from .mlp import MLP, DivergenceError, MlpParams, fit_mlp
from .svr import SVR, ConvergenceError, SvrParams, fit_svr, resolve_gamma
from .targets import (
    BINNED_LENGTH,
    CAPPED_LENGTH,
    MEDIAN_SPLIT,
    RATING,
    TARGET_KINDS,
    TARGET_NAMES,
    TargetKind,
    fit_target,
    make_targets,
    targets_from_values,
)
from .tree import TREE, TreeParams, fit_tree

__all__ = [
    "BINNED_LENGTH",
    "CAPPED_LENGTH",
    "ConvergenceError",
    "DivergenceError",
    "FAMILIES",
    "FOREST",
    "ForestParams",
    "LASSO",
    "LinearParams",
    "MEDIAN_SPLIT",
    "MLP",
    "MODEL_FORMAT_VERSION",
    "MlpParams",
    "ModelSpec",
    "OLS",
    "RATING",
    "RIDGE",
    "SVR",
    "SingularSystemError",
    "SvrParams",
    "TARGET_KINDS",
    "TARGET_NAMES",
    "TREE",
    "TargetKind",
    "TrainedModel",
    "TreeParams",
    "fit_forest",
    "fit_linear",
    "fit_mlp",
    "fit_svr",
    "fit_target",
    "fit_tree",
    "load_model",
    "make_targets",
    "model_from_json",
    "model_to_json",
    "resolve_gamma",
    "save_model",
    "schema_fingerprint",
    "targets_from_values",
]
