"""Regression suite: linear family, trees, forests, SVR, and MLP.

Importing this package imports every family's parameters class, so
``load_model`` reads any saved model without further imports.
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
