"""Experiment harness: grid runs, metric correlations, tree export.

A :class:`GridCell` describes one fit: a model spec, a feature set, a
target, an optional prefix window, and the feature columns to drop.  An
ablation is a cell with a non-empty ``drop``, so base and ablated cells
run side by side in one :func:`run_grid` call.  Every cell, in a grid
or from the CLI's train/ablate commands, is fitted from a
:class:`Design`: its window's split rows restricted to its columns,
with a standardizer fitted on the train rows and the train rows
standardized.  Cells with the same window and columns share one design.
A fit trains on the standardized train rows, uses the dev split only
for MLP early stopping, and reports test-split metrics.
Reports serialize to CSV (byte-stable via repr floats) and to aligned
text tables where r gets a "**" mark at p <= .01; constant predictions
leave r undefined.
"""

from __future__ import annotations

import csv
import functools
import inspect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import SPLIT_NAMES, Corpus, CorpusError
from .features import (
    DEPENDENT,
    INDEPENDENT,
    FeatureSchema,
    FeatureTable,
    Standardizer,
    build_matrix,
    warn_unknown,
)
from .metrics import MIN_N, mse, pearson, r_squared
from .regressors import (
    FOREST,
    LASSO,
    MLP,
    OLS,
    RIDGE,
    SVR,
    TREE,
    ModelSpec,
    TargetKind,
    TrainedModel,
    fit_forest,
    fit_linear,
    fit_mlp,
    fit_svr,
    fit_target,
    fit_tree,
    targets_from_values,
)
from .tagging import SDA_COMPLAINT, SDA_COMPLIMENT

SIGNIFICANCE_LEVEL = 0.01

METRIC_PAIRS = (
    ("rating", "length"),
    ("rating", "compliments"),
    ("rating", "complaints"),
    ("length", "compliments"),
    ("length", "complaints"),
)


@dataclass(frozen=True)
class GridCell:
    """One fit.  A target given by kind name has its median fitted on
    train; ``drop`` names feature columns removed before the fit."""

    spec: ModelSpec
    feature_set: str
    target: TargetKind | str
    prefix_k: int | None = None
    name: str | None = None
    drop: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.spec.family


@dataclass(frozen=True)
class EvalReport:
    model: str
    target_kind: str
    feature_set: str
    prefix_k: int | None
    mse: float
    r2: float
    pearson_r: float | None  # None when the predictions are constant
    p_value: float | None
    n: int


class SplitRows(NamedTuple):
    """One split's raw feature rows with their ids and target sources."""

    ids: list
    X: np.ndarray
    ratings: np.ndarray  # floats, NaN where unrated
    lengths: np.ndarray  # capped lengths, as floats


class CellResult(NamedTuple):
    report: EvalReport
    model: TrainedModel


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Pearson r and p over per-conversation metric series."""

    entries: tuple[tuple[str, str, float, float], ...]
    n: int

    def get(self, a: str, b: str) -> tuple[float, float]:
        for m1, m2, r, p in self.entries:
            if {m1, m2} == {a, b}:
                return r, p
        raise KeyError(f"no correlation entry for ({a}, {b})")


# Fit keywords spelled differently as spec keys (``lambda`` is a Python
# keyword), and the keywords fit_spec supplies itself.
_SPEC_KEY = {"lam": "lambda"}
_SUPPLIED = {"X", "y", "family", "seed", "dev"}


def _fit_function(family: str):
    # Looked up by module-level name on every call, so a wrapped
    # (e.g. traced) fit function is the one called.
    if family in (OLS, RIDGE, LASSO):
        return fit_linear
    return {TREE: fit_tree, FOREST: fit_forest, SVR: fit_svr, MLP: fit_mlp}[family]


@functools.cache
def _parameters(fit):
    """``fit``'s signature parameters, read once per function object."""
    return inspect.signature(fit).parameters


def fit_spec(spec: ModelSpec, X, y, dev=None, fallback_seed: int = 0) -> TrainedModel:
    """Fit ``spec``'s family with its hyperparameters as keyword arguments.

    The family's fit function signature is the one place hyperparameter
    names and defaults are written; a key it does not take is rejected
    with a ValueError naming the family, the key and the accepted keys.
    ``dev`` is an (X, y) pair used only by the MLP's early stopping.
    Families without their own seed field fall back to
    ``fallback_seed``.
    """
    family = spec.family
    fit = _fit_function(family)
    params = _parameters(fit)
    keyword = {_SPEC_KEY.get(p, p): p for p in params if p not in _SUPPLIED}
    unknown = [key for key in spec.hyperparameters if key not in keyword]
    if unknown:
        raise ValueError(
            f"{family} has no hyperparameter{'s' * (len(unknown) > 1)} "
            f"{', '.join(map(repr, unknown))} (it takes {', '.join(keyword)})"
        )
    kwargs = {keyword[k]: v for k, v in spec.hyperparameters.items()}
    supplied = {
        "family": family,
        "seed": spec.seed if spec.seed is not None else fallback_seed,
        "dev": dev,
    }
    kwargs.update((k, v) for k, v in supplied.items() if k in params)
    return fit(X, y, **kwargs)


class Design(NamedTuple):
    """One window's split rows restricted to one column list, with the
    standardizer fitted on its train rows and those rows standardized.

    Every cell over the same window and columns fits from one design;
    the standardizer's ``feature_names`` are the columns.
    """

    splits: dict[str, SplitRows]
    standardizer: Standardizer
    train: np.ndarray  # the standardized train rows


def _columns(cell: GridCell, features) -> tuple[str, ...]:
    """``features`` less the cell's dropped columns, which must be among them."""
    unknown = [d for d in cell.drop if d not in features]
    if unknown:
        raise ValueError(f"unknown feature names: {', '.join(unknown)}")
    return tuple(n for n in features if n not in cell.drop)


def _design(names, splits: dict[str, SplitRows], columns) -> Design:
    """The design of ``splits`` (columns following ``names``) over ``columns``."""
    for split in ("train", "test"):  # before a fit that may take long
        if not splits[split].ids:
            raise ValueError(f"{split} split is empty")
    position = {n: j for j, n in enumerate(names)}
    keep = [position[n] for n in columns]
    # C-ordered rows (take() returns them), so the standardizer's sums do
    # not depend on how the caller laid out its matrices; a C-ordered
    # matrix whose every column is kept is used as it is, not copied.
    whole = keep == list(range(len(names)))
    splits = {
        k: s._replace(
            X=np.ascontiguousarray(s.X) if whole else s.X.take(keep, axis=1)
        )
        for k, s in splits.items()
    }
    std = Standardizer.fit(splits["train"].X, columns)
    return Design(splits, std, std.transform(splits["train"].X))


def _fit_design(cell: GridCell, design: Design, seed: int) -> CellResult:
    """Fit one cell from its design and report it on the test split."""
    train, dev = design.splits["train"], design.splits["dev"]
    std = design.standardizer
    target = cell.target
    if isinstance(target, str):
        target = fit_target(target, train.lengths)
    dev_pair = None
    if dev.ids and cell.spec.family == MLP:
        dev_pair = (std.transform(dev.X), _targets(target, dev))
    model = fit_spec(cell.spec, design.train, _targets(target, train), dev_pair, seed)
    model = model.bind(target=target, feature_names=std.feature_names, standardizer=std)
    return CellResult(evaluate_model(model, design.splits["test"], cell), model)


def fit_and_report(
    cell: GridCell, names, splits: dict[str, SplitRows], seed: int = 0
) -> CellResult:
    """Fit one cell on the train split and report it on the test split.

    ``splits`` maps train/dev/test to raw rows whose columns follow
    ``names``.  The cell's columns are ``names`` less its dropped ones,
    taken by name before anything else; the cell is fitted from the
    :class:`Design` over them, as every :func:`run_grid` cell is.  The
    standardizer, and the median of a median-split target given by kind
    name, are fitted on train; dev reaches only the MLP's early stopping.
    """
    return _fit_design(cell, _design(names, splits, _columns(cell, names)), seed)


def _targets(target: TargetKind, rows: SplitRows) -> np.ndarray:
    return targets_from_values(target, rows.ratings, rows.lengths, ids=rows.ids)


def evaluate_model(model: TrainedModel, test: SplitRows, cell: GridCell) -> EvalReport:
    """Test-split metrics for a bound model with its standardizer.

    The report's label, feature set and prefix window come from ``cell``.

    A model that predicts one constant value has no correlation with
    the truth; its report carries None for ``pearson_r`` and ``p_value``.
    A constant truth leaves R² undefined for every model and is rejected.
    """
    if not test.ids:
        raise ValueError("test split is empty")
    truth = _targets(model.target, test)
    if np.all(truth == truth[0]):
        raise ValueError(
            f"test split's {model.target.kind} target is constant "
            f"(every value is {truth[0]:g}); R² is undefined"
        )
    pred = model.predict_prepared(model.standardizer.transform(test.X))
    r = p = None
    if np.any(pred != pred[0]):
        r, p = pearson(pred, truth)
    return EvalReport(
        model=cell.label,
        target_kind=model.target.kind,
        feature_set=cell.feature_set,
        prefix_k=cell.prefix_k,
        mse=mse(pred, truth),
        r2=r_squared(pred, truth),
        pearson_r=r,
        p_value=p,
        n=len(test.ids),
    )


def split_parts(ids, ratings, lengths, split) -> dict:
    """Per split name: its row positions and ids, its ratings as floats
    (NaN where unrated) and its capped lengths as floats.

    ``ids``, ``ratings`` and ``lengths`` are per row, and ``split``
    holds each row's index into ``SPLIT_NAMES``.
    """
    split = np.asarray(split)
    ratings = np.array(ratings, dtype=float)  # None becomes NaN
    lengths = np.array(lengths, dtype=float)
    rows = {name: np.flatnonzero(split == k) for k, name in enumerate(SPLIT_NAMES)}
    return {name: (at, list(map(ids.__getitem__, at.tolist())), ratings[at], lengths[at])
            for name, at in rows.items()}


def take(parts, X: np.ndarray) -> dict[str, SplitRows]:
    """Each split's :class:`SplitRows`, its rows taken from the whole matrix ``X``."""
    return {
        split: SplitRows(ids, X[rows], ratings, lengths)
        for split, (rows, ids, ratings, lengths) in parts.items()
    }


def run_grid(cells, corpus: Corpus, seed: int = 0) -> list[CellResult]:
    """Train and evaluate every grid cell; results follow grid order.

    The split corpus is encoded into one :class:`FeatureTable` per
    call; its unknown names are warned of first if a cell reads the
    dependent set.  Cells are fitted one prefix window at a time,
    windows in the order they first appear.  A window's matrix is built once, at its
    first cell, over the widest feature set its cells use (dependent if
    any cell uses it), and split into train/dev/test rows.  Each of its
    column lists (a cell's feature set less its dropped columns) gets
    one :class:`Design`, built at its first cell and shared by every
    cell with those columns, so a rating cell and a length cell fit one
    standardizer.  One window's rows and designs are held at a time.
    A failure names its cell; of failing cells in two windows, the one
    named is the first in window order.
    """
    if corpus.split is None:
        raise CorpusError("corpus has no split assignment")
    schema = FeatureSchema()
    parts = split_parts(corpus.ids, corpus.ratings, corpus.capped_lengths(), corpus.split)
    table = FeatureTable(corpus, schema)
    if any(cell.feature_set == DEPENDENT for cell in cells):
        warn_unknown(table.unknown, DEPENDENT)
    windows = {}  # window -> its cells' grid indices
    for i, cell in enumerate(cells):
        windows.setdefault(cell.prefix_k, []).append(i)
    results = [None] * len(cells)
    for window, at in windows.items():
        feature_sets = {cells[i].feature_set for i in at}
        widest = DEPENDENT if DEPENDENT in feature_sets else INDEPENDENT
        splits, designs = None, {}  # the previous window's are freed here
        for i in at:
            cell = cells[i]
            try:
                columns = _columns(cell, schema.names(cell.feature_set))
                if splits is None:
                    splits = take(parts, table.rows(widest, window))
                if columns not in designs:
                    designs[columns] = _design(schema.names(widest), splits, columns)
                results[i] = _fit_design(cell, designs[columns], seed)
            except Exception as e:
                kind = getattr(cell.target, "kind", cell.target)  # or a kind name
                raise RuntimeError(
                    f"grid cell {i} ({cell.label}, {cell.feature_set}, "
                    f"{kind}, prefix_k={cell.prefix_k}) failed: {e}"
                ) from e
    return results


def correlate_metrics(corpus: Corpus) -> CorrelationReport:
    """Pearson over per-conversation rating, length, and SDA rates.

    Lengths are the capped modeling lengths; compliment and complaint
    rates are the whole-conversation frequency features.  Every
    conversation must be rated, and there must be at least 3, the fewest
    a p-value takes; a series with one value (such as the compliment
    rate of an untagged corpus) is refused by name.
    """
    if None in corpus.ratings:
        cid = corpus.ids[corpus.ratings.index(None)]
        raise ValueError(f"conversation {cid!r} has no rating")
    if len(corpus) < MIN_N:
        raise ValueError(f"correlations need at least {MIN_N} conversations, "
                         f"the corpus has {len(corpus)}")
    schema = FeatureSchema()
    names = schema.names(INDEPENDENT)
    _, X = build_matrix(corpus, schema, INDEPENDENT)
    series = {
        "rating": np.array(corpus.ratings, dtype=float),
        "length": np.array(corpus.capped_lengths(), dtype=float),
        "compliments": X[:, names.index(f"freq_{SDA_COMPLIMENT}")],
        "complaints": X[:, names.index(f"freq_{SDA_COMPLAINT}")],
    }
    for name, values in series.items():
        if np.all(values == values[0]):
            raise ValueError(f"{name} is constant over the {values.size} conversations "
                             f"(every value is {values[0]:g}); its correlations are undefined")
    entries = []
    for a, b in METRIC_PAIRS:
        r, p = pearson(series[a], series[b])
        entries.append((a, b, r, p))
    return CorrelationReport(entries=tuple(entries), n=len(corpus))


def export_tree(
    model: TrainedModel,
    depth_limit: int | None = None,
    tree_index: int | None = None,
) -> str:
    """Render a fitted tree as DOT graph text.

    Forest models need ``tree_index`` to pick one member.  Nodes list
    the split feature (named from ``model.feature_names``, or ``x{j}``
    for an unbound model) and threshold (or the leaf mean), the sample
    count, and the within-node squared deviation; internal nodes at
    ``depth_limit`` are shown as truncated leaves.  Node ids and line
    order are stable across runs.
    """
    if depth_limit is not None and depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    family = model.spec.family
    if family == TREE:
        params = model.params
        if tree_index is not None:
            raise ValueError("tree_index only applies to forest models")
    elif family == FOREST:
        if tree_index is None:
            raise ValueError("forest export needs tree_index to pick a member")
        trees = model.params.trees
        if not 0 <= tree_index < len(trees):
            raise ValueError(
                f"tree_index {tree_index} out of range for {len(trees)} trees"
            )
        params = trees[tree_index]
    else:
        raise ValueError(f"cannot export family {family!r} as a tree")

    lines = ["digraph tree {"]
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        n = int(params.n_samples[node])
        ss = repr(float(params.impurity[node]))
        j = int(params.feature[node])
        if j < 0:
            val = repr(float(params.value[node]))
            lines.append(f'  n{node} [label="value={val}\\nn={n} ss={ss}"];')
            continue
        if depth_limit is not None and depth >= depth_limit:
            val = repr(float(params.value[node]))
            lines.append(
                f'  n{node} [label="(depth limit) value={val}\\nn={n} ss={ss}"];'
            )
            continue
        thr = repr(float(params.threshold[node]))
        name = f"x{j}" if model.feature_names is None else model.feature_names[j]
        lines.append(f'  n{node} [label="{name} <= {thr}\\nn={n} ss={ss}"];')
        left = int(params.left[node])
        right = int(params.right[node])
        lines.append(f'  n{node} -> n{left} [label="yes"];')
        lines.append(f'  n{node} -> n{right} [label="no"];')
        stack.append((right, depth + 1))
        stack.append((left, depth + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _star(p: float) -> str:
    return "**" if p <= SIGNIFICANCE_LEVEL else ""


def write_reports_csv(fh, reports, config_hash: str = "") -> None:
    """CSV serialization; repr floats keep equal runs byte-identical."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(
        [
            "model",
            "target",
            "feature_set",
            "prefix_k",
            "n",
            "mse",
            "r2",
            "pearson_r",
            "p_value",
            "config_hash",
        ]
    )
    for r in reports:
        w.writerow(
            [
                r.model,
                r.target_kind,
                r.feature_set,
                "" if r.prefix_k is None else r.prefix_k,
                r.n,
                repr(r.mse),
                repr(r.r2),
                "" if r.pearson_r is None else repr(r.pearson_r),
                "" if r.p_value is None else repr(r.p_value),
                config_hash,
            ]
        )


def _aligned(rows) -> str:
    """Rows of cells as left-aligned columns two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


def format_report_table(reports) -> str:
    """Aligned text table in (MSE, R2, r) column order.

    An undefined r shows as ``n/a``, with a line giving the reason.
    """
    rows = [["model", "target", "features", "k", "n", "MSE", "R2", "r"]]
    notes = []
    for r in reports:
        if r.pearson_r is None:
            corr = "n/a"
            notes.append(f"{r.model}: r is n/a, every prediction is the same value\n")
        else:
            corr = f"{r.pearson_r:.3f}{_star(r.p_value)}"
        rows.append(
            [
                r.model,
                r.target_kind,
                r.feature_set,
                "-" if r.prefix_k is None else str(r.prefix_k),
                str(r.n),
                f"{r.mse:.3f}",
                f"{r.r2:.3f}",
                corr,
            ]
        )
    return _aligned(rows) + "".join(notes)


def write_correlations_csv(fh, report: CorrelationReport, config_hash: str = "") -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["metric_a", "metric_b", "n", "r", "p_value", "config_hash"])
    for a, b, r, p in report.entries:
        w.writerow([a, b, report.n, repr(r), repr(p), config_hash])


def format_correlations(report: CorrelationReport) -> str:
    rows = [["pair", "r", "p"]]
    for a, b, r, p in report.entries:
        rows.append([f"{a}/{b}", f"{r:.3f}{_star(p)}", f"{p:.3g}"])
    return _aligned(rows) + f"n={report.n}\n"
