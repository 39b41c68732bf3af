"""Command line pipeline: synth | ingest | tag | featurize | score-topics |
train | evaluate | ablate | correlate | export-tree | plot.

Stages communicate through files (corpus JSONL, feature CSV, model
JSON, report CSV) so expensive steps can be reused across runs.
``featurize`` also writes ``<features>.json``, a sidecar naming the
feature set and prefix window; ``evaluate`` and ``ablate`` label their
reports from it.  ``train``, ``evaluate`` and ``ablate`` fit and score
through :func:`convperf.experiment.fit_and_report` and
:func:`convperf.experiment.evaluate_model`, the path grid runs use.

This module imports only :mod:`convperf.corpus`; each command imports
the modules it runs, so ``ingest`` loads nothing else and only the
fitting and reporting commands load the regressors.  An option's choices
are a :class:`Vocabulary` declared in the module that owns them, loaded
when a command that takes the option checks a value or prints its help.

Each run option is declared once in :data:`OPTIONS`: its flag, the
:class:`RunConfig` field it sets, and how its value is checked.
:data:`COMMAND_OPTIONS` names the options each command reads; it builds
each subparser (any other run option is a usage error) and picks the
fields :func:`load_run_config` takes and :func:`config_hash` covers.  A
JSON config file (``--config``, or the path in CONVPERF_CONFIG) sets
values that flags override, through the same checks.  Keys only other
commands read are ignored; keys no command reads are rejected.
Hyperparameter flags land in ``RunConfig.hyperparameters`` under their
own names (``--lambda`` as ``lambda``, ``--no-bootstrap`` as
``bootstrap``); :func:`convperf.experiment.fit_spec` passes them to the
family's fit function and rejects a key it does not take.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

from .corpus import (
    SPLIT_NAMES,
    CorpusError,
    filter_min_length,
    parse_corpus,
    split_corpus,
    write_corpus_jsonl,
)

CONFIG_ENV = "CONVPERF_CONFIG"


# Dest prefix of the hyperparameter options: "--max-depth" parses to
# "hyperparameters.max_depth", stored as hyperparameters["max_depth"].
HP_DEST = "hyperparameters."


class CliError(Exception):
    """User-facing failure; main() turns it into exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Effective run parameters (defaults < config file < flags)."""

    seed: int = 0
    min_length: int = 5
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    feature_set: str = "independent"
    prefix_k: int | None = None
    target: str = "rating"  # a key of regressors.TARGET_NAMES
    family: str = "ridge"
    hyperparameters: dict = field(default_factory=dict)
    match_mode: str = "word_boundary"
    lexicon_dir: str | None = None
    variant: str = "F1"
    exclude_topics: tuple[str, ...] = ("intro",)
    synth_preset: str = "default"
    synth_n: int = 1000


# ------------------------------------------------------------ run options

# A check takes a flag's parsed value or a config file's JSON value and
# returns the field value, or raises ValueError.  A bool is not an int.


def _check(what: str, ok: Callable, convert: Callable | None = None) -> Callable:
    def check(value):
        if not ok(value):
            raise ValueError(f"expects {what}, got {value!r}")
        return convert(value) if convert else value
    return check


def _seq(item_ok: Callable, n: int | None = None) -> Callable:
    return lambda v: (isinstance(v, (list, tuple)) and (n is None or len(v) == n)
                      and all(map(item_ok, v)))


integer = _check("an integer", lambda v: type(v) is int)
non_negative = _check("an integer >= 0", lambda v: type(v) is int and v >= 0)
number = _check("a number", lambda v: type(v) in (int, float))
boolean = _check("true or false", lambda v: type(v) is bool)
optional_text = _check("a string", lambda v: v is None or isinstance(v, str))
prefix_window = _check("an integer >= 1", lambda v: v is None or type(v) is int and v > 0)
# max_depth: None or a negative integer means unbounded.
tree_depth = _check("an integer", lambda v: v is None or type(v) is int,
                    lambda v: None if v is None or v < 0 else v)
scale_or_number = _check('"scale" or a number',
                         lambda v: v == "scale" or type(v) in (int, float))
int_list = _check("a list of integers", _seq(lambda v: type(v) is int), list)
topic_names = _check("a list of topic names", _seq(lambda t: isinstance(t, str)), tuple)
three_ratios = _check("three ratios", _seq(lambda v: type(v) in (int, float), 3),
                      lambda v: tuple(map(float, v)))


# Flag text readers; argparse names them in a usage error.
def ratios(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def gamma(text: str) -> str | float:
    return "scale" if text == "scale" else float(text)


def hidden_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}")


class Vocabulary(Sequence):
    """An option's choices, declared as ``"module.NAME"`` in the convperf
    module that owns them.  The module is imported when the choices are
    first read, so a command that never reads the option never imports it."""

    def __init__(self, where: str):
        self.where = where

    @cached_property
    def _names(self) -> tuple:
        module, name = self.where.rsplit(".", 1)
        return tuple(getattr(importlib.import_module(f"{__package__}.{module}"), name))

    def __getitem__(self, i):
        return self._names[i]

    def __len__(self) -> int:
        return len(self._names)


class Option(NamedTuple):
    """A run option: its flag (None if only a config file sets it), its
    dest (a RunConfig field, or HP_DEST + a hyperparameter key), the reader
    of its flag text (None: a bare flag that stores False), and the choices
    or the check that a value from the flag or the file must pass."""

    flag: str | None
    dest: str
    check: Callable | None = None
    parse: Callable | None = str
    choices: Sequence = ()
    help: str | None = None

    def convert(self, value):
        """``value`` as the field takes it; a refusal names key and flag."""
        try:
            if self.choices and value not in self.choices:
                what = self.help or self.dest.replace("_", " ")
                raise ValueError(f"unknown {what} {value!r} "
                                 f"(choose from {', '.join(self.choices)})")
            return self.check(value) if self.check else value
        except ValueError as e:
            name = f"{self.dest} ({self.flag})" if self.flag else self.dest
            raise CliError(f"{name}: {e}") from None


OPTIONS = {
    opt.dest: opt
    for opt in (
        Option("--seed", "seed", non_negative, int),
        Option("--synth-preset", "synth_preset", choices=Vocabulary("synth.PRESETS")),
        Option("--n", "synth_n", integer, int, help="synthetic corpus size"),
        Option("--min-length", "min_length", integer, int),
        Option("--match-mode", "match_mode", choices=Vocabulary("tagging.MATCH_MODES")),
        Option("--lexicon-dir", "lexicon_dir", optional_text),
        Option("--split", "split", three_ratios, ratios,
               help="train,dev,test ratios (e.g. 0.8,0.1,0.1)"),
        Option("--feature-set", "feature_set", choices=Vocabulary("features.FEATURE_SETS")),
        Option("--prefix-k", "prefix_k", prefix_window, int),
        Option("--variant", "variant", choices=Vocabulary("topicscore.VARIANTS")),
        Option(None, "exclude_topics", topic_names),
        Option("--target", "target", choices=Vocabulary("regressors.TARGET_NAMES")),
        Option("--family", "family", choices=Vocabulary("regressors.FAMILIES"),
               help="model family"),
        Option("--lambda", HP_DEST + "lambda", number, float, help="ridge/lasso weight"),
        Option("--max-depth", HP_DEST + "max_depth", tree_depth, int,
               help="tree/forest depth cap; negative means unbounded"),
        Option("--min-leaf", HP_DEST + "min_leaf", integer, int),
        Option("--n-trees", HP_DEST + "n_trees", integer, int),
        Option("--feat-frac", HP_DEST + "feat_frac", number, float),
        Option("--no-bootstrap", HP_DEST + "bootstrap", boolean, None),
        Option("--C", HP_DEST + "C", number, float, help="SVR regularization"),
        Option("--epsilon", HP_DEST + "epsilon", number, float),
        Option("--gamma", HP_DEST + "gamma", scale_or_number, gamma,
               help='"scale" or a positive number'),
        Option("--max-iter", HP_DEST + "max_iter", integer, int),
        Option("--hidden", HP_DEST + "hidden", int_list, hidden_sizes,
               help="MLP hidden sizes, e.g. 100,50"),
        Option("--lr", HP_DEST + "lr", number, float),
        Option("--batch-size", HP_DEST + "batch_size", integer, int),
        Option("--max-epochs", HP_DEST + "max_epochs", integer, int),
        Option("--patience", HP_DEST + "patience", integer, int),
    )
}

# The run options each command reads.  A command that reads none takes no
# --config either.
_FIT = ("seed", "target", "family", *(d for d in OPTIONS if d.startswith(HP_DEST)))
COMMAND_OPTIONS = {
    "synth": ("seed", "synth_preset", "synth_n"),
    "ingest": ("min_length",),
    "tag": ("match_mode", "lexicon_dir"),
    "featurize": ("seed", "split", "feature_set", "prefix_k"),
    "score-topics": ("variant", "exclude_topics"),
    "train": _FIT,
    "evaluate": (),
    "ablate": _FIT,
    "correlate": (),
    "export-tree": (),
    "plot": ("variant", "exclude_topics"),
}


def read_fields(command: str) -> set[str]:
    """The RunConfig fields ``command`` reads."""
    return {dest.split(".")[0] for dest in COMMAND_OPTIONS[command]}


def config_hash(cfg: RunConfig, command: str) -> str:
    """Provenance hash over the fields ``command`` reads, and no others."""
    read = {k: v for k, v in asdict(cfg).items() if k in read_fields(command)}
    blob = json.dumps(read, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _config_file(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    if not os.path.isfile(path):
        raise CliError(f"missing config file: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise CliError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return data


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of ``args.command``: defaults < config file < flags,
    for the options the command reads, each through :meth:`Option.convert`."""
    dests = COMMAND_OPTIONS[args.command]
    read = read_fields(args.command)
    data = {k: v for k, v in _config_file(args).items() if k in read} if dests else {}
    hp = data.pop("hyperparameters", {})
    if not isinstance(hp, dict):
        raise CliError(f"hyperparameters: expects a JSON object, got {hp!r}")
    # Keyed by dest, flags over the file.  A hyperparameter key that no
    # flag names goes unchecked to fit_spec, which rejects it by family.
    data.update((HP_DEST + k, v) for k, v in hp.items())
    data.update((d, getattr(args, d)) for d in dests if hasattr(args, d))
    data.update((d, OPTIONS[d].convert(data[d])) for d in dests if d in data)
    hp = {d[len(HP_DEST):]: data.pop(d) for d in list(data) if d.startswith(HP_DEST)}
    return RunConfig(**data, hyperparameters=hp)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"missing {what}: {path}")
    return path


def _read_corpus(path: str):
    _require_file(path, "corpus file")
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh)


# ---------------------------------------------------------------- commands


def cmd_synth(cfg: RunConfig, args) -> int:
    from .synth import PRESETS, generate

    corpus = generate(PRESETS[cfg.synth_preset](cfg.synth_n, seed=cfg.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(corpus, fh)
    print(f"wrote {len(corpus)} conversations to {args.out}")
    return 0


def cmd_ingest(cfg: RunConfig, args) -> int:
    corpus = _read_corpus(args.input)
    kept = filter_min_length(corpus, cfg.min_length)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(kept, fh)
    print(
        f"ingested {len(corpus)} conversations, kept {len(kept)} with "
        f"length >= {cfg.min_length} -> {args.out}"
    )
    return 0


def cmd_tag(cfg: RunConfig, args) -> int:
    from .tagging import default_config, load_lexicon_dir, tag_corpus

    corpus = _read_corpus(args.input)
    if cfg.lexicon_dir is not None:
        if not os.path.isdir(cfg.lexicon_dir):
            raise CliError(f"missing lexicon directory: {cfg.lexicon_dir}")
        tagger = load_lexicon_dir(cfg.lexicon_dir, match_mode=cfg.match_mode)
    else:
        tagger = default_config(match_mode=cfg.match_mode)
    tagged = tag_corpus(corpus, tagger, overwrite=args.overwrite)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(tagged, fh)
    n_tagged = int((tagged.sda != 0).sum())  # code 0 is the empty tag set
    print(f"tagged {len(tagged)} conversations ({n_tagged} exchanges carry tags)")
    return 0


def cmd_featurize(cfg: RunConfig, args) -> int:
    from .features import FeatureSchema, build_matrix, write_feature_csv

    corpus = _read_corpus(args.input)
    corpus = split_corpus(corpus, ratios=cfg.split, seed=cfg.seed)
    schema = FeatureSchema()
    ids, X = build_matrix(corpus, schema, cfg.feature_set, cfg.prefix_k)
    names = schema.names(cfg.feature_set)
    splits = [SPLIT_NAMES[k] for k in corpus.split.tolist()]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv(
            fh, ids, names, X, corpus.ratings, corpus.capped_lengths(), splits
        )
    with open(_sidecar(args.out), "w", encoding="utf-8") as fh:
        json.dump({"feature_set": cfg.feature_set, "prefix_k": cfg.prefix_k}, fh)
        fh.write("\n")
    n_train = splits.count("train")
    print(
        f"featurized {len(ids)} conversations ({len(names)} features, "
        f"{n_train} train) -> {args.out}"
    )
    return 0


def cmd_score_topics(cfg: RunConfig, args) -> int:
    from .topicscore import score_topics

    corpus = _read_corpus(args.input)
    report = score_topics(corpus, cfg.variant, exclude_topics=cfg.exclude_topics)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["topic", "raw_sum", "z_score", "config_hash"])
            digest = config_hash(cfg, args.command)
            for t, raw, z in zip(report.topics, report.raw_sums, report.z_scores):
                w.writerow([t, repr(raw), repr(z), digest])
    width = max(len(t) for t in report.topics)
    print(f"topic scores ({report.variant})")
    for t, z in report.ranked():
        print(f"  {t.ljust(width)}  {z:+.3f}")
    return 0


def _sidecar(features_path: str) -> str:
    return features_path + ".json"


def _feature_provenance(features_path: str) -> tuple[str, int | None]:
    """(feature_set, prefix_k) from the sidecar featurize wrote."""
    path = _require_file(_sidecar(features_path), "feature CSV sidecar")
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
            return meta["feature_set"], meta["prefix_k"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise CliError(f"feature CSV sidecar {path} is malformed: {e!r}")


def _load_feature_splits(path: str):
    """Feature names and the CSV's rows grouped by split label."""
    from .experiment import SplitRows
    from .features import read_feature_csv

    _require_file(path, "feature CSV")
    with open(path, encoding="utf-8", newline="") as fh:
        ids, names, X, ratings, lengths, splits = read_feature_csv(fh)
    rows = {s: [] for s in SPLIT_NAMES}
    for i, s in enumerate(splits):
        if s not in rows:
            raise CliError(f"feature CSV {path} has unknown split {s!r}")
        rows[s].append(i)
    return names, {
        s: SplitRows(
            [ids[i] for i in idx],
            X[idx],
            [ratings[i] for i in idx],
            [lengths[i] for i in idx],
        )
        for s, idx in rows.items()
    }


def _fit(cfg: RunConfig, names, splits, label, feature_set, prefix_k, drop=()):
    from .experiment import fit_and_report
    from .regressors import TARGET_NAMES, ModelSpec

    spec = ModelSpec(cfg.family, cfg.hyperparameters, seed=cfg.seed)
    return fit_and_report(spec, names, splits, TARGET_NAMES[cfg.target], label,
                          feature_set, prefix_k, drop, cfg.seed)


def cmd_train(cfg: RunConfig, args) -> int:
    from .regressors import save_model

    names, splits = _load_feature_splits(args.features)
    # The test report is not written, so it needs no feature-set labels.
    model, _ = _fit(cfg, names, splits, cfg.family, None, None)
    save_model(model, args.model_out)
    print(
        f"trained {cfg.family} on {len(splits['train'].ids)} rows "
        f"(target {model.target.kind}) -> {args.model_out}"
    )
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    from .experiment import evaluate_model, format_report_table, write_reports_csv
    from .regressors import load_model

    names, splits = _load_feature_splits(args.features)
    feature_set, prefix_k = _feature_provenance(args.features)
    _require_file(args.model, "trained model")
    model = load_model(args.model)
    if model.feature_names != tuple(names):
        raise CliError(
            f"model {args.model} was trained on a different feature schema "
            f"than {args.features}"
        )
    report = evaluate_model(
        model, splits["test"], model.spec.family, feature_set, prefix_k
    )
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(fh, [report], config_hash(cfg, args.command))
    print(format_report_table([report]), end="")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    from .experiment import format_report_table, write_reports_csv

    names, splits = _load_feature_splits(args.features)
    feature_set, prefix_k = _feature_provenance(args.features)
    drop = tuple(tok for tok in args.drop.split(",") if tok)
    unknown = [d for d in drop if d not in names]
    if unknown:  # before the base fit, which may fail for its own reasons
        raise CliError(f"unknown feature names: {', '.join(unknown)}")
    reports = [
        _fit(cfg, names, splits, label, feature_set, prefix_k, dropped)[1]
        for label, dropped in ((cfg.family, ()), (f"{cfg.family}-ablated", drop))
    ]
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(fh, reports, config_hash(cfg, args.command))
    print(f"ablated: {', '.join(drop) or '(nothing)'}")
    print(format_report_table(reports), end="")
    return 0


def cmd_correlate(cfg: RunConfig, args) -> int:
    from .experiment import correlate_metrics, format_correlations, write_correlations_csv

    corpus = _read_corpus(args.input)
    report = correlate_metrics(corpus)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8", newline="") as fh:
            write_correlations_csv(fh, report, config_hash(cfg, args.command))
    print(format_correlations(report), end="")
    return 0


def cmd_export_tree(cfg: RunConfig, args) -> int:
    from .experiment import export_tree
    from .regressors import load_model

    _require_file(args.model, "trained model")
    model = load_model(args.model)
    text = export_tree(
        model, depth_limit=args.depth_limit, tree_index=args.tree_index
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote tree graph to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_plot(cfg: RunConfig, args) -> int:
    from .plots import length_histogram, rating_histogram, topic_z_bars, write_chart
    from .topicscore import score_topics

    corpus = _read_corpus(args.input)
    os.makedirs(args.out_dir, exist_ok=True)
    report = score_topics(corpus, cfg.variant, exclude_topics=cfg.exclude_topics)
    for stem, (labels, values), title in (
        ("length_hist", length_histogram(corpus), "Conversation length"),
        ("rating_hist", rating_histogram(corpus), "Ratings"),
        ("topic_z", topic_z_bars(report), f"Topic z-scores ({cfg.variant})"),
    ):
        write_chart(os.path.join(args.out_dir, stem), labels, values, title)
    print(f"wrote length_hist, rating_hist, topic_z to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convperf",
        description="Conversation performance modeling pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subparser taking the run options COMMAND_OPTIONS gives it."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        if COMMAND_OPTIONS[name]:
            sp.add_argument("--config", help="JSON run-config file")
        for opt in (OPTIONS[d] for d in COMMAND_OPTIONS[name] if OPTIONS[d].flag):
            kwargs = {"type": opt.parse, "metavar": opt.dest.removeprefix(HP_DEST).upper()}
            if opt.parse is None:
                kwargs = {"action": "store_const", "const": False}
            elif isinstance(opt.choices, Vocabulary):
                kwargs["choices"] = opt.choices
            action = sp.add_argument(opt.flag, dest=opt.dest, default=argparse.SUPPRESS,
                                     help=opt.help, **kwargs)
            if "choices" in kwargs:
                # Help and usage list the choices.  Set after add_argument,
                # which formats the metavar and would load the vocabulary.
                action.metavar = None
        return sp

    sp = command("synth", cmd_synth, "generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp = command("ingest", cmd_ingest,
                 "validate, length-filter, and canonicalize a corpus")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp = command("tag", cmd_tag, "lexicon-tag user utterances")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--overwrite", action="store_true",
                    help="replace existing tags instead of unioning")
    sp = command("featurize", cmd_featurize,
                 "split the corpus and extract features to CSV")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp = command("score-topics", cmd_score_topics, "topic z-scores over a rated corpus")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out")
    sp = command("train", cmd_train, "fit one model from a feature CSV")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model-out", dest="model_out", required=True)
    sp = command("evaluate", cmd_evaluate, "test-split metrics for a trained model")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--report-out", dest="report_out")
    sp = command("ablate", cmd_ablate, "refit with features removed and compare")
    sp.add_argument("--features", required=True)
    sp.add_argument("--drop", required=True,
                    help="comma-separated feature names to remove")
    sp.add_argument("--report-out", dest="report_out")
    sp = command("correlate", cmd_correlate, "pairwise metric correlations")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--report-out", dest="report_out")
    sp = command("export-tree", cmd_export_tree, "render a tree model as DOT graph text")
    sp.add_argument("--model", required=True)
    sp.add_argument("--depth-limit", dest="depth_limit", type=int)
    sp.add_argument("--tree-index", dest="tree_index", type=int)
    sp.add_argument("--out")
    sp = command("plot", cmd_plot, "emit SVG/CSV summary charts")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args)
        return args.func(cfg, args)
    except (CliError, CorpusError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
