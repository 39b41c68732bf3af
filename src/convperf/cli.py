"""Command line pipeline: synth | ingest | tag | featurize | score-topics |
train | evaluate | ablate | correlate | export-tree | plot.

Stages communicate through files (corpus JSONL, feature CSV, model
JSON, report CSV) so expensive steps can be reused across runs.
``featurize`` also writes ``<features>.json``, a sidecar naming the
feature set and prefix window; ``evaluate`` and ``ablate`` label their
reports from it.  ``train``, ``evaluate`` and ``ablate`` fit and score
through :func:`convperf.experiment.fit_and_report` and
:func:`convperf.experiment.evaluate_model`, the path grid runs use.

A JSON config file holds the canonical run parameters; flags override
it; the CONVPERF_CONFIG environment variable names a default config
path.  The effective config is hashed into every report for provenance.
Hyperparameter flags convert their values in argparse and land in
``RunConfig.hyperparameters`` under their own names (``--lambda`` as
``lambda``, ``--no-bootstrap`` as ``bootstrap``);
:func:`convperf.experiment.fit_spec` passes them to the family's fit
function and rejects a key it does not take.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from .corpus import (
    SPLIT_NAMES,
    CorpusError,
    filter_min_length,
    parse_corpus,
    split_corpus,
    write_corpus_jsonl,
)
from .experiment import (
    SplitRows,
    correlate_metrics,
    evaluate_model,
    export_tree,
    fit_and_report,
    format_correlations,
    format_report_table,
    write_correlations_csv,
    write_reports_csv,
)
from .features import (
    FEATURE_SETS,
    FeatureSchema,
    INDEPENDENT,
    build_matrix,
    read_feature_csv,
    write_feature_csv,
)
from .plots import length_histogram, rating_histogram, topic_z_bars, write_chart
from .regressors import (
    BINNED_LENGTH,
    CAPPED_LENGTH,
    FAMILIES,
    MEDIAN_SPLIT,
    ModelSpec,
    RATING,
    load_model,
    save_model,
)
from .synth import (
    GeneratorConfig,
    compliment_driven_config,
    deterministic_length_config,
    generate,
    single_signal_config,
)
from .tagging import (
    WHOLE_UTTERANCE,
    WORD_BOUNDARY,
    default_config as default_tagger,
    load_lexicon_dir,
    tag_corpus,
)
from .topicscore import VARIANTS, score_topics

CONFIG_ENV = "CONVPERF_CONFIG"

TARGET_BY_FLAG = {
    "rating": RATING,
    "length": CAPPED_LENGTH,
    "median-split": MEDIAN_SPLIT,
    "binned": BINNED_LENGTH,
}

SYNTH_PRESETS = {
    "default": GeneratorConfig,
    "compliment": compliment_driven_config,
    "single-signal": single_signal_config,
    "deterministic": deterministic_length_config,
}


# Dest prefix of the hyperparameter flags: "--max-depth" parses to
# "hp.max_depth", which load_run_config stores as hyperparameters["max_depth"].
HP_DEST = "hp."


class CliError(Exception):
    """User-facing failure; main() turns it into exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Effective run parameters (defaults < config file < flags)."""

    seed: int = 0
    min_length: int = 5
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    feature_set: str = INDEPENDENT
    prefix_k: int | None = None
    target: str = "rating"  # flag vocabulary; see TARGET_BY_FLAG
    family: str = "ridge"
    hyperparameters: dict = field(default_factory=dict)
    match_mode: str = WORD_BOUNDARY
    lexicon_dir: str | None = None
    variant: str = "F1"
    exclude_topics: tuple[str, ...] = ("intro",)
    synth_preset: str = "default"
    synth_n: int = 1000


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _validate_config(cfg: RunConfig) -> RunConfig:
    if cfg.feature_set not in FEATURE_SETS:
        raise CliError(f"unknown feature set: {cfg.feature_set!r}")
    if cfg.target not in TARGET_BY_FLAG:
        raise CliError(
            f"unknown target: {cfg.target!r} "
            f"(choose from {', '.join(TARGET_BY_FLAG)})"
        )
    if cfg.family not in FAMILIES:
        raise CliError(f"unknown model family: {cfg.family!r}")
    if cfg.variant not in VARIANTS:
        raise CliError(f"unknown topic-score variant: {cfg.variant!r}")
    if cfg.prefix_k is not None and cfg.prefix_k < 1:
        raise CliError(f"--prefix-k must be >= 1, got {cfg.prefix_k}")
    if cfg.match_mode not in (WHOLE_UTTERANCE, WORD_BOUNDARY):
        raise CliError(f"unknown match mode: {cfg.match_mode!r}")
    if cfg.synth_preset not in SYNTH_PRESETS:
        raise CliError(f"unknown synth preset: {cfg.synth_preset!r}")
    if len(cfg.split) != 3:
        raise CliError("split must have three ratios")
    return cfg


def load_run_config(args: argparse.Namespace) -> RunConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    data: dict = {}
    if path:
        if not os.path.isfile(path):
            raise CliError(f"missing config file: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise CliError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(data, dict):
            raise CliError(f"config file {path} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise CliError(f"unknown config keys in {path}: {', '.join(unknown)}")

    simple = (
        "seed",
        "min_length",
        "feature_set",
        "prefix_k",
        "target",
        "family",
        "match_mode",
        "lexicon_dir",
        "variant",
        "synth_preset",
        "synth_n",
    )
    for key in simple:
        v = getattr(args, key, None)
        if v is not None:
            data[key] = v
    if getattr(args, "split", None) is not None:
        data["split"] = args.split

    hp = dict(data.get("hyperparameters") or {})
    for dest, v in vars(args).items():
        if dest.startswith(HP_DEST):
            hp[dest[len(HP_DEST):]] = v
    data["hyperparameters"] = hp

    if "split" in data:
        data["split"] = tuple(float(x) for x in data["split"])
    if "exclude_topics" in data:
        data["exclude_topics"] = tuple(data["exclude_topics"])
    try:
        cfg = RunConfig(**data)
    except TypeError as e:
        raise CliError(f"bad config: {e}")
    return _validate_config(cfg)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"missing {what}: {path}")
    return path


def _read_corpus(path: str):
    _require_file(path, "corpus file")
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh)


def _target_kind(cfg: RunConfig) -> str:
    return TARGET_BY_FLAG[cfg.target]


# ---------------------------------------------------------------- commands


def cmd_synth(cfg: RunConfig, args) -> int:
    corpus = generate(SYNTH_PRESETS[cfg.synth_preset](cfg.synth_n, seed=cfg.seed))
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
    corpus = _read_corpus(args.input)
    if cfg.lexicon_dir is not None:
        if not os.path.isdir(cfg.lexicon_dir):
            raise CliError(f"missing lexicon directory: {cfg.lexicon_dir}")
        tagger = load_lexicon_dir(cfg.lexicon_dir, match_mode=cfg.match_mode)
    else:
        tagger = default_tagger(match_mode=cfg.match_mode)
    tagged = tag_corpus(corpus, tagger, overwrite=args.overwrite)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(tagged, fh)
    n_tagged = int((tagged.sda != 0).sum())  # code 0 is the empty tag set
    print(f"tagged {len(tagged)} conversations ({n_tagged} exchanges carry tags)")
    return 0


def cmd_featurize(cfg: RunConfig, args) -> int:
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
    corpus = _read_corpus(args.input)
    report = score_topics(corpus, cfg.variant, exclude_topics=cfg.exclude_topics)
    if args.out:
        import csv as _csv

        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = _csv.writer(fh, lineterminator="\n")
            w.writerow(["topic", "raw_sum", "z_score", "config_hash"])
            for t, raw, z in zip(report.topics, report.raw_sums, report.z_scores):
                w.writerow([t, repr(raw), repr(z), config_hash(cfg)])
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
    spec = ModelSpec(
        family=cfg.family, hyperparameters=cfg.hyperparameters, seed=cfg.seed
    )
    return fit_and_report(
        spec, names, splits, _target_kind(cfg), label, feature_set, prefix_k,
        drop, cfg.seed,
    )


def cmd_train(cfg: RunConfig, args) -> int:
    names, splits = _load_feature_splits(args.features)
    # The test report is not written, so its labels need no sidecar.
    model, _ = _fit(cfg, names, splits, cfg.family, cfg.feature_set, cfg.prefix_k)
    save_model(model, args.model_out)
    print(
        f"trained {cfg.family} on {len(splits['train'].ids)} rows "
        f"(target {model.target.kind}) -> {args.model_out}"
    )
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
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
            write_reports_csv(fh, [report], config_hash(cfg))
    print(format_report_table([report]), end="")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
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
            write_reports_csv(fh, reports, config_hash(cfg))
    print(f"ablated: {', '.join(drop) or '(nothing)'}")
    print(format_report_table(reports), end="")
    return 0


def cmd_correlate(cfg: RunConfig, args) -> int:
    corpus = _read_corpus(args.input)
    report = correlate_metrics(corpus)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8", newline="") as fh:
            write_correlations_csv(fh, report, config_hash(cfg))
    print(format_correlations(report), end="")
    return 0


def cmd_export_tree(cfg: RunConfig, args) -> int:
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
    corpus = _read_corpus(args.input)
    os.makedirs(args.out_dir, exist_ok=True)
    labels, values = length_histogram(corpus)
    write_chart(
        os.path.join(args.out_dir, "length_hist"), labels, values,
        "Conversation length",
    )
    labels, values = rating_histogram(corpus)
    write_chart(
        os.path.join(args.out_dir, "rating_hist"), labels, values, "Ratings"
    )
    report = score_topics(corpus, cfg.variant, exclude_topics=cfg.exclude_topics)
    labels, values = topic_z_bars(report)
    write_chart(
        os.path.join(args.out_dir, "topic_z"), labels, values,
        f"Topic z-scores ({cfg.variant})",
    )
    print(f"wrote length_hist, rating_hist, topic_z to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- parser


def _common_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="JSON run-config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--min-length", dest="min_length", type=int)
    p.add_argument(
        "--split",
        type=lambda s: tuple(float(x) for x in s.split(",")),
        help="train,dev,test ratios (e.g. 0.8,0.1,0.1)",
    )
    p.add_argument("--feature-set", dest="feature_set", choices=list(FEATURE_SETS))
    p.add_argument("--target", choices=list(TARGET_BY_FLAG))
    p.add_argument("--prefix-k", dest="prefix_k", type=int)
    p.add_argument("--match-mode", dest="match_mode",
                   choices=[WORD_BOUNDARY, WHOLE_UTTERANCE])
    p.add_argument("--lexicon-dir", dest="lexicon_dir")
    p.add_argument("--variant", choices=list(VARIANTS))
    p.add_argument("--synth-preset", dest="synth_preset",
                   choices=list(SYNTH_PRESETS))
    p.add_argument("--n", dest="synth_n", type=int,
                   help="synthetic corpus size")
    return p


def _fit_parser() -> argparse.ArgumentParser:
    """--family and the hyperparameter flags, for the commands that fit.

    Every other command rejects them as usage errors, so no report hashes
    a family or hyperparameter that nothing fitted.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", choices=list(FAMILIES))

    # argparse names a converter in its error ("invalid gamma value: 'x'")
    def max_depth(text: str) -> int | None:
        depth = int(text)
        return None if depth < 0 else depth

    def gamma(text: str) -> str | float:
        return "scale" if text == "scale" else float(text)

    def hidden_sizes(text: str) -> list[int]:
        try:
            return [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated integers, got {text!r}"
            )

    def hp(flag, key=None, **kwargs):
        key = key or flag[2:].replace("-", "_")
        p.add_argument(flag, dest=HP_DEST + key, metavar=key.upper(),
                       default=argparse.SUPPRESS, **kwargs)

    hp("--lambda", type=float, help="ridge/lasso weight")
    hp("--max-depth", type=max_depth,
       help="tree/forest depth cap; negative means unbounded")
    hp("--min-leaf", type=int)
    hp("--n-trees", type=int)
    hp("--feat-frac", type=float)
    hp("--no-bootstrap", "bootstrap", action="store_const", const=False)
    hp("--C", type=float, help="SVR regularization")
    hp("--epsilon", type=float)
    hp("--gamma", type=gamma, help='"scale" or a positive number')
    hp("--max-iter", type=int)
    hp("--hidden", type=hidden_sizes, help="MLP hidden sizes, e.g. 100,50")
    hp("--lr", type=float)
    hp("--batch-size", type=int)
    hp("--max-epochs", type=int)
    hp("--patience", type=int)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    fitting = [common, _fit_parser()]
    parser = argparse.ArgumentParser(
        prog="convperf",
        description="Conversation performance modeling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", parents=[common],
                        help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("ingest", parents=[common],
                        help="validate, length-filter, and canonicalize a corpus")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("tag", parents=[common],
                        help="lexicon-tag user utterances")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--overwrite", action="store_true",
                    help="replace existing tags instead of unioning")
    sp.set_defaults(func=cmd_tag)

    sp = sub.add_parser("featurize", parents=[common],
                        help="split the corpus and extract features to CSV")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_featurize)

    sp = sub.add_parser("score-topics", parents=[common],
                        help="topic z-scores over a rated corpus")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_score_topics)

    sp = sub.add_parser("train", parents=fitting,
                        help="fit one model from a feature CSV")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model-out", dest="model_out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", parents=[common],
                        help="test-split metrics for a trained model")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--report-out", dest="report_out")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("ablate", parents=fitting,
                        help="refit with features removed and compare")
    sp.add_argument("--features", required=True)
    sp.add_argument("--drop", required=True,
                    help="comma-separated feature names to remove")
    sp.add_argument("--report-out", dest="report_out")
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("correlate", parents=[common],
                        help="pairwise metric correlations")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--report-out", dest="report_out")
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("export-tree", parents=[common],
                        help="render a tree model as DOT graph text")
    sp.add_argument("--model", required=True)
    sp.add_argument("--depth-limit", dest="depth_limit", type=int)
    sp.add_argument("--tree-index", dest="tree_index", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_export_tree)

    sp = sub.add_parser("plot", parents=[common],
                        help="emit SVG/CSV summary charts")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args)
        return args.func(cfg, args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CorpusError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
