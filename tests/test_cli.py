import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import convperf
from convperf.cli import (
    COMMAND_OPTIONS,
    CONFIG_ENV,
    HP_DEST,
    OPTIONS,
    CliError,
    RunConfig,
    build_parser,
    config_hash,
    gamma,
    hidden_sizes,
    load_run_config,
    main,
    ratios,
    read_fields,
)
from convperf.corpus import Corpus, parse_corpus, split_corpus
from convperf.experiment import (
    GridCell,
    ablate,
    fit_spec,
    run_grid,
    write_reports_csv,
)
from convperf.features import FeatureSchema
from convperf.regressors import (
    CAPPED_LENGTH,
    FAMILIES,
    ConvergenceError,
    ModelSpec,
    TargetKind,
    load_model,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full file-based run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = SimpleNamespace(
        root=root,
        raw=root / "raw.jsonl",
        kept=root / "kept.jsonl",
        tagged=root / "tagged.jsonl",
        feats=root / "features.csv",
        model=root / "ridge.json",
    )
    assert main(["synth", "--out", str(paths.raw), "--n", "240", "--seed", "0"]) == 0
    assert main(["ingest", "--in", str(paths.raw), "--out", str(paths.kept)]) == 0
    assert main(["tag", "--in", str(paths.kept), "--out", str(paths.tagged)]) == 0
    assert (
        main(
            [
                "featurize",
                "--in", str(paths.tagged),
                "--out", str(paths.feats),
                "--seed", "0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--features", str(paths.feats),
                "--model-out", str(paths.model),
                "--family", "ridge",
                "--lambda", "1.0",
                "--target", "length",
                "--seed", "0",
            ]
        )
        == 0
    )
    return paths


def test_pipeline_artifacts(pipeline):
    raw_lines = pipeline.raw.read_text().splitlines()
    kept_lines = pipeline.kept.read_text().splitlines()
    assert len(raw_lines) == 240
    assert 0 < len(kept_lines) < 240
    assert pipeline.feats.read_text().startswith("id,")

    model = load_model(pipeline.model)
    assert model.spec.family == "ridge"
    assert model.spec.hyperparameters == {"lambda": 1.0}
    assert model.target.kind == "capped_length"
    assert model.feature_names == FeatureSchema().names("independent")
    assert model.standardizer is not None


def test_corpus_stages_build_no_exchange_objects(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Conversation or Exchange view was built")

    monkeypatch.setattr(Corpus, "_conversation", refuse)
    monkeypatch.setattr(Corpus, "_exchange", refuse)
    raw, kept, tagged = (tmp_path / f"{n}.jsonl" for n in ("raw", "kept", "tagged"))
    assert main(["synth", "--out", str(raw), "--n", "60", "--seed", "1"]) == 0
    assert main(["ingest", "--in", str(raw), "--out", str(kept)]) == 0
    assert main(["tag", "--in", str(kept), "--out", str(tagged)]) == 0
    features = str(tmp_path / "features.csv")
    assert main(["featurize", "--in", str(tagged), "--out", features]) == 0


# Runs one command in a fresh interpreter, then prints the convperf
# modules it loaded.
_LOADED = """
import sys
from convperf.cli import main
code = main(sys.argv[1:])
print(" ".join(m for m in sys.modules if m.split(".")[0] == "convperf"))
sys.exit(code)
"""


def test_corpus_stages_import_only_what_they_run(tmp_path):
    src = str(Path(convperf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    loaded = {}
    for argv in (["synth", "--out", "raw.jsonl", "--n", "30", "--seed", "1"],
                 ["ingest", "--in", "raw.jsonl", "--out", "kept.jsonl"],
                 ["tag", "--in", "kept.jsonl", "--out", "tagged.jsonl"],
                 ["featurize", "--in", "tagged.jsonl", "--out", "features.csv"]):
        run = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded[argv[0]] = set(run.stdout.splitlines()[-1].split())
    assert loaded["ingest"] == {"convperf", "convperf.cli", "convperf.corpus"}
    fitting = {"convperf.experiment", "convperf.regressors", "convperf.plots"}
    for command, modules in loaded.items():
        assert not modules & fitting, (command, sorted(modules & fitting))


def test_evaluate_is_byte_deterministic(pipeline):
    rep1 = pipeline.root / "rep1.csv"
    rep2 = pipeline.root / "rep2.csv"
    argv = [
        "evaluate",
        "--features", str(pipeline.feats),
        "--model", str(pipeline.model),
    ]
    assert main(argv + ["--report-out", str(rep1)]) == 0
    assert main(argv + ["--report-out", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    lines = rep1.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("model,target,")
    r2 = float(lines[1].split(",")[6])
    assert np.isfinite(r2)


def test_evaluate_prints_table(pipeline, capsys):
    assert (
        main(
            [
                "evaluate",
                "--features", str(pipeline.feats),
                "--model", str(pipeline.model),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "model" in out and "ridge" in out and "capped_length" in out


def test_ablate_reports_base_and_ablated(pipeline):
    rep = pipeline.root / "ablate.csv"
    assert (
        main(
            [
                "ablate",
                "--features", str(pipeline.feats),
                "--drop", "length_median",
                "--report-out", str(rep),
                "--family", "ridge",
                "--lambda", "1.0",
                "--target", "length",
            ]
        )
        == 0
    )
    lines = rep.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("ridge,")
    assert lines[2].startswith("ridge-ablated,")


def test_ablate_unknown_feature(pipeline, capsys):
    assert (
        main(
            [
                "ablate",
                "--features", str(pipeline.feats),
                "--drop", "no_such_feature",
            ]
        )
        == 1
    )
    assert "unknown feature names" in capsys.readouterr().err


def test_train_tree_then_export(pipeline, capsys):
    model_p = pipeline.root / "tree.json"
    dot_p = pipeline.root / "tree.dot"
    assert (
        main(
            [
                "train",
                "--features", str(pipeline.feats),
                "--model-out", str(model_p),
                "--family", "tree",
                "--max-depth", "5",
                "--min-leaf", "2",
                "--target", "length",
            ]
        )
        == 0
    )
    model = load_model(model_p)
    assert model.spec.hyperparameters == {"max_depth": 5, "min_leaf": 2}

    assert main(["export-tree", "--model", str(model_p), "--out", str(dot_p)]) == 0
    dot = dot_p.read_text()
    assert dot.startswith("digraph tree {")
    assert " <= " in dot

    capsys.readouterr()
    assert main(["export-tree", "--model", str(model_p)]) == 0
    assert capsys.readouterr().out.startswith("digraph tree {")

    assert (
        main(
            [
                "export-tree",
                "--model", str(model_p),
                "--depth-limit", "0",
                "--out", str(dot_p),
            ]
        )
        == 0
    )
    assert "(depth limit)" in dot_p.read_text()


def test_train_max_depth_negative_is_unbounded(pipeline):
    model_p = pipeline.root / "tree_unbounded.json"
    assert (
        main(
            [
                "train",
                "--features", str(pipeline.feats),
                "--model-out", str(model_p),
                "--family", "tree",
                "--max-depth", "-1",
                "--target", "length",
            ]
        )
        == 0
    )
    assert load_model(model_p).spec.hyperparameters["max_depth"] is None


def test_export_tree_rejects_linear_model(pipeline, capsys):
    assert main(["export-tree", "--model", str(pipeline.model)]) == 1
    assert "cannot export" in capsys.readouterr().err


def test_evaluate_missing_model(pipeline, capsys):
    missing = pipeline.root / "nope.json"
    assert (
        main(
            [
                "evaluate",
                "--features", str(pipeline.feats),
                "--model", str(missing),
            ]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "missing trained model" in err and "nope.json" in err


def test_missing_corpus_file(tmp_path, capsys):
    assert main(["correlate", "--in", str(tmp_path / "ghost.jsonl")]) == 1
    assert "missing corpus file" in capsys.readouterr().err


def test_evaluate_schema_mismatch(pipeline, capsys):
    dependent_feats = pipeline.root / "features_dependent.csv"
    assert (
        main(
            [
                "featurize",
                "--in", str(pipeline.tagged),
                "--out", str(dependent_feats),
                "--feature-set", "dependent",
                "--seed", "0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                "--features", str(dependent_feats),
                "--model", str(pipeline.model),
            ]
        )
        == 1
    )
    assert "different feature schema" in capsys.readouterr().err


def featurize_k10(pipeline, out, feature_set):
    assert main(["featurize", "--in", str(pipeline.tagged), "--out", str(out),
                 "--feature-set", feature_set, "--prefix-k", "10", "--seed", "0"]) == 0
    return out


def test_report_provenance_comes_from_featurize(pipeline, tmp_path):
    feats = featurize_k10(pipeline, tmp_path / "features.csv", "dependent")
    model = tmp_path / "ridge.json"
    rep = tmp_path / "report.csv"
    assert main(["train", "--features", str(feats), "--model-out", str(model),
                 "--lambda", "1.0", "--target", "length"]) == 0
    assert main(["evaluate", "--features", str(feats), "--model", str(model),
                 "--report-out", str(rep)]) == 0
    row = rep.read_text().splitlines()[1].split(",")
    assert row[:4] == ["ridge", "capped_length", "dependent", "10"]


def test_evaluate_needs_the_featurize_sidecar(pipeline, tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    bare.write_bytes(pipeline.feats.read_bytes())
    assert main(["evaluate", "--features", str(bare),
                 "--model", str(pipeline.model)]) == 1
    err = capsys.readouterr().err
    assert "missing feature CSV sidecar" in err and "bare.csv.json" in err


@pytest.mark.parametrize(
    "flags",
    [["--family", "lasso", "--lambda", "1e9"], ["--family", "tree", "--max-depth", "0"]],
    ids=["lasso", "tree"],
)
def test_constant_prediction_model_is_evaluable(pipeline, tmp_path, capsys, flags):
    model = tmp_path / "constant.json"
    rep = tmp_path / "report.csv"
    assert main(["train", "--features", str(pipeline.feats), "--model-out",
                 str(model), "--target", "length", *flags]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--features", str(pipeline.feats), "--model",
                 str(model), "--report-out", str(rep)]) == 0
    row = rep.read_text().splitlines()[1].split(",")
    assert row[0] == flags[1]
    assert np.isfinite(float(row[5])) and np.isfinite(float(row[6]))
    assert row[7:9] == ["", ""]
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-1] == "n/a"
    assert out[2] == f"{flags[1]}: r is n/a, every prediction is the same value"


@pytest.mark.parametrize(
    "family,hp",
    [("ridge", {"lambda": 1.0}),
     ("forest", {"n_trees": 5, "max_depth": 4, "min_leaf": 2})],
    ids=["ridge", "forest"],
)
def test_cli_and_library_paths_report_the_same_rows(pipeline, tmp_path, family, hp):
    feats = featurize_k10(pipeline, tmp_path / "features.csv", "dependent")
    flags = ["--family", family, "--target", "length"]
    for key, value in hp.items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    model = tmp_path / "model.json"
    rep = tmp_path / "report.csv"
    ablated = tmp_path / "ablated.csv"
    assert main(["train", "--features", str(feats), "--model-out", str(model),
                 *flags]) == 0
    assert main(["evaluate", "--features", str(feats), "--model", str(model),
                 "--report-out", str(rep)]) == 0
    assert main(["ablate", "--features", str(feats), "--drop", "length_median",
                 "--report-out", str(ablated), *flags]) == 0

    with open(pipeline.tagged, encoding="utf-8") as fh:
        corpus = split_corpus(parse_corpus(fh), seed=0)
    spec = ModelSpec(family, hp, seed=0)
    cell = GridCell(spec, "dependent", TargetKind(CAPPED_LENGTH), prefix_k=10)
    ablated_cell = replace(cell, name=f"{family}-ablated")
    (base,) = run_grid([cell], corpus, seed=0)
    dropped = ablate(ablated_cell, ("length_median",), corpus, seed=0)

    def rows(reports):
        text = io.StringIO()
        write_reports_csv(text, reports)
        return [line.rsplit(",", 1)[0] for line in text.getvalue().splitlines()]

    def cli_rows(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert cli_rows(rep) == rows([base.report])
    assert cli_rows(ablated) == rows([base.report, dropped.report])


def test_train_rejects_a_non_finite_feature_cell(pipeline, tmp_path, capsys):
    lines = pipeline.feats.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(cells[0]) in err and repr(header[2]) in err
    assert not model_out.exists()


def edited_feature_csv(pipeline, tmp_path, edit):
    """Copy of the pipeline's feature CSV with ``edit`` applied to row 3's cells."""
    lines = pipeline.feats.read_text().splitlines()
    cells = lines[3].split(",")
    edit(cells)
    lines[3] = ",".join(cells)
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, cells[0]


def test_train_rejects_a_row_with_a_missing_cell(pipeline, tmp_path, capsys):
    bad, row_id = edited_feature_csv(pipeline, tmp_path, lambda cells: cells.pop(2))
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(row_id) in err and "cells" in err
    assert not model_out.exists()


@pytest.mark.parametrize(
    "column, offset", [("rating", -3), ("capped_length", -2)], ids=["rating", "length"]
)
def test_train_rejects_a_non_integer_target_cell(
    pipeline, tmp_path, capsys, column, offset
):
    def edit(cells):
        cells[offset] = "4.5"

    bad, row_id = edited_feature_csv(pipeline, tmp_path, edit)
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(row_id) in err and repr(column) in err and "not an integer" in err
    assert not model_out.exists()


def test_train_rejects_a_non_numeric_feature_cell(pipeline, tmp_path, capsys):
    def edit(cells):
        cells[2] = "abc"

    bad, row_id = edited_feature_csv(pipeline, tmp_path, edit)
    header = pipeline.feats.read_text().splitlines()[0].split(",")
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(row_id) in err and repr(header[2]) in err and "not a number" in err
    assert not model_out.exists()


def test_train_rejects_an_unknown_split_label(pipeline, tmp_path, capsys):
    def edit(cells):
        cells[-1] = "holdout"

    bad, _ = edited_feature_csv(pipeline, tmp_path, edit)
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    assert "unknown split 'holdout'" in capsys.readouterr().err
    assert not model_out.exists()


@pytest.mark.parametrize("command, source", [("ingest", "raw"), ("tag", "kept")])
def test_truncated_last_jsonl_line_is_rejected(
    pipeline, tmp_path, capsys, command, source
):
    lines = getattr(pipeline, source).read_text().splitlines()
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
    out = tmp_path / "out.jsonl"
    assert main([command, "--in", str(cut), "--out", str(out)]) == 1
    assert f"line {len(lines)}: invalid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_tag_rejects_a_lexicon_dir_without_lexicons(pipeline, tmp_path, capsys):
    empty = tmp_path / "lexicons"
    empty.mkdir()
    (empty / "notes.md").write_text("not a lexicon\n")
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out)]
    assert main(argv + ["--lexicon-dir", str(empty)]) == 1
    assert "no lexicon files" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_outputs(pipeline, capsys):
    rep = pipeline.root / "corr.csv"
    assert (
        main(["correlate", "--in", str(pipeline.tagged), "--report-out", str(rep)])
        == 0
    )
    lines = rep.read_text().splitlines()
    assert lines[0] == "metric_a,metric_b,n,r,p_value,config_hash"
    assert len(lines) == 6
    assert "rating/length" in capsys.readouterr().out


def test_score_topics_outputs(pipeline, capsys):
    out_csv = pipeline.root / "topics.csv"
    assert (
        main(["score-topics", "--in", str(pipeline.tagged), "--out", str(out_csv)])
        == 0
    )
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "topic,raw_sum,z_score,config_hash"
    assert len(lines) > 1
    assert "intro" not in {l.split(",")[0] for l in lines[1:]}
    assert "topic scores (F1)" in capsys.readouterr().out


def test_plot_outputs(pipeline):
    out_dir = pipeline.root / "plots"
    assert main(["plot", "--in", str(pipeline.tagged), "--out-dir", str(out_dir)]) == 0
    for stem in ("length_hist", "rating_hist", "topic_z"):
        assert (out_dir / f"{stem}.svg").read_text().lstrip().startswith("<svg")
        assert (out_dir / f"{stem}.csv").exists()


def test_synth_preset_flag(tmp_path):
    out = tmp_path / "det.jsonl"
    assert (
        main(
            [
                "synth",
                "--out", str(out),
                "--n", "50",
                "--synth-preset", "deterministic",
            ]
        )
        == 0
    )
    assert len(out.read_text().splitlines()) == 50


def legacy_corpus_line():
    return json.dumps(
        {
            "id": "x1",
            "rating": 4,
            "exchanges": [
                {
                    "topic": "intro",
                    "rg": "intro",
                    "user": "hello there",
                    "system": "hi",
                    "midas": [],
                    "sda": [],
                },
                {
                    "topic": "movies",
                    "rg": "fact",
                    "user": "that's so cool",
                    "system": "ok",
                    "midas": [],
                    "sda": ["handmade"],
                },
            ],
        }
    )


def test_tag_union_versus_overwrite(tmp_path):
    src = tmp_path / "src.jsonl"
    src.write_text(legacy_corpus_line() + "\n")

    union_out = tmp_path / "union.jsonl"
    assert main(["tag", "--in", str(src), "--out", str(union_out)]) == 0
    rec = json.loads(union_out.read_text())
    assert rec["exchanges"][1]["sda"] == ["handmade", "sda_compliment"]

    over_out = tmp_path / "over.jsonl"
    assert main(["tag", "--in", str(src), "--out", str(over_out), "--overwrite"]) == 0
    rec = json.loads(over_out.read_text())
    assert rec["exchanges"][1]["sda"] == ["sda_compliment"]


# ---------------------------------------------------------------- config


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_defaults_without_config():
    assert load_run_config(Namespace(command="train")) == RunConfig()


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path, {"seed": 1, "family": "lasso"})
    cfg = load_run_config(Namespace(command="train", config=path, seed=2))
    assert cfg.seed == 2
    assert cfg.family == "lasso"
    assert load_run_config(Namespace(command="train", config=path)).seed == 1


def test_env_names_default_config(tmp_path, monkeypatch):
    env_path = write_config(tmp_path, {"seed": 9}, "env.json")
    monkeypatch.setenv(CONFIG_ENV, env_path)
    assert load_run_config(Namespace(command="synth")).seed == 9

    flag_path = write_config(tmp_path, {"seed": 4}, "flag.json")
    assert load_run_config(Namespace(command="synth", config=flag_path)).seed == 4


def test_unknown_config_key(tmp_path):
    path = write_config(tmp_path, {"seeed": 3})
    with pytest.raises(CliError, match="unknown config keys"):
        load_run_config(Namespace(command="synth", config=path))


def test_config_file_problems(tmp_path):
    with pytest.raises(CliError, match="missing config file"):
        load_run_config(Namespace(command="synth", config=str(tmp_path / "gone.json")))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(CliError, match="not valid JSON"):
        load_run_config(Namespace(command="synth", config=str(bad)))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(CliError, match="JSON object"):
        load_run_config(Namespace(command="synth", config=str(arr)))


def subcommands():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices


def parse_train(*flags):
    return build_parser().parse_args(
        ["train", "--features", "f.csv", "--model-out", "m.json", *flags]
    )


def test_hyperparameter_flag_conversion():
    cfg = load_run_config(
        parse_train("--lambda", "2.5", "--max-depth", "-1", "--gamma", "scale",
                    "--hidden", "8,4")
    )
    assert cfg.hyperparameters == {
        "lambda": 2.5,
        "max_depth": None,
        "gamma": "scale",
        "hidden": [8, 4],
    }
    cfg = load_run_config(
        parse_train("--max-depth", "4", "--gamma", "0.25", "--no-bootstrap")
    )
    assert cfg.hyperparameters == {
        "max_depth": 4,
        "gamma": 0.25,
        "bootstrap": False,
    }


def test_hidden_flag_rejects_garbage(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_train("--hidden", "eight")
    assert exc.value.code == 2
    assert "--hidden: expects comma-separated integers" in capsys.readouterr().err


def test_config_hyperparameters_merge_with_flags(tmp_path):
    path = write_config(
        tmp_path, {"hyperparameters": {"lambda": 9.0, "min_leaf": 3}}
    )
    cfg = load_run_config(parse_train("--config", path, "--lambda", "1.0"))
    assert cfg.hyperparameters == {"lambda": 1.0, "min_leaf": 3}


def test_every_hyperparameter_flag_reaches_a_fit_function():
    flags = [
        (a.option_strings[0], a.nargs == 0)
        for a in subcommands()["train"]._actions
        if a.dest.startswith(HP_DEST)
    ]
    assert len(flags) == 15
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(10, 2)), rng.normal(size=10)

    def accepted(family, key, value):
        try:
            fit_spec(ModelSpec(family, {key: value}), X, y)
        except ValueError as e:
            return "has no hyperparameter" not in str(e)
        except ConvergenceError:  # max_iter 1 reached SMO and ran out
            pass
        return True

    for flag, bare in flags:
        args = parse_train(flag, *([] if bare else ["1"]))
        ((key, value),) = load_run_config(args).hyperparameters.items()
        assert any(accepted(f, key, value) for f in FAMILIES), flag


def test_config_key_no_family_takes_is_rejected(pipeline, tmp_path, capsys):
    path = write_config(tmp_path, {"hyperparameters": {"max_dept": 2}})
    model_out = tmp_path / "tree.json"
    assert main(["train", "--features", str(pipeline.feats), "--config", path,
                 "--family", "tree", "--target", "length",
                 "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert "tree has no hyperparameter 'max_dept' (it takes max_depth, min_leaf)" in err
    assert not model_out.exists()


def test_flag_of_another_family_is_rejected(pipeline, tmp_path, capsys):
    model_out = tmp_path / "ridge.json"
    assert main(["train", "--features", str(pipeline.feats), "--family", "ridge",
                 "--n-trees", "10", "--model-out", str(model_out)]) == 1
    assert "ridge has no hyperparameter 'n_trees'" in capsys.readouterr().err
    assert not model_out.exists()


def test_evaluate_rejects_family_and_hyperparameter_flags(pipeline, tmp_path, capsys):
    fit_flags = [
        (a.option_strings[0], a.nargs == 0)
        for a in subcommands()["train"]._actions
        if a.dest == "family" or a.dest.startswith(HP_DEST)
    ]
    assert len(fit_flags) == 16
    report = tmp_path / "report.csv"
    argv = ["evaluate", "--features", str(pipeline.feats), "--model", str(pipeline.model),
            "--report-out", str(report)]
    for flag, bare in fit_flags:
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, *([] if bare else ["ridge" if flag == "--family" else "3"])])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not report.exists()
    # Without them the report hashes the fields evaluate reads: none.
    assert main(argv) == 0
    rows = report.read_text().splitlines()
    header = rows[0].split(",")
    assert {r.split(",")[header.index("config_hash")] for r in rows[1:]} == {"44136fa355b3678a"}


def test_train_and_evaluate_reject_an_empty_test_split(pipeline, tmp_path, capsys):
    lines = pipeline.feats.read_text().splitlines()
    feats = tmp_path / "features.csv"
    feats.write_text("\n".join(
        [lines[0]] + [re.sub(r",test$", ",dev", line) for line in lines[1:]]
    ) + "\n")
    sidecar = Path(str(pipeline.feats) + ".json").read_text()
    Path(str(feats) + ".json").write_text(sidecar)
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(feats), "--model-out", str(model_out)]) == 1
    assert "test split is empty" in capsys.readouterr().err
    assert not model_out.exists()
    assert main(["evaluate", "--features", str(feats), "--model",
                 str(pipeline.model)]) == 1
    assert "test split is empty" in capsys.readouterr().err


def required_argv(command):
    """Placeholder values for the arguments ``command`` requires."""
    actions = subcommands()[command]._actions
    return [tok for a in actions if a.required for tok in (a.option_strings[0], "x")]


@pytest.mark.parametrize(
    "ns,msg",
    [
        (Namespace(split=(0.5, 0.5)), "three ratios"),
        (Namespace(prefix_k=0), "--prefix-k"),
        (Namespace(target="zzz"), "unknown target"),
        (Namespace(feature_set="zzz"), "unknown feature set"),
        (Namespace(family="zzz"), "unknown model family"),
        (Namespace(variant="F9"), "variant"),
        (Namespace(match_mode="fuzzy"), "match mode"),
        (Namespace(synth_preset="zzz"), "synth preset"),
        (Namespace(prefix_k="10"), "prefix_k (--prefix-k): expects an integer >= 1, got '10'"),
        (Namespace(seed="3"), "seed (--seed): expects an integer >= 0, got '3'"),
        (Namespace(seed=True), "seed (--seed): expects an integer >= 0, got True"),
        (Namespace(seed=-1), "seed (--seed): expects an integer >= 0, got -1"),
        (Namespace(hyperparameters={"max_depth": "4"}),
         "hyperparameters.max_depth (--max-depth): expects an integer, got '4'"),
        (Namespace(hyperparameters={"n_trees": False}),
         "hyperparameters.n_trees (--n-trees): expects an integer, got False"),
        (Namespace(min_length=2.5), "min_length (--min-length): expects an integer, got 2.5"),
        (Namespace(exclude_topics="intro"),
         "exclude_topics: expects a list of topic names, got 'intro'"),
        (Namespace(hyperparameters=[]), "hyperparameters: expects a JSON object, got []"),
    ],
)
def test_config_validation(tmp_path, capsys, ns, msg):
    """A config file holding ``ns`` fails, naming the key, in a command that reads it."""
    ((key, value),) = vars(ns).items()
    command = next(c for c in COMMAND_OPTIONS if key in read_fields(c))
    path = write_config(tmp_path, {key: value})
    assert main([command, *required_argv(command), "--config", path]) == 1
    assert msg in capsys.readouterr().err


def test_split_must_have_three_ratios(capsys):
    # The flag's value passes the check a config-file value does.
    assert main(["featurize", *required_argv("featurize"), "--split", "0.5,0.5"]) == 1
    assert "split (--split): expects three ratios, got (0.5, 0.5)" in capsys.readouterr().err


def test_split_flag_rejects_garbage(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["featurize", *required_argv("featurize"),
                                   "--split", "a,b"])
    assert exc.value.code == 2
    assert "--split: invalid ratios value: 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_lists_each_run_option_and_its_choices(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = {line.split()[0] for line in text.splitlines() if line.startswith("  --")}
    for opt in (OPTIONS[d] for d in COMMAND_OPTIONS[command] if OPTIONS[d].flag):
        assert opt.flag in listed, (command, opt.flag)
        if opt.choices:
            assert f"  {opt.flag} {{{','.join(opt.choices)}}}" in text, (command, opt.flag)
            assert getattr(RunConfig(), opt.dest) in opt.choices, opt.dest


def test_config_hash_stability():
    a = config_hash(RunConfig(), "train")
    assert a == config_hash(RunConfig(), "train")
    assert a != config_hash(RunConfig(seed=1), "train")
    # train reads neither the feature set nor the topic-score variant
    assert a == config_hash(RunConfig(feature_set="dependent", variant="F2"), "train")
    assert len(a) == 16
    int(a, 16)


_FIT_FLAGS = {
    "--seed", "--target", "--family", "--lambda", "--max-depth", "--min-leaf",
    "--n-trees", "--feat-frac", "--no-bootstrap", "--C", "--epsilon", "--gamma",
    "--max-iter", "--hidden", "--lr", "--batch-size", "--max-epochs", "--patience",
}
ACCEPTED_FLAGS = {
    "synth": {"--seed", "--synth-preset", "--n"},
    "ingest": {"--min-length"},
    "tag": {"--match-mode", "--lexicon-dir"},
    "featurize": {"--seed", "--split", "--feature-set", "--prefix-k"},
    "score-topics": {"--variant"},
    "train": _FIT_FLAGS,
    "evaluate": set(),
    "ablate": _FIT_FLAGS,
    "correlate": set(),
    "export-tree": set(),
    "plot": {"--variant"},
}
# Flag text for each reader, never an option's default.
_SAMPLE_TEXT = {int: "3", float: "0.5", str: "lexicons", ratios: "0.6,0.2,0.2",
                gamma: "0.25", hidden_sizes: "4,2"}


def sample_flag(opt):
    """argv setting ``opt`` to a value other than its default."""
    if opt.parse is None:
        return [opt.flag]
    default = getattr(RunConfig(), opt.dest, None)
    return [opt.flag, next((c for c in opt.choices if c != default), None)
            or _SAMPLE_TEXT[opt.parse]]


def test_each_command_takes_and_hashes_only_the_run_options_it_reads(tmp_path, capsys):
    parser = build_parser()
    accepted = {command: set() for command in subcommands()}
    file_values = {"exclude_topics": []}  # a config-file value per option
    for command in subcommands():
        base = [command, *required_argv(command)]
        default = config_hash(load_run_config(parser.parse_args(base)), command)
        for opt in (o for o in OPTIONS.values() if o.flag):
            argv = base + sample_flag(opt)
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                err = capsys.readouterr().err  # "--n" is not train's "--n-trees"
                assert f"unrecognized arguments: {opt.flag}" in err, err
                continue
            accepted[command].add(opt.flag)
            assert config_hash(load_run_config(args), command) != default, argv
            file_values[opt.dest] = getattr(args, opt.dest)
        try:
            parser.parse_args(base + ["--config", "run.json"])
            has_config = True
        except SystemExit as exc:
            assert exc.code == 2
            has_config = False
        assert has_config == bool(accepted[command]), command
        # No flag of the command may be abbreviated.
        actions = subcommands()[command]._actions
        flags = {f for a in actions for f in a.option_strings}
        for action in actions:
            opt = next((o for o in OPTIONS.values() if o.flag in action.option_strings), None)
            value = sample_flag(opt)[1:] if opt else [] if action.nargs == 0 else ["3"]
            for flag in (f for f in action.option_strings if f.startswith("--")):
                if not isinstance(action, argparse._HelpAction):
                    parser.parse_args(base + [flag, *value])
                for prefix in (flag[:end] for end in range(3, len(flag))):
                    if prefix not in flags:
                        with pytest.raises(SystemExit) as exc:
                            parser.parse_args(base + [prefix, *value])
                        assert exc.value.code == 2, (command, prefix)
                        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--hel"])
    assert exc.value.code == 2
    assert accepted == ACCEPTED_FLAGS
    # 12 options on 11 commands and 16 more on train and ablate were 164.
    assert sum(len(f) + bool(f) for f in accepted.values()) == 56

    # The same values from a config file are read and hashed by the commands
    # that take the flag, and ignored by the others.
    reading = {**ACCEPTED_FLAGS, "score-topics": {"--variant", "exclude_topics"},
               "plot": {"--variant", "exclude_topics"}}
    for dest, value in file_values.items():
        opt, key = OPTIONS[dest], dest.removeprefix(HP_DEST)
        data = {"hyperparameters": {key: value}} if key != dest else {key: value}
        path = write_config(tmp_path, data)
        for command in subcommands():
            cfg = load_run_config(Namespace(command=command, config=path))
            moved = config_hash(cfg, command) != config_hash(RunConfig(), command)
            assert moved == ((opt.flag or dest) in reading[command]), (command, data)
    # Nor does a command check the values of keys it ignores.
    others = write_config(tmp_path, {"split": "bad", "hyperparameters": 3})
    assert load_run_config(Namespace(command="synth", config=others)) == RunConfig()


ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "src/convperf/data/lexicons/README.md"]


def documented_commands(text):
    """Every `convperf ...` command in a document, as an argv list.

    Commands are lines of a code block (joined over trailing backslashes)
    or inline code spans.
    """
    commands = re.findall(r"`convperf ([^`]+)`", text)
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if not line.startswith("convperf "):
            continue
        while line.endswith("\\"):
            line = line[:-1] + next(lines).strip()
        commands.append(line[len("convperf "):])
    return [shlex.split(c) for c in commands]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_documented_command_lines_parse(doc):
    commands = documented_commands(doc.read_text(encoding="utf-8"))
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc.name} documents a command that does not parse: "
                        f"convperf {shlex.join(argv)}")
