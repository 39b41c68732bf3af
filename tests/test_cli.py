import argparse
import gc
import io
import json
import logging
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import convperf
import convperf.experiment as experiment
import convperf.synth
from convperf.cli import (
    COMMAND_OPTIONS,
    CONFIG_ENV,
    HP_DEST,
    OPTIONS,
    CliError,
    RunConfig,
    _load_features,
    build_parser,
    config_hash,
    gamma,
    hidden_sizes,
    load_run_config,
    main,
    ratios,
    read_fields,
)
from convperf.corpus import SPLIT_NAMES, Corpus, parse_corpus, split_corpus
from convperf.experiment import (
    GridCell,
    fit_spec,
    run_grid,
    take,
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

from conftest import UNDECODABLE_IDS, UNDECODABLE_LINES, record


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
                 ["featurize", "--in", "tagged.jsonl", "--out", "features.csv"],
                 ["score-topics", "--in", "tagged.jsonl", "--variant", "F3",
                  "--out", "topics.csv"]):
        run = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded[argv[0]] = set(run.stdout.splitlines()[-1].split())
    assert loaded["ingest"] == {"convperf", "convperf.cli", "convperf.corpus"}
    assert loaded["score-topics"] == loaded["ingest"] | {"convperf.topicscore"}
    fitting = {"convperf.experiment", "convperf.regressors", "convperf.plots"}
    for command, modules in loaded.items():
        assert not modules & fitting, (command, sorted(modules & fitting))


def test_main_freezes_the_import_heap_and_keeps_collecting(pipeline, tmp_path):
    """What the imports left is frozen, so the collection at exit skips it;
    collection stays on, and a cycle made after main is still reclaimed."""
    class Node:
        pass

    gc.unfreeze()
    out = tmp_path / "kept.jsonl"
    assert main(["ingest", "--in", str(pipeline.raw), "--out", str(out)]) == 0
    assert gc.get_freeze_count() > 0
    assert gc.isenabled()
    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


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


def test_ablate_refuses_an_unknown_name_before_a_base_fit_that_fails(
    pipeline, tmp_path, capsys
):
    """ridge at lambda 0 refuses the pipeline's rank-deficient design; a
    mistyped --drop is still named, and no report is written."""
    report = tmp_path / "report.csv"
    argv = ["ablate", "--features", str(pipeline.feats), "--lambda", "0",
            "--report-out", str(report)]
    assert main([*argv, "--drop", "length_median"]) == 1
    assert "singular least-squares system" in capsys.readouterr().err
    assert main([*argv, "--drop", "length_median,lenght_median"]) == 1
    assert capsys.readouterr().err == "error: unknown feature names: lenght_median\n"
    assert not report.exists()


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


def test_export_tree_rejects_a_negative_depth_limit(model_files, tmp_path, capsys):
    dot_p = tmp_path / "tree.dot"
    argv = ["export-tree", "--model", str(model_files["tree"]),
            "--depth-limit", "-1", "--out", str(dot_p)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: depth_limit must be >= 0, got -1\n"
    assert not dot_p.exists()


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


def test_train_needs_the_featurize_sidecar(pipeline, tmp_path, capsys):
    """train refuses the CSV that evaluate and ablate would refuse, so it
    saves no model that they could not score."""
    bare = tmp_path / "bare.csv"
    bare.write_bytes(pipeline.feats.read_bytes())
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bare), "--lambda", "1",
                 "--model-out", str(model_out)]) == 1
    assert capsys.readouterr().err == f"error: missing feature CSV sidecar: {bare}.json\n"
    assert not model_out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
@pytest.mark.parametrize(
    "sidecar,key",
    [
        ({"feature_set": "dependent", "prefix_k": None}, "feature_set"),
        ({"feature_set": "dependent", "prefix_k": "banana"}, "prefix_k"),
        ({"feature_set": "independent", "prefix_k": 0}, "prefix_k"),
        ({"feature_set": "independent", "prefix_k": True}, "prefix_k"),
        ({"feature_set": "bogus", "prefix_k": 0}, "feature_set"),
    ],
    ids=["other-columns", "text-window", "zero-window", "bool-window", "unknown-set"],
)
def test_a_sidecar_that_does_not_describe_its_csv_is_refused(
    pipeline, tmp_path, capsys, command, sidecar, key
):
    feats = tmp_path / "features.csv"
    feats.write_bytes(pipeline.feats.read_bytes())  # independent columns
    side = tmp_path / "features.csv.json"
    side.write_text(json.dumps(sidecar))
    out = tmp_path / "out"
    args = {"train": ["--lambda", "1", "--model-out", str(out)],
            "evaluate": ["--model", str(pipeline.model), "--report-out", str(out)],
            "ablate": ["--drop", "length_median", "--report-out", str(out)]}[command]
    assert main([command, "--features", str(feats), *args]) == 1
    err = capsys.readouterr().err
    assert f"feature CSV sidecar {side}: {key}" in err and err.count("\n") == 1
    assert not out.exists()


# A fault of a JSON file read whole: its id, a body that shows it, and what
# follows "<kind> <path> " in the message.
_UNDECODABLE_JSON = [
    ("not-utf8-at-0", b'\xff{"version": 1}', "is not UTF-8: byte 0xff at byte 0"),
    ("not-utf8-at-10", b'{"seed": 1\xff}', "is not UTF-8: byte 0xff at byte 10"),
    ("not-utf8-at-16", b'{"feature_set": \xff"dependent", "prefix_k": null}',
     "is not UTF-8: byte 0xff at byte 16"),
    ("bad-name", b"{nope", "is not valid JSON: Expecting property name enclosed in double"),
    ("truncated", b'{"version": 1, ',
     "is not valid JSON: Expecting property name enclosed in double"),
    ("too-many-digits", b'{"seed": ' + b"7" * 5000 + b"}",
     "is not valid JSON: Exceeds the limit (4300 digits)"),
    ("too-many-digits-in-a-window",
     b'{"feature_set": "independent", "prefix_k": 1' + b"0" * 5000 + b"}",
     "is not valid JSON: Exceeds the limit (4300 digits)"),
    ("too-deep", b"[" * 100_000, "is not valid JSON: maximum recursion depth exceeded"),
    ("not-an-object", b"[1, 2]", "must hold a JSON object"),
]
# A directory where the file should be.
_DIRECTORY = ("directory", "directory", "is not a file")
# Each kind of input file: the commands that read it, and its faults but
# "missing".  The corpus JSONL and feature CSV name a bad byte by its line
# (test_an_undecodable_line_is_named).  A directory in a lexicon directory
# is skipped (test_load_lexicon_dir_skips_a_directory).
_INPUT_FILES = {
    "config file": (["synth"], [_DIRECTORY, *_UNDECODABLE_JSON]),
    "feature CSV sidecar": (["train", "evaluate", "ablate"],
                            [_DIRECTORY, *_UNDECODABLE_JSON]),
    "trained model": (["evaluate", "export-tree"], [_DIRECTORY, *_UNDECODABLE_JSON]),
    "lexicon file": (["tag"], [
        ("not-utf8-at-4", b"nice\xff one\n", "is not UTF-8: byte 0xff at byte 4")]),
    "corpus file": (["ingest"], [_DIRECTORY]),
    "feature CSV": (["train"], [_DIRECTORY]),
}


def _input_file_reader(pipeline, tmp_path, kind, command):
    """The path of a ``kind`` file under tmp_path, and the command line that
    reads it, which would write tmp_path / "out" (a model, report or corpus)."""
    out = str(tmp_path / "out")
    feats = tmp_path / "features.csv"
    if kind == "config file":
        config = tmp_path / "run.json"
        return config, ["synth", "--out", out, "--config", str(config)]
    if kind == "feature CSV sidecar":
        shutil.copy(pipeline.feats, feats)
        args = {"train": ["--model-out", out],
                "evaluate": ["--model", str(pipeline.model), "--report-out", out],
                "ablate": ["--drop", "length_median", "--report-out", out]}[command]
        return tmp_path / "features.csv.json", [command, "--features", str(feats), *args]
    if kind == "trained model":
        model = tmp_path / "model.json"
        args = {"evaluate": ["--features", str(pipeline.feats), "--report-out", out],
                "export-tree": ["--out", out]}[command]
        return model, [command, "--model", str(model), *args]
    if kind == "lexicon file":
        lexicons = tmp_path / "lexicons"
        shutil.copytree(LEXICONS, lexicons)
        (lexicons / "sda_compliment.txt").unlink()
        return lexicons / "sda_compliment.txt", [
            "tag", "--in", str(pipeline.kept), "--out", out, "--lexicon-dir", str(lexicons)]
    if kind == "corpus file":
        corpus = tmp_path / "corpus.jsonl"
        return corpus, ["ingest", "--in", str(corpus), "--out", out]
    return feats, ["train", "--features", str(feats), "--model-out", out]


@pytest.mark.parametrize("kind, command, body, reason", [
    pytest.param(kind, command, body, reason, id=f"{kind}-{command}-{fault}".replace(" ", "-"))
    for kind, (commands, faults) in _INPUT_FILES.items() for command in commands
    for fault, body, reason in [("missing", None, None), *faults]
])
def test_an_input_file_fault_has_one_wording(pipeline, tmp_path, capsys, kind, command,
                                             body, reason):
    """Each input file the CLI reads is refused in one wording per fault,
    whatever its kind and whichever command reads it: exit 1, one line
    naming the kind and the path, and no output."""
    path, argv = _input_file_reader(pipeline, tmp_path, kind, command)
    if body is None:  # missing; a lexicon file is a link to nothing
        if kind == "lexicon file":
            path.symlink_to(tmp_path / "gone.txt")
        expected = f"error: missing {kind}: {path}"
    else:
        if body == "directory":
            path.mkdir()
        else:
            path.write_bytes(body)
        expected = f"error: {kind} {path} {reason}"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def fail_after_a_partial_write(monkeypatch):
    """Every output file's first write writes half its text, then raises."""
    def partial_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        write = fh.write

        def partial(text):
            write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")
        fh.write = partial
        return fh
    monkeypatch.setattr(convperf.corpus, "open", partial_open, raising=False)


def test_an_output_that_cannot_be_created_is_named(pipeline, tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "kept.jsonl"
    assert main(["ingest", "--in", str(pipeline.raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n"
    )


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize(
    "command", ["synth", "ingest", "tag", "featurize", "train", "evaluate"]
)
def test_a_failed_write_leaves_no_partial_output(
    pipeline, tmp_path, monkeypatch, capsys, command, existing
):
    out = tmp_path / "out"
    argv = {
        "synth": ["--out", str(out), "--n", "30"],
        "ingest": ["--in", str(pipeline.raw), "--out", str(out)],
        "tag": ["--in", str(pipeline.kept), "--out", str(out)],
        "featurize": ["--in", str(pipeline.tagged), "--out", str(out)],
        "train": ["--features", str(pipeline.feats), "--model-out", str(out),
                  "--lambda", "1.0"],
        "evaluate": ["--features", str(pipeline.feats), "--model", str(pipeline.model),
                     "--report-out", str(out)],
    }[command]
    outputs = [out, tmp_path / "out.json"] if command == "featurize" else [out]
    if existing:
        for i, path in enumerate(outputs):
            path.write_bytes(f"earlier output {i}\n".encode())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_after_a_partial_write(monkeypatch)
    assert main([command, *argv]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # No temporary file is left, and earlier outputs keep their bytes.
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def patch_block(mp, size):
    """Every corpus stage reads, draws and writes ``size`` conversations a block."""
    mp.setattr(convperf.corpus, "_BLOCK", size)
    mp.setattr(convperf.synth, "_BLOCK", size)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command, source", [("ingest", "raw"), ("tag", "kept"),
                                             ("featurize", "tagged")])
def test_an_input_fault_past_the_first_block_leaves_no_partial_output(
    pipeline, tmp_path, monkeypatch, capsys, command, source, existing
):
    lines = getattr(pipeline, source).read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines) + '{"id": "last", "exchanges": 3}\n')
    out = tmp_path / "out"
    outputs = [out, tmp_path / "out.json"] if command == "featurize" else [out]
    if existing:
        for i, path in enumerate(outputs):
            path.write_bytes(f"earlier output {i}\n".encode())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    patch_block(monkeypatch, 1)
    assert main([command, "--in", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: line {len(lines) + 1}: conversation 'last': exchanges must be a list\n"
    )
    # No temporary file is left, and earlier outputs keep their bytes.
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("size", [1, 7, 256])
@pytest.mark.parametrize("command, source", [("ingest", "raw"), ("tag", "kept")])
def test_out_may_be_the_input(pipeline, tmp_path, monkeypatch, command, source, size):
    """The input stays open while the blocks are written to a temporary file,
    which replaces it only at the end."""
    patch_block(monkeypatch, size)
    fresh, inplace = tmp_path / "fresh.jsonl", tmp_path / "inplace.jsonl"
    shutil.copyfile(getattr(pipeline, source), inplace)
    assert main([command, "--in", str(inplace), "--out", str(fresh)]) == 0
    assert main([command, "--in", str(inplace), "--out", str(inplace)]) == 0
    assert inplace.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.jsonl", "inplace.jsonl"]


@pytest.mark.parametrize("size", [1, 7])
def test_featurize_splits_the_corpus_not_each_block(pipeline, tmp_path, capsys,
                                                      monkeypatch, size):
    """The split is drawn once, from the count of every block's rows."""
    argv = ["featurize", "--in", str(pipeline.tagged), "--feature-set", "dependent",
            "--prefix-k", "10", "--seed", "3", "--out"]
    assert main([*argv, str(tmp_path / "whole.csv")]) == 0
    whole = capsys.readouterr().out
    patch_block(monkeypatch, size)
    assert main([*argv, str(tmp_path / "blocks.csv")]) == 0
    assert capsys.readouterr().out == whole.replace("whole.csv", "blocks.csv")
    rows = (tmp_path / "whole.csv").read_text().splitlines()
    assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"train", "dev", "test"}
    assert (tmp_path / "blocks.csv").read_text().splitlines() == rows


class _Logged(logging.Handler):
    """The messages convperf logs while it is installed."""

    def __enter__(self):
        self.messages = []
        logging.getLogger("convperf").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("convperf").removeHandler(self)

    def emit(self, record):
        self.messages.append(record.getMessage())


def run_stages(root, stages) -> list:
    """Each stage run in ``root``: its exit code, stdout, stderr and logged
    messages, then the bytes of every file left in ``root``."""
    seen = []
    for argv in stages:
        out, err = io.StringIO(), io.StringIO()
        with (pytest.MonkeyPatch.context() as mp, _Logged() as logged,
              redirect_stdout(out), redirect_stderr(err)):
            mp.chdir(root)
            code = main(list(argv))
        seen.append((argv[0], code, out.getvalue(), err.getvalue(), logged))
    return seen + sorted((p.name, p.read_bytes()) for p in Path(root).iterdir())


_WALK = (
    ("ingest", "--in", "in.jsonl", "--out", "kept.jsonl", "--min-length", "2"),
    ("tag", "--in", "kept.jsonl", "--out", "tagged.jsonl"),
    ("tag", "--in", "in.jsonl", "--out", "over.jsonl", "--overwrite"),
    ("featurize", "--in", "tagged.jsonl", "--out", "ind.csv"),
    ("featurize", "--in", "over.jsonl", "--out", "dep.csv", "--feature-set", "dependent",
     "--prefix-k", "10"),
)
# Known and unknown topic and rg names, blank user turns, texts the shipped
# lexicons tag, and tags a log may already carry.
_EXCHANGES = st.fixed_dictionaries({
    "topic": st.sampled_from(["movies", "music", "zeta_lore", "alpha_lore"]),
    "rg": st.sampled_from(["fact", "menu", "oracle_rg", "beta_rg"]),
    "user": st.sampled_from(["quartz lantern", "", " ", "you talk really nice",
                             "well i don't care"]),
    "sda": st.sampled_from([[], ["sda_abuse"], ["sda_compliment", "sda_repeat"]]),
    "midas": st.sampled_from([[], ["user_init"], ["sys_init", "pos_answer"]]),
})
_CONVERSATIONS = st.lists(
    st.tuples(st.lists(_EXCHANGES, min_size=1, max_size=12),
              st.sampled_from([None, 1, 4]), st.booleans()),
    min_size=1, max_size=9,
)


@given(conversations=_CONVERSATIONS, n=st.integers(1, 9), seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_block_boundaries_change_no_output(conversations, n, seed):
    """Bytes, stdout, stderr and warnings of every corpus stage are the same
    whatever the block size: the ids seen, the line numbers, the tables, the
    blank user turns and the unknown names carry from block to block."""
    lines = []
    for i, (exchanges, rating, blank_after) in enumerate(conversations):
        lines.append(json.dumps({"id": f"c{i}", "rating": rating, "exchanges": exchanges}))
        lines += [""] * blank_after
    walk = [("synth", "--out", "raw.jsonl", "--n", str(n), "--seed", str(seed)), *_WALK]
    runs = []
    for size in (None, 1, 2, 3, len(conversations) + 1):
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
            if size is not None:
                patch_block(mp, size)
            Path(root, "in.jsonl").write_text("\n".join(lines) + "\n")
            runs.append(run_stages(root, walk))
    assert all(run == runs[0] for run in runs[1:])


def test_a_duplicate_id_in_a_later_block_is_named_at_its_line(tmp_path):
    lines = [json.dumps(record(cid)) for cid in ("a", "b", "c", "", "b")]
    lines[3] = ""  # a blank line counts toward the line numbers
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")
    stages = [("ingest", "--in", "in.jsonl", "--out", "kept.jsonl")]
    expected = run_stages(tmp_path, stages)
    assert expected[0][1:4] == (1, "", "error: line 5: duplicate conversation id 'b'\n")
    for size in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            patch_block(mp, size)
            assert run_stages(tmp_path, stages) == expected


def test_blank_user_turns_in_two_blocks_give_one_warning(tmp_path):
    blank = [{}, {"user": " "}, {}]
    lines = [json.dumps(record(cid, exchanges=blank)) for cid in ("a", "b", "c")]
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        patch_block(mp, 2)
        (stage,) = run_stages(tmp_path, [("tag", "--in", "in.jsonl", "--out", "t.jsonl")])[:1]
    assert stage[1] == 0
    assert stage[4] == ["parsed 3 empty user utterances past exchange 0"]


def test_unknown_names_in_different_blocks_warn_once_each_in_sorted_order(tmp_path):
    lines = [json.dumps(record(cid, topic=topic, rg=rg)) for cid, topic, rg in (
        ("a", "zeta_lore", "fact"), ("b", "movies", "oracle_rg"),
        ("c", "alpha_lore", "fact"), ("d", "zeta_lore", "oracle_rg"))]
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        patch_block(mp, 1)
        (stage,) = run_stages(tmp_path, [("featurize", "--in", "in.jsonl", "--out", "f.csv",
                                          "--feature-set", "dependent")])[:1]
    assert stage[1] == 0
    assert stage[4] == [
        "unknown response generator 'oracle_rg' mapped to 'other'",
        "unknown topic 'alpha_lore' mapped to 'other'",
        "unknown topic 'zeta_lore' mapped to 'other'",
    ]


def test_each_featurize_run_warns_of_its_own_unknown_names(tmp_path):
    """A second run in the same process warns as the first did."""
    lines = [json.dumps(record(cid, topic="zeta_lore")) for cid in "abc"]
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")
    stage = ("featurize", "--in", "in.jsonl", "--out", "f.csv", "--feature-set", "dependent")
    first, second = run_stages(tmp_path, [stage, stage])[:2]
    assert first[1] == second[1] == 0
    assert first[4] == second[4] == ["unknown topic 'zeta_lore' mapped to 'other'"]


# A corpus stage's bad option value and the one line that refuses it.
_BAD_OPTIONS = [
    (("ingest", "--min-length", "0"), "min_len must be >= 1, got 0"),
    (("tag", "--lexicon-dir", "gone"), "missing lexicon directory: gone"),
    (("featurize", "--split", "0.9,0.9,0.9"),
     "split ratios must lie in [0, 1] and sum to 1, got (0.9, 0.9, 0.9)"),
    (("featurize", "--prefix-k", "0"), "prefix_k (--prefix-k): expects an integer >= 1, got 0"),
]
_MALFORMED = [b'{"id": "a", "exchanges": 3}', b"not json", b"{}",
              *(line for line, _ in UNDECODABLE_LINES[:2])]


@given(case=st.sampled_from(_BAD_OPTIONS), first=st.sampled_from(_MALFORMED),
       rest=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_a_bad_option_is_refused_before_the_corpus_is_read(case, first, rest):
    """Whatever the corpus's first line holds, the option's message is the
    one printed, and no output is written; without the option, the line
    is what is refused."""
    (command, *flags), message = case
    lines = [first, *(json.dumps(record(f"c{i}")).encode() for i in range(rest))]
    with tempfile.TemporaryDirectory() as root:
        Path(root, "in.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        argv = (command, "--in", "in.jsonl", "--out", "out")
        refused, read, *files = run_stages(root, [(*argv, *flags), argv])
    assert refused[1:] == (1, "", f"error: {message}\n", [])
    assert read[1] == 1 and read[3].startswith("error: line 1: ")
    assert [name for name, _ in files] == ["in.jsonl"]


@pytest.mark.parametrize("command", ["synth", "ingest", "tag", "featurize"])
def test_a_corpus_stage_holds_a_block_not_the_corpus(tmp_path, monkeypatch, command):
    """With blocks of 16 conversations, a stage's traced peak memory grows by
    less than 512 bytes per conversation from a corpus of 300 conversations
    to one of 1,200, whatever their lengths: it keeps the ids seen and, for
    featurize, each conversation's row.  A stage that held the corpus would
    grow by its texts, 2.5-3.5 KB per conversation here."""
    patch_block(monkeypatch, 16)
    peaks = []
    for n in (300, 1200):
        raw = tmp_path / f"raw{n}.jsonl"
        assert main(["synth", "--out", str(raw), "--n", str(n), "--seed", "0"]) == 0
        argv = {
            "synth": ["--out", str(raw), "--n", str(n), "--seed", "0"],
            "ingest": ["--in", str(raw), "--out", str(tmp_path / "kept.jsonl")],
            "tag": ["--in", str(raw), "--out", str(tmp_path / "tagged.jsonl")],
            "featurize": ["--in", str(raw), "--out", str(tmp_path / "features.csv")],
        }[command]
        with redirect_stdout(io.StringIO()):
            assert main([command, *argv]) == 0  # warm: imports, lexicons
            tracemalloc.start()
            try:
                assert main([command, *argv]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 512 * 900, peaks


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
    ablated_cell = replace(cell, name=f"{family}-ablated", drop=("length_median",))
    base, dropped = run_grid([cell, ablated_cell], corpus, seed=0)

    def rows(reports):
        text = io.StringIO()
        write_reports_csv(text, reports)
        return [line.rsplit(",", 1)[0] for line in text.getvalue().splitlines()]

    def cli_rows(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert cli_rows(rep) == rows([base.report])
    assert cli_rows(ablated) == rows([base.report, dropped.report])


@pytest.mark.parametrize("feature_set, prefix_k", [("independent", None), ("dependent", 10)])
def test_a_feature_csv_holds_the_split_rows_run_grid_takes(
    pipeline, tmp_path, monkeypatch, feature_set, prefix_k
):
    # Every seventh conversation loses its rating, so both paths meet unrated rows.
    records = [json.loads(line) for line in pipeline.tagged.read_text().splitlines()]
    for rec in records[::7]:
        rec["rating"] = None
    unrated = {rec["id"] for rec in records[::7]}
    partly_rated = tmp_path / "partly-rated.jsonl"
    partly_rated.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    feats = tmp_path / "features.csv"
    window = [] if prefix_k is None else ["--prefix-k", str(prefix_k)]
    assert main(["featurize", "--in", str(partly_rated), "--out", str(feats), "--seed", "2",
                 "--feature-set", feature_set, *window]) == 0
    names, *sidecar, from_csv = _load_features(str(feats))
    assert sidecar == [feature_set, prefix_k]

    taken = []  # what run_grid takes for its one window
    monkeypatch.setattr(experiment, "take", lambda parts, X: taken.append(take(parts, X))
                        or taken[-1])
    with open(partly_rated, encoding="utf-8") as fh:
        corpus = split_corpus(parse_corpus(fh), seed=2)
    cell = GridCell(ModelSpec("ridge", {"lambda": 1.0}), feature_set,
                    TargetKind(CAPPED_LENGTH), prefix_k)
    run_grid([cell], corpus)
    (from_grid,) = taken

    assert names == FeatureSchema().names(feature_set)
    for split in SPLIT_NAMES:
        grid, csv_rows = from_grid[split], from_csv[split]
        assert csv_rows.ids == grid.ids and grid.ids
        assert csv_rows.X.shape == grid.X.shape and csv_rows.X.dtype == grid.X.dtype
        assert csv_rows.X.tobytes() == grid.X.tobytes()
        for got, want in ((csv_rows.ratings, grid.ratings), (csv_rows.lengths, grid.lengths)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(grid.ratings).tolist() == [i in unrated for i in grid.ids]


def test_train_rejects_a_non_finite_feature_cell(pipeline, tmp_path, capsys):
    lines = pipeline.feats.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    # A cell past ±1e154 squares past a double's range: train would write
    # a model whose standardizer evaluate refuses, and evaluate report inf.
    for cell in ("nan", "1e300", "-1e155"):
        cells[2] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines) + "\n")
        model_out = tmp_path / "model.json"
        assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
        err = capsys.readouterr().err
        assert repr(cells[0]) in err and repr(header[2]) in err
        assert err.endswith(f"{float(cell)} is not a finite value within ±1e+100\n"), err
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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_byte_that_is_not_utf8_in_a_feature_csv_is_named_at_its_line(
    pipeline, tmp_path, capsys, command
):
    """The line and byte column of the file, past the first 8 KiB (one
    decode chunk), not a position within a chunk."""
    lines = pipeline.feats.read_bytes().split(b"\n")
    starts = np.cumsum([0] + [len(line) + 1 for line in lines])
    row = int(np.argmax(starts > 8192))
    lines[row] = lines[row][:5] + b"\xff" + lines[row][5:]
    bad = tmp_path / "features.csv"
    bad.write_bytes(b"\n".join(lines))
    shutil.copy(f"{pipeline.feats}.json", f"{bad}.json")
    out = tmp_path / "out"
    argv = {"train": ["train", "--model-out", str(out)],
            "evaluate": ["evaluate", "--model", str(pipeline.model), "--report-out", str(out)]}
    assert main([*argv[command], "--features", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: feature CSV line {row + 1}: not UTF-8: byte 0xff at byte column 6\n")
    assert not out.exists()


def test_train_rejects_a_row_with_a_missing_cell(pipeline, tmp_path, capsys):
    bad, row_id = edited_feature_csv(pipeline, tmp_path, lambda cells: cells.pop(2))
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(row_id) in err and "cells" in err
    assert not model_out.exists()


@pytest.mark.parametrize(
    "column, offset, cell, message",
    [
        ("rating", -3, "4.5", "not an integer"),
        ("capped_length", -2, "4.5", "not an integer"),
        ("rating", -3, "9", "'9' is not in 1..5"),
        ("capped_length", -2, "-4", "'-4' is not in 1..75"),
        ("capped_length", -2, "500", "'500' is not in 1..75"),
    ],
    ids=["rating", "length", "rating-9", "length--4", "length-500"],
)
def test_train_rejects_a_non_integer_target_cell(
    pipeline, tmp_path, capsys, column, offset, cell, message
):
    def edit(cells):
        cells[offset] = cell

    bad, row_id = edited_feature_csv(pipeline, tmp_path, edit)
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert repr(row_id) in err and repr(column) in err and message in err
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


def _repeat_a_column_name(rows):
    rows[0][rows[0].index("freq_sda_compliment")] = "length_median"
    return rows


@pytest.mark.parametrize(
    "edit, message",
    [
        (_repeat_a_column_name, "feature CSV column 'length_median' is repeated in the header"),
        (lambda rows: [[r[0], *r[-3:]] for r in rows],
         "not a feature CSV (the header names no feature column)"),
    ],
    ids=["repeated-name", "no-feature-column"],
)
def test_train_refuses_a_header_that_does_not_name_each_column_once(
    pipeline, tmp_path, capsys, edit, message
):
    rows = [line.split(",") for line in pipeline.feats.read_text().splitlines()]
    feats = tmp_path / "features.csv"
    feats.write_text("".join(",".join(row) + "\n" for row in edit(rows)))
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(feats), "--lambda", "1",
                 "--model-out", str(model_out)]) == 1
    assert capsys.readouterr().err == f"error: {feats}: {message}\n"
    assert not model_out.exists()


def test_train_rejects_an_empty_feature_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(empty), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert f"{empty}: not a feature CSV" in err
    assert not model_out.exists()


@pytest.fixture(scope="module")
def model_files(pipeline):
    """The pipeline's ridge model, and a tree and a three-tree forest on its features."""
    files = {"ridge": pipeline.model}
    for family, flags in (("tree", ["--max-depth", "4"]),
                          ("forest", ["--n-trees", "3", "--max-depth", "4"])):
        files[family] = pipeline.root / f"base-{family}.json"
        argv = ["train", "--features", str(pipeline.feats), "--model-out",
                str(files[family]), "--family", family, *flags, "--target", "length"]
        assert main(argv) == 0
    return files


DELETE = object()
_PARAMS = ("parameters",)


def edited_model(path, *edits):
    """The model JSON at ``path`` with each (key path, value) edit made;
    the value DELETE removes the key or list item."""
    return edited_json(path.read_text(), *edits)


def edited_json(text, *edits):
    """The JSON value of ``text`` with each edit made, as edited_model makes them."""
    obj = json.loads(text)
    for keys, value in edits:
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value(parent[keys[-1]]) if callable(value) else value
    return obj


@pytest.mark.parametrize(
    "base, edits, message",
    [(None, "[1, 2]", "must hold a JSON object"),
     (None, '{"version": 1, "family": "ridge"}', "missing key 'parameters'"),
     (None, '{"version": 1, "parameters": {}}', "missing key 'family'"),
     ("ridge", [(_PARAMS, {})], "missing key 'parameters.coef'"),
     ("ridge", [(("standardizer",), {})], "missing key 'standardizer.mean'"),
     ("ridge", [(("feature_names",), 5)],
      "feature_names must be a list, not an integer"),
     ("forest", [(_PARAMS + ("trees",), 5)],
      "parameters.trees must be a list, not an integer"),
     ("tree", [(_PARAMS + ("left",), DELETE)], "missing key 'parameters.left'"),
     ("tree", [(_PARAMS + ("feature", 0), 1.5)],
      "parameters.feature must be a rank-1 list of 64-bit integers"),
     ("tree", [(_PARAMS + ("value", 0), DELETE)],
      "parameters: value: the node arrays need one equal length"),
     ("tree", [(_PARAMS + ("left", 0), 0)],
      "parameters: left: node 0's child is 0, not a later node"),
     ("tree", [(_PARAMS + ("right", 0), 10_000)],
      "parameters: right: node 0's child is 10000, not a later node"),
     ("tree", [(_PARAMS + ("right", 0), lambda right: right - 1)],
      "parameters: left, right: each node but the root needs exactly one parent"),
     ("tree", [(_PARAMS + ("feature", 0), 99)],
      "parameters: feature: split on column 99, past the"),
     ("forest", [(_PARAMS + ("trees", 2, "left", 0), 0)],
      "parameters.trees[2]: left: node 0's child is 0"),
     ("ridge", [(("standardizer", "std", 0), DELETE)],
      "standardizer mean and std need one value per feature name"),
     ("ridge", [(("feature_names", 0), 3)],
      "feature_names[0] must be a string, not an integer"),
     ("ridge", [(("hyperparameters",), [])],
      "hyperparameters must be an object, not a list"),
     ("ridge", [(("seed",), "0")], "seed must be an integer, not a string"),
     ("ridge", [(("target",), 5)], "target must be an object, not an integer"),
     ("ridge", [(("target",), {"kind": "median_split"})],
      "target: median_split target requires a fitted median"),
     ("ridge", [(_PARAMS + ("coef", 0), DELETE)],
      "parameters: coef: 10 coefficients, not one per feature name (11)"),
     ("ridge", [(("fingerprint",), "abc")],
      "fingerprint 'abc' does not match feature_names, whose fingerprint is")],
    ids=["list", "no-parameters", "no-family", "empty-parameters", "empty-standardizer",
         "feature-names-5", "trees-5", "tree-without-left", "split-feature-1.5",
         "unequal-node-arrays", "cyclic-left", "child-past-the-end", "shared-child",
         "split-past-the-features", "forest-tree-cyclic-left", "short-standardizer",
         "numeric-feature-name", "hyperparameters-list", "seed-string", "target-5",
         "median-split-without-median", "short-coef", "wrong-fingerprint"],
)
@pytest.mark.parametrize("command", ["evaluate", "export-tree"])
def test_malformed_model_file_is_rejected(pipeline, model_files, tmp_path, capsys, base,
                                          edits, message, command):
    model = tmp_path / "model.json"
    if base is None:
        model.write_text(edits)
    else:
        model.write_text(json.dumps(edited_model(model_files[base], *edits)))
    argv = {"evaluate": ["evaluate", "--features", str(pipeline.feats)],
            "export-tree": ["export-tree"]}[command]
    assert main([*argv, "--model", str(model)]) == 1
    err = capsys.readouterr().err
    # The file is named first: "<path> must hold ..." or "<path>: <key path> ...".
    sep = " " if base is None and edits == "[1, 2]" else ": "
    assert err.startswith(f"error: trained model {model}{sep}{message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "nulls", [("target", "feature_names", "fingerprint", "standardizer"), ("target",),
              ("standardizer",)],
    ids=["unbound", "no-target", "no-standardizer"],
)
def test_evaluate_refuses_an_unbound_model(pipeline, model_files, tmp_path, capsys, nulls):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(edited_model(model_files["tree"],
                                             *(((key,), None) for key in nulls))))
    argv = ["evaluate", "--features", str(pipeline.feats), "--model", str(model)]
    assert main(argv) == 1
    missing = "feature_names" if len(nulls) > 1 else nulls[0]
    assert capsys.readouterr().err == (
        f"error: model {model} has no {missing!r}; evaluate needs one bound to its "
        "features and target, as train saves it\n"
    )
    assert main(["export-tree", "--model", str(model)]) == 0  # a valid model all the same


def _key_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _key_paths(item, path + (key,))


_WRONG_TYPES = ("x", None, True, 1.5, [], {})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_model_file_exits_0_or_1_with_one_line(pipeline, model_files, data):
    """Delete one key path of a valid model file, or swap its value for one
    of another JSON type; both commands end with exit 0, or exit 1 and a
    one-line message, and raise nothing."""
    family = data.draw(st.sampled_from(sorted(model_files)), label="family")
    obj = json.loads(model_files[family].read_text())
    keys = data.draw(st.sampled_from(list(_key_paths(obj))[1:]), label="key path")
    value = obj
    for key in keys:
        value = value[key]
    edit = data.draw(st.sampled_from(
        [DELETE] + [v for v in _WRONG_TYPES if type(v) is not type(value)]), label="edit")
    mutant = pipeline.root / "mutant.json"
    mutant.write_text(json.dumps(edited_model(model_files[family], (keys, edit))))
    export = ["export-tree"] + (["--tree-index", "0"] if family == "forest" else [])
    for argv in (["evaluate", "--features", str(pipeline.feats)], export):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--model", str(mutant)])
        lines = err.getvalue().splitlines()
        assert (code, lines) == (0, []) or (
            code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
        ), (argv[0], keys, edit, err.getvalue())


def test_train_rejects_an_unknown_split_label(pipeline, tmp_path, capsys):
    def edit(cells):
        cells[-1] = "holdout"

    bad, row_id = edited_feature_csv(pipeline, tmp_path, edit)
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err
    assert f"row {row_id!r}, column 'split': unknown split 'holdout'" in err
    assert not model_out.exists()


def test_train_rejects_an_id_on_two_rows(pipeline, tmp_path, capsys):
    lines = pipeline.feats.read_text().splitlines()
    cells = lines[3].split(",")
    first_split = cells[-1]
    cells[-1] = "test" if first_split != "test" else "train"
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines + [",".join(cells)]) + "\n")
    model_out = tmp_path / "model.json"
    assert main(["train", "--features", str(bad), "--model-out", str(model_out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"row {cells[0]!r}: the id is already on a row in split {first_split!r}" in err[0]
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


@pytest.mark.parametrize("command", ["ingest", "featurize"])
@pytest.mark.parametrize("line, message", UNDECODABLE_LINES, ids=UNDECODABLE_IDS)
def test_an_undecodable_line_is_named(pipeline, tmp_path, capsys, command, line, message):
    lines = pipeline.tagged.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    # The bad line is line 4, after a blank one; a good line follows it.
    bad.write_bytes(b"".join(lines[:2]) + b"\n" + line + b"\n" + b"".join(lines[2:]))
    out = tmp_path / "out"
    assert main([command, "--in", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 4: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [bad]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` with a few bytes replaced, inserted or deleted."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = draw(st.binary(min_size=1, max_size=4)) if edit != "delete" else b""
        cut = draw(st.integers(1, 8)) if edit != "insert" else 0
        data = data[:at] + new + data[at + cut:]
    return data


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_jsonl_file_exits_0_or_1_with_one_line(pipeline, data):
    """Replace, insert or delete a few bytes of a valid corpus file; ingest
    ends with exit 0, or exit 1, a one-line message naming the line and no
    output file, and raises nothing."""
    valid = b"".join(pipeline.raw.read_bytes().splitlines(keepends=True)[:6])
    mutant = pipeline.root / "mutant.jsonl"
    mutant.write_bytes(data.draw(_mutated(valid), label="mutant"))
    out = pipeline.root / "mutant-out.jsonl"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ingest", "--in", str(mutant), "--out", str(out)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert out.exists() and not any(l.startswith("error") for l in lines), lines
    else:
        assert code == 1 and len(lines) == 1, (code, err.getvalue())
        assert re.match(r"error: line [1-9][0-9]*: ", lines[0]), lines[0]
        assert not out.exists()


def run_quietly(argv, out):
    """main(argv) with its output captured and warnings raised; asserts it
    ends with exit 0 and ``out`` written, or exit 1, one error line and no
    ``out``, and raises nothing.  Returns that error line, or None."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert out.exists() and lines == [], (argv, lines)
    else:
        assert code == 1 and len(lines) == 1, (argv, code, err.getvalue())
        assert lines[0].startswith("error: "), (argv, lines[0])
        assert not out.exists(), argv
        return lines[0]
    return None


# Cell values a feature CSV might hold by mistake.
_ODD_CELLS = ("", "nan", "inf", "-inf", "1e400", "1e300", "-1e200", "-1", "0", "6", "99",
              "1.5", " 3", "3_0", "1_0", " 21 ", "x", '"', "\x00", "٣", "−1", "train", "test")


@st.composite
def _odd_cell(draw, text: str) -> bytes:
    """``text`` (a feature CSV) with one cell, the header's included, replaced."""
    lines = text.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(
        st.sampled_from(_ODD_CELLS) | st.text(max_size=3))
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode() + b"\n"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_feature_csv_exits_0_or_1_with_one_line(pipeline, data):
    """Replace, insert or delete a few bytes of a valid feature CSV, or put
    an odd value in one cell; train and evaluate end with exit 0, or exit 1,
    one error line and no output file, and raise nothing.  A model train
    writes is one a model file reader takes."""
    valid = pipeline.feats.read_bytes()
    mutant = pipeline.root / "mutant.csv"
    mutant.write_bytes(data.draw(_mutated(valid) | _odd_cell(valid.decode()), label="mutant"))
    shutil.copy(f"{pipeline.feats}.json", f"{mutant}.json")
    model, report = pipeline.root / "mutant-model.json", pipeline.root / "mutant-report.csv"
    if run_quietly(["train", "--features", str(mutant), "--model-out", str(model),
                    "--lambda", "1.0", "--target", "length"], model) is None:
        load_model(model)
    run_quietly(["evaluate", "--features", str(mutant), "--model", str(pipeline.model),
                 "--report-out", str(report)], report)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_feature_sidecar_exits_0_or_1_with_one_line(pipeline, data):
    """Replace, insert or delete a few bytes of a valid feature CSV sidecar
    beside a valid feature CSV; train, evaluate and ablate end with exit 0,
    or exit 1, one error line and no output file, and raise nothing."""
    feats = pipeline.root / "sidecar-mutant.csv"
    shutil.copy(pipeline.feats, feats)
    valid = Path(f"{pipeline.feats}.json").read_bytes()
    Path(f"{feats}.json").write_bytes(data.draw(_mutated(valid), label="sidecar"))
    model = pipeline.root / "sidecar-mutant-model.json"
    report = pipeline.root / "sidecar-mutant-report.csv"
    run_quietly(["train", "--features", str(feats), "--lambda", "1.0",
                 "--model-out", str(model)], model)
    run_quietly(["evaluate", "--features", str(feats), "--model", str(pipeline.model),
                 "--report-out", str(report)], report)
    run_quietly(["ablate", "--features", str(feats), "--drop", "length_median",
                 "--report-out", str(report)], report)


def test_tag_rejects_a_lexicon_dir_without_lexicons(pipeline, tmp_path, capsys):
    empty = tmp_path / "lexicons"
    empty.mkdir()
    (empty / "notes.md").write_text("not a lexicon\n")
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out)]
    assert main(argv + ["--lexicon-dir", str(empty)]) == 1
    assert "no lexicon files" in capsys.readouterr().err
    assert not out.exists()


def test_tag_checks_the_lexicon_dir_before_it_reads_the_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "exchanges": 3}\n')
    gone = tmp_path / "gone"
    out = tmp_path / "out.jsonl"
    for corpus in (bad, tmp_path / "missing.jsonl"):
        argv = ["tag", "--in", str(corpus), "--out", str(out), "--lexicon-dir", str(gone)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: missing lexicon directory: {gone}\n"
    assert not out.exists()


def test_tag_names_a_lexicon_dir_that_is_missing_or_no_directory(pipeline, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out), "--lexicon-dir"]
    a_file = tmp_path / "lexicons.txt"
    a_file.write_text("nice\n")
    for path, message in ((tmp_path / "gone", f"missing lexicon directory: {tmp_path / 'gone'}"),
                          (a_file, f"lexicon directory {a_file} is not a directory")):
        assert main([*argv, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


LEXICONS = Path(convperf.__file__).parent / "data" / "lexicons"


def test_tag_with_a_copy_of_the_shipped_lexicons_writes_the_same_bytes(pipeline, tmp_path):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(LEXICONS, lexicons)
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out)]
    assert main(argv + ["--lexicon-dir", str(lexicons)]) == 0
    assert out.read_bytes() == pipeline.tagged.read_bytes()


def test_tag_takes_no_match_mode(pipeline, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--match-mode", "word_boundary"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --match-mode" in capsys.readouterr().err
    path = write_config(tmp_path, {"match_mode": "word_boundary"})
    assert main(argv + ["--config", path]) == 1
    assert capsys.readouterr().err == f"error: unknown config keys in {path}: match_mode\n"
    assert not out.exists()


def test_tag_names_a_lexicon_file_that_is_not_utf8(pipeline, tmp_path, capsys):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(LEXICONS, lexicons)
    bad = lexicons / "sda_compliment.txt"
    bad.write_bytes(b"nice\xff one\n")
    out = tmp_path / "out.jsonl"
    argv = ["tag", "--in", str(pipeline.kept), "--out", str(out), "--lexicon-dir", str(lexicons)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: lexicon file {bad} is not UTF-8: byte 0xff at byte 4\n")
    assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_lexicon_file_exits_0_or_1_with_one_line(pipeline, data):
    """Replace, insert or delete a few bytes of the shipped compliment
    lexicon in a lexicon directory; tag ends with exit 0, or exit 1, one
    error line naming the lexicon and no output file, and raises nothing."""
    lexicons = pipeline.root / "mutant-lexicons"
    lexicons.mkdir(exist_ok=True)
    valid = (LEXICONS / "sda_compliment.txt").read_bytes()
    (lexicons / "sda_compliment.txt").write_bytes(data.draw(_mutated(valid), label="lexicon"))
    out = pipeline.root / "mutant-tagged.jsonl"
    line = run_quietly(["tag", "--in", str(pipeline.kept), "--out", str(out),
                        "--lexicon-dir", str(lexicons)], out)
    assert line is None or "sda_compliment" in line, line


def test_correlate_refuses_fewer_than_3_conversations(pipeline, tmp_path, capsys):
    for n in (0, 2):
        small = tmp_path / f"small-{n}.jsonl"
        small.write_bytes(b"".join(pipeline.tagged.read_bytes().splitlines(True)[:n]))
        report = tmp_path / "corr.csv"
        assert main(["correlate", "--in", str(small), "--report-out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: correlations need at least 3 conversations, the corpus has {n}\n")
        assert not report.exists()


@pytest.mark.parametrize("command", ["score-topics", "plot"])
def test_topic_scores_refuse_an_empty_corpus_by_name(tmp_path, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    argv = {"score-topics": ["--out", str(out)], "plot": ["--out-dir", str(out)]}[command]
    assert main([command, "--in", str(empty), *argv]) == 1
    assert capsys.readouterr().err == (
        "error: topic scores need at least 1 conversation, the corpus has 0\n")
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
    # The excluded topics are fixed; a file that sets them is refused.
    path = write_config(tmp_path, {"exclude_topics": ["intro"]})
    with pytest.raises(CliError, match="unknown config keys in .*: exclude_topics$"):
        load_run_config(Namespace(command="score-topics", config=path))


def test_config_file_problems(tmp_path):
    # Decode faults: test_an_input_file_fault_has_one_wording.
    with pytest.raises(ValueError, match="missing config file"):
        load_run_config(Namespace(command="synth", config=str(tmp_path / "gone.json")))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_run_config(Namespace(command="synth", config=str(arr)))


_VALID_CONFIG = {
    "seed": 0, "min_length": 5, "split": [0.8, 0.1, 0.1], "feature_set": "independent",
    "prefix_k": None, "target": "length", "family": "ridge",
    "hyperparameters": {"lambda": 1.0}, "lexicon_dir": None, "variant": "F1",
    "synth_preset": "default", "synth_n": 1000,
}
_ODD_NUMBERS = (-1, 0, 1, 2**63, 10**30, -0.0, 1e-320, 1e300, float("nan"), float("inf"))


@st.composite
def _odd_config(draw) -> bytes:
    """The valid config with one key path deleted, or its value swapped for
    another JSON type or an odd number."""
    keys = draw(st.sampled_from(list(_key_paths(_VALID_CONFIG))[1:]))
    edit = draw(st.sampled_from((DELETE, *_WRONG_TYPES, *_ODD_NUMBERS)))
    return json.dumps(edited_json(json.dumps(_VALID_CONFIG), (keys, edit))).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_config_file_exits_0_or_1_with_one_line(pipeline, data):
    """Replace, insert or delete a few bytes of a valid config file, or edit
    one of its values; each command that takes --config ends with exit 0,
    or exit 1, one error line and no output file, and raises nothing."""
    config = pipeline.root / "mutant-config.json"
    config.write_bytes(data.draw(
        _mutated(json.dumps(_VALID_CONFIG).encode()) | _odd_config(), label="config"))
    out = pipeline.root / "mutant-out"
    argv = data.draw(st.sampled_from([
        ["ingest", "--in", str(pipeline.raw), "--out", str(out)],
        ["tag", "--in", str(pipeline.kept), "--out", str(out)],
        ["featurize", "--in", str(pipeline.tagged), "--out", str(out)],
        ["score-topics", "--in", str(pipeline.tagged), "--out", str(out)],
        ["train", "--features", str(pipeline.feats), "--model-out", str(out)],
    ]), label="command")
    run_quietly([*argv, "--config", str(config)], out)


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


_NO_TOL = "svr has no hyperparameter 'tol' (it takes C, epsilon, gamma, max_iter)"


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--lambda", "nan"], None,
         "hyperparameters.lambda (--lambda): expects a finite number, got nan"),
        (["--lambda", "inf"], None,
         "hyperparameters.lambda (--lambda): expects a finite number, got inf"),
        ([], '{"hyperparameters": {"lambda": 1e400}}',
         "hyperparameters.lambda (--lambda): expects a finite number, got inf"),
        (["--family", "svr", "--epsilon", "nan"], None,
         "hyperparameters.epsilon (--epsilon): expects a finite number, got nan"),
        (["--family", "svr", "--gamma", "inf"], None,
         'hyperparameters.gamma (--gamma): expects "scale" or a finite number, got inf'),
        (["--family", "mlp"], '{"hyperparameters": {"lr": NaN}}',
         "hyperparameters.lr (--lr): expects a finite number, got nan"),
        # SMO's stopping gap is a constant; a file's tol is refused, whatever its value.
        (["--family", "svr"], '{"hyperparameters": {"tol": "x"}}', _NO_TOL),
        (["--family", "svr"], '{"hyperparameters": {"tol": null}}', _NO_TOL),
        (["--family", "svr"], '{"hyperparameters": {"tol": -1}}', _NO_TOL),
        # A forest refuses the leaf sizes a tree refuses.
        (["--family", "forest", "--min-leaf", "0"], None, "min_leaf must be >= 1, got 0"),
        # Without the check SMO took no step and blamed the iteration budget.
        (["--family", "svr", "--max-iter", "-3"], None, "max_iter must be >= 1, got -3"),
    ],
    ids=["lambda-nan", "lambda-inf", "lambda-1e400-file", "epsilon-nan", "gamma-inf",
         "lr-nan-file", "tol-text-file", "tol-null-file", "tol-negative-file",
         "forest-min-leaf-0", "svr-max-iter-negative"],
)
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_hyperparameter_out_of_its_range_is_refused(
    pipeline, tmp_path, capsys, command, flags, config, message
):
    out = tmp_path / "out"
    argv = [command, "--features", str(pipeline.feats), *flags,
            *(["--model-out", str(out)] if command == "train" else
              ["--drop", "length_median", "--report-out", str(out)])]
    if config is not None:  # JSON text as written, 1e400 and NaN included
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_model_file_with_the_old_bin_keys_evaluates_the_same(pipeline, tmp_path, capsys):
    """A binned model file once held its bins under "target"; one that
    still does is read as one without them."""
    model = tmp_path / "binned.json"
    assert main(["train", "--features", str(pipeline.feats), "--model-out", str(model),
                 "--family", "ridge", "--lambda", "1.0", "--target", "binned"]) == 0
    data = json.loads(model.read_text())
    assert data["target"] == {"kind": "binned_length", "median": None}
    data["target"].update(bin_width=10, max_bin=7)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data, indent=1) + "\n")
    capsys.readouterr()
    runs = []
    for path in (model, old):
        report = tmp_path / f"{path.stem}.csv"
        assert main(["evaluate", "--features", str(pipeline.feats), "--model", str(path),
                     "--report-out", str(report)]) == 0
        runs.append((report.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]


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
        (Namespace(synth_n="5"), "synth_n (--n): expects an integer, got '5'"),
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
        (Namespace(lexicon_dir=3), "lexicon_dir (--lexicon-dir): expects a string, got 3"),
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
    for opt in (OPTIONS[d] for d in COMMAND_OPTIONS[command]):
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


# The family each numeric fit flag is tried on, with flags that keep its
# fits small.
_FOREST = ["--family", "forest", "--n-trees", "2", "--max-depth", "3"]
_MLP = ["--family", "mlp", "--hidden", "4", "--max-epochs", "3"]
_NUMERIC_FLAGS = {
    "--seed": _FOREST,
    "--lambda": ["--family", "ridge"],
    "--max-depth": ["--family", "tree"],
    "--min-leaf": ["--family", "tree", "--max-depth", "3"],
    "--n-trees": ["--family", "forest", "--max-depth", "3"],
    "--feat-frac": _FOREST,
    "--C": ["--family", "svr"],
    "--epsilon": ["--family", "svr"],
    "--gamma": ["--family", "svr"],
    "--max-iter": ["--family", "svr"],
    "--lr": _MLP,
    "--batch-size": _MLP,
    "--max-epochs": ["--family", "mlp", "--hidden", "4"],
    "--patience": _MLP,
}
# Spellings of one number, as flag text and as JSON.
_SPELLINGS = ("{}", "{}.0", "{}e0")


def test_every_numeric_fit_flag_is_tried():
    numeric = {opt.flag for opt in OPTIONS.values()
               if opt.dest in COMMAND_OPTIONS["train"] and opt.parse in (int, float, gamma)}
    assert set(_NUMERIC_FLAGS) == numeric


@settings(max_examples=30, deadline=None)
@example(flag="--lambda", n=1, flag_form="{}", file_form="{}")
@given(flag=st.sampled_from(sorted(_NUMERIC_FLAGS)), n=st.integers(0, 3),
       flag_form=st.sampled_from(_SPELLINGS), file_form=st.sampled_from(_SPELLINGS))
def test_a_number_from_a_flag_or_a_file_makes_one_run(
    pipeline, tmp_path_factory, flag, n, flag_form, file_form
):
    """One value, spelled as a flag or as a config file's JSON number, gives
    train and ablate one config hash, one exit, and byte-identical files."""
    opt = next(o for o in OPTIONS.values() if o.flag == flag)
    if opt.parse is int:  # an integer option takes an integer spelling only
        flag_form = file_form = "{}"
    key = opt.dest.removeprefix(HP_DEST)
    entry = f'"{key}": {file_form.format(n)}'
    config = f'{{"hyperparameters": {{{entry}}}}}' if key != opt.dest else f"{{{entry}}}"
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_text(config)
    runs = []
    for spelling in ([flag, flag_form.format(n)], ["--config", str(path)]):
        root = tmp_path_factory.mktemp("run")
        base = ["--features", str(pipeline.feats), *_NUMERIC_FLAGS[flag],
                "--target", "length", *spelling]
        run = []
        for argv in (["train", *base, "--model-out", str(root / "model.json")],
                     ["ablate", *base, "--drop", "length_median",
                      "--report-out", str(root / "report.csv")]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            args = build_parser().parse_args(argv)
            run += [code, err.getvalue(), config_hash(load_run_config(args), argv[0])]
        run += [(root / name).read_bytes() if (root / name).exists() else None
                for name in ("model.json", "report.csv")]
        runs.append(run)
    assert runs[0] == runs[1]


_FIT_FLAGS = {
    "--seed", "--target", "--family", "--lambda", "--max-depth", "--min-leaf",
    "--n-trees", "--feat-frac", "--no-bootstrap", "--C", "--epsilon", "--gamma",
    "--max-iter", "--hidden", "--lr", "--batch-size", "--max-epochs", "--patience",
}
ACCEPTED_FLAGS = {
    "synth": {"--seed", "--synth-preset", "--n"},
    "ingest": {"--min-length"},
    "tag": {"--lexicon-dir"},
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
    file_values = {}  # a config-file value per option
    for command in subcommands():
        base = [command, *required_argv(command)]
        default = config_hash(load_run_config(parser.parse_args(base)), command)
        for opt in OPTIONS.values():
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
    assert sum(len(f) + bool(f) for f in accepted.values()) == 55

    # The same values from a config file are read and hashed by the commands
    # that take the flag, and ignored by the others.
    for dest, value in file_values.items():
        opt, key = OPTIONS[dest], dest.removeprefix(HP_DEST)
        data = {"hyperparameters": {key: value}} if key != dest else {key: value}
        path = write_config(tmp_path, data)
        for command in subcommands():
            cfg = load_run_config(Namespace(command=command, config=path))
            moved = config_hash(cfg, command) != config_hash(RunConfig(), command)
            assert moved == (opt.flag in ACCEPTED_FLAGS[command]), (command, data)
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


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", text, re.S)
    assert "n_conversations=30_000" in code
    small = code.replace("n_conversations=30_000", "n_conversations=400")
    exec(compile(small, "README.md", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [label for label, _ in rows] == ["forest", "forest-ablated"]
    assert all(np.isfinite(float(r2)) for _, r2 in rows)


def test_readme_corpus_error_example_is_what_ingest_prints(tmp_path, capsys):
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    (quoted,) = re.findall(r"as in `(line 2: exchange field 'midas'[^`]*)`", text)
    bad = tmp_path / "bad.jsonl"
    lines = [record("c0"), record("c1", exchanges=[{}, {"midas": "user_init"}])]
    bad.write_text("".join(json.dumps(r) + "\n" for r in lines))
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "--in", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {quoted}\n"


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
