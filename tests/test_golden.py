"""Pinned SHA-256 digests of a small synthetic corpus and what is derived
from it.

A change to the generator's draw order, to the tag-set encoding or to the
JSONL byte format changes one of these digests.  The digests were taken
from the object-per-exchange implementation the columnar corpus replaced,
so they also pin that the two write the same bytes.

The model digests pin the saved JSON of a seeded forest, SVR and MLP
fitted on the dependent matrix.  The forest and MLP digests were taken
from the solvers before the forest presorted its columns and Adam ran on
flat buffers, so they also pin that those rewrites fit the same models
bit for bit.  The SVR digest was re-taken when SMO's kernel rows moved
to the squared-norm expansion, which changes the fitted weights at the
rounding level.

The grid digest pins the report CSV of the benchmark's 12 ridge cells
({independent, dependent} x {full, prefix 10, prefix 15} x {rating,
length}) run over the tagged corpus split with seed 0.  It was taken
while ``run_grid`` still encoded one feature table per split and rebuilt
every split matrix for every cell, so it also pins that encoding the
split corpus once and sharing one matrix per window reports the same
bytes.

The plot digests pin the length and rating histograms that ``convperf
plot`` writes for the raw corpus, CSV and SVG.  They were taken while
the histograms still counted over per-conversation views, so they also
pin that counting over the corpus columns writes the same bytes.
"""

import hashlib
import io

import pytest

from convperf.cli import main
from convperf.corpus import split_corpus, write_corpus_jsonl
from convperf.experiment import GridCell, run_experiment, write_reports_csv
from convperf.features import DEPENDENT, FeatureSchema, Standardizer, build_matrix
from convperf.regressors import (
    CAPPED_LENGTH,
    RATING,
    ModelSpec,
    TargetKind,
    fit_forest,
    fit_mlp,
    fit_svr,
    make_targets,
    save_model,
)
from convperf.synth import GeneratorConfig, generate
from convperf.tagging import default_config, tag_corpus

RAW_SHA256 = "36814c2c61b7d4bc71e63f0b2e22d6b12e9e4f3104611cc64101bb1aceb89f24"
TAGGED_SHA256 = "5a3d7a11b34043be267d03cba3647d077a048c223bd61109965047ff40a2a3c7"
MATRIX_SHA256 = "20fe2af8ac98845ad5175856cfd14c23c0e702cba27ab32348a639a37cfd21a3"
REPORTS_SHA256 = "0bd89f6febb18cd6d04d91c3f55e6ca8ff7c542acd351556350e05ceb37059fb"
MODEL_SHA256 = {
    "forest": "c435b899eee6ef1a841d18197fbe3e38cbf529c4e4c737e427ffec31d7f78ccf",
    "mlp": "f3ee864ce9504597a8c8676053819fc0f9d14886a061419b3f57982d7680b280",
    "svr": "52a93723c5e3ec50691aa2e5607cec558ff1cd4de14490d80fce50290b7a2b70",
}
PLOT_SHA256 = {
    "length_hist.csv": "82a6424d8322836d0dbbb4bb05241d0635f3b1178e783ffbd9af4fb3898a15fc",
    "length_hist.svg": "0168fa00297466608c9afbbb187b11bd5fecb220d0fe3e4ee57afa4401160b7d",
    "rating_hist.csv": "ef1c88db3c93c431a04cb41441df7a8ba006fdddd7a4805c8437e11c91c9bcc2",
    "rating_hist.svg": "a07d5b9a978e59a32146e17f44de956f6fa01e1213581e4804ed9bbe06fc3998",
}


def _jsonl_sha256(corpus) -> str:
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def raw():
    return generate(GeneratorConfig(n_conversations=300, seed=0))


@pytest.fixture(scope="module")
def dependent(raw):
    tagged = tag_corpus(raw, default_config())
    schema = FeatureSchema()
    _, X = build_matrix(tagged, schema, DEPENDENT)
    X = Standardizer.fit(X, schema.names(DEPENDENT)).transform(X)
    return X, make_targets(tagged, TargetKind(CAPPED_LENGTH))


def test_generated_corpus_bytes(raw):
    assert _jsonl_sha256(raw) == RAW_SHA256


def test_tagged_corpus_bytes(raw):
    assert _jsonl_sha256(tag_corpus(raw, default_config())) == TAGGED_SHA256


def test_dependent_matrix_bytes(raw):
    _, X = build_matrix(tag_corpus(raw, default_config()), FeatureSchema(), DEPENDENT)
    assert X.shape == (300, 35)
    assert hashlib.sha256(X.tobytes()).hexdigest() == MATRIX_SHA256


def _fit(family, X, y):
    if family == "forest":
        return fit_forest(X, y, n_trees=5, max_depth=8, min_leaf=2, seed=0)
    if family == "svr":
        return fit_svr(X, y, C=3.0, epsilon=0.2)
    return fit_mlp(
        X[:250], y[:250], hidden=(16, 8), max_epochs=15, patience=3, seed=0,
        dev=(X[250:], y[250:]),
    )


@pytest.mark.parametrize("family", sorted(MODEL_SHA256))
def test_model_json_bytes(dependent, family, tmp_path):
    path = tmp_path / f"{family}.json"
    save_model(_fit(family, *dependent), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256[family]


def test_grid_reports_bytes(raw):
    corpus = split_corpus(tag_corpus(raw, default_config()), seed=0)
    cells = [
        GridCell(ModelSpec("ridge", {"lambda": 1.0}), fs, TargetKind(kind), k)
        for fs in ("independent", "dependent")
        for k in (None, 10, 15)
        for kind in (RATING, CAPPED_LENGTH)
    ]
    buf = io.StringIO()
    write_reports_csv(buf, run_experiment(cells, corpus, seed=0))
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == REPORTS_SHA256


def test_plot_histogram_bytes(raw, tmp_path):
    corpus = tmp_path / "raw.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_corpus_jsonl(raw, fh)
    out = tmp_path / "plots"
    assert main(["plot", "--in", str(corpus), "--out-dir", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PLOT_SHA256
    }
    assert digests == PLOT_SHA256
