"""Pinned SHA-256 digests of a small synthetic corpus and what is derived
from it, and of the corpus each other generator preset gives.

A change to the generator's draw order, to the tag-set encoding or to the
JSONL byte format changes one of these digests.

The model digests pin the saved JSON of a ridge, a tree, a seeded forest,
an SVR and an MLP fitted on the dependent matrix, so every family's
parameters pass through the model-file encoder byte for byte.  The
ridge and tree digests were taken when the per-family codecs gave way to
one encoder, from the code before that change.  The grid digest pins the report CSV of
the benchmark's 12 ridge cells ({independent, dependent} x {full, prefix
10, prefix 15} x {rating, length}) run over the tagged corpus split with
seed 0.  The plot digests pin the length and rating histograms that
``convperf plot`` writes for the raw corpus, CSV and SVG.

Every digest was re-taken once, when the generator moved from one random
generator per conversation to one stream per kind of draw, drawn a block
at a time, and began planting a phrase only where it fits its utterance's
word budget.  That changed every corpus byte and so everything derived
from the corpus.  Before that, the same tests held unchanged across
rewrites meant to keep their outputs bit for bit: the columnar corpus
against the object-per-exchange one, the forest's presorted columns and
Adam's flat buffers, ``run_grid`` encoding the split corpus once and
sharing one matrix per window, and histograms counted over corpus columns
instead of per-conversation views.  The SVR digest alone was re-taken
earlier, when SMO's kernel rows moved to the squared-norm expansion,
which changes the fitted weights at the rounding level.

The preset digests came later, when the generator's fixed settings left
``GeneratorConfig`` for module constants, and were taken from the code
before that change.  The "default" preset's corpus is the one
``RAW_SHA256`` pins.
"""

import hashlib
import io

import pytest

from convperf.cli import main
from convperf.corpus import split_corpus, write_corpus_jsonl
from convperf.experiment import GridCell, run_grid, write_reports_csv
from convperf.features import DEPENDENT, FeatureSchema, Standardizer, build_matrix
from convperf.regressors import (
    CAPPED_LENGTH,
    RATING,
    ModelSpec,
    TargetKind,
    fit_forest,
    fit_linear,
    fit_mlp,
    fit_svr,
    fit_tree,
    make_targets,
    save_model,
)
from convperf.synth import PRESETS, GeneratorConfig, generate
from convperf.tagging import default_config, tag_corpus

RAW_SHA256 = "12ca171457638d5dd170f5f3e459d9657c8819a55c11fd5e48c2ee33f9c88f82"
TAGGED_SHA256 = "34dfac693afc70a150f3c0f164ce81735d06cde31cfa44be44956637de9529be"
MATRIX_SHA256 = "677acb79d43e2994ce5b5a401df2642f45cb546ea742f53bb40918728d5b2321"
REPORTS_SHA256 = "eac6f24edf3d0036d112f916a185087524e09e267fc100267ec6fa640bdb8d4a"
MODEL_SHA256 = {
    "forest": "3a109d57af6e065d225fd41170b4ca4fca2156e7d3196de8496654ceed781858",
    "mlp": "2346301cf13a9f9252f57f546bfad3fda7b9626e02123eb01aef2f36f12b2be2",
    "ridge": "42ec8ac3ecc35fccee8903e8039803da34512d6667d413a5c57d8d24159faab5",
    "svr": "c7ed8fdaae40c89fe2d22216ee4324fe1d6b4dbf142ce31bcd84b290352ad58b",
    "tree": "55e23324197e04a60faf1139c9071f9af26e8119e8397c1cfad248d0199a3311",
}
# The JSONL of 300 conversations at seed 0 from each preset but "default".
PRESET_SHA256 = {
    "compliment": "24fff27cd19aa3a16d714a253bd1ab0e44f3db6475f89bb1190074940fcf140a",
    "deterministic": "de5c09f154e2bb4d31df7807de4c2082dd04433e4bb266cd097ac0f3182ad66e",
    "single-signal": "5d15500124f079e288491a4bbf501996ec35fc9bde4e63a827ae01e5cc391cd5",
}
PLOT_SHA256 = {
    "length_hist.csv": "1d959063616dba171169d925f16f8ef55f8b4f9e31e5cdcafd2e8c5fcd85996f",
    "length_hist.svg": "72f6f2d3aba407b6cf62765b56c4b973605bbd81299cf0e67b02bdf0155d96e8",
    "rating_hist.csv": "ff1e11b760337c1cdfdab0e63fab52aa48b0f68c70e47f5feab750bb0a7ed35f",
    "rating_hist.svg": "1df55f433ba6d9ed11e9c9f5cdc79a57b880c90e49b814018065c7c50c642ced",
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


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_corpus_bytes(preset):
    corpus = generate(PRESETS[preset](300, seed=0))
    assert _jsonl_sha256(corpus) == PRESET_SHA256[preset]


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
    if family == "tree":
        return fit_tree(X, y, max_depth=8, min_leaf=2)
    if family == "ridge":
        return fit_linear(X, y, family="ridge", lam=1.0)
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
    write_reports_csv(buf, [r.report for r in run_grid(cells, corpus, seed=0)])
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
