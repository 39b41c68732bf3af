"""Pinned SHA-256 digests of a small synthetic corpus and what is derived
from it.

A change to the generator's draw order, to the tag-set encoding or to the
JSONL byte format changes one of these digests.  The digests were taken
from the object-per-exchange implementation the columnar corpus replaced,
so they also pin that the two write the same bytes.
"""

import hashlib
import io

import pytest

from convperf.corpus import write_corpus_jsonl
from convperf.features import DEPENDENT, FeatureSchema, build_matrix
from convperf.synth import GeneratorConfig, generate
from convperf.tagging import default_config, tag_corpus

RAW_SHA256 = "36814c2c61b7d4bc71e63f0b2e22d6b12e9e4f3104611cc64101bb1aceb89f24"
TAGGED_SHA256 = "5a3d7a11b34043be267d03cba3647d077a048c223bd61109965047ff40a2a3c7"
MATRIX_SHA256 = "20fe2af8ac98845ad5175856cfd14c23c0e702cba27ab32348a639a37cfd21a3"


def _jsonl_sha256(corpus) -> str:
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def raw():
    return generate(GeneratorConfig(n_conversations=300, seed=0))


def test_generated_corpus_bytes(raw):
    assert _jsonl_sha256(raw) == RAW_SHA256


def test_tagged_corpus_bytes(raw):
    assert _jsonl_sha256(tag_corpus(raw, default_config())) == TAGGED_SHA256


def test_dependent_matrix_bytes(raw):
    _, X = build_matrix(tag_corpus(raw, default_config()), FeatureSchema(), DEPENDENT)
    assert X.shape == (300, 35)
    assert hashlib.sha256(X.tobytes()).hexdigest() == MATRIX_SHA256
