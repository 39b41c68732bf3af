"""build_matrix and FeatureTable against a plain per-exchange oracle, bit for bit.

The oracle computes each feature on its own, straight from its
definition, with a separate pass over the window per feature, reading
the same JSONL-schema records the corpus is built from.  Any faster
extraction path has to keep producing exactly these bytes.
"""

from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convperf.corpus import SPLIT_NAMES, Corpus
from convperf.experiment import split_parts, take
from convperf.features import (
    DEPENDENT,
    INDEPENDENT,
    FeatureSchema,
    FeatureTable,
    build_matrix,
)

from conftest import record

SCHEMA = FeatureSchema()


def oracle_row(rec, schema, feature_set, prefix_k):
    window = rec["exchanges"][:prefix_k]
    n = len(window)
    words = [len(ex["user"].split()) for ex in window if ex["user"].strip()]
    values = {"length_median": float(median(words)) if words else 0.0}
    for label in schema.sda_labels:
        values[f"freq_{label}"] = sum(label in ex["sda"] for ex in window) / n
    for label in schema.midas_labels:
        values[f"freq_midas_{label}"] = sum(label in ex["midas"] for ex in window) / n
    if feature_set != INDEPENDENT:
        topics = [
            ex["topic"] if ex["topic"] in schema.topics else "other" for ex in window
        ]
        rgs = [
            ex["rg"] if ex["rg"] in schema.response_generators else "other"
            for ex in window
        ]
        for t in schema.topics:
            values[f"topic_freq_{t}"] = topics.count(t) / n
        for g in schema.response_generators:
            values[f"rg_freq_{g}"] = rgs.count(g) / n
        dwell = [topics.count(t) for t in set(topics)]
        values["topic_dist_median"] = float(median(dwell)) / n
    return [values[name] for name in schema.names(feature_set)]


_topics = st.sampled_from(SCHEMA.topics + ("klingon_opera", "Movies"))
_rgs = st.sampled_from(SCHEMA.response_generators + ("??", "smalltalk"))
_users = st.sampled_from(
    ["", "   ", "yes", "quartz lantern", "one two three four", "tab\tsplit  words"]
)
_sda = st.lists(st.sampled_from(SCHEMA.sda_labels + ("sda_flirt",)), max_size=3)
_midas = st.lists(st.sampled_from(SCHEMA.midas_labels + ("open_question",)), max_size=3)
_exchange = st.fixed_dictionaries(
    {"topic": _topics, "rg": _rgs, "user": _users, "midas": _midas, "sda": _sda}
)


@st.composite
def conversations(draw):
    """Lists of 1 to 4 records with distinct ids."""
    ids = draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
    return [
        record(f"c{i}", exchanges=draw(st.lists(_exchange, min_size=1, max_size=14)))
        for i in ids
    ]


@pytest.mark.parametrize("prefix_k", [None, 1, 3, 10])
@pytest.mark.parametrize("feature_set", [INDEPENDENT, DEPENDENT])
@given(convs=conversations())
@settings(max_examples=40, deadline=None)
def test_build_matrix_matches_oracle(feature_set, prefix_k, convs):
    ids, X = build_matrix(Corpus.from_records(convs), SCHEMA, feature_set, prefix_k)
    expected = np.array(
        [oracle_row(c, SCHEMA, feature_set, prefix_k) for c in convs]
    )
    assert ids == [c["id"] for c in convs]
    assert X.shape == expected.shape
    assert X.dtype == expected.dtype
    assert X.tobytes() == expected.tobytes()


# 15 is longer than any generated conversation, so its window clamps.
_WINDOWS = [
    (feature_set, prefix_k)
    for feature_set in (INDEPENDENT, DEPENDENT)
    for prefix_k in (None, 1, 3, 10, 15)
]


@given(
    convs=conversations(),
    order=st.permutations(_WINDOWS),
    splits=st.lists(st.sampled_from(SPLIT_NAMES), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_one_table_serves_every_window_in_any_order(convs, order, splits):
    table = FeatureTable(Corpus.from_records(convs), SCHEMA)
    # One more input: the rows of one table over a split corpus, selected
    # per split as run_grid selects them.
    named = [{**c, "id": f"s{i}"} for i, c in enumerate(convs)]
    corpus = Corpus.from_records(named, {c["id"]: s for c, s in zip(named, splits)})
    parts = split_parts(corpus.ids, corpus.ratings, corpus.capped_lengths(), corpus.split)
    split_table = FeatureTable(corpus, SCHEMA)
    for feature_set, prefix_k in order:
        expected = np.array(
            [oracle_row(c, SCHEMA, feature_set, prefix_k) for c in convs]
        )
        ids = [c["id"] for c in convs]
        cases = [(ids, (table.ids, table.rows(feature_set, prefix_k)), expected)]
        whole = split_table.rows(feature_set, prefix_k)
        for split, rows in take(parts, whole).items():
            picked = [i for i, s in enumerate(splits[: len(convs)]) if s == split]
            cases.append(([f"s{i}" for i in picked], rows[:2], expected[picked]))
        for want_ids, (ids, X), want in cases:
            assert ids == want_ids
            assert X.shape == want.shape
            assert X.dtype == want.dtype
            assert X.tobytes() == want.tobytes()
