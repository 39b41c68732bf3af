import io
import logging
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import convperf.synth as synth
from convperf.corpus import (
    SPLIT_NAMES,
    Corpus,
    filter_min_length,
    split_corpus,
    word_counts,
)
from convperf.corpus import _UNICODE_SPACES, _TEXT_BLOCK
from convperf.features import (
    DEPENDENT,
    FEATURE_SETS,
    FeatureSchema,
    FeatureTable,
    INDEPENDENT,
    Standardizer,
    build_matrix,
    read_feature_csv,
    write_feature_csv,
)
from convperf.features import _held_medians, _segment_medians

from conftest import feature_values, record

SCHEMA = FeatureSchema()


def conv_with_topics(topic_plan, user="quartz lantern pebble", cid="t", rating=4):
    exchanges = [{"topic": t} for t in topic_plan]
    return record(cid, rating=rating, exchanges=exchanges, user=user)


def test_worked_topic_frequencies():
    plan = ["comics"] * 13 + ["movies"] * 5 + ["music"] * 23
    conv = conv_with_topics(plan)
    vec = feature_values(conv, SCHEMA, DEPENDENT)
    assert len(conv["exchanges"]) == 41
    assert vec["topic_freq_comics"] == 13 / 41
    assert vec["topic_freq_movies"] == 5 / 41
    assert vec["topic_freq_sports"] == 0.0
    # counts {13, 5, 23} -> median count 13, normalized by the window
    assert vec["topic_dist_median"] == 13 / 41


@example(rows=[[0, 0, 0]])  # nothing held -> 0.0
@example(rows=[[0, 4, 0]])  # one held topic
@example(rows=[[3, 1, 2, 0]])  # odd held count
@example(rows=[[5, 0, 1, 2, 8]])  # even held count
@example(rows=[[2, 2, 0, 2, 1], [1, 1, 0, 0, 0]])  # ties
@given(st.integers(1, 17).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 5), min_size=width, max_size=width),
    min_size=1, max_size=8)))
@settings(max_examples=200, deadline=None)
def test_held_medians_are_each_rows_nonzero_median(rows):
    counts = np.array(rows, dtype=np.int64)
    medians = _held_medians(counts)
    assert medians.dtype == np.float64
    for row, got in zip(rows, medians.tolist()):
        held = [c for c in row if c]
        assert got == (float(statistics.median(held)) if held else 0.0)


@example(segments=[])
@example(segments=[[], [3], [], [4, 1]])  # empty and one-value segments
@example(segments=[[10**9], [0, 10**9], [5]])  # 3 * (1e9 + 1) >= 2**31: 64-bit keys
@given(st.sampled_from([40, 10**9]).flatmap(lambda top: st.lists(
    st.lists(st.integers(0, top), max_size=6), max_size=8)))
@settings(max_examples=200, deadline=None)
def test_segment_medians_are_each_segments_median(segments):
    flat = [v for seg in segments for v in seg]
    segment = np.repeat(np.arange(len(segments), dtype=np.int32), list(map(len, segments)))
    values = np.array(flat, dtype=np.min_scalar_type(max(flat, default=0)))
    medians = _segment_medians(segment, values, len(segments))
    assert medians.dtype == np.float64
    assert medians.tolist() == [float(statistics.median(s)) if s else 0.0
                                for s in segments]


def test_topic_freq_sums_to_one_when_all_topics_known():
    plan = ["movies", "music", "music", "intro", "comics"]
    vec = feature_values(conv_with_topics(plan), SCHEMA, DEPENDENT)
    total = sum(v for k, v in vec.items() if k.startswith("topic_freq_"))
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    rg_total = sum(v for k, v in vec.items() if k.startswith("rg_freq_"))
    assert math.isclose(rg_total, 1.0, abs_tol=1e-12)


def test_unknown_topic_maps_to_other():
    vec = feature_values(
        conv_with_topics(["movies", "klingon_opera"]), SCHEMA, DEPENDENT
    )
    assert vec["topic_freq_other"] == 0.5


def test_unknown_topic_and_rg_warn_once_and_count_as_other(caplog):
    plan = [("movies", "fact"), ("tachyon_lore", "fact"), ("tachyon_lore", "oracle_rg")]
    corpus = Corpus.from_records(
        [record("u", rating=4, exchanges=[{"topic": t, "rg": g} for t, g in plan])]
    )
    table = FeatureTable(corpus, SCHEMA)
    names = SCHEMA.names(DEPENDENT)
    with caplog.at_level(logging.WARNING, logger="convperf.features"):
        table.rows(INDEPENDENT)  # topics and rgs are not features there
        build_matrix(corpus, SCHEMA, INDEPENDENT)
        assert caplog.records == []
        X = table.rows(DEPENDENT)  # rows never warn; build_matrix does
        head = table.rows(DEPENDENT, prefix_k=2)
        build_matrix(corpus, SCHEMA, DEPENDENT)
    assert [r.getMessage() for r in caplog.records] == [
        "unknown response generator 'oracle_rg' mapped to 'other'",
        "unknown topic 'tachyon_lore' mapped to 'other'",
    ]
    assert X[0, names.index("topic_freq_other")] == 2 / 3
    assert X[0, names.index("rg_freq_other")] == 1 / 3
    assert head[0, names.index("topic_freq_other")] == 1 / 2
    assert head[0, names.index("rg_freq_other")] == 0.0


@pytest.mark.parametrize("prefix_k", [0, -1])
def test_prefix_k_below_one_is_rejected(prefix_k):
    corpus = Corpus.from_records([conv_with_topics(["movies"] * 3)])
    with pytest.raises(ValueError, match="prefix_k must be >= 1"):
        build_matrix(corpus, SCHEMA, INDEPENDENT, prefix_k)
    with pytest.raises(ValueError, match="prefix_k must be >= 1"):
        FeatureTable(corpus, SCHEMA).rows(DEPENDENT, prefix_k)


def test_each_build_matrix_call_warns_of_its_own_unknown_names(caplog):
    """A call warns of the names it maps to ``other``, whatever an earlier
    call in the process warned of."""
    corpus = Corpus.from_records(
        [record("u", exchanges=[{"topic": "quasar_lore", "rg": "fact"}] * 2)]
    )
    with caplog.at_level(logging.WARNING, logger="convperf.features"):
        for _ in range(2):
            build_matrix(corpus, SCHEMA, DEPENDENT, prefix_k=1)
    assert [r.getMessage() for r in caplog.records] == [
        "unknown topic 'quasar_lore' mapped to 'other'"
    ] * 2


@pytest.mark.parametrize("feature_set", [INDEPENDENT, DEPENDENT])
def test_build_matrix_of_no_conversations(feature_set):
    ids, X = build_matrix(Corpus.from_records([]), SCHEMA, feature_set)
    assert ids == []
    assert X.shape == (0, len(SCHEMA.names(feature_set)))


def test_single_word_utterances():
    conv = conv_with_topics(["movies"] * 6, user="yes")
    vec = feature_values(conv, SCHEMA, INDEPENDENT)
    assert vec["length_median"] == 1.0
    for label in SCHEMA.sda_labels:
        assert vec[f"freq_{label}"] == 0.0


def test_length_median_skips_empty_user_turns():
    users = ["", "one two three", "one"]
    conv = record("e", exchanges=[{"user": u} for u in users])
    vec = feature_values(conv, SCHEMA, INDEPENDENT)
    assert vec["length_median"] == 2.0

    all_empty = record("e2", n=1, user="  ")
    assert feature_values(all_empty, SCHEMA, INDEPENDENT)["length_median"] == 0.0


def test_tag_frequencies():
    conv = record("f", exchanges=[
        {"sda": ["sda_compliment"], "midas": ["pos_answer"]},
        {"sda": ["sda_compliment", "sda_complaint"]},
        {},
        {},
    ])
    vec = feature_values(conv, SCHEMA, INDEPENDENT)
    assert vec["freq_sda_compliment"] == 0.5
    assert vec["freq_sda_complaint"] == 0.25
    assert vec["freq_midas_pos_answer"] == 0.25
    assert vec["freq_midas_neg_answer"] == 0.0


def test_prefix_window():
    plan = ["movies"] * 3 + ["comics"] * 3
    conv = conv_with_topics(plan)
    full = feature_values(conv, SCHEMA, DEPENDENT)
    for k in (10, 2**63, 10**30):  # past int64 too
        assert feature_values(conv, SCHEMA, DEPENDENT, prefix_k=k) == full
    head = feature_values(conv, SCHEMA, DEPENDENT, prefix_k=3)
    assert head["topic_freq_movies"] == 1.0
    assert head["topic_freq_comics"] == 0.0
    with pytest.raises(ValueError, match="prefix_k"):
        feature_values(conv, SCHEMA, DEPENDENT, prefix_k=0)


def word_count(text: str) -> int:
    """Oracle of word_counts: whitespace-delimited tokens of one text."""
    return len(text.split())


def test_word_count():
    assert word_count("i don't care") == 3
    assert word_count("") == 0
    assert word_count("  captain  marvel ") == 2


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# Every whitespace character, NUL, a lone surrogate, a non-BMP character
# and letters; the ASCII alphabet adds the neighbours of str.split()'s
# ASCII whitespace ranges.
_ANY = _WHITESPACE + ["\x00", "\ud800", "\U0001f600", "a", "Z", "\xe9"]
_ASCII = [c for c in _WHITESPACE if c.isascii()] + [
    "\x00", "\x08", "\x0e", "\x1b", "!", "a"
]
_texts = st.one_of(
    st.lists(st.sampled_from(_ANY), max_size=12).map("".join),
    st.lists(st.sampled_from(_ASCII), max_size=12).map("".join),
)


@given(
    texts=st.lists(_texts, max_size=24),
    repeat=st.sampled_from([1, 2, _TEXT_BLOCK // 5 + 1]),
)
@settings(max_examples=150, deadline=None)
def test_word_counts_match_word_count(texts, repeat):
    # Repeating a list of 5 or more texts makes it longer than one block.
    texts = texts * repeat
    counts = word_counts(texts)
    assert counts.shape == (len(texts),)
    assert counts.tolist() == [word_count(t) for t in texts]


def test_unicode_spaces_are_the_non_ascii_whitespace():
    assert set(map(ord, _UNICODE_SPACES)) == {
        c for c in range(128, sys.maxunicode + 1) if chr(c).isspace()
    }


def test_union_is_not_a_feature_set():
    for name in ("union", "bespoke"):
        with pytest.raises(ValueError, match="unknown feature set"):
            SCHEMA.names(name)


def test_the_fixed_inventory_has_catchalls_and_unique_names():
    assert "other" in SCHEMA.topics and "other" in SCHEMA.response_generators
    names = SCHEMA.names(DEPENDENT)
    assert len(set(names)) == len(names)
    with pytest.raises(TypeError):
        FeatureSchema(topics=("movies",))


# ------------------------------------------------------- duplication invariance

_exchange = st.fixed_dictionaries({
    "topic": st.sampled_from(["movies", "comics", "intro", "mystery_meat"]),
    "rg": st.sampled_from(["fact", "menu", "??"]),
    "user": st.sampled_from(["", "yes", "quartz lantern", "one two three four"]),
    "midas": st.lists(st.sampled_from(["pos_answer", "user_init"]), max_size=2),
    "sda": st.lists(st.sampled_from(["sda_compliment", "sda_complaint"]), max_size=2),
})


@st.composite
def random_conversation(draw):
    return record("h", exchanges=draw(st.lists(_exchange, min_size=1, max_size=8)))


def duplicate_exchanges(conv, times=2):
    return {**conv, "exchanges": [ex for ex in conv["exchanges"] for _ in range(times)]}


@given(random_conversation(), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_duplication_leaves_features_unchanged(conv, times):
    big = duplicate_exchanges(conv, times)
    for feature_set in (INDEPENDENT, DEPENDENT):
        a = feature_values(conv, SCHEMA, feature_set)
        b = feature_values(big, SCHEMA, feature_set)
        assert a == b


@given(random_conversation())
@settings(max_examples=60, deadline=None)
def test_feature_ranges(conv):
    vec = feature_values(conv, SCHEMA, DEPENDENT)
    for name, v in vec.items():
        assert not math.isnan(v)
        if name != "length_median":
            assert 0.0 <= v <= 1.0
        else:
            assert v >= 0.0


# ------------------------------------------------ block patterns of a table

_NAMES = ("movies", "intro", "other", "klingon_opera", "Movies", "café")
_RGS = ("fact", "menu", "other", "oracle_rg", "")
_SDAS = ("sda_compliment", "sda_complaint", "sda_unheard_of")
_MIDAS = ("user_init", "pos_answer", "mumble")


def schema_codes(values, inventory):
    """Oracle: a dict lookup per value into ``inventory`` (``other``'s code
    for a value outside it), and the set of values outside it."""
    code = {v: i for i, v in enumerate(inventory)}
    return [code.get(v, code["other"]) for v in values], set(values) - code.keys()


@st.composite
def coded_corpus(draw):
    """A parsed corpus with unknown names and tags, or a synthesized one,
    whole, filtered to a minimum length, or one split of it."""
    if draw(st.booleans()):
        exchanges = st.lists(st.fixed_dictionaries({
            "topic": st.sampled_from(_NAMES), "rg": st.sampled_from(_RGS),
            "sda": st.lists(st.sampled_from(_SDAS), max_size=3, unique=True),
            "midas": st.lists(st.sampled_from(_MIDAS), max_size=3, unique=True),
        }), min_size=1, max_size=6)
        convs = draw(st.lists(exchanges, min_size=3, max_size=8))
        corpus = Corpus.from_records(
            [record(f"c{i}", exchanges=ex) for i, ex in enumerate(convs)]
        )
    else:
        corpus = synth.generate(synth.GeneratorConfig(
            n_conversations=draw(st.integers(3, 30)), seed=draw(st.integers(0, 99)),
        ))
    view = draw(st.sampled_from(["whole", "filtered", "split"]))
    if view == "filtered":
        corpus = filter_min_length(corpus, draw(st.integers(1, 8)))
    elif view == "split":
        corpus = split_corpus(corpus).subset(draw(st.sampled_from(SPLIT_NAMES)))
    return corpus


@given(coded_corpus())
@settings(max_examples=80, deadline=None)
def test_table_codes_match_a_per_exchange_map(corpus):
    for names in (corpus.topic_names, corpus.rg_names):
        assert len(set(names)) == len(names)
    table = FeatureTable(corpus, SCHEMA)
    exchanges = [ex for conv in corpus for ex in conv.exchanges]
    topics, unknown_topics = schema_codes([ex.topic for ex in exchanges], SCHEMA.topics)
    rgs, unknown_rgs = schema_codes(
        [ex.response_generator for ex in exchanges], SCHEMA.response_generators
    )
    expected = {
        "topic": np.eye(len(SCHEMA.topics))[topics],
        "rg": np.eye(len(SCHEMA.response_generators))[rgs],
        "sda": [[l in ex.sda_tags for l in SCHEMA.sda_labels] for ex in exchanges],
        "midas": [[l in ex.midas_tags for l in SCHEMA.midas_labels] for ex in exchanges],
    }
    assert list(table.blocks) == [column for _, column, _ in SCHEMA.blocks(DEPENDENT)]
    for column, (codes, patterns) in table.blocks.items():
        assert len(codes) == len(exchanges)
        # Deduplicated: no two patterns are the same row.
        assert len({tuple(p) for p in patterns.tolist()}) == len(patterns)
        assert patterns[codes].tolist() == np.asarray(expected[column], float).tolist()
    assert table.unknown == {("topic", v) for v in unknown_topics} | {
        ("response generator", v) for v in unknown_rgs
    }


def test_names_are_the_blocks_expansion():
    for feature_set in FEATURE_SETS:
        freqs = tuple(prefix + label
                      for prefix, _, labels in SCHEMA.blocks(feature_set)
                      for label in labels)
        dwell = ("topic_dist_median",) if feature_set == DEPENDENT else ()
        assert SCHEMA.names(feature_set) == ("length_median",) + freqs + dwell
    independent = SCHEMA.names(INDEPENDENT)
    assert SCHEMA.names(DEPENDENT)[: len(independent)] == independent
    assert [(prefix, column) for prefix, column, _ in SCHEMA.blocks(DEPENDENT)] == [
        ("freq_", "sda"), ("freq_midas_", "midas"),
        ("topic_freq_", "topic"), ("rg_freq_", "rg"),
    ]


# ------------------------------------------------------------- standardizer


def test_standardizer_moments():
    X = np.array([[1.0], [2.0], [3.0]])
    s = Standardizer.fit(X, ("a",))
    assert s.mean[0] == 2.0
    assert math.isclose(s.std[0], math.sqrt(2.0 / 3.0), rel_tol=1e-15)


def test_standardizer_constant_feature_maps_to_zero():
    X = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
    s = Standardizer.fit(X, ("a", "b"))
    assert s.std[0] == 0.0
    Z = s.transform(X)
    assert np.all(Z[:, 0] == 0.0)
    assert abs(Z[:, 1].mean()) < 1e-12


def test_standardizer_normalizes_train(rng):
    X = rng.normal(3.0, 2.5, size=(100, 7))
    s = Standardizer.fit(X, tuple(f"f{i}" for i in range(7)))
    Z = s.transform(X)
    assert np.abs(Z.mean(axis=0)).max() < 1e-10
    assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-10


def test_standardizer_round_trip(rng):
    X = rng.normal(size=(20, 3))
    s = Standardizer.fit(X, ("a", "b", "c"))
    Z = s.transform(X)
    back = Z * s.std + s.mean
    assert np.abs(back - X).max() < 1e-12


def test_apply_standardizer_arithmetic():
    s = Standardizer(feature_names=("a", "b"), mean=np.array([3.0, 0.0]),
                     std=np.array([2.0, 0.0]))
    Z = s.transform(np.array([[5.0, 9.0]]))
    assert Z[0, 0] == 1.0
    assert Z[0, 1] == 0.0


def test_fit_standardizer_errors():
    with pytest.raises(ValueError, match="at least 2 rows"):
        Standardizer.fit(np.ones((1, 2)), ("a", "b"))


# ------------------------------------------------------------- interchange CSV


def test_feature_csv_round_trip():
    corpus = Corpus.from_records([
        conv_with_topics(["movies", "comics"]),
        conv_with_topics(["music"], cid="t2", rating=None),
    ])
    ids, X = build_matrix(corpus, SCHEMA, INDEPENDENT)
    names = SCHEMA.names(INDEPENDENT)
    buf = io.StringIO()
    write_feature_csv(
        buf, ids, names, X, [4, None], [2, 1], ["train", "test"]
    )
    buf.seek(0)
    ids2, names2, X2, ratings2, lengths2, splits2 = read_feature_csv(buf)
    assert ids2 == ids
    assert names2 == names
    assert np.array_equal(X2, X)
    assert ratings2 == [4, None]
    assert lengths2 == [2, 1]
    assert splits2 == ["train", "test"]


def test_read_feature_csv_rejects_other_files():
    with pytest.raises(ValueError, match="feature CSV"):
        read_feature_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError, match=r"not a feature CSV \(the file is empty\)"):
        read_feature_csv(io.StringIO(""))


@pytest.mark.parametrize("cell", ["1_0", " 21 ", "21 ", "\t2", "\u0663", "\u00a01", "1e\u0663"])
@pytest.mark.parametrize("column", ["length_median", "rating", "capped_length"])
def test_read_feature_csv_refuses_numerals_no_writer_produces(cell, column):
    names = SCHEMA.names(INDEPENDENT)
    buf = io.StringIO()
    write_feature_csv(buf, ["t"], names, np.zeros((1, len(names))), [4], [21], ["train"])
    header, row = buf.getvalue().splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = cell
    what = "a number" if column in names else "an integer"
    with pytest.raises(ValueError) as e:
        read_feature_csv(io.StringIO(f"{header}\n{','.join(cells)}\n"))
    assert str(e.value) == f"feature CSV row 't', column {column!r}: {cell!r} is not {what}"


def test_build_matrix_shape_and_order():
    corpus = Corpus.from_records([
        conv_with_topics(["movies"] * 3), conv_with_topics(["comics"] * 2, cid="t2")
    ])
    ids, X = build_matrix(corpus, SCHEMA, DEPENDENT)
    assert ids == ["t", "t2"]
    assert X.shape == (2, len(SCHEMA.names(DEPENDENT)))
    j = SCHEMA.names(DEPENDENT).index("topic_freq_comics")
    assert X[1, j] == 1.0
