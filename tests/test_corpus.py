import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from convperf.corpus import (
    Conversation,
    Corpus,
    CorpusError,
    Exchange,
    LENGTH_CAP,
    conversation_from_record,
    conversation_to_record,
    filter_min_length,
    parse_corpus,
    split_corpus,
    write_corpus_jsonl,
)

from conftest import corpus_of, make_conversation


def record(cid="c1", rating=5, n=3):
    return {
        "id": cid,
        "rating": rating,
        "exchanges": [
            {"topic": "movies", "rg": "fact", "user": f"line {i}", "system": "ok"}
            for i in range(n)
        ],
    }


def test_parse_single_line():
    line = json.dumps(record())
    corpus = parse_corpus([line])
    assert len(corpus) == 1
    conv = corpus.conversations[0]
    assert conv.id == "c1"
    assert conv.rating == 5
    assert conv.raw_length == 3
    assert conv.exchanges[1].user_text == "line 1"
    assert conv.exchanges[1].midas_tags == frozenset()


def test_parse_preserves_order_and_skips_blank_lines():
    lines = [json.dumps(record(f"c{i}")) for i in range(4)]
    lines.insert(2, "   ")
    corpus = parse_corpus(lines)
    assert [c.id for c in corpus] == ["c0", "c1", "c2", "c3"]


def test_rating_out_of_range():
    with pytest.raises(CorpusError, match="rating out of range"):
        conversation_from_record(record(rating=7))


def test_rating_must_be_integer():
    with pytest.raises(CorpusError, match="integer"):
        conversation_from_record(record(rating=4.5))
    with pytest.raises(CorpusError, match="integer"):
        conversation_from_record(record(rating=True))


def test_unrated_allowed():
    conv = conversation_from_record(record(rating=None))
    assert conv.rating is None


def test_missing_id_and_empty_exchanges():
    bad = record()
    del bad["id"]
    with pytest.raises(CorpusError, match="id"):
        conversation_from_record(bad)
    bad = record()
    bad["exchanges"] = []
    with pytest.raises(CorpusError, match="exchanges"):
        conversation_from_record(bad)


def test_parse_errors_carry_line_numbers():
    lines = [json.dumps(record("a")), "{not json"]
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(lines)
    lines = [json.dumps(record("a")), json.dumps(record("a"))]
    with pytest.raises(CorpusError, match="line 2.*duplicate"):
        parse_corpus(lines)


@pytest.mark.parametrize("field", ["midas", "sda"])
@pytest.mark.parametrize(
    "value", ["user_init", 3, ["user_init", 1]], ids=["string", "int", "int-item"]
)
def test_tag_fields_must_be_lists_of_strings(field, value):
    obj = record("c1")
    obj["exchanges"][1][field] = value
    lines = [json.dumps(record("c0")), json.dumps(obj)]
    with pytest.raises(
        CorpusError, match=f"line 2: exchange field '{field}' must be a list of strings"
    ):
        parse_corpus(lines)


_GOOD = {"topic": "movies", "rg": "fact", "user": "hi", "system": "ok"}


@pytest.mark.parametrize(
    "exchange,problem",
    [
        ("hello", "exchange record must be an object"),
        (None, "exchange record must be an object"),
        ({**_GOOD, "topic": 3}, "exchange field 'topic' must be a string"),
        ({**_GOOD, "rg": None}, "exchange field 'rg' must be a string"),
        ({**_GOOD, "user": ["hi"]}, "exchange field 'user' must be a string"),
        ({**_GOOD, "system": 1.5}, "exchange field 'system' must be a string"),
        ({**_GOOD, "topic": ""}, "exchange topic must be non-empty"),
        ({"rg": "fact"}, "exchange topic must be non-empty"),
        ({**_GOOD, "midas": "user_init"}, "exchange field 'midas' must be a list of strings"),
        ({**_GOOD, "midas": None}, "exchange field 'midas' must be a list of strings"),
        ({**_GOOD, "sda": ["sda_compliment", ["x"]]},
         "exchange field 'sda' must be a list of strings"),
    ],
    ids=["string", "null", "topic", "rg", "user", "system", "empty-topic",
         "missing-topic", "midas-string", "midas-null", "sda-nested-list"],
)
def test_exchange_errors_name_the_conversation_and_exchange(exchange, problem):
    obj = record("c1")
    obj["exchanges"][1] = exchange
    lines = [json.dumps(record("c0")), json.dumps(obj)]
    with pytest.raises(CorpusError) as exc:
        parse_corpus(lines)
    assert str(exc.value) == f"line 2: {problem} (conversation 'c1', exchange 1)"


def test_record_that_is_not_an_object_is_rejected():
    with pytest.raises(CorpusError, match="line 1: conversation record must be an object"):
        parse_corpus(["[1, 2]"])


def test_unknown_fields_ignored():
    obj = record()
    obj["asr_confidence"] = 0.93
    obj["exchanges"][0]["latency_ms"] = 20
    conv = conversation_from_record(obj)
    assert conv.raw_length == 3


def test_capped_length():
    conv = make_conversation("long", n=200)
    assert conv.raw_length == 200
    assert conv.capped_length == LENGTH_CAP == 75
    short = make_conversation("short", n=9)
    assert short.capped_length == 9


def test_exchange_indices_must_be_contiguous():
    ex0 = Exchange(index=0, topic="movies", response_generator="fact",
                   user_text="", system_text="")
    ex2 = Exchange(index=2, topic="movies", response_generator="fact",
                   user_text="", system_text="")
    with pytest.raises(CorpusError, match="contiguous"):
        Conversation(id="x", exchanges=(ex0, ex2))


def test_empty_topic_rejected():
    with pytest.raises(CorpusError, match="topic"):
        Exchange(index=0, topic="", response_generator="fact",
                 user_text="hi", system_text="ok")


def test_duplicate_ids_rejected_by_corpus():
    with pytest.raises(CorpusError, match="duplicate"):
        corpus_of(make_conversation("a"), make_conversation("a"))


# ------------------------------------------------------------------ filtering


def test_filter_min_length_keeps_boundary():
    corpus = corpus_of(
        make_conversation("a", n=1),
        make_conversation("b", n=3),
        make_conversation("c", n=5),
        make_conversation("d", n=41),
    )
    kept = filter_min_length(corpus, 5)
    assert [c.raw_length for c in kept] == [5, 41]


def test_filter_empty_and_identity():
    assert len(filter_min_length(Corpus(conversations=()), 5)) == 0
    corpus = corpus_of(*(make_conversation(f"c{i}", n=5) for i in range(3)))
    assert filter_min_length(corpus, 5).conversations == corpus.conversations


def test_filter_idempotent():
    corpus = corpus_of(*(make_conversation(f"c{i}", n=i + 1) for i in range(10)))
    once = filter_min_length(corpus, 5)
    twice = filter_min_length(once, 5)
    assert once.conversations == twice.conversations


def test_filter_restricts_split_assignment():
    corpus = corpus_of(
        make_conversation("a", n=2),
        make_conversation("b", n=8),
        split={"a": "train", "b": "test"},
    )
    kept = filter_min_length(corpus, 5)
    assert kept.split_assignment == {"b": "test"}


def test_filter_bad_min_len():
    with pytest.raises(ValueError, match=">= 1"):
        filter_min_length(corpus_of(make_conversation("a")), 0)


# ------------------------------------------------------------------ splitting


def test_split_sizes_floor_rule():
    corpus = corpus_of(*(make_conversation(f"c{i}") for i in range(10)))
    out = split_corpus(corpus, seed=7)
    sizes = {s: len(out.subset(s)) for s in ("train", "dev", "test")}
    assert sizes == {"train": 8, "dev": 1, "test": 1}


def test_split_large_floor_rule():
    # 32,235 ids: dev and test each get floor(n/10), remainder to train.
    n = 32_235
    corpus = Corpus(conversations=tuple(
        make_conversation(f"c{i}", n=1) for i in range(n)
    ))
    out = split_corpus(corpus, seed=0)
    counts = {"train": 0, "dev": 0, "test": 0}
    for s in out.split_assignment.values():
        counts[s] += 1
    assert counts == {"train": 25_789, "dev": 3223, "test": 3223}


def test_split_deterministic_and_seed_sensitive():
    corpus = corpus_of(*(make_conversation(f"c{i}") for i in range(50)))
    a = split_corpus(corpus, seed=3).split_assignment
    b = split_corpus(corpus, seed=3).split_assignment
    c = split_corpus(corpus, seed=4).split_assignment
    assert a == b
    assert a != c


def test_split_partitions_ids():
    corpus = corpus_of(*(make_conversation(f"c{i}") for i in range(23)))
    out = split_corpus(corpus, seed=1)
    ids = {c.id for c in corpus}
    assigned = set(out.split_assignment)
    assert assigned == ids
    parts = [set(c.id for c in out.subset(s)) for s in ("train", "dev", "test")]
    assert parts[0] | parts[1] | parts[2] == ids
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


def test_split_errors():
    corpus = corpus_of(make_conversation("a"), make_conversation("b"))
    with pytest.raises(CorpusError, match="at least 3"):
        split_corpus(corpus)
    big = corpus_of(*(make_conversation(f"c{i}") for i in range(5)))
    for ratios in ((0.5, 0.2, 0.2), (-0.2, 0.6, 0.6), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError, match="sum to 1"):
            split_corpus(big, ratios=ratios)


def test_subset_requires_assignment():
    corpus = corpus_of(make_conversation("a"))
    with pytest.raises(CorpusError, match="no split assignment"):
        corpus.subset("train")
    with pytest.raises(CorpusError, match="unknown split"):
        split_corpus(
            corpus_of(*(make_conversation(f"c{i}") for i in range(5)))
        ).subset("validation")


# ---------------------------------------------------------------- round trip

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
_tags = st.sets(st.sampled_from(["sda_compliment", "pos_answer", "x"]), max_size=2)


@st.composite
def conversations(draw, index):
    n = draw(st.integers(min_value=1, max_value=6))
    exchanges = tuple(
        Exchange(
            index=i,
            topic=draw(st.sampled_from(["movies", "intro", "zz top"])),
            response_generator=draw(st.sampled_from(["fact", "opinion", ""])),
            user_text=draw(_text),
            system_text=draw(_text),
            midas_tags=frozenset(draw(_tags)),
            sda_tags=frozenset(draw(_tags)),
        )
        for i in range(n)
    )
    rating = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=5)))
    return Conversation(id=f"conv-{index}", exchanges=exchanges, rating=rating)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*(conversations(index=i) for i in range(n)))
))
@settings(max_examples=40, deadline=None)
def test_jsonl_round_trip(convs):
    corpus = Corpus(conversations=convs)
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    buf.seek(0)
    back = parse_corpus(buf)
    assert back.conversations == corpus.conversations


def test_record_round_trip_explicit():
    conv = make_conversation("c9", n=4, rating=2, midas=("pos_answer",),
                             sda=("sda_compliment",))
    assert conversation_from_record(conversation_to_record(conv)) == conv


# ------------------------------------------------- columnar round trip (records)

_any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_blank = st.sampled_from(["", " ", "\t \n"])
_tag_lists = st.lists(
    st.sampled_from(["user_init", "pos_answer", "sda_compliment", "é", "a\"b", "\u00ff"]),
    max_size=4,
)


@st.composite
def _exchange_records(draw):
    ex = {"topic": draw(st.sampled_from(["movies", "intro", "zz top", "café", '"q"']))}
    for key, values in (
        ("rg", st.sampled_from(["fact", "", "ünï"])),
        ("user", st.one_of(_any_text, _blank)),
        ("system", _any_text),
        ("midas", _tag_lists),
        ("sda", _tag_lists),
    ):
        if draw(st.booleans()):
            ex[key] = draw(values)
    return ex


@st.composite
def _records(draw):
    ids = draw(st.lists(_any_text, min_size=1, max_size=4, unique=True))
    records = []
    for i, suffix in enumerate(ids):
        rec = {"id": f"c{i}-{suffix}"}
        if draw(st.booleans()):
            rec["rating"] = draw(st.one_of(st.none(), st.integers(1, 5)))
        rec["exchanges"] = draw(st.lists(_exchange_records(), min_size=1, max_size=5))
        records.append(rec)
    return records


def reference_line(rec: dict) -> str:
    """What a record must serialize to: the object model's record, with
    tag lists as sorted, de-duplicated sets and a fixed key order."""
    return json.dumps(
        {
            "id": rec["id"],
            "rating": rec.get("rating"),
            "exchanges": [
                {
                    "topic": ex["topic"],
                    "rg": ex.get("rg", ""),
                    "user": ex.get("user", ""),
                    "system": ex.get("system", ""),
                    "midas": sorted(set(ex.get("midas", []))),
                    "sda": sorted(set(ex.get("sda", []))),
                }
                for ex in rec["exchanges"]
            ],
        },
        ensure_ascii=False,
    ) + "\n"


@given(_records(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_write_matches_reference_serializer(records, ascii_input):
    lines = [json.dumps(rec, ensure_ascii=ascii_input) for rec in records]
    corpus = parse_corpus(lines)
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    written = buf.getvalue()
    assert written == "".join(map(reference_line, records))

    again = parse_corpus(io.StringIO(written))  # splits at "\n" only, as files do
    assert again == corpus
    buf = io.StringIO()
    write_corpus_jsonl(again, buf)
    assert buf.getvalue() == written

    for conv, rec in zip(corpus, records):
        assert conv.id == rec["id"]
        assert conv.rating == rec.get("rating")
        for ex, raw in zip(conv.exchanges, rec["exchanges"], strict=True):
            assert ex.midas_tags == frozenset(raw.get("midas", []))
            assert ex.sda_tags == frozenset(raw.get("sda", []))


def test_selection_keeps_columns_aligned():
    corpus = corpus_of(
        make_conversation("a", n=2, user="one"),
        make_conversation("b", n=6, user="two", sda=("sda_abuse",)),
        make_conversation("c", n=1, user="three"),
        make_conversation("d", n=7, user="four", midas=("user_init",)),
    )
    kept = filter_min_length(corpus, 5)
    assert kept.ids == ["b", "d"]
    assert kept.offsets.tolist() == [0, 6, 13]
    assert kept.user == ["two"] * 6 + ["four"] * 7
    assert kept.conversations == (corpus.conversations[1], corpus.conversations[3])


def test_views_count_exchanges_without_building_them(monkeypatch):
    corpus = corpus_of(make_conversation("a", n=4), make_conversation("b", n=9))

    def refuse(*args):
        raise AssertionError("an Exchange was built")

    monkeypatch.setattr(Corpus, "_exchange", refuse)
    assert [len(c.exchanges) for c in corpus] == [4, 9]
    assert [c.capped_length for c in corpus] == [4, 9]
