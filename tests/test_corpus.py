import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convperf.corpus import (
    Corpus,
    CorpusError,
    LENGTH_CAP,
    filter_min_length,
    parse_corpus,
    split_corpus,
    write_corpus_jsonl,
)

from conftest import record


def from_records(*records, split=None):
    return Corpus.from_records(records, split_assignment=split)


def test_parse_single_line():
    rec = record("c1", rating=5, exchanges=[{"user": f"line {i}"} for i in range(3)])
    corpus = parse_corpus([json.dumps(rec)])
    assert len(corpus) == 1
    assert corpus.ids == ["c1"]
    assert corpus.ratings == [5]
    assert corpus.lengths().tolist() == [3]
    assert corpus.user[1] == "line 1"
    assert corpus.tagsets[corpus.midas[1]] == ()


def test_parse_preserves_order_and_skips_blank_lines():
    lines = [json.dumps(record(f"c{i}")) for i in range(4)]
    lines.insert(2, "   ")
    corpus = parse_corpus(lines)
    assert corpus.ids == ["c0", "c1", "c2", "c3"]


def test_rating_out_of_range():
    with pytest.raises(CorpusError, match="rating out of range"):
        from_records(record("c1", rating=7))


def test_rating_must_be_integer():
    with pytest.raises(CorpusError, match="integer"):
        from_records(record("c1", rating=4.5))
    with pytest.raises(CorpusError, match="integer"):
        from_records(record("c1", rating=True))


def test_unrated_allowed():
    assert from_records(record("c1", rating=None)).ratings == [None]


def test_missing_id_and_empty_exchanges():
    bad = record("c1")
    del bad["id"]
    with pytest.raises(CorpusError, match="id"):
        from_records(bad)
    bad = record("c1")
    bad["exchanges"] = []
    with pytest.raises(CorpusError, match="exchanges"):
        from_records(bad)


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
    obj = record("c1", n=3)
    obj["asr_confidence"] = 0.93
    obj["exchanges"][0]["latency_ms"] = 20
    corpus = from_records(obj)
    assert corpus.lengths().tolist() == [3]
    assert corpus == from_records(record("c1", n=3))


def test_capped_length():
    corpus = from_records(record("long", n=200), record("short", n=9))
    assert corpus.lengths().tolist() == [200, 9]
    assert corpus.capped_lengths() == [LENGTH_CAP, 9]
    assert LENGTH_CAP == 75


def test_empty_topic_rejected():
    with pytest.raises(CorpusError, match="topic must be non-empty"):
        from_records(record("x", topic=""))


def test_duplicate_ids_rejected_by_corpus():
    with pytest.raises(CorpusError, match="duplicate"):
        from_records(record("a"), record("a"))


def test_records_are_the_only_way_in():
    for args, kwargs in (((), {}), (([],), {}), ((), {"conversations": ()})):
        with pytest.raises(TypeError, match="Corpus.from_records"):
            Corpus(*args, **kwargs)


def test_split_assignment_must_cover_known_splits():
    recs = (record("a"), record("b"))
    assert from_records(*recs, split={"a": "train", "b": "test"}).split.tolist() == [0, 2]
    with pytest.raises(CorpusError, match="does not cover"):
        from_records(*recs, split={"a": "train"})
    with pytest.raises(CorpusError, match="unknown split names"):
        from_records(*recs, split={"a": "train", "b": "validation"})


# ------------------------------------------------------------------ filtering


def test_filter_min_length_keeps_boundary():
    corpus = from_records(
        record("a", n=1),
        record("b", n=3),
        record("c", n=5),
        record("d", n=41),
    )
    kept = filter_min_length(corpus, 5)
    assert kept.ids == ["c", "d"]
    assert kept.lengths().tolist() == [5, 41]


def test_filter_empty_and_identity():
    assert len(filter_min_length(from_records(), 5)) == 0
    corpus = from_records(*(record(f"c{i}", n=5) for i in range(3)))
    assert filter_min_length(corpus, 5) == corpus


def test_filter_idempotent():
    corpus = from_records(*(record(f"c{i}", n=i + 1) for i in range(10)))
    once = filter_min_length(corpus, 5)
    twice = filter_min_length(once, 5)
    assert once == twice


def test_filter_restricts_split_assignment():
    corpus = from_records(
        record("a", n=2),
        record("b", n=8),
        split={"a": "train", "b": "test"},
    )
    kept = filter_min_length(corpus, 5)
    assert kept.split_assignment == {"b": "test"}


def test_filter_bad_min_len():
    with pytest.raises(ValueError, match=">= 1"):
        filter_min_length(from_records(record("a")), 0)


# ------------------------------------------------------------------ splitting


def test_split_sizes_floor_rule():
    corpus = from_records(*(record(f"c{i}") for i in range(10)))
    out = split_corpus(corpus, seed=7)
    sizes = {s: len(out.subset(s)) for s in ("train", "dev", "test")}
    assert sizes == {"train": 8, "dev": 1, "test": 1}


def test_split_large_floor_rule():
    # 32,235 ids: dev and test each get floor(n/10), remainder to train.
    n = 32_235
    corpus = from_records(*(record(f"c{i}", n=1) for i in range(n)))
    out = split_corpus(corpus, seed=0)
    counts = {"train": 0, "dev": 0, "test": 0}
    for s in out.split_assignment.values():
        counts[s] += 1
    assert counts == {"train": 25_789, "dev": 3223, "test": 3223}


def test_split_deterministic_and_seed_sensitive():
    corpus = from_records(*(record(f"c{i}") for i in range(50)))
    a = split_corpus(corpus, seed=3).split_assignment
    b = split_corpus(corpus, seed=3).split_assignment
    c = split_corpus(corpus, seed=4).split_assignment
    assert a == b
    assert a != c


def test_split_partitions_ids():
    corpus = from_records(*(record(f"c{i}") for i in range(23)))
    out = split_corpus(corpus, seed=1)
    ids = {c.id for c in corpus}
    assigned = set(out.split_assignment)
    assert assigned == ids
    parts = [set(c.id for c in out.subset(s)) for s in ("train", "dev", "test")]
    assert parts[0] | parts[1] | parts[2] == ids
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


def test_split_errors():
    corpus = from_records(record("a"), record("b"))
    with pytest.raises(CorpusError, match="at least 3"):
        split_corpus(corpus)
    big = from_records(*(record(f"c{i}") for i in range(5)))
    for ratios in ((0.5, 0.2, 0.2), (-0.2, 0.6, 0.6), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError, match="sum to 1"):
            split_corpus(big, ratios=ratios)


def test_subset_requires_assignment():
    corpus = from_records(record("a"))
    with pytest.raises(CorpusError, match="no split assignment"):
        corpus.subset("train")
    with pytest.raises(CorpusError, match="unknown split"):
        split_corpus(
            from_records(*(record(f"c{i}") for i in range(5)))
        ).subset("validation")


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


@given(_records())
@settings(max_examples=40, deadline=None)
def test_jsonl_round_trip(records):
    corpus = Corpus.from_records(records)
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    buf.seek(0)
    assert parse_corpus(buf) == corpus


def test_record_round_trip_explicit():
    rec = record("c9", n=4, rating=2, midas=["pos_answer"], sda=["sda_compliment"])
    buf = io.StringIO()
    write_corpus_jsonl(from_records(rec), buf)
    assert json.loads(buf.getvalue()) == rec


def test_corpus_equality_ignores_tag_set_codes():
    a = from_records(record("a", sda=["x"]), record("b", sda=["y"]))
    b = from_records(record("b", sda=["y"]), record("a", sda=["x"]))
    swapped = b._select(np.array([1, 0]))
    assert a.sda.tolist() != swapped.sda.tolist()
    assert a == swapped
    assert a != b
    assert a != split_corpus(from_records(*(record(f"c{i}") for i in range(3))))


def test_views_are_read_only_records():
    rec = record("c1", rating=4, exchanges=[
        {"topic": "music", "rg": "opinion", "user": "hi", "system": "yo",
         "midas": ["pos_answer", "user_init"], "sda": ["sda_compliment"]},
        {},
    ])
    (conv,) = from_records(rec)
    assert (conv.id, conv.rating, len(conv.exchanges)) == ("c1", 4, 2)
    assert [
        {"topic": ex.topic, "rg": ex.response_generator, "user": ex.user_text,
         "system": ex.system_text, "midas": sorted(ex.midas_tags),
         "sda": sorted(ex.sda_tags)}
        for ex in conv.exchanges
    ] == rec["exchanges"]
    assert conv.exchanges[-1] == conv.exchanges[1]
    with pytest.raises(IndexError):
        conv.exchanges[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        conv.exchanges[0].topic = "x"


# ------------------------------------------------------------ one boundary

# (where, key, bad value, what the message must say).  ``where`` is
# "record", "exchange" (one exchange's field) or "whole" (the record or
# exchange itself replaced).
_BAD_FIELDS = [
    ("record", "rating", True, "rating must be an integer"),
    ("record", "rating", 1.5, "rating must be an integer"),
    ("record", "rating", "3", "rating must be an integer"),
    ("record", "rating", 6, "rating out of range: 6"),
    ("record", "rating", 0, "rating out of range: 0"),
    ("record", "id", "", "missing or invalid conversation id"),
    ("record", "id", 42, "missing or invalid conversation id"),
    ("record", "exchanges", [], "has no exchanges"),
    ("record", "exchanges", {"topic": "movies"}, "exchanges must be a list"),
    ("exchange", "user", 42, "exchange field 'user' must be a string"),
    ("exchange", "system", None, "exchange field 'system' must be a string"),
    ("exchange", "topic", "", "exchange topic must be non-empty"),
    ("exchange", "topic", 3, "exchange field 'topic' must be a string"),
    ("exchange", "midas", [3], "exchange field 'midas' must be a list of strings"),
    ("exchange", "midas", "x", "exchange field 'midas' must be a list of strings"),
    ("exchange", "sda", ["ok", None], "exchange field 'sda' must be a list of strings"),
    ("whole", "exchange", "hello", "exchange record must be an object"),
    ("whole", "exchange", ["topic"], "exchange record must be an object"),
    ("whole", "record", ["c1"], "conversation record must be an object"),
    ("whole", "record", "duplicate", "duplicate conversation id"),
]


@given(_records(), st.sampled_from(_BAD_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_one_boundary_refuses_each_bad_field_alike(records, bad, data):
    where, key, value, problem = bad
    at = data.draw(st.integers(0, len(records) - 1), label="bad record")
    rec = json.loads(json.dumps(records[at]))
    if where == "record":
        rec[key] = value
    elif where == "exchange" or key == "exchange":
        j = data.draw(st.integers(0, len(rec["exchanges"]) - 1), label="bad exchange")
        if where == "exchange":
            rec["exchanges"][j][key] = value
        else:
            rec["exchanges"][j] = value
    elif value == "duplicate":
        at = len(records)
        rec = {**records[0], "exchanges": [{"topic": "movies"}]}
    else:
        rec = value
    records = records[:at] + [rec] + records[at + 1 :]

    with pytest.raises(CorpusError) as direct:
        Corpus.from_records(records)
    with pytest.raises(CorpusError) as parsed:
        parse_corpus([json.dumps(r) for r in records])
    assert problem in str(direct.value)
    assert str(parsed.value) == f"line {at + 1}: {direct.value}"


def test_selection_keeps_columns_aligned():
    corpus = from_records(
        record("a", n=2, user="one"),
        record("b", n=6, user="two", sda=["sda_abuse"]),
        record("c", n=1, user="three"),
        record("d", n=7, user="four", midas=["user_init"]),
    )
    kept = filter_min_length(corpus, 5)
    assert kept.ids == ["b", "d"]
    assert kept.offsets.tolist() == [0, 6, 13]
    assert kept.user == ["two"] * 6 + ["four"] * 7
    assert kept == from_records(
        record("b", n=6, user="two", sda=["sda_abuse"]),
        record("d", n=7, user="four", midas=["user_init"]),
    )


def test_views_count_exchanges_without_building_them(monkeypatch):
    corpus = from_records(record("a", n=4), record("b", n=9))

    def refuse(*args):
        raise AssertionError("an Exchange was built")

    monkeypatch.setattr(Corpus, "_exchange", refuse)
    assert [len(c.exchanges) for c in corpus] == [4, 9]
