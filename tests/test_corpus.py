import dataclasses
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import convperf.corpus
import convperf.synth as synth
import convperf.tagging as tg
from convperf.corpus import (
    SPLIT_NAMES,
    Corpus,
    CorpusError,
    LENGTH_CAP,
    filter_min_length,
    parse_blocks,
    parse_corpus,
    split_corpus,
    word_counts,
    write_corpus_jsonl,
)

from conftest import UNDECODABLE_IDS, UNDECODABLE_LINES, record


def from_records(*records, split=None):
    return Corpus.from_records(records, split_assignment=split)


@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_parse_blocks_yields_blocks_that_join_to_the_corpus(monkeypatch, size):
    records = [record(f"c{i}", n=1 + i % 3, topic=f"t{i % 4}", sda=[f"s{i % 2}"])
               for i in range(5)]
    lines = [json.dumps(r) for r in records]
    expected = parse_corpus(lines)
    monkeypatch.setattr(convperf.corpus, "_BLOCK", size)
    blocks = list(parse_blocks(lines))
    assert [len(b) for b in blocks] == [len(records[i : i + size])
                                        for i in range(0, len(records), size)]
    assert sum((b.ids for b in blocks), []) == expected.ids
    assert parse_corpus(lines) == expected == Corpus.from_records(records)
    assert parse_corpus(lines).topic_names == expected.topic_names


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


def _written(corpus: Corpus) -> str:
    buf = io.StringIO()
    write_corpus_jsonl(corpus, buf)
    return buf.getvalue()


@pytest.mark.parametrize("size", [1, 3, 121])
def test_write_block_size_changes_no_byte(monkeypatch, size):
    corpus = synth.generate(synth.GeneratorConfig(n_conversations=120, seed=6))
    before = _written(corpus)  # three blocks of the default size
    monkeypatch.setattr(convperf.corpus, "_WRITE_BLOCK", size)
    assert _written(corpus) == before


# System texts a corpus repeats: non-ASCII, empty, one character, and a
# text and its prefix.
_SYSTEM_POOL = ["let us talk about movies", "¿qué tal? 🎬 ünï", "", "k",
                "let us talk about"]


class _RecordedColumns(convperf.corpus._Columns):
    """Columns that keep each parse's table of shared system texts."""

    tables: list = []

    def corpus(self):
        self.tables.append(self.system_texts)
        return super().corpus()


@given(st.lists(st.lists(st.sampled_from(range(len(_SYSTEM_POOL))), min_size=1, max_size=6),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_repeated_system_texts_are_held_once(conversations):
    # json.loads makes each text a new object, so equal texts arrive as
    # distinct objects, as they do from a file.
    lines = [json.dumps(record(f"c{i}", exchanges=[{"system": _SYSTEM_POOL[k]} for k in picks]),
                        ensure_ascii=False)
             for i, picks in enumerate(conversations)]
    records = list(map(json.loads, lines))
    reference = "".join(map(reference_line, records))
    parsed = parse_corpus(lines)
    built = Corpus.from_records(records)
    for corpus in (parsed, built):
        assert len({id(s) for s in corpus.system}) == len(set(corpus.system))
        assert corpus == parsed
        assert _written(corpus) == reference

    # A table bounded at two texts shares the first two and keeps the
    # rest as they came.
    distinct = len({_SYSTEM_POOL[k] for picks in conversations for k in picks})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convperf.corpus, "_TEXT_BLOCK", 2)
        mp.setattr(convperf.corpus, "_Columns", _RecordedColumns)
        _RecordedColumns.tables = []
        bounded = [parse_corpus(lines), Corpus.from_records(list(map(json.loads, lines)))]
    assert [len(t) for t in _RecordedColumns.tables] == [min(2, distinct)] * 2
    for corpus, table in zip(bounded, _RecordedColumns.tables):
        assert all(s is table[s] for s in corpus.system if s in table)
        assert corpus == parsed
        assert _written(corpus) == reference


def test_corpus_equality_ignores_tag_set_codes():
    a = from_records(record("a", sda=["x"]), record("b", sda=["y"]))
    b = from_records(record("b", sda=["y"]), record("a", sda=["x"]))
    swapped = b._select(np.array([1, 0]))
    assert a.sda.tolist() != swapped.sda.tolist()
    assert a == swapped
    assert a != b
    assert a != split_corpus(from_records(*(record(f"c{i}") for i in range(3))))

    # Topic and rg codes too: b sees its names in the other order, and
    # one name that a lacks.
    a = from_records(record("a", topic="music", rg="fact"),
                     record("b", topic="movies", rg="menu"))
    b = from_records(record("b", topic="movies", rg="menu"),
                     record("c", topic="tv", rg="other"),
                     record("a", topic="music", rg="fact"))
    picked = b._select(np.array([2, 0]))
    assert (a.topic.tolist(), a.rg.tolist()) != (picked.topic.tolist(), picked.rg.tolist())
    assert picked.topic_names == ("movies", "tv", "music")
    assert a == picked
    assert a != b._select(np.array([2, 1]))
    buf = io.StringIO()
    write_corpus_jsonl(picked, buf)
    assert parse_corpus(io.StringIO(buf.getvalue())) == a


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
    ("exchange", "user", "\ud800 hi", "exchange field 'user' holds a lone surrogate"),
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


_AT = " (conversation 'c2', exchange 1)"


@pytest.mark.parametrize(
    "key, value, message",
    [("id", "c\udfff", "conversation id 'c\\udfff' holds a lone surrogate"),
     ("topic", "mo\ud800", "exchange field 'topic' holds a lone surrogate" + _AT),
     ("rg", "\udc00", "exchange field 'rg' holds a lone surrogate" + _AT),
     ("system", "ok\ud83d", "exchange field 'system' holds a lone surrogate" + _AT),
     ("sda", ["ok", "\ud800"], "exchange field 'sda' holds a lone surrogate" + _AT)],
    ids=["id", "topic", "rg", "system", "sda"],
)
def test_a_lone_surrogate_is_refused_where_it_is(key, value, message):
    # The bad record is the third, after a blank line: line 4.  Every
    # user text is non-ASCII, so no column passes on the ASCII test alone.
    records = [record(f"c{i}", user="café") for i in range(4)]
    if key == "id":
        records[2]["id"] = value
    else:
        records[2]["exchanges"][1][key] = value
    lines = [json.dumps(r) for r in records]
    lines.insert(1, "")
    with pytest.raises(CorpusError) as err:
        parse_corpus(lines)
    assert str(err.value) == f"line 4: {message}"


def test_a_lone_surrogate_is_named_before_a_later_bad_rating():
    lines = [json.dumps(record("a")), json.dumps(record("b", user="\ud800")),
             json.dumps(record("c", rating=9))]
    with pytest.raises(CorpusError) as err:
        parse_corpus(lines)
    assert str(err.value) == (
        "line 2: exchange field 'user' holds a lone surrogate (conversation 'b', exchange 0)"
    )


# A duplicate id needs an earlier clean copy, so it is left out.
_RECORD_FAULTS = [bad for bad in _BAD_FIELDS if bad[2] != "duplicate"]


def _spoiled(rec: dict, bad, data) -> object:
    """A copy of ``rec`` holding one fault of ``_BAD_FIELDS``."""
    where, key, value, _ = bad
    if where == "whole" and key == "record":
        return value
    rec = json.loads(json.dumps(rec))
    if where == "record":
        rec[key] = value
        return rec
    j = data.draw(st.integers(0, len(rec["exchanges"]) - 1), label="bad exchange")
    if where == "exchange":
        rec["exchanges"][j][key] = value
    else:
        rec["exchanges"][j] = value
    return rec


@given(
    _records().filter(lambda records: len(records) >= 2),
    st.sampled_from(_RECORD_FAULTS),
    st.sampled_from(_RECORD_FAULTS),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_the_first_bad_record_is_named_at_its_own_line(records, early, late, data):
    a = data.draw(st.integers(0, len(records) - 2), label="earlier bad record")
    b = data.draw(st.integers(a + 1, len(records) - 1), label="later bad record")
    records = list(records)
    records[a] = _spoiled(records[a], early, data)
    records[b] = _spoiled(records[b], late, data)

    with pytest.raises(CorpusError) as alone:
        Corpus.from_records(records[: a + 1])
    assert early[3] in str(alone.value)
    with pytest.raises(CorpusError) as direct:
        Corpus.from_records(records)
    assert str(direct.value) == str(alone.value)

    lines = []
    for i, rec in enumerate(records):
        lines += [""] * data.draw(st.integers(0, 2), label=f"blank lines before {i}")
        lines.append(json.dumps(rec))
        if i == a:
            line = len(lines)
    with pytest.raises(CorpusError) as parsed:
        parse_corpus(lines)
    assert str(parsed.value) == f"line {line}: {direct.value}"


@pytest.mark.parametrize("line, message", UNDECODABLE_LINES, ids=UNDECODABLE_IDS)
def test_an_undecodable_line_is_named(tmp_path, line, message):
    # The bad line is line 3, after a blank line; a good line follows it.
    good = [json.dumps(record(cid)).encode() for cid in ("a", "b")]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join([good[0], b"", line, good[1]]))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        with pytest.raises(CorpusError) as err:
            parse_corpus(fh)
    assert f"{err.value}\n".startswith(f"line 3: {message}")


def test_only_an_escaped_byte_is_named_not_utf8():
    # A lone surrogate outside U+DC80..U+DCFF is no escaped byte: the
    # record names it once decoded.
    lines = [json.dumps(record("a")), json.dumps(record("b"), ensure_ascii=False)]
    lines[1] = lines[1].replace("quartz", "\ud800", 1)
    with pytest.raises(CorpusError, match="^line 2: exchange field 'user' holds"):
        parse_corpus(lines)
    lines[1] = lines[1].replace("\ud800", "\udcfe")
    with pytest.raises(CorpusError, match="^line 2: not UTF-8: byte 0xfe at byte column"):
        parse_corpus(lines)


def _selections(corpus: Corpus, seed: int, min_len: int, split: str):
    """``corpus`` tagged, then length-filtered, split and subset, each
    made from a corpus whose ``words`` were already counted."""
    made = [corpus]
    for make in (lambda c: tg.tag_corpus(c, tg.default_config()),
                 lambda c: filter_min_length(c, min_len),
                 lambda c: split_corpus(c, seed=seed),
                 lambda c: c.subset(split)):
        made[-1].words
        made.append(make(made[-1]))
    return made[1:]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 1300),
    min_len=st.integers(1, 6),
    split=st.sampled_from(SPLIT_NAMES),
)
@settings(max_examples=15, deadline=None)
def test_every_selection_counts_its_own_words(seed, n, min_len, split):
    for corpus in _selections(synth.generate(synth.GeneratorConfig(n, seed=seed)),
                              seed, min_len, split):
        assert corpus.words.tolist() == [len(u.split()) for u in corpus.user]
        text = io.StringIO()
        write_corpus_jsonl(corpus, text)
        parsed = parse_corpus(text.getvalue().splitlines())
        assert corpus.words.tolist() == parsed.words.tolist()


def test_words_hold_counts_past_every_small_dtype():
    long = {"user": " ".join(["w"] * 70_000)}
    corpus = from_records(
        record("a", exchanges=[{"user": "w " * 300}, long, {"user": " "}]),
        record("b", n=2, user="\u3000two\xa0words "),
        record("c", exchanges=[long, {"user": "x " * 256}]),
    )
    assert corpus.words.tolist() == [300, 70_000, 0, 2, 2, 70_000, 256]
    assert corpus.words.dtype == np.uint32
    assert word_counts(["w " * 255]).dtype == np.uint8
    assert word_counts(["w " * 256]).dtype == np.uint16
    for chosen in _selections(corpus, 0, 2, "train"):
        expected = [word_counts([u])[0] for u in chosen.user]
        assert chosen.words.tolist() == expected


def test_equality_ignores_whether_words_are_known():
    corpus = from_records(record("a", user="one two"), record("b", user="three"))
    counted = from_records(record("a", user="one two"), record("b", user="three"))
    assert counted.words.tolist() == [2] * 5 + [1] * 5
    assert corpus == counted and "words" not in vars(corpus)


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


# ------------------------------------------------------------- text blocks


def _patch_text_block(mp, size):
    """Every pass over the texts works ``size`` texts at a time."""
    mp.setattr(convperf.corpus, "_TEXT_BLOCK", size)
    mp.setattr(tg, "_TEXT_BLOCK", size)


# Whitespace that str.split() splits on (a newline, \x1c, \u2028) inside a
# text, words that match only across the seam of two texts ("so" | "cool"),
# and a capital sigma, which lowercases to a final sigma at a word's end.
_SEAM_PIECES = ["so", "cool", "so cool", "a", "x", " ", "\n", "\x1c", "\u2028", "Σ", "ς"]
_SEAM_TEXTS = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(_SEAM_PIECES), max_size=5).map("".join),
    st.lists(st.sampled_from(_SEAM_PIECES), max_size=4).map(lambda p: "".join(p) + "Σ"),
)
_SEAM_CFG = tg.TaggerConfig([
    tg.Lexicon("sda_compliment", ("so cool", "cool so")),
    tg.Lexicon("sda_abuse", ("ς", "σ", "a a")),
    tg.Lexicon("sda_repeat", ("x",)),
])


@given(conversations=st.lists(st.lists(_SEAM_TEXTS, min_size=1, max_size=4),
                              min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_text_block_boundaries_change_no_stage(conversations):
    records = [record(f"c{i}", exchanges=[{"user": t} for t in texts])
               for i, texts in enumerate(conversations)]
    split = {r["id"]: SPLIT_NAMES[i % 3] for i, r in enumerate(records)}
    corpus = Corpus.from_records(records, split_assignment=split)

    def stages():
        return (tg.tag_corpus(corpus, _SEAM_CFG), filter_min_length(corpus, 2),
                *(corpus.subset(s) for s in SPLIT_NAMES))

    expected = stages()  # one block: the corpus is smaller than the default
    for size in (1, 2, 3, len(corpus.user) + 1):
        with pytest.MonkeyPatch.context() as mp:
            _patch_text_block(mp, size)
            assert stages() == expected


def _new_column_bytes(before: Corpus, after: Corpus) -> int:
    """Bytes of the columns ``after`` does not share with ``before``: an
    array's data, or a list's pointers (the strings themselves are shared)."""
    old = vars(before)
    return sum(col.nbytes if isinstance(col, np.ndarray) else sys.getsizeof(col)
               for name, col in vars(after).items() if col is not old.get(name))


@pytest.mark.parametrize("stage", [
    lambda corpus: tg.tag_corpus(corpus, tg.default_config(), overwrite=True),
    lambda corpus: filter_min_length(corpus, 5),
], ids=["tag_corpus", "filter_min_length"])
def test_a_stage_holds_no_copy_of_the_texts(monkeypatch, stage):
    """With small blocks, a stage's traced peak memory grows with the corpus
    by the columns it outputs and two arrays of exchange positions (16 bytes
    an exchange), not by a copy of the texts: a Python object per text or
    per position costs tens of bytes an exchange."""
    _patch_text_block(monkeypatch, 64)
    grown = allowed = 0
    for sign, n in ((-1, 300), (1, 1200)):
        corpus = synth.generate(synth.GeneratorConfig(n_conversations=n, seed=0))
        corpus = corpus._replace(sda=np.zeros_like(corpus.sda))  # tagging changes it
        stage(corpus)  # warm: load the lexicons, fill caches
        tracemalloc.start()
        try:
            out = stage(corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown += sign * peak
        allowed += sign * (_new_column_bytes(corpus, out) + 16 * len(corpus.user))
    assert grown <= allowed
