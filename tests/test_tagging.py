import re
import sys
import zipfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import convperf
from convperf.corpus import Corpus
from convperf.tagging import (
    Lexicon,
    TaggerConfig,
    _hits,
    _normalize,
    default_config,
    load_lexicon_dir,
    load_lexicon_file,
    tag_corpus,
)

from conftest import record

CFG = default_config()


def tag_utterance(text, cfg):
    """Labels whose lexicon matches one text."""
    return frozenset(label for label, at in _hits([text], cfg).items() if len(at))


def test_shipped_phrases_tag():
    assert tag_utterance("that's so cool", CFG) == {"sda_compliment"}
    assert tag_utterance("i don't care", CFG) == {"sda_complaint"}
    assert tag_utterance("", CFG) == frozenset()
    assert tag_utterance("   ", CFG) == frozenset()


def test_case_insensitive():
    assert tag_utterance("That's SO cool", CFG) == {"sda_compliment"}
    assert tag_utterance("I DON'T CARE", CFG) == {"sda_complaint"}


def test_substring_on_word_boundaries():
    assert tag_utterance("well i never knew that before", CFG) == {"sda_compliment"}
    # phrase must not continue into a longer word
    assert tag_utterance("i don't careless", CFG) == frozenset()
    assert tag_utterance("xi don't care", CFG) == frozenset()


def test_punctuated_phrase_matches():
    assert tag_utterance("wow you are the best a.i. ever", CFG) == {"sda_compliment"}


def test_multiple_labels_co_occur():
    text = "you're interesting but i don't care"
    assert tag_utterance(text, CFG) == {"sda_compliment", "sda_complaint"}


@given(st.text(max_size=60))
@settings(max_examples=60, deadline=None)
def test_lowercase_invariance(text):
    assert tag_utterance(text.lower(), CFG) == tag_utterance(text, CFG)


def test_monotone_in_patterns():
    base = TaggerConfig([Lexicon("sda_compliment", ("nice one",))])
    bigger = TaggerConfig(
        [Lexicon("sda_compliment", ("nice one", "great stuff"))]
    )
    for text in ("nice one", "great stuff here", "nothing", "ok nice one ok"):
        assert tag_utterance(text, base) <= tag_utterance(text, bigger)


def sda_sets(corpus) -> list[set[str]]:
    """Each exchange's SDA tags, in corpus order."""
    return [set(corpus.tagsets[c]) for c in corpus.sda.tolist()]


def one_conversation(texts) -> Corpus:
    return Corpus.from_records([record("c", exchanges=[{"user": t} for t in texts])])


def test_tag_corpus_union_and_overwrite():
    corpus = Corpus.from_records(
        [record("c", n=3, user="i don't care", sda=["legacy"])]
    )
    union = tag_corpus(corpus, CFG)
    assert sda_sets(union) == [{"legacy", "sda_complaint"}] * 3
    replaced = tag_corpus(corpus, CFG, overwrite=True)
    assert sda_sets(replaced) == [{"sda_complaint"}] * 3


def test_overwrite_idempotent():
    corpus = Corpus.from_records([record("c", n=4, user="that's so cool")])
    once = tag_corpus(corpus, CFG, overwrite=True)
    twice = tag_corpus(once, CFG, overwrite=True)
    assert once == twice


def test_untouched_conversation_is_not_copied():
    corpus = Corpus.from_records([record("c", n=3, user="quartz lantern")])
    assert tag_corpus(corpus, CFG) is corpus


def test_exactly_one_complaint_line():
    tagged = tag_corpus(one_conversation(["quartz", "none of your business", "quartz"]), CFG)
    flags = [("sda_complaint" in tags) for tags in sda_sets(tagged)]
    assert flags == [False, True, False]
    # Two matches in one text name it once; a label that matches nothing
    # names no text.
    texts = ["quartz", "i don't care, none of your business", "quartz"]
    hits = {label: at.tolist() for label, at in _hits(texts, CFG).items()}
    assert hits == {"sda_compliment": [], "sda_complaint": [1]}


def test_empty_lexicons_union_keeps_tags():
    corpus = Corpus.from_records(
        [record("c", n=2, user="whatever", sda=["sda_abuse"])]
    )
    cfg = TaggerConfig([Lexicon("sda_compliment", ("zzz",))])
    assert sda_sets(tag_corpus(corpus, cfg)) == [{"sda_abuse"}] * 2


_PIECES = ["that's so cool", "i don't care", "a.i.", "x", "é", " ", "\t", "\n",
           "\x00", "\x1c", "THAT'S", "so", "cool", "care", "_", "-", "İ", "ς",
           "a", "A", ".", "Σ"]
# Pattern words: self-overlapping ("aa", and "a a" once joined), sharing a
# prefix ("so", "so cool"), starting or ending with a non-word character.
_WORDS = ["a", "aa", "so", "cool", "a.i.", ".x", "x.", "x", "i", "ς", "σ", "é", "_"]
_SHIPPED = [p for lex in CFG.lexicons for p in lex.patterns]


def _reference_labels(text: str, cfg: TaggerConfig) -> set[str]:
    """Each label whose lexicon matches the normalized text, searched alone
    with both lookarounds compiled into one regex."""
    norm = " ".join(text.lower().split())
    labels = set()
    for lex in cfg.lexicons:
        alts = "|".join(re.escape(p).replace(r"\ ", r"\s+") for p in lex.patterns)
        if re.search(rf"(?<!\w)(?:{alts})(?!\w)", norm):
            labels.add(lex.label)
    return labels


@st.composite
def lexicons_and_texts(draw):
    """Pattern lists, one per lexicon, and texts built from pieces that
    include those patterns."""
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
    pattern = st.one_of(st.sampled_from(_SHIPPED), words)
    lexicons = draw(st.lists(st.lists(pattern, min_size=1, max_size=4, unique=True),
                             min_size=1, max_size=3))
    own = [w for pats in lexicons for p in pats for w in {p, *p.split()}]
    pieces = st.one_of(st.sampled_from(sorted(own)), st.sampled_from(_PIECES))
    texts = draw(st.lists(st.lists(pieces, max_size=8).map("".join),
                          min_size=1, max_size=12))
    return lexicons, texts


@given(lexicons_and_texts())
# An occurrence inside a word overlaps one that stands alone.
@example(([["a a"]], ["xa a a", "a a"]))
@example(([["so"], ["so cool", "a.i."]], ["soso cool", "so cool.", "xa.i."]))
@example(([[".x"], ["x."]], ["a.x", ".xa", "x.a", "ax.", ".x", "x."]))
@example(([_SHIPPED], ["that's so cool\x00i don't care", "İ ς"]))
# The texts are joined by newlines; a text's own newline or \x1c is a space.
@example(([_SHIPPED, ["so cool"]], ["that's so\ncool", "i don't\x1ccare so", "\ncool\n"]))
@settings(max_examples=150, deadline=None)
def test_batched_corpus_tagging_matches_tagging_each_text(case):
    patterns, texts = case
    cfg = TaggerConfig([Lexicon(f"l{k}", tuple(p)) for k, p in enumerate(patterns)])
    tagged = tag_corpus(one_conversation(texts), cfg, overwrite=True)
    for tags, text in zip(sda_sets(tagged), texts, strict=True):
        assert tags == _reference_labels(text, cfg)
        assert tag_utterance(text, cfg) == tags


def test_no_normalized_code_point_holds_the_newline_that_joins_texts():
    assert not any("\n" in _normalize(chr(c)) for c in range(sys.maxunicode + 1))


def test_phrase_split_across_exchanges_is_not_tagged():
    texts = ["well that's so", "cool", "i don't", "care", "that's so cool"]
    tagged = tag_corpus(one_conversation(texts), CFG)
    assert sda_sets(tagged) == [set()] * 4 + [{"sda_compliment"}]


# ------------------------------------------------------------------ config


def test_default_config_loads_shipped_lexicons():
    # Every shipped *.txt file, in sorted order.
    assert [l.label for l in CFG.lexicons] == ["sda_complaint", "sda_compliment"]
    by_label = {l.label: l.patterns for l in CFG.lexicons}
    assert "that's so cool" in by_label["sda_compliment"]
    assert "i don't care" in by_label["sda_complaint"]
    assert len(by_label["sda_compliment"]) == 5
    assert len(by_label["sda_complaint"]) == 5


def test_lexicon_validation():
    with pytest.raises(ValueError, match="no patterns"):
        Lexicon("x", ())
    with pytest.raises(ValueError, match="lowercase"):
        Lexicon("x", ("Nice",))
    with pytest.raises(ValueError, match="lowercase"):
        Lexicon("x", (" padded ",))
    # Only normalized patterns, which can meet normalized text: one space
    # between words, no other whitespace.  The error names both.
    for bad in ("shut  up", "a\tb", "a\nb", "\x1c", ""):
        with pytest.raises(ValueError, match=rf"lexicon 'x'.*{re.escape(repr(bad))}"):
            Lexicon("x", ("ok", bad))
    assert Lexicon("x", ("shut up", "a.i.", "ς")).patterns == ("shut up", "a.i.", "ς")


def test_tagger_config_validation():
    with pytest.raises(ValueError, match="unique"):
        TaggerConfig([Lexicon("a", ("x",)), Lexicon("a", ("y",))])


def test_load_lexicon_dir(tmp_path):
    (tmp_path / "sda_abuse.txt").write_text("Shut  Up\n\n# comment\n\tgo\t away \n")
    (tmp_path / "sda_repeat.txt").write_text("say that again\n")
    (tmp_path / "notes.md").write_text("ignored")
    cfg = load_lexicon_dir(tmp_path)
    assert [l.label for l in cfg.lexicons] == ["sda_abuse", "sda_repeat"]
    assert tag_utterance("oh SHUT UP now", cfg) == {"sda_abuse"}
    assert tag_utterance("go  away", cfg) == {"sda_abuse"}

    lex = load_lexicon_file(tmp_path / "sda_abuse.txt")
    assert lex.label == "sda_abuse"
    assert lex.patterns == ("shut up", "go away")


def test_load_lexicon_dir_names_a_path_that_is_missing_or_no_directory(tmp_path):
    a_file = tmp_path / "lexicons.txt"
    a_file.write_text("nice\n")
    for path in (tmp_path / "gone", str(tmp_path / "gone")):
        with pytest.raises(ValueError, match=f"^missing lexicon directory: {re.escape(str(path))}$"):
            load_lexicon_dir(path)
    with pytest.raises(ValueError, match=f"^lexicon directory {re.escape(str(a_file))} "
                                         "is not a directory$"):
        load_lexicon_dir(str(a_file))


def test_load_lexicon_dir_skips_a_directory(tmp_path):
    (tmp_path / "sda_repeat.txt").write_text("say that again\n")
    (tmp_path / "sda_x.txt").mkdir()
    assert [l.label for l in load_lexicon_dir(tmp_path).lexicons] == ["sda_repeat"]


def test_load_lexicon_dir_reads_a_zipped_directory(tmp_path):
    """A zip-imported package's lexicons load as the files on disk do."""
    shipped = Path(convperf.__file__).parent / "data" / "lexicons"
    archive = tmp_path / "lexicons.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for f in shipped.iterdir():
            z.write(f, f"lexicons/{f.name}")
    zipped = load_lexicon_dir(zipfile.Path(archive, "lexicons/"))
    assert zipped.lexicons == default_config().lexicons
    assert [l.label for l in zipped.lexicons] == ["sda_complaint", "sda_compliment"]


def test_load_lexicon_dir_empty(tmp_path):
    with pytest.raises(ValueError, match="no lexicon files"):
        load_lexicon_dir(tmp_path)


def test_a_lexicon_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "sda_compliment.txt"
    path.write_bytes(b"nice\xff one\n")
    message = rf"^lexicon file {re.escape(str(path))} is not UTF-8: byte 0xff at byte 4$"
    with pytest.raises(ValueError, match=message):
        load_lexicon_file(path)
    with pytest.raises(ValueError, match=message):
        load_lexicon_dir(tmp_path)
