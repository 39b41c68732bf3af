"""Lexicon-based social dialogue act (SDA) tagging of user utterances.

SDAs label user behaviors that proxy satisfaction or dissatisfaction:
compliments, complaints, abuse, repeat requests, out-of-skill requests
(dev commands), and prohibited ("red") topics.  Tags are assigned by
phrase lexicons, which are data, not code: a lexicon directory holds one
file per label, one pattern per line; blank lines and lines starting with
``#`` are skipped.

Patterns and texts meet in one normal form: lowercase, single spaces
between words, none around them.  Loading a pattern normalizes it, and a
``Lexicon`` accepts no other form.  In the default ``word_boundary`` mode
a lexicon matches a text when one of its patterns occurs literally
(``str.find``) in the normalized text with no word character right
before or after it.  With both sides normalized, a space in a pattern can
only meet the one space between two words, so this literal search is exact.

MIDAS dialogue-act tags are deliberately never synthesized here; they
come from ingested logs only, since producing them requires the host
system's trained NLU.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import Corpus, _TagSets

WHOLE_UTTERANCE = "whole_utterance"
WORD_BOUNDARY = "word_boundary"
MATCH_MODES = (WORD_BOUNDARY, WHOLE_UTTERANCE)

SDA_COMPLIMENT = "sda_compliment"
SDA_COMPLAINT = "sda_complaint"


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class Lexicon:
    label: str
    patterns: tuple[str, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError(f"lexicon {self.label!r} has no patterns")
        for p in self.patterns:
            if not p or p != _normalize(p):
                raise ValueError(
                    f"lexicon {self.label!r}: patterns must be lowercase with single "
                    f"spaces between words and none around them, got {p!r}"
                )


_WORD = re.compile(r"\w")


class TaggerConfig:
    """Immutable set of lexicons plus the match mode."""

    def __init__(self, lexicons: list[Lexicon], match_mode: str = WORD_BOUNDARY):
        if match_mode not in MATCH_MODES:
            raise ValueError(f"unknown match mode: {match_mode!r}")
        labels = [l.label for l in lexicons]
        if len(set(labels)) != len(labels):
            raise ValueError("lexicon labels must be unique")
        self.lexicons = tuple(lexicons)
        self.match_mode = match_mode
        self._exact = {l.label: frozenset(l.patterns) for l in lexicons}
        self._separator = _separator(lexicons)

    def labels(self) -> tuple[str, ...]:
        return tuple(l.label for l in self.lexicons)


def load_lexicon_file(path: Path, label: str | None = None) -> Lexicon:
    patterns = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = _normalize(line)
        if line and not line.startswith("#"):
            patterns.append(line)
    return Lexicon(label=label or path.stem, patterns=tuple(patterns))


def load_lexicon_dir(path: Path, match_mode: str = WORD_BOUNDARY) -> TaggerConfig:
    """Load every ``*.txt`` file in a directory as one lexicon each."""
    files = sorted(Path(path).glob("*.txt"))
    if not files:
        raise ValueError(f"no lexicon files (*.txt) found in {path}")
    return TaggerConfig([load_lexicon_file(f) for f in files], match_mode=match_mode)


def default_config(match_mode: str = WORD_BOUNDARY) -> TaggerConfig:
    """Tagger over the shipped compliment/complaint lexicons."""
    root = resources.files("convperf") / "data" / "lexicons"
    lexicons = [
        load_lexicon_file(root / f"{name}.txt", label=name)
        for name in (SDA_COMPLIMENT, SDA_COMPLAINT)
    ]
    return TaggerConfig(lexicons, match_mode=match_mode)


def tag_utterance(text: str, cfg: TaggerConfig) -> frozenset[str]:
    """Labels whose lexicon matches ``text`` under the config's match mode."""
    return frozenset(label for label, at in _hits([text], cfg).items() if len(at))


def _separator(lexicons) -> str:
    """A character that is not whitespace, not a word character and in no
    pattern, so no match can contain it."""
    used = set("".join(p for lex in lexicons for p in lex.patterns))
    return next(
        c for c in map(chr, range(sys.maxunicode + 1))
        if c not in used and not re.match(r"[\s\w]", c)
    )


def _hits(texts: list[str], cfg: TaggerConfig) -> dict[str, np.ndarray]:
    """Per label, the ascending positions of the texts its lexicon matches
    once each text is normalized: the whole text (``WHOLE_UTTERANCE``) or a
    run of its words (``WORD_BOUNDARY``, a literal search; see above).

    The run search scans all texts joined by the separator and resumes one
    character past each occurrence, so overlapping ones are all seen ("a a"
    in "xa a a").  No pattern holds the separator, so no occurrence spans
    two texts, and the boundary test sees it as a text's edge.  Starts map
    to texts by their end offsets, not by counting separators: a text may
    itself hold the separator character."""
    norms = [_normalize(t) for t in texts]
    if cfg.match_mode == WHOLE_UTTERANCE:
        return {
            label: np.array([i for i, t in enumerate(norms) if t in pats], dtype=np.intp)
            for label, pats in cfg._exact.items()
        }
    joined = cfg._separator.join(norms)
    ends = np.cumsum([len(t) + 1 for t in norms], dtype=np.intp)
    find, word = joined.find, _WORD.match
    hits = {}
    for lex in cfg.lexicons:
        starts = []
        for p in lex.patterns:
            i = find(p)
            while i >= 0:
                if not (i and word(joined, i - 1) or word(joined, i + len(p))):
                    starts.append(i)
                i = find(p, i + 1)
        hit = np.zeros(len(norms), dtype=bool)
        hit[np.searchsorted(ends, np.array(starts, dtype=np.intp), side="right")] = True
        hits[lex.label] = np.flatnonzero(hit)
    return hits


def tag_corpus(corpus: Corpus, cfg: TaggerConfig, overwrite: bool = False) -> Corpus:
    """Re-derive per-exchange SDA tags from user utterances.

    With ``overwrite=False`` the derived tags are unioned with whatever
    the logs already carried; with ``overwrite=True`` they replace them.
    Returns ``corpus`` itself when no exchange's tags change, else a
    corpus that shares every column but ``sda``.
    """
    tags = _TagSets(corpus.tagsets)
    codes = np.zeros_like(corpus.sda) if overwrite else corpus.sda.copy()
    for label, at in _hits(corpus.user, cfg).items():
        # Each distinct tag set at these exchanges gains the label.
        before, inverse = np.unique(codes[at], return_inverse=True)
        after = [tags.code(tags.sets[c] + (label,)) for c in before.tolist()]
        codes[at] = np.array(after, dtype=codes.dtype)[inverse]
    if np.array_equal(codes, corpus.sda):
        return corpus
    return corpus._replace(sda=codes, tagsets=tuple(tags.sets))
