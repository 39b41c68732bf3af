"""Lexicon-based social dialogue act (SDA) tagging of user utterances.

SDAs label user behaviors that proxy satisfaction or dissatisfaction:
compliments, complaints, abuse, repeat requests, out-of-skill requests
(dev commands), and prohibited ("red") topics.  Tags are assigned by
phrase lexicons, which are data, not code: a lexicon directory holds one
file per label, one pattern per line; blank lines and lines starting with
``#`` are skipped.

Patterns and texts meet in one normal form: lowercase, single spaces
between words, none around them.  Loading a pattern normalizes it, and a
``Lexicon`` accepts no other form.  A lexicon matches a text when one of
its patterns occurs literally (``str.find``) in the normalized text with
no word character right before or after it.  With both sides normalized,
a space in a pattern can only meet the one space between two words, so
this literal search is exact.  A corpus is normalized and searched one
block of texts at a time (``corpus._TEXT_BLOCK``), so tagging holds no
copy of the whole corpus's texts.

MIDAS dialogue-act tags are deliberately never synthesized here; they
come from ingested logs only, since producing them requires the host
system's trained NLU.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from importlib.resources.abc import Traversable
from pathlib import Path, PurePath

import numpy as np

from .corpus import _TEXT_BLOCK, Corpus, _Interner, _tag_set, read_input

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
    """Immutable set of lexicons with unique labels."""

    def __init__(self, lexicons: list[Lexicon]):
        labels = [l.label for l in lexicons]
        if len(set(labels)) != len(labels):
            raise ValueError("lexicon labels must be unique")
        self.lexicons = tuple(lexicons)


def load_lexicon_file(path: Path | Traversable) -> Lexicon:
    """The lexicon a file holds, labelled with the file's stem."""
    lines = map(_normalize, read_input(path, "lexicon file").splitlines())
    patterns = tuple(line for line in lines if line and not line.startswith("#"))
    return Lexicon(label=PurePath(path.name).stem, patterns=patterns)


def load_lexicon_dir(path: str | Path | Traversable) -> TaggerConfig:
    """Load every ``*.txt`` file in a directory as one lexicon each, in
    name order.  A directory named ``*.txt`` is skipped, while a link to
    nothing is read and so refused as a missing file.  A path that is no
    directory is refused by name.  The directory may be any
    ``Traversable``, so the shipped lexicons load from a zip-imported
    package as well."""
    root = Path(path) if isinstance(path, str) else path
    if not root.is_dir():
        # A Traversable need not have exists(); one that is no file is missing.
        if getattr(root, "exists", root.is_file)():
            raise ValueError(f"lexicon directory {path} is not a directory")
        raise ValueError(f"missing lexicon directory: {path}")
    files = sorted((f for f in root.iterdir() if f.name.endswith(".txt") and not f.is_dir()),
                   key=lambda f: f.name)
    if not files:
        raise ValueError(f"no lexicon files (*.txt) found in {path}")
    return TaggerConfig([load_lexicon_file(f) for f in files])


def default_config() -> TaggerConfig:
    """Tagger over the shipped lexicons in ``convperf/data/lexicons``."""
    return load_lexicon_dir(resources.files("convperf") / "data" / "lexicons")


def _hits(texts: list[str], cfg: TaggerConfig) -> dict[str, np.ndarray]:
    """Per label, the ascending positions of the texts its lexicon matches
    once each text is normalized: as a run of whole words, by a literal
    search (see above).

    The search scans one block of ``_TEXT_BLOCK`` texts at a time, the
    block's normalized texts joined by newlines, and resumes one character
    past each occurrence, so overlapping ones are all seen ("a a" in
    "xa a a").  Normalizing turns every whitespace run into one space, so
    neither a normalized text nor a pattern holds a newline: no occurrence
    spans two texts, hence none spans two blocks, and the boundary test
    sees the newline as a text's edge.  Starts map to texts by their end
    offsets within the block."""
    word = _WORD.match
    hit = {lex.label: np.zeros(len(texts), dtype=bool) for lex in cfg.lexicons}
    for lo in range(0, len(texts), _TEXT_BLOCK):
        norms = [_normalize(t) for t in texts[lo : lo + _TEXT_BLOCK]]
        joined = "\n".join(norms)
        ends = np.cumsum([len(t) + 1 for t in norms], dtype=np.intp)
        find = joined.find
        for lex in cfg.lexicons:
            starts = []
            for p in lex.patterns:
                i = find(p)
                while i >= 0:
                    if not (i and word(joined, i - 1) or word(joined, i + len(p))):
                        starts.append(i)
                    i = find(p, i + 1)
            at = np.searchsorted(ends, np.array(starts, dtype=np.intp), side="right")
            hit[lex.label][lo + at] = True
    return {label: np.flatnonzero(h) for label, h in hit.items()}


def tag_corpus(corpus: Corpus, cfg: TaggerConfig, overwrite: bool = False) -> Corpus:
    """Re-derive per-exchange SDA tags from user utterances.

    With ``overwrite=False`` the derived tags are unioned with whatever
    the logs already carried; with ``overwrite=True`` they replace them.
    Returns ``corpus`` itself when no exchange's tags change, else a
    corpus that shares every column but ``sda``.
    """
    tags = _Interner(corpus.tagsets)
    codes = np.zeros_like(corpus.sda) if overwrite else corpus.sda.copy()
    for label, at in _hits(corpus.user, cfg).items():
        # Each distinct tag set at these exchanges gains the label.
        before, inverse = np.unique(codes[at], return_inverse=True)
        after = [tags.code(_tag_set(tags.values[c] + (label,))) for c in before.tolist()]
        codes[at] = np.array(after, dtype=codes.dtype)[inverse]
    if np.array_equal(codes, corpus.sda):
        return corpus
    return corpus._replace(sda=codes, tagsets=tuple(tags.values))
