"""Lexicon-based social dialogue act (SDA) tagging of user utterances.

SDAs label user behaviors that proxy satisfaction or dissatisfaction:
compliments, complaints, abuse, repeat requests, out-of-skill requests
(dev commands), and prohibited ("red") topics.  Tags are assigned by
phrase lexicons, which are data, not code: a lexicon directory holds one
file per label, one lowercase pattern per line; blank lines and lines
starting with ``#`` are skipped.

MIDAS dialogue-act tags are deliberately never synthesized here; they
come from ingested logs only, since producing them requires the host
system's trained NLU.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .corpus import Conversation, Corpus

WHOLE_UTTERANCE = "whole_utterance"
WORD_BOUNDARY = "word_boundary"

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
            if not p or p != p.strip() or p != p.lower():
                raise ValueError(
                    f"lexicon {self.label!r}: patterns must be lowercase with no "
                    f"surrounding whitespace, got {p!r}"
                )


def _compile(lex: Lexicon) -> re.Pattern:
    # Word-boundary containment: pattern words appear as a contiguous run.
    # Plain \b misbehaves next to non-word characters ("a.i."), so use
    # explicit non-word lookarounds and flexible inner whitespace.
    alts = "|".join(re.escape(p).replace(r"\ ", r"\s+") for p in lex.patterns)
    return re.compile(rf"(?<!\w)(?:{alts})(?!\w)")


class TaggerConfig:
    """Immutable set of lexicons plus the match mode."""

    def __init__(self, lexicons: list[Lexicon], match_mode: str = WORD_BOUNDARY):
        if match_mode not in (WHOLE_UTTERANCE, WORD_BOUNDARY):
            raise ValueError(f"unknown match mode: {match_mode!r}")
        labels = [l.label for l in lexicons]
        if len(set(labels)) != len(labels):
            raise ValueError("lexicon labels must be unique")
        self.lexicons = tuple(lexicons)
        self.match_mode = match_mode
        self._regexes = {l.label: _compile(l) for l in lexicons}
        self._exact = {l.label: frozenset(l.patterns) for l in lexicons}

    def labels(self) -> tuple[str, ...]:
        return tuple(l.label for l in self.lexicons)


def load_lexicon_file(path: Path, label: str | None = None) -> Lexicon:
    patterns = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
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
    norm = _normalize(text)
    if not norm:
        return frozenset()
    if cfg.match_mode == WHOLE_UTTERANCE:
        return frozenset(
            label for label, pats in cfg._exact.items() if norm in pats
        )
    return frozenset(
        label for label, rx in cfg._regexes.items() if rx.search(norm)
    )


def tag_conversation(
    conv: Conversation, cfg: TaggerConfig, overwrite: bool = False
) -> Conversation:
    exchanges = list(conv.exchanges)
    changed = False
    for i, ex in enumerate(exchanges):
        tags = tag_utterance(ex.user_text, cfg)
        if not overwrite:
            tags = tags | ex.sda_tags
        if tags != ex.sda_tags:
            exchanges[i] = replace(ex, sda_tags=tags)
            changed = True
    if not changed:
        return conv
    return replace(conv, exchanges=tuple(exchanges))


def tag_corpus(corpus: Corpus, cfg: TaggerConfig, overwrite: bool = False) -> Corpus:
    """Re-derive per-exchange SDA tags from user utterances.

    With ``overwrite=False`` the derived tags are unioned with whatever
    the logs already carried; with ``overwrite=True`` they replace them.
    """
    return replace(
        corpus,
        conversations=tuple(
            tag_conversation(c, cfg, overwrite=overwrite) for c in corpus
        ),
    )
