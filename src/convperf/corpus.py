"""Conversation data model and JSONL log ingestion.

A conversation is an ordered list of exchanges (one user utterance paired
with one system utterance), optionally carrying an end-of-conversation
rating in 1..5.  Lengths are counted in exchanges and capped at
``LENGTH_CAP`` for modeling, so the long tail of very long conversations
does not dominate.

JSONL schema, one conversation per line::

    {"id": str, "rating": int|null,
     "exchanges": [{"topic": str, "rg": str, "user": str, "system": str,
                    "midas": [str], "sda": [str]}]}

``midas``/``sda`` are optional and default to empty; when present they
must be lists of strings.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)

# Conversations longer than this are modeled as if they had this length.
LENGTH_CAP = 75

SPLIT_NAMES = ("train", "dev", "test")


class CorpusError(ValueError):
    """Malformed conversation record or corpus-level invariant violation."""


@dataclass(frozen=True)
class Exchange:
    """One user/system utterance pair."""

    index: int
    topic: str
    response_generator: str
    user_text: str
    system_text: str
    midas_tags: frozenset[str] = frozenset()
    sda_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.topic:
            raise CorpusError("exchange topic must be non-empty")


@dataclass(frozen=True)
class Conversation:
    id: str
    exchanges: tuple[Exchange, ...]
    rating: int | None = None

    def __post_init__(self):
        if not self.exchanges:
            raise CorpusError(f"conversation {self.id!r} has no exchanges")
        for i, ex in enumerate(self.exchanges):
            if ex.index != i:
                raise CorpusError(
                    f"conversation {self.id!r}: exchange index {ex.index} at "
                    f"position {i} (indices must be contiguous from 0)"
                )
        if self.rating is not None and self.rating not in (1, 2, 3, 4, 5):
            raise CorpusError(
                f"conversation {self.id!r}: rating out of range: {self.rating}"
            )

    @property
    def raw_length(self) -> int:
        return len(self.exchanges)

    @property
    def capped_length(self) -> int:
        return min(self.raw_length, LENGTH_CAP)


@dataclass(frozen=True)
class Corpus:
    conversations: tuple[Conversation, ...]
    split_assignment: dict[str, str] | None = None

    def __post_init__(self):
        ids = [c.id for c in self.conversations]
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise CorpusError(f"duplicate conversation id: {dup!r}")
        if self.split_assignment is not None:
            assigned = set(self.split_assignment)
            if assigned != set(ids):
                raise CorpusError("split assignment does not cover the id set")
            bad = set(self.split_assignment.values()) - set(SPLIT_NAMES)
            if bad:
                raise CorpusError(f"unknown split names: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.conversations)

    def __iter__(self):
        return iter(self.conversations)

    def subset(self, split: str) -> tuple[Conversation, ...]:
        """Conversations assigned to one split, in corpus order."""
        if self.split_assignment is None:
            raise CorpusError("corpus has no split assignment")
        if split not in SPLIT_NAMES:
            raise CorpusError(f"unknown split name: {split!r}")
        return tuple(
            c for c in self.conversations if self.split_assignment[c.id] == split
        )


def _parse_exchange(index: int, obj: dict) -> Exchange:
    if not isinstance(obj, dict):
        raise CorpusError("exchange record must be an object")
    for key in ("topic", "rg", "user", "system"):
        if key in obj and not isinstance(obj[key], str):
            raise CorpusError(f"exchange field {key!r} must be a string")
    # Positional, in field order: the keyword form costs more per exchange.
    return Exchange(
        index,
        obj.get("topic", ""),
        obj.get("rg", ""),
        obj.get("user", ""),
        obj.get("system", ""),
        _tag_set(obj, "midas"),
        _tag_set(obj, "sda"),
    )


def _tag_set(obj: dict, key: str) -> frozenset[str]:
    tags = obj.get(key, [])
    if isinstance(tags, list):
        try:
            "".join(tags)  # a TypeError names any item that is not a string
            return frozenset(tags)
        except TypeError:
            pass
    raise CorpusError(f"exchange field {key!r} must be a list of strings")


def conversation_from_record(obj: dict) -> Conversation:
    """Build a Conversation from one decoded JSONL record."""
    cid = obj.get("id")
    if not isinstance(cid, str) or not cid:
        raise CorpusError("missing or invalid conversation id")
    rating = obj.get("rating")
    if rating is not None and (isinstance(rating, bool) or not isinstance(rating, int)):
        raise CorpusError(f"conversation {cid!r}: rating must be an integer")
    raw = obj.get("exchanges")
    if not isinstance(raw, list):
        raise CorpusError(f"conversation {cid!r}: exchanges must be a list")
    exchanges = tuple(_parse_exchange(i, e) for i, e in enumerate(raw))
    return Conversation(id=cid, exchanges=exchanges, rating=rating)


def parse_corpus(stream) -> Corpus:
    """Parse line-delimited conversation records.

    ``stream`` is any iterable of lines (an open file works).  Input order
    is preserved; blank lines are skipped.  Raises :class:`CorpusError`
    carrying the 1-based line number on the first malformed line, and on
    duplicate ids.
    """
    conversations = []
    seen: set[str] = set()
    empty_user = 0
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"line {lineno}: invalid JSON: {e.msg}") from e
        try:
            conv = conversation_from_record(obj)
        except CorpusError as e:
            raise CorpusError(f"line {lineno}: {e}") from e
        if conv.id in seen:
            raise CorpusError(f"line {lineno}: duplicate conversation id {conv.id!r}")
        seen.add(conv.id)
        empty_user += sum(1 for ex in conv.exchanges[1:] if not ex.user_text.strip())
        conversations.append(conv)
    if empty_user:
        # Real ASR logs contain blank user turns; tolerated outside exchange 0.
        logger.warning("parsed %d empty user utterances past exchange 0", empty_user)
    return Corpus(conversations=tuple(conversations))


def conversation_to_record(conv: Conversation) -> dict:
    return {
        "id": conv.id,
        "rating": conv.rating,
        "exchanges": [
            {
                "topic": ex.topic,
                "rg": ex.response_generator,
                "user": ex.user_text,
                "system": ex.system_text,
                "midas": sorted(ex.midas_tags),
                "sda": sorted(ex.sda_tags),
            }
            for ex in conv.exchanges
        ],
    }


def write_corpus_jsonl(corpus: Corpus, fh) -> None:
    """Serialize a corpus to the JSONL schema (lossless round-trip)."""
    for conv in corpus:
        fh.write(json.dumps(conversation_to_record(conv), ensure_ascii=False))
        fh.write("\n")


def filter_min_length(corpus: Corpus, min_len: int = 5) -> Corpus:
    """Drop conversations shorter than ``min_len`` exchanges.

    Very short conversations are mostly accidental invocations whose
    ratings say little about dialogue quality.  Order is preserved and
    the operation is idempotent.  Any split assignment is restricted to
    the surviving ids.
    """
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    kept = tuple(c for c in corpus if c.raw_length >= min_len)
    assignment = None
    if corpus.split_assignment is not None:
        kept_ids = {c.id for c in kept}
        assignment = {
            i: s for i, s in corpus.split_assignment.items() if i in kept_ids
        }
    return Corpus(conversations=kept, split_assignment=assignment)


def split_corpus(
    corpus: Corpus,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> Corpus:
    """Assign train/dev/test splits by shuffled-id assignment.

    Sizes are floor(n * ratio) for dev and test with the remainder going
    to train.  The assignment depends only on the id order and the seed,
    never on conversation content.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    n = len(corpus)
    if n < 3:
        raise CorpusError(f"need at least 3 conversations to split, got {n}")
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_dev - n_test
    ids = [c.id for c in corpus]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignment: dict[str, str] = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            split = "train"
        elif pos < n_train + n_dev:
            split = "dev"
        else:
            split = "test"
        assignment[ids[idx]] = split
    return replace(corpus, split_assignment=assignment)
