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
must be lists of strings.  They are sets: they are written back sorted
and de-duplicated.

A :class:`Corpus` is columnar.  It holds per-conversation ids, ratings
and CSR (compressed sparse row) offsets into per-exchange columns:
``topic``/``rg``/``user``/``system`` strings, and ``midas``/``sda``
integer codes into ``tagsets``, the corpus's table of distinct tag sets
(each a sorted, de-duplicated tuple; code 0 is the empty set).
:func:`parse_corpus` and :func:`convperf.synth.generate` fill the
columns directly; filtering, splitting and :meth:`Corpus.subset` are
index selections.  Records in the JSONL schema, decoded, are the only
way in from outside: :meth:`Corpus.from_records` validates them, and
:func:`parse_corpus` is line decoding plus that constructor.
:class:`Exchange` and :class:`Conversation` are read-only output:
iterating a corpus yields :class:`Conversation` views whose
``exchanges`` build each :class:`Exchange` only when it is accessed.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

logger = logging.getLogger(__name__)

# Conversations longer than this are modeled as if they had this length.
LENGTH_CAP = 75

SPLIT_NAMES = ("train", "dev", "test")

# Conversations serialized per write() call, which bounds the text held.
_WRITE_BLOCK = 200


class CorpusError(ValueError):
    """Malformed conversation record or corpus-level invariant violation."""


@dataclass(frozen=True)
class Exchange:
    """Read-only view of one user/system utterance pair in a corpus."""

    topic: str
    response_generator: str
    user_text: str
    system_text: str
    midas_tags: frozenset[str]
    sda_tags: frozenset[str]


@dataclass(frozen=True)
class Conversation:
    """Read-only view of one conversation in a corpus."""

    id: str
    exchanges: Sequence[Exchange]
    rating: int | None


class _Exchanges(Sequence):
    """One conversation's exchanges in a corpus; each is built on access."""

    __slots__ = ("_corpus", "_start", "_stop")

    def __init__(self, corpus: Corpus, start: int, stop: int):
        self._corpus = corpus
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i: int) -> Exchange:
        n = self._stop - self._start
        if not -n <= i < n:
            raise IndexError("exchange index out of range")
        return self._corpus._exchange(self._start + i % n)


class _TagSets:
    """Distinct tag sets, each a sorted, de-duplicated tuple; code 0 is ()."""

    def __init__(self, sets=((),)):
        self.sets = list(sets)
        self.codes = {s: i for i, s in enumerate(self.sets)}

    def code(self, tags) -> int:
        key = tuple(sorted(set(tags)))
        code = self.codes.get(key)
        if code is None:
            code = self.codes[key] = len(self.sets)
            self.sets.append(key)
        return code


class _Columns:
    """Columns of a corpus under construction, appended conversation by
    conversation."""

    def __init__(self):
        self.ids: list[str] = []
        self.ratings: list[int | None] = []
        self.ends: list[int] = []
        self.topic: list[str] = []
        self.rg: list[str] = []
        self.user: list[str] = []
        self.system: list[str] = []
        self.midas: list[int] = []
        self.sda: list[int] = []
        self.tags = _TagSets()

    def corpus(self) -> Corpus:
        offsets = np.zeros(len(self.ends) + 1, dtype=np.intp)
        offsets[1:] = self.ends
        return Corpus._from_columns(
            self.ids, self.ratings, offsets,
            self.topic, self.rg, self.user, self.system,
            np.array(self.midas, dtype=np.int32), np.array(self.sda, dtype=np.int32),
            tuple(self.tags.sets), None,
        )


class Corpus:
    """Columnar conversations, optionally assigned to train/dev/test.

    Columns (read-only): ``ids``, ``ratings`` and ``offsets`` per
    conversation (conversation ``i`` owns exchanges ``offsets[i]`` to
    ``offsets[i + 1]``); ``topic``, ``rg``, ``user``, ``system``,
    ``midas`` and ``sda`` per exchange; ``tagsets``, the tag-set table
    the ``midas``/``sda`` codes index; and ``split``, each
    conversation's index into :data:`SPLIT_NAMES` (None when the corpus
    is not split).

    :meth:`from_records` builds a corpus from outside the program.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Corpus with Corpus.from_records(records)")

    @classmethod
    def from_records(
        cls, records, split_assignment: dict[str, str] | None = None
    ) -> Corpus:
        """Validate decoded JSONL records and build their corpus, in order.

        Raises :class:`CorpusError` naming the field of the first bad
        record, on a duplicate id, and on a split assignment that does
        not cover exactly the ids with known split names.
        """
        b = _Columns()
        raw_codes = {(): 0}  # code 0 is the empty tag set
        seen: set[str] = set()
        for obj in records:
            cid = _add_record(b, raw_codes, obj)
            if cid in seen:
                raise CorpusError(f"duplicate conversation id {cid!r}")
            seen.add(cid)
        corpus = b.corpus()
        if split_assignment is not None:
            if split_assignment.keys() != seen:
                raise CorpusError("split assignment does not cover the id set")
            bad = set(split_assignment.values()) - set(SPLIT_NAMES)
            if bad:
                raise CorpusError(f"unknown split names: {sorted(bad)}")
            code = {s: k for k, s in enumerate(SPLIT_NAMES)}
            corpus.split = np.array(
                [code[split_assignment[i]] for i in corpus.ids], dtype=np.int8
            )
        # Blank user turns past each conversation's first exchange.
        user = corpus.user
        empty_user = sum(1 for u in user if not u.strip()) - sum(
            1 for i in corpus.offsets[:-1].tolist() if not user[i].strip()
        )
        if empty_user:
            # Real ASR logs contain blank user turns; tolerated outside exchange 0.
            logger.warning("parsed %d empty user utterances past exchange 0", empty_user)
        return corpus

    @classmethod
    def _from_columns(
        cls, ids, ratings, offsets, topic, rg, user, system, midas, sda, tagsets, split
    ) -> Corpus:
        self = cls.__new__(cls)
        self.ids = ids
        self.ratings = ratings
        self.offsets = offsets
        self.topic = topic
        self.rg = rg
        self.user = user
        self.system = system
        self.midas = midas
        self.sda = sda
        self.tagsets = tagsets
        self.split = split
        return self

    def _replace(self, **columns) -> Corpus:
        return Corpus._from_columns(**dict(self.__dict__, **columns))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(self._conversation, range(len(self.ids)))

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def _key(self) -> tuple:
        """Every column as lists, tag-set codes resolved to their sets
        (codes depend on the order the sets were first seen)."""
        sets = self.tagsets
        return (
            self.ids, self.ratings, self.offsets.tolist(),
            self.topic, self.rg, self.user, self.system,
            [sets[c] for c in self.midas.tolist()], [sets[c] for c in self.sda.tolist()],
            None if self.split is None else self.split.tolist(),
        )

    def __repr__(self) -> str:
        return f"<Corpus: {len(self)} conversations, {len(self.topic)} exchanges>"

    @property
    def split_assignment(self) -> dict[str, str] | None:
        """Conversation id -> split name, or None when not split."""
        if self.split is None:
            return None
        return dict(zip(self.ids, map(SPLIT_NAMES.__getitem__, self.split.tolist())))

    def lengths(self) -> np.ndarray:
        """Raw length (exchange count) of each conversation."""
        return np.diff(self.offsets)

    def capped_lengths(self) -> list[int]:
        return np.minimum(self.lengths(), LENGTH_CAP).tolist()

    def _conversation(self, i: int) -> Conversation:
        start, stop = int(self.offsets[i]), int(self.offsets[i + 1])
        return Conversation(self.ids[i], _Exchanges(self, start, stop), self.ratings[i])

    def _exchange(self, e: int) -> Exchange:
        return Exchange(
            self.topic[e], self.rg[e], self.user[e], self.system[e],
            frozenset(self.tagsets[self.midas[e]]), frozenset(self.tagsets[self.sda[e]]),
        )

    def _select(self, rows: np.ndarray) -> Corpus:
        """The conversations at ``rows`` (ascending positions), columns and all."""
        starts = self.offsets[rows]
        sizes = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        # Position of each kept exchange in this corpus's columns.
        picked = np.arange(offsets[-1], dtype=np.intp)
        picked += np.repeat(starts - offsets[:-1], sizes)
        at = picked.tolist()
        rows_at = rows.tolist()
        return self._replace(
            ids=list(map(self.ids.__getitem__, rows_at)),
            ratings=list(map(self.ratings.__getitem__, rows_at)),
            offsets=offsets,
            topic=list(map(self.topic.__getitem__, at)),
            rg=list(map(self.rg.__getitem__, at)),
            user=list(map(self.user.__getitem__, at)),
            system=list(map(self.system.__getitem__, at)),
            midas=self.midas[picked],
            sda=self.sda[picked],
            split=None if self.split is None else self.split[rows],
        )

    def split_rows(self, split: str) -> np.ndarray:
        """Positions of the conversations assigned to one split, ascending."""
        if self.split is None:
            raise CorpusError("corpus has no split assignment")
        if split not in SPLIT_NAMES:
            raise CorpusError(f"unknown split name: {split!r}")
        return np.flatnonzero(self.split == SPLIT_NAMES.index(split))

    def subset(self, split: str) -> Corpus:
        """Conversations assigned to one split, in corpus order."""
        return self._select(self.split_rows(split))


_STRING_FIELDS = ("topic", "rg", "user", "system")
_NO_TAGS: list = []  # a missing tag list; read, never mutated


def _add_record(b: _Columns, raw_codes: dict, obj) -> str:
    """Validate one decoded record and append it to the columns.

    ``raw_codes`` maps each tag list already seen, as a tuple in input
    order, to its tag-set code.  Returns the conversation id.
    """
    if not isinstance(obj, dict):
        raise CorpusError("conversation record must be an object")
    cid = obj.get("id")
    if not isinstance(cid, str) or not cid:
        raise CorpusError("missing or invalid conversation id")
    rating = obj.get("rating")
    if rating is not None and (isinstance(rating, bool) or not isinstance(rating, int)):
        raise CorpusError(f"conversation {cid!r}: rating must be an integer")
    raw = obj.get("exchanges")
    if not isinstance(raw, list):
        raise CorpusError(f"conversation {cid!r}: exchanges must be a list")
    if not raw:
        raise CorpusError(f"conversation {cid!r} has no exchanges")
    topics, rgs, users, systems = b.topic, b.rg, b.user, b.system
    midas, sda = b.midas, b.sda
    for j, e in enumerate(raw):
        if type(e) is not dict and not isinstance(e, dict):
            raise CorpusError(f"exchange record must be an object{_at(cid, j)}")
        fields = (
            e.get("topic", ""), e.get("rg", ""), e.get("user", ""), e.get("system", "")
        )
        topic, rg, user, system = fields
        if not (
            type(topic) is str and type(rg) is str
            and type(user) is str and type(system) is str
        ):
            for key, value in zip(_STRING_FIELDS, fields):
                if not isinstance(value, str):
                    raise CorpusError(
                        f"exchange field {key!r} must be a string{_at(cid, j)}"
                    )
        m = e.get("midas", _NO_TAGS)
        s = e.get("sda", _NO_TAGS)
        try:
            mc = raw_codes[tuple(m)] if type(m) is list else None
        except (KeyError, TypeError):
            mc = None
        if mc is None:
            mc = _new_tag_code(b, raw_codes, m, "midas", cid, j)
        try:
            sc = raw_codes[tuple(s)] if type(s) is list else None
        except (KeyError, TypeError):
            sc = None
        if sc is None:
            sc = _new_tag_code(b, raw_codes, s, "sda", cid, j)
        if not topic:
            raise CorpusError(f"exchange topic must be non-empty{_at(cid, j)}")
        topics.append(topic)
        rgs.append(rg)
        users.append(user)
        systems.append(system)
        midas.append(mc)
        sda.append(sc)
    if rating is not None and rating not in (1, 2, 3, 4, 5):
        raise CorpusError(f"conversation {cid!r}: rating out of range: {rating}")
    b.ids.append(cid)
    b.ratings.append(rating)
    b.ends.append(len(topics))
    return cid


def _at(cid: str, j: int) -> str:
    return f" (conversation {cid!r}, exchange {j})"


def _new_tag_code(b: _Columns, raw_codes: dict, tags, key: str, cid: str, j: int) -> int:
    """Tag-set code of a tag list not seen before, which must hold strings."""
    if isinstance(tags, list):
        try:
            "".join(tags)  # a TypeError names any item that is not a string
        except TypeError:
            pass
        else:
            code = raw_codes[tuple(tags)] = b.tags.code(tags)
            return code
    raise CorpusError(
        f"exchange field {key!r} must be a list of strings{_at(cid, j)}"
    )


def parse_corpus(stream) -> Corpus:
    """Parse line-delimited conversation records.

    ``stream`` is any iterable of lines (an open file works).  Input order
    is preserved; blank lines are skipped.  Each line is decoded and the
    records go through :meth:`Corpus.from_records`, whose
    :class:`CorpusError` is prefixed with the 1-based number of the line
    it names.
    """
    lineno = 0

    def records():
        nonlocal lineno
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"invalid JSON: {e.msg}") from e
            yield obj

    try:
        return Corpus.from_records(records())
    except CorpusError as e:
        raise CorpusError(f"line {lineno}: {e}") from e


_EXCHANGE_JSON = (
    '{"topic": %s, "rg": %s, "user": %s, "system": %s, "midas": %s, "sda": %s}'
)


def write_corpus_jsonl(corpus: Corpus, fh) -> None:
    """Serialize a corpus to the JSONL schema (lossless round-trip).

    Each line holds the record's keys in schema order, tag lists sorted
    and de-duplicated, as ``json.dumps(record, ensure_ascii=False)``
    writes it; the lines are assembled from the columns.
    """
    enc = encode_basestring
    tag_json = [json.dumps(list(t), ensure_ascii=False) for t in corpus.tagsets]
    offsets = corpus.offsets.tolist()
    for first in range(0, len(corpus), _WRITE_BLOCK):
        last = min(first + _WRITE_BLOCK, len(corpus))
        a, b = offsets[first], offsets[last]
        exchanges = list(map(_EXCHANGE_JSON.__mod__, zip(
            map(enc, corpus.topic[a:b]),
            map(enc, corpus.rg[a:b]),
            map(enc, corpus.user[a:b]),
            map(enc, corpus.system[a:b]),
            map(tag_json.__getitem__, corpus.midas[a:b].tolist()),
            map(tag_json.__getitem__, corpus.sda[a:b].tolist()),
        )))
        lines = []
        for i in range(first, last):
            rating = corpus.ratings[i]
            lines.append(
                '{"id": %s, "rating": %s, "exchanges": [%s]}\n' % (
                    enc(corpus.ids[i]),
                    "null" if rating is None else int.__repr__(rating),
                    ", ".join(exchanges[offsets[i] - a : offsets[i + 1] - a]),
                )
            )
        fh.write("".join(lines))


def filter_min_length(corpus: Corpus, min_len: int = 5) -> Corpus:
    """Drop conversations shorter than ``min_len`` exchanges.

    Very short conversations are mostly accidental invocations whose
    ratings say little about dialogue quality.  Order is preserved and
    the operation is idempotent.  Any split assignment is restricted to
    the surviving ids.
    """
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    return corpus._select(np.flatnonzero(corpus.lengths() >= min_len))


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
    if not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must lie in [0, 1] and sum to 1, got {ratios}")
    n = len(corpus)
    if n < 3:
        raise CorpusError(f"need at least 3 conversations to split, got {n}")
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_dev - n_test
    order = np.random.default_rng(seed).permutation(n)
    split = np.empty(n, dtype=np.int8)
    split[order[:n_train]] = 0
    split[order[n_train : n_train + n_dev]] = 1
    split[order[n_train + n_dev :]] = 2
    return corpus._replace(split=split)
