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
``user``/``system`` strings, ``topic``/``rg`` integer codes into the
corpus's tables of distinct names, ``topic_names``/``rg_names``, and
``midas``/``sda`` integer codes into ``tagsets``, its table of distinct
tag sets (each a sorted, de-duplicated tuple; code 0 is the empty set).
Each table is filled by one :class:`_Interner`, so a distinct name or
tag set is validated and encoded once, not once per exchange.
``words``, each exchange's user word count, is counted from ``user``
with :func:`word_counts` the first time it is read, and kept.
:func:`parse_blocks` and :func:`convperf.synth.generate_blocks` fill
the columns directly, one block of ``_BLOCK`` (256) conversations at a
time, and both hold each repeated system text once: every exchange with
that text holds one string object (a parse shares the first
``_TEXT_BLOCK`` distinct texts).  Filtering, splitting and
:meth:`Corpus.subset` are index selections.  Records in the JSONL
schema, decoded, are the only way in from outside: each is validated as
it joins its block, :func:`parse_blocks` is line decoding plus that, and
:meth:`Corpus.from_records`, :func:`parse_corpus` and
:func:`convperf.synth.generate` join the blocks into one corpus.  A
corpus stage of the CLI (synth, ingest, tag, featurize) holds one block,
not the corpus; what carries from block to block is the ids seen, the
line number, the tables of names and tag sets, and the count of blank
user turns.  Every string must be encodable as UTF-8, so a lone
surrogate (which a JSON escape such as ``"\\ud800"`` can produce) is
refused there too.  A corpus fault is named at the first bad record, by
its line, whatever its block.
:class:`Exchange` and :class:`Conversation` are read-only output:
iterating a corpus yields :class:`Conversation` views whose
``exchanges`` build each :class:`Exchange` only when it is accessed.
Every file a command writes goes through :func:`open_output`, so a
failed write leaves no partial output and any earlier file intact, and
every file it reads through :func:`open_input` or :func:`read_input`.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from importlib.resources.abc import Traversable
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# Conversations longer than this are modeled as if they had this length.
LENGTH_CAP = 75

SPLIT_NAMES = ("train", "dev", "test")

# Conversations per block: parse_blocks and synth.generate_blocks yield
# blocks of this many, and a corpus stage of the CLI holds one block at a time.
_BLOCK = 256

# Conversations serialized per write() call, which bounds the text held.
_WRITE_BLOCK = 50

# Texts per block in word_counts, tagging._hits and Corpus._select: it bounds
# the temporary copies a pass over the texts holds (a joined block, its views,
# its normalized texts or Python ints).  It also bounds the table of system
# texts a parse shares (_Columns.system_texts).
_TEXT_BLOCK = 4096

# The non-ASCII characters for which str.isspace() is true.
_UNICODE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_TO_SPACE = str.maketrans(dict.fromkeys(_UNICODE_SPACES, " "))


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


class _Interner:
    """A table of distinct values; a value's code is its position in it."""

    def __init__(self, values=()):
        self.values = list(values)
        self.codes = {v: i for i, v in enumerate(self.values)}

    def code(self, value) -> int:
        code = self.codes.get(value)
        if code is None:
            code = self.codes[value] = len(self.values)
            self.values.append(value)
        return code


def word_counts(texts) -> np.ndarray:
    """Each text's whitespace-delimited word count (``len(text.split())``),
    a block of texts at a time, in the smallest unsigned dtype that holds
    the largest.

    A block of texts is joined with spaces, so no word spans two texts,
    and viewed one code point per element: bytes when it is ASCII,
    otherwise UTF-32 after its non-ASCII whitespace becomes a space.  A
    word starts at each non-space code point that follows a space or
    opens the block; each text counts the starts within its bounds.
    """
    counts = np.zeros(len(texts), np.intp)
    for lo in range(0, len(texts), _TEXT_BLOCK):
        block = texts[lo : lo + _TEXT_BLOCK]
        joined = " ".join(block)
        if joined.isascii():
            points = np.frombuffer(joined.encode("ascii"), np.uint8)
        else:
            wide = joined.translate(_TO_SPACE).encode("utf-32-le", "surrogatepass")
            points = np.frombuffer(wide, np.uint32)
        # str.split()'s ASCII whitespace, \t to \r and \x1c to the space;
        # unsigned subtraction wraps the code points below each range.
        space = (points - 9 <= 4) | (points - 28 <= 4)
        start = ~space
        start[1:] &= space[:-1]
        # Text i and the separator after it end just before ends[i].
        ends = np.cumsum(np.fromiter(map(len, block), np.intp, len(block)) + 1)
        at = np.searchsorted(np.flatnonzero(start), ends)
        counts[lo : lo + len(block)] = np.diff(at, prepend=0)
    return counts.astype(np.min_scalar_type(counts.max(initial=0)))


def _tag_set(tags) -> tuple:
    """A tag list as the corpus stores it: sorted and de-duplicated."""
    return tuple(sorted(set(tags)))


class _Columns:
    """Columns of a block under construction, appended conversation by
    conversation, and the tables their codes index.

    ``raw_codes`` maps each tag list already seen, as a tuple in input
    order, to its tag-set code.  The tables (and the shared system texts)
    go on from block to block through :meth:`fresh`, so every block of one
    parse codes a name or tag set alike."""

    def __init__(self, tables=None):
        self.ids: list[str] = []
        self.ratings: list[int | None] = []
        self.ends: list[int] = []
        self.topic: list[int] = []
        self.rg: list[int] = []
        self.user: list[str] = []
        self.system: list[str] = []
        self.midas: list[int] = []
        self.sda: list[int] = []
        # system_texts holds the first _TEXT_BLOCK distinct system texts, each
        # mapped to the one object every exchange with that text holds.
        self.system_texts, self.topics, self.rgs, self.tags, self.raw_codes = tables or (
            {}, _Interner(), _Interner(), _Interner([()]), {(): 0}
        )  # tag-set code 0 is the empty set

    def fresh(self) -> _Columns:
        """Empty columns that go on with these columns' tables."""
        return type(self)(
            (self.system_texts, self.topics, self.rgs, self.tags, self.raw_codes)
        )

    def corpus(self) -> Corpus:
        offsets = np.zeros(len(self.ends) + 1, dtype=np.intp)
        offsets[1:] = self.ends
        return Corpus._from_columns(
            self.ids, self.ratings, offsets,
            np.array(self.topic, np.int32), np.array(self.rg, np.int32),
            self.user, self.system,
            np.array(self.midas, np.int32), np.array(self.sda, np.int32),
            tuple(self.topics.values), tuple(self.rgs.values), tuple(self.tags.values),
            None,
        )


class Corpus:
    """Columnar conversations, optionally assigned to train/dev/test.

    Columns (read-only): ``ids``, ``ratings`` and ``offsets`` per
    conversation (conversation ``i`` owns exchanges ``offsets[i]`` to
    ``offsets[i + 1]``); ``topic``, ``rg``, ``user``, ``system``,
    ``midas`` and ``sda`` per exchange; the tables the codes index:
    ``topic_names`` (``topic``), ``rg_names`` (``rg``) and ``tagsets``
    (``midas`` and ``sda``); ``split``, each conversation's index into
    :data:`SPLIT_NAMES` (None when the corpus is not split); and
    ``words``, each exchange's user word count, counted from ``user``
    the first time it is read.  A corpus made from this one counts its
    own, and equality ignores ``words``, which ``user`` determines.

    :meth:`from_records` builds a corpus from outside the program.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Corpus with Corpus.from_records(records)")

    @classmethod
    def from_records(
        cls, records, split_assignment: dict[str, str] | None = None
    ) -> Corpus:
        """Validate decoded JSONL records and build their corpus, in order:
        the blocks of :func:`_blocks`, joined.

        Equal system texts share one string object, up to the first
        ``_TEXT_BLOCK`` distinct texts; the table that shares them is
        dropped once the corpus is built.

        Raises :class:`CorpusError` at the first bad record, naming its
        field (a lone surrogate included), which :func:`parse_corpus`
        names by its line; on a duplicate id; and on a split assignment
        that does not cover exactly the ids with known split names.
        """
        corpus = _join(_blocks(records))
        if split_assignment is not None:
            if split_assignment.keys() != set(corpus.ids):
                raise CorpusError("split assignment does not cover the id set")
            bad = set(split_assignment.values()) - set(SPLIT_NAMES)
            if bad:
                raise CorpusError(f"unknown split names: {sorted(bad)}")
            code = {s: k for k, s in enumerate(SPLIT_NAMES)}
            corpus.split = np.array(
                [code[split_assignment[i]] for i in corpus.ids], dtype=np.int8
            )
        return corpus

    @classmethod
    def _from_columns(
        cls, ids, ratings, offsets, topic, rg, user, system, midas, sda,
        topic_names, rg_names, tagsets, split,
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
        self.topic_names = topic_names
        self.rg_names = rg_names
        self.tagsets = tagsets
        self.split = split
        return self

    @cached_property
    def words(self) -> np.ndarray:
        """Each exchange's user word count; see :func:`word_counts`."""
        return word_counts(self.user)

    def _replace(self, **columns) -> Corpus:
        columns = dict(self.__dict__, **columns)
        columns.pop("words", None)  # the new corpus counts its own
        return Corpus._from_columns(**columns)

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
        """Every column as lists, codes resolved to the names and tag sets
        they index (codes depend on the order those were first seen)."""
        return (
            self.ids, self.ratings, self.offsets.tolist(),
            _decode(self.topic_names, self.topic), _decode(self.rg_names, self.rg),
            self.user, self.system,
            _decode(self.tagsets, self.midas), _decode(self.tagsets, self.sda),
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
            self.topic_names[self.topic[e]], self.rg_names[self.rg[e]],
            self.user[e], self.system[e],
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
        # The exchanges' strings, a block of positions at a time as Python ints.
        user, system = [], []
        for lo in range(0, len(picked), _TEXT_BLOCK):
            at = picked[lo : lo + _TEXT_BLOCK].tolist()
            user += map(self.user.__getitem__, at)
            system += map(self.system.__getitem__, at)
        rows_at = rows.tolist()
        return self._replace(
            ids=list(map(self.ids.__getitem__, rows_at)),
            ratings=list(map(self.ratings.__getitem__, rows_at)),
            offsets=offsets,
            topic=self.topic[picked],
            rg=self.rg[picked],
            user=user,
            system=system,
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


def _add_record(b: _Columns, obj) -> str:
    """Validate one decoded record and append it to the columns.

    A topic or rg name, or a tag list, is validated when its table first
    sees it.  Returns the conversation id.

    Checks, in order: the record's type; the id's type, then lone
    surrogates; the rating's type; the exchange list; per exchange, its
    type, its string fields' types, a new topic or rg name's surrogates,
    the midas then sda list, an empty topic; the user then system texts'
    surrogates, exchange by exchange; the rating's range.
    """
    if not isinstance(obj, dict):
        raise CorpusError("conversation record must be an object")
    cid = obj.get("id")
    if not isinstance(cid, str) or not cid:
        raise CorpusError("missing or invalid conversation id")
    if not _encodes(cid):
        raise CorpusError(f"conversation id {cid!r} holds a lone surrogate")
    rating = obj.get("rating")
    if rating is not None and (isinstance(rating, bool) or not isinstance(rating, int)):
        raise CorpusError(f"conversation {cid!r}: rating must be an integer")
    raw = obj.get("exchanges")
    if not isinstance(raw, list):
        raise CorpusError(f"conversation {cid!r}: exchanges must be a list")
    if not raw:
        raise CorpusError(f"conversation {cid!r} has no exchanges")
    topics, rgs, users, systems = b.topic, b.rg, b.user, b.system
    midas, sda, raw_codes = b.midas, b.sda, b.raw_codes
    topic_codes, rg_codes = b.topics.codes, b.rgs.codes
    shared = b.system_texts
    first = len(topics)
    for j, e in enumerate(raw):
        if type(e) is not dict and not isinstance(e, dict):
            raise CorpusError(f"exchange record must be an object{_at(cid, j)}")
        topic = e.get("topic", "")
        rg = e.get("rg", "")
        user = e.get("user", "")
        system = e.get("system", "")
        try:
            tc = topic_codes[topic]
            gc = rg_codes[rg]
        except (KeyError, TypeError):  # a name not seen yet, or not a string
            tc = None
        if tc is None or type(user) is not str or type(system) is not str:
            for key, value in zip(_STRING_FIELDS, (topic, rg, user, system)):
                if not isinstance(value, str):
                    raise CorpusError(
                        f"exchange field {key!r} must be a string{_at(cid, j)}"
                    )
            for key, name in (("topic", topic), ("rg", rg)):
                if not _encodes(name):
                    raise _lone_surrogate(key, cid, j)
            tc = b.topics.code(topic)
            gc = b.rgs.code(rg)
        m = e.get("midas", _NO_TAGS)
        s = e.get("sda", _NO_TAGS)
        try:
            mc = raw_codes[tuple(m)] if type(m) is list else None
        except (KeyError, TypeError):
            mc = None
        if mc is None:
            mc = _new_tag_code(b, m, "midas", cid, j)
        try:
            sc = raw_codes[tuple(s)] if type(s) is list else None
        except (KeyError, TypeError):
            sc = None
        if sc is None:
            sc = _new_tag_code(b, s, "sda", cid, j)
        if not topic:
            raise CorpusError(f"exchange topic must be non-empty{_at(cid, j)}")
        topics.append(tc)
        rgs.append(gc)
        users.append(user)
        text = shared.get(system)
        if text is None:
            text = system
            if len(shared) < _TEXT_BLOCK:
                shared[text] = text
        systems.append(text)
        midas.append(mc)
        sda.append(sc)
    if not _encodes("".join(users[first:]) + "".join(systems[first:])):
        for j, pair in enumerate(zip(users[first:], systems[first:])):
            for key, value in zip(("user", "system"), pair):
                if not _encodes(value):
                    raise _lone_surrogate(key, cid, j)
    if rating is not None and rating not in (1, 2, 3, 4, 5):
        raise CorpusError(f"conversation {cid!r}: rating out of range: {rating}")
    b.ids.append(cid)
    b.ratings.append(rating)
    b.ends.append(len(topics))
    return cid


def _at(cid: str, j: int) -> str:
    return f" (conversation {cid!r}, exchange {j})"


def _lone_surrogate(key: str, cid: str, j: int) -> CorpusError:
    return CorpusError(f"exchange field {key!r} holds a lone surrogate{_at(cid, j)}")


def _new_tag_code(b: _Columns, tags, key: str, cid: str, j: int) -> int:
    """Tag-set code of a new tag list, which must hold strings UTF-8 can encode."""
    if isinstance(tags, list):
        try:
            text = "".join(tags)  # a TypeError names an item that is not a string
        except TypeError:
            pass
        else:
            if not _encodes(text):
                raise _lone_surrogate(key, cid, j)
            code = b.raw_codes[tuple(tags)] = b.tags.code(_tag_set(tags))
            return code
    raise CorpusError(f"exchange field {key!r} must be a list of strings{_at(cid, j)}")


def _decode(table, codes: np.ndarray) -> list:
    """The table entry each code names."""
    return list(map(table.__getitem__, codes.tolist()))


def _encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: it holds no lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _refuse_escaped_bytes(line: str) -> None:
    """Refuse the first byte of ``line`` that is not UTF-8, read as a lone
    surrogate by ``errors="surrogateescape"``, naming its 1-based byte
    column in the file's line."""
    for i, char in enumerate(line):
        if "\udc80" <= char <= "\udcff":
            # No escaped byte comes before it; count the bytes that do.
            column = len(line[:i].encode("utf-8", "surrogatepass")) + 1
            raise CorpusError(
                f"not UTF-8: byte 0x{ord(char) - 0xDC00:02x} at byte column {column}"
            )


def _blocks(records):
    """Validate decoded records one at a time into blocks of at most
    ``_BLOCK`` conversations, and yield each block as a corpus, in order.

    What the blocks share goes on from one to the next: the ids seen, so a
    duplicate id is refused at its record whatever its block, and the
    tables (see :class:`_Columns`).  After the last block, one warning
    counts the blank user turns past each conversation's first exchange
    in all of them.
    """
    from itertools import islice

    records = iter(records)
    seen: set[str] = set()
    empty_user = 0
    b = _Columns()
    while True:
        for obj in islice(records, _BLOCK):
            cid = _add_record(b, obj)
            if cid in seen:
                raise CorpusError(f"duplicate conversation id {cid!r}")
            seen.add(cid)
        if not b.ids:
            break
        block = b.corpus()
        user = block.user
        empty_user += sum(1 for u in user if not u.strip()) - sum(
            1 for i in block.offsets[:-1].tolist() if not user[i].strip()
        )
        yield block
        b = b.fresh()
    if empty_user:
        # Real ASR logs contain blank user turns; tolerated outside exchange 0.
        logger.warning("parsed %d empty user utterances past exchange 0", empty_user)


def _join(blocks) -> Corpus:
    """One corpus of the blocks' conversations, in order.  Each block's
    tables extend the tables of the blocks before it, as one parse or one
    generator makes them, so the codes are kept and the last block's tables
    index them all."""
    ids, ratings, user, system, parts = [], [], [], [], []
    for last in blocks:
        ids += last.ids
        ratings += last.ratings
        user += last.user
        system += last.system
        parts.append((last.lengths(), last.topic, last.rg, last.midas, last.sda))
    if len(parts) < 2:
        return last if parts else _Columns().corpus()
    lengths, topic, rg, midas, sda = (np.concatenate(c) for c in zip(*parts))
    offsets = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return Corpus._from_columns(
        ids, ratings, offsets, topic, rg, user, system, midas, sda,
        last.topic_names, last.rg_names, last.tagsets, None,
    )


def parse_blocks(stream):
    """Parse line-delimited conversation records a block at a time.

    ``stream`` is any iterable of lines (an open file works).  Each line is
    decoded and validated in turn, and every ``_BLOCK`` conversations are
    yielded as one corpus (see :func:`_blocks`), so a caller that handles
    each block holds one, not the file.  Input order is preserved; blank
    lines are skipped.  A record's :class:`CorpusError` is prefixed with
    the 1-based number of its line, whatever its block.  A line JSON cannot
    decode is refused the same way, and so is a byte that is not UTF-8 when
    the stream was opened with ``errors="surrogateescape"``, which reads
    each such byte as a lone surrogate in U+DC80..U+DCFF.
    """
    lineno = 0

    def records():
        nonlocal lineno
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            if not _encodes(line):
                _refuse_escaped_bytes(line)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"invalid JSON: {e.msg}") from e
            except (ValueError, RecursionError) as e:
                # Too many digits in an integer, or nesting too deep.
                raise CorpusError(f"invalid JSON: {e}") from e
            yield obj

    try:
        yield from _blocks(records())
    except CorpusError as e:
        raise CorpusError(f"line {lineno}: {e}") from e


def parse_corpus(stream) -> Corpus:
    """Parse line-delimited conversation records: :func:`parse_blocks`,
    its blocks joined into one corpus."""
    return _join(parse_blocks(stream))


@contextmanager
def open_output(path, newline: str | None = None):
    """A UTF-8 text file for ``path``: a temporary file beside it that
    replaces ``path`` only when the ``with`` block succeeds, and is
    removed when it fails."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            e.filename = path  # name the file the caller asked for
        raise


def _input(path: str | Traversable, kind: str) -> Traversable:
    file = Path(path) if isinstance(path, str) else path
    if not file.is_file():
        if file.is_dir() or isinstance(file, Path) and file.exists():
            raise ValueError(f"{kind} {path} is not a file")
        raise ValueError(f"missing {kind}: {path}")
    return file


def open_input(path: str | Traversable, kind: str, newline: str | None = None):
    """``path``, a file of ``kind``, open as UTF-8 text for a reader that names
    a byte that is not UTF-8 by its line: ``errors="surrogateescape"`` reads
    each such byte as a lone surrogate in U+DC80..U+DCFF."""
    return _input(path, kind).open(encoding="utf-8", errors="surrogateescape",
                                   newline=newline)


def read_input(path: str | Traversable, kind: str, as_json: bool = False):
    """The text of ``path``, a file of ``kind`` (e.g. "config file") read
    whole, or with ``as_json`` the JSON object it holds.  A ValueError names
    each fault in one wording; README's "Input files" lists them."""
    data = _input(path, kind).read_bytes()
    try:
        text = data.decode("utf-8")
        if not as_json:
            return text
        obj = json.loads(text)
    except UnicodeDecodeError as e:
        raise ValueError(f"{kind} {path} is not UTF-8: "
                         f"byte 0x{e.object[e.start]:02x} at byte {e.start}") from None
    except (ValueError, RecursionError) as e:  # bad syntax, over 4,300 digits, too deep
        raise ValueError(f"{kind} {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} {path} must hold a JSON object")
    return obj


_EXCHANGE_JSON = (
    '{"topic": %s, "rg": %s, "user": %s, "system": %s, "midas": %s, "sda": %s}'
)


def write_corpus_jsonl(corpus: Corpus, fh) -> None:
    """Serialize a corpus to the JSONL schema (lossless round-trip).

    Each line holds the record's keys in schema order, tag lists sorted
    and de-duplicated, as ``json.dumps(record, ensure_ascii=False)``
    writes it; the lines are assembled from the columns, each table entry
    encoded once.
    """
    enc = encode_basestring
    topic_json = list(map(enc, corpus.topic_names))
    rg_json = list(map(enc, corpus.rg_names))
    tag_json = [json.dumps(list(t), ensure_ascii=False) for t in corpus.tagsets]
    offsets = corpus.offsets.tolist()
    for first in range(0, len(corpus), _WRITE_BLOCK):
        last = min(first + _WRITE_BLOCK, len(corpus))
        a, b = offsets[first], offsets[last]
        exchanges = list(map(_EXCHANGE_JSON.__mod__, zip(
            map(topic_json.__getitem__, corpus.topic[a:b].tolist()),
            map(rg_json.__getitem__, corpus.rg[a:b].tolist()),
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
    check_min_length(min_len)
    return corpus._select(np.flatnonzero(corpus.lengths() >= min_len))


def check_min_length(min_len: int) -> None:
    """Refuse a minimum length below 1, as :func:`filter_min_length` does."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")


def check_split(ratios: tuple[float, float, float]) -> None:
    """Refuse split ratios outside [0, 1] or not summing to 1, as
    :func:`assign_splits` does."""
    if not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must lie in [0, 1] and sum to 1, got {ratios}")


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
    return corpus._replace(split=assign_splits(len(corpus), ratios, seed))


def assign_splits(
    n: int, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1), seed: int = 0
) -> np.ndarray:
    """Each of ``n`` conversations' index into :data:`SPLIT_NAMES`, as
    :func:`split_corpus` assigns them to a corpus of ``n``."""
    check_split(ratios)
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
    return split
