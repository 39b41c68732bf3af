"""Per-conversation feature extraction and z-score standardization.

Every feature is a frequency or a median, never a raw count, so feature
vectors cannot indirectly encode conversation length: duplicating every
exchange of a conversation leaves its feature vector unchanged.  Two
feature sets are supported:

* ``independent``: utterance-level features computable for any dialogue
  system (median user words, SDA frequencies, MIDAS frequencies).
* ``dependent``: the independent set plus system-specific topic and
  response-generator frequencies and the per-topic dwell median.  It is
  the union of both kinds, so there is no separate union set.

:func:`build_matrix` is the public way to turn a corpus into feature
values.  It encodes the corpus once into a columnar
:class:`FeatureTable` and asks it for one matrix: counts come from
``np.bincount`` over the integer codes in each window and are divided by
the window length, the medians come from sorted per-row segments, and
column positions come from :meth:`FeatureSchema.names`.  User word
counts come from :func:`word_counts`, which counts a block of texts at a
time; :func:`word_count` is its one-text definition.  Callers that need
several matrices over the same conversations keep the table and call
:meth:`FeatureTable.matrix` for each: :func:`convperf.experiment.run_grid`
encodes the whole split corpus into one table, builds each distinct
window's matrix once and selects every split's rows from it.
Standardizers are fitted on training vectors only and applied unchanged
to dev/test.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus import Corpus

logger = logging.getLogger(__name__)

INDEPENDENT = "independent"
DEPENDENT = "dependent"
FEATURE_SETS = (INDEPENDENT, DEPENDENT)

DEFAULT_TOPICS = (
    "movies",
    "music",
    "animals",
    "video_games",
    "hobbies",
    "sports",
    "tv",
    "books",
    "food",
    "travel",
    "astronomy",
    "nutrition",
    "comics",
    "news",
    "harry_potter",
    "intro",
    "other",
)

DEFAULT_SDA_LABELS = (
    "sda_compliment",
    "sda_complaint",
    "sda_abuse",
    "sda_repeat",
    "sda_dev_command",
    "sda_red_topic",
)

DEFAULT_MIDAS_LABELS = (
    "user_init",
    "sys_init",
    "pos_answer",
    "neg_answer",
)

DEFAULT_RESPONSE_GENERATORS = (
    "intro",
    "menu",
    "fact",
    "opinion",
    "question",
    "other",
)

_warned_unknown: set[tuple[str, str]] = set()


def _catchall(kind: str, value: str) -> str:
    """The catch-all for a value missing from the schema, warned once."""
    key = (kind, value)
    if key not in _warned_unknown:
        _warned_unknown.add(key)
        logger.warning("unknown %s %r mapped to 'other'", kind, value)
    return "other"


def word_count(text: str) -> int:
    """Whitespace-delimited token count after trimming."""
    return len(text.split())


# Texts per block in word_counts; it bounds the joined text and its views.
_WORD_BLOCK = 4096

# The non-ASCII characters for which str.isspace() is true.
_UNICODE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_TO_SPACE = str.maketrans(dict.fromkeys(_UNICODE_SPACES, " "))


def word_counts(texts) -> np.ndarray:
    """:func:`word_count` of each of a list of texts, a block at a time.

    A block of texts is joined with spaces, so no word spans two texts,
    and viewed one code point per element: bytes when it is ASCII,
    otherwise UTF-32 after its non-ASCII whitespace becomes a space.  A
    word starts at each non-space code point that follows a space or
    opens the block; each text counts the starts within its bounds.
    """
    counts = np.zeros(len(texts), np.intp)
    for lo in range(0, len(texts), _WORD_BLOCK):
        block = texts[lo : lo + _WORD_BLOCK]
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
    return counts


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed, ordered feature inventory.

    The order of the name lists is part of the contract: model
    coefficients index into it, and the fingerprint guards mismatches.
    """

    topics: tuple[str, ...] = DEFAULT_TOPICS
    sda_labels: tuple[str, ...] = DEFAULT_SDA_LABELS
    midas_labels: tuple[str, ...] = DEFAULT_MIDAS_LABELS
    response_generators: tuple[str, ...] = DEFAULT_RESPONSE_GENERATORS

    def __post_init__(self):
        if "other" not in self.topics or "other" not in self.response_generators:
            raise ValueError("topic and rg inventories need an 'other' catch-all")
        names = self.names(DEPENDENT)
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    def independent_names(self) -> tuple[str, ...]:
        return (
            ("length_median",)
            + tuple(f"freq_{l}" for l in self.sda_labels)
            + tuple(f"freq_midas_{l}" for l in self.midas_labels)
        )

    def dependent_names(self) -> tuple[str, ...]:
        return (
            self.independent_names()
            + tuple(f"topic_freq_{t}" for t in self.topics)
            + tuple(f"rg_freq_{g}" for g in self.response_generators)
            + ("topic_dist_median",)
        )

    def names(self, feature_set: str) -> tuple[str, ...]:
        if feature_set == INDEPENDENT:
            return self.independent_names()
        if feature_set == DEPENDENT:
            return self.dependent_names()
        raise ValueError(f"unknown feature set: {feature_set!r}")


def _row_counts(row_of: np.ndarray, codes: np.ndarray, n_codes: int, n: int):
    """(n, n_codes) counts of each (row, code) pair; rows past n-1 are dropped."""
    keys = np.multiply(row_of, n_codes, dtype=np.intp)
    keys += codes
    counts = np.bincount(keys, minlength=(n + 1) * n_codes)
    return counts[: n * n_codes].reshape(n, n_codes)


def _segment_medians(segment: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Median of each of ``n`` segments' nonnegative integers, 0.0 for none.

    ``segment`` holds each value's segment number in nondecreasing order.
    """
    size = np.bincount(segment, minlength=n)
    span = int(values.max()) + 1 if len(values) else 1
    # Sorting segment * span + value sorts the values within each segment.
    ordered = np.multiply(segment, span, dtype=np.int64)
    ordered += values
    ordered.sort()
    ordered %= span
    start = np.cumsum(size) - size
    has = size > 0
    lo = start[has] + (size[has] - 1) // 2
    hi = start[has] + size[has] // 2
    medians = np.zeros(n)
    medians[has] = (ordered[lo] + ordered[hi]) / 2
    return medians


class FeatureTable:
    """Columnar encoding of a corpus for one schema.

    Built once from a :class:`~convperf.corpus.Corpus`, it holds flat
    per-exchange arrays: the corpus's CSR (compressed sparse row)
    conversation offsets, user word counts, topic and
    response-generator codes into the schema inventories (values outside
    them take the ``other`` code), and, per SDA and MIDAS label of the
    schema, the positions of the exchanges carrying it.  :meth:`matrix`
    turns them into any feature set and prefix window with
    ``np.bincount``, so one table over a split corpus serves every grid
    cell and every split.
    """

    def __init__(self, corpus: Corpus, schema: FeatureSchema):
        self.schema = schema
        self.ids = corpus.ids
        self.offsets = corpus.offsets
        words = word_counts(corpus.user)
        self.words = words.astype(np.min_scalar_type(words.max(initial=0)))
        self.unknown = set()
        self.topic = self._schema_codes(corpus.topic, schema.topics, "topic")
        self.rg = self._schema_codes(
            corpus.rg, schema.response_generators, "response generator"
        )
        # Positions of the exchanges carrying each SDA, then MIDAS, label.
        self.tagged = [
            np.flatnonzero(np.array([label in t for t in corpus.tagsets])[codes])
            for labels, codes in (
                (schema.sda_labels, corpus.sda), (schema.midas_labels, corpus.midas)
            )
            for label in labels
        ]

    def _schema_codes(self, values, inventory, kind) -> np.ndarray:
        """Codes into ``inventory``; values outside it take ``other``'s code."""
        code = {v: i for i, v in enumerate(inventory)}
        self.unknown |= {(kind, v) for v in set(values) - code.keys()}
        codes = map(code.get, values, repeat(code["other"]))
        return np.fromiter(codes, np.min_scalar_type(len(inventory)), len(values))

    def matrix(
        self, feature_set: str = DEPENDENT, prefix_k: int | None = None
    ) -> tuple[list[str], np.ndarray]:
        """(ids, rows) for one feature set and window; see :func:`build_matrix`."""
        schema = self.schema
        names = schema.names(feature_set)
        if prefix_k is not None and prefix_k < 1:
            raise ValueError(f"prefix_k must be >= 1, got {prefix_k}")
        col = {name: j for j, name in enumerate(names)}
        n = len(self.ids)
        starts = self.offsets[:-1]
        lengths = np.diff(self.offsets)
        window = lengths if prefix_k is None else np.minimum(lengths, prefix_k)
        # Matrix row of each exchange; exchanges past the window go to row n.
        row_of = np.repeat(np.arange(n, dtype=np.int32), lengths)
        if prefix_k is not None:
            # +1 where a window starts and -1 where it ends: the running
            # sum is 0 exactly on the exchanges outside every window.
            edge = np.zeros(len(row_of) + 1, np.int8)
            edge[starts] = 1
            edge[starts + window] -= 1
            row_of[np.cumsum(edge[:-1], dtype=np.int8) == 0] = n
        X = np.zeros((n, len(names)))
        tag_cols = [col[f"freq_{l}"] for l in schema.sda_labels] + [
            col[f"freq_midas_{l}"] for l in schema.midas_labels
        ]
        for j, tagged in zip(tag_cols, self.tagged):
            X[:, j] = np.bincount(row_of[tagged], minlength=n + 1)[:n] / window
        # Blank user turns do not count toward the median.
        said = (row_of < n) & (self.words > 0)
        X[:, col["length_median"]] = _segment_medians(
            row_of[said], self.words[said], n
        )
        if feature_set != INDEPENDENT:
            for kind, value in sorted(self.unknown):
                _catchall(kind, value)
            topics = _row_counts(row_of, self.topic, len(schema.topics), n)
            X[:, [col[f"topic_freq_{t}"] for t in schema.topics]] = (
                topics / window[:, None]
            )
            rgs = _row_counts(row_of, self.rg, len(schema.response_generators), n)
            X[:, [col[f"rg_freq_{g}"] for g in schema.response_generators]] = (
                rgs / window[:, None]
            )
            # Median share of the window per distinct topic.  Dividing by
            # the window, like every count, keeps the feature invariant
            # under exchange duplication.
            seen = topics > 0
            dwell = _segment_medians(np.nonzero(seen)[0], topics[seen], n)
            X[:, col["topic_dist_median"]] = dwell / window
        return list(self.ids), X


def build_matrix(
    corpus: Corpus,
    schema: FeatureSchema,
    feature_set: str = DEPENDENT,
    prefix_k: int | None = None,
) -> tuple[list[str], np.ndarray]:
    """Feature matrix of a corpus's conversations (ids, rows).

    Columns follow ``schema.names(feature_set)``.  Each row covers the
    conversation's first ``prefix_k`` exchanges; with ``prefix_k=None``
    the whole conversation is used, and a prefix longer than the
    conversation clamps to its length.  Unknown topics and response
    generators count toward the ``other`` catch-all.
    """
    return FeatureTable(corpus, schema).matrix(feature_set, prefix_k)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean and population standard deviation, train-fitted."""

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, feature_names: tuple[str, ...]) -> "Standardizer":
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError("need at least 2 rows to fit a standardizer")
        if X.shape[1] != len(feature_names):
            raise ValueError("column count does not match feature names")
        return cls(
            feature_names=tuple(feature_names),
            mean=X.mean(axis=0),
            std=X.std(axis=0),  # population (divide by n)
        )

    def transform(self, X: np.ndarray) -> np.ndarray:
        if X.shape[-1] != len(self.feature_names):
            raise ValueError("column count does not match standardizer")
        constant = self.std == 0.0
        Z = X - self.mean
        Z /= np.where(constant, 1.0, self.std)
        # Zero-variance features carry no information; map them to 0.
        Z[..., constant] = 0.0
        return Z


def write_feature_csv(fh, ids, names, X, ratings, capped_lengths, splits) -> None:
    """Interchange CSV: id, features..., rating, capped_length, split."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["id", *names, "rating", "capped_length", "split"])
    for i, cid in enumerate(ids):
        rating = "" if ratings[i] is None else str(ratings[i])
        writer.writerow(
            [cid]
            + [repr(float(x)) for x in X[i]]
            + [rating, str(int(capped_lengths[i])), splits[i]]
        )


def read_feature_csv(fh):
    """Inverse of :func:`write_feature_csv`.

    Returns (ids, names, X, ratings, capped_lengths, splits); missing
    ratings come back as None.  A row whose width differs from the
    header, a rating or capped length that is not an integer, and a
    feature cell that is not a finite number are rejected with the row
    id (and column).
    """
    reader = csv.reader(fh)
    header = next(reader)
    if header[:1] != ["id"] or header[-3:] != ["rating", "capped_length", "split"]:
        raise ValueError("not a feature CSV (unexpected header)")
    names = tuple(header[1:-3])
    ids, rows, ratings, lengths, splits = [], [], [], [], []
    for rec in reader:
        row_id = rec[0] if rec else ""
        if len(rec) != len(header):
            raise ValueError(
                f"feature CSV row {row_id!r} has {len(rec)} cells, "
                f"the header has {len(header)} columns"
            )
        ids.append(row_id)
        try:
            rows.append([float(x) for x in rec[1:-3]])
        except ValueError:
            name, cell = next(
                (name, x) for name, x in zip(names, rec[1:-3]) if not _is_float(x)
            )
            raise ValueError(
                f"feature CSV row {row_id!r}, column {name!r}: "
                f"{cell!r} is not a number"
            ) from None
        ratings.append(_int_cell(row_id, "rating", rec[-3]) if rec[-3] else None)
        lengths.append(_int_cell(row_id, "capped_length", rec[-2]))
        splits.append(rec[-1])
    X = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"feature CSV row {ids[i]!r}, column {names[j]!r}: "
            f"{X[i, j]} is not a finite value"
        )
    return ids, names, X, ratings, lengths, splits


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _int_cell(row_id: str, column: str, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(
            f"feature CSV row {row_id!r}, column {column!r}: "
            f"{cell!r} is not an integer"
        ) from None
