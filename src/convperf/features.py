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

:class:`FeatureSchema` declares the columns once: ``length_median``,
each frequency block of :meth:`FeatureSchema.blocks` (a name prefix, a
corpus column and its labels), then, for the dependent set,
``topic_dist_median``.  :func:`build_matrix` is the public way to turn
a corpus into feature values.  It encodes the corpus once into a
columnar :class:`FeatureTable` and asks it for one matrix.  Every block
is counted the same way: one ``np.bincount`` over the window's
(conversation, pattern) codes, mapped onto the block's labels and
divided by the window length.  ``length_median`` comes from sorted
per-row segments of the user word counts, which are the corpus's
``words`` column (a corpus counts it once, the first time it is read);
``topic_dist_median`` comes from each row's sorted topic counts, whose
last nonzero entries are the topics the window holds.  Callers that
need several matrices over the same conversations keep the table and
call :meth:`FeatureTable.matrix` for each:
:func:`convperf.experiment.run_grid` encodes the whole split corpus into
one table, builds one matrix per prefix window, over the widest feature
set that window's cells use, and selects every split's rows and each
design's columns from it.  The independent columns of a dependent matrix
equal the independent matrix.
Standardizers are fitted on training vectors only and applied unchanged
to dev/test.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

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
# The name-valued corpus columns and the kind of name each holds.
_NAME_KINDS = {"topic": "topic", "rg": "response generator"}


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed, ordered feature inventory.

    The order of the name lists is part of the contract: model
    coefficients index into it, and ``evaluate`` refuses a model whose
    feature names differ from the feature CSV's.
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

    def blocks(self, feature_set: str) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        """The ordered frequency blocks of a feature set: (name prefix,
        corpus column, labels).  The dependent set's blocks extend the
        independent set's."""
        blocks = (("freq_", "sda", self.sda_labels),
                  ("freq_midas_", "midas", self.midas_labels))
        if feature_set == DEPENDENT:
            return blocks + (("topic_freq_", "topic", self.topics),
                             ("rg_freq_", "rg", self.response_generators))
        if feature_set != INDEPENDENT:
            raise ValueError(f"unknown feature set: {feature_set!r}")
        return blocks

    def names(self, feature_set: str) -> tuple[str, ...]:
        """``length_median``, each block's names, then for the dependent
        set ``topic_dist_median``."""
        freqs = tuple(p + l for p, _, labels in self.blocks(feature_set) for l in labels)
        dwell = ("topic_dist_median",) if feature_set == DEPENDENT else ()
        return ("length_median",) + freqs + dwell


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


def _held_medians(counts: np.ndarray) -> np.ndarray:
    """Median of each row's nonzero counts, 0.0 for a row of zeros.

    Sorted, a row's k held counts are its last k entries, so the median
    is two reads per row.
    """
    n, width = counts.shape
    ordered = np.sort(counts, axis=1)
    held = np.count_nonzero(counts, axis=1)
    # Lower and upper middle, counted from the end; a row of zeros reads
    # its last entry, a zero, twice.
    lo = width - 1 - held // 2
    hi = width - 1 - np.maximum(held - 1, 0) // 2
    rows = np.arange(n)
    return (ordered[rows, lo] + ordered[rows, hi]) / 2


class FeatureTable:
    """Columnar encoding of a corpus for one schema.

    Built once from a :class:`~convperf.corpus.Corpus`, it holds the
    corpus's CSR (compressed sparse row) conversation offsets, its
    ``words`` column of user word counts (read, never counted, here)
    and, per block of :meth:`FeatureSchema.blocks`, each exchange's code
    into a table of distinct 0/1 patterns over the block's labels.  A
    tag set counts toward every label it holds, a topic or
    response-generator name toward its own label or ``other``.
    So a block has at most 2^labels patterns for tags and one per label
    for names, however many distinct values the corpus holds.
    :meth:`matrix` counts each (conversation, pattern) cell of a window
    with one ``np.bincount`` per block and maps the counts onto the
    labels through the patterns, so one table over a split corpus serves
    every grid cell and every split.
    """

    def __init__(self, corpus: Corpus, schema: FeatureSchema):
        self.schema = schema
        self.ids = corpus.ids
        self.offsets = corpus.offsets
        self.words = corpus.words
        self.unknown = set()
        # Per corpus column, each exchange's pattern code and the patterns.
        self.blocks = {}
        for _, column, labels in schema.blocks(DEPENDENT):
            codes = getattr(corpus, column)
            # The labels each entry of the column's table holds: a tag
            # set's own, or a name's own label (``other`` outside the schema).
            held = corpus.tagsets
            if column in _NAME_KINDS:
                names = getattr(corpus, f"{column}_names")
                used = np.bincount(codes, minlength=len(names)).astype(bool).tolist()
                self.unknown |= {(_NAME_KINDS[column], v)
                                 for v, u in zip(names, used) if u and v not in labels}
                held = [(v if v in labels else "other",) for v in names]
            rows = np.array([[l in h for l in labels] for h in held], float)
            patterns, code = np.unique(rows.reshape(-1, len(labels)), axis=0,
                                       return_inverse=True)
            code = code.astype(np.min_scalar_type(len(patterns)))
            self.blocks[column] = code[codes], patterns

    def matrix(
        self, feature_set: str = DEPENDENT, prefix_k: int | None = None
    ) -> tuple[list[str], np.ndarray]:
        """(ids, rows) for one feature set and window; see :func:`build_matrix`."""
        blocks = self.schema.blocks(feature_set)
        if prefix_k is not None and prefix_k < 1:
            raise ValueError(f"prefix_k must be >= 1, got {prefix_k}")
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
        # Blank user turns do not count toward the median.
        said = (row_of < n) & (self.words > 0)
        columns = [_segment_medians(row_of[said], self.words[said], n)]
        dwell = []
        for _, column, _ in blocks:
            codes, patterns = self.blocks[column]
            # Counts are small integers, so the product is exact.
            counts = _row_counts(row_of, codes, len(patterns), n)
            columns.append(counts @ patterns / window[:, None])
            if column == "topic":
                # Median share of the window per distinct topic.  Each
                # topic pattern is one topic, so its counts are the
                # topic's.  Dividing by the window, like every count,
                # keeps the feature invariant under exchange duplication.
                dwell.append(_held_medians(counts) / window)
        if feature_set != INDEPENDENT:
            # Each name mapped to ``other`` is warned about once per process.
            for key in sorted(self.unknown - _warned_unknown):
                _warned_unknown.add(key)
                logger.warning("unknown %s %r mapped to 'other'", *key)
        return list(self.ids), np.column_stack(columns + dwell)


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
    header = next(reader, None)
    if header is None:
        raise ValueError("not a feature CSV (the file is empty)")
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
