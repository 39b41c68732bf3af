"""Per-conversation feature extraction and z-score standardization.

Every feature is a frequency or a median, never a raw count, so feature
vectors cannot indirectly encode conversation length: duplicating every
exchange of a conversation leaves its feature vector unchanged.  Two
feature sets are supported:

* ``independent``: utterance-level features computable for any dialogue
  system (median user words, SDA frequencies, MIDAS frequencies).
* ``dependent``: the independent set plus system-specific topic and
  response-generator frequencies and the per-topic dwell median.

``union`` is accepted as an alias of ``dependent`` (dependent is already
the superset).  :func:`build_matrix` is the one place that turns
exchanges into feature values, one pass over each conversation's
window, with column positions taken from :meth:`FeatureSchema.names`.
Standardizers are fitted on training vectors only and applied unchanged
to dev/test.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from statistics import median

import numpy as np

logger = logging.getLogger(__name__)

INDEPENDENT = "independent"
DEPENDENT = "dependent"
UNION = "union"
FEATURE_SETS = (INDEPENDENT, DEPENDENT, UNION)

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
        if feature_set in (DEPENDENT, UNION):
            return self.dependent_names()
        raise ValueError(f"unknown feature set: {feature_set!r}")


def build_matrix(
    conversations,
    schema: FeatureSchema,
    feature_set: str = DEPENDENT,
    prefix_k: int | None = None,
) -> tuple[list[str], np.ndarray]:
    """Feature matrix for a sequence of conversations (ids, rows).

    Columns follow ``schema.names(feature_set)``.  Each row covers the
    conversation's first ``prefix_k`` exchanges; with ``prefix_k=None``
    the whole conversation is used, and a prefix longer than the
    conversation clamps to its length.  Unknown topics and response
    generators count toward the ``other`` catch-all.
    """
    names = schema.names(feature_set)
    if prefix_k is not None and prefix_k < 1:
        raise ValueError(f"prefix_k must be >= 1, got {prefix_k}")
    col = {name: j for j, name in enumerate(names)}
    sda_col = {l: col[f"freq_{l}"] for l in schema.sda_labels}
    midas_col = {l: col[f"freq_midas_{l}"] for l in schema.midas_labels}
    dependent = feature_set != INDEPENDENT
    if dependent:
        topic_col = {t: col[f"topic_freq_{t}"] for t in schema.topics}
        rg_col = {g: col[f"rg_freq_{g}"] for g in schema.response_generators}
        dist_col = col["topic_dist_median"]

    counts = np.empty((len(conversations), len(names)))
    window_len = np.empty(len(conversations))
    length_median = np.empty(len(conversations))
    for i, conv in enumerate(conversations):
        window = conv.exchanges[:prefix_k]
        row = [0] * len(names)
        user_words = []
        for ex in window:
            words = word_count(ex.user_text)
            if words:  # blank user turns do not count toward the median
                user_words.append(words)
            for label in ex.sda_tags:
                if label in sda_col:
                    row[sda_col[label]] += 1
            for label in ex.midas_tags:
                if label in midas_col:
                    row[midas_col[label]] += 1
            if dependent:
                j = topic_col.get(ex.topic)
                if j is None:
                    j = topic_col[_catchall("topic", ex.topic)]
                row[j] += 1
                j = rg_col.get(ex.response_generator)
                if j is None:
                    j = rg_col[_catchall("response generator", ex.response_generator)]
                row[j] += 1
        if dependent:
            # Median share of the window per distinct topic.  Dividing by
            # the window, like every count, keeps the feature invariant
            # under exchange duplication.
            row[dist_col] = median(row[j] for j in topic_col.values() if row[j])
        counts[i] = row
        window_len[i] = len(window)
        length_median[i] = median(user_words) if user_words else 0.0
    rows = counts / window_len[:, None]
    rows[:, col["length_median"]] = length_median
    return [conv.id for conv in conversations], rows


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
        safe = np.where(self.std == 0.0, 1.0, self.std)
        Z = (X - self.mean) / safe
        # Zero-variance features carry no information; map them to 0.
        return np.where(self.std == 0.0, 0.0, Z)


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
    ratings come back as None.  A NaN or infinite feature cell is
    rejected with its row id and column name.
    """
    reader = csv.reader(fh)
    header = next(reader)
    if header[:1] != ["id"] or header[-3:] != ["rating", "capped_length", "split"]:
        raise ValueError("not a feature CSV (unexpected header)")
    names = tuple(header[1:-3])
    ids, rows, ratings, lengths, splits = [], [], [], [], []
    for rec in reader:
        ids.append(rec[0])
        rows.append([float(x) for x in rec[1 : 1 + len(names)]])
        ratings.append(int(rec[-3]) if rec[-3] else None)
        lengths.append(int(rec[-2]))
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
