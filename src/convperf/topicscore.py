"""Heuristic per-topic quality scores.

Each conversation has a single rating, but visits several topics.  Three
scoring functions spread that rating over the topics it touched, with
different weightings for dwell time and user verbosity:

* F1: exchanges-on-topic times rating.
* F2: sqrt(exchanges-on-topic) times rating, damping long dwells.
* F3: F2 times the mean user-utterance word count on the topic, so
  short-but-verbose topics get credit for engagement.

Per-(conversation, topic) scores are summed into per-topic totals and
standardized into z-scores across topics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .features import word_counts

VARIANTS = ("F1", "F2", "F3")

# The greeting pseudo-topic is not a conversational topic; keep it out of
# the score population by default.
DEFAULT_EXCLUDED = ("intro",)


@dataclass(frozen=True)
class TopicScoreReport:
    variant: str
    topics: tuple[str, ...]
    raw_sums: tuple[float, ...]
    z_scores: tuple[float, ...]

    def ranked(self) -> list[tuple[str, float]]:
        """Topics best-first by z-score."""
        pairs = sorted(zip(self.topics, self.z_scores), key=lambda p: -p[1])
        return pairs


def score_topics(
    corpus: Corpus,
    variant: str,
    exclude_topics: tuple[str, ...] = DEFAULT_EXCLUDED,
) -> TopicScoreReport:
    """Sum per-(conversation, topic) scores and z-score across topics.

    Every conversation must be rated; filter unrated ones out first.
    Needs at least two topics for the z-scores to be defined.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown scoring variant: {variant!r}")
    sums: dict[str, float] = {}
    offsets = corpus.offsets.tolist()
    user_words = word_counts(corpus.user).tolist()
    topic = list(map(corpus.topic_names.__getitem__, corpus.topic.tolist()))
    for i, rating in enumerate(corpus.ratings):
        if rating is None:
            raise ValueError(
                f"conversation {corpus.ids[i]!r} is unrated; filter before scoring"
            )
        counts: dict[str, int] = {}
        words: dict[str, list[int]] = {}
        a, b = offsets[i], offsets[i + 1]
        for t, count in zip(topic[a:b], user_words[a:b]):
            if t in exclude_topics:
                continue
            counts[t] = counts.get(t, 0) + 1
            if count > 0:
                words.setdefault(t, []).append(count)
        for t, n_t in counts.items():
            if variant == "F1":
                score = n_t * rating
            elif variant == "F2":
                score = math.sqrt(n_t) * rating
            else:
                w = words.get(t)
                mean_words = sum(w) / len(w) if w else 0.0
                score = math.sqrt(n_t) * rating * mean_words
            sums[t] = sums.get(t, 0.0) + score

    if len(sums) < 2:
        raise ValueError(
            f"need >= 2 topics to standardize, got {len(sums)}"
        )
    topics = tuple(sorted(sums))
    raw = np.array([sums[t] for t in topics], dtype=float)
    std = raw.std()
    if std == 0.0:
        z = np.zeros_like(raw)
    else:
        z = (raw - raw.mean()) / std
    return TopicScoreReport(
        variant=variant,
        topics=topics,
        raw_sums=tuple(raw.tolist()),
        z_scores=tuple(z.tolist()),
    )
