"""Heuristic per-topic quality scores.

Each conversation has a single rating, but visits several topics.  Three
scoring functions spread that rating over the topics it touched, with
different weightings for dwell time and user verbosity:

* F1: exchanges-on-topic times rating.
* F2: sqrt(exchanges-on-topic) times rating, damping long dwells.
* F3: F2 times the mean user-utterance word count on the topic, so
  short-but-verbose topics get credit for engagement.

Per-(conversation, topic) scores are summed into per-topic totals and
standardized into z-scores across topics.  Only the (conversation,
topic) cells that occur are kept, so memory grows with the exchanges,
not with conversations times distinct topics.  Dwell counts, word sums
and per-topic totals are each one ``np.bincount``, and each topic's
total adds its scores in conversation order.  User word counts are the
corpus's ``words`` column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus

VARIANTS = ("F1", "F2", "F3")

# The greeting pseudo-topic is not a conversational topic; keep it out of
# the score population.
EXCLUDED = ("intro",)


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


def score_topics(corpus: Corpus, variant: str) -> TopicScoreReport:
    """Sum per-(conversation, topic) scores and z-score across topics.

    Every conversation must be rated; filter unrated ones out first.
    Needs a conversation and two topics for the z-scores to be defined.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown scoring variant: {variant!r}")
    if not len(corpus):
        raise ValueError("topic scores need at least 1 conversation, the corpus has 0")
    unrated = [cid for cid, r in zip(corpus.ids, corpus.ratings) if r is None]
    if unrated:
        raise ValueError(f"conversation {unrated[0]!r} is unrated; filter before scoring")
    names = corpus.topic_names
    row_of = np.repeat(np.arange(len(corpus.ids)), np.diff(corpus.offsets))
    kept = ~np.array([t in EXCLUDED for t in names], bool)[corpus.topic]
    # One cell per (conversation, topic) pair, ordered by conversation.
    cells, cell_of = np.unique(
        row_of[kept] * len(names) + corpus.topic[kept], return_inverse=True
    )
    row, topic = np.divmod(cells, len(names))
    dwell = np.bincount(cell_of, minlength=len(cells))
    rating = np.array(corpus.ratings, float)[row]
    score = (dwell if variant == "F1" else np.sqrt(dwell)) * rating
    if variant == "F3":
        # Mean user words over the cell's non-blank turns, 0.0 for none.
        words = corpus.words[kept]
        said = np.bincount(cell_of[words > 0], minlength=len(cells))
        total = np.bincount(cell_of, weights=words, minlength=len(cells))
        score *= np.divide(total, said, out=np.zeros(len(cells)), where=said > 0)
    present = sorted(np.unique(topic).tolist(), key=names.__getitem__)
    if len(present) < 2:
        raise ValueError(f"need >= 2 topics to standardize, got {len(present)}")
    topics = tuple(names[j] for j in present)
    # bincount adds the weights in input order, so each topic's total adds
    # its scores in conversation order.
    raw = np.bincount(topic, weights=score, minlength=len(names))[present]
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
