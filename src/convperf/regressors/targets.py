"""Target adapters: rating, capped length, median split, binned length."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATING = "rating"
CAPPED_LENGTH = "capped_length"
MEDIAN_SPLIT = "median_split"
BINNED_LENGTH = "binned_length"
TARGET_KINDS = (RATING, CAPPED_LENGTH, MEDIAN_SPLIT, BINNED_LENGTH)
# The name a command line gives each target kind.
TARGET_NAMES = {
    "rating": RATING,
    "length": CAPPED_LENGTH,
    "median-split": MEDIAN_SPLIT,
    "binned": BINNED_LENGTH,
}
BIN_WIDTH = 10  # exchanges per binned_length bin
MAX_BIN = 7  # the last bin: 70 exchanges and up


@dataclass(frozen=True)
class TargetKind:
    """What a model predicts.

    ``median_split`` is a 0/1 regression target (1 when capped length is
    at or above the training-split median); the median is fitted on the
    train split once and frozen here so dev/test use the same cut.
    ``binned_length`` maps capped length into bins of ``BIN_WIDTH``
    exchanges, with everything from ``MAX_BIN * BIN_WIDTH`` up in the
    last bin.
    """

    kind: str
    median: float | None = None

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind: {self.kind!r}")
        if self.kind == MEDIAN_SPLIT and self.median is None:
            raise ValueError("median_split target requires a fitted median")


def fit_target(kind: str, train_capped_lengths) -> TargetKind:
    """Build a TargetKind, fitting the median on train lengths if needed."""
    if kind == MEDIAN_SPLIT:
        lengths = np.asarray(train_capped_lengths, dtype=float)
        if lengths.size == 0:
            raise ValueError("cannot fit a median on an empty train split")
        return TargetKind(kind=kind, median=float(np.median(lengths)))
    return TargetKind(kind=kind)


def targets_from_values(target: TargetKind, ratings, capped_lengths, ids=None) -> np.ndarray:
    """Target vector from parallel rating/length sequences.

    A rating that is NaN (or None) is unrated.  Rating targets require
    every rating present; ``ids`` only improves the error message.
    """
    if target.kind == RATING:
        ratings = np.asarray(ratings, dtype=float)  # None becomes NaN
        unrated = np.flatnonzero(np.isnan(ratings))
        if unrated.size:
            i = int(unrated[0])
            who = repr(ids[i]) if ids is not None else f"row {i}"
            raise ValueError(
                f"conversation {who} is unrated; cannot build rating targets"
            )
        return ratings
    lengths = np.asarray(capped_lengths, dtype=float)
    if target.kind == CAPPED_LENGTH:
        return lengths
    if target.kind == MEDIAN_SPLIT:
        return (lengths >= target.median).astype(float)
    # binned_length
    bins = np.minimum(lengths // BIN_WIDTH, MAX_BIN)
    return bins.astype(float)


def make_targets(corpus, target: TargetKind) -> np.ndarray:
    """Target vector for a corpus's conversations.

    Rating targets require every conversation to be rated.
    """
    return targets_from_values(
        target, corpus.ratings, corpus.capped_lengths(), ids=corpus.ids
    )
