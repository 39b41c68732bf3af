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


@dataclass(frozen=True)
class TargetKind:
    """What a model predicts.

    ``median_split`` is a 0/1 regression target (1 when capped length is
    at or above the training-split median); the median is fitted on the
    train split once and frozen here so dev/test use the same cut.
    ``binned_length`` maps capped length into bins of ``bin_width``
    exchanges, with everything from ``max_bin * bin_width`` up in the
    final bin.
    """

    kind: str
    median: float | None = None
    bin_width: int = 10
    max_bin: int = 7

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind: {self.kind!r}")
        if self.kind == MEDIAN_SPLIT and self.median is None:
            raise ValueError("median_split target requires a fitted median")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "median": self.median,
            "bin_width": self.bin_width,
            "max_bin": self.max_bin,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TargetKind":
        return cls(
            kind=obj["kind"],
            median=obj.get("median"),
            bin_width=obj.get("bin_width", 10),
            max_bin=obj.get("max_bin", 7),
        )


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

    Rating targets require every rating present; ``ids`` only improves
    the error message.
    """
    if target.kind == RATING:
        if None in ratings:
            i = list(ratings).index(None)
            who = repr(ids[i]) if ids is not None else f"row {i}"
            raise ValueError(
                f"conversation {who} is unrated; cannot build rating targets"
            )
        return np.array(ratings, dtype=float)
    lengths = np.asarray(capped_lengths, dtype=float)
    if target.kind == CAPPED_LENGTH:
        return lengths
    if target.kind == MEDIAN_SPLIT:
        return (lengths >= target.median).astype(float)
    # binned_length
    bins = np.minimum(lengths // target.bin_width, target.max_bin)
    return bins.astype(float)


def make_targets(corpus, target: TargetKind) -> np.ndarray:
    """Target vector for a corpus's conversations.

    Rating targets require every conversation to be rated.
    """
    return targets_from_values(
        target, corpus.ratings, corpus.capped_lengths(), ids=corpus.ids
    )
