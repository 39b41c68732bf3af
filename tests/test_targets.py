import numpy as np
import pytest

from convperf.corpus import Corpus
from convperf.regressors import (
    BINNED_LENGTH,
    CAPPED_LENGTH,
    MEDIAN_SPLIT,
    RATING,
    TargetKind,
    fit_target,
    make_targets,
    targets_from_values,
)

from conftest import record


def test_fit_target_median_split():
    target = fit_target(MEDIAN_SPLIT, [5, 17, 30, 17, 8])
    assert target.kind == MEDIAN_SPLIT
    assert target.median == 17.0
    # boundary is inclusive: length at the median counts as the long class
    y = targets_from_values(target, [None], [17])
    assert y.tolist() == [1.0]
    y = targets_from_values(target, [None, None, None], [16, 17, 60])
    assert y.tolist() == [0.0, 1.0, 1.0]


def test_fit_target_median_requires_rows():
    with pytest.raises(ValueError, match="empty"):
        fit_target(MEDIAN_SPLIT, [])


def test_binned_length():
    target = TargetKind(kind=BINNED_LENGTH)
    y = targets_from_values(
        target, [None] * 6, [5, 10, 15, 69, 70, 75]
    )
    assert y.tolist() == [0.0, 1.0, 1.0, 6.0, 7.0, 7.0]


def test_capped_length_and_rating_targets():
    convs = Corpus.from_records([record("a", n=3, rating=2), record("b", n=90, rating=5)])
    y = make_targets(convs, TargetKind(kind=CAPPED_LENGTH))
    assert y.tolist() == [3.0, 75.0]
    y = make_targets(convs, TargetKind(kind=RATING))
    assert y.tolist() == [2.0, 5.0]


def test_rating_target_requires_ratings():
    convs = Corpus.from_records([record("a", rating=4), record("b", rating=None)])
    with pytest.raises(ValueError, match="'b'"):
        make_targets(convs, TargetKind(kind=RATING))
    with pytest.raises(ValueError, match="row 0"):
        targets_from_values(TargetKind(kind=RATING), [None], [5])


def test_unrated_conversation_message():
    with pytest.raises(ValueError) as err:
        targets_from_values(
            TargetKind(kind=RATING), [3, 4, None, None], [5] * 4, ids="abcd"
        )
    assert str(err.value) == "conversation 'c' is unrated; cannot build rating targets"


def test_target_kind_validation():
    with pytest.raises(ValueError, match="unknown target"):
        TargetKind(kind="bogus")
    with pytest.raises(ValueError, match="median"):
        TargetKind(kind=MEDIAN_SPLIT)


def test_target_kind_json_round_trip():
    for target in (
        TargetKind(kind=RATING),
        TargetKind(kind=MEDIAN_SPLIT, median=17.0),
        TargetKind(kind=BINNED_LENGTH, bin_width=10, max_bin=7),
    ):
        assert TargetKind.from_json(target.to_json()) == target


def test_targets_are_float_arrays():
    y = targets_from_values(TargetKind(kind=CAPPED_LENGTH), [None], [42])
    assert isinstance(y, np.ndarray)
    assert y.dtype == np.float64
