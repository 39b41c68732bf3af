import numpy as np
import pytest

from convperf.corpus import Corpus
from convperf.features import DEPENDENT, build_matrix

_EXCHANGE = {
    "topic": "movies", "rg": "fact", "user": "quartz lantern", "system": "ok",
    "midas": [], "sda": [],
}


def record(cid, n=5, rating=3, exchanges=None, **fields):
    """One conversation record in the JSONL schema.

    ``fields`` override every exchange's defaults (topic ``movies``, rg
    ``fact``, user ``quartz lantern``, system ``ok``, no tags; tag
    values are lists).  ``exchanges`` lists per-exchange overrides, one
    dict per exchange; without it the record holds ``n`` exchanges.
    """
    base = {**_EXCHANGE, **fields}
    if exchanges is None:
        exchanges = [{}] * n
    return {"id": cid, "rating": rating, "exchanges": [{**base, **ex} for ex in exchanges]}


def feature_values(rec, schema, feature_set=DEPENDENT, prefix_k=None):
    """One record's features by name, as build_matrix computes them."""
    names = schema.names(feature_set)
    _, X = build_matrix(Corpus.from_records([rec]), schema, feature_set, prefix_k)
    return dict(zip(names, X[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
