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


# JSONL lines no decoder reads, each with the start of the message that
# names it: a byte that is not UTF-8 (read with errors="surrogateescape"),
# alone and after a two-byte character, an integer of more than 4,300
# digits, and nesting too deep.
UNDECODABLE_LINES = [
    (b'{"id": "c\xff"}', "not UTF-8: byte 0xff at byte column 10\n"),
    (b'{"id": "\xc3\xa9\xfe"}', "not UTF-8: byte 0xfe at byte column 11\n"),
    (b'{"id": "c", "rating": ' + b"7" * 5000 + b"}",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
]
UNDECODABLE_IDS = ["bytes", "bytes-after-two-byte-char", "digits", "nesting"]


def feature_values(rec, schema, feature_set=DEPENDENT, prefix_k=None):
    """One record's features by name, as build_matrix computes them."""
    names = schema.names(feature_set)
    _, X = build_matrix(Corpus.from_records([rec]), schema, feature_set, prefix_k)
    return dict(zip(names, X[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
