import numpy as np
import pytest

from convperf.corpus import Conversation, Corpus, Exchange
from convperf.features import DEPENDENT, build_matrix


def make_exchange(i, topic="movies", rg="fact", user="quartz lantern", system="ok",
                  midas=(), sda=()):
    return Exchange(
        index=i,
        topic=topic,
        response_generator=rg,
        user_text=user,
        system_text=system,
        midas_tags=frozenset(midas),
        sda_tags=frozenset(sda),
    )


def make_conversation(cid, n=5, rating=3, topic="movies", user="quartz lantern",
                      midas=(), sda=()):
    """n identical exchanges; enough for most fixtures."""
    return Conversation(
        id=cid,
        exchanges=tuple(
            make_exchange(i, topic=topic, user=user, midas=midas, sda=sda)
            for i in range(n)
        ),
        rating=rating,
    )


def feature_values(conv, schema, feature_set=DEPENDENT, prefix_k=None):
    """One conversation's features by name, as build_matrix computes them."""
    names = schema.names(feature_set)
    return dict(zip(names, build_matrix([conv], schema, feature_set, prefix_k)[1][0]))


def corpus_of(*convs, split=None):
    return Corpus(conversations=tuple(convs), split_assignment=split)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
