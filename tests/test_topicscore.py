import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convperf.corpus import Corpus
from convperf.topicscore import VARIANTS, TopicScoreReport, score_topics

from conftest import record


def conv(cid, rating, topic_plan, words_per_turn=2):
    user = " ".join(["quartz"] * words_per_turn) if words_per_turn else ""
    exchanges = [{"topic": t} for t in topic_plan]
    return record(cid, rating=rating, exchanges=exchanges, user=user)


def test_single_topic_rejected():
    corpus = Corpus.from_records([conv("a", 5, ["movies", "movies"])])
    with pytest.raises(ValueError, match=">= 2 topics"):
        score_topics(corpus, "F1")


def test_two_equal_topics_gives_zero_z():
    corpus = Corpus.from_records([conv("a", 3, ["movies", "music"])])
    report = score_topics(corpus, "F1")
    assert report.topics == ("movies", "music")
    assert report.z_scores == (0.0, 0.0)


def test_hand_computed_sums():
    # Three conversations, two topics:
    #   a: rating 4, 2 movies + 1 music exchanges, 3 words per user turn
    #   b: rating 2, 1 movies exchange, 5 words per user turn
    #   c: rating 5, 4 music exchanges, 1 word per user turn
    corpus = Corpus.from_records([
        conv("a", 4, ["movies", "movies", "music"], words_per_turn=3),
        conv("b", 2, ["movies"], words_per_turn=5),
        conv("c", 5, ["music"] * 4, words_per_turn=1),
    ])

    f1 = score_topics(corpus, "F1")
    sums = dict(zip(f1.topics, f1.raw_sums))
    assert math.isclose(sums["movies"], 2 * 4 + 1 * 2, abs_tol=1e-12)
    assert math.isclose(sums["music"], 1 * 4 + 4 * 5, abs_tol=1e-12)

    f2 = score_topics(corpus, "F2")
    sums = dict(zip(f2.topics, f2.raw_sums))
    assert math.isclose(
        sums["movies"], math.sqrt(2) * 4 + math.sqrt(1) * 2, rel_tol=1e-12
    )
    assert math.isclose(
        sums["music"], math.sqrt(1) * 4 + math.sqrt(4) * 5, rel_tol=1e-12
    )

    f3 = score_topics(corpus, "F3")
    sums = dict(zip(f3.topics, f3.raw_sums))
    assert math.isclose(
        sums["movies"], math.sqrt(2) * 4 * 3 + math.sqrt(1) * 2 * 5, rel_tol=1e-12
    )
    assert math.isclose(
        sums["music"], math.sqrt(1) * 4 * 3 + math.sqrt(4) * 5 * 1, rel_tol=1e-12
    )

    # z-scores standardize the sums across topics (population std)
    raw = f1.raw_sums
    mean = sum(raw) / 2
    std = math.sqrt(sum((x - mean) ** 2 for x in raw) / 2)
    for z, x in zip(f1.z_scores, raw):
        assert math.isclose(z, (x - mean) / std, rel_tol=1e-9)


def test_zscores_standardized():
    corpus = Corpus.from_records([
        conv("a", 5, ["movies"] * 3),
        conv("b", 1, ["music"] * 2),
        conv("c", 3, ["comics"] * 4),
    ])
    for variant in ("F1", "F2", "F3"):
        report = score_topics(corpus, variant)
        z = report.z_scores
        assert abs(sum(z)) < 1e-9
        assert math.isclose(
            math.sqrt(sum(v * v for v in z) / len(z)), 1.0, rel_tol=1e-9
        )


def test_rating_scale_invariance():
    # doubling every rating (1,2 -> 2,4) is a location-scale change of the sums
    plans = [("a", ["movies"] * 2), ("b", ["music"] * 3), ("c", ["comics"])]
    low = Corpus.from_records([conv(cid, r, plan) for (cid, plan), r in zip(plans, (1, 2, 1))])
    high = Corpus.from_records([conv(cid, r, plan) for (cid, plan), r in zip(plans, (2, 4, 2))])
    for variant in ("F1", "F2", "F3"):
        za = score_topics(low, variant).z_scores
        zb = score_topics(high, variant).z_scores
        assert all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(za, zb))


def test_intro_excluded_by_default():
    corpus = Corpus.from_records([conv("a", 4, ["intro", "movies", "music"])])
    report = score_topics(corpus, "F1")
    assert "intro" not in report.topics


def test_unrated_conversation_rejected():
    corpus = Corpus.from_records([conv("a", None, ["movies", "music"])])
    with pytest.raises(ValueError, match="unrated"):
        score_topics(corpus, "F1")


def test_unknown_variant():
    corpus = Corpus.from_records([conv("a", 4, ["movies", "music"])])
    with pytest.raises(ValueError, match="variant"):
        score_topics(corpus, "F9")


def test_f3_ignores_empty_user_turns():
    # same topic structure; empty user text contributes dwell but no words
    c1 = conv("a", 4, ["movies", "music"], words_per_turn=0)
    report = score_topics(Corpus.from_records([c1]), "F3")
    assert report.raw_sums == (0.0, 0.0)


def test_ranked_is_best_first():
    corpus = Corpus.from_records([
        conv("a", 5, ["movies"] * 5),
        conv("b", 1, ["music"]),
        conv("c", 3, ["comics"] * 2),
    ])
    report = score_topics(corpus, "F1")
    ranked = report.ranked()
    assert [t for t, _ in ranked][0] == "movies"
    zs = [z for _, z in ranked]
    assert zs == sorted(zs, reverse=True)


def test_verbose_short_topic_climbs_under_f3():
    # "hobbies" dwells are short but the user is wordy; "movies" dwells are
    # long and terse.  Weighting by utterance length flips their order.
    corpus = Corpus.from_records([
        conv("a", 4, ["hobbies"] * 1, words_per_turn=12),
        conv("b", 4, ["movies"] * 9, words_per_turn=1),
        conv("c", 3, ["music"] * 2, words_per_turn=2),
    ])
    by_topic_f1 = dict(zip(score_topics(corpus, "F1").topics,
                           score_topics(corpus, "F1").z_scores))
    by_topic_f3 = dict(zip(score_topics(corpus, "F3").topics,
                           score_topics(corpus, "F3").z_scores))
    assert by_topic_f1["hobbies"] < by_topic_f1["movies"]
    assert by_topic_f3["hobbies"] > by_topic_f3["movies"]


def test_report_is_plain_data():
    report = TopicScoreReport(
        variant="F1", topics=("a", "b"), raw_sums=(1.0, 2.0), z_scores=(-1.0, 1.0)
    )
    assert report.ranked() == [("b", 1.0), ("a", -1.0)]


# ---------------------------------------------------- per-conversation oracle


def oracle_sums(corpus, variant):
    """Per-topic raw sums from a dict loop over each conversation's
    exchanges, adding each conversation's score in conversation order."""
    sums = {}
    for conv in corpus:
        counts, words = {}, {}
        for ex in conv.exchanges:
            t = ex.topic
            if t == "intro":
                continue
            counts[t] = counts.get(t, 0) + 1
            if len(ex.user_text.split()) > 0:
                words.setdefault(t, []).append(len(ex.user_text.split()))
        for t, n_t in counts.items():
            if variant == "F1":
                score = n_t * conv.rating
            elif variant == "F2":
                score = math.sqrt(n_t) * conv.rating
            else:
                w = words.get(t)
                mean_words = sum(w) / len(w) if w else 0.0
                score = math.sqrt(n_t) * conv.rating * mean_words
            sums[t] = sums.get(t, 0.0) + score
    return sums


_scored_exchange = st.fixed_dictionaries({
    "topic": st.sampled_from(["movies", "music", "intro", "klingon_opera", "café", "news"]),
    "user": st.sampled_from(["", "  ", "yes", "quartz lantern", "a b c d e f g", "tab\tx"]),
})


@given(
    convs=st.lists(st.tuples(st.integers(1, 5), st.lists(_scored_exchange, min_size=1,
                                                           max_size=9)), max_size=12),
    variant=st.sampled_from(VARIANTS),
)
@settings(max_examples=200, deadline=None)
def test_score_topics_matches_a_per_conversation_loop(convs, variant):
    corpus = Corpus.from_records(
        [record(f"c{i}", rating=r, exchanges=ex) for i, (r, ex) in enumerate(convs)]
    )
    sums = oracle_sums(corpus, variant)
    if len(sums) < 2:
        match = f"got {len(sums)}$" if convs else "the corpus has 0$"
        with pytest.raises(ValueError, match=match):
            score_topics(corpus, variant)
        return
    report = score_topics(corpus, variant)
    topics = tuple(sorted(sums))
    raw = np.array([sums[t] for t in topics])
    std = raw.std()
    z = np.zeros_like(raw) if std == 0.0 else (raw - raw.mean()) / std
    assert report.topics == topics
    # Byte for byte: the float bits, signs of zero included.
    assert [x.hex() for x in report.raw_sums] == [x.hex() for x in raw.tolist()]
    assert [x.hex() for x in report.z_scores] == [x.hex() for x in z.tolist()]
