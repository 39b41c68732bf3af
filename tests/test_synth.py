import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import convperf.corpus as cz
import convperf.features as ft
import convperf.synth as sy
import convperf.tagging as tg
from convperf.metrics import pearson, r_squared
from convperf.regressors import fit_forest, fit_linear
from convperf.synth import (
    GeneratorConfig,
    GeneratorError,
    _RG_CDF,
    _cdf,
    _pick,
    attainable_correlation,
    deterministic_length_config,
    engagement_sd,
    generate,
    single_signal_config,
)

MIDAS_SET = {"user_init", "sys_init", "pos_answer", "neg_answer"}


def tagged(corpus):
    return tg.tag_corpus(corpus, tg.default_config())


def prepared(cfg):
    corp = cz.filter_min_length(tagged(generate(cfg)), 5)
    return cz.split_corpus(corp, seed=cfg.seed)


def matrix(corpus, feature_set="independent"):
    schema = ft.FeatureSchema()
    names = schema.names(feature_set)
    _, X = ft.build_matrix(corpus, schema, feature_set, None)
    return names, X


def test_same_config_same_corpus():
    cfg = GeneratorConfig(n_conversations=300, seed=5)
    assert generate(cfg) == generate(cfg)


def test_seed_changes_corpus():
    a = generate(GeneratorConfig(n_conversations=50, seed=0))
    b = generate(GeneratorConfig(n_conversations=50, seed=1))
    assert a != b


def test_round_trips_through_jsonl(tmp_path):
    corp = generate(GeneratorConfig(n_conversations=60, seed=2))
    path = tmp_path / "c.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        cz.write_corpus_jsonl(corp, fh)
    with open(path, encoding="utf-8") as fh:
        back = cz.parse_corpus(fh)
    assert back == corp


def test_id_format():
    corp = generate(GeneratorConfig(n_conversations=3, seed=0))
    assert [c.id for c in corp] == ["syn-000000", "syn-000001", "syn-000002"]


def test_generated_shapes_and_ranges():
    corp = generate(GeneratorConfig(n_conversations=400, seed=7))
    assert len(corp) == 400
    assert corp.split_assignment is None
    lengths = corp.lengths().tolist()
    assert all(1 <= n <= 200 for n in lengths)
    assert any(n <= 4 for n in lengths)
    assert any(n >= 5 for n in lengths)
    for conv in corp:
        assert isinstance(conv.rating, int)
        assert 1 <= conv.rating <= 5
        assert conv.exchanges[0].topic == "intro"
        assert conv.exchanges[0].response_generator == "intro"
        for ex in conv.exchanges:
            assert ex.sda_tags == frozenset()
            assert ex.midas_tags <= MIDAS_SET
            assert len(ex.midas_tags & {"user_init", "sys_init"}) == 1
            assert ex.user_text


def test_tagger_recovers_planted_phrases():
    corp = generate(GeneratorConfig(n_conversations=150, seed=4))
    after = tagged(corp)
    comp = sum(
        1 for c in after for ex in c.exchanges if "sda_compliment" in ex.sda_tags
    )
    compl = sum(
        1 for c in after for ex in c.exchanges if "sda_complaint" in ex.sda_tags
    )
    n_ex = len(after.topic)
    assert comp > 0.05 * n_ex
    assert compl > 0.02 * n_ex


def test_filler_never_triggers_tags():
    # accidental matches would corrupt every frequency feature
    cfg = GeneratorConfig(n_conversations=100, seed=9, compliment_base=0.0,
                          compliment_gain=0.0, complaint_base=0.0,
                          complaint_gain=0.0)
    after = tagged(generate(cfg))
    assert all(ex.sda_tags == frozenset() for c in after for ex in c.exchanges)


def test_engagement_sd_matches_beta_variance():
    cfg = GeneratorConfig(n_conversations=1)
    assert abs(engagement_sd(cfg) - math.sqrt(1.0 / 20.0)) < 1e-12
    skew = GeneratorConfig(n_conversations=1, engagement_alpha=1.0,
                           engagement_beta=3.0)
    assert abs(engagement_sd(skew) - math.sqrt(3.0 / (16.0 * 5.0))) < 1e-12


def test_attainable_correlation_formula():
    cfg = GeneratorConfig(n_conversations=1)
    signal = 1.03 * math.sqrt(1.0 / 20.0)
    assert abs(
        attainable_correlation(cfg) - signal / math.hypot(signal, 1.0)
    ) < 1e-12
    assert attainable_correlation(
        GeneratorConfig(n_conversations=1, rating_noise=0.0)
    ) == 1.0
    assert attainable_correlation(
        GeneratorConfig(n_conversations=1, rating_gain=0.0)
    ) == 0.0


def test_infeasible_target_correlation_rejected():
    cfg = GeneratorConfig(n_conversations=10, rating_noise=5.0, target_r=0.5)
    with pytest.raises(GeneratorError, match="attainable"):
        generate(cfg)


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(n_conversations=0), "n_conversations"),
        (dict(n_conversations=5, short_mass=1.5), "short_mass"),
        (dict(n_conversations=5, compliment_base=-0.1), "compliment_base"),
        (dict(n_conversations=5, length_log_noise=-1.0), "length_log_noise"),
        (dict(n_conversations=5, rating_noise=-0.5), "rating_noise"),
        (dict(n_conversations=5, engagement_alpha=0.0), "engagement"),
        (dict(n_conversations=5, length_max=4), "length_max"),
        (dict(n_conversations=5, topic_appeal=()), "topic"),
        (
            dict(n_conversations=5, topic_appeal=(("movies", 0.0),)),
            "appeal",
        ),
        (
            dict(n_conversations=5, topic_appeal=(("movies", math.inf),)),
            "appeal",
        ),
        (dict(n_conversations=5, topic_concentration=0.0), "topic_concentration"),
        (dict(n_conversations=5, topic_concentration=-1.0), "topic_concentration"),
        (dict(n_conversations=5, length_log_base=math.nan), "length_log_base"),
        (dict(n_conversations=5, rating_base=math.nan), "rating_base"),
        (dict(n_conversations=5, verbosity_base=math.inf), "verbosity_base"),
        (dict(n_conversations=5, verbosity_base=1e20), "verbosity_base"),
        (dict(n_conversations=5, verbosity_gain=1e20), "verbosity_gain"),
        (dict(n_conversations=5, verbosity_base=60.0, verbosity_gain=41.0), "<= 100"),
    ],
)
def test_config_validation(kw, msg):
    with pytest.raises(GeneratorError, match=msg):
        generate(GeneratorConfig(**kw))


def test_huge_log_length_clips_to_length_max():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp must not overflow
        corp = generate(GeneratorConfig(n_conversations=20, short_mass=0.0,
                                        length_log_base=1000.0))
    assert corp.lengths().tolist() == [200] * 20


def test_rating_predictability_tracks_noise():
    def mean_r2(noise):
        vals = []
        for seed in range(5):
            cfg = GeneratorConfig(
                n_conversations=2000, seed=seed, rating_noise=noise, target_r=0.0
            )
            corp = prepared(cfg)
            _, X_tr = matrix(corp.subset("train"))
            names, X_te = matrix(corp.subset("test"))
            std = ft.Standardizer.fit(X_tr, names)
            model = fit_linear(
                std.transform(X_tr),
                np.array([float(c.rating) for c in corp.subset("train")]),
                family="ridge",
                lam=1.0,
            )
            pred = model.predict_prepared(std.transform(X_te))
            truth = np.array([float(c.rating) for c in corp.subset("test")])
            vals.append(r_squared(pred, truth))
        return float(np.mean(vals))

    low, mid, high = mean_r2(0.2), mean_r2(1.0), mean_r2(3.0)
    assert low > mid > high


def test_deterministic_preset_forest_recovers_length():
    corp = prepared(deterministic_length_config(1500, seed=0))
    names, X_tr = matrix(corp.subset("train"))
    _, X_te = matrix(corp.subset("test"))
    std = ft.Standardizer.fit(X_tr, names)
    y_tr = np.array(corp.subset("train").capped_lengths(), dtype=float)
    y_te = np.array(corp.subset("test").capped_lengths(), dtype=float)
    model = fit_forest(
        std.transform(X_tr), y_tr, n_trees=10, min_leaf=2, seed=0
    )
    assert r_squared(model.predict_prepared(std.transform(X_te)), y_te) >= 0.9


def test_word_budget_leaves_verbosity_clean():
    # planted phrases must not stretch utterances, or the word-count
    # feature would leak the planted signal
    corp = cz.filter_min_length(tagged(generate(single_signal_config(3000))), 5)
    names, X = matrix(corp)
    y = np.array(corp.capped_lengths(), dtype=float)
    words = X[:, names.index("length_median")]
    comp = X[:, names.index("freq_sda_compliment")]
    r_words, _ = pearson(words, y)
    r_comp, _ = pearson(comp, y)
    assert abs(r_words) < 0.1
    assert r_comp > 0.5


def jsonl_lines(n, seed):
    buf = io.StringIO()
    cz.write_corpus_jsonl(generate(GeneratorConfig(n_conversations=n, seed=seed)), buf)
    return buf.getvalue().splitlines()


@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(1, 1500),
    extra=st.integers(1, 1500),
)
@example(seed=0, n1=1700, extra=800)
@example(seed=3, n1=999, extra=2)
@settings(max_examples=15, deadline=None)
def test_corpus_is_prefix_of_larger_corpus(seed, n1, extra):
    # conversation i draws the i-th values of every stream, whatever n is
    assert jsonl_lines(n1 + extra, seed)[:n1] == jsonl_lines(n1, seed)


def test_block_size_changes_no_byte(monkeypatch):
    before = jsonl_lines(300, 6)
    monkeypatch.setattr(sy, "_BLOCK", 7)
    assert jsonl_lines(300, 6) == before


@given(
    k=st.integers(2, 20),
    alpha=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 30),
    m=st.integers(1, 300),
)
@settings(max_examples=100, deadline=None)
def test_block_topic_draw_is_searchsorted(k, alpha, seed, rows, m):
    rng = np.random.default_rng(seed)
    cdf = _cdf(rng.dirichlet(np.full(k, alpha), rows))
    assert np.all(cdf[:, -1] == 1.0)
    conv = rng.integers(0, rows, m)
    u = rng.random(m)
    u[0] = cdf[conv[0], rng.integers(0, k - 1)]  # a uniform on a CDF entry
    drawn = _pick(cdf[conv], u)
    expected = [np.searchsorted(cdf[c], x, side="right") for c, x in zip(conv, u)]
    assert drawn.tolist() == expected
    assert _pick(_RG_CDF, u).tolist() == np.searchsorted(_RG_CDF, u, side="right").tolist()
