"""Seeded synthetic-corpus generator with planted structure.

Every conversation is driven by a latent engagement value e in [0, 1].
Engagement raises conversation length (log-normal body), per-utterance
verbosity, compliment rate, and initiative/answer tag rates; complaint
rate rises as engagement falls; the rating is a noisy, weakly coupled
readout of the same latent.  No setting declares the rating/length
correlation: it follows from the rating gain and noise, and with the
defaults it reads r ~0.134 at 30k conversations.  A configurable point
mass at lengths 1-4 models accidental invocations.  Compliment and
complaint phrases are taken verbatim from the shipped lexicons and
embedded in the user text, so the tagger recovers exactly the planted
acts, while filler words never overlap lexicon vocabulary.

Randomness: one root seed spawns one stream per kind of draw
(:data:`_STREAMS`), and each stream is drawn a block of conversations at a
time.  Conversation i takes the i-th values of every stream whatever the
corpus or block size, so a corpus is a prefix of every larger corpus with
the same seed (ids gain a digit past a million conversations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import Corpus
from .tagging import default_config

_SHORT_MAX = 4  # accidental-invocation lengths are 1.._SHORT_MAX
_BODY_MIN = 5
_LENGTH_MAX = 200  # every longer body clips to this length
_VERBOSITY_MAX = 100.0  # cap on the Poisson word-count rate, reached at full engagement
_ENGAGEMENT_SHAPE = 2.0  # engagement is Beta(shape, shape), symmetric about 0.5
_LENGTH_LOG_BASE = 2.2  # mean log body length at zero engagement
_RATING_BASE = 3.25  # mean unrounded rating at zero engagement

# Each topic's appeal; a conversation's topic interest is drawn from
# Dirichlet(_TOPIC_CONCENTRATION * appeal).
_TOPIC_APPEAL = (
    ("movies", 2.2),
    ("music", 2.0),
    ("animals", 1.6),
    ("video_games", 1.5),
    ("sports", 1.4),
    ("tv", 1.3),
    ("hobbies", 1.2),
    ("food", 1.1),
    ("books", 1.0),
    ("travel", 0.9),
    ("news", 0.8),
    ("astronomy", 0.7),
    ("nutrition", 0.6),
    ("comics", 0.6),
    ("harry_potter", 0.5),
    ("other", 0.9),
)
_TOPIC_CONCENTRATION = 1.2
_TOPIC_ALPHA = _TOPIC_CONCENTRATION * np.array([w for _, w in _TOPIC_APPEAL])
_TOPICS = tuple(t for t, _ in _TOPIC_APPEAL) + ("intro",)
_SYSTEM = tuple(f"let us talk about {t}" for t in _TOPICS)  # by topic code

_RG_CHOICES = ("fact", "opinion", "question", "menu", "other")
_RG_PROBS = (0.35, 0.22, 0.2, 0.13, 0.1)


def _cdf(p) -> np.ndarray:
    """Cumulative sums along the last axis, each row divided by its last
    entry so that it ends at exactly 1.0."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform ``u[j]`` from the CDF row ``cdf[j]`` (or
    from ``cdf`` itself when it is one row): the count of entries <= u[j],
    which is ``np.searchsorted(cdf[j], u[j], side="right")``."""
    return (cdf <= u[:, None]).sum(axis=1)


_RG_CDF = _cdf(_RG_PROBS)
_RG_NAMES = _RG_CHOICES + ("intro",)

# Filler vocabulary, disjoint from every word used by the shipped
# lexicon phrases so no accidental tag can form.
_FILLER = (
    "meadow", "quartz", "lantern", "harbor", "pebble", "spruce", "violet",
    "ember", "ridge", "thimble", "walnut", "breeze", "copper", "fable",
    "garnet", "hollow", "ivory", "juniper", "kestrel", "lagoon", "marble",
    "nectar", "orchard", "plume", "quill", "russet", "saffron", "tundra",
    "umber", "velvet", "willow", "yonder", "zephyr", "basalt", "cinder",
    "drift", "eddy", "fjord", "glade", "heath",
)


class GeneratorError(ValueError):
    """Raised for invalid generator configurations."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the planted-structure generator.

    Rates are per exchange; every ``*_gain`` scales the engagement
    linkage of its rate (complaint and neg_answer couple to 1-e).  The
    engagement shape, the length and rating bases, the length cap and
    the topics' appeal are module constants.
    """

    n_conversations: int
    seed: int = 0
    # length model (log scale for the non-accidental body)
    short_mass: float = 0.15
    length_log_gain: float = 1.55
    length_log_noise: float = 0.10
    # rating linkage (defaults tuned numerically: full-corpus rating
    # mean ~3.72, median 4, rating/length r ~0.134 at large n)
    rating_gain: float = 1.03
    rating_noise: float = 1.0
    # verbosity (filler words per user utterance)
    verbosity_base: float = 2.0
    verbosity_gain: float = 11.0
    # social dialogue act rates
    compliment_base: float = 0.02
    compliment_gain: float = 0.30
    complaint_base: float = 0.02
    complaint_gain: float = 0.25
    # midas tag rates
    user_init_base: float = 0.25
    user_init_gain: float = 0.45
    pos_answer_base: float = 0.15
    pos_answer_gain: float = 0.45
    neg_answer_base: float = 0.05
    neg_answer_gain: float = 0.35


def _validate(cfg: GeneratorConfig) -> None:
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise GeneratorError(f"{f.name} must be finite, got {v}")
    if cfg.n_conversations < 1:
        raise GeneratorError(f"n_conversations must be >= 1, got {cfg.n_conversations}")
    rates = {
        "short_mass": cfg.short_mass,
        "compliment_base": cfg.compliment_base,
        "complaint_base": cfg.complaint_base,
        "user_init_base": cfg.user_init_base,
        "pos_answer_base": cfg.pos_answer_base,
        "neg_answer_base": cfg.neg_answer_base,
    }
    for name, v in rates.items():
        if not 0.0 <= v <= 1.0:
            raise GeneratorError(f"{name} must be in [0, 1], got {v}")
    for name in ("length_log_noise", "rating_noise", "verbosity_base", "verbosity_gain"):
        if getattr(cfg, name) < 0.0:
            raise GeneratorError(f"{name} must be >= 0")
    if cfg.verbosity_base + cfg.verbosity_gain > _VERBOSITY_MAX:
        raise GeneratorError(
            f"verbosity_base + verbosity_gain must be <= {_VERBOSITY_MAX:g}, got "
            f"{cfg.verbosity_base:g} + {cfg.verbosity_gain:g}"
        )


def _lexicon_phrases() -> tuple[tuple[str, ...], tuple[str, ...]]:
    cfg = default_config()
    by_label = {l.label: l.patterns for l in cfg.lexicons}
    return by_label["sda_compliment"], by_label["sda_complaint"]


# The kinds of draw, in the order their streams are spawned from the root
# seed.  The first six give one value per conversation; "exchange_uniforms"
# gives one row of six per exchange (topic, rg, user_init, answer,
# compliment, complaint), the picks and word counts one value per exchange,
# and "filler" one value per filler word.
_STREAMS = (
    "engagement", "short_flag", "short_length", "body_length", "rating",
    "topic_interest", "exchange_uniforms", "compliment_pick", "complaint_pick",
    "word_count", "filler",
)

# Conversations drawn per call to each stream; bounds the memory the draws
# hold, and changes no value.
_BLOCK = 256

_MIDAS_SETS = tuple(
    (init,) + answer
    for init in ("sys_init", "user_init")
    for answer in ((), ("pos_answer",), ("neg_answer",))
)


def _block(rng: dict, cfg: GeneratorConfig, n: int, phrases):
    """Draw the next ``n`` conversations from the streams ``rng``.

    Returns lists of their lengths and ratings and of each exchange's
    user text, then arrays of each exchange's topic, rg and midas codes
    (indices into ``_TOPICS``, ``_RG_NAMES`` and ``((),) + _MIDAS_SETS``).
    """
    e = rng["engagement"].beta(_ENGAGEMENT_SHAPE, _ENGAGEMENT_SHAPE, n)
    short = rng["short_flag"].random(n) < cfg.short_mass
    short_len = rng["short_length"].integers(1, _SHORT_MAX + 1, n)
    log_len = rng["body_length"].normal(
        _LENGTH_LOG_BASE + cfg.length_log_gain * e, cfg.length_log_noise
    )
    # Capping the exponent first leaves every length as it was and keeps
    # exp from overflowing; anything above the cap clips to _LENGTH_MAX.
    log_len = np.minimum(log_len, math.log(_LENGTH_MAX + 1))
    body = np.clip(np.floor(np.exp(log_len) + 0.5), _BODY_MIN, _LENGTH_MAX)
    lengths = np.where(short, short_len, body).astype(np.intp)
    r_cont = rng["rating"].normal(_RATING_BASE + cfg.rating_gain * e, cfg.rating_noise)
    ratings = np.clip(np.floor(r_cont + 0.5), 1, 5).astype(int)
    interest = rng["topic_interest"].dirichlet(_TOPIC_ALPHA, n)

    conv = np.repeat(np.arange(n), lengths)  # each exchange's conversation
    u = rng["exchange_uniforms"].random((len(conv), 6))
    first = np.cumsum(lengths) - lengths
    topic = _pick(_cdf(interest)[conv], u[:, 0])
    rg = _pick(_RG_CDF, u[:, 1])
    topic[first] = rg[first] = -1  # the intro, last in both tables

    def rate(base, gain, x):
        return np.clip(base + gain * x, 0.0, 1.0)[conv]

    pos = rate(cfg.pos_answer_base, cfg.pos_answer_gain, e)
    answer_rate = pos + rate(cfg.neg_answer_base, cfg.neg_answer_gain, 1.0 - e)
    user_init = u[:, 2] < rate(cfg.user_init_base, cfg.user_init_gain, e)
    answer = np.where(u[:, 3] < pos, 1, np.where(u[:, 3] < answer_rate, 2, 0))
    midas = (1 + 3 * user_init + answer).astype(np.int32)
    comp = u[:, 4] < rate(cfg.compliment_base, cfg.compliment_gain, e)
    compl = u[:, 5] < rate(cfg.complaint_base, cfg.complaint_gain, 1.0 - e)
    lam = (cfg.verbosity_base + cfg.verbosity_gain * e)[conv]
    return (
        (lengths.tolist(), ratings.tolist(), _user_texts(rng, lam, comp, compl, *phrases)),
        (topic % len(_TOPICS), rg % len(_RG_NAMES), midas),
    )


def _user_texts(rng: dict, lam, comp, compl, compliments, complaints) -> list[str]:
    """Each exchange's filler words, then its planted phrases.

    An exchange's budget is 1 + Poisson(lam) words.  Its compliment is
    planted only where the phrase fits the budget, and its complaint only
    where it fits what is left; the filler words fill the rest.  So every
    utterance has exactly its budget of words, and word counts read
    verbosity and nothing else.
    """
    comp_pick = rng["compliment_pick"].integers(0, len(compliments), len(lam))
    compl_pick = rng["complaint_pick"].integers(0, len(complaints), len(lam))
    budget = 1 + rng["word_count"].poisson(lam)
    comp_words = np.array([len(p.split()) for p in compliments])[comp_pick]
    comp &= comp_words <= budget
    budget -= comp * comp_words
    compl_words = np.array([len(p.split()) for p in complaints])[compl_pick]
    compl &= compl_words <= budget
    budget -= compl * compl_words
    words = rng["filler"].integers(0, len(_FILLER), int(budget.sum()))
    # One token per filler word and planted phrase, then a newline ending
    # each exchange; token codes index ``vocab``.
    vocab = [w + " " for w in _FILLER + compliments + complaints] + ["\n"]
    last = np.cumsum(budget + comp + compl + 1) - 1
    at_compl = (last - 1)[compl]
    at_comp = (last - 1 - compl)[comp]
    tokens = np.empty(last[-1] + 1, dtype=np.intp)
    tokens[last] = len(vocab) - 1
    tokens[at_comp] = len(_FILLER) + comp_pick[comp]
    tokens[at_compl] = len(_FILLER) + len(compliments) + compl_pick[compl]
    is_word = np.ones(len(tokens), dtype=bool)
    is_word[last] = is_word[at_comp] = is_word[at_compl] = False
    tokens[is_word] = words
    text = "".join(map(vocab.__getitem__, tokens.tolist()))
    return text.replace(" \n", "\n").split("\n")[:-1]


def generate(cfg: GeneratorConfig) -> Corpus:
    """Generate a corpus; same config (seed included) → identical output."""
    _validate(cfg)
    phrases = _lexicon_phrases()
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(_STREAMS))
    rng = dict(zip(_STREAMS, map(np.random.default_rng, seeds)))
    n = cfg.n_conversations
    lengths, ratings, user, codes = [], [], [], []
    for i in range(0, n, _BLOCK):
        lists, arrays = _block(rng, cfg, min(_BLOCK, n - i), phrases)
        for column, part in zip((lengths, ratings, user), lists):
            column += part
        codes.append(arrays)
    topic, rg, midas = map(np.concatenate, zip(*codes))
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    topic = topic.astype(np.int32)
    width = max(6, len(str(n - 1)))
    return Corpus._from_columns(
        ids=[f"syn-{i:0{width}d}" for i in range(n)],
        ratings=ratings,
        offsets=offsets,
        topic=topic,
        rg=rg.astype(np.int32),
        user=user,
        system=list(map(_SYSTEM.__getitem__, topic.tolist())),
        midas=midas,
        sda=np.zeros(len(topic), dtype=np.int32),
        topic_names=_TOPICS,
        rg_names=_RG_NAMES,
        tagsets=((),) + tuple(tuple(sorted(s)) for s in _MIDAS_SETS),
        split=None,
    )


def compliment_driven_config(n_conversations: int, seed: int = 0) -> GeneratorConfig:
    """Variant where compliment frequency is the dominant length signal.

    Verbosity and midas linkages are flattened, so a length tree's best
    first split is the compliment-frequency column.
    """
    return GeneratorConfig(
        n_conversations=n_conversations,
        seed=seed,
        verbosity_base=4.0,
        verbosity_gain=0.0,
        compliment_base=0.05,
        compliment_gain=0.75,
        complaint_base=0.05,
        complaint_gain=0.0,
        user_init_base=0.4,
        user_init_gain=0.0,
        pos_answer_base=0.3,
        pos_answer_gain=0.0,
        neg_answer_base=0.2,
        neg_answer_gain=0.0,
    )


def single_signal_config(n_conversations: int, seed: int = 0) -> GeneratorConfig:
    """Variant where only the compliment rate carries the latent signal.

    Everything else still varies (nonzero base rates) but is decoupled
    from engagement, giving ablation studies one planted signal feature
    and a bed of irrelevant ones.
    """
    return replace(
        compliment_driven_config(n_conversations, seed),
        length_log_noise=0.05,
    )


def deterministic_length_config(n_conversations: int, seed: int = 0) -> GeneratorConfig:
    """No-noise variant: length is a fixed function of the compliment rate.

    Both length and compliment rate are affine in engagement with zero
    conditional noise on the length side, and verbosity gives a second
    precise readout, so a forest should recover length almost exactly.
    """
    return GeneratorConfig(
        n_conversations=n_conversations,
        seed=seed,
        short_mass=0.0,
        length_log_noise=0.0,
        verbosity_base=2.0,
        verbosity_gain=28.0,
        compliment_base=0.05,
        compliment_gain=0.75,
        rating_noise=1.2,
    )


# Each named generator configuration, called as ``preset(n, seed=seed)``.
PRESETS = {
    "default": GeneratorConfig,
    "compliment": compliment_driven_config,
    "single-signal": single_signal_config,
    "deterministic": deterministic_length_config,
}
