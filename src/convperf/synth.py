"""Seeded synthetic-corpus generator with planted structure.

Every conversation is driven by a latent engagement value e in [0, 1].
Engagement raises conversation length (log-normal body), per-utterance
verbosity, compliment rate, and initiative/answer tag rates; complaint
rate rises as engagement falls; the rating is a noisy, weakly coupled
readout of the same latent.  A configurable point mass at lengths 1-4
models accidental invocations.  Compliment and complaint phrases are
taken verbatim from the shipped lexicons and embedded in the user text,
so the tagger recovers exactly the planted acts, while filler words
never overlap lexicon vocabulary.

Randomness: one root seed spawns an independent substream per
conversation, so corpora are reproducible and generation order free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus
from .tagging import default_config

_SHORT_MAX = 4  # accidental-invocation lengths are 1.._SHORT_MAX
_BODY_MIN = 5

DEFAULT_TOPIC_APPEAL = (
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

_RG_CHOICES = ("fact", "opinion", "question", "menu", "other")
_RG_PROBS = (0.35, 0.22, 0.2, 0.13, 0.1)


def _cdf(p) -> np.ndarray:
    """The normalized cumulative sum ``Generator.choice`` draws against."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(cdf), size, p=p)`` for ``cdf = _cdf(p)``: the same
    arithmetic, so the same indices and the same generator state after, but
    without ``choice``'s per-call argument checks."""
    return cdf.searchsorted(rng.random(size), side="right")


_RG_CDF = _cdf(_RG_PROBS)

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
    """Raised for invalid or infeasible generator configurations."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the planted-structure generator.

    Rates are per exchange; every ``*_gain`` scales the engagement
    linkage of its rate (complaint and neg_answer couple to 1-e).
    ``target_r`` declares the intended rating/length correlation and is
    checked against what the rating noise permits.
    """

    n_conversations: int
    seed: int = 0
    # latent user model
    engagement_alpha: float = 2.0
    engagement_beta: float = 2.0
    # length model (log scale for the non-accidental body)
    short_mass: float = 0.15
    length_log_base: float = 2.2
    length_log_gain: float = 1.55
    length_log_noise: float = 0.10
    length_max: int = 200
    # rating linkage (defaults tuned numerically: full-corpus rating
    # mean ~3.72, median 4, rating/length r ~0.134 at large n)
    rating_base: float = 3.25
    rating_gain: float = 1.03
    rating_noise: float = 1.0
    target_r: float = 0.134
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
    # topics
    topic_appeal: tuple[tuple[str, float], ...] = DEFAULT_TOPIC_APPEAL
    topic_concentration: float = 1.2


def engagement_sd(cfg: GeneratorConfig) -> float:
    a, b = cfg.engagement_alpha, cfg.engagement_beta
    return math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))


def attainable_correlation(cfg: GeneratorConfig) -> float:
    """Upper bound on rating/length r given the rating noise."""
    signal = cfg.rating_gain * engagement_sd(cfg)
    if signal <= 0.0:
        return 0.0
    if cfg.rating_noise == 0.0:
        return 1.0
    return signal / math.hypot(signal, cfg.rating_noise)


def _validate(cfg: GeneratorConfig) -> None:
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
    if cfg.engagement_alpha <= 0 or cfg.engagement_beta <= 0:
        raise GeneratorError("engagement shape parameters must be positive")
    if cfg.length_max < _BODY_MIN:
        raise GeneratorError(f"length_max must be >= {_BODY_MIN}")
    if not cfg.topic_appeal:
        raise GeneratorError("topic inventory is empty")
    if any(w <= 0 for _, w in cfg.topic_appeal):
        raise GeneratorError("topic appeal weights must be positive")
    bound = attainable_correlation(cfg)
    if cfg.target_r > bound + 1e-12:
        raise GeneratorError(
            f"target rating/length correlation {cfg.target_r:.3f} exceeds the "
            f"attainable bound {bound:.3f} under rating_noise="
            f"{cfg.rating_noise:g}; lower the noise or raise rating_gain"
        )


def _lexicon_phrases() -> tuple[tuple[str, ...], tuple[str, ...]]:
    cfg = default_config()
    by_label = {l.label: l.patterns for l in cfg.lexicons}
    return by_label["sda_compliment"], by_label["sda_complaint"]


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


# Conversations drawn before their draws become columns; bounds the
# memory the draws hold.
_BLOCK = 1000

_MIDAS_SETS = tuple(
    (init,) + answer
    for init in ("sys_init", "user_init")
    for answer in ((), ("pos_answer",), ("neg_answer",))
)


class _Draws:
    """The random draws of a block of conversations, one conversation after
    another, in each conversation's draw order."""

    def __init__(self):
        self.lengths, self.ratings = [], []
        # Per-conversation rates, repeated over its exchanges when compared.
        self.ui_rate, self.pos_rate, self.answer_rate = [], [], []
        # Per-exchange draws.
        self.topic_idx, self.rg_idx = [], []
        self.init_draw, self.answer_draw, self.comp_flags, self.compl_flags = [], [], [], []
        self.comp_pick, self.compl_pick, self.word_counts, self.word_idx = [], [], [], []

    def add(self, rng: np.random.Generator, cfg: GeneratorConfig, n_phrases, appeal):
        """Draw one conversation from its own generator."""
        e = float(rng.beta(cfg.engagement_alpha, cfg.engagement_beta))

        if rng.random() < cfg.short_mass:
            length = int(rng.integers(1, _SHORT_MAX + 1))
        else:
            log_len = rng.normal(
                cfg.length_log_base + cfg.length_log_gain * e, cfg.length_log_noise
            )
            length = int(math.floor(math.exp(log_len) + 0.5))
            length = min(max(length, _BODY_MIN), cfg.length_max)
        self.lengths.append(length)

        r_cont = rng.normal(cfg.rating_base + cfg.rating_gain * e, cfg.rating_noise)
        self.ratings.append(int(min(5, max(1, math.floor(r_cont + 0.5)))))

        interest = rng.dirichlet(cfg.topic_concentration * appeal)
        self.topic_idx.append(_draw(rng, _cdf(interest), length))
        self.rg_idx.append(_draw(rng, _RG_CDF, length))

        pos_rate = _clamp01(cfg.pos_answer_base + cfg.pos_answer_gain * e)
        neg_rate = _clamp01(cfg.neg_answer_base + cfg.neg_answer_gain * (1.0 - e))
        self.ui_rate.append(_clamp01(cfg.user_init_base + cfg.user_init_gain * e))
        self.pos_rate.append(pos_rate)
        self.answer_rate.append(pos_rate + neg_rate)
        comp_rate = _clamp01(cfg.compliment_base + cfg.compliment_gain * e)
        compl_rate = _clamp01(cfg.complaint_base + cfg.complaint_gain * (1.0 - e))

        self.init_draw.append(rng.random(length))
        self.answer_draw.append(rng.random(length))
        self.comp_flags.append(rng.random(length) < comp_rate)
        self.compl_flags.append(rng.random(length) < compl_rate)
        self.comp_pick.append(rng.integers(0, n_phrases[0], size=length))
        self.compl_pick.append(rng.integers(0, n_phrases[1], size=length))

        lam = cfg.verbosity_base + cfg.verbosity_gain * e
        word_counts = 1 + rng.poisson(lam, size=length)
        self.word_counts.append(word_counts)
        self.word_idx.append(rng.integers(0, len(_FILLER), size=int(word_counts.sum())))

    def columns(self, topics, compliments, complaints):
        """(topic, rg, user, midas code) of every drawn exchange; midas
        codes index ``((),) + _MIDAS_SETS``."""
        lengths = np.array(self.lengths)
        topic = list(map(topics.__getitem__, np.concatenate(self.topic_idx).tolist()))
        rg = list(map(_RG_CHOICES.__getitem__, np.concatenate(self.rg_idx).tolist()))
        for j in (np.cumsum(lengths) - lengths).tolist():
            topic[j] = rg[j] = "intro"
        user_init = np.concatenate(self.init_draw) < np.repeat(self.ui_rate, lengths)
        answer_draw = np.concatenate(self.answer_draw)
        answer = np.where(
            answer_draw < np.repeat(self.pos_rate, lengths),
            1,
            np.where(answer_draw < np.repeat(self.answer_rate, lengths), 2, 0),
        )
        midas = (1 + 3 * user_init + answer).astype(np.int32)
        return topic, rg, self._user_texts(compliments, complaints), midas

    def _user_texts(self, compliments, complaints) -> list[str]:
        """Each exchange's filler words, then its planted phrases.

        Planted phrases consume the utterance's word budget rather than
        extending it, so word counts read verbosity and nothing else.
        """
        word_counts = np.concatenate(self.word_counts)
        comp_flags = np.concatenate(self.comp_flags)
        compl_flags = np.concatenate(self.compl_flags)
        comp_pick = np.concatenate(self.comp_pick)
        compl_pick = np.concatenate(self.compl_pick)
        planted = comp_flags * np.array([len(p.split()) for p in compliments])[comp_pick]
        planted += compl_flags * np.array([len(p.split()) for p in complaints])[compl_pick]
        n_fill = np.maximum(0, word_counts - planted).tolist()
        starts = (np.cumsum(word_counts) - word_counts).tolist()
        words = list(map(_FILLER.__getitem__, np.concatenate(self.word_idx).tolist()))
        texts = [" ".join(words[a : a + k]) for a, k in zip(starts, n_fill)]
        for j in np.flatnonzero(comp_flags | compl_flags).tolist():
            tail = []
            if comp_flags[j]:
                tail.append(compliments[comp_pick[j]])
            if compl_flags[j]:
                tail.append(complaints[compl_pick[j]])
            texts[j] = " ".join(words[starts[j] : starts[j] + n_fill[j]] + tail)
        return texts


def generate(cfg: GeneratorConfig) -> Corpus:
    """Generate a corpus; same config (seed included) → identical output."""
    _validate(cfg)
    compliments, complaints = _lexicon_phrases()
    n_phrases = (len(compliments), len(complaints))
    topics = [t for t, _ in cfg.topic_appeal]
    appeal = np.array([w for _, w in cfg.topic_appeal], dtype=float)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_conversations)
    ratings, lengths, topic, rg, user, midas = [], [], [], [], [], []
    for first in range(0, cfg.n_conversations, _BLOCK):
        d = _Draws()
        for child in children[first : first + _BLOCK]:
            d.add(np.random.default_rng(child), cfg, n_phrases, appeal)
        block_topic, block_rg, block_user, block_midas = d.columns(
            topics, compliments, complaints
        )
        topic += block_topic
        rg += block_rg
        user += block_user
        midas.append(block_midas)
        ratings += d.ratings
        lengths += d.lengths
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    system_text = {t: f"let us talk about {t}" for t in set(topic)}
    width = max(6, len(str(cfg.n_conversations - 1)))
    return Corpus._from_columns(
        ids=[f"syn-{i:0{width}d}" for i in range(cfg.n_conversations)],
        ratings=ratings,
        offsets=offsets,
        topic=topic,
        rg=rg,
        user=user,
        system=list(map(system_text.__getitem__, topic)),
        midas=np.concatenate(midas),
        sda=np.zeros(len(topic), dtype=np.int32),
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
        target_r=0.1,
    )


# Each named generator configuration, called as ``preset(n, seed=seed)``.
PRESETS = {
    "default": GeneratorConfig,
    "compliment": compliment_driven_config,
    "single-signal": single_signal_config,
    "deterministic": deterministic_length_config,
}
