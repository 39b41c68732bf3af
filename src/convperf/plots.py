"""Deterministic SVG bar charts plus CSV companions.

The renderer is hand-rolled markup (no plotting dependency): identical
inputs give byte-identical SVG.  Every chart is 640 x 360 pixels.  Bars
may be negative (topic z-scores); the baseline sits at value zero.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

from .corpus import Corpus, open_output
from .topicscore import TopicScoreReport

_BIN_WIDTH = 5
_MAX_BINS = 20  # lengths past _BIN_WIDTH * _MAX_BINS collapse into the last bin

_WIDTH, _HEIGHT = 640, 360  # chart size in pixels


def length_histogram(corpus: Corpus) -> tuple[list[str], list[float]]:
    """Raw-length counts in width-5 bins with a trailing overflow bin."""
    bins = np.minimum((corpus.lengths() - 1) // _BIN_WIDTH, _MAX_BINS - 1)
    counts = np.bincount(bins, minlength=_MAX_BINS).tolist()
    labels = []
    for i in range(_MAX_BINS):
        lo = i * _BIN_WIDTH + 1
        hi = (i + 1) * _BIN_WIDTH
        labels.append(f"{lo}+" if i == _MAX_BINS - 1 else f"{lo}-{hi}")
    return labels, [float(c) for c in counts]


def rating_histogram(corpus: Corpus) -> tuple[list[str], list[float]]:
    """Counts of ratings 1..5; unrated conversations are skipped."""
    counts = Counter(corpus.ratings)
    return [str(r) for r in range(1, 6)], [float(counts[r]) for r in range(1, 6)]


def topic_z_bars(report: TopicScoreReport) -> tuple[list[str], list[float]]:
    """Topics best-first with their z-scores."""
    ranked = report.ranked()
    return [t for t, _ in ranked], [z for _, z in ranked]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_bar_svg(labels, values, title: str = "") -> str:
    """Vertical bar chart as a standalone SVG document string."""
    labels = list(labels)
    values = [float(v) for v in values]
    if len(labels) != len(values) or not labels:
        raise ValueError("labels and values must be equal-length and non-empty")
    top = max(0.0, max(values))
    bot = min(0.0, min(values))
    span = top - bot or 1.0

    margin_l, margin_r, margin_t, margin_b = 50, 10, 30, 60
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b
    n = len(values)
    slot = plot_w / n
    bar_w = slot * 0.8

    def y_of(v: float) -> float:
        return margin_t + (top - v) / span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    zero_y = y_of(0.0)
    parts.append(
        f'<line x1="{margin_l}" y1="{_fmt(zero_y)}" x2="{_WIDTH - margin_r}" '
        f'y2="{_fmt(zero_y)}" stroke="black" stroke-width="1"/>'
    )
    for i, (label, v) in enumerate(zip(labels, values)):
        x = margin_l + i * slot + (slot - bar_w) / 2
        y_top = y_of(max(v, 0.0))
        h = abs(v) / span * plot_h
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y_top)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="#4878a8"/>'
        )
        lx = margin_l + i * slot + slot / 2
        ly = _HEIGHT - margin_b + 12
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="9" '
            f'transform="rotate(-45 {_fmt(lx)} {_fmt(ly)})">{label}</text>'
        )
    for v in (bot, top):
        parts.append(
            f'<text x="{margin_l - 4}" y="{_fmt(y_of(v) + 3)}" '
            f'text-anchor="end" font-family="sans-serif" '
            f'font-size="10">{_fmt(v)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path_base, labels, values, title: str = "") -> None:
    """Write <base>.svg and <base>.csv for one bar chart."""
    with (open_output(f"{path_base}.svg") as svg,
          open_output(f"{path_base}.csv", newline="") as fh):
        svg.write(render_bar_svg(labels, values, title))
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["label", "value"])
        for label, v in zip(labels, values):
            w.writerow([label, repr(float(v))])
