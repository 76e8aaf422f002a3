"""Minimal native SVG line charts (no plotting dependency).

Output is deterministic for identical inputs apart from the version banner
comment at the top of the file.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
TICK_COUNT = 6


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / TICK_COUNT))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= TICK_COUNT:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        ticks.append(t)
        t += step
    return ticks


def line_chart(path, series, title: str, xlabel: str, ylabel: str, banner: str):
    """Write a polyline chart; series is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f"<!-- {banner} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {HEIGHT / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 18 + 16 * i}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
