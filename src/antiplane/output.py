"""Deterministic result files: CSV tables and log-log SVG plots.

Both writers are atomic (temp file in the target directory, then
``os.replace``) so a crash never leaves a half-written file, and both
format numbers via ``repr`` of the Python float, the shortest string
that round-trips.  Identical inputs therefore give byte-identical
files, which the tests rely on.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
import tempfile

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _escape(text: str) -> str:
    """The three replacements of ``xml.sax.saxutils.escape``, ``&`` first;
    importing ``xml.sax`` would cost every CLI start tens of milliseconds."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def format_cell(value) -> str:
    """Canonical text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows (iterables of cells) under a mandatory header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    atomic_write_text(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# log-log SVG

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 55


def _decades(values):
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if hi <= lo:
        hi = lo + 1
    return lo, hi


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def write_svg_loglog(path, series, *, title, xlabel, ylabel) -> None:
    """Log-log line plot of ``series`` = [(label, xs, ys), ...].

    Points with a nonpositive coordinate cannot sit on a log axis and
    are dropped; a series with no plottable point is noted in the
    legend instead of drawn.
    """
    kept = []
    empty = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if x > 0.0 and y > 0.0 and math.isfinite(x) and math.isfinite(y)
        ]
        if pts:
            kept.append((label, pts))
        else:
            empty.append(label)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h

    if kept:
        xlo, xhi = _decades([p[0] for _, pts in kept for p in pts])
        ylo, yhi = _decades([p[1] for _, pts in kept for p in pts])

        def px(x):
            return x0 + (math.log10(x) - xlo) / (xhi - xlo) * plot_w

        def py(y):
            return y0 - (math.log10(y) - ylo) / (yhi - ylo) * plot_h

        for d in range(xlo, xhi + 1):
            x = px(10.0 ** d)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" '
                f'y2="{_MARGIN_T}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{y0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">1e{d}</text>'
            )
        for d in range(ylo, yhi + 1):
            y = py(10.0 ** d)
            parts.append(
                f'<line x1="{x0}" y1="{_fmt(y)}" x2="{x0 + plot_w}" '
                f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">1e{d}</text>'
            )
        for i, (label, pts) in enumerate(kept):
            color = PALETTE[i % len(PALETTE)]
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for x, y in pts:
                parts.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
                    f'fill="{color}"/>'
                )
    else:
        parts.append(
            f'<text x="{x0 + plot_w / 2:.0f}" y="{_MARGIN_T + plot_h / 2:.0f}" '
            'text-anchor="middle" font-family="sans-serif" font-size="13">'
            "no positive data to plot</text>"
        )

    parts.append(
        f'<rect x="{x0}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
        'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.0f})">'
        f"{_escape(ylabel)}</text>"
    )

    legend_x = x0 + plot_w + 12
    legend_y = _MARGIN_T + 10
    for i, (label, _) in enumerate(kept):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    for j, label in enumerate(empty):
        y = legend_y + 18 * (len(kept) + j)
        parts.append(
            f'<text x="{legend_x}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11" fill="#888888">{_escape(label)} (no data)</text>'
        )

    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
