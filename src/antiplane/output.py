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


def _text(x, y, size, body, anchor=None, extra="") -> str:
    """One sans-serif text element; ``body`` is escaped here."""
    anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{_escape(body)}</text>'
    )


def _line(x1, y1, x2, y2, stroke, width) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


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
        _text(f"{_WIDTH / 2:.0f}", 24, 15, title, anchor="middle"),
    ]

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    mid_x, mid_y = f"{x0 + plot_w / 2:.0f}", f"{_MARGIN_T + plot_h / 2:.0f}"

    if kept:
        xlo, xhi = _decades([p[0] for _, pts in kept for p in pts])
        ylo, yhi = _decades([p[1] for _, pts in kept for p in pts])

        def px(x):
            return x0 + (math.log10(x) - xlo) / (xhi - xlo) * plot_w

        def py(y):
            return y0 - (math.log10(y) - ylo) / (yhi - ylo) * plot_h

        for d in range(xlo, xhi + 1):
            x = _fmt(px(10.0 ** d))
            parts.append(_line(x, y0, x, _MARGIN_T, "#dddddd", 1))
            parts.append(_text(x, y0 + 18, 11, f"1e{d}", anchor="middle"))
        for d in range(ylo, yhi + 1):
            y = py(10.0 ** d)
            parts.append(_line(x0, _fmt(y), x0 + plot_w, _fmt(y), "#dddddd", 1))
            parts.append(_text(x0 - 8, _fmt(y + 4), 11, f"1e{d}", anchor="end"))
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
        parts.append(_text(mid_x, mid_y, 13, "no positive data to plot", anchor="middle"))

    parts.append(
        f'<rect x="{x0}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(_text(mid_x, _HEIGHT - 12, 13, xlabel, anchor="middle"))
    rotate = f' transform="rotate(-90 20 {mid_y})"'
    parts.append(_text(20, mid_y, 13, ylabel, anchor="middle", extra=rotate))

    legend_x = x0 + plot_w + 12
    legend_y = _MARGIN_T + 10
    for i, (label, _) in enumerate(kept):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18 * i
        parts.append(_line(legend_x, y, legend_x + 22, y, color, 2))
        parts.append(_text(legend_x + 28, y + 4, 11, label))
    for j, label in enumerate(empty):
        y = legend_y + 18 * (len(kept) + j)
        parts.append(_text(legend_x, y + 4, 11, f"{label} (no data)", extra=' fill="#888888"'))

    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
