"""Minimal deterministic SVG line plots for term-structure diagnostics.

Hand-rolled on purpose: identical inputs must produce identical bytes, so
there are no timestamps, no library identifiers, and every coordinate is
formatted with the same "%.6g" rule. Supports polylines over a logarithmic
maturity axis and a linear or logarithmic value axis, horizontal reference
lines for theoretical limits, and a small legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple
from xml.sax.saxutils import escape

from .asymptotics import TermSeries

__all__ = ["PlotStyle", "render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 14.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 46.0
_WIDTH = 640
_HEIGHT = 420
_X_LABEL = "T"


@dataclass(frozen=True)
class PlotStyle:
    """Options for ``render_line_plot``; the maturity (x) axis is always logarithmic."""

    title: str = ""
    y_log: bool = False


def _fmt(value: float) -> str:
    out = "%.6g" % value
    return "0" if out == "-0" else out


def _nice_linear_ticks(lo: float, hi: float) -> List[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= 6.0:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> List[float]:
    ticks = []
    for e in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1):
        for mantissa in (1.0, 2.0, 5.0):
            t = mantissa * 10.0**e
            if lo <= t <= hi:
                ticks.append(t)
    if len(ticks) > 8:
        ticks = [t for t in ticks if abs(math.log10(t) % 1.0) < 1e-9]
    return ticks


class _Axis:
    """Affine map from data coordinates to pixels, optionally through log10."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log:
            if lo <= 0:
                raise ValueError("log axis needs positive data")
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            pad = max(abs(lo), 1.0) * 0.5
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi
        self.log = log

    def __call__(self, value: float) -> float:
        v = math.log10(value) if self.log else value
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def ticks(self) -> List[float]:
        if self.log:
            return _log_ticks(10.0**self.lo, 10.0**self.hi)
        return _nice_linear_ticks(self.lo, self.hi)


def _data_bounds(
    series: Sequence[TermSeries],
    ref_values: Sequence[float],
    style: PlotStyle,
) -> Tuple[float, float, float, float]:
    xs: List[float] = []
    ys: List[float] = []
    for s in series:
        for t, v in zip(s.maturities, s.values):
            if not math.isfinite(v) or (style.y_log and v <= 0):
                continue
            xs.append(t)
            ys.append(v)
    ys.extend(v for v in ref_values if math.isfinite(v) and not (style.y_log and v <= 0))
    if not xs or not ys:
        raise ValueError("nothing to plot: no finite points in any series")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if style.y_log:
        pad = (y_hi / y_lo) ** 0.05 if y_hi > y_lo else 2.0
        y_lo, y_hi = y_lo / pad, y_hi * pad
    else:
        pad = 0.05 * (y_hi - y_lo) or max(abs(y_hi), 1.0) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    return x_lo, x_hi, y_lo, y_hi


def _polyline_segments(
    s: TermSeries, x_axis: _Axis, y_axis: _Axis, y_log: bool
) -> List[List[Tuple[float, float]]]:
    segments: List[List[Tuple[float, float]]] = []
    current: List[Tuple[float, float]] = []
    for t, v in zip(s.maturities, s.values):
        if math.isfinite(v) and not (y_log and v <= 0):
            current.append((x_axis(t), y_axis(v)))
        elif current:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def render_line_plot(
    series: Sequence[TermSeries],
    style: PlotStyle = PlotStyle(),
    ref_lines: Sequence[Tuple[str, float]] = (),
) -> str:
    """Render one or more term series as an SVG document string.

    Non-finite values (and non-positive values on a log y-axis) split the
    polyline; isolated points are drawn as small circles. Each reference
    line is horizontal, dashed, and labelled at the right edge.
    """
    if not series:
        raise ValueError("nothing to plot: no series given")
    x_lo, x_hi, y_lo, y_hi = _data_bounds(series, [v for _, v in ref_lines], style)
    width, height = float(_WIDTH), float(_HEIGHT)
    x_axis = _Axis(x_lo, x_hi, _MARGIN_LEFT, width - _MARGIN_RIGHT, log=True)
    y_axis = _Axis(y_lo, y_hi, height - _MARGIN_BOTTOM, _MARGIN_TOP, style.y_log)

    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if style.title:
        out.append(
            f'<text x="{_fmt(width / 2)}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(style.title)}</text>'
        )

    # axes frame
    frame = (
        _MARGIN_LEFT,
        _MARGIN_TOP,
        width - _MARGIN_RIGHT,
        height - _MARGIN_BOTTOM,
    )
    out.append(
        f'<rect x="{_fmt(frame[0])}" y="{_fmt(frame[1])}" '
        f'width="{_fmt(frame[2] - frame[0])}" height="{_fmt(frame[3] - frame[1])}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in x_axis.ticks():
        px = x_axis(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(frame[3])}" x2="{_fmt(px)}" '
            f'y2="{_fmt(frame[3] + 4)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(frame[3] + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    for t in y_axis.ticks():
        py = y_axis(t)
        out.append(
            f'<line x1="{_fmt(frame[0] - 4)}" y1="{_fmt(py)}" x2="{_fmt(frame[0])}" '
            f'y2="{_fmt(py)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(frame[0] - 7)}" y="{_fmt(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{_fmt((frame[0] + frame[2]) / 2)}" y="{_fmt(height - 8)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">'
        f"{_X_LABEL}</text>"
    )

    for label, value in ref_lines:
        if style.y_log and value <= 0:
            continue
        py = y_axis(value)
        out.append(
            f'<line x1="{_fmt(frame[0])}" y1="{_fmt(py)}" x2="{_fmt(frame[2])}" '
            f'y2="{_fmt(py)}" stroke="#555555" stroke-width="1" '
            'stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{_fmt(frame[2] - 4)}" y="{_fmt(py - 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#555555">'
            f"{escape(label)}</text>"
        )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        for seg in _polyline_segments(s, x_axis, y_axis, style.y_log):
            if len(seg) == 1:
                out.append(
                    f'<circle cx="{_fmt(seg[0][0])}" cy="{_fmt(seg[0][1])}" r="2.5" '
                    f'fill="{color}"/>'
                )
            else:
                points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in seg)
                out.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
        ly = _MARGIN_TOP + 14.0 + 14.0 * idx
        lx = width - _MARGIN_RIGHT - 150.0
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 3)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 3)}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 23)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="10">{escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
