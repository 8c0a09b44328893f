"""Static SVG line charts with no plotting dependency.

CSV files are the primary output of the CLI; these charts are a quick
visual check that mirrors them. Layout is a fixed grid of panels, each
with axes, tick labels, optional dashed series, and an inline legend.
All coordinates are formatted with "%.2f" so output is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "Panel", "render_figure"]

_COLORS = ("#000000", "#c4279c", "#2060c0", "#1a9850", "#d73027", "#7b3294")

_PANEL_W = 380.0
_PANEL_H = 220.0
_MARGIN_L = 56.0
_MARGIN_R = 12.0
_MARGIN_T = 28.0
_MARGIN_B = 36.0


@dataclass
class Series:
    """One polyline: x and y data plus draw style."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""
    color: str | None = None
    dashed: bool = False


@dataclass
class Panel:
    """One chart: a titled axes box containing several series."""

    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)

    def add(self, x, y, label: str = "", color: str | None = None, dashed: bool = False) -> "Panel":
        self.series.append(Series(np.asarray(x, float), np.asarray(y, float), label, color, dashed))
        return self


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_panel(panel: Panel, ox: float, oy: float, out: list[str]) -> None:
    x0, y0 = ox + _MARGIN_L, oy + _MARGIN_T
    w = _PANEL_W - _MARGIN_L - _MARGIN_R
    h = _PANEL_H - _MARGIN_T - _MARGIN_B

    xs = [s.x for s in panel.series if s.x.size]
    ys = [s.y for s in panel.series if s.y.size]
    if xs:
        xlo = min(float(np.min(a)) for a in xs)
        xhi = max(float(np.max(a)) for a in xs)
        ylo = min(float(np.min(a)) for a in ys)
        yhi = max(float(np.max(a)) for a in ys)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi <= xlo:
        xhi = xlo + 1.0
    pad = 0.05 * (yhi - ylo) or 0.5
    ylo, yhi = ylo - pad, yhi + pad

    # Pixel coordinates of a value or, elementwise, of an array of them.
    def px(v):
        return x0 + (v - xlo) / (xhi - xlo) * w

    def py(v):
        return y0 + h - (v - ylo) / (yhi - ylo) * h

    out.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        'fill="#ffffff" stroke="#333333" stroke-width="0.8"/>'
    )
    out.append(
        f'<text x="{_fmt(ox + _PANEL_W / 2)}" y="{_fmt(oy + 16)}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{_esc(panel.title)}</text>'
    )
    for t in _nice_ticks(xlo, xhi):
        tx = px(t)
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{_fmt(y0 + h)}" x2="{_fmt(tx)}" y2="{_fmt(y0 + h + 4)}" '
            'stroke="#333333" stroke-width="0.8"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{_fmt(y0 + h + 15)}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(ylo, yhi):
        ty = py(t)
        out.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(ty)}" x2="{_fmt(x0)}" y2="{_fmt(ty)}" '
            'stroke="#333333" stroke-width="0.8"/>'
        )
        out.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(ty + 3)}" text-anchor="end" '
            f'font-size="9" font-family="sans-serif">{_fmt_tick(t)}</text>'
        )
    out.append(
        f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(oy + _PANEL_H - 6)}" text-anchor="middle" '
        f'font-size="10" font-family="sans-serif">{_esc(panel.xlabel)}</text>'
    )
    out.append(
        f'<text x="{_fmt(ox + 14)}" y="{_fmt(y0 + h / 2)}" text-anchor="middle" font-size="10" '
        f'font-family="sans-serif" transform="rotate(-90 {_fmt(ox + 14)} {_fmt(y0 + h / 2)})">'
        f"{_esc(panel.ylabel)}</text>"
    )

    legend_y = y0 + 12
    for idx, s in enumerate(panel.series):
        color = s.color or _COLORS[idx % len(_COLORS)]
        if s.x.size == 0:
            continue
        xy = np.empty(2 * s.x.size)
        xy[0::2], xy[1::2] = px(s.x), py(s.y)
        pts = " ".join(["%.2f,%.2f"] * s.x.size) % tuple(xy.tolist())
        dash = ' stroke-dasharray="5,3"' if s.dashed else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.20"{dash}/>'
        )
        if s.label:
            out.append(
                f'<line x1="{_fmt(x0 + w - 86)}" y1="{_fmt(legend_y - 3)}" x2="{_fmt(x0 + w - 70)}" '
                f'y2="{_fmt(legend_y - 3)}" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
            out.append(
                f'<text x="{_fmt(x0 + w - 66)}" y="{_fmt(legend_y)}" font-size="9" '
                f'font-family="sans-serif">{_esc(s.label)}</text>'
            )
            legend_y += 12


def render_figure(panels: list[Panel], ncols: int = 1) -> str:
    """The panels as one SVG document, laid out in a grid of ncols."""
    nrows = (len(panels) + ncols - 1) // ncols
    width = ncols * _PANEL_W
    height = nrows * _PANEL_H
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
    ]
    for idx, panel in enumerate(panels):
        ox = (idx % ncols) * _PANEL_W
        oy = (idx // ncols) * _PANEL_H
        _render_panel(panel, ox, oy, out)
    out.append("</svg>")
    return "\n".join(out) + "\n"
