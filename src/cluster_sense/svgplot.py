"""Self-contained SVG line panels, one curve per dataset.

No external assets, scripts or stylesheets: every panel is a single static
SVG document that any browser or office suite can open offline.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import Optional

# Dark, print-safe hues; cycled when a panel holds more curves than entries.
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class Series:
    """One curve: points plus an optional (low, high) band per point."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    band: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.label!r}: {len(self.x)} x values, {len(self.y)} y values")
        if self.band is not None:
            band = tuple((float(lo), float(hi)) for lo, hi in self.band)
            object.__setattr__(self, "band", band)
            if len(band) != len(self.x):
                raise ValueError(f"series {self.label!r}: band length {len(band)} != {len(self.x)}")

    def finite_points(self) -> list[tuple[float, float]]:
        return [(a, b) for a, b in zip(self.x, self.y) if math.isfinite(a) and math.isfinite(b)]

    def finite_band(self) -> list[tuple[float, float, float]]:
        if self.band is None:
            return []
        triples = []
        for a, (lo, hi) in zip(self.x, self.band):
            if math.isfinite(a) and math.isfinite(lo) and math.isfinite(hi):
                triples.append((a, lo, hi))
        return triples


def _tick_step(raw: float) -> float:
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if power * mult >= raw:
            return power * mult
    return power * 10.0


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round-numbered ticks from lo to hi, about `target` of them.

    ValueError when the range is empty (the data range pads a single value,
    but the pad can round off), wider than float64 holds, or so narrow for
    its magnitude that adding a step would not move past its ends.
    """
    raw = (hi - lo) / target
    step = _tick_step(raw) if 0.0 < raw < math.inf else 0.0
    edge = max(abs(lo), abs(hi))
    if not edge + step > edge:
        raise ValueError(f"the axis range {lo!r} to {hi!r} cannot be ticked in float64")
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _fmt_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _data_range(series: tuple[Series, ...]) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for s in series:
        for a, b in s.finite_points():
            xs.append(a)
            ys.append(b)
        for a, lo, hi in s.finite_band():
            xs.append(a)
            ys.extend((lo, hi))
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = max(abs(y_lo) * 0.1, 0.5)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    return x_lo, x_hi, y_lo, y_hi


def render_panel(
    series: tuple[Series, ...],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render curves into one standalone SVG panel string."""
    series = tuple(series)
    x_lo, x_hi, y_lo, y_hi = _data_range(series)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(value: float) -> float:
        return _MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return _MARGIN_TOP + (y_hi - value) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="#111111">{html.escape(title)}</text>',
    ]

    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{px:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_TOP + plot_h + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{_fmt_tick(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{py:.2f}" x2="{_MARGIN_LEFT + plot_w:.2f}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{_fmt_tick(tick)}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#444444" stroke-width="1"/>'
    )

    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        band = s.finite_band()
        if len(band) >= 2:
            upper = " ".join(f"{sx(a):.2f},{sy(hi):.2f}" for a, _, hi in band)
            lower = " ".join(f"{sx(a):.2f},{sy(lo):.2f}" for a, lo, _ in reversed(band))
            parts.append(
                f'<polygon points="{upper} {lower}" fill="{color}" fill-opacity="0.15" stroke="none"/>'
            )
        points = s.finite_points()
        if len(points) >= 2:
            coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        for a, b in points:
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.2" fill="{color}"/>')

    legend_x = _MARGIN_LEFT + plot_w - 12
    legend_y = _MARGIN_TOP + 10
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        row_y = legend_y + index * 16
        parts.append(
            f'<line x1="{legend_x - 30:.2f}" y1="{row_y:.2f}" x2="{legend_x - 12:.2f}" '
            f'y2="{row_y:.2f}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x - 36:.2f}" y="{row_y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#111111">{html.escape(s.label)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#111111">{html.escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#111111" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">{html.escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
