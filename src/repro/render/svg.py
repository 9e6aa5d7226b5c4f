"""A small SVG plotting backend.

The Render module of the paper uses Bokeh; this environment has no plotting
library, so charts are drawn as standalone SVG.  Only the primitives the EDA
charts need are implemented: linear scales with ticks, bars, lines, points,
rectangles and text.  The output is deliberately simple, self-contained
markup that can be embedded directly into the HTML layout.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Default qualitative palette (colour-blind friendly, Bokeh Category10-like).
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

#: Sequential palette for heat maps (light to dark blue).
HEAT_PALETTE = (
    "#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6",
    "#4292c6", "#2171b5", "#08519c", "#08306b",
)

#: Diverging palette for correlation heat maps (blue - white - red).
DIVERGING_PALETTE = (
    "#2166ac", "#67a9cf", "#d1e5f0", "#f7f7f7", "#fddbc7", "#ef8a62", "#b2182b",
)


def color_for(index: int) -> str:
    """Categorical colour for a series index."""
    return PALETTE[index % len(PALETTE)]


def sequential_color(value: float) -> str:
    """Colour from the sequential palette for a value in [0, 1]."""
    value = min(max(value, 0.0), 1.0)
    index = int(round(value * (len(HEAT_PALETTE) - 1)))
    return HEAT_PALETTE[index]


def diverging_color(value: float) -> str:
    """Colour from the diverging palette for a value in [-1, 1]."""
    value = min(max(value, -1.0), 1.0)
    index = int(round((value + 1.0) / 2.0 * (len(DIVERGING_PALETTE) - 1)))
    return DIVERGING_PALETTE[index]


@dataclass
class LinearScale:
    """Maps data values in [low, high] onto pixel positions [start, stop]."""

    low: float
    high: float
    start: float
    stop: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.low) or not math.isfinite(self.high):
            self.low, self.high = 0.0, 1.0
        if self.high <= self.low:
            self.high = self.low + 1.0

    def __call__(self, value):
        """Pixel position of a data value — or of an array of them."""
        fraction = (value - self.low) / (self.high - self.low)
        return self.start + fraction * (self.stop - self.start)

    def ticks(self, count: int = 5) -> List[float]:
        """Round tick positions covering the domain."""
        if count < 2:
            return [self.low, self.high]
        span = self.high - self.low
        step = _nice_step(span / (count - 1))
        first = math.ceil(self.low / step) * step
        values = []
        value = first
        while value <= self.high + step * 1e-9:
            values.append(round(value, 10))
            value += step
        return values or [self.low, self.high]


def _nice_step(raw: float) -> float:
    if raw <= 0 or not math.isfinite(raw):
        return 1.0
    magnitude = 10 ** math.floor(math.log10(raw))
    residual = raw / magnitude
    if residual <= 1:
        nice = 1
    elif residual <= 2:
        nice = 2
    elif residual <= 5:
        nice = 5
    else:
        nice = 10
    return nice * magnitude


def format_tick(value: float) -> str:
    """Human-friendly tick label (compact scientific for large magnitudes)."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1_000_000 or magnitude < 0.001:
        return f"{value:.1e}"
    if magnitude >= 1000:
        if magnitude >= 10_000:
            return f"{value / 1000:.0f}k"
        return f"{value:,.0f}"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"


@dataclass
class Canvas:
    """Accumulates SVG elements and serialises them."""

    width: int
    height: int
    elements: List[str] = field(default_factory=list)

    def rect(self, x: float, y: float, width: float, height: float, fill: str,
             opacity: float = 1.0, stroke: str = "none", tooltip: str = "") -> None:
        """Add a rectangle (with an optional hover tooltip)."""
        title = f"<title>{html.escape(tooltip)}</title>" if tooltip else ""
        self.elements.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(width, 0):.2f}" '
            f'height="{max(height, 0):.2f}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}">{title}</rect>')

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str,
             width: float = 1.0, dash: str = "") -> None:
        """Add a straight line segment."""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>')

    def circles(self, xs: Sequence[float], ys: Sequence[float], radius: float,
                fill: str, opacity: float = 1.0) -> None:
        """Add circle markers of one style at pixel positions *xs*, *ys*
        (arrays), skipping any with a non-finite coordinate: one ``<g>``
        carries the style and scales its children, written by a single format
        call as integers in tenths of a pixel (marks are most of a report's
        bytes; 0.1 px is finer than a screen resolves)."""
        points = np.column_stack([xs, ys])
        points = points[np.isfinite(points).all(axis=1)]
        if not len(points):
            return
        tenths = np.rint(points * 10).astype(np.int64).ravel().tolist()
        marks = f'<circle cx="%d" cy="%d" r="{radius * 10:.0f}"/>' * len(points)
        self.elements.append(
            f'<g transform="scale(0.1)" fill="{fill}" fill-opacity="{opacity}">'
            f'{marks % tuple(tenths)}</g>')

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str,
                 width: float = 1.5) -> None:
        """Add a connected line through *points*."""
        if not points:
            return
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.elements.append(
            f'<polyline points="{path}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def text(self, x: float, y: float, content: str, size: int = 11,
             anchor: str = "middle", rotate: Optional[float] = None,
             color: str = "#333333", bold: bool = False) -> None:
        """Add a text label."""
        transform = f' transform="rotate({rotate} {x:.2f} {y:.2f})"' if rotate else ""
        weight = ' font-weight="bold"' if bold else ""
        self.elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" text-anchor="{anchor}" '
            f'fill="{color}" font-family="Helvetica, Arial, sans-serif"{weight}'
            f'{transform}>{html.escape(str(content))}</text>')

    def to_svg(self) -> str:
        """Serialise the canvas into a standalone ``<svg>`` element."""
        body = "\n".join(self.elements)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
                f'{body}\n</svg>')


@dataclass
class PlotArea:
    """A canvas plus margins, axes helpers and data scales."""

    canvas: Canvas
    x_scale: LinearScale
    y_scale: LinearScale
    margin_left: int = 60
    margin_bottom: int = 44
    margin_top: int = 28
    margin_right: int = 16

    @classmethod
    def create(cls, width: int, height: int, x_domain: Tuple[float, float],
               y_domain: Tuple[float, float], title: str = "",
               x_label: str = "", y_label: str = "") -> "PlotArea":
        """Create a plot area with margins, a title and axis labels."""
        canvas = Canvas(width, height)
        margin_left, margin_bottom, margin_top, margin_right = 60, 44, 28, 16
        x_scale = LinearScale(x_domain[0], x_domain[1], margin_left,
                              width - margin_right)
        y_scale = LinearScale(y_domain[0], y_domain[1], height - margin_bottom,
                              margin_top)
        area = cls(canvas, x_scale, y_scale, margin_left, margin_bottom,
                   margin_top, margin_right)
        if title:
            canvas.text(width / 2, 16, title, size=13, bold=True)
        if x_label:
            canvas.text((margin_left + width - margin_right) / 2, height - 6,
                        x_label, size=11)
        if y_label:
            canvas.text(14, (margin_top + height - margin_bottom) / 2, y_label,
                        size=11, rotate=-90)
        return area

    # ------------------------------------------------------------------ #
    # Axes
    # ------------------------------------------------------------------ #
    def draw_axes(self, x_ticks: bool = True, y_ticks: bool = True) -> None:
        """Draw the axis lines and numeric tick labels."""
        canvas = self.canvas
        x0, x1 = self.x_scale.start, self.x_scale.stop
        y0, y1 = self.y_scale.start, self.y_scale.stop
        canvas.line(x0, y0, x1, y0, "#888888")
        canvas.line(x0, y0, x0, y1, "#888888")
        if x_ticks:
            for tick in self.x_scale.ticks():
                x = self.x_scale(tick)
                canvas.line(x, y0, x, y0 + 4, "#888888")
                canvas.text(x, y0 + 16, format_tick(tick), size=9)
        if y_ticks:
            for tick in self.y_scale.ticks():
                y = self.y_scale(tick)
                canvas.line(x0 - 4, y, x0, y, "#888888")
                canvas.text(x0 - 8, y + 3, format_tick(tick), size=9, anchor="end")

    def draw_category_axis(self, categories: Sequence[str], vertical: bool = True,
                           max_label_length: int = 12) -> None:
        """Draw category labels along the x axis."""
        canvas = self.canvas
        count = max(len(categories), 1)
        span = (self.x_scale.stop - self.x_scale.start) / count
        baseline = self.y_scale.start
        rotate = -30 if any(len(str(c)) > 6 for c in categories) else None
        for index, category in enumerate(categories):
            label = str(category)
            if len(label) > max_label_length:
                label = label[:max_label_length - 1] + "…"
            x = self.x_scale.start + span * (index + 0.5)
            canvas.text(x, baseline + 16, label, size=9,
                        anchor="end" if rotate else "middle", rotate=rotate)

    def category_band(self, index: int, count: int,
                      padding: float = 0.15) -> Tuple[float, float]:
        """Pixel extent of the *index*-th of *count* category bands."""
        count = max(count, 1)
        span = (self.x_scale.stop - self.x_scale.start) / count
        left = self.x_scale.start + span * index
        return left + span * padding, span * (1 - 2 * padding)
