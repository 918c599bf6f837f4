"""Minimal dependency-free SVG charts.

Enough to regenerate the paper's line figures (throughput timeline,
live-blocks-over-time) and the telemetry CLI's cost summaries (bar
charts) as actual image files in ``results/`` without pulling in
matplotlib.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#7f7f7f", "#17becf",
)


@dataclass
class Series:
    label: str
    points: list[tuple[float, float]]
    dashed: bool = False


class _Figure:
    """What every chart shares: writing its ``to_svg()`` to a file."""

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_svg())


def _frame(chart) -> list[str]:
    """A chart's SVG header, background, title, axes and axis labels."""
    m = chart.margin
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{chart.width}" '
        f'height="{chart.height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{chart.width}" height="{chart.height}" fill="white"/>',
        f'<text x="{chart.width / 2}" y="20" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{chart.title}</text>',
        f'<line x1="{m}" y1="{chart.height - m}" x2="{chart.width - m}" '
        f'y2="{chart.height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{chart.height - m}" '
        'stroke="black"/>',
        f'<text x="{chart.width / 2}" y="{chart.height - 12}" '
        f'text-anchor="middle">{chart.x_label}</text>',
        f'<text x="16" y="{chart.height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {chart.height / 2})">{chart.y_label}</text>',
    ]


def _y_tick(m: int, y_val: float, y_pix: float) -> list[str]:
    return [
        f'<line x1="{m - 4}" y1="{y_pix:.1f}" x2="{m}" '
        f'y2="{y_pix:.1f}" stroke="black"/>',
        f'<text x="{m - 8}" y="{y_pix + 4:.1f}" '
        f'text-anchor="end">{y_val:g}</text>',
    ]


def _bar_frame(
    chart, heights: list[float]
) -> tuple[list[str], Callable[[float], float], list[float], float]:
    """A bar chart's frame with six y ticks from 0, its y scale, each
    bar's left edge and the bar width.

    The y axis tops out 8% above the tallest of the bars' ``heights``.
    """
    tallest = max(heights, default=0.0)
    y_max = (tallest if tallest > 0 else 1.0) * 1.08
    m = chart.margin
    plot_h = chart.height - 2 * m

    def sy(y: float) -> float:
        return chart.height - m - y / y_max * plot_h

    parts = _frame(chart)
    for i in range(6):
        y_val = y_max * i / 5
        parts.extend(_y_tick(m, y_val, sy(y_val)))
    slot = (chart.width - 2 * m) / max(len(heights), 1)
    bar_w = max(4.0, slot * 0.6)
    edges = [m + index * slot + (slot - bar_w) / 2 for index in range(len(heights))]
    return parts, sy, edges, bar_w


@dataclass
class LineChart(_Figure):
    """A simple multi-series line chart with axes and a legend."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    width: int = 640
    height: int = 400
    margin: int = 56

    def add_series(
        self, label: str, points: list[tuple[float, float]],
        dashed: bool = False,
    ) -> None:
        self.series.append(Series(label, list(points), dashed))

    # ------------------------------------------------------------------

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [x for s in self.series for x, __ in s.points]
        ys = [y for s in self.series for __, y in s.points]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(0.0, min(ys)), max(ys)
        if x_max == x_min:
            x_max = x_min + 1
        if y_max == y_min:
            y_max = y_min + 1
        return x_min, x_max, y_min, y_max * 1.08

    def to_svg(self) -> str:
        x_min, x_max, y_min, y_max = self._bounds()
        m = self.margin
        plot_w = self.width - 2 * m
        plot_h = self.height - 2 * m

        def sx(x: float) -> float:
            return m + (x - x_min) / (x_max - x_min) * plot_w

        def sy(y: float) -> float:
            return self.height - m - (y - y_min) / (y_max - y_min) * plot_h

        parts = _frame(self)
        # ticks: 5 on each axis
        for i in range(6):
            x_val = x_min + (x_max - x_min) * i / 5
            y_val = y_min + (y_max - y_min) * i / 5
            x_pix = sx(x_val)
            parts.append(
                f'<line x1="{x_pix:.1f}" y1="{self.height - m}" '
                f'x2="{x_pix:.1f}" y2="{self.height - m + 4}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x_pix:.1f}" y="{self.height - m + 16}" '
                f'text-anchor="middle">{x_val:g}</text>'
            )
            parts.extend(_y_tick(m, y_val, sy(y_val)))
        # series
        for index, series in enumerate(self.series):
            color = _COLORS[index % len(_COLORS)]
            coords = " ".join(
                f"{sx(x):.1f},{sy(y):.1f}" for x, y in series.points
            )
            dash = ' stroke-dasharray="6,4"' if series.dashed else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"{dash}/>'
            )
            legend_y = self.margin + 8 + index * 18
            parts.append(
                f'<line x1="{self.width - m - 130}" y1="{legend_y}" '
                f'x2="{self.width - m - 105}" y2="{legend_y}" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
            parts.append(
                f'<text x="{self.width - m - 100}" y="{legend_y + 4}">'
                f'{series.label}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


@dataclass
class BarChart(_Figure):
    """Labeled vertical bars with axes and per-bar value captions."""

    title: str
    x_label: str
    y_label: str
    bars: list[tuple[str, float]] = field(default_factory=list)
    width: int = 640
    height: int = 400
    margin: int = 56

    def add_bar(self, label: str, value: float) -> None:
        self.bars.append((label, float(value)))

    def to_svg(self) -> str:
        m = self.margin
        parts, sy, edges, bar_w = _bar_frame(
            self, [value for __, value in self.bars]
        )
        for index, ((label, value), x) in enumerate(zip(self.bars, edges)):
            color = _COLORS[index % len(_COLORS)]
            top = sy(max(0.0, value))
            bar_h = self.height - m - top
            parts.append(
                f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w:.1f}" '
                f'height="{bar_h:.1f}" fill="{color}"/>'
            )
            cx = x + bar_w / 2
            parts.append(
                f'<text x="{cx:.1f}" y="{top - 4:.1f}" '
                f'text-anchor="middle" font-size="10">{value:g}</text>'
            )
            parts.append(
                f'<text x="{cx:.1f}" y="{self.height - m + 16}" '
                f'text-anchor="middle">{label}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


@dataclass
class StackedBarChart(_Figure):
    """Vertical bars stacked by category (the latency-waterfall style).

    ``categories`` fixes both the stacking order (bottom-up) and the
    color assignment, so every bar decomposes the same way; a bar maps
    each category to its segment height and may omit zero segments.
    """

    title: str
    x_label: str
    y_label: str
    categories: list[str]
    bars: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    width: int = 720
    height: int = 400
    margin: int = 56

    def add_bar(self, label: str, segments: dict[str, float]) -> None:
        self.bars.append((label, {k: float(v) for k, v in segments.items()}))

    def color(self, category: str) -> str:
        return _COLORS[self.categories.index(category) % len(_COLORS)]

    def to_svg(self) -> str:
        m = self.margin
        parts, sy, edges, bar_w = _bar_frame(
            self, [sum(segments.values()) for __, segments in self.bars]
        )
        for (label, segments), x in zip(self.bars, edges):
            running = 0.0
            for category in self.categories:
                value = segments.get(category, 0.0)
                if value <= 0:
                    continue
                top = sy(running + value)
                seg_h = sy(running) - top
                parts.append(
                    f'<rect x="{x:.1f}" y="{top:.1f}" '
                    f'width="{bar_w:.1f}" height="{seg_h:.1f}" '
                    f'fill="{self.color(category)}"/>'
                )
                running += value
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" '
                f'y="{self.height - m + 16}" '
                f'text-anchor="middle" font-size="10">{label}</text>'
            )
        for index, category in enumerate(self.categories):
            legend_y = self.margin + 8 + index * 16
            parts.append(
                f'<rect x="{self.width - m - 120}" y="{legend_y - 8}" '
                f'width="10" height="10" fill="{self.color(category)}"/>'
            )
            parts.append(
                f'<text x="{self.width - m - 106}" y="{legend_y + 2}">'
                f'{category}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


@dataclass
class GridMap(_Figure):
    """A colored-cell grid (the Figure 2 memory-footprint style).

    ``cells`` is a flat list of category keys; ``palette`` maps each
    key to a fill color.  Cells wrap after ``columns`` entries, mapping
    a linear address space onto a 2-D picture.
    """

    title: str
    cells: list[str]
    palette: dict[str, str]
    legend: dict[str, str] = field(default_factory=dict)
    columns: int = 64
    cell_size: int = 8

    def to_svg(self) -> str:
        rows = -(-len(self.cells) // self.columns) if self.cells else 1
        width = self.columns * self.cell_size + 16
        height = rows * self.cell_size + 72
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="sans-serif" font-size="11">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<text x="{width / 2}" y="16" text-anchor="middle" '
            f'font-size="13" font-weight="bold">{self.title}</text>',
        ]
        for index, key in enumerate(self.cells):
            row, col = divmod(index, self.columns)
            x = 8 + col * self.cell_size
            y = 28 + row * self.cell_size
            color = self.palette.get(key, "#cccccc")
            parts.append(
                f'<rect x="{x}" y="{y}" width="{self.cell_size - 1}" '
                f'height="{self.cell_size - 1}" fill="{color}"/>'
            )
        legend_y = 28 + rows * self.cell_size + 16
        legend_x = 8
        for key, color in self.palette.items():
            label = self.legend.get(key, key)
            parts.append(
                f'<rect x="{legend_x}" y="{legend_y - 9}" width="10" '
                f'height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{legend_x + 14}" y="{legend_y}">{label}</text>'
            )
            legend_x += 14 + 8 * len(label) + 16
        parts.append("</svg>")
        return "\n".join(parts)
