"""Minimal SVG rendering of benchmark records: no plotting dependency.

One series per mechanism, mean line plus a translucent (mean - 2 std,
mean + 2 std) band, utility on a log-scaled y axis.  The x axis is the
matrix size k when records span several sizes, and epsilon otherwise.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .errors import DomainError
from .harness import TrialRecord

_WIDTH, _HEIGHT = 760, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 180, 24, 56

_COLORS = {
    "tangent_classical": "#1f77b4",
    "tangent_analytic": "#2ca02c",
    "extrinsic_analytic": "#9467bd",
    "riemannian_laplace": "#d62728",
}
_FALLBACK_COLOR = "#7f7f7f"


def _series(records: list[TrialRecord]) -> tuple[str, dict[str, list[tuple[float, float, float]]]]:
    """Group into mechanism -> sorted [(x, mean, std)]; returns axis label."""
    use_k = len({rec.k for rec in records}) > 1
    label = "k" if use_k else "epsilon"
    grouped: dict[str, dict[float, list[float]]] = {}
    for rec in records:
        x = float(rec.k) if use_k else rec.epsilon
        grouped.setdefault(rec.mechanism, {}).setdefault(x, []).append(rec.utility)
    out: dict[str, list[tuple[float, float, float]]] = {}
    for mechanism, cells in grouped.items():
        points = []
        for x in sorted(cells):
            vals = cells[x]
            n = len(vals)
            mean = sum(vals) / n
            if math.isinf(mean):  # the sum overflowed, not the mean
                mean = sum(v / n for v in vals)
            spread = max(abs(v - mean) for v in vals)  # keeps each square finite
            std = 0.0
            if spread > 0:  # so n > 1
                std = spread * math.sqrt(sum(((v - mean) / spread) ** 2 for v in vals) / (n - 1))
            points.append((x, mean, std))
        out[mechanism] = points
    return label, out


def emit_plot(records: list[TrialRecord], path: str | Path) -> None:
    """Render records to an SVG file."""
    if not records:
        raise DomainError("no records to plot")
    xlabel, series = _series(records)

    xs = sorted({p[0] for pts in series.values() for p in pts})
    positive = [p[1] for pts in series.values() for p in pts if p[1] > 0]
    if not positive:
        raise DomainError("all utilities are nonpositive; nothing to plot on a log axis")
    y_floor = min(positive) / 10.0
    y_top = max(p[1] + 2.0 * p[2] for pts in series.values() for p in pts)
    y_top = min(max(y_top, y_floor * 10), sys.float_info.max)
    log_lo = math.floor(math.log10(y_floor))
    log_hi = math.ceil(math.log10(y_top))

    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        y = min(max(y, y_floor), y_top)
        frac = (math.log10(y) - log_lo) / (log_hi - log_lo)
        return _MARGIN_T + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]

    for decade in range(log_lo, min(log_hi, 308) + 1):  # 1e309 is past float64
        y = sy(10.0**decade)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{y:.2f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">1e{decade}</text>'
        )
    for x in xs:
        px = sx(x)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="12">{x:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">'
        "squared deviation (log scale)</text>"
    )

    legend_y = _MARGIN_T + 12
    for mechanism in sorted(series):
        pts = series[mechanism]
        color = _COLORS.get(mechanism, _FALLBACK_COLOR)
        upper = [(sx(x), sy(m + 2 * s)) for x, m, s in pts]
        lower = [(sx(x), sy(max(m - 2 * s, y_floor))) for x, m, s in pts]
        band = upper + lower[::-1]
        band_path = " ".join(f"{px:.2f},{py:.2f}" for px, py in band)
        parts.append(
            f'<polygon points="{band_path}" fill="{color}" fill-opacity="0.2" '
            'stroke="none"/>'
        )
        line_path = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m, _ in pts)
        parts.append(
            f'<polyline points="{line_path}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for x, m, _ in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(m):.2f}" r="3" fill="{color}"/>'
            )
        lx = _MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-size="12">{mechanism}</text>'
        )
        legend_y += 18

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
