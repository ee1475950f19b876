"""Deterministic SVG scatter plots in log-log axes.

Output is SVG 1.1 with a fixed 640x480 viewBox, byte-identical across runs
for identical inputs: no timestamps, no randomness, fixed-precision
coordinates.  Axes are always labelled ``log(<column>/<unit>)``, because a
bare column has no number to plot until it is divided by its reference
unit.
"""

from __future__ import annotations

from .errors import DataError
from .regression import DataSet, FitResult, _log_ratio_column, _numpy_for
from .units import Unit, _Value

__all__ = ["PlotSpec", "emit_svg_plot"]

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 20
MARGIN_BOTTOM = 50
CURVE_SAMPLES = 100


class PlotSpec(_Value):
    """Which columns to plot, against which reference units."""

    __slots__ = ("x", "y", "x_reference", "y_reference")

    def __init__(self, x: str, y: str, x_reference: Unit, y_reference: Unit):
        self.__setstate__((x, y, x_reference, y_reference))

    def x_label(self) -> str:
        return f"log({self.x}/{self.x_reference.symbol})"

    def y_label(self) -> str:
        return f"log({self.y}/{self.y_reference.symbol})"


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _layout(ds: DataSet, spec: PlotSpec):
    """Log values of both columns, their padded ranges, and the pixel maps."""
    np = _numpy_for(ds.n, 2)
    u = _log_ratio_column(ds, spec.x, spec.x_reference, "x", np)
    v = _log_ratio_column(ds, spec.y, spec.y_reference, "y", np)
    if np is not None:
        u, v = u.tolist(), v.tolist()
    ulo, uhi = _padded(min(u), max(u))
    vlo, vhi = _padded(min(v), max(v))
    x_span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    y_span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_map(value: float) -> float:
        return MARGIN_LEFT + (value - ulo) / (uhi - ulo) * x_span

    def y_map(value: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (value - vlo) / (vhi - vlo) * y_span

    return u, v, (ulo, uhi), (vlo, vhi), x_map, y_map


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_svg_plot(ds: DataSet, fit: FitResult | None, spec: PlotSpec) -> str:
    """Render the scatter (and optional fitted curve) as an SVG document.

    A fitted curve may only be drawn over the columns and reference units
    it was computed from.
    """
    if fit is not None:
        model = fit.reference_units
        if (
            model.predictor != spec.x
            or model.response != spec.y
            or model.predictor_reference != spec.x_reference
            or model.response_reference != spec.y_reference
        ):
            raise DataError(
                "fit was produced from different columns or reference units "
                "than the plot requests"
            )
    u, v, (ulo, uhi), (vlo, vhi), x_map, y_map = _layout(ds, spec)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    frame = (
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(frame)

    for tick in _ticks(ulo, uhi):
        px = x_map(tick)
        y0 = HEIGHT - MARGIN_BOTTOM
        out.append(
            f'<line x1="{px:.6f}" y1="{y0}" x2="{px:.6f}" y2="{y0 + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.6f}" y="{y0 + 18}" font-size="11" '
            f'text-anchor="middle">{tick:.3g}</text>'
        )
    for tick in _ticks(vlo, vhi):
        py = y_map(tick)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.6f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.6f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.6f}" font-size="11" '
            f'text-anchor="end">{tick:.3g}</text>'
        )

    x_center = MARGIN_LEFT + (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / 2
    out.append(
        f'<text x="{x_center:.6f}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{spec.x_label()}</text>'
    )
    y_center = MARGIN_TOP + (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) / 2
    out.append(
        f'<text x="16" y="{y_center:.6f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {y_center:.6f})">{spec.y_label()}</text>'
    )

    if fit is not None:
        if fit.gamma is None:
            y1 = fit.predicted_log(ulo)
            y2 = fit.predicted_log(uhi)
            out.append(
                f'<line x1="{x_map(ulo):.6f}" y1="{y_map(y1):.6f}" '
                f'x2="{x_map(uhi):.6f}" y2="{y_map(y2):.6f}" '
                'stroke="crimson" stroke-width="1.5"/>'
            )
        else:
            points = []
            for i in range(CURVE_SAMPLES):
                uu = ulo + (uhi - ulo) * i / (CURVE_SAMPLES - 1)
                points.append(
                    f"{x_map(uu):.6f},{y_map(fit.predicted_log(uu)):.6f}"
                )
            out.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                'stroke="crimson" stroke-width="1.5"/>'
            )

    for uu, vv in zip(u, v):
        out.append(
            f'<circle cx="{x_map(uu):.6f}" cy="{y_map(vv):.6f}" '
            'r="3" fill="steelblue"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
