"""Deterministic SVG and CSV output.

The SVG mirrors the usual figure style: the envelope(s) in red first, then
the vertex curves in blue/green/brown, then the polygons as filled closed
paths. Output is plain SVG 1.1 text and byte-stable for fixed inputs.

Path data and CSV rows are formatted ROW_BLOCK rows at a time, with one
`%` call per block; the bytes are those of formatting each coordinate on
its own. A curve with a NaN or infinite point raises RenderError rather
than writing `nan` into the output.
"""

from __future__ import annotations

import itertools

import numpy as np

from .equiangular import PonceletPolygon
from .support import PlaneCurve

# the most points sampled per curve: 16x the largest count the benchmark asks for
MAX_SAMPLES = 2 ** 18

# rows formatted per `%` call; bounds the temporary tuple and row template
ROW_BLOCK = 2048

ENVELOPE_COLORS = ("red", "orangered", "crimson", "darkred")
VERTEX_COLORS = ("blue", "darkgreen", "brown", "teal", "purple", "darkorange")


class RenderError(ValueError):
    pass


def _unsigned_zero(a: np.ndarray) -> np.ndarray:
    """a, with each value that prints as -0.000000 (-0.0 and the negatives
    down to -5e-7) set to 0.0 in place, so that no digest sees the sign."""
    a[(a <= 0.0) & (a >= -5e-7)] = 0.0
    return a


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _format_rows(row: str, table: np.ndarray) -> str:
    """`row % tuple(r)` for every row r of the (n, k) float table, joined."""
    blocks = (table[i:i + ROW_BLOCK] for i in range(0, len(table), ROW_BLOCK))
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def _curve_points(curve: PlaneCurve, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n equispaced parameters and their points; RenderError at the first
    parameter whose point is NaN or infinite."""
    ts = np.linspace(0.0, curve.domain_length, n, endpoint=False)
    pts = curve.positions(ts)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        t = float(ts[np.argmax(bad)])
        raise RenderError(f"curve {curve.label!r} has a non-finite point at t = {t!r}")
    return ts, pts


def render_svg(envelopes: list[tuple[str, PlaneCurve]],
               vertex_curves: list[tuple[str, PlaneCurve]],
               polygons: list[PonceletPolygon],
               samples: int = 1024,
               margin: float = 0.05) -> str:
    """SVG document with all curves as sampled polylines (y flipped so the
    mathematical orientation is preserved on screen)."""
    if not envelopes and not vertex_curves:
        raise RenderError("empty scene")
    _check_samples(samples)
    if not 0.0 <= margin <= 1.0:
        raise RenderError(f"need a margin between 0 and 1, got {margin}")

    paths = []
    for curves, colors in ((envelopes, ENVELOPE_COLORS), (vertex_curves, VERTEX_COLORS)):
        for (name, curve), color in zip(curves, itertools.cycle(colors)):
            pts = _curve_points(curve, samples)[1]
            paths.append((name, color, np.vstack([pts, pts[:1]]), None))
    for i, poly in enumerate(polygons):
        pts = poly.vertices
        paths.append((f"polygon-{i + 1}", "black", np.vstack([pts, pts[:1]]), "0.05"))

    stacked = np.vstack([pts for _, _, pts, _ in paths])
    xs, ys = stacked[:, 0], -stacked[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = margin * max(x1 - x0, y1 - y0, 1e-9)
    vb = np.array([x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad])
    vb = _unsigned_zero(vb).tolist()
    stroke = max(vb[2], vb[3]) / 400.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    for name, color, pts, fill in paths:
        d = "M" + _format_rows("L%.6f %.6f", _unsigned_zero(pts * (1.0, -1.0)))[1:]
        if fill is not None:
            d += "Z"
            attrs = f'fill="black" fill-opacity="{fill}" stroke="{color}"'
        else:
            attrs = f'fill="none" stroke="{color}"'
        lines.append(f'<path id="{name}" {attrs} stroke-width="{_fmt(stroke)}" d="{d}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _check_samples(n: int):
    if not 2 <= n <= MAX_SAMPLES:
        raise RenderError(f"need 2 to {MAX_SAMPLES} samples, got {n}")


def sample_points(curve: PlaneCurve, n: int) -> str:
    """CSV `t,x,y` at n equispaced parameters, full double precision."""
    _check_samples(n)
    table = np.column_stack(_curve_points(curve, n))
    return "t,x,y\n" + _format_rows("%.17g,%.17g,%.17g\n", table)
