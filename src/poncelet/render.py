"""Deterministic SVG and CSV output.

The SVG mirrors the usual figure style: the envelope(s) in red first, then
the vertex curves in blue/green/brown, then the polygons as filled closed
paths. Output is plain SVG 1.1 text and byte-stable for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from .equiangular import PonceletPolygon
from .support import PlaneCurve

# the most points sampled per curve: 16x the largest count the benchmark asks for
MAX_SAMPLES = 2 ** 18

ENVELOPE_COLORS = ("red", "orangered", "crimson", "darkred")
VERTEX_COLORS = ("blue", "darkgreen", "brown", "teal", "purple", "darkorange")


class RenderError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6f}"


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

    paths = []
    all_pts = []
    for (name, curve), color in zip(envelopes, _cycle(ENVELOPE_COLORS)):
        pts = _closed_samples(curve, samples)
        all_pts.append(pts)
        paths.append((name, color, pts, None))
    for (name, curve), color in zip(vertex_curves, _cycle(VERTEX_COLORS)):
        pts = _closed_samples(curve, samples)
        all_pts.append(pts)
        paths.append((name, color, pts, None))
    for i, poly in enumerate(polygons):
        pts = np.array([(v.x, v.y) for v in poly.vertices])
        all_pts.append(pts)
        paths.append((f"polygon-{i + 1}", "black", np.vstack([pts, pts[:1]]), "0.05"))

    stacked = np.vstack(all_pts)
    xs, ys = stacked[:, 0], -stacked[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = margin * max(x1 - x0, y1 - y0, 1e-9)
    vb = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    stroke = max(vb[2], vb[3]) / 400.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    for name, color, pts, fill in paths:
        d = "M" + "L".join(f"{_fmt(x)} {_fmt(-y)}" for x, y in pts)
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


def _closed_samples(curve: PlaneCurve, samples: int) -> np.ndarray:
    pts = curve.sample(samples)
    return np.vstack([pts, pts[:1]])


def _cycle(colors):
    i = 0
    while True:
        yield colors[i % len(colors)]
        i += 1


def sample_points(curve: PlaneCurve, n: int) -> str:
    """CSV `t,x,y` at n equispaced parameters, full double precision."""
    _check_samples(n)
    ts = np.linspace(0.0, curve.domain_length, n, endpoint=False)
    pts = curve.positions(ts)
    rows = ["t,x,y"]
    for t, (x, y) in zip(ts, pts):
        rows.append(f"{t:.17g},{x:.17g},{y:.17g}")
    return "\n".join(rows) + "\n"
