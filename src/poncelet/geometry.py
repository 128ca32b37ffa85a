"""Plane-geometry primitives: angles as exact Fractions of pi, and polyline
self-intersection."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class GeometryError(ValueError):
    pass


def wrap_pi(x: float) -> float:
    """x reduced to [-pi, pi)."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y < 0:
        y += 2.0 * math.pi
    return y - math.pi


def radians(a: Fraction) -> float:
    """The angle a * pi, for an exact multiple a of pi."""
    return a.numerator * math.pi / a.denominator


def closure_steps(step: Fraction, total: Fraction) -> int:
    """Smallest j >= 1 with j*step an exact integer multiple of total."""
    if total == 0:
        raise GeometryError("zero total angle")
    return abs((step / total).denominator)


# Sample count of the vertex-curve scan that decides oracle mode.
SELF_INTERSECTION_SAMPLES = 1024

# Candidate segment pairs tested per block; bounds the scan's working memory.
PAIR_BLOCK = 32768


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=float)     # viewed as complex x + iy
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError("points must be a sequence of 2d points")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("non-finite point coordinates")
    return pts


def polyline_self_intersects(points) -> bool:
    """True iff any two non-adjacent segments of the closed polyline
    intersect.

    Adjacency wraps across the end. Touching endpoints of adjacent segments
    never count; any contact between non-adjacent segments does.
    Orientation signs use eps = 1e-12 on cross products.

    Candidates come from a sort-and-sweep over x: the segments are sorted by
    the low end of their x-interval, and each is paired with the later ones
    whose low x is at most its high x + eps, which is every pair whose
    x-intervals overlap within eps. The pairs are expanded and tested
    (bounding boxes, orientation signs, then touching contacts) in blocks of
    `PAIR_BLOCK`, stopping at the first block with a contact. For n segments
    and k x-overlapping pairs this costs O(n log n + k) time and
    O(n + PAIR_BLOCK) memory, whatever the shape.

    Before the sweep, a certificate answers False: with O the vertices' mean,
    if all cross(P_i - O, P_{i+1} - O) share a strict sign and the turns about
    O sum to 2 pi, non-adjacent sides lie a whole sector apart, no closer than
    rho sin(min(gamma, pi/2)) (rho: least distance from O to a side's line;
    gamma: least turn). Above eps / (shortest side) + 1e-6 max |P_i - O|, that
    beats the sweep's contact tolerances (eps on cross products, eps max(1,
    |ab|) / |ab| in `_segments_touch`) and either test's rounding.
    """
    pts, eps = _as_points(points), 1e-12
    nseg = len(pts)
    if nseg < 3:
        raise GeometryError("need at least 3 points")
    seg_a, seg_b = pts, np.roll(pts, -1, axis=0)
    if np.any(np.all(seg_a == seg_b, axis=1)):
        raise GeometryError("repeated consecutive points")
    z = pts.view(complex)[:, 0] - pts.view(complex).mean()     # x + iy about O
    radius = np.max(np.abs(z))
    w = z / radius                     # no product of two w overflows
    q = np.concatenate((w[1:], w[:1])) * w.conj()      # dot + i cross of consecutive w
    if abs(np.sum(np.sign(q.imag))) == nseg:
        d = seg_b - seg_a
        turn, length = np.abs(np.angle(q)), np.abs(d.view(complex)[:, 0])
        rho = np.abs((z.conj() * (d / length[:, None]).view(complex)[:, 0]).imag)
        gap = np.min(rho) * math.sin(min(turn.min(), math.pi / 2))
        if abs(turn.sum() - 2.0 * math.pi) < math.pi \
                and gap > eps / float(length.min()) + 1e-6 * radius:
            return False

    lo = np.minimum(seg_a, seg_b)
    hi = np.maximum(seg_a, seg_b)
    order = np.argsort(lo[:, 0], kind="stable")
    # Sorted position p pairs with the positions p+1 .. end[p]-1.
    end = np.searchsorted(lo[order, 0], hi[order, 0] + eps, side="right")
    counts = end - np.arange(1, nseg + 1)
    last = np.cumsum(counts)
    total = int(last[-1])
    for first in range(0, total, PAIR_BLOCK):
        k = np.arange(first, min(first + PAIR_BLOCK, total))
        p = np.searchsorted(last, k, side="right")
        q = k - (last[p] - counts[p]) + p + 1
        i = np.minimum(order[p], order[q])
        j = np.maximum(order[p], order[q])
        keep = (j - i > 1) & ~((i == 0) & (j == nseg - 1))
        if _pairs_intersect(seg_a, seg_b, lo, hi, i[keep], j[keep], eps):
            return True
    return False


def _pairs_intersect(seg_a, seg_b, lo, hi, i_idx, j_idx, eps) -> bool:
    """True iff segment i_idx[m] meets segment j_idx[m] for some m."""
    # bounding-box prefilter
    boxes = np.all((lo[i_idx] <= hi[j_idx] + eps) & (lo[j_idx] <= hi[i_idx] + eps), axis=1)
    if not np.any(boxes):
        return False
    i_idx, j_idx = i_idx[boxes], j_idx[boxes]
    a1, b1 = seg_a[i_idx], seg_b[i_idx]
    a2, b2 = seg_a[j_idx], seg_b[j_idx]

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross2(b1 - a1, a2 - a1)
    d2 = cross2(b1 - a1, b2 - a1)
    d3 = cross2(b2 - a2, a1 - a2)
    d4 = cross2(b2 - a2, b1 - a2)
    s1 = np.where(d1 > eps, 1, np.where(d1 < -eps, -1, 0))
    s2 = np.where(d2 > eps, 1, np.where(d2 < -eps, -1, 0))
    s3 = np.where(d3 > eps, 1, np.where(d3 < -eps, -1, 0))
    s4 = np.where(d4 > eps, 1, np.where(d4 < -eps, -1, 0))

    proper = (s1 * s2 < 0) & (s3 * s4 < 0)
    if np.any(proper):
        return True

    # touching / collinear candidates: confirm overlap along the support line
    cand = np.nonzero((s1 * s2 <= 0) & (s3 * s4 <= 0))[0]
    for idx in cand:
        if _segments_touch(a1[idx], b1[idx], a2[idx], b2[idx], eps):
            return True
    return False


def _segments_touch(a1, b1, a2, b2, eps) -> bool:
    def on_segment(a, b, p):
        ab = b - a
        length = float(np.hypot(*ab))
        cr = ab[0] * (p - a)[1] - ab[1] * (p - a)[0]
        if abs(cr) > eps * max(1.0, length):
            return False
        # project onto ab / |ab|: ab @ ab underflows to 0 on a tiny segment
        t = float((p - a) @ (ab / length)) / length
        return -eps <= t <= 1 + eps

    return any(on_segment(a1, b1, p) for p in (a2, b2)) or any(
        on_segment(a2, b2, p) for p in (a1, b1)
    )
