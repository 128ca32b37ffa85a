"""Bicentric triangles and squares, a classical ground truth for the
paper's formulas.

An incircle of radius r about the origin and a circumcircle of radius R
about (d, 0) carry a closed Poncelet n-gon from every start exactly when a
classical relation holds (V. Dragovic and M. Radnovic, *Poncelet Porisms
and Beyond*, Birkhauser 2011): Chapple and Euler's d^2 = R^2 - 2Rr for
triangles, Fuss's (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2) for quadrilaterals. The
contact map F of the pair has a closed form: the tangent to the incircle at
phi runs ahead to the circumcircle at the vertex r u(phi) + s u'(phi), and
the other tangent from that vertex touches at F(phi) = phi + 2 atan(s / r).
Then H = (x + F + ... + F^(n-1)) / n conjugates F to the rotation by
2 pi / n, and its Fourier series, fitted here from the closed-form F alone,
is the h of a `vertex-from-envelope` document whose vertex curve must be
the circumcircle. Pytest does not collect this file; the tests import it.
"""

import math

import numpy as np

from poncelet.scene import build_scene

FIT_POINTS = 1024      # samples of H for numpy.fft.rfft
FIT_FLOOR = 1e-16      # terms of this size or smaller are dropped
# n: (r, R, d) on the closing relation of n-gons; r = 1, R = 3 for the
# triangle, d^2 = 3, and r = 1, R = 2 for the square, d^2 = 5 - sqrt(17)
CIRCLES = {3: (1.0, 3.0, math.sqrt(3.0 * 3.0 - 2.0 * 3.0 * 1.0)),
           4: (1.0, 2.0, math.sqrt(5.0 - math.sqrt(17.0)))}


def tangent_run(phi, d: float, n: int = 3):
    """s >= 0 with r u(phi) + s u'(phi) on the circumcircle about (d, 0)."""
    r, R, _ = CIRCLES[n]
    b = d * np.sin(phi)
    c = r * r - 2.0 * r * d * np.cos(phi) + d * d - R * R
    return -b + np.sqrt(b * b - c)


def contact_map(phi, d: float, n: int = 3):
    """F(phi), as a lift: phi + 2 atan(s / r)."""
    return phi + 2.0 * np.arctan(tangent_run(phi, d, n) / CIRCLES[n][0])


def tangent_meet(phi, d: float, n: int = 3) -> np.ndarray:
    """The vertex r u(phi) + s u'(phi) between the contacts phi and F(phi),
    with a trailing (x, y) axis."""
    r, s = CIRCLES[n][0], tangent_run(phi, d, n)
    return np.stack([r * np.cos(phi) - s * np.sin(phi), r * np.sin(phi) + s * np.cos(phi)],
                    axis=-1)


def conjugator_fit(d: float, n: int = 3) -> dict:
    """The document form {"c", "terms"} of the Fourier lift of
    H = (x + F + ... + F^(n-1)) / n, from numpy.fft.rfft of H - x at
    FIT_POINTS points; terms above FIT_FLOOR (in hypot(sin, cos)) are kept."""
    x = np.linspace(0.0, 2.0 * math.pi, FIT_POINTS, endpoint=False)
    total, y = x, x
    for _ in range(n - 1):
        y = contact_map(y, d, n)
        total = total + y
    coeffs = np.fft.rfft(total / n - x) / FIT_POINTS
    terms = [{"j": j, "sin": float(-2.0 * coeffs[j].imag), "cos": float(2.0 * coeffs[j].real)}
             for j in range(1, FIT_POINTS // 2) if 2.0 * abs(coeffs[j]) > FIT_FLOOR]
    return {"c": float(coeffs[0].real), "terms": terms}


def bicentric_scene(d: float | None = None, n: int = 3):
    """The `vertex-from-envelope` scene of the incircle (support a = r) and
    the step m = 1 of period n whose h is the conjugator fit at centre
    distance d (by default the one that closes n-gons)."""
    r, _, closing = CIRCLES[n]
    return build_scene({
        "construction": "vertex-from-envelope",
        "parameters": {"support": {"a": r, "k": 1, "terms": []},
                       "step": {"m": 1, "n": n,
                                "h": conjugator_fit(closing if d is None else d, n)}},
        "verify": {"probes": 64, "tol": None, "expect_interior": None}})
