"""Bicentric triangles, a classical ground truth for the paper's formulas.

An incircle of radius r about the origin and a circumcircle of radius R
about (d, 0) carry a closed Poncelet triangle from every start exactly when
Chapple and Euler's d^2 = R^2 - 2Rr holds (V. Dragovic and M. Radnovic,
*Poncelet Porisms and Beyond*, Birkhauser 2011). The contact map F of the
pair has a closed form: the tangent to the incircle at phi runs ahead to
the circumcircle at the vertex r u(phi) + s u'(phi), and the other tangent
from that vertex touches at F(phi) = phi + 2 atan(s / r). Then
H = (x + F + F o F) / 3 conjugates F to the rotation by 2 pi / 3, and its
Fourier series, fitted here from the closed-form F alone, is the h of a
`vertex-from-envelope` document whose vertex curve must be the
circumcircle. Pytest does not collect this file; the tests import it.
"""

import math

import numpy as np

from poncelet.scene import build_scene

R_IN, R_OUT = 1.0, 3.0
FIT_POINTS = 1024      # samples of H for numpy.fft.rfft
FIT_FLOOR = 1e-16      # terms of this size or smaller are dropped
D = math.sqrt(R_OUT * R_OUT - 2.0 * R_OUT * R_IN)    # Chapple-Euler: sqrt(R^2 - 2Rr)


def tangent_run(phi, d: float):
    """s >= 0 with r u(phi) + s u'(phi) on the circumcircle about (d, 0)."""
    b = d * np.sin(phi)
    c = R_IN * R_IN - 2.0 * R_IN * d * np.cos(phi) + d * d - R_OUT * R_OUT
    return -b + np.sqrt(b * b - c)


def contact_map(phi, d: float):
    """F(phi), as a lift: phi + 2 atan(s / r)."""
    return phi + 2.0 * np.arctan(tangent_run(phi, d) / R_IN)


def tangent_meet(phi, d: float) -> np.ndarray:
    """The vertex r u(phi) + s u'(phi) between the contacts phi and F(phi),
    with a trailing (x, y) axis."""
    s = tangent_run(phi, d)
    return np.stack([R_IN * np.cos(phi) - s * np.sin(phi), R_IN * np.sin(phi) + s * np.cos(phi)],
                    axis=-1)


def conjugator_fit(d: float) -> dict:
    """The document form {"c", "terms"} of the Fourier lift of
    H = (x + F + F o F) / 3, from numpy.fft.rfft of H - x at FIT_POINTS
    points; terms above FIT_FLOOR (in hypot(sin, cos)) are kept."""
    x = np.linspace(0.0, 2.0 * math.pi, FIT_POINTS, endpoint=False)
    once = contact_map(x, d)
    coeffs = np.fft.rfft((x + once + contact_map(once, d)) / 3.0 - x) / FIT_POINTS
    terms = [{"j": j, "sin": float(-2.0 * coeffs[j].imag), "cos": float(2.0 * coeffs[j].real)}
             for j in range(1, FIT_POINTS // 2) if 2.0 * abs(coeffs[j]) > FIT_FLOOR]
    return {"c": float(coeffs[0].real), "terms": terms}


def bicentric_scene(d: float = D):
    """The `vertex-from-envelope` scene of the incircle (support a = r) and
    the step m = 1, n = 3 whose h is the conjugator fit at centre distance d."""
    return build_scene({
        "construction": "vertex-from-envelope",
        "parameters": {"support": {"a": R_IN, "k": 1, "terms": []},
                       "step": {"m": 1, "n": 3, "h": conjugator_fit(d)}},
        "verify": {"probes": 64, "tol": None, "expect_interior": None}})
