"""Orientation-preserving circle diffeomorphisms via monotone lifts.

A map f of a circle with circumference L is stored as a lift F with
F(x + L) = F(x) + L. Rotation numbers, torsion maps (f^n = id with n
minimal) and the explicit conjugator H = (1/n) sum F^j to the rigid
rotation are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import Jet, chain
from .roots import bracketed_roots


class CircleMapError(ValueError):
    pass


@dataclass(frozen=True)
class FourierTerm:
    j: int
    sin_coeff: float = 0.0
    cos_coeff: float = 0.0


def _solve_lift(lift, dlift, y, bound, tol):
    """Solve lift(x) = y for x (vectorized safeguarded Newton in a bracket).

    dlift(x) is the lift's order-1 Jet at x, so each step evaluates value
    and slope in one call and lift itself is not called; the targets y stay
    the third argument, where perfbench/tracer.py counts them. Once every
    residual is below tol, the Newton update of that last evaluation is
    returned. Raises CircleMapError when some x is not within tol after 100
    steps.
    """
    y = np.asarray(y, dtype=float)
    lo = y - bound
    hi = y + bound
    x = y.copy()
    for steps in range(101):
        jet = dlift(x)
        fx, d = jet.v - y, jet.d[0]
        step = np.where(d > 0, fx / np.where(d > 0, d, 1.0), 0.0)
        done = np.abs(fx) < tol
        if np.all(done):
            return x - step
        if steps == 100:
            break
        lo = np.where(fx < 0, np.maximum(lo, x), lo)
        hi = np.where(fx > 0, np.minimum(hi, x), hi)
        xn = x - step
        bad = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = np.where(done, x, xn)
    first = np.flatnonzero(~done)[0]
    raise CircleMapError(
        f"lift inversion did not converge in 100 steps for {np.count_nonzero(~done)} "
        f"of {np.size(y)} values, e.g. y = {np.ravel(y)[first]:.6g} "
        f"(residual {np.ravel(fx)[first]:.3g})")


@dataclass(frozen=True)
class CircleDiffeo:
    """Circle map represented by a strictly increasing lift.

    The lift accepts scalars, arrays or a Jet, which gives its derivatives.
    """

    circumference: float
    lift: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    rotation_amount: float | None = None  # set iff the map is a rigid rotation
    displacement_bound: float = 0.0  # bound for |lift(x) - x|

    def __call__(self, x):
        return np.mod(self.lift(np.asarray(x, dtype=float)), self.circumference)

    def derivative(self, x):
        return self.lift(Jet.variable(x, 1)).d[0]

    def min_derivative(self, samples: int = 1024) -> float:
        xs = np.linspace(0.0, self.circumference, samples, endpoint=False)
        return float(np.min(self.derivative(xs)))

    @property
    def is_rotation(self) -> bool:
        return self.rotation_amount is not None

    def inverse(self) -> CircleDiffeo:
        """The inverse map. Its lift solves for values only; the derivatives
        of a Jet argument follow from the inverse-function rule."""
        if self.is_rotation:
            return rotation(self.circumference, -self.rotation_amount)
        L = self.circumference
        bound = self.displacement_bound + L
        tol = 1e-12 * L
        def dlift(x):
            return self.lift(Jet.variable(x, 1))

        def inv_lift(y):
            if not isinstance(y, Jet):
                return _solve_lift(self.lift, dlift, y, bound, tol)
            x = _solve_lift(self.lift, dlift, y.v, bound, tol)
            F = self.lift(Jet.variable(x, 3)).d      # derivatives 1-3 of F at x = g(y)
            g1 = 1.0 / F[0]
            g = [x, g1, -F[1] * g1 ** 3, -F[2] * g1 ** 4 + 3.0 * F[1] * F[1] * g1 ** 5]
            return y.compose(g[:y.order + 1])

        return CircleDiffeo(L, inv_lift, displacement_bound=self.displacement_bound)

    def compose(self, inner: CircleDiffeo) -> CircleDiffeo:
        """self after inner: x -> self(inner(x))."""
        if not math.isclose(self.circumference, inner.circumference):
            raise CircleMapError("composing maps of different circumferences")
        if self.is_rotation and inner.is_rotation:
            return rotation(self.circumference, self.rotation_amount + inner.rotation_amount)

        def lift(x):
            return self.lift(inner.lift(x))

        return CircleDiffeo(self.circumference, lift,
                            displacement_bound=self.displacement_bound + inner.displacement_bound)


def orbit(maps: Sequence[CircleDiffeo], xs) -> list:
    """The lifted orbit [xs, f_1(xs), f_2(f_1(xs)), ...] of the points xs (a
    float, an array or a Jet) under the maps f_1, f_2, ... in turn: one lift
    evaluation per map."""
    out = [xs]
    for f in maps:
        out.append(f.lift(out[-1]))
    return out


def identity(L: float) -> CircleDiffeo:
    return rotation(L, 0.0)


def rotation(L: float, amount: float) -> CircleDiffeo:
    return CircleDiffeo(
        L,
        lift=lambda x: (x if isinstance(x, Jet) else np.asarray(x, dtype=float)) + amount,
        rotation_amount=amount,
        displacement_bound=abs(amount),
    )


# Largest |j| of a Fourier lift term: the monotonicity scan of a lift that
# the coefficient bound does not certify takes 8 points per period of it.
# Config documents also cap support-term frequencies |l| with it.
MAX_HARMONIC = 4096


def from_fourier(L: float, c: float, terms: tuple[FourierTerm, ...]) -> CircleDiffeo:
    """Lift F(x) = x + c + sum_j (a_j sin(2 pi j x / L) + b_j cos(2 pi j x / L)).

    F(x+L) = F(x) + L holds by construction. Strict monotonicity is
    certified by 1 - sum_j (2 pi |j| / L) hypot(a_j, b_j) > 1e-9, a lower
    bound of F'; when that bound fails, F' is scanned at 8 points per period
    of the highest harmonic and each sampled minimum refined as a zero of F''.
    """
    terms = tuple(terms)
    if any(abs(t.j) > MAX_HARMONIC for t in terms):
        raise CircleMapError(f"Fourier lift harmonics are limited to |j| <= {MAX_HARMONIC}")
    w = 2.0 * math.pi / L

    def derivs(x, order):
        out = [x + c]
        if order:
            out += [np.ones_like(x)] + [np.zeros_like(x) for _ in range(order - 1)]
        for t in terms:
            k = w * t.j
            sn, cs = np.sin(k * x), np.cos(k * x)
            a, b = t.sin_coeff, t.cos_coeff
            out[0] = out[0] + a * sn + b * cs
            for n in range(1, order + 1):   # each derivative turns (a, b) by a quarter period
                a, b = -b, a
                out[n] = out[n] + k ** n * (a * sn + b * cs)
        return out

    bound = abs(c) + sum(abs(t.sin_coeff) + abs(t.cos_coeff) for t in terms)
    f = CircleDiffeo(L, lambda x: chain(x, derivs), displacement_bound=bound)
    slope_bound = 1.0 - sum(w * abs(t.j) * math.hypot(t.sin_coeff, t.cos_coeff) for t in terms)
    if slope_bound <= 1e-9 and _min_slope(f, max(abs(t.j) for t in terms)) <= 1e-9:
        raise CircleMapError("lift is not strictly increasing (min F' <= 1e-9)")
    return f


def _min_slope(f: CircleDiffeo, harmonic: int) -> float:
    """min F' from 8 samples per period of the highest harmonic, with every
    sampled local minimum refined as a zero of F''."""
    n = max(1024, 8 * harmonic)
    xs = np.linspace(0.0, f.circumference, n, endpoint=False)
    slope = f.derivative(xs)
    low = xs[(slope <= np.roll(slope, 1)) & (slope <= np.roll(slope, -1))]
    lo, hi = low - f.circumference / n, low + f.circumference / n

    def curvature(x, _):
        return f.lift(Jet.variable(x, 2)).d[1]

    signed = (curvature(lo, None) <= 0.0) & (curvature(hi, None) >= 0.0)
    roots, _ = bracketed_roots(curvature, lo[signed], hi[signed])
    return float(np.min(np.concatenate([slope, f.derivative(roots)])))


def circle_distance(a, b, L: float):
    d = np.mod(np.asarray(a, dtype=float) - b, L)
    return np.minimum(d, L - d)


def rotation_number(f: CircleDiffeo, iterations: int = 1000) -> float:
    """Poincare rotation number estimate (F^k(0) - 0) / k, scaled into [0, 1)."""
    if iterations < 1:
        raise CircleMapError("iterations must be >= 1")
    x = orbit((f,) * iterations, np.asarray(0.0))[-1]
    return float(np.mod(x / iterations, f.circumference) / f.circumference)


@dataclass(frozen=True)
class TorsionReport:
    period: int
    tol: float
    probes: int
    final_displacement: float      # max over probes of d(f^n(x), x)
    min_intermediate: float        # min over 0<i<n of max displacement of f^i
    passed: bool


def verify_torsion(f: CircleDiffeo, n: int, tol: float = 1e-8, probes: int = 64) -> TorsionReport:
    """Check f^n = id and f^i != id for 0 < i < n on equispaced probes."""
    L = f.circumference
    xs = np.linspace(0.0, L, probes, endpoint=False)
    *inter, final = [float(np.max(circle_distance(x, xs, L))) for x in orbit((f,) * n, xs)[1:]]
    min_inter = min(inter) if inter else math.inf
    return TorsionReport(n, tol, probes, final, min_inter,
                         passed=(final < tol and min_inter > tol))


@dataclass(frozen=True)
class TorsionMap:
    """Certified torsion map: f^n = id with n minimal."""

    map: CircleDiffeo
    period: int

    @property
    def circumference(self) -> float:
        return self.map.circumference


def make_torsion(h: CircleDiffeo, m: int, n: int, tol: float = 1e-8) -> TorsionMap:
    """f = h^-1 o r_{mL/n} o h, certified as a torsion map of period n."""
    if n < 1:
        raise CircleMapError("period must be positive")
    if math.gcd(abs(m), n) != 1:
        raise CircleMapError(f"gcd({m}, {n}) != 1: the actual period would be smaller")
    L = h.circumference
    f = h.inverse().compose(rotation(L, m * L / n)).compose(h)
    report = verify_torsion(f, n, tol=tol)
    if not report.passed:
        raise CircleMapError(f"constructed map failed torsion certification: {report}")
    return TorsionMap(f, n)


def as_torsion(f: CircleDiffeo, n: int, tol: float = 1e-8) -> TorsionMap:
    """Certify an existing map as a torsion map."""
    report = verify_torsion(f, n, tol=tol)
    if not report.passed:
        raise CircleMapError(f"map failed torsion certification: {report}")
    return TorsionMap(f, n)


def conjugator_to_rotation(f: TorsionMap) -> CircleDiffeo:
    """H = (1/n) sum_{j<n} F^j, which satisfies H o F = R_{mL/n} o H.

    The invariant check is re-run; the returned map is strictly increasing
    (report its min derivative via min_derivative()).
    """
    rep = verify_torsion(f.map, f.period)
    if not rep.passed:
        raise CircleMapError(f"not a torsion map: {rep}")
    n = f.period

    def lift(x):
        x, *rest = orbit((f.map,) * (n - 1), x)
        return sum(rest, x) / n

    return CircleDiffeo(f.circumference, lift, displacement_bound=f.map.displacement_bound * n)
