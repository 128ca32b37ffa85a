"""Orientation-preserving circle diffeomorphisms via monotone lifts.

A map f of a circle with circumference L is stored as a lift F with
F(x + L) = F(x) + L. Torsion maps (f^n = id with n minimal) and the
explicit conjugator H = (1/n) sum F^j to the rigid rotation are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import Jet, chain, series
from .roots import GRID, circle_roots, newton_roots


class CircleMapError(ValueError):
    pass


@dataclass(frozen=True)
class FourierTerm:
    j: int
    sin_coeff: float = 0.0
    cos_coeff: float = 0.0


def _solve_lift(lift, dlift, y, bound, tol, table):
    """Solve lift(x) = y for x by roots.newton_roots in the brackets y -+ bound.

    Newton starts at the linear interpolation of table = (xs, lift(xs)), the
    lift at increasing xs over [0, L], at y reduced by whole periods, clipped
    into the bracket. dlift(x) is the lift's order-1 Jet at x, so a step
    evaluates value and slope in one call and lift itself is not called; the
    targets y stay the third argument, where perfbench/tracer.py counts them.
    A residual below tol returns the Newton update of that evaluation.
    Raises CircleMapError when some x is not within tol after 100 steps.
    """
    ys = np.ravel(np.asarray(y, dtype=float))
    xs, fs = table
    turns = np.floor((ys - fs[0]) / xs[-1]) * xs[-1]
    lo, hi = ys - bound, ys + bound
    x = np.clip(np.interp(ys - turns, fs, xs) + turns, lo, hi)

    def residual(x, i):
        jet = dlift(x)
        return jet.v - ys[i], jet.d[0]

    x, open_ = newton_roots(residual, x, lo, hi, True, ftol=tol)
    if np.count_nonzero(open_):
        bad = np.flatnonzero(open_)
        raise CircleMapError(
            f"lift inversion did not converge in 100 steps for {bad.size} of {ys.size} values, "
            f"e.g. y = {ys[bad[0]]:.6g} (residual {residual(x[bad[:1]], bad[:1])[0][0]:.3g})")
    return x.reshape(np.shape(y))[()]


@dataclass(frozen=True)
class CircleDiffeo:
    """Circle map represented by a strictly increasing lift.

    The lift accepts scalars, arrays or a Jet, which gives its derivatives.
    """

    circumference: float
    lift: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    rotation_amount: float | None = None  # set iff the map is a rigid rotation
    displacement_bound: float = 0.0  # bound for |lift(x) - x|

    def derivative(self, x):
        return self.lift(Jet.variable(x, 1)).d[0]

    @property
    def is_rotation(self) -> bool:
        return self.rotation_amount is not None

    def inverse(self) -> CircleDiffeo:
        """The inverse map. Its lift solves for values only, by Newton from a
        table of this lift at GRID + 1 points, made here once for every
        inversion; the derivatives of a Jet argument follow from the
        inverse-function rule."""
        if self.is_rotation:
            return rotation(self.circumference, -self.rotation_amount)
        L = self.circumference
        bound = self.displacement_bound + L
        tol = 1e-12 * L
        xs = np.linspace(0.0, L, GRID + 1)
        table = (xs, self.lift(xs))
        def dlift(x):
            return self.lift(Jet.variable(x, 1))

        def inv_lift(y):
            if not isinstance(y, Jet):
                return _solve_lift(self.lift, dlift, y, bound, tol, table)
            x = _solve_lift(self.lift, dlift, y.v, bound, tol, table)
            F = self.lift(Jet.variable(x, max(y.order, 1))).d   # F', ... at x = g(y), to y's order
            g = [x, 1.0 / F[0]]
            if y.order > 1:
                g.append(-F[1] * g[1] ** 3)
            if y.order > 2:
                g.append(-F[2] * g[1] ** 4 + 3.0 * F[1] * F[1] * g[1] ** 5)
            return y.compose(g)

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
    bound of F'; when that bound fails, min F' is taken over 8 points per
    period of the highest harmonic and over the zeros of F'' that
    roots.circle_roots finds from those points.
    """
    terms = tuple(terms)
    if any(abs(t.j) > MAX_HARMONIC for t in terms):
        raise CircleMapError(f"Fourier lift harmonics are limited to |j| <= {MAX_HARMONIC}")
    w = 2.0 * math.pi / L
    table = tuple((np.float64(w * t.j), t.cos_coeff, t.sin_coeff) for t in terms)

    def derivs(x, order):
        out = [x + c]
        if order:
            out += [np.ones_like(x)] + [np.zeros_like(x) for _ in range(order - 1)]
        return series(x, table, out)

    bound = abs(c) + sum(abs(t.sin_coeff) + abs(t.cos_coeff) for t in terms)
    f = CircleDiffeo(L, lambda x: chain(x, derivs), displacement_bound=bound)
    slope_bound = 1.0 - sum(w * abs(t.j) * math.hypot(t.sin_coeff, t.cos_coeff) for t in terms)
    if slope_bound <= 1e-9 and _min_slope(f, max(abs(t.j) for t in terms)) <= 1e-9:
        raise CircleMapError("lift is not strictly increasing (min F' <= 1e-9)")
    return f


def _min_slope(f: CircleDiffeo, harmonic: int) -> float:
    """min F' over 8 samples per period of the highest harmonic and over the
    zeros of F'' that circle_roots finds from them."""
    xs = np.linspace(0.0, f.circumference, max(1024, 8 * harmonic), endpoint=False)
    slope, bend = f.lift(Jet.variable(xs, 2)).d
    # an unconverged bracket's last point is a sample all the same
    turns = circle_roots(lambda x, _: f.lift(Jet.variable(x, 3)).d[1:], f.circumference, xs,
                         bend[None])[1]
    return float(np.min(np.concatenate([slope, f.derivative(turns)])))


def circle_distance(a, b, L: float):
    d = np.mod(np.asarray(a, dtype=float) - b, L)
    return np.minimum(d, L - d)


@dataclass(frozen=True)
class TorsionReport:
    period: int
    tol: float
    probes: int
    final_displacement: float      # max over probes of d(f^n(x), x)
    min_intermediate: float        # min over 0<i<n of max displacement of f^i
    passed: bool


def verify_torsion(f: CircleDiffeo, n: int) -> TorsionReport:
    """Check f^n = id and f^i != id for 0 < i < n on 64 probes, tol 1e-8."""
    if n < 1:
        raise CircleMapError("period must be positive")
    L, tol, probes = f.circumference, 1e-8, 64
    xs = np.linspace(0.0, L, probes, endpoint=False)
    *inter, final = [float(np.max(circle_distance(x, xs, L))) for x in orbit((f,) * n, xs)[1:]]
    min_inter = min(inter) if inter else math.inf
    return TorsionReport(n, tol, probes, final, min_inter,
                         passed=(final < tol and min_inter > tol))


@dataclass(frozen=True)
class TorsionMap:
    """Torsion map: f^n = id with n minimal, certified by verify_torsion when
    it is made."""

    map: CircleDiffeo
    period: int

    def __post_init__(self):
        report = verify_torsion(self.map, self.period)
        if not report.passed:
            raise CircleMapError(f"map failed torsion certification: {report}")


def make_torsion(h: CircleDiffeo, m: int, n: int) -> TorsionMap:
    """The torsion map f = h^-1 o r_{mL/n} o h of period n."""
    if n < 1:
        raise CircleMapError("period must be positive")
    if math.gcd(abs(m), n) != 1:
        raise CircleMapError(f"gcd({m}, {n}) != 1: the actual period would be smaller")
    L = h.circumference
    return TorsionMap(h.inverse().compose(rotation(L, m * L / n)).compose(h), n)


def conjugator_to_rotation(f: TorsionMap) -> CircleDiffeo:
    """H = (1/n) sum_{j<n} F^j, which satisfies H o F = R_{mL/n} o H: the
    paper's explicit conjugator of a torsion map to the rigid rotation. H is
    strictly increasing, as a mean of increasing lifts."""
    n = f.period

    def lift(x):
        x, *rest = orbit((f.map,) * (n - 1), x)
        return sum(rest, x) / n

    return CircleDiffeo(f.map.circumference, lift, displacement_bound=f.map.displacement_bound * n)
