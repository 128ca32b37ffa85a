"""Orientation-preserving circle diffeomorphisms via monotone lifts.

A map f of a circle with circumference L is stored as a lift F with
F(x + L) = F(x) + L. Rotation numbers, torsion maps (f^n = id with n
minimal) and the explicit conjugator H = (1/n) sum F^j to the rigid
rotation are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CircleMapError(ValueError):
    pass


@dataclass(frozen=True)
class FourierTerm:
    j: int
    sin_coeff: float = 0.0
    cos_coeff: float = 0.0


def _solve_lift(lift, dlift, y, L, bound, tol):
    """Solve lift(x) = y for x (vectorized safeguarded Newton in a bracket).

    Raises CircleMapError when some x is not within tol after 100 steps.
    """
    y = np.asarray(y, dtype=float)
    lo = y - bound
    hi = y + bound
    x = y.copy()
    for steps in range(101):
        fx = lift(x) - y
        done = np.abs(fx) < tol
        if np.all(done):
            return x
        if steps == 100:
            break
        lo = np.where(fx < 0, np.maximum(lo, x), lo)
        hi = np.where(fx > 0, np.minimum(hi, x), hi)
        if dlift is not None:
            d = dlift(x)
            step = np.where(d > 0, fx / np.where(d > 0, d, 1.0), 0.0)
            xn = x - step
        else:
            xn = x - fx  # lift ~ identity + bounded part
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

    The lift and (when available) its derivative accept scalars or arrays.
    """

    circumference: float
    lift: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dlift: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    rotation_amount: float | None = None  # set iff the map is a rigid rotation
    fourier: tuple[float, tuple[FourierTerm, ...]] | None = None  # (c, terms)
    displacement_bound: float = 0.0  # bound for |lift(x) - x|

    @property
    def L(self) -> float:
        return self.circumference

    def __call__(self, x):
        return np.mod(self.lift(np.asarray(x, dtype=float)), self.circumference)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.dlift is not None:
            return self.dlift(x)
        h = 1e-6 * self.circumference
        return (self.lift(x + h) - self.lift(x - h)) / (2 * h)

    def min_derivative(self, samples: int = 1024) -> float:
        xs = np.linspace(0.0, self.circumference, samples, endpoint=False)
        return float(np.min(self.derivative(xs)))

    @property
    def is_rotation(self) -> bool:
        return self.rotation_amount is not None

    def inverse(self) -> CircleDiffeo:
        if self.is_rotation:
            return rotation(self.circumference, -self.rotation_amount)
        L = self.circumference
        bound = self.displacement_bound + L
        tol = 1e-12 * L

        def inv_lift(y):
            return _solve_lift(self.lift, self.dlift, y, L, bound, tol)

        def inv_dlift(y):
            return 1.0 / self.derivative(inv_lift(y))

        return CircleDiffeo(L, inv_lift, inv_dlift, displacement_bound=self.displacement_bound)

    def compose(self, inner: CircleDiffeo) -> CircleDiffeo:
        """self after inner: x -> self(inner(x))."""
        if not math.isclose(self.circumference, inner.circumference):
            raise CircleMapError("composing maps of different circumferences")
        if self.is_rotation and inner.is_rotation:
            return rotation(self.circumference, self.rotation_amount + inner.rotation_amount)

        def lift(x):
            return self.lift(inner.lift(x))

        dlift = None
        if self.dlift is not None and inner.dlift is not None:
            def dlift(x):
                return self.dlift(inner.lift(x)) * inner.dlift(x)

        return CircleDiffeo(
            self.circumference, lift, dlift,
            displacement_bound=self.displacement_bound + inner.displacement_bound,
        )

    def iterate(self, x, times: int):
        x = np.asarray(x, dtype=float)
        for _ in range(times):
            x = self.lift(x)
        return x

    def to_dict(self) -> dict:
        if self.fourier is None:
            raise CircleMapError("only Fourier-lift maps serialize")
        c, terms = self.fourier
        return {
            "L": self.circumference,
            "c": c,
            "terms": [{"j": t.j, "sin": t.sin_coeff, "cos": t.cos_coeff} for t in terms],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> CircleDiffeo:
        terms = tuple(
            FourierTerm(int(t["j"]), float(t.get("sin", 0.0)), float(t.get("cos", 0.0)))
            for t in doc.get("terms", [])
        )
        return from_fourier(float(doc["L"]), float(doc.get("c", 0.0)), terms)


def identity(L: float) -> CircleDiffeo:
    return rotation(L, 0.0)


def rotation(L: float, amount: float) -> CircleDiffeo:
    return CircleDiffeo(
        L,
        lift=lambda x: np.asarray(x, dtype=float) + amount,
        dlift=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        rotation_amount=amount,
        displacement_bound=abs(amount),
    )


def from_fourier(L: float, c: float, terms: tuple[FourierTerm, ...]) -> CircleDiffeo:
    """Lift F(x) = x + c + sum_j (a_j sin(2 pi j x / L) + b_j cos(2 pi j x / L)).

    F(x+L) = F(x) + L holds by construction; strict monotonicity is checked
    on a dense sample.
    """
    terms = tuple(terms)
    w = 2.0 * math.pi / L

    def lift(x):
        x = np.asarray(x, dtype=float)
        out = x + c
        for t in terms:
            out = out + t.sin_coeff * np.sin(w * t.j * x) + t.cos_coeff * np.cos(w * t.j * x)
        return out

    def dlift(x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for t in terms:
            out = out + w * t.j * (t.sin_coeff * np.cos(w * t.j * x) - t.cos_coeff * np.sin(w * t.j * x))
        return out

    bound = abs(c) + sum(abs(t.sin_coeff) + abs(t.cos_coeff) for t in terms)
    f = CircleDiffeo(L, lift, dlift, fourier=(c, terms), displacement_bound=bound)
    if f.min_derivative() <= 1e-9:
        raise CircleMapError("lift is not strictly increasing (min F' <= 1e-9)")
    return f


def circle_distance(a, b, L: float):
    d = np.mod(np.asarray(a, dtype=float) - b, L)
    return np.minimum(d, L - d)


def rotation_number(f: CircleDiffeo, iterations: int = 1000) -> float:
    """Poincare rotation number estimate (F^k(0) - 0) / k, scaled into [0, 1)."""
    if iterations < 1:
        raise CircleMapError("iterations must be >= 1")
    x = f.iterate(0.0, iterations)
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
    x = xs.copy()
    inter = []
    for _ in range(n - 1):
        x = f.lift(x)
        inter.append(float(np.max(circle_distance(x, xs, L))))
    x = f.lift(x)
    final = float(np.max(circle_distance(x, xs, L)))
    min_inter = min(inter) if inter else math.inf
    return TorsionReport(n, tol, probes, final, min_inter,
                         passed=(final < tol and min_inter > tol))


@dataclass(frozen=True)
class TorsionMap:
    """Certified torsion map: period n, winding m, gcd(m, n) = 1."""

    map: CircleDiffeo
    period: int
    winding: int
    conjugating: CircleDiffeo | None = None  # h with f = h^-1 o r o h, when known

    @property
    def circumference(self) -> float:
        return self.map.circumference

    @property
    def rotation_angle(self) -> float:
        return self.winding * self.map.circumference / self.period

    def orbit(self, start: float) -> list[float]:
        """The lifted orbit start, f(start), ..., f^(n-1)(start)."""
        params = [float(start)]
        for _ in range(self.period - 1):
            params.append(float(self.map.lift(params[-1])))
        return params


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
    return TorsionMap(f, n, m % n if n > 1 else 0, conjugating=h)


def as_torsion(f: CircleDiffeo, n: int, m: int, tol: float = 1e-8) -> TorsionMap:
    """Certify an existing map as a torsion map."""
    report = verify_torsion(f, n, tol=tol)
    if not report.passed:
        raise CircleMapError(f"map failed torsion certification: {report}")
    return TorsionMap(f, n, m % n if n > 1 else 0)


def conjugator_to_rotation(f: TorsionMap) -> CircleDiffeo:
    """H = (1/n) sum_{j<n} F^j, which satisfies H o F = R_{mL/n} o H.

    The invariant check is re-run; the returned map is strictly increasing
    (report its min derivative via min_derivative()).
    """
    rep = verify_torsion(f.map, f.period)
    if not rep.passed:
        raise CircleMapError(f"not a torsion map: {rep}")
    n = f.period
    inner = f.map

    def lift(x):
        x = np.asarray(x, dtype=float)
        acc = x.copy()
        cur = x
        for _ in range(n - 1):
            cur = inner.lift(cur)
            acc = acc + cur
        return acc / n

    def dlift(x):
        if inner.dlift is None:
            h = 1e-6 * inner.circumference
            return (lift(np.asarray(x) + h) - lift(np.asarray(x) - h)) / (2 * h)
        x = np.asarray(x, dtype=float)
        acc = np.ones_like(x)
        cur = x
        dcur = np.ones_like(x)
        for _ in range(n - 1):
            dcur = dcur * inner.dlift(cur)
            cur = inner.lift(cur)
            acc = acc + dcur
        return acc / n

    return CircleDiffeo(inner.circumference, lift, dlift,
                        displacement_bound=inner.displacement_bound * n)
