"""Support-function curves.

A curve with total curvature 2*k*pi is described by a support function p on
the k-sheeted circle [0, 2*k*pi) and parametrized as

    X(phi) = p(phi) u(phi) + p'(phi) u'(phi),

so that X' = (p + p'') u' and the radius of curvature is rho = p + p''.
Support functions here are finite trigonometric polynomials with rational
frequencies, which gives exact derivatives and exact periodicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet, chain


class SupportError(ValueError):
    pass


@dataclass(frozen=True)
class SupportTerm:
    frequency: Fraction
    cos_coeff: float = 0.0
    sin_coeff: float = 0.0


@dataclass(frozen=True)
class SupportFunction:
    """p(phi) = constant + sum_j (c_j cos(l_j phi) + s_j sin(l_j phi)) on [0, 2*k*pi)."""

    constant: float
    terms: tuple[SupportTerm, ...] = ()
    sheets: int = 1

    def __post_init__(self):
        if self.sheets < 1:
            raise SupportError("sheet count must be a positive integer")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.frequency <= 0:
                raise SupportError(f"frequency must be positive, got {t.frequency}")
            if (t.frequency * self.sheets).denominator != 1:
                raise SupportError(
                    f"frequency {t.frequency} is not periodic on {self.sheets} sheets "
                    f"(l*k = {t.frequency * self.sheets} is not an integer)"
                )

    @property
    def domain_length(self) -> float:
        return 2.0 * self.sheets * math.pi

    @property
    def period(self) -> float:
        """Period of the curve p u + p' u': 2 pi lcm(frequency denominators),
        which divides the domain length."""
        return 2.0 * math.lcm(*(t.frequency.denominator for t in self.terms)) * math.pi

    def _reduce(self, phi):
        return np.mod(phi, self.domain_length)

    def eval(self, phi, order: int = 0):
        """Derivative of the given order (an integer >= 0) at phi, a scalar,
        an array or a Jet; exact closed form."""
        if type(order) is not int and not isinstance(order, np.integer) or order < 0:
            raise SupportError(f"derivative order must be an integer >= 0, got {order!r}")
        if isinstance(phi, Jet):
            return phi.compose([self.eval(phi.v, order + i) for i in range(phi.order + 1)])
        phi = self._reduce(np.asarray(phi, dtype=float))
        out = np.full_like(phi, self.constant if order == 0 else 0.0)
        for t in self.terms:
            l = np.float64(t.frequency)   # l ** order overflows to inf, not an error
            arg = l * phi
            c, s = t.cos_coeff, t.sin_coeff
            c, s = ((c, s), (s, -c), (-c, -s), (-s, c))[order % 4]
            out = out + (l ** order) * (c * np.cos(arg) + s * np.sin(arg))
        return out if out.ndim else float(out)

    def min_curvature_radius(self, samples: int = 2048) -> float:
        phi = np.linspace(0.0, self.domain_length, samples, endpoint=False)
        return float(np.min(self.eval(phi) + self.eval(phi, 2)))


@dataclass(frozen=True)
class PlaneCurve:
    """Closed parametric curve exposing a 2-jet over [0, domain_length)."""

    domain_length: float
    jet_fn: Callable[[np.ndarray], tuple] = field(repr=False)   # ts -> (pos, vel, acc)
    label: str = ""
    position_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def jet_many(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.jet_fn(ts)

    def positions(self, ts) -> np.ndarray:
        """Points at the parameters ts; a Jet of them goes to position_fn as it is."""
        if not isinstance(ts, Jet):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            if self.position_fn is None:
                return self.jet_fn(ts)[0]
        return self.position_fn(ts)

    def sample(self, n: int) -> np.ndarray:
        ts = np.linspace(0.0, self.domain_length, n, endpoint=False)
        return self.positions(ts)

    def closure_gap(self) -> float:
        p0 = self.positions([0.0])[0]
        p1 = self.positions([self.domain_length])[0]
        return float(np.hypot(*(p1 - p0)))

    def min_speed(self, samples: int = 1024) -> float:
        ts = np.linspace(0.0, self.domain_length, samples, endpoint=False)
        vel = self.jet_many(ts)[1]
        return float(np.min(np.hypot(vel[:, 0], vel[:, 1])))


def curve_from_position(domain_length: float, position_fn: Callable,
                        label: str = "") -> PlaneCurve:
    """Curve whose 2-jet is the Taylor jet of position_fn, which takes
    arrays or Jets of the parameter."""

    def jet(ts: np.ndarray):
        x = position_fn(Jet.variable(ts, 2))
        return x.v, x.d[0], x.d[1]

    return PlaneCurve(domain_length, jet, label=label, position_fn=position_fn)


def curve_from_support(p: SupportFunction, label: str = "") -> PlaneCurve:
    """Curve X = p*u + p'*u' with closed-form derivatives.

    With rho = p + p'' they are X' = rho u', X'' = rho' u' - rho u and
    X''' = (rho'' - rho) u' - 2 rho' u. A non-positive radius of curvature
    (see SupportFunction.min_curvature_radius) is not rejected:
    self-intersecting envelopes are legitimate inputs.
    """
    def derivs(ts: np.ndarray, order: int) -> list[np.ndarray]:
        c, s = np.cos(ts), np.sin(ts)
        ps = [p.eval(ts, i) for i in range(order + 2 if order else 2)]
        out = [np.stack([ps[0] * c - ps[1] * s, ps[0] * s + ps[1] * c], axis=1)]
        if order == 0:
            return out
        u, up = np.stack([c, s], axis=1), np.stack([-s, c], axis=1)
        rho = [(ps[i] + ps[i + 2])[:, None] for i in range(order)]
        out.append(rho[0] * up)
        if order >= 2:
            out.append(rho[1] * up - rho[0] * u)
        if order >= 3:
            out.append((rho[2] - rho[0]) * up - 2 * rho[1] * u)
        return out

    return curve_from_position(p.domain_length, lambda ts: chain(ts, derivs), label=label)


def vertex_position_fn(p: SupportFunction, a: Callable, b: Callable) -> Callable:
    """Position function (arrays or Jets) of the vertex curve whose point at
    t is where the tangent lines of p at phi = a(t) and b(t) meet:
    Y = p(phi) u(phi) + q(phi) u'(phi). a and b are lifts."""

    def pos(ts):
        phi, fphi = a(ts), b(ts)
        adv = fphi - phi
        p0 = p.eval(phi)
        q = (p.eval(fphi) - p0 * jets.cos(adv)) / jets.sin(adv)
        c, s = jets.cos(phi), jets.sin(phi)
        return p0[:, None] * jets.stack([c, s]) + q[:, None] * jets.stack([-s, c])

    return pos


def constant_width_check(p: SupportFunction, samples: int = 720, tol: float = 1e-10) -> bool:
    """True iff p(phi) + p(phi + pi) == 2a on a dense sample (k = 1 only)."""
    if p.sheets != 1:
        raise SupportError("constant width is defined for k = 1 curves only")
    phi = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    width = p.eval(phi) + p.eval(phi + math.pi)
    return float(np.max(np.abs(width - 2.0 * p.constant))) < tol


def signed_area(curve: PlaneCurve, samples: int = 4096) -> float:
    """Shoelace area of the sampled closed polygon."""
    pts = curve.sample(samples)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - y * xn))
