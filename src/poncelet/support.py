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
    # the (l, c, s) rows of jets.series, l converted to np.float64 once
    _series: tuple = field(init=False, repr=False, compare=False)

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
        rows = tuple((np.float64(t.frequency), t.cos_coeff, t.sin_coeff) for t in self.terms)
        object.__setattr__(self, "_series", rows)

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
            return phi.compose(self.derivatives(phi.v, order + phi.order + 1)[order:])
        out = self.derivatives(phi, order + 1)[order]
        return out if out.ndim else float(out)

    def derivatives(self, phi, count: int) -> list[np.ndarray]:
        """p, p', ..., p^(count - 1) at phi, each term's cos and sin taken once."""
        phi = self._reduce(np.asarray(phi, dtype=float))
        out = [np.full_like(phi, self.constant if i == 0 else 0.0) for i in range(count)]
        return jets.series(phi, self._series, out)

    def min_curvature_radius(self) -> float:
        """min (p + p'') over 2048 points of the domain, or 8 per period of the
        highest term when that is more: its l k periods must not alias."""
        turns = round(max((l for l, _, _ in self._series), default=0.0) * self.sheets)
        phi = np.linspace(0.0, self.domain_length, max(2048, 8 * turns), endpoint=False)
        p = self.derivatives(phi, 3)
        return float(np.min(p[0] + p[2]))


@dataclass(frozen=True)
class PlaneCurve:
    """Closed parametric curve over [0, domain_length). jet_many(ts, order)
    gives the position and its first order (1 or 2) derivatives: the Taylor
    jet of position_fn at that order, which takes arrays or Jets of the
    parameter. A hand-written jet_fn, ts -> (pos, vel, acc) on arrays,
    overrides it and is cut to the order asked."""

    domain_length: float
    jet_fn: Callable[[np.ndarray], tuple] | None = field(default=None, repr=False)
    label: str = ""
    position_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def jet_many(self, ts, order: int = 2) -> tuple[np.ndarray, ...]:
        if order not in (1, 2) or not isinstance(order, (int, np.integer)):
            raise ValueError(f"jet order must be 1 or 2, got {order!r}")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.jet_fn is not None:
            return self.jet_fn(ts)[:order + 1]
        x = self.position_fn(Jet.variable(ts, order))
        return (x.v, *x.d)

    def positions(self, ts) -> np.ndarray:
        """Points at the parameters ts; a Jet of them goes to position_fn as it is."""
        if not isinstance(ts, Jet):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            if self.position_fn is None:
                return self.jet_fn(ts)[0]
        elif self.position_fn is None:
            raise TypeError(f"curve {self.label!r} has no position function for Jets")
        return self.position_fn(ts)

    def sample(self, n: int) -> np.ndarray:
        ts = np.linspace(0.0, self.domain_length, n, endpoint=False)
        return self.positions(ts)

    def min_speed(self) -> float:
        ts = np.linspace(0.0, self.domain_length, 1024, endpoint=False)
        vel = self.jet_many(ts, 1)[1]
        return float(np.min(np.hypot(vel[:, 0], vel[:, 1])))


def curve_from_position(domain_length: float, position_fn: Callable,
                        label: str = "") -> PlaneCurve:
    """Curve whose jets are the Taylor jets of position_fn, which takes
    arrays or Jets of the parameter."""
    return PlaneCurve(domain_length, label=label, position_fn=position_fn)


def curve_from_support(p: SupportFunction, label: str = "") -> PlaneCurve:
    """Curve X = p*u + p'*u' with closed-form derivatives.

    With rho = p + p'' they are X' = rho u', X'' = rho' u' - rho u and
    X''' = (rho'' - rho) u' - 2 rho' u. A non-positive radius of curvature
    (see SupportFunction.min_curvature_radius) is not rejected:
    self-intersecting envelopes are legitimate inputs.
    """
    def derivs(ts: np.ndarray, order: int) -> list[np.ndarray]:
        c, s = np.cos(ts), np.sin(ts)
        ps = p.derivatives(ts, order + 2 if order else 2)
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
        (ca, sa), (c, s) = jets.cis(adv), jets.cis(phi)
        q = (p.eval(fphi) - p0 * ca) / sa
        return p0[:, None] * jets.stack([c, s]) + q[:, None] * jets.stack([-s, c])

    return pos
