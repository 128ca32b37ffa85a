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

from .geometry import GeometryError, Vec2


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

    def _reduce(self, phi):
        return np.mod(phi, self.domain_length)

    def eval(self, phi, order: int = 0):
        """Derivative of order 0..3 at phi (scalar or array), exact closed form."""
        phi = self._reduce(np.asarray(phi, dtype=float))
        out = np.full_like(phi, self.constant if order == 0 else 0.0)
        for t in self.terms:
            l = float(t.frequency)
            arg = l * phi
            c, s = t.cos_coeff, t.sin_coeff
            if order % 4 == 1:
                c, s = s, -c
            elif order % 4 == 2:
                c, s = -c, -s
            elif order % 4 == 3:
                c, s = -s, c
            out = out + (l ** order) * (c * np.cos(arg) + s * np.sin(arg))
        return out if out.ndim else float(out)

    def shifted(self, delta: float) -> Callable:
        return lambda phi, order=0: self.eval(np.asarray(phi, dtype=float) + delta, order)

    def min_curvature_radius(self, samples: int = 2048) -> float:
        phi = np.linspace(0.0, self.domain_length, samples, endpoint=False)
        return float(np.min(self.eval(phi) + self.eval(phi, 2)))

    def to_dict(self) -> dict:
        return {
            "a": self.constant,
            "k": self.sheets,
            "terms": [
                {"l_num": t.frequency.numerator, "l_den": t.frequency.denominator,
                 "cos": t.cos_coeff, "sin": t.sin_coeff}
                for t in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> SupportFunction:
        terms = tuple(
            SupportTerm(Fraction(int(t["l_num"]), int(t["l_den"])),
                        float(t.get("cos", 0.0)), float(t.get("sin", 0.0)))
            for t in doc.get("terms", [])
        )
        return cls(float(doc["a"]), terms, int(doc.get("k", 1)))


def eval_jet(p: SupportFunction, phi: float) -> tuple[float, float, float]:
    """(p, p', p'') at phi, reduced mod 2*k*pi."""
    return p.eval(phi, 0), p.eval(phi, 1), p.eval(phi, 2)


JetFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class PlaneCurve:
    """Closed parametric curve exposing a 2-jet over [0, domain_length)."""

    domain_length: float
    jet_fn: JetFn = field(repr=False)
    label: str = ""
    positive_curvature: bool | None = None
    position_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def jet_many(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.jet_fn(ts)

    def positions(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.position_fn is not None:
            return self.position_fn(ts)
        return self.jet_fn(ts)[0]

    def jet(self, t: float) -> tuple[Vec2, Vec2, Vec2]:
        pos, vel, acc = self.jet_many([t])
        return (Vec2(*pos[0]), Vec2(*vel[0]), Vec2(*acc[0]))

    def position(self, t: float) -> Vec2:
        return self.jet(t)[0]

    def velocity(self, t: float) -> Vec2:
        return self.jet(t)[1]

    def sample(self, n: int) -> np.ndarray:
        ts = np.linspace(0.0, self.domain_length, n, endpoint=False)
        return self.positions(ts)

    def closure_gap(self) -> float:
        p0 = self.positions([0.0])[0]
        p1 = self.positions([self.domain_length])[0]
        return float(np.hypot(*(p1 - p0)))

    def is_closed(self, tol: float = 1e-9) -> bool:
        return self.closure_gap() < tol

    def min_speed(self, samples: int = 1024) -> float:
        ts = np.linspace(0.0, self.domain_length, samples, endpoint=False)
        vel = self.jet_many(ts)[1]
        return float(np.min(np.hypot(vel[:, 0], vel[:, 1])))

    def is_regular(self, samples: int = 1024) -> bool:
        return self.min_speed(samples) > 0.0


# finite-difference step of fd_jet, relative to the parameter circle
FD_STEP_REL = 1e-4


def fd_jet(pos_fn: Callable[[np.ndarray], np.ndarray], step: float) -> JetFn:
    """2-jet from positions via 5-point central differences, O(h^4)."""

    def jet(ts: np.ndarray):
        h = step
        pm2 = pos_fn(ts - 2 * h)
        pm1 = pos_fn(ts - h)
        p0 = pos_fn(ts)
        pp1 = pos_fn(ts + h)
        pp2 = pos_fn(ts + 2 * h)
        vel = (pm2 - 8 * pm1 + 8 * pp1 - pp2) / (12 * h)
        acc = (-pm2 + 16 * pm1 - 30 * p0 + 16 * pp1 - pp2) / (12 * h * h)
        return p0, vel, acc

    return jet


def curve_from_support(p: SupportFunction, label: str = "") -> PlaneCurve:
    """Curve X = p*u + p'*u' with closed-form jet.

    A non-positive radius of curvature somewhere is flagged, not rejected:
    self-intersecting envelopes are legitimate inputs.
    """
    convex = p.min_curvature_radius() > 0.0

    def jet(ts: np.ndarray):
        c, s = np.cos(ts), np.sin(ts)
        u = np.stack([c, s], axis=1)
        up = np.stack([-s, c], axis=1)
        p0 = p.eval(ts)
        p1 = p.eval(ts, 1)
        rho = p0 + p.eval(ts, 2)
        drho = p1 + p.eval(ts, 3)
        pos = p0[:, None] * u + p1[:, None] * up
        vel = rho[:, None] * up
        acc = drho[:, None] * up - rho[:, None] * u
        return pos, vel, acc

    def pos_only(ts: np.ndarray):
        c, s = np.cos(ts), np.sin(ts)
        p0 = p.eval(ts)
        p1 = p.eval(ts, 1)
        return np.stack([p0 * c - p1 * s, p0 * s + p1 * c], axis=1)

    return PlaneCurve(p.domain_length, jet, label=label, positive_curvature=convex,
                      position_fn=pos_only)


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


def curvature(curve: PlaneCurve, ts) -> np.ndarray:
    pos, vel, acc = curve.jet_many(ts)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    if np.any(speed == 0.0):
        raise GeometryError("curvature undefined at a singular parameter")
    return (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed ** 3
