"""Equiangular pairs and clans for a prescribed envelope.

For an envelope with support function p on [0, 2*k*pi) and an external
angle alpha, the 2k vertex curves are

    Y_i(phi) = csc(a_i) (p(phi + a_i) u'(phi) - p(phi) u'(phi + a_i)),

with a_i = alpha + i*pi. For p = a + cos(l*phi) the pair carries congruent
equilateral polygons and the vertex curve is the epitrochoid

    Y(phi) = a sec(alpha/2) u(phi) + (-1)^k u(n*phi),      n = l + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import jets
from .geometry import RationalAngle, Vec2, closure_steps
from .support import (PlaneCurve, SupportFunction, SupportTerm, curve_from_position,
                      curve_from_support)


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class EquiangularSpec:
    envelope: SupportFunction
    angle: RationalAngle           # alpha in (0, pi), rational multiple of pi
    branch: int = 0                # i in [0, 2k): uses a_i = alpha + i*pi

    def __post_init__(self):
        if not (0 < self.angle.coeff < 1):
            raise ConstructionError("alpha must lie strictly between 0 and pi")
        if not (0 <= self.branch < 2 * self.envelope.sheets):
            raise ConstructionError(f"branch must lie in [0, {2 * self.envelope.sheets})")

    @property
    def branch_angle(self) -> RationalAngle:
        return self.angle.add_pi_multiple(self.branch)


@dataclass(frozen=True)
class Contact:
    point: Vec2
    parameter: float   # envelope parameter of the touched tangent line
    chord: float       # contact position along the side; inside iff 0 < chord < 1
    envelope_index: int = 0


@dataclass(frozen=True)
class PonceletPolygon:
    vertices: tuple[Vec2, ...]
    parameters: tuple[float, ...]
    contacts: tuple[Contact, ...]
    closure_gap: float

    def side_lengths(self) -> list[float]:
        n = len(self.vertices)
        return [(self.vertices[(i + 1) % n] - self.vertices[i]).norm() for i in range(n)]

    def centroid(self) -> Vec2:
        sx = sum(v.x for v in self.vertices)
        sy = sum(v.y for v in self.vertices)
        return Vec2(sx / len(self.vertices), sy / len(self.vertices))


def assemble_polygon(vertices, closing, params, contacts, contact_params, L: float,
                     envelope_index=None) -> PonceletPolygon:
    """The polygon with vertices (n, 2) at vertex parameters params, whose
    side i from vertex i to vertex i+1 touches its envelope at contacts[i]
    with parameter contact_params[i] on the envelope circle of length L.

    closing is where the step after the last vertex lands; its distance to
    the first vertex is the closure gap. envelope_index[i] names the
    envelope that side i touches (all 0 when omitted).
    """
    v = np.asarray(vertices, dtype=float)
    x = np.asarray(contacts, dtype=float)
    d = np.roll(v, -1, axis=0) - v
    r = x - v
    chords = (r[:, 0] * d[:, 0] + r[:, 1] * d[:, 1]) / (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    gap = float(np.hypot(*(np.asarray(closing, dtype=float) - v[0])))
    if envelope_index is None:
        envelope_index = [0] * len(v)
    contacts_ = tuple(Contact(Vec2(*xy), float(t) % L, c, int(k)) for xy, t, c, k in zip(
        x.tolist(), contact_params, chords.tolist(), envelope_index))
    return PonceletPolygon(tuple(Vec2(*xy) for xy in v.tolist()),
                           tuple(float(t) for t in params), contacts_, gap)


def equiangular_vertex_curve(spec: EquiangularSpec, label: str = "") -> PlaneCurve:
    """Vertex curve Y_i for the branch angle a_i, with closed-form jet."""
    a_i = spec.branch_angle
    if a_i.is_multiple_of_pi():
        raise ConstructionError(f"branch angle {a_i} is a multiple of pi (csc undefined)")
    alpha = a_i.radians
    csc = 1.0 / math.sin(alpha)
    p = spec.envelope

    def pos(ts):
        c, s = jets.cos(ts), jets.sin(ts)
        ca, sa = jets.cos(ts + alpha), jets.sin(ts + alpha)
        p0, q0 = p.eval(ts), p.eval(ts + alpha)
        return csc * jets.stack([-q0 * s + p0 * sa, q0 * c - p0 * ca])

    return curve_from_position(p.domain_length, pos, label=label)


def vertex_count(angle: RationalAngle, k: int) -> int:
    """Number of steps of size angle until a multiple of 2*k*pi is reached."""
    if not (0 < angle.coeff < 2):
        raise ConstructionError("angle must lie strictly between 0 and 2*pi")
    if k < 1:
        raise ConstructionError("sheet count must be positive")
    return closure_steps(angle, RationalAngle(2 * k))


def _pair_polygon(vertex_curve: PlaneCurve, envelope: PlaneCurve,
                  step: RationalAngle, count: int, start: float,
                  contact_shift: RationalAngle) -> PonceletPolygon:
    """Polygon by the rigid angle-step recurrence; contact of side j at
    parameter_j + contact_shift."""
    params = [start + (step * j).radians for j in range(count + 1)]
    pts = vertex_curve.positions(params)
    shift = contact_shift.radians
    psis = [t + shift for t in params[:count]]
    return assemble_polygon(pts[:count], pts[count], params[:count],
                            envelope.positions(psis), psis, envelope.domain_length)


@dataclass(frozen=True)
class EquiangularPair:
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curve: PlaneCurve
    angle: RationalAngle        # branch angle a_i actually used
    count: int

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        # in the eq-Ki parametrization the side [Y(t), Y(t+a)] touches at t+a
        return _pair_polygon(self.vertex_curve, self.envelope, self.angle,
                             self.count, start, self.angle)


def equiangular_pair(spec: EquiangularSpec) -> EquiangularPair:
    k = spec.envelope.sheets
    a_i = spec.branch_angle
    return EquiangularPair(
        envelope_support=spec.envelope,
        envelope=curve_from_support(spec.envelope, label="C"),
        vertex_curve=equiangular_vertex_curve(spec, label=f"K{spec.branch}"),
        angle=a_i,
        count=vertex_count(a_i, k),
    )


@dataclass(frozen=True)
class EquilateralPair:
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curve: PlaneCurve
    angle: RationalAngle            # alpha = 2*k*pi / n
    side_length: float
    count: int                      # distinct vertices: n / gcd(n, k)
    sheets_requested: int
    sheets_used: int
    amplitude: float                # a * sec(alpha/2)
    midpoint_sign: int              # (-1)^k

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        # in the shifted parametrization the side [Y(t), Y(t+a)] touches at t+a/2
        half = RationalAngle.from_fraction(self.angle.coeff / 2)
        return _pair_polygon(self.vertex_curve, self.envelope, self.angle,
                             self.count, start, half)


def equilateral_pair(k: int, l: Fraction, a: float, strict_curvature: bool = False) -> EquilateralPair:
    """Epitrochoid pair carrying congruent equilateral polygons.

    l = 2k/m - 1 (equivalently alpha a multiple of pi) is excluded. An `a`
    below the positive-curvature bound (a > l^2 - 1 for l > 1, a > 1 - l^2
    for l < 1) leaves the envelope with cusps; that is flagged on the
    envelope curve, and rejected only under strict_curvature.
    """
    l = Fraction(l)
    if k < 1:
        raise ConstructionError("k must be a positive integer")
    if l <= 0:
        raise ConstructionError("l must be positive")
    if a <= 0:
        raise ConstructionError("a must be positive")
    n = l + 1
    alpha = RationalAngle.from_fraction(Fraction(2 * k) / n)
    if alpha.is_multiple_of_pi():
        raise ConstructionError(
            f"l = {l} is excluded (l = 2k/m - 1 for integer m; the polygon degenerates)")
    bound = abs(l * l - 1)     # exact: a float of l * l can overflow
    if strict_curvature and not a > bound:
        raise ConstructionError(f"need a > {bound} for a positively curved envelope")

    # the support function must be periodic on the sheet count it is built
    # with; fall back to the smallest compatible count when k is not
    sheets = k if (l * k).denominator == 1 else l.denominator
    p = SupportFunction(a, (SupportTerm(l, cos_coeff=1.0),), sheets)
    envelope = curve_from_support(p, label="C")

    amp = a / math.cos(alpha.radians / 2)
    sign = -1 if k % 2 else 1
    nf = float(n)

    def pos(ts):
        return jets.stack([amp * jets.cos(ts) + sign * jets.cos(nf * ts),
                           amp * jets.sin(ts) + sign * jets.sin(nf * ts)])

    vertex = curve_from_position(p.domain_length, pos, label="K")
    side = 2.0 * a * abs(math.tan(alpha.radians / 2))
    count = closure_steps(alpha, RationalAngle(2))
    return EquilateralPair(p, envelope, vertex, alpha, side, count, k, sheets, amp, sign)


@dataclass(frozen=True)
class EquiangularClan:
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]
    angles: tuple[RationalAngle, ...]        # branch angles a_{j_i}
    turns: int                               # m with sum of base angles = 2*m*pi
    rows: int                                # l = lcm(2m+|j|, 2k) / (2m+|j|)
    count: int                               # total polygon vertices
    degenerate: bool

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertex parameter offsets from the start (the closing step's last),
        the vertex curve of each, and each side's contact shift; built by the
        first polygon, so that a clan refused for its vertex count never is."""
        n = len(self.vertex_curves)
        coeffs = [a.coeff for a in self.angles]
        row_advance = sum(coeffs, Fraction(0))
        # vertex nu of row r sits at r * row_advance + the sum of the first nu angles
        prefix = [sum(coeffs[:nu], Fraction(0)) for nu in range(n)]
        thetas = [row * row_advance + p for row in range(self.rows) for p in prefix]
        offsets = np.array([float(th) * math.pi for th in thetas + [self.rows * row_advance]])
        on = np.append(np.tile(np.arange(n), self.rows), 0)
        return offsets, on, np.array([a.radians for a in self.angles])[on[:-1]]

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        if self.degenerate:
            return _pair_polygon(self.vertex_curves[0], self.envelope,
                                 self.angles[0], self.count, start, self.angles[0])
        offsets, on, shifts = self._layout
        ts = start + offsets
        pts = np.empty((len(ts), 2))
        for nu, K in enumerate(self.vertex_curves):
            pts[on == nu] = K.positions(ts[on == nu])
        params, psis = ts[:-1], ts[:-1] + shifts
        return assemble_polygon(pts[:-1], pts[-1], params, self.envelope.positions(psis), psis,
                                self.envelope.domain_length)


def equiangular_clan(envelope: SupportFunction,
                     angles: list[RationalAngle],
                     branches: list[int] | None = None) -> EquiangularClan:
    """Clan (C, K_1, ..., K_n) with prescribed external angles.

    The base angles must sum to an exact multiple of 2*pi; each branch
    angle a_i + j_i*pi must avoid multiples of pi. When all branch angles
    coincide the clan degenerates to a single pair, which is flagged and
    counted by the single-pair formula.
    """
    n = len(angles)
    if n < 2:
        raise ConstructionError("a clan needs at least two angles")
    k = envelope.sheets
    branches = list(branches) if branches is not None else [0] * n
    if len(branches) != n:
        raise ConstructionError("one branch index per angle required")
    for j in branches:
        if not (0 <= j < 2 * k):
            raise ConstructionError(f"branch indices must lie in [0, {2 * k})")
    total = sum((a.coeff for a in angles), Fraction(0))
    if total.denominator != 1 or total.numerator % 2 != 0 or total <= 0:
        raise ConstructionError(f"external angles must sum to 2*m*pi, got {total}*pi")
    m = int(total) // 2

    branch_angles = [a.add_pi_multiple(j) for a, j in zip(angles, branches)]
    for a in branch_angles:
        if a.is_multiple_of_pi():
            raise ConstructionError(f"branch angle {a.coeff}*pi is a multiple of pi")

    curves = tuple(
        equiangular_vertex_curve(
            EquiangularSpec(envelope, ang, br), label=f"K{i + 1}")
        for i, (ang, br) in enumerate(zip(angles, branches))
    )

    degenerate = all(a == branch_angles[0] for a in branch_angles)
    weight = 2 * m + sum(branches)
    rows = closure_steps(RationalAngle(weight), RationalAngle(2 * k))
    count = rows * n
    if degenerate:
        count = vertex_count(branch_angles[0], k)

    return EquiangularClan(
        envelope_support=envelope,
        envelope=curve_from_support(envelope, label="C"),
        vertex_curves=curves,
        angles=tuple(branch_angles),
        turns=m,
        rows=rows,
        count=count,
        degenerate=degenerate,
    )
