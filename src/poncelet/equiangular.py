"""Equiangular pairs and clans for a prescribed envelope.

For an envelope with support function p on [0, 2*k*pi) and an external
angle alpha, the 2k vertex curves Y_i are the vertex curves of the rigid
steps phi -> phi + a_i, a_i = alpha + i*pi: Y_i(phi) is where the tangent
lines at phi and phi + a_i meet (support.vertex_position_fn). For
p = a + cos(l*phi) the pair carries congruent equilateral polygons and the
vertex curve is the epitrochoid

    Y(phi) = a sec(alpha/2) u(phi) + (-1)^k u(n*phi),      n = l + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import jets
from .geometry import GeometryError, closure_steps, radians
from .support import (PlaneCurve, SupportFunction, SupportTerm, curve_from_position,
                      curve_from_support, vertex_position_fn)


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class EquiangularSpec:
    envelope: SupportFunction
    angle: Fraction                # alpha / pi, in (0, 1)
    branch: int = 0                # i in [0, 2k): uses a_i = alpha + i*pi

    def __post_init__(self):
        if not (0 < self.angle < 1):
            raise ConstructionError("alpha must lie strictly between 0 and pi")
        if not (0 <= self.branch < 2 * self.envelope.sheets):
            raise ConstructionError(f"branch must lie in [0, {2 * self.envelope.sheets})")

    @property
    def branch_angle(self) -> Fraction:
        return self.angle + self.branch


@dataclass(frozen=True)
class Walk:
    """Polygons as parameters only, one row per start. Vertex i lies on
    vertex curve vertex_index[i] at vertex_params[:, i]; column n is where
    the step after the last vertex lands. Side i, from vertex i to vertex
    i + 1, touches envelope envelope_index[i] at contact_params[:, i]. An
    index given as one int names the same curve for every column."""

    vertex_params: np.ndarray          # (starts, n + 1)
    vertex_index: np.ndarray | int     # (n + 1,)
    contact_params: np.ndarray         # (starts, n)
    envelope_index: np.ndarray | int   # (n,)


@dataclass(frozen=True, eq=False)
class PonceletPolygon:
    """A polygon as arrays: n vertices and their parameters; for side i, from
    vertex i to i + 1, its contact point and parameter, its chord position
    (inside iff 0 < chord < 1) and envelope index; and how far the step
    after the last vertex lands from the first. A stack, as `assemble`
    returns it, has a leading start axis on every field; index it for one."""

    vertices: np.ndarray
    parameters: np.ndarray
    contacts: np.ndarray
    contact_parameters: np.ndarray
    chords: np.ndarray
    envelope_index: np.ndarray
    closure_gap: np.ndarray

    def __getitem__(self, i) -> PonceletPolygon:
        return PonceletPolygon(*(getattr(self, f.name)[i] for f in fields(self)))


def _points(curves, index: np.ndarray | int, ts: np.ndarray) -> np.ndarray:
    """Curve index[j] at ts[:, j] as a (rows, columns, 2) array: one
    positions call per curve. GeometryError at a non-finite point."""
    out = np.empty(ts.shape + (2,))
    for k, curve in enumerate(curves):
        cols = np.broadcast_to(index, ts.shape[1:]) == k
        at = ts[:, cols].ravel()
        pts = curve.positions(at)
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            raise GeometryError(f"non-finite polygon point on curve {curve.label!r} "
                                f"at t = {float(at[np.argmax(bad)])!r}")
        out[:, cols] = pts.reshape(len(ts), np.count_nonzero(cols), 2)
    return out


def assemble(walk: Walk, vertex_curves, envelopes) -> PonceletPolygon:
    """The stacked polygons of a walk on the given curves."""
    pts = _points(vertex_curves, walk.vertex_index, walk.vertex_params)
    x = _points(envelopes, walk.envelope_index, walk.contact_params)
    v = pts[:, :-1]
    d = np.roll(v, -1, axis=1) - v
    r = x - v
    chords = ((r[..., 0] * d[..., 0] + r[..., 1] * d[..., 1])
              / (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]))
    gap = pts[:, -1] - v[:, 0]
    env = np.broadcast_to(walk.envelope_index, walk.contact_params.shape)
    psi = np.mod(walk.contact_params, np.array([e.domain_length for e in envelopes])[env])
    return PonceletPolygon(v, walk.vertex_params[:, :-1], x, psi, chords, env,
                           np.hypot(gap[:, 0], gap[:, 1]))


class Walked:
    """A construction whose polygons are walks on its curves; it gives
    walk(starts), vertex_curves and envelopes."""

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        """The polygon from one start."""
        return assemble(self.walk(np.array([float(start)])), self.vertex_curves,
                        self.envelopes)[0]


def rigid_walk(starts: np.ndarray, step: Fraction, count: int, shift: Fraction) -> Walk:
    """The rigid angle-step walk (angles in units of pi): vertex j at
    start + j * step on vertex curve 0, side j touching envelope 0 at vertex
    j's parameter + shift."""
    ts = starts[:, None] + np.array([radians(step * j) for j in range(count + 1)])
    return Walk(ts, 0, ts[:, :-1] + radians(shift), 0)


def equiangular_vertex_curve(spec: EquiangularSpec, label: str = "") -> PlaneCurve:
    """Vertex curve Y_i for the branch angle a_i: the tangent lines at t and
    t + a_i meet at Y_i(t)."""
    a_i = spec.branch_angle
    if a_i.denominator == 1:
        raise ConstructionError(f"branch angle {a_i}*pi is a multiple of pi (parallel tangents)")
    alpha = radians(a_i)
    pos = vertex_position_fn(spec.envelope, lambda ts: ts, lambda ts: ts + alpha)
    return curve_from_position(spec.envelope.domain_length, pos, label=label)


def vertex_count(angle: Fraction, k: int) -> int:
    """Number of steps of size angle * pi until a multiple of 2*k*pi is reached."""
    if k < 1:
        raise ConstructionError("sheet count must be positive")
    if not (0 < angle < 2 * k):
        raise ConstructionError(f"angle must lie strictly between 0 and {2 * k}*pi")
    return closure_steps(angle, Fraction(2 * k))


@dataclass(frozen=True)
class EquiangularPair(Walked):
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curve: PlaneCurve
    angle: Fraction             # branch angle a_i / pi actually used
    count: int

    vertex_curves = property(lambda self: (self.vertex_curve,))
    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        # in the eq-Ki parametrization the side [Y(t), Y(t+a)] touches at t+a
        return rigid_walk(starts, self.angle, self.count, self.angle)


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
class EquilateralPair(Walked):
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curve: PlaneCurve
    angle: Fraction                 # alpha / pi = 2*k / n
    side_length: float
    count: int                      # distinct vertices: n / gcd(n, k)
    sheets_requested: int
    sheets_used: int
    amplitude: float                # a * sec(alpha/2)

    vertex_curves = property(lambda self: (self.vertex_curve,))
    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        # in the shifted parametrization the side [Y(t), Y(t+a)] touches at t+a/2
        return rigid_walk(starts, self.angle, self.count, self.angle / 2)


def equilateral_pair(k: int, l: Fraction, a: float, strict_curvature: bool = False) -> EquilateralPair:
    """Epitrochoid pair carrying congruent equilateral polygons.

    l = 2k/m - 1 (equivalently alpha a multiple of pi) is excluded. An `a`
    below the positive-curvature bound (a > l^2 - 1 for l > 1, a > 1 - l^2
    for l < 1) leaves the envelope with cusps (its support function's
    min_curvature_radius is not positive); it is rejected only under
    strict_curvature.
    """
    l = Fraction(l)
    if k < 1:
        raise ConstructionError("k must be a positive integer")
    if l <= 0:
        raise ConstructionError("l must be positive")
    if a <= 0:
        raise ConstructionError("a must be positive")
    n = l + 1
    alpha = Fraction(2 * k) / n
    if alpha.denominator == 1:
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

    amp = a / math.cos(radians(alpha) / 2)
    sign = -1 if k % 2 else 1
    nf = float(n)

    def pos(ts):
        return jets.stack([amp * jets.cos(ts) + sign * jets.cos(nf * ts),
                           amp * jets.sin(ts) + sign * jets.sin(nf * ts)])

    vertex = curve_from_position(p.domain_length, pos, label="K")
    side = 2.0 * a * abs(math.tan(radians(alpha) / 2))
    count = closure_steps(alpha, Fraction(2))
    return EquilateralPair(p, envelope, vertex, alpha, side, count, k, sheets, amp)


@dataclass(frozen=True)
class EquiangularClan(Walked):
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]
    angles: tuple[Fraction, ...]             # branch angles a_{j_i} / pi
    turns: int                               # m with sum of base angles = 2*m*pi
    rows: int                                # l = lcm(2m+|j|, 2k) / (2m+|j|)
    count: int                               # total polygon vertices
    degenerate: bool

    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        if self.degenerate:
            return rigid_walk(starts, self.angles[0], self.count, self.angles[0])
        # vertex j lies on K_(j mod n), the first j angles of the cycle past the start
        thetas = accumulate(self.angles * self.rows, initial=Fraction(0))
        ts = starts[:, None] + np.array([float(th) * math.pi for th in thetas])
        on = np.arange(self.count + 1) % len(self.angles)
        shifts = np.array([radians(a) for a in self.angles])[on[:-1]]
        return Walk(ts, on, ts[:, :-1] + shifts, 0)


def equiangular_clan(envelope: SupportFunction,
                     angles: list[Fraction],
                     branches: list[int] | None = None) -> EquiangularClan:
    """Clan (C, K_1, ..., K_n) with prescribed external angles, in units of pi.

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
    total = sum(angles, Fraction(0))
    if total.denominator != 1 or total.numerator % 2 != 0 or total <= 0:
        raise ConstructionError(f"external angles must sum to 2*m*pi, got {total}*pi")
    m = int(total) // 2

    branch_angles = [a + j for a, j in zip(angles, branches)]
    for a in branch_angles:
        if a.denominator == 1:
            raise ConstructionError(f"branch angle {a}*pi is a multiple of pi")

    curves = tuple(
        equiangular_vertex_curve(
            EquiangularSpec(envelope, ang, br), label=f"K{i + 1}")
        for i, (ang, br) in enumerate(zip(angles, branches))
    )

    degenerate = all(a == branch_angles[0] for a in branch_angles)
    weight = 2 * m + sum(branches)
    rows = closure_steps(Fraction(weight), Fraction(2 * k))
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
