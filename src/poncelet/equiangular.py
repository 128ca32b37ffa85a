"""Equiangular clans for a prescribed envelope; a pair is the clan of one
vertex curve.

For an envelope with support function p on [0, 2*k*pi) and an external
angle alpha, the 2k vertex curves Y_i are the vertex curves of the rigid
steps phi -> phi + a_i, a_i = alpha + i*pi: Y_i(phi) is where the tangent
lines at phi and phi + a_i meet (support.vertex_position_fn). A clan walks
its cycle of branch angles with one rigid step each (rigid_walk) and closes
after the shortest block that repeats them, counted over the curves' period
2*pi*P (SupportFunction.period; P, the lcm of p's frequency denominators,
divides k). For p = a + cos(l*phi) the equilateral pair carries congruent
equilateral polygons; it is the clan of one vertex curve, the epitrochoid

    Y(phi) = a sec(alpha/2) u(phi) + (-1)^k u(n*phi),      n = l + 1,

whose sides touch the envelope halfway along each step.
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
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # a zero-length side gives a NaN chord, and a huge one an inf or
        # NaN chord, which fail the report
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


def rigid_walk(starts: np.ndarray, angles: tuple[Fraction, ...], count: int,
               shifts: tuple[Fraction, ...]) -> Walk:
    """The rigid-step walk around a cycle of n angles (in units of pi):
    vertex j on vertex curve j mod n at start + theta_j, theta_j the exact
    sum of the cycle's first j angles; side j touching envelope 0 at vertex
    j's parameter + shifts[j mod n]."""
    on = np.arange(count + 1) % len(angles)
    thetas = accumulate((angles[i] for i in on[:-1]), initial=Fraction(0))
    ts = starts[:, None] + np.array([radians(th) for th in thetas])
    return Walk(ts, on, ts[:, :-1] + np.array([radians(a) for a in shifts])[on[:-1]], 0)


def equiangular_vertex_curve(envelope: SupportFunction, angle: Fraction, branch: int = 0,
                             label: str = "") -> PlaneCurve:
    """Vertex curve Y_i of the branch angle a_i = angle + branch, in units
    of pi: the tangent lines at t and t + a_i meet at Y_i(t). This is the one
    check of a pair's and a clan's angles: 0 < angle < 1 and 0 <= branch <
    2k, so a_i is never a multiple of pi (parallel tangents)."""
    if not 0 < angle < 1:
        raise ConstructionError("alpha must lie strictly between 0 and pi")
    if not 0 <= branch < 2 * envelope.sheets:
        raise ConstructionError(f"branch must lie in [0, {2 * envelope.sheets})")
    alpha = radians(angle + branch)
    pos = vertex_position_fn(envelope, lambda ts: ts, lambda ts: ts + alpha)
    return curve_from_position(envelope.domain_length, pos, label=label)


@dataclass(frozen=True)
class EquiangularClan(Walked):
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]
    angles: tuple[Fraction, ...]             # branch angles a_{j_i} / pi
    shifts: tuple[Fraction, ...]             # side i touches at vertex i's parameter + shift
    count: int                               # total polygon vertices

    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        return rigid_walk(starts, self.angles, self.count, self.shifts)


def equilateral_pair(k: int, l: Fraction, a: float) -> EquiangularClan:
    """Epitrochoid pair carrying congruent equilateral polygons, of side
    2a|tan(alpha/2)| for alpha = 2k*pi/(l + 1).

    l = 2k/m - 1 (equivalently alpha a multiple of pi) is excluded. An `a`
    below the positive-curvature bound (a > l^2 - 1 for l > 1, a > 1 - l^2
    for l < 1) leaves the envelope with cusps: its support function's
    min_curvature_radius is not positive.
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

    # the support function must be periodic on the sheet count it is built
    # with; fall back to the smallest compatible count when k is not
    sheets = k if (l * k).denominator == 1 else l.denominator
    p = SupportFunction(a, (SupportTerm(l, cos_coeff=1.0),), sheets)

    amp = a / math.cos(radians(alpha) / 2)
    sign = -1 if k % 2 else 1
    nf = float(n)

    def pos(ts):
        return jets.stack([amp * jets.cos(ts) + sign * jets.cos(nf * ts),
                           amp * jets.sin(ts) + sign * jets.sin(nf * ts)])

    vertex = curve_from_position(p.domain_length, pos, label="K")
    # in the shifted parametrization the side [Y(t), Y(t+a)] touches at t+a/2
    return EquiangularClan(p, curve_from_support(p, label="C"), (vertex,), (alpha,),
                           (alpha / 2,), closure_steps(alpha, Fraction(2)))


def _clan(envelope: SupportFunction, angles: tuple[Fraction, ...], branches: tuple[int, ...],
          labels: tuple[str, ...]) -> EquiangularClan:
    """The clan of the vertex curves of the given angles and branches, in
    cycle order; in the eq-Ki parametrization the side [K_i(t),
    K_(i+1)(t+a_i)] touches at t+a_i."""
    curves = tuple(equiangular_vertex_curve(envelope, a, j, label)
                   for a, j, label in zip(angles, branches, labels))
    branch_angles = tuple(a + j for a, j in zip(angles, branches))
    turn = Fraction(round(envelope.period / math.pi))    # the curves' period, in units of pi
    for a, b in zip(branch_angles, branch_angles[1:] + branch_angles[:1]):
        if (a + b) % turn == 0:    # the tangent lines before a and after b are one line
            raise ConstructionError(
                f"polygon degenerates: consecutive branch angles {a}*pi and {b}*pi sum to "
                f"a multiple of {turn}*pi, so two vertices coincide")
    n = len(branch_angles)
    p = next(p for p in range(1, n + 1) if branch_angles[p:] + branch_angles[:p] == branch_angles)
    count = p * closure_steps(sum(branch_angles[:p]), turn)
    return EquiangularClan(envelope, curve_from_support(envelope, label="C"), curves,
                           branch_angles, branch_angles, count)


def equiangular_pair(envelope: SupportFunction, angle: Fraction,
                     branch: int = 0) -> EquiangularClan:
    """The pair (C, K_i) of the branch angle a_i = angle + branch: the clan
    of one vertex curve."""
    return _clan(envelope, (angle,), (branch,), (f"K{branch}",))


def equiangular_clan(envelope: SupportFunction,
                     angles: list[Fraction],
                     branches: list[int] | None = None) -> EquiangularClan:
    """Clan (C, K_1, ..., K_n) with prescribed external angles, in units of pi.

    The base angles must sum to an exact multiple of 2*pi; each angle and
    branch index is checked as a pair's (equiangular_vertex_curve), and no
    two cyclically consecutive branch angles may sum to a multiple of the
    curves' period 2*pi*P, which would make two consecutive vertices one
    point. The polygon closes after q turns of the shortest block of p
    branch angles that repeats them (p divides n): the least q with q times
    the block's sum a multiple of 2*pi*P. Equal branch angles (p = 1) close
    as the pair of that angle.
    """
    n = len(angles)
    if n < 2:
        raise ConstructionError("a clan needs at least two angles")
    branches = tuple(branches) if branches is not None else (0,) * n
    if len(branches) != n:
        raise ConstructionError("one branch index per angle required")
    total = sum(angles, Fraction(0))
    if total.denominator != 1 or total.numerator % 2 != 0 or total <= 0:
        raise ConstructionError(f"external angles must sum to 2*m*pi, got {total}*pi")
    return _clan(envelope, tuple(angles), branches, tuple(f"K{i}" for i in range(1, n + 1)))
