"""Envelopes of polygon side lines for a prescribed vertex curve.

Given a vertex curve Y and a torsion map f of its parameter circle, the
side family (1-s) Y + s (Y o f) has the envelope

    X = Y - <Y', J D> / <D', J D> * D,         D = Y o f - Y,

and the chord parameter s lies in (0, 1) exactly when the contact point
falls inside the polygon side. All checks are evaluated in the conjugated
parametrization Z = Y o h^-1, where the step becomes the rigid rotation by
alpha = m L / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circlemaps import CircleDiffeo, TorsionMap, conjugator_to_rotation, identity
from .equiangular import ConstructionError, PonceletPolygon, assemble_polygon
from .geometry import SELF_INTERSECTION_SAMPLES, polyline_self_intersects
from .roots import GRID, bracketed_roots
from .jets import Jet, chain, stack
from .support import PlaneCurve, curve_from_position


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _J(a: np.ndarray) -> np.ndarray:
    return stack([-a[:, 1], a[:, 0]])


@dataclass(frozen=True)
class VertexStepSystem:
    vertex_curve: PlaneCurve
    step: TorsionMap

    def __post_init__(self):
        if self.step.period < 3:
            raise ConstructionError(
                "step period must be at least 3 (a 2-gon collapses to a segment)")
        if not math.isclose(self.step.circumference, self.vertex_curve.domain_length):
            raise ConstructionError("step map and curve live on different circles")

    @property
    def rotation_angle(self) -> float:
        return self.step.rotation_angle

    def conjugator(self) -> CircleDiffeo:
        """h with h o f = r o h for the rigid rotation r by the rotation angle."""
        f = self.step
        if f.map.is_rotation:
            return identity(f.circumference)
        return f.conjugating if f.conjugating is not None else conjugator_to_rotation(f)

    def conjugated_curve(self) -> PlaneCurve:
        """Z = Y o h^-1 with the step turned into a rigid rotation."""
        if self.step.map.is_rotation:
            return self.vertex_curve
        hinv = self.conjugator().inverse()
        Y = self.vertex_curve
        return curve_from_position(Y.domain_length, lambda ts: Y.positions(hinv.lift(ts)),
                                   label=Y.label)


def _chord_envelope(first: Callable, second: Callable, ts, order: int = 0):
    """Envelope point X = A + s D of the chord lines from A = first(t) to
    B = second(t), D = B - A, and s = -<A', J D> / <D', J D>, as jets of the
    given order in t (plain arrays at order 0). first and second take Jets
    of t and are evaluated one order higher, since X involves A'.
    """
    a, b = first(Jet.variable(ts, order + 1)), second(Jet.variable(ts, order + 1))
    z, zp = a.truncated(order), a.derivative()
    delta = b.truncated(order) - z
    jd = _J(delta)
    s = -_dot(zp, jd) / _dot(b.derivative() - zp, jd)
    return z + s[:, None] * delta, s


def _chord_envelope_position(first: Callable, second: Callable) -> Callable:
    def derivs(ts, order):
        x = _chord_envelope(first, second, ts, order)[0]
        return [x.v, *x.d] if order else [x]

    return lambda ts: chain(ts, derivs)


class EnvelopeSingularity(ConstructionError):
    def __init__(self, params: list[float]):
        self.params = params
        super().__init__(
            "side-family denominator <D', J D> vanishes near parameters "
            + ", ".join(f"{t:.6f}" for t in params))


@dataclass(frozen=True)
class EnvelopeResult:
    curve: PlaneCurve
    s: Callable[[np.ndarray], np.ndarray]
    conjugated: PlaneCurve
    rotation_angle: float
    system: VertexStepSystem
    conjugator: CircleDiffeo     # contact parameter = conjugator(vertex parameter)

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        f = self.system.step
        params = f.orbit(start)
        # side i from Y(t_i) to Y(f(t_i)) touches the envelope at h(t_i)
        pts = self.system.vertex_curve.positions(params + [float(f.map.lift(params[-1]))])
        psis = self.conjugator.lift(np.asarray(params))
        return assemble_polygon(pts[:-1], pts[-1], params, self.curve.positions(psis), psis,
                                self.curve.domain_length)


def envelope_from_vertex(system: VertexStepSystem) -> EnvelopeResult:
    """Envelope of the polygon side lines, with the chord parameter s.

    The returned curve and s are parametrized by the conjugated parameter;
    for a rigid-rotation step this is the vertex-curve parameter itself.
    A vanishing denominator is reported with the offending parameters.
    """
    Z = system.conjugated_curve()
    L = Z.domain_length
    alpha = system.rotation_angle

    def second(t):
        return Z.positions(t + alpha)

    def denom(ts):
        a, b = Z.positions(Jet.variable(ts, 1)), second(Jet.variable(ts, 1))
        return _dot(b.d[0] - a.d[0], _J(b.v - a.v))

    ts = np.linspace(0.0, L, GRID, endpoint=False)
    d = denom(ts)
    sign_flips = np.nonzero(np.sign(d) * np.sign(np.roll(d, -1)) <= 0)[0]
    if len(sign_flips):
        # an unconverged bracket still locates the zero within its grid cell
        lo = ts[sign_flips[:8]]
        params, _ = bracketed_roots(lambda t, _: denom(t), lo, lo + L / GRID)
        raise EnvelopeSingularity([float(t) for t in params])

    def s_fn(ts):
        return _chord_envelope(Z.positions, second, np.atleast_1d(ts))[1]

    curve = curve_from_position(L, _chord_envelope_position(Z.positions, second), label="C")
    return EnvelopeResult(curve, s_fn, Z, alpha, system, system.conjugator())


@dataclass(frozen=True)
class RegularityReport:
    min_abs_det: float
    det_sign_changes: tuple[float, ...]
    curvature_sign_consistent: bool
    samples: int

    @property
    def regular(self) -> bool:
        return len(self.det_sign_changes) == 0 and self.min_abs_det > 0.0


def envelope_regularity(system: VertexStepSystem, result: EnvelopeResult | None = None,
                        samples: int = GRID) -> RegularityReport:
    """Regularity determinant of the envelope in the conjugated form.

    Rows: (<Z',JD>, <Z'_a,JD>) and (<Z'',JD> + 2<Z',JD'>, <Z''_a,JD> + 2<Z'_a,JD'>).
    Cross-check: sign of <X'', J X'> must match sign of <D', J D>.
    """
    if result is None:
        result = envelope_from_vertex(system)
    Z, alpha = result.conjugated, result.rotation_angle
    L = Z.domain_length
    ts = np.linspace(0.0, L, samples, endpoint=False)
    p0, v0, a0 = Z.jet_many(ts)
    p1, v1, a1 = Z.jet_many(ts + alpha)
    delta = p1 - p0
    ddelta = v1 - v0
    jd = _J(delta)
    jdd = _J(ddelta)
    row1a = _dot(v0, jd)
    row1b = _dot(v1, jd)
    row2a = _dot(a0, jd) + 2 * _dot(v0, jdd)
    row2b = _dot(a1, jd) + 2 * _dot(v1, jdd)
    det = row1a * row2b - row1b * row2a

    flips = np.nonzero(np.sign(det) * np.sign(np.roll(det, -1)) < 0)[0]
    changes = tuple(float(ts[i]) for i in flips[:16])

    _, xv, xa = result.curve.jet_many(ts)
    lhs = xa[:, 0] * (-xv[:, 1]) + xa[:, 1] * xv[:, 0]   # <X'', J X'>
    rhs = _dot(ddelta, jd)
    consistent = bool(np.all(np.sign(lhs) == np.sign(rhs)))
    return RegularityReport(float(np.min(np.abs(det))), changes, consistent, samples)


@dataclass(frozen=True)
class InteriorityReport:
    self_intersecting: bool
    convexity_first_min: float    # min <D, J Z'>
    convexity_second_min: float   # min <-D, J Z'(t+a)>
    s_min: float
    s_max: float
    samples: int

    @property
    def contacts_interior(self) -> bool:
        return 0.0 < self.s_min and self.s_max < 1.0

    @property
    def passed(self) -> bool:
        return (self.convexity_first_min > 0 and self.convexity_second_min > 0
                and self.contacts_interior)


def interiority_check(system: VertexStepSystem, result: EnvelopeResult | None = None,
                      samples: int = GRID) -> InteriorityReport:
    """Convexity inequalities and 0 < s < 1 on a dense sample."""
    if result is None:
        result = envelope_from_vertex(system)
    Z, alpha = result.conjugated, result.rotation_angle
    L = Z.domain_length
    ts = np.linspace(0.0, L, samples, endpoint=False)
    p0, v0, _ = Z.jet_many(ts)
    p1, v1, _ = Z.jet_many(ts + alpha)
    delta = p1 - p0
    c1 = _dot(delta, _J(v0))
    c2 = _dot(-delta, _J(v1))
    s = result.s(ts)
    selfx = polyline_self_intersects(system.vertex_curve.sample(SELF_INTERSECTION_SAMPLES))
    return InteriorityReport(selfx, float(np.min(c1)), float(np.min(c2)),
                             float(np.min(s)), float(np.max(s)), samples)


@dataclass(frozen=True)
class VertexClan:
    vertex_curve: PlaneCurve
    envelopes: tuple[PlaneCurve, ...]
    steps: tuple[CircleDiffeo, ...]       # f_1 .. f_n including the closing map
    composites: tuple[CircleDiffeo, ...]  # g_0 = id, g_1, ..., g_{n-1}

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        params = [float(g.lift(start)) for g in self.composites]
        pts = self.vertex_curve.positions(params + [float(self.steps[-1].lift(params[-1]))])
        # side i (from g_i to g_{i+1}) touches envelope C_{i+1} at parameter start
        n = len(params)
        contacts = [C.positions([start])[0] for C in self.envelopes]
        return assemble_polygon(pts[:-1], pts[-1], params, contacts, [start] * n,
                                self.vertex_curve.domain_length, envelope_index=range(n))


def _fixed_point_scan(g: CircleDiffeo, probes: int = 256) -> float | None:
    """Parameter of a fixed point of g, or None if none is detected."""
    L = g.circumference
    xs = np.linspace(0.0, L, probes, endpoint=False)
    disp = np.mod(g.lift(xs) - xs + 0.5 * L, L) - 0.5 * L
    hit = np.nonzero(np.abs(disp) < 1e-12 * L)[0]
    if len(hit):
        return float(xs[hit[0]])
    # a jump of the centred displacement from +L/2 to -L/2 is not a zero
    after = np.roll(disp, -1)
    flips = np.nonzero((np.sign(disp) * np.sign(after) < 0)
                       & (np.abs(after - disp) < 0.5 * L))[0]
    if len(flips) == 0:
        return None
    lo = xs[flips[:1]]

    def centered(t, _):
        return np.mod(g.lift(t) - t + 0.5 * L, L) - 0.5 * L

    # as in envelope_from_vertex, the bracket locates the point either way
    return float(bracketed_roots(centered, lo, lo + L / probes)[0][0])


def step_chain(steps: Sequence[CircleDiffeo], L: float
               ) -> tuple[tuple[CircleDiffeo, ...], tuple[CircleDiffeo, ...]]:
    """The steps f_1..f_n of a clan and their composites g_0..g_{n-1}.

    g_0 = id and g_i = f_i o g_{i-1}; the closing map f_n = g_{n-1}^-1 is
    appended to the n-1 given steps, so that g_n = id. Needs n >= 3 and
    every step on the circle of length L.
    """
    steps = list(steps)
    if len(steps) < 2:
        raise ConstructionError("need at least two steps (n >= 3)")
    for f in steps:
        if not math.isclose(f.circumference, L):
            raise ConstructionError("step maps must act on the clan's parameter circle")
    glist = [identity(L)]
    for f in steps:
        glist.append(f.compose(glist[-1]))
    return tuple(steps) + (glist[-1].inverse(),), tuple(glist)


def clan_from_vertex(vertex_curve: PlaneCurve, steps: Sequence[CircleDiffeo]) -> VertexClan:
    """Clan of envelopes C_1..C_n for steps f_1..f_{n-1} (f_n closes the cycle).

    Rejects step systems whose polygons degenerate: every g_j o g_i^-1
    (i < j) must be free of fixed points.
    """
    L = vertex_curve.domain_length
    steps, glist = step_chain(steps, L)
    n = len(glist)

    for i in range(n):
        for j in range(i + 1, n):
            comp = glist[j].compose(glist[i].inverse())
            t0 = _fixed_point_scan(comp)
            if t0 is not None:
                raise ConstructionError(
                    f"polygon degenerates: g_{j} o g_{i}^-1 has a fixed point near t = {t0:.6f}")

    def along(g: CircleDiffeo) -> Callable:
        return lambda ts: vertex_curve.positions(g.lift(ts))

    envelopes = []
    for i in range(1, n + 1):
        gc = glist[i] if i < n else identity(L)    # g_n = id
        pos_i = _chord_envelope_position(along(glist[i - 1]), along(gc))
        envelopes.append(curve_from_position(L, pos_i, label=f"C{i}"))

    return VertexClan(vertex_curve, tuple(envelopes), steps, glist)
