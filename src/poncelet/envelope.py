"""Envelopes of polygon side lines for a prescribed vertex curve.

Given a vertex curve Y and a torsion map f of its parameter circle, the
side family (1-s) Y + s (Y o f) has the envelope

    X = Y - <Y', J D> / <D', J D> * D,         D = Y o f - Y,

and the chord parameter s lies in (0, 1) exactly when the contact point
falls inside the polygon side. The formula holds in any parametrization,
so the envelope is parametrized by the vertex parameter t: side t joins
Y(t) and Y(f(t)) and touches the envelope at X(t). A clan's envelope C_i
(i < n) is the pair envelope of its own step f_i; only the closing C_n, of
the sides from Y(g_{n-1}(t)) to Y(t), is parametrized by the start t. All
are built by `side_envelope`, which refuses a side family whose
denominator <D', J D> vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circlemaps import CircleDiffeo, TorsionMap, orbit
from .equiangular import ConstructionError, Walk, Walked
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

    def stepped(self, ts):
        """Y o f at ts (an array or a Jet): the far end of side t."""
        return self.vertex_curve.positions(self.step.map.lift(ts))


def _chord_envelope(a: Jet, b: Jet, order: int = 0):
    """Envelope point X = A + s D of the chord lines from A to B, D = B - A,
    and s = -<A', J D> / <D', J D>, from jets a and b of A and B in t. X is a
    jet of the given order (plain arrays at order 0), one below a and b,
    since X involves A'.
    """
    z, zp = a.truncated(order), a.derivative()
    delta = b.truncated(order) - z
    jd = _J(delta)
    s = -_dot(zp, jd) / _dot(b.derivative() - zp, jd)
    return z + s[:, None] * delta, s


def _chord_envelope_position(first: Callable, second: Callable) -> Callable:
    """Position function of the envelope of the chords from first(t) to
    second(t); first and second take Jets of t."""
    def derivs(ts, order):
        t = Jet.variable(ts, order + 1)
        x = _chord_envelope(first(t), second(t), order)[0]
        return [x.v, *x.d] if order else [x]

    return lambda ts: chain(ts, derivs)


def _denominator(a: Jet, b: Jet) -> np.ndarray:
    """<D', J D> with D = b - a, from order-1 jets of (n, 2) points."""
    return _dot(b.d[0] - a.d[0], _J(b.v - a.v))


class EnvelopeSingularity(ConstructionError):
    def __init__(self, params: list[float]):
        self.params = params
        super().__init__(
            "side-family denominator <D', J D> vanishes near parameters "
            + ", ".join(f"{t:.6f}" for t in params))


def side_envelope(first: Callable, second: Callable, L: float, label: str,
                  ts: np.ndarray, denominator: np.ndarray | None = None) -> PlaneCurve:
    """Envelope of the side lines from first(t) to second(t), parametrized by
    t on the circle of length L; first and second take arrays or Jets. A sign
    change of the denominator <D', J D> on the points ts (given, or computed
    here) raises EnvelopeSingularity with the refined parameters."""
    def denom(t, _=None):
        x = Jet.variable(t, 1)
        return _denominator(first(x), second(x))

    d = denom(ts) if denominator is None else denominator
    sign_flips = np.nonzero(np.sign(d) * np.sign(np.roll(d, -1)) <= 0)[0]
    if len(sign_flips):
        # an unconverged bracket still locates the zero within its grid cell
        lo = ts[sign_flips[:8]]
        params, _ = bracketed_roots(denom, lo, lo + L / len(ts))
        raise EnvelopeSingularity([float(t) for t in params])
    return curve_from_position(L, _chord_envelope_position(first, second), label=label)


@dataclass(frozen=True)
class EnvelopeResult(Walked):
    curve: PlaneCurve      # side t, from Y(t) to Y(f(t)), touches it at curve(t)
    system: VertexStepSystem

    vertex_curves = property(lambda self: (self.system.vertex_curve,))
    envelopes = property(lambda self: (self.curve,))

    def s(self, ts) -> np.ndarray:
        """Chord parameter of the contact on side t."""
        t = Jet.variable(np.atleast_1d(ts), 1)
        return _chord_envelope(self.system.vertex_curve.positions(t), self.system.stepped(t))[1]

    def walk(self, starts: np.ndarray) -> Walk:
        f = self.system.step
        ts = np.stack(orbit((f.map,) * f.period, starts), axis=1)
        return Walk(ts, 0, ts[:, :-1], 0)


def envelope_from_vertex(system: VertexStepSystem) -> EnvelopeResult:
    """Envelope of the polygon side lines, with the chord parameter s, both
    in the vertex parameter. A vanishing denominator is reported with the
    offending parameters."""
    Y = system.vertex_curve
    L = Y.domain_length
    curve = side_envelope(Y.positions, system.stepped, L, "C",
                          np.linspace(0.0, L, GRID, endpoint=False))
    return EnvelopeResult(curve, system)


def _side_jets(system: VertexStepSystem, samples: int) -> tuple[np.ndarray, tuple, tuple]:
    """Equispaced ts and the (position, velocity, acceleration) of Y and of
    Y o f at them."""
    ts = np.linspace(0.0, system.vertex_curve.domain_length, samples, endpoint=False)
    t = Jet.variable(ts, 2)
    a, b = system.vertex_curve.positions(t), system.stepped(t)
    return ts, (a.v, *a.d), (b.v, *b.d)


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
    """Regularity determinant of the envelope, with B = Y o f.

    Rows: (<Y',JD>, <B',JD>) and (<Y'',JD> + 2<Y',JD'>, <B'',JD> + 2<B',JD'>).
    Cross-check: sign of <X'', J X'> must match sign of <D', J D>. A
    reparametrization t = h(tau) multiplies both by powers of h' > 0, so
    their signs do not depend on the parameter.
    """
    if result is None:
        result = envelope_from_vertex(system)
    ts, (p0, v0, a0), (p1, v1, a1) = _side_jets(system, samples)
    delta, ddelta = p1 - p0, v1 - v0
    jd, jdd = _J(delta), _J(ddelta)
    row1a, row1b = _dot(v0, jd), _dot(v1, jd)
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
    convexity_first_min: float    # min <D, J Y'>
    convexity_second_min: float   # min <-D, J (Y o f)'>
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
    ts, (p0, v0, _), (p1, v1, _) = _side_jets(system, samples)
    delta = p1 - p0
    c1 = _dot(delta, _J(v0))
    c2 = _dot(-delta, _J(v1))
    s = result.s(ts)
    selfx = polyline_self_intersects(system.vertex_curve.sample(SELF_INTERSECTION_SAMPLES))
    return InteriorityReport(selfx, float(np.min(c1)), float(np.min(c2)),
                             float(np.min(s)), float(np.max(s)), samples)


@dataclass(frozen=True)
class VertexClan(Walked):
    vertex_curve: PlaneCurve
    envelopes: tuple[PlaneCurve, ...]   # C_i: sides Y(s) to Y(f_i(s)); C_n closes at the start
    steps: tuple[CircleDiffeo, ...]     # f_1, ..., f_{n-1}

    vertex_curves = property(lambda self: (self.vertex_curve,))

    def walk(self, starts: np.ndarray) -> Walk:
        G = np.stack(orbit(self.steps, starts), axis=1)
        # side i, from Y(G_i) to Y(G_{i+1}) = Y(f_{i+1}(G_i)), touches C_{i+1}
        # at G_i; the last, from Y(G_{n-1}) back to Y(start), touches C_n at the start
        return Walk(np.column_stack([G, starts]), 0, np.column_stack([G[:, :-1], starts]),
                    np.arange(G.shape[1]))


def _fixed_point_scan(steps: Sequence[CircleDiffeo], G: Sequence[np.ndarray], i: int,
                      j: int) -> float | None:
    """A fixed point of g_j o g_i^-1, or None if none is detected.

    G[k] holds g_k on equispaced scan points G[0]. The composite fixes g_i(x)
    exactly where g_j(x) - g_i(x) is a multiple of L, so no inverse is needed.
    """
    L = steps[0].circumference
    xs = G[0]
    disp = np.mod(G[j] - G[i] + 0.5 * L, L) - 0.5 * L
    hit = np.nonzero(np.abs(disp) < 1e-12 * L)[0]
    if len(hit):
        return float(np.mod(G[i][hit[0]], L))
    # a jump of the centred displacement from +L/2 to -L/2 is not a zero
    after = np.roll(disp, -1)
    flips = np.nonzero((np.sign(disp) * np.sign(after) < 0)
                       & (np.abs(after - disp) < 0.5 * L))[0]
    if len(flips) == 0:
        return None
    lo = xs[flips[:1]]

    def centered(t, _):
        g = orbit(steps[:j], t)
        return np.mod(g[j] - g[i] + 0.5 * L, L) - 0.5 * L

    # as in side_envelope, the bracket locates the point either way
    x = bracketed_roots(centered, lo, lo + L / len(xs))[0]
    return float(np.mod(orbit(steps[:i], x)[i][0], L))


def step_chain(steps: Sequence[CircleDiffeo], L: float, xs: np.ndarray | Jet) -> list:
    """The orbit table G[i] = g_i(xs) = f_i(G[i-1]), G[0] = xs, of a clan's
    steps f_1..f_{n-1}; the closing step, back to the start, needs no map.
    Needs n >= 3 and every step on the circle of length L."""
    if len(steps) < 2:
        raise ConstructionError("need at least two steps (n >= 3)")
    for f in steps:
        if not math.isclose(f.circumference, L):
            raise ConstructionError("step maps must act on the clan's parameter circle")
    return orbit(steps, xs)


def clan_from_vertex(vertex_curve: PlaneCurve, steps: Sequence[CircleDiffeo]) -> VertexClan:
    """Clan of envelopes C_1..C_n for steps f_1..f_{n-1} (f_n closes the cycle).

    C_i (i < n) is the envelope of the sides from Y(s) to Y(f_i(s)), and C_n
    that of the sides from Y(g_{n-1}(t)) to Y(t). Rejects step systems whose
    polygons degenerate: every g_j o g_i^-1 (i < j < n) must be free of fixed
    points. Like a pair, rejects a side family whose denominator <D', J D>
    vanishes (EnvelopeSingularity).
    """
    L = vertex_curve.domain_length
    steps = tuple(steps)
    xs = np.linspace(0.0, L, 256, endpoint=False)
    G = step_chain(steps, L, Jet.variable(xs, 1))
    values = [g.v for g in G]
    n = len(G)

    for i in range(n):
        for j in range(i + 1, n):
            t0 = _fixed_point_scan(steps, values, i, j)
            if t0 is not None:
                raise ConstructionError(
                    f"polygon degenerates: g_{j} o g_{i}^-1 has a fixed point near t = {t0:.6f}")

    # Y at xs, at each f_i(xs) and at g_{n-1}(xs) as order-1 jets, in one call
    ends = [G[0]] + [f.lift(G[0]) for f in steps] + [G[-1]]
    ys = vertex_curve.positions(Jet(np.concatenate([e.v for e in ends]),
                                    [np.concatenate([e.d[0] for e in ends])]))
    rows = Jet(ys.v.reshape(n + 1, len(xs), 2), [ys.d[0].reshape(n + 1, len(xs), 2)])

    Y = vertex_curve.positions
    envelopes = [side_envelope(Y, lambda ts, f=f: Y(f.lift(ts)), L, f"C{i}", xs,
                               _denominator(rows[0], rows[i])) for i, f in enumerate(steps, 1)]
    envelopes.append(side_envelope(lambda ts: Y(orbit(steps, ts)[-1]), Y, L, f"C{n}", xs,
                                   _denominator(rows[n], rows[0])))
    return VertexClan(vertex_curve, tuple(envelopes), steps)
