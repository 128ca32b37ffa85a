"""Envelopes of polygon side lines for a prescribed vertex curve.

Given a vertex curve Y and a torsion map f of its parameter circle, the
side family (1-s) Y + s (Y o f) has the envelope

    X = Y - <Y', J D> / <D', J D> * D,         D = Y o f - Y,

and the chord parameter s (a polygon's `chords`, as equiangular.assemble
measures them) lies in (0, 1) exactly when the contact point falls inside
the polygon side. The formula holds in any parametrization, so the
envelope is parametrized by the vertex parameter t: side t joins Y(t) and
Y(f(t)) and touches the envelope at X(t). A clan's envelope C_i
(i < n) is the pair envelope of its own step f_i; only the closing C_n, of
the sides from Y(g_{n-1}(t)) to Y(t), is parametrized by the start t. All
are built by `side_envelope`, which refuses a side family whose
denominator <D', J D> vanishes. A pair's step f, of period n, is checked as
a clan's steps f_1 = ... = f_{n-1} = f are (check_steps), and the orbit of
either kind of clan for coincident vertices (check_coincidences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .circlemaps import CircleDiffeo, TorsionMap, orbit
from .equiangular import ConstructionError, Walk, Walked
from .roots import GRID, circle_roots
from .jets import Jet, chain, stack
from .support import PlaneCurve, curve_from_position


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _J(a: np.ndarray) -> np.ndarray:
    return stack([-a[:, 1], a[:, 0]])


def check_steps(steps: Sequence[CircleDiffeo], L: float) -> tuple[CircleDiffeo, ...]:
    """The steps f_1..f_{n-1} of an n-gon (the closing step, back to the
    start, needs no map) as a tuple, checked for every pair and clan: n >= 3
    and every step on the curve's circle of length L."""
    steps = tuple(steps)
    if len(steps) < 2:
        raise ConstructionError("a polygon needs at least 3 vertices")
    for f in steps:
        if not math.isclose(f.circumference, L):
            raise ConstructionError("step maps must act on the curve's parameter circle")
    return steps


def orbit_zeros(steps: tuple[CircleDiffeo, ...], G: list[np.ndarray],
                rows: Callable, tiny: float) -> tuple[int, np.ndarray]:
    """(r, zeros): the first row r of rows(G) that vanishes (a sample is 0 or
    two differ in sign) and its zeros in the start, ascending, as circle_roots
    finds them (an unconverged bracket still locates one); (0, none) if no
    row vanishes. rows(g) is a table of periodic functions of the start on
    its orbit g = (g_0, ..., g_{n-1}, g_0) under steps, stacked (an array or
    a Jet, whose slope circle_roots takes); on G, the orbit of equispaced
    starts, values below tiny count as 0."""
    vals = rows(np.stack(G))
    vals = np.where(np.abs(vals) < tiny, 0.0, vals)
    hit = np.flatnonzero((vals <= 0.0).any(axis=1) & (vals >= 0.0).any(axis=1))[:1]
    if not len(hit):
        return 0, hit

    def row(t, _):
        x = Jet.variable(t, 1)
        r = rows(stack(orbit(steps, x) + [x], axis=0))[hit[0]]
        return r.v, r.d[0]

    return hit[0], circle_roots(row, steps[0].circumference, G[0], vals[hit])[1]


def check_coincidences(steps: tuple[CircleDiffeo, ...], G: list[np.ndarray]) -> None:
    """Refuse two coincident vertices: a fixed point g_i(x) of some g_j o
    g_i^-1 (i < j < n), where g_j(x) - g_i(x) is a multiple of L, a zero of
    the periodic sin(pi (g_j - g_i) / L): one orbit_zeros row per pair on
    the orbit G = (g_0, ..., g_{n-1}) of equispaced starts x, a gap within
    1e-12 L counting as 0."""
    L = steps[0].circumference
    i, j = np.nonzero(np.arange(len(G))[:, None] < np.arange(len(G)))   # every pair i < j
    r, x = orbit_zeros(steps, G + [G[0]], lambda g: jets.sin(np.pi / L * (g[j] - g[i])),
                       np.pi * 1e-12)
    if len(x):
        t0 = float(np.mod(orbit(steps, x[:1])[i[r]][0], L))
        raise ConstructionError(
            f"polygon degenerates: g_{j[r]} o g_{i[r]}^-1 has a fixed point near t = {t0:.6f}")


def _chord_envelope(a: Jet, b: Jet, order: int = 0):
    """Envelope point X = A + s D of the chord lines from A to B, D = B - A,
    s = -<A', J D> / <D', J D>, from jets a and b of A and B in t. X is a
    jet of the given order (plain arrays at order 0), one below a and b,
    since X involves A'.
    """
    z, zp = a.truncated(order), a.derivative()
    delta = b.truncated(order) - z
    jd = _J(delta)
    s = -_dot(zp, jd) / _dot(b.derivative() - zp, jd)
    return z + s[:, None] * delta


def _chord_envelope_position(first: Callable, second: Callable) -> Callable:
    """Position function of the envelope of the chords from first(t) to
    second(t); first and second take Jets of t."""
    def derivs(ts, order):
        t = Jet.variable(ts, order + 1)
        x = _chord_envelope(first(t), second(t), order)
        return [x.v, *x.d] if order else [x]

    return lambda ts: chain(ts, derivs)


def _denominator(a: Jet, b: Jet, k: int = 0) -> np.ndarray:
    """<D^(k+1), J D> with D = b - a, from jets of order k + 1 of (n, 2)
    points: <D', J D>, and at k = 1 its slope, since <D', J D'> = 0."""
    return _dot(b.d[k] - a.d[k], _J(b.v - a.v))


class EnvelopeSingularity(ConstructionError):
    def __init__(self, params: list[float]):
        self.params = params
        super().__init__(
            "side-family denominator <D', J D> vanishes near parameters "
            + ", ".join(f"{t:.6f}" for t in params))


def side_envelope(first: Callable, second: Callable, L: float, label: str,
                  ts: np.ndarray, denominator: np.ndarray | None = None) -> PlaneCurve:
    """Envelope of the side lines from first(t) to second(t), parametrized by
    t on the circle of length L; first and second take arrays or Jets. The
    zeros of <D', J D> that circle_roots finds from its values on the points
    ts (given, or computed here) raise EnvelopeSingularity with up to 8;
    the zeros are refined on order-2 jets, which give the slope."""
    def denom(t, order):
        x = Jet.variable(t, order)
        a, b = first(x), second(x)
        return [_denominator(a, b, k) for k in range(order)]

    d = denom(ts, 1)[0] if denominator is None else denominator
    # an unconverged bracket still locates its zero within the grid cell
    zeros = circle_roots(lambda t, _: denom(t, 2), L, ts, d[None])[1]
    if len(zeros):
        raise EnvelopeSingularity([float(t) for t in zeros[:8]])
    return curve_from_position(L, _chord_envelope_position(first, second), label=label)


@dataclass(frozen=True)
class EnvelopeResult(Walked):
    vertex_curve: PlaneCurve
    step: TorsionMap
    curve: PlaneCurve      # side t, from Y(t) to Y(f(t)), touches it at curve(t)

    vertex_curves = property(lambda self: (self.vertex_curve,))
    envelopes = property(lambda self: (self.curve,))

    def walk(self, starts: np.ndarray) -> Walk:
        f = self.step
        ts = np.stack(orbit((f.map,) * f.period, starts), axis=1)
        return Walk(ts, 0, ts[:, :-1], 0)


def envelope_from_vertex(vertex_curve: PlaneCurve, step: TorsionMap) -> EnvelopeResult:
    """Envelope of the polygon side lines, in the vertex parameter. A
    vanishing denominator is reported with the offending parameters."""
    L = vertex_curve.domain_length
    check_steps((step.map,) * (step.period - 1), L)
    Y = vertex_curve.positions
    curve = side_envelope(Y, lambda ts: Y(step.map.lift(ts)), L, "C",
                          np.linspace(0.0, L, GRID, endpoint=False))
    return EnvelopeResult(vertex_curve, step, curve)


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


def clan_from_vertex(vertex_curve: PlaneCurve, steps: Sequence[CircleDiffeo]) -> VertexClan:
    """Clan of envelopes C_1..C_n for steps f_1..f_{n-1} (f_n closes the cycle).

    C_i (i < n) is the envelope of the sides from Y(s) to Y(f_i(s)), and C_n
    that of the sides from Y(g_{n-1}(t)) to Y(t). Rejects step systems whose
    polygons degenerate: every g_j o g_i^-1 (i < j < n) must be free of fixed
    points. Like a pair, rejects a side family whose denominator <D', J D>
    vanishes (EnvelopeSingularity).
    """
    L = vertex_curve.domain_length
    steps = check_steps(steps, L)
    xs = np.linspace(0.0, L, 256, endpoint=False)
    G = orbit(steps, Jet.variable(xs, 1))
    n = len(G)
    check_coincidences(steps, [g.v for g in G])

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
