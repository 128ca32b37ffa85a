"""Vertex curves for a prescribed envelope.

With the envelope given by a support function p and a torsion map f acting
on contact parameters, the vertex curve is

    Y(phi) = p(phi) u(phi) + q(phi) u'(phi),
    q(phi) = (p(f(phi)) - p(phi) <u(phi), u(f(phi))>) / <u'(phi), u(f(phi))>,

where <u'(phi), u(psi)> = sin(psi - phi), so transversality means f(phi)
never differs from phi by a multiple of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .circlemaps import CircleDiffeo, TorsionMap, identity
from .envelope import step_chain
from .equiangular import ConstructionError, PonceletPolygon, assemble_polygon
from .roots import GRID
from .support import PlaneCurve, SupportFunction, curve_from_position, curve_from_support


@dataclass(frozen=True)
class ContactStepSystem:
    envelope: SupportFunction
    step: TorsionMap

    def __post_init__(self):
        if self.step.period <= 2:
            raise ConstructionError("step period must exceed 2")
        if not math.isclose(self.step.circumference, self.envelope.domain_length):
            raise ConstructionError("step map must act on the envelope's parameter circle")


def _transversality_gaps(advance: np.ndarray, ts: np.ndarray, tol: float = 1e-9) -> list[float]:
    """Parameters where sin(advance) vanishes: near-zero samples plus
    sign changes between consecutive samples."""
    s = np.sin(advance)
    bad = set(np.nonzero(np.abs(s) < tol)[0].tolist())
    flips = np.nonzero(np.sign(s) * np.sign(np.roll(s, -1)) < 0)[0]
    bad.update(flips.tolist())
    return [float(ts[i]) for i in sorted(bad)[:8]]


def _vertex_position_fn(p: SupportFunction, a: CircleDiffeo, b: CircleDiffeo) -> Callable:
    """Position function (arrays or Jets) of the vertex curve whose point at
    t is where the envelope's tangent lines at phi = a(t) and b(t) meet:
    Y = p(phi) u(phi) + q(phi) u'(phi)."""

    def pos(ts):
        phi, fphi = a.lift(ts), b.lift(ts)
        adv = fphi - phi
        q = (p.eval(fphi) - p.eval(phi) * jets.cos(adv)) / jets.sin(adv)
        c, s = jets.cos(phi), jets.sin(phi)
        return p.eval(phi)[:, None] * jets.stack([c, s]) + q[:, None] * jets.stack([-s, c])

    return pos


@dataclass(frozen=True)
class VertexResult:
    system: ContactStepSystem
    envelope: PlaneCurve
    curve: PlaneCurve

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        f = self.system.step
        params = f.orbit(start)
        ts = params + [float(f.map.lift(params[-1]))]
        # side j touches the envelope at the contact parameter of vertex j+1
        pts = self.curve.positions(ts)
        return assemble_polygon(pts[:-1], pts[-1], params, self.envelope.positions(ts[1:]),
                                ts[1:], self.envelope.domain_length)


def vertex_from_envelope(system: ContactStepSystem) -> VertexResult:
    """Vertex curve K for the pair (K, C); reduces to the equiangular curve
    when the step is a rigid shift."""
    p = system.envelope
    f = system.step.map
    L = p.domain_length

    ts = np.linspace(0.0, L, GRID, endpoint=False)
    adv = f.lift(ts) - ts
    gaps = _transversality_gaps(adv, ts)
    if gaps:
        raise ConstructionError(
            "transversality <u'(phi), u(f(phi))> = sin(f(phi) - phi) vanishes near "
            + ", ".join(f"{t:.6f}" for t in gaps))

    curve = curve_from_position(L, _vertex_position_fn(p, identity(L), f), label="K")
    return VertexResult(system, curve_from_support(p, label="C"), curve)


@dataclass(frozen=True)
class EnvelopeClan:
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]
    composites: tuple[CircleDiffeo, ...]   # g_0 = id, ..., g_{n-1}; g_n = id closes

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        # every vertex curve carries its own g_{i-1} advance: evaluate all at start
        params = [float(g.lift(start)) for g in self.composites]
        pts = [K.positions([start])[0] for K in self.vertex_curves]
        # side i touches the envelope at g_{i+1}(start), the last one at g_n(start) = start
        psis = params[1:] + [float(start)]
        return assemble_polygon(pts, pts[0], params, self.envelope.positions(psis), psis,
                                self.envelope.domain_length)


def clan_from_envelope(envelope: SupportFunction,
                       steps: Sequence[CircleDiffeo]) -> EnvelopeClan:
    """Clan (C, K_1, ..., K_n) for steps f_1..f_{n-1}; f_n closes the cycle.

    Transversality <u'(g_{i-1}(phi)), u(g_i(phi))> != 0 is required for
    every i; failures are reported with the step index and parameter.
    """
    L = envelope.domain_length
    steps = tuple(steps)
    ts = np.linspace(0.0, L, GRID, endpoint=False)
    glist, G = step_chain(steps, L, ts)

    curves = []
    for i in range(1, len(glist)):
        gaps = _transversality_gaps(G[i] - G[i - 1], ts)
        if gaps:
            raise ConstructionError(
                f"transversality fails for step {i} near parameters "
                + ", ".join(f"{t:.6f}" for t in gaps))

        curves.append(curve_from_position(
            L, _vertex_position_fn(envelope, glist[i - 1], glist[i]), f"K{i}"))

    return EnvelopeClan(envelope, curve_from_support(envelope, label="C"),
                        tuple(curves), glist[:-1])
