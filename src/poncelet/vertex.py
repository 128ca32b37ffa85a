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
from typing import Sequence

import numpy as np

from .circlemaps import CircleDiffeo, TorsionMap, identity
from .envelope import step_chain
from .equiangular import ConstructionError, PonceletPolygon, assemble_polygon
from .roots import GRID
from .support import FD_STEP_REL, PlaneCurve, SupportFunction, curve_from_support, fd_jet


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


def _vertex_positions(p: SupportFunction, phi: np.ndarray, fphi: np.ndarray) -> np.ndarray:
    adv = fphi - phi
    den = np.sin(adv)
    q = (p.eval(fphi) - p.eval(phi) * np.cos(adv)) / den
    u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    up = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
    return p.eval(phi)[:, None] * u + q[:, None] * up


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

    def pos(tt: np.ndarray) -> np.ndarray:
        return _vertex_positions(p, tt, f.lift(tt))

    curve = PlaneCurve(L, fd_jet(pos, FD_STEP_REL * L), label="K", position_fn=pos)
    return VertexResult(system, curve_from_support(p, label="C"), curve)


@dataclass(frozen=True)
class EnvelopeClan:
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]
    steps: tuple[CircleDiffeo, ...]        # f_1..f_n including the closing map
    composites: tuple[CircleDiffeo, ...]   # g_0 = id, ..., g_{n-1}

    def polygon(self, start: float = 0.0) -> PonceletPolygon:
        # every vertex curve carries its own g_{i-1} advance: evaluate all at start
        params = [float(g.lift(start)) for g in self.composites]
        # g_n = f_n o g_{n-1} is the identity up to the numeric inversion error
        t_close = float(self.steps[-1].lift(params[-1]))
        first = self.vertex_curves[0].positions([start, t_close])
        pts = [first[0]] + [K.positions([start])[0] for K in self.vertex_curves[1:]]
        # side i touches the envelope at g_{i+1}(start), the last one at start
        psis = params[1:] + [float(start)]
        return assemble_polygon(pts, first[1], params, self.envelope.positions(psis), psis,
                                self.envelope.domain_length)


def clan_from_envelope(envelope: SupportFunction,
                       steps: Sequence[CircleDiffeo]) -> EnvelopeClan:
    """Clan (C, K_1, ..., K_n) for steps f_1..f_{n-1}; f_n closes the cycle.

    Transversality <u'(g_{i-1}(phi)), u(g_i(phi))> != 0 is required for
    every i; failures are reported with the step index and parameter.
    """
    L = envelope.domain_length
    steps, glist = step_chain(steps, L)
    n = len(glist)

    ts = np.linspace(0.0, L, GRID, endpoint=False)
    fd = FD_STEP_REL * L
    curves = []
    for i in range(1, n + 1):
        gp = glist[i - 1]
        gc = glist[i] if i < n else identity(L)
        adv = gc.lift(ts) - gp.lift(ts)
        gaps = _transversality_gaps(adv, ts)
        if gaps:
            raise ConstructionError(
                f"transversality fails for step {i} near parameters "
                + ", ".join(f"{t:.6f}" for t in gaps))

        def make_pos(a: CircleDiffeo, b: CircleDiffeo):
            def pos(tt: np.ndarray) -> np.ndarray:
                return _vertex_positions(envelope, a.lift(tt), b.lift(tt))
            return pos

        pos_i = make_pos(gp, gc)
        curves.append(PlaneCurve(L, fd_jet(pos_i, fd), label=f"K{i}", position_fn=pos_i))

    return EnvelopeClan(envelope, curve_from_support(envelope, label="C"),
                        tuple(curves), steps, glist)
