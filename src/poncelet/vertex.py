"""Vertex curves for a prescribed envelope.

With the envelope given by a support function p and a torsion map f acting
on contact parameters, the vertex curve is

    Y(phi) = p(phi) u(phi) + q(phi) u'(phi),
    q(phi) = (p(f(phi)) - p(phi) <u(phi), u(f(phi))>) / <u'(phi), u(f(phi))>,

where <u'(phi), u(psi)> = sin(psi - phi), so transversality means f(phi)
never differs from phi by a multiple of pi. A clan's vertex curve K_i
(i < n) is the pair curve of its own step f_i; only the closing K_n, on the
tangents at g_{n-1}(phi) and phi, is parametrized by the start phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circlemaps import CircleDiffeo, TorsionMap, identity, orbit
from .envelope import step_chain
from .equiangular import ConstructionError, Walk, Walked
from .roots import GRID
from .support import (PlaneCurve, SupportFunction, curve_from_position, curve_from_support,
                      vertex_position_fn)


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


@dataclass(frozen=True)
class VertexResult(Walked):
    system: ContactStepSystem
    envelope: PlaneCurve
    curve: PlaneCurve

    vertex_curves = property(lambda self: (self.curve,))
    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        f = self.system.step
        ts = np.stack(orbit((f.map,) * f.period, starts), axis=1)
        # side j touches the envelope at the contact parameter of vertex j+1
        return Walk(ts, 0, ts[:, 1:], 0)


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

    curve = curve_from_position(L, vertex_position_fn(p, identity(L).lift, f.lift), label="K")
    return VertexResult(system, curve_from_support(p, label="C"), curve)


@dataclass(frozen=True)
class EnvelopeClan(Walked):
    envelope_support: SupportFunction
    envelope: PlaneCurve
    vertex_curves: tuple[PlaneCurve, ...]   # K_i: tangents at phi and f_i(phi); K_n closes
    steps: tuple[CircleDiffeo, ...]         # f_1, ..., f_{n-1}

    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        G = np.stack(orbit(self.steps, starts), axis=1)
        # vertex i is K_{i+1}(G_i) and side i touches at G_{i+1}, but K_n and
        # the last side take the start; the polygon closes on K_1 at the start
        return Walk(np.column_stack([G[:, :-1], starts, starts]), np.r_[:G.shape[1], 0],
                    np.column_stack([G[:, 1:], starts]), 0)


def clan_from_envelope(envelope: SupportFunction,
                       steps: Sequence[CircleDiffeo]) -> EnvelopeClan:
    """Clan (C, K_1, ..., K_n) for steps f_1..f_{n-1}; f_n closes the cycle.

    K_i (i < n) lies on the tangents at phi and f_i(phi), K_n on those at
    g_{n-1}(phi) and phi. Transversality <u'(g_{i-1}), u(g_i)> != 0 is
    required for every i; failures give the step index and K_i's parameter.
    """
    L = envelope.domain_length
    steps = tuple(steps)
    ts = np.linspace(0.0, L, GRID, endpoint=False)
    G = step_chain(steps, L, ts) + [ts]
    n = len(steps) + 1
    for i in range(1, n + 1):
        gaps = _transversality_gaps(G[i] - G[i - 1], np.mod(G[i - 1] if i < n else ts, L))
        if gaps:
            raise ConstructionError(
                f"transversality fails for step {i} near parameters "
                + ", ".join(f"{t:.6f}" for t in gaps))

    same = identity(L).lift
    lifts = [(same, f.lift) for f in steps] + [(lambda ts: orbit(steps, ts)[-1], same)]
    curves = tuple(curve_from_position(L, vertex_position_fn(envelope, a, b), f"K{i}")
                   for i, (a, b) in enumerate(lifts, 1))
    return EnvelopeClan(envelope, curve_from_support(envelope, label="C"), curves, steps)
