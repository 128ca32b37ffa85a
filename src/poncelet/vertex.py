"""Vertex curves for a prescribed envelope.

With the envelope given by a support function p and a torsion map f acting
on contact parameters, the vertex curve is

    Y(phi) = p(phi) u(phi) + q(phi) u'(phi),
    q(phi) = (p(f(phi)) - p(phi) <u(phi), u(f(phi))>) / <u'(phi), u(f(phi))>,

where <u'(phi), u(psi)> = sin(psi - phi), so transversality means f(phi)
never differs from phi by a multiple of pi. A clan's vertex curve K_i
(i < n) is the pair curve of its own step f_i; only the closing K_n, on the
tangents at g_{n-1}(phi) and phi, is parametrized by the start phi. Steps
are checked as envelope.check_steps checks them, a pair's as the n-1 equal
steps of a clan. Transversality is one envelope.orbit_zeros table of
sin(advance), one row per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets
from .circlemaps import CircleDiffeo, TorsionMap, orbit
from .envelope import check_coincidences, check_steps, orbit_zeros
from .equiangular import ConstructionError, Walk, Walked
from .roots import GRID
from .support import (PlaneCurve, SupportFunction, curve_from_position, curve_from_support,
                      vertex_position_fn)


def _advances(g):
    """orbit_zeros rows sin(g_i - g_{i-1}) on the orbit g (an array or a Jet),
    one per step, the closing step included; values below 1e-9 count as 0."""
    return jets.sin(g[1:] - g[:-1])


@dataclass(frozen=True)
class VertexResult(Walked):
    step: TorsionMap
    envelope: PlaneCurve
    curve: PlaneCurve

    vertex_curves = property(lambda self: (self.curve,))
    envelopes = property(lambda self: (self.envelope,))

    def walk(self, starts: np.ndarray) -> Walk:
        f = self.step
        ts = np.stack(orbit((f.map,) * f.period, starts), axis=1)
        # side j touches the envelope at the contact parameter of vertex j+1
        return Walk(ts, 0, ts[:, 1:], 0)


def vertex_from_envelope(envelope: SupportFunction, step: TorsionMap) -> VertexResult:
    """Vertex curve K for the pair (K, C); reduces to the equiangular curve
    when the step is a rigid shift."""
    L = envelope.domain_length
    check_steps((step.map,) * (step.period - 1), L)
    f = step.map

    ts = np.linspace(0.0, L, GRID, endpoint=False)
    # the second row, of the step back, is minus the first
    gaps = orbit_zeros((f,), [ts, f.lift(ts), ts], _advances, 1e-9)[1][:8]
    if len(gaps):
        raise ConstructionError(
            "transversality <u'(phi), u(f(phi))> = sin(f(phi) - phi) vanishes near "
            + ", ".join(f"{t:.6f}" for t in gaps))

    curve = curve_from_position(L, vertex_position_fn(envelope, lambda ts: ts, f.lift),
                                label="K")
    return VertexResult(step, curve_from_support(envelope, label="C"), curve)


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
    Like clan_from_vertex, it rejects coincident vertices (check_coincidences).
    """
    L = envelope.domain_length
    steps = check_steps(steps, L)
    ts = np.linspace(0.0, L, GRID, endpoint=False)
    G = orbit(steps, ts)
    r, gaps = orbit_zeros(steps, G + [ts], _advances, 1e-9)
    if len(gaps):
        # K_i (i < n) is parametrized by g_{i-1} of the start, K_n by the start
        params = np.mod(orbit(steps, gaps[:8])[r], L) if r < len(steps) else gaps[:8]
        raise ConstructionError(f"transversality fails for step {r + 1} near parameters "
                                + ", ".join(f"{t:.6f}" for t in params))
    check_coincidences(steps, G)

    lifts = [(lambda ts: ts, f.lift) for f in steps]
    lifts.append((lambda ts: orbit(steps, ts)[-1], lambda ts: ts))
    curves = tuple(curve_from_position(L, vertex_position_fn(envelope, a, b), f"K{i}")
                   for i, (a, b) in enumerate(lifts, 1))
    return EnvelopeClan(envelope, curve_from_support(envelope, label="C"), curves, steps)
