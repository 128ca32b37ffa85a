"""Independent numerical verification of constructed pairs and clans.

The forward oracle rebuilds the next-vertex map of a finished pair from
tangent-line geometry alone: from a vertex Q outside the envelope it
locates the tangent parameter psi with the contact ahead of Q along the
envelope's orientation (roots of <Q, u(psi)> - p(psi)), then intersects
that tangent line with the vertex curve again. It steps all probes in
lockstep: one call per step index takes every live probe's vertex, scans
one (probes, grid) array per root search and refines all brackets
together; a probe whose step fails drops out with its error, and the
others go on. For self-intersecting vertex curves, where forward tangent
selection is ambiguous, verification is restricted to the construction's
own parameter sequence: the polygons of all probes are stacked into
(probes, n, 2) arrays and checked together, with the same closure, angle and
side statistics as the oracle's walks, and each side's tangency parameter
is recovered independently from its normal form, for all sides of one
envelope in one array call.

Envelopes without a support function are checked by recovering each side's
contact from the envelope's parametrization: every side of every probe's
polygon that touches such an envelope is solved in lockstep, with one
batched jet evaluation per solver iteration for all sides together. All
sign-change brackets, here and in the oracle's circle scans, go through
the one bracketed solver in poncelet.roots; a bracket that does not
converge is a report error, never a silent midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circlemaps import circle_distance
from .equiangular import PonceletPolygon
from .geometry import Vec2, wrap_pi
from .roots import GRID, bracketed_roots
from .support import PlaneCurve, SupportFunction


# The verifier holds every probe's polygon sides at once, so the probe count
# sets its memory as well as its time.
MIN_PROBES = 8
MAX_PROBES = 1024
# Vertices per polygon, the other factor of the verifier's work. The same
# bound caps torsion periods and clan step counts where a document is read:
# each probe evaluates every envelope of a clan-from-vertex through step
# composites nested up to n deep, so its verify time grows with n squared.
MAX_VERTICES = 64


class OracleError(RuntimeError):
    pass


# The scalar formulas, element by element: np.hypot, np.arctan2 and np.arcsin
# can differ from math.hypot (Vec2.norm), math.atan2 and math.asin in the last
# bit, and the reports keep the values of the scalar formulas.
_hypot = np.vectorize(math.hypot, otypes=[float])
_atan2 = np.vectorize(math.atan2, otypes=[float])
_asin = np.vectorize(math.asin, otypes=[float])
_wrap_pi = np.vectorize(wrap_pi, otypes=[float])


def _circle_roots(fn, L: float, rows: int) -> list[list[float] | OracleError]:
    """Roots on the circle [0, L) of each row's function, or the row's error.

    fn(t, row) gives the values at t of the functions of rows `row` and
    broadcasts like numpy. All rows are scanned on one (rows, GRID) grid,
    and every sign-change bracket of every row is refined in one
    bracketed_roots call; a row with an unconverged bracket gets an
    OracleError instead of its roots.
    """
    ts = np.linspace(0.0, L, GRID, endpoint=False)
    vals = fn(ts[None, :], np.arange(rows)[:, None])
    exact = vals == 0.0
    row, col = np.nonzero(~exact & (vals * np.roll(vals, -1, axis=1) < 0))
    refined, open_ = bracketed_roots(lambda t, i: fn(t, row[i]), ts[col], ts[col] + L / GRID)
    zero_row, zero_col = np.nonzero(exact)
    cut = np.searchsorted(row, np.arange(rows + 1))
    zero_cut = np.searchsorted(zero_row, np.arange(rows + 1))
    out: list[list[float] | OracleError] = []
    for r in range(rows):
        mine = slice(cut[r], cut[r + 1])
        if open_[mine].any():
            out.append(OracleError("root refinement did not converge near t = "
                                   + ", ".join(f"{t:.6f}" for t in refined[mine][open_[mine]])))
            continue
        roots = np.concatenate([ts[zero_col[zero_cut[r]:zero_cut[r + 1]]], refined[mine]])
        # dedupe near-coincident roots (mod L)
        found: list[float] = []
        for x in sorted(np.mod(roots, L)):
            if not found or (x - found[-1]) > 1e-9 * L:
                found.append(float(x))
        if len(found) > 1 and (found[0] + L - found[-1]) <= 1e-9 * L:
            found.pop()
        out.append(found)
    return out


def tangent_parameters(q: np.ndarray, p: SupportFunction) -> list[list[float] | OracleError]:
    """For each point q[i], all psi in [0, 2*k*pi) whose tangent line passes
    through it (or the OracleError of its scan)."""
    q = np.asarray(q, dtype=float).reshape(-1, 2)

    def fn(ts, row):
        return q[row, 0] * np.cos(ts) + q[row, 1] * np.sin(ts) - p.eval(ts)

    return _circle_roots(fn, p.domain_length, len(q))


@dataclass(frozen=True)
class OracleStep:
    t2: float
    contact_parameter: float
    contact: Vec2


def next_vertex_oracle(K: PlaneCurve, C: SupportFunction,
                       t1) -> OracleStep | list[OracleStep | OracleError]:
    """Next polygon vertex after K(t1) for the pair (K, C), for every t1 at once.

    Requires K(t1) strictly outside C and a clean two-root intersection of
    the forward tangent with K (convex-type geometry). For an array t1 the
    result lists, per element, its OracleStep or the OracleError that ends
    it; one element's failure does not stop the others. A scalar t1 gives
    its OracleStep or raises its OracleError.
    """
    t1s = np.atleast_1d(np.asarray(t1, dtype=float))
    q = K.positions(t1s)
    out: list[OracleStep | OracleError | None] = [None] * len(t1s)
    found = tangent_parameters(q, C)
    rows = []
    for i, psis in enumerate(found):
        if isinstance(psis, OracleError):
            out[i] = psis
        elif not psis:
            out[i] = OracleError(f"no tangent line through K({float(t1s[i])}): "
                                 "point inside the envelope?")
        else:
            rows.append(i)
    # forward tangents: the contact lies ahead of K(t1) along the envelope
    psi = np.array([x for i in rows for x in found[i]])
    owner = np.repeat(rows, [len(found[i]) for i in rows]).astype(int)
    contact, tangent = _support_point(C, psi)
    ahead = ((contact[:, 0] - q[owner, 0]) * tangent[:, 0]
             + (contact[:, 1] - q[owner, 1]) * tangent[:, 1]) > 0.0
    lines, picks = [], []
    cut = np.searchsorted(owner, np.arange(len(t1s) + 1))
    for i in rows:
        fwd = cut[i] + np.nonzero(ahead[cut[i]:cut[i + 1]])[0]
        if not fwd.size:
            out[i] = OracleError(f"no forward tangent from K({float(t1s[i])})")
        elif fwd.size > 1:
            out[i] = OracleError(
                f"forward tangent from K({float(t1s[i])}) is ambiguous (candidates "
                + ", ".join(f"{psi[j]:.6f}" for j in fwd) + ")")
        else:
            lines.append(i)
            picks.append(fwd[0])
    picks = np.array(picks, dtype=int)
    ux, uy, pv = np.cos(psi[picks]), np.sin(psi[picks]), C.eval(psi[picks])
    L = K.domain_length

    def line_fn(ts, row):
        pts = K.positions(np.ravel(ts)).reshape(np.shape(ts) + (2,))
        return pts[..., 0] * ux[row] + pts[..., 1] * uy[row] - pv[row]

    for i, j, roots in zip(lines, picks, _circle_roots(line_fn, L, len(lines))):
        t, p = float(t1s[i]), float(psi[j])
        if isinstance(roots, OracleError):
            out[i] = roots
            continue
        hits = [h for h in roots if circle_distance(h, t, L) > 1e-6 * L]
        if not hits:
            out[i] = OracleError(f"tangent line at psi={p} meets K only at t1={t}")
        elif len(hits) > 1:
            out[i] = OracleError(f"tangent line at psi={p} meets K at several parameters "
                                 + ", ".join(f"{h:.6f}" for h in hits))
        else:
            out[i] = OracleStep(hits[0], p, Vec2(float(contact[j, 0]), float(contact[j, 1])))
    if np.ndim(t1) == 0:
        if isinstance(out[0], OracleError):
            raise out[0]
        return out[0]
    return out


def _support_point(p: SupportFunction, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points X(psi) of the support curve and its unit tangents u'(psi), as (n, 2) arrays."""
    c, s = np.cos(psi), np.sin(psi)
    p0 = p.eval(psi)
    p1 = p.eval(psi, 1)
    return np.stack([p0 * c - p1 * s, p0 * s + p1 * c], axis=1), np.stack([-s, c], axis=1)


def parametric_side_contacts(a: np.ndarray, b: np.ndarray, curve: PlaneCurve,
                             grid_ts: np.ndarray, grid_pts: np.ndarray,
                             dist_tol: float) -> tuple[list[list[float]], np.ndarray]:
    """Parameters where the curve is tangent to each side line through a[k], b[k].

    Tangency means a simple zero of d/dt <X(t) - a, n>, the derivative of
    the signed distance to the line; transversal crossings have no such
    zero at their distance minimum and drop out automatically. Every side
    is solved in lockstep: its (at most 8) nearest local distance minima on
    the grid give brackets, those with a sign change are refined together,
    and refined points farther than dist_tol from their line are dropped.
    Returns the recovered parameters of each side, nearest minimum first,
    and the number of each side's brackets that did not converge.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    d = np.asarray(b, dtype=float).reshape(-1, 2) - a
    nrm = _hypot(d[:, 0], d[:, 1])
    nx, ny = -d[:, 1] / nrm, d[:, 0] / nrm
    side, cand = _distance_minima(a, nx, ny, grid_pts)
    L = curve.domain_length
    step = L / len(grid_ts)
    lo, hi = grid_ts[cand] - step, grid_ts[cand] + step

    def ddist(t, k):
        vel = curve.jet_many(t)[1]
        return vel[:, 0] * nx[k] + vel[:, 1] * ny[k]

    ends = ddist(np.concatenate([lo, hi]), np.concatenate([side, side]))
    signed = np.nonzero(~(ends[:len(side)] * ends[len(side):] > 0))[0]
    side, lo, hi = side[signed], lo[signed], hi[signed]
    roots, open_ = bracketed_roots(lambda t, idx: ddist(t, side[idx]), lo, hi)
    done = np.nonzero(~open_)[0]
    pts = curve.positions(roots[done])
    s = side[done]
    dist = (pts[:, 0] - a[s, 0]) * nx[s] + (pts[:, 1] - a[s, 1]) * ny[s]
    out: list[list[float]] = [[] for _ in range(len(a))]
    for k, t, dk in zip(s, roots[done], dist):
        if abs(dk) < dist_tol:
            out[k].append(float(t) % L)
    return out, np.bincount(side[open_], minlength=len(a))


_MINIMA_CHUNK = 256   # sides per block: bounds the (sides x grid) arrays


def _distance_minima(a: np.ndarray, nx: np.ndarray, ny: np.ndarray,
                     grid_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(side, grid index) of the 8 smallest local minima of each side line's
    distance over the grid points, nearest first within a side."""
    sides, idx = [], []
    for k0 in range(0, len(a), _MINIMA_CHUNK):
        k = slice(k0, k0 + _MINIMA_CHUNK)
        signed = ((grid_pts[None, :, 0] - a[k, 0, None]) * nx[k, None]
                  + (grid_pts[None, :, 1] - a[k, 1, None]) * ny[k, None])
        mag = np.abs(signed)
        is_min = (mag < np.roll(mag, 1, axis=1)) & (mag <= np.roll(mag, -1, axis=1))
        order = np.argsort(np.where(is_min, mag, np.inf), axis=1, kind="stable")[:, :8]
        row, slot = np.nonzero(np.take_along_axis(is_min, order, axis=1))
        sides.append(row + k0)
        idx.append(order[row, slot])
    return np.concatenate(sides), np.concatenate(idx)


def _support_gap(a: np.ndarray, b: np.ndarray, psi: np.ndarray,
                 p: SupportFunction) -> np.ndarray:
    """max(|<a,u> - p|, |<b,u> - p|) at u = u(psi): how far the side from a
    to b is from the tangent line of p at psi. a and b are (..., 2) arrays."""
    ux, uy, pv = np.cos(psi), np.sin(psi), p.eval(psi)
    return np.maximum(np.abs(a[..., 0] * ux + a[..., 1] * uy - pv),
                      np.abs(b[..., 0] * ux + b[..., 1] * uy - pv))


def side_contact_recover(a: np.ndarray, b: np.ndarray,
                         p: SupportFunction) -> tuple[np.ndarray, np.ndarray]:
    """Tangency parameter of each side line through a[i], b[i], recovered from
    its normal form: candidates are theta + j*pi over the sheets. Returns
    (psi, gap) per side with the smallest support gap max(|<a,u>-p|, |<b,u>-p|)."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = b - a
    nrm = _hypot(d[:, 0], d[:, 1])
    if np.any(nrm == 0.0):
        raise OracleError("degenerate side")
    theta = _atan2(-d[:, 0] / nrm, d[:, 1] / nrm)
    psi = np.mod(theta[:, None] + np.arange(2 * p.sheets) * math.pi, p.domain_length)
    gap = _support_gap(a[:, None], b[:, None], psi, p)
    best = np.argmin(gap, axis=1)[:, None]
    return (np.take_along_axis(psi, best, axis=1)[:, 0],
            np.take_along_axis(gap, best, axis=1)[:, 0])


@dataclass
class VerificationReport:
    label: str
    probes: int
    tol: float
    mode: str
    closure_error: float = 0.0
    min_premature_closure: float = math.inf
    max_tangency_gap: float = 0.0
    max_angle_deviation: float | None = None
    side_length_spread: float | None = None
    s_min: float = math.inf
    s_max: float = -math.inf
    regularity_min_speed: float = math.inf
    max_step_mismatch: float | None = None
    oracle_direction: str | None = None
    monotone_step: bool | None = None
    checks: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors and all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "label": self.label, "probes": self.probes, "tol": self.tol,
            "mode": self.mode, "closure_error": self.closure_error,
            "min_premature_closure": self.min_premature_closure,
            "max_tangency_gap": self.max_tangency_gap,
            "max_angle_deviation": self.max_angle_deviation,
            "side_length_spread": self.side_length_spread,
            "s_range": [self.s_min, self.s_max],
            "regularity_min_speed": self.regularity_min_speed,
            "max_step_mismatch": self.max_step_mismatch,
            "oracle_direction": self.oracle_direction,
            "monotone_step": self.monotone_step,
            # numpy comparisons give numpy booleans, which JSON would print as 1.0
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "errors": list(self.errors),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class PonceletConfiguration:
    """Everything the verifier needs about a constructed scene."""

    label: str
    vertex_curves: tuple[PlaneCurve, ...]
    envelopes: tuple[PlaneCurve, ...]
    envelope_supports: tuple[SupportFunction | None, ...]
    polygon: Callable[[float], PonceletPolygon]
    count: int
    mode: str                                  # "oracle" | "sequence"
    # vertex-parameter step and its inverse (oracle mode), set together; both take arrays
    step_lift: Callable[[np.ndarray], np.ndarray] | None = None
    step_inv_lift: Callable[[np.ndarray], np.ndarray] | None = None
    expected_turns: tuple[float, ...] | None = None   # wrapped exterior angles, cyclic
    expected_side: float | None = None
    expect_interior: bool | None = None

    @property
    def domain_length(self) -> float:
        return self.vertex_curves[0].domain_length


def _polygon_checks(report: VerificationReport, pts: np.ndarray, config, turns):
    """Premature closure, side-length spread and exterior-angle deviation of
    the polygons pts (count + 1, probes, 2), whose row count is where each
    one closes; the turns are expected cyclically over rows 0 to count - 1."""
    count = len(pts) - 1
    if count > 1:
        shift = pts[1:count] - pts[0]
        report.min_premature_closure = min(report.min_premature_closure,
                                           float(np.min(_hypot(shift[..., 0], shift[..., 1]))))
    if config.expected_side is not None:
        side = np.diff(pts, axis=0)
        spread = np.abs(_hypot(side[..., 0], side[..., 1]) - config.expected_side)
        report.side_length_spread = max(report.side_length_spread or 0.0,
                                        float(np.max(spread / config.expected_side)))
    if turns is not None:
        b = np.roll(pts[:count], -1, axis=0) - pts[:count]   # side i: vertex i to i + 1
        a = np.roll(b, 1, axis=0)
        turn = _atan2(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
                      a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
        dev = float(np.max(np.abs(_wrap_pi(turn - np.resize(turns, count)[:, None]))))
        report.max_angle_deviation = max(report.max_angle_deviation or 0.0, dev)


def verify_pair(config: PonceletConfiguration, probes: int = 64,
                tol: float | None = None) -> VerificationReport:
    """Run every applicable check for the configuration; never raises for
    per-probe oracle failures (they are recorded in the report)."""
    L = config.domain_length
    if tol is None:
        tol = 1e-7 * L
    if not MIN_PROBES <= probes <= MAX_PROBES:
        raise ValueError(f"need {MIN_PROBES} to {MAX_PROBES} probes, got {probes}")
    report = VerificationReport(config.label, probes, tol, config.mode)
    starts = (np.linspace(0.0, L, probes, endpoint=False) + 0.05 * L / probes)

    if config.mode == "oracle":
        _verify_oracle(config, starts, tol, report)
    else:
        _verify_sequence(config, starts, tol, report)

    report.regularity_min_speed = min(c.min_speed() for c in config.vertex_curves)
    report.checks["closure"] = report.closure_error < tol
    report.checks["no_premature_closure"] = report.min_premature_closure > tol
    report.checks["tangency"] = report.max_tangency_gap < max(tol, 1e-8)
    if config.expected_turns is not None:
        report.checks["equiangular"] = (report.max_angle_deviation or math.inf) < 1e-8
    if config.expected_side is not None:
        report.checks["equilateral"] = (report.side_length_spread or math.inf) < 1e-9
    if config.expect_interior is not None:
        interior = 0.0 < report.s_min and report.s_max < 1.0
        report.checks["interiority"] = interior == config.expect_interior
    return report


def _verify_oracle(config, starts, tol, report):
    """Walk every probe's polygon in lockstep: one oracle step per step index
    for all probes still live; a probe whose step fails drops out with its
    error and the others go on."""
    K = config.vertex_curves[0]
    p = config.envelope_supports[0]
    L = K.domain_length
    count = config.count
    params = np.empty((count + 1, len(starts)))
    pts = np.empty((count + 1, len(starts), 2))
    params[0], pts[0] = starts, K.positions(starts)
    live = np.ones(len(starts), dtype=bool)
    failed: dict[int, OracleError] = {}
    direction = None
    step_mismatch = 0.0

    for j in range(count):
        probes = np.nonzero(live)[0]
        steps = next_vertex_oracle(K, p, params[j, probes])
        for probe, step in zip(probes, steps):
            if isinstance(step, OracleError):
                failed[probe] = step
                live[probe] = False
        probes = probes[live[probes]]
        if not probes.size:
            break
        t = params[j, probes]
        done = [s for s in steps if isinstance(s, OracleStep)]
        t2 = np.array([s.t2 for s in done])
        psi = np.array([s.contact_parameter for s in done])
        contact = np.array([tuple(s.contact) for s in done])
        a, b = pts[j, probes], K.positions(t2)
        gap = _support_gap(a, b, psi, p)
        report.max_tangency_gap = max(report.max_tangency_gap, float(np.max(gap)))
        d = b - a
        chord = (((contact[:, 0] - a[:, 0]) * d[:, 0] + (contact[:, 1] - a[:, 1]) * d[:, 1])
                 / (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
        report.s_min = min(report.s_min, float(np.min(chord)))
        report.s_max = max(report.s_max, float(np.max(chord)))
        if config.step_lift is not None:
            fwd = np.asarray(config.step_lift(t), dtype=float)
            rev = np.asarray(config.step_inv_lift(t), dtype=float)
            if direction is None:
                # from the lowest-index probe whose first step succeeded
                direction = ("forward" if circle_distance(t2[0], fwd[0], L)
                             <= circle_distance(t2[0], rev[0], L) else "reverse")
            ref = fwd if direction == "forward" else rev
            step_mismatch = max(step_mismatch, float(np.max(circle_distance(t2, ref, L))))
        params[j + 1, probes], pts[j + 1, probes] = t2, b

    report.errors.extend(f"start {starts[i]:.6f}: {failed[i]}" for i in sorted(failed))
    closed = pts[:, live]
    if closed.shape[1]:
        gap = closed[count] - closed[0]
        report.closure_error = max(report.closure_error, float(np.max(_hypot(*gap.T))))
        # a reverse-walked polygon turns by the negated exterior angles
        sign = -1.0 if direction == "reverse" else 1.0
        _polygon_checks(report, closed, config, None if config.expected_turns is None
                        else [sign * turn for turn in config.expected_turns])

    if config.step_lift is not None and not report.errors:
        report.max_step_mismatch = step_mismatch
        report.oracle_direction = direction
        report.checks["oracle_step"] = step_mismatch < tol
        jumps = np.diff(np.unwrap(params[1], period=L))
        report.monotone_step = bool(np.all(jumps > 0))
        report.checks["monotone_step"] = report.monotone_step


def _verify_sequence(config, starts, tol, report):
    """Check every probe's polygon from the construction, stacked into
    (probes, n, 2) arrays: side i runs from vertex i to vertex i + 1 and
    touches envelope env[probe, i] at the point x with parameter psi."""
    L = config.domain_length
    polys = [config.polygon(float(t0)) for t0 in starts]
    contacts = [poly.contacts for poly in polys]
    v = np.array([[(q.x, q.y) for q in poly.vertices] for poly in polys])
    w = np.roll(v, -1, axis=1)
    x = np.array([[(c.point.x, c.point.y) for c in row] for row in contacts])
    psi = np.array([[c.parameter for c in row] for row in contacts])
    chord = np.array([[c.chord for c in row] for row in contacts])
    env = np.array([[c.envelope_index for c in row] for row in contacts])
    report.closure_error = max(report.closure_error, max(poly.closure_gap for poly in polys))
    report.s_min = min(report.s_min, float(np.min(chord)))
    report.s_max = max(report.s_max, float(np.max(chord)))
    _polygon_checks(report, np.concatenate([v, v[:, :1]], axis=1).transpose(1, 0, 2),
                    config, config.expected_turns)

    mismatch = 0.0
    errors = []                        # ((probe, side), message)
    for k, (curve, sup) in enumerate(zip(config.envelopes, config.envelope_supports)):
        probe, side = np.nonzero(env == k)
        if not probe.size:
            continue
        a, b, at = v[probe, side], w[probe, side], psi[probe, side]
        if sup is not None:
            gap = _support_gap(a, b, at, sup)
            near = circle_distance(side_contact_recover(a, b, sup)[0], at, L)
        else:
            grid_ts = np.linspace(0.0, curve.domain_length, GRID, endpoint=False)
            found, stuck = parametric_side_contacts(a, b, curve, grid_ts,
                                                    curve.positions(grid_ts),
                                                    dist_tol=max(tol, 1e-8))
            # the construction's contact must lie on the side line, tangent to it
            vel = curve.jet_many(at)[1]
            d, r = b - a, x[probe, side] - a
            side_len = _hypot(d[:, 0], d[:, 1])
            sin = (vel[:, 0] * d[:, 1] - vel[:, 1] * d[:, 0]) / (
                _hypot(vel[:, 0], vel[:, 1]) * side_len)
            gap = np.maximum(np.abs(d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]) / side_len,
                             np.abs(_asin(np.clip(sin, -1.0, 1.0))))
            hits = np.array([len(f) for f in found])
            near = np.full(len(at), np.inf)
            owner = np.repeat(np.arange(len(at)), hits)
            np.minimum.at(near, owner, circle_distance(
                np.array([t for f in found for t in f]), at[owner], curve.domain_length))
            near = near[hits > 0]
            for i in np.nonzero(stuck | (hits == 0))[0]:
                where = (int(probe[i]), int(side[i]))
                if stuck[i]:
                    errors.append((where, f"{stuck[i]} contact bracket(s) of side {where[1]} "
                                          f"on envelope {k} near t = {at[i]:.6f} "
                                          "did not converge"))
                if not hits[i]:
                    errors.append((where, f"no tangency of side {where[1]} recovered on "
                                          f"envelope {k} near t = {at[i]:.6f}"))
        report.max_tangency_gap = max(report.max_tangency_gap, float(np.max(gap)))
        if near.size:
            mismatch = max(mismatch, float(np.max(near)))
    report.errors.extend(msg for _, msg in sorted(errors, key=lambda e: e[0]))

    report.max_step_mismatch = mismatch
    report.checks["contact_recovery"] = mismatch < tol


@dataclass(frozen=True)
class RegularityScan:
    min_speed: float
    near_zeros: tuple[tuple[float, float], ...]   # (parameter, refined speed)
    samples: int


def regularity_scan(curve: PlaneCurve, samples: int = 1024,
                    zero_tol: float = 1e-6) -> RegularityScan:
    """Minimum |velocity| over samples; low local minima are refined as
    zeros of <X', X''> = (1/2) d|X'|^2/dt and those below zero_tol
    reported as near-singular parameters."""
    if samples < 64:
        raise ValueError("need at least 64 samples")
    L = curve.domain_length
    ts = np.linspace(0.0, L, samples, endpoint=False)
    vel = curve.jet_many(ts)[1]
    speed = np.hypot(vel[:, 0], vel[:, 1])
    is_min = (speed < np.roll(speed, 1)) & (speed <= np.roll(speed, -1))
    cut = max(np.median(speed) * 0.25, 10 * zero_tol)
    low = ts[np.nonzero(is_min & (speed < cut))[0]]

    def slope(t, _):
        _, v, a = curve.jet_many(t)
        return v[:, 0] * a[:, 0] + v[:, 1] * a[:, 1]

    lo, hi = low - L / samples, low + L / samples
    ends = slope(np.concatenate([lo, hi]), None)
    signed = ~(ends[:len(low)] * ends[len(low):] > 0)
    roots, open_ = bracketed_roots(slope, lo[signed], hi[signed])
    if open_.any():
        raise RuntimeError("speed minimum refinement did not converge near t = "
                           + ", ".join(f"{t:.6f}" for t in roots[open_] % L))
    vel = curve.jet_many(roots)[1]
    near = tuple((float(t % L), float(v)) for t, v in zip(roots, np.hypot(vel[:, 0], vel[:, 1]))
                 if v < zero_tol)
    return RegularityScan(float(np.min(speed)), near, samples)
