"""Independent numerical verification of constructed pairs and clans.

The forward oracle rebuilds the next-vertex map of a finished pair from
tangent-line geometry alone: from a vertex Q outside the envelope it
locates the tangent parameter psi with the contact ahead of Q along the
envelope's orientation (roots of <Q, u(psi)> - p(psi)), then intersects
that tangent line with the vertex curve again. For self-intersecting
vertex curves, where forward tangent selection is ambiguous, verification
is restricted to the construction's own parameter sequence; there the
side's tangency parameter is recovered independently from its normal form.

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


class OracleError(RuntimeError):
    pass


def _circle_roots(fn_vec, L: float) -> list[float]:
    ts = np.linspace(0.0, L, GRID, endpoint=False)
    vals = fn_vec(ts)
    exact = vals == 0.0
    flips = np.nonzero(~exact & (vals * np.roll(vals, -1) < 0))[0]
    refined, open_ = bracketed_roots(lambda t, _: fn_vec(t), ts[flips], ts[flips] + L / GRID)
    if open_.any():
        raise OracleError("root refinement did not converge near t = "
                          + ", ".join(f"{t:.6f}" for t in refined[open_]))
    roots = np.concatenate([ts[exact], refined])
    # dedupe near-coincident roots (mod L)
    out: list[float] = []
    for r in sorted(np.mod(roots, L)):
        if not out or (r - out[-1]) > 1e-9 * L:
            out.append(float(r))
    if len(out) > 1 and (out[0] + L - out[-1]) <= 1e-9 * L:
        out.pop()
    return out


def tangent_parameters(q: Vec2, p: SupportFunction) -> list[float]:
    """All psi in [0, 2*k*pi) whose tangent line passes through q."""

    def fn(ts):
        return q.x * np.cos(ts) + q.y * np.sin(ts) - p.eval(ts)

    return _circle_roots(fn, p.domain_length)


@dataclass(frozen=True)
class OracleStep:
    t2: float
    contact_parameter: float
    contact: Vec2


def next_vertex_oracle(K: PlaneCurve, C: SupportFunction, t1: float) -> OracleStep:
    """Next polygon vertex after K(t1) for the pair (K, C).

    Requires K(t1) strictly outside C and a clean two-root intersection of
    the forward tangent with K (convex-type geometry).
    """
    q = K.position(t1)
    psis = tangent_parameters(q, C)
    if not psis:
        raise OracleError(f"no tangent line through K({t1}): point inside the envelope?")
    forward = []
    for psi in psis:
        x, xp = _support_point(C, psi)
        if (x - q).dot(xp) > 0.0:
            forward.append((psi, x))
    if not forward:
        raise OracleError(f"no forward tangent from K({t1})")
    if len(forward) > 1:
        raise OracleError(
            f"forward tangent from K({t1}) is ambiguous (candidates "
            + ", ".join(f"{p:.6f}" for p, _ in forward) + ")")
    psi, contact = forward[0]

    pv = C.eval(psi)
    upsi = Vec2(math.cos(psi), math.sin(psi))

    def line_fn(ts):
        pts = K.positions(ts)
        return pts[:, 0] * upsi.x + pts[:, 1] * upsi.y - pv

    hits = [t for t in _circle_roots(line_fn, K.domain_length)
            if circle_distance(t, t1, K.domain_length) > 1e-6 * K.domain_length]
    if not hits:
        raise OracleError(f"tangent line at psi={psi} meets K only at t1={t1}")
    if len(hits) > 1:
        raise OracleError(
            f"tangent line at psi={psi} meets K at several parameters "
            + ", ".join(f"{t:.6f}" for t in hits))
    return OracleStep(hits[0], psi, contact)


def _support_point(p: SupportFunction, psi: float) -> tuple[Vec2, Vec2]:
    c, s = math.cos(psi), math.sin(psi)
    p0 = p.eval(psi)
    p1 = p.eval(psi, 1)
    return Vec2(p0 * c - p1 * s, p0 * s + p1 * c), Vec2(-s, c)


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
    nrm = np.array([math.hypot(x, y) for x, y in d])   # as Vec2.norm, to the last bit
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


def side_contact_recover(a: Vec2, b: Vec2, p: SupportFunction) -> tuple[float, float]:
    """Tangency parameter of the side line through a, b, recovered from its
    normal form: candidates are theta + j*pi over the sheets. Returns
    (psi, gap) with the smallest support gap max(|<a,u>-p|, |<b,u>-p|)."""
    d = b - a
    nrm = d.norm()
    if nrm == 0.0:
        raise OracleError("degenerate side")
    n1 = Vec2(d.y / nrm, -d.x / nrm)
    theta = math.atan2(n1.y, n1.x)
    L = p.domain_length
    best = None
    for j in range(2 * p.sheets):
        psi = (theta + j * math.pi) % L
        u = Vec2(math.cos(psi), math.sin(psi))
        gap = max(abs(a.dot(u) - p.eval(psi)), abs(b.dot(u) - p.eval(psi)))
        if best is None or gap < best[1]:
            best = (psi, gap)
    return best


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
        d = {
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
        return d


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
    step_lift: Callable | None = None          # vertex-parameter step (oracle mode)
    step_inv_lift: Callable | None = None
    expected_turn: float | None = None         # uniform wrapped exterior angle
    expected_turns: tuple[float, ...] | None = None
    expected_side: float | None = None
    expect_interior: bool | None = None

    @property
    def domain_length(self) -> float:
        return self.vertex_curves[0].domain_length


def _angle_checks(report: VerificationReport, polygon_pts: list[Vec2],
                  expected: list[float] | None):
    if expected is None:
        return
    n = len(polygon_pts)
    dirs = [polygon_pts[(i + 1) % n] - polygon_pts[i] for i in range(n)]
    dev = 0.0
    for i in range(n):
        a, b = dirs[i - 1], dirs[i]
        turn = math.atan2(a.cross(b), a.dot(b))
        dev = max(dev, abs(wrap_pi(turn - expected[i % len(expected)])))
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
    if config.expected_turn is not None or config.expected_turns is not None:
        report.checks["equiangular"] = (report.max_angle_deviation or math.inf) < 1e-8
    if config.expected_side is not None:
        report.checks["equilateral"] = (report.side_length_spread or math.inf) < 1e-9
    if config.expect_interior is not None:
        interior = 0.0 < report.s_min and report.s_max < 1.0
        report.checks["interiority"] = interior == config.expect_interior
    return report


def _verify_oracle(config, starts, tol, report):
    K = config.vertex_curves[0]
    p = config.envelope_supports[0]
    L = K.domain_length
    count = config.count
    direction = None
    step_mismatch = 0.0
    first_steps = []

    for t0 in starts:
        t = float(t0)
        pts = [K.position(t)]
        params = [t]
        try:
            for j in range(count):
                step = next_vertex_oracle(K, p, t)
                a = pts[-1]
                b = K.position(step.t2)
                u = Vec2(math.cos(step.contact_parameter), math.sin(step.contact_parameter))
                pv = p.eval(step.contact_parameter)
                gap = max(abs(a.dot(u) - pv), abs(b.dot(u) - pv))
                report.max_tangency_gap = max(report.max_tangency_gap, gap)
                chord = (step.contact - a).dot(b - a) / (b - a).dot(b - a)
                report.s_min = min(report.s_min, chord)
                report.s_max = max(report.s_max, chord)
                if config.step_lift is not None:
                    fwd = float(config.step_lift(t))
                    rev = float(config.step_inv_lift(t)) if config.step_inv_lift else None
                    if direction is None:
                        d_f = circle_distance(step.t2, fwd, L)
                        d_r = circle_distance(step.t2, rev, L) if rev is not None else math.inf
                        direction = "forward" if d_f <= d_r else "reverse"
                    ref = fwd if direction == "forward" else rev
                    step_mismatch = max(step_mismatch, float(circle_distance(step.t2, ref, L)))
                t = step.t2
                pts.append(b)
                params.append(t)
        except OracleError as exc:
            report.errors.append(f"start {t0:.6f}: {exc}")
            continue

        closure = (pts[count] - pts[0]).norm()
        report.closure_error = max(report.closure_error, closure)
        if count > 1:
            premature = min((pts[j] - pts[0]).norm() for j in range(1, count))
            report.min_premature_closure = min(report.min_premature_closure, premature)
        sides = [(pts[j + 1] - pts[j]).norm() for j in range(count)]
        if config.expected_side is not None:
            spread = max(abs(s - config.expected_side) / config.expected_side for s in sides)
            report.side_length_spread = max(report.side_length_spread or 0.0, spread)
        if config.expected_turn is not None:
            # a reverse-walked polygon turns by the negated exterior angle
            sign = -1.0 if direction == "reverse" else 1.0
            _angle_checks(report, pts[:count], [sign * config.expected_turn])
        first_steps.append((float(t0), params[1]))

    if config.step_lift is not None and not report.errors:
        report.max_step_mismatch = step_mismatch
        report.oracle_direction = direction
        report.checks["oracle_step"] = step_mismatch < tol
        ordered = sorted(first_steps)
        jumps = np.diff(np.unwrap([s[1] for s in ordered], period=L))
        report.monotone_step = bool(np.all(jumps > 0))
        report.checks["monotone_step"] = report.monotone_step


def _verify_sequence(config, starts, tol, report):
    L = config.domain_length
    contact_mismatch = 0.0
    implicit: dict[int, list] = {}     # envelope index -> [(probe, side, a, b, contact)]
    for probe, t0 in enumerate(starts):
        poly = config.polygon(float(t0))
        report.closure_error = max(report.closure_error, poly.closure_gap)
        n = len(poly.vertices)
        if n > 1:
            premature = min((poly.vertices[j] - poly.vertices[0]).norm() for j in range(1, n))
            report.min_premature_closure = min(report.min_premature_closure, premature)
        for i, contact in enumerate(poly.contacts):
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % n]
            sup = config.envelope_supports[contact.envelope_index]
            if sup is not None:
                u = Vec2(math.cos(contact.parameter), math.sin(contact.parameter))
                pv = sup.eval(contact.parameter)
                gap = max(abs(a.dot(u) - pv), abs(b.dot(u) - pv))
                report.max_tangency_gap = max(report.max_tangency_gap, gap)
                psi_rec, rec_gap = side_contact_recover(a, b, sup)
                contact_mismatch = max(contact_mismatch,
                                       float(circle_distance(psi_rec, contact.parameter, L)))
            else:
                implicit.setdefault(contact.envelope_index, []).append(
                    (probe, i, a, b, contact))
            report.s_min = min(report.s_min, contact.chord)
            report.s_max = max(report.s_max, contact.chord)
        if config.expected_turns is not None:
            _angle_checks(report, list(poly.vertices), list(config.expected_turns))
        elif config.expected_turn is not None:
            _angle_checks(report, list(poly.vertices), [config.expected_turn])
        if config.expected_side is not None:
            sides = poly.side_lengths()
            spread = max(abs(s - config.expected_side) / config.expected_side for s in sides)
            report.side_length_spread = max(report.side_length_spread or 0.0, spread)

    errors = []                        # ((probe, side), message)
    for k, sides in implicit.items():
        env = config.envelopes[k]
        grid_ts = np.linspace(0.0, env.domain_length, GRID, endpoint=False)
        grid_pts = env.positions(grid_ts)
        _, _, starts_, ends_, contacts = zip(*sides)
        recovered, unconverged = parametric_side_contacts(
            [tuple(v) for v in starts_], [tuple(v) for v in ends_], env, grid_ts, grid_pts,
            dist_tol=max(tol, 1e-8))
        tangents = env.jet_many([c.parameter for c in contacts])[1]
        for (probe, i, a, b, contact), found, stuck, vel in zip(
                sides, recovered, unconverged, tangents):
            tangent = Vec2(*vel)
            side = b - a
            ang = abs(math.asin(max(-1.0, min(1.0,
                      (tangent.cross(side)) / (tangent.norm() * side.norm())))))
            gap = max(_point_line_distance(contact.point, a, b), ang)
            report.max_tangency_gap = max(report.max_tangency_gap, gap)
            if stuck:
                errors.append(((probe, i), f"{stuck} contact bracket(s) of side {i} on "
                                           f"envelope {k} near t = {contact.parameter:.6f} "
                                           "did not converge"))
            if found:
                near = min(circle_distance(t, contact.parameter, env.domain_length)
                           for t in found)
                contact_mismatch = max(contact_mismatch, float(near))
            else:
                errors.append(((probe, i), f"no tangency of side {i} recovered on envelope "
                                           f"{k} near t = {contact.parameter:.6f}"))
    report.errors.extend(msg for _, msg in sorted(errors, key=lambda e: e[0]))

    report.max_step_mismatch = contact_mismatch
    report.checks["contact_recovery"] = contact_mismatch < tol


def _point_line_distance(x: Vec2, a: Vec2, b: Vec2) -> float:
    d = b - a
    return abs(d.cross(x - a)) / d.norm()


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
