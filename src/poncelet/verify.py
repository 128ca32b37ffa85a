"""Independent numerical verification of constructed pairs and clans.

The forward oracle rebuilds the next-vertex map of a finished pair from
tangent-line geometry alone: from a vertex Q outside the envelope it
locates the tangent parameter psi with the contact ahead of Q along the
envelope's orientation (roots of <Q, u(psi)> - p(psi)), then intersects
that tangent line with the vertex curve again. It steps all probes in
lockstep, and a step is a fixed number of array operations on all live
probes: one (probes, grid) scan per root search on grid values computed
once per walk, all brackets refined together, forward tangents and hits
picked by masks and counts. A probe whose step fails drops out with its
error, and the others go on; the parameters of the probes that close are
the oracle's walk. Its vertex parameters are compared with the
construction's walk from the same starts, in order and reversed (against
the step map f the oracle meets f^-j = f^(n-j)): max_step_mismatch is the
largest vertex-parameter distance between the two, in the closer order.
For self-intersecting vertex curves, where forward tangent selection is
ambiguous, the walk is the construction's own parameter sequence instead,
and each side's tangency parameter is then recovered independently from
its normal form, for all sides of one envelope in one array call.

Either walk is assembled on the configuration's own curves (so a moved
curve moves the checked polygon) and measured by one function,
_polygon_metrics, on (probes, n, 2) arrays. A polygon is its n vertices
taken cyclically: the closing side runs from vertex n - 1 to vertex 0, and
the closure error is how far the step after vertex n - 1 lands from vertex
0. Every metric covers the probes whose polygons close.

Envelopes without a support function are checked by recovering each side's
contact from the envelope's parametrization: every side of every probe's
polygon that touches such an envelope is solved in lockstep, from one
order-2 jet of the envelope on the grid and one batched jet evaluation per
solver iteration for all sides together. Every bracket is refined by
poncelet.roots.newton_roots, Newton steps from each cell's secant point on
the slope that one evaluation gives with the value: C's derivatives and
K's order-1 jet in the oracle's circle scans, the envelope's order-2 jet
in the contact solves, and the secant through the last two points where
the slope would need an order-3 jet (roots.secant_roots). A bracket that
does not converge is a report error, never a silent last point, and so is
a recovered contact that misses the walk's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circlemaps import circle_distance
from .equiangular import PonceletPolygon, Walk, assemble
from .roots import GRID, circle_roots, newton_roots, secant_point, secant_roots, sign_change
from .support import PlaneCurve, SupportFunction


# The verifier holds every probe's polygon sides at once, so the probe count
# sets its memory as well as its time.
MIN_PROBES = 8
MAX_PROBES = 1024
# Vertices per polygon, the other factor of the verifier's work. The same
# bound caps torsion periods and clan step counts where a document is read.
# At 63 vertices and 1024 probes the clans verify in 0.1 to 2.4 s; the
# polygons of all probes are one walk and one positions call per curve, and
# contact recovery on the n envelopes of clan-from-vertex takes most of it.
MAX_VERTICES = 64
# Sheets of a support function. Contact recovery tries 2 candidate tangents
# per sheet of the support's period, up to k, for every side of every probe,
# _SIDE_BLOCK sides at a time: at 64 (l_den = 64), 63 vertices and 1024
# probes, vertex-from-envelope verifies in 2 s and peaks at 84 MB RSS.
MAX_SHEETS = 64


class OracleError(RuntimeError):
    pass


def _circle_roots(fn, L: float, ts: np.ndarray,
                  vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, OracleError]]:
    """roots.circle_roots for the oracle: (row, root), and {row: OracleError}
    for the rows with an unconverged bracket, which get no roots."""
    row, x, open_ = circle_roots(fn, L, ts, vals)
    errors = {r: OracleError("root refinement did not converge near t = " + ", ".join(
        f"{t:.6f}" for t in x[(row == r) & open_])) for r in np.unique(row[open_]).tolist()}
    keep = ~np.isin(row, list(errors)) if errors else slice(None)
    return row[keep], x[keep], errors


def tangent_parameters(q: np.ndarray, p: SupportFunction, grid: tuple):
    """The psi in [0, 2*k*pi) whose tangent line passes through each point
    q[i], as _circle_roots gives them: (row, psi, errors). grid holds the
    scan points of p's circle and cos, sin and p there (see _oracle_grid)."""
    q = np.asarray(q, dtype=float).reshape(-1, 2)
    ts, cos, sin, pv = grid

    def fn(ts, row):
        (p0, p1), cos, sin = p.derivatives(ts, 2), np.cos(ts), np.sin(ts)
        return q[row, 0] * cos + q[row, 1] * sin - p0, q[row, 1] * cos - q[row, 0] * sin - p1

    return _circle_roots(fn, p.domain_length, ts, q[:, :1] * cos + q[:, 1:] * sin - pv)


def _oracle_grid(K: PlaneCurve, C: SupportFunction) -> tuple[tuple, tuple]:
    """What no start changes in an oracle step's two circle scans: C's scan
    points with cos, sin and C there, and K's scan points with K there."""
    ts = np.linspace(0.0, C.domain_length, GRID, endpoint=False)
    tk = np.linspace(0.0, K.domain_length, GRID, endpoint=False)
    return (ts, np.cos(ts), np.sin(ts), C.eval(ts)), (tk, K.positions(tk))


def _oracle_step(K: PlaneCurve, C: SupportFunction, t1s: np.ndarray, grid: tuple):
    """One oracle step from every vertex K(t1s[i]), as arrays: the rows i
    that step (ascending), their next vertex parameters t2 and contact
    parameters psi, and {i: OracleError} for the rest. A row's failure does
    not stop the others."""
    n = len(t1s)
    envelope_grid, (tk, kpts) = grid
    q = K.positions(t1s)
    owner, psi, errors = tangent_parameters(q, C, envelope_grid)
    for i in np.flatnonzero(np.bincount(owner, minlength=n) == 0).tolist():
        errors.setdefault(i, OracleError(f"no tangent line through K({float(t1s[i])}): "
                                         "point inside the envelope?"))
    # forward tangents: the contact X(psi) lies ahead of K(t1) along the
    # envelope, <X(psi) - K(t1), u'(psi)> = p'(psi) + x sin(psi) - y cos(psi) > 0
    (pv, dp), cos, sin = C.derivatives(psi, 2), np.cos(psi), np.sin(psi)
    ahead = (dp + q[owner, 0] * sin - q[owner, 1] * cos) > 0.0
    fwd = np.bincount(owner[ahead], minlength=n)
    for i in set(np.flatnonzero(fwd != 1).tolist()) - errors.keys():
        t = float(t1s[i])
        errors[i] = OracleError(f"no forward tangent from K({t})" if not fwd[i] else
                                f"forward tangent from K({t}) is ambiguous (candidates "
                                + ", ".join(f"{x:.6f}" for x in psi[ahead & (owner == i)]) + ")")
    picks = np.flatnonzero(ahead & (fwd[owner] == 1))
    lines = owner[picks]
    ux, uy, pv = cos[picks], sin[picks], pv[picks]
    L = K.domain_length

    def line_fn(ts, row):
        pts, vel = K.jet_many(ts, 1)
        return (pts[:, 0] * ux[row] + pts[:, 1] * uy[row] - pv[row],
                vel[:, 0] * ux[row] + vel[:, 1] * uy[row])

    row, hit, line_errors = _circle_roots(line_fn, L, tk, kpts[:, 0] * ux[:, None]
                                          + kpts[:, 1] * uy[:, None] - pv[:, None])
    far = circle_distance(hit, t1s[lines[row]], L) > 1e-6 * L
    row, hit = row[far], hit[far]
    hits = np.bincount(row, minlength=len(lines))
    errors.update((int(lines[r]), e) for r, e in line_errors.items())
    for r in set(np.flatnonzero(hits != 1).tolist()) - line_errors.keys():
        p, t = float(psi[picks[r]]), float(t1s[lines[r]])
        errors[int(lines[r])] = OracleError(
            f"tangent line at psi={p} meets K only at t1={t}" if not hits[r] else
            f"tangent line at psi={p} meets K at several parameters "
            + ", ".join(f"{h:.6f}" for h in hit[row == r]))
    one = hits[row] == 1
    row, j = row[one], picks[row[one]]
    return lines[row], hit[one], psi[j], errors


def parametric_side_contacts(a: np.ndarray, b: np.ndarray, curve: PlaneCurve,
                             dist_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameters where the curve is tangent to each side line through a[k], b[k].

    Tangency means a simple zero of g' = d/dt <X(t) - a, n>, the derivative
    of the signed distance g to the line; transversal crossings have no
    such zero at their distance minimum and drop out automatically. The
    curve's order-2 jet (X, X', X'') is taken once on GRID points,
    equispaced over its domain. Every side is solved in lockstep: its (at
    most 8) nearest local distance minima on the grid give cells from the
    grid point before to the one after, those where g' changes sign are
    refined together by newton_roots on the slope g'' = <X'', n> of the same
    jets, and refined points farther than dist_tol from their line are
    dropped. By Rolle's theorem a cell where g' keeps its sign at both ends
    can still hold two zeros of g' (next to a near-cusp of the curve) only
    if g'' changes sign in it; such a cell is split at the zero of g'',
    which secant_roots finds (its slope would need an order-3 jet), and each
    half where g' changes sign is refined. Returns the candidates as two
    arrays (side, t), t reduced mod the domain length, in ascending side
    order and nearest minimum first within a side, and the number of each
    side's brackets that did not converge.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    d = np.asarray(b, dtype=float).reshape(-1, 2) - a
    nrm = np.hypot(d[:, 0], d[:, 1])
    nx, ny = -d[:, 1] / nrm, d[:, 0] / nrm
    L = curve.domain_length
    grid_ts = np.linspace(0.0, L, GRID, endpoint=False)
    grid_pts, grid_vel, grid_acc = curve.jet_many(grid_ts)
    side, cand = _distance_minima(a, nx, ny, grid_pts)
    step = L / GRID
    ends = grid_ts[cand] + np.array([[-step], [step]])     # each cell's [lo, hi]
    at = (cand + np.array([[-1], [1]])) % GRID             # their grid points

    def normal(x, k):
        return x[..., 0] * nx[k] + x[..., 1] * ny[k]

    g1, g2 = normal(grid_vel[at], side), normal(grid_acc[at], side)
    signed = sign_change(*g1)
    # g' of one strict sign at both ends, g'' changing sign
    cells, mid, gmid = np.flatnonzero(sign_change(g1[0], -g1[1]) & sign_change(*g2)), [], []
    if cells.size:   # a jet evaluation costs about as much on no points as on one
        # any split point is sound: the halves' brackets are checked below
        mid = secant_roots(lambda t, i: normal(curve.jet_many(t)[2], side[cells[i]]),
                           *ends[:, cells], *g2[:, cells])[0]
        gmid = normal(curve.jet_many(mid, 1)[1], side[cells])
        turn = sign_change(gmid, g1[0, cells])
        cells, mid, gmid = cells[turn], mid[turn], gmid[turn]
    order = np.argsort(np.concatenate([np.flatnonzero(signed), cells, cells]), kind="stable")
    side = np.concatenate([side[signed], side[cells], side[cells]])[order]
    lo, hi = np.concatenate([ends[:, signed], [ends[0, cells], mid], [mid, ends[1, cells]]],
                            axis=1)[:, order]
    flo, fhi = np.concatenate([g1[:, signed], [g1[0, cells], gmid], [gmid, g1[1, cells]]],
                              axis=1)[:, order]

    def derivatives(t, i):
        """g' and its slope g'' at t of bracket i's side line."""
        _, vel, acc = curve.jet_many(t)
        return normal(vel, side[i]), normal(acc, side[i])

    roots, open_ = newton_roots(derivatives, secant_point(lo, hi, flo, fhi), lo, hi, flo < 0,
                                xtol=1e-15)
    t, s = roots[~open_], side[~open_]
    pts = curve.positions(t)
    near = np.abs((pts[:, 0] - a[s, 0]) * nx[s] + (pts[:, 1] - a[s, 1]) * ny[s]) < dist_tol
    return s[near], t[near] % L, np.bincount(side[open_], minlength=len(a))


# sides per block of the contact scans: bounds their (sides x grid) and
# (sides x candidates) arrays
_SIDE_BLOCK = 256


def _distance_minima(a: np.ndarray, nx: np.ndarray, ny: np.ndarray,
                     grid_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(side, grid index) of the 8 smallest local minima of each side line's
    distance over the grid points, nearest first within a side."""
    sides, idx = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]     # for no sides at all
    for k0 in range(0, len(a), _SIDE_BLOCK):
        k = slice(k0, k0 + _SIDE_BLOCK)
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
    its normal form: candidates are theta + j*pi over one period of p (see
    SupportFunction.period), where the curve does not repeat. Returns (psi,
    gap) per side with the smallest support gap max(|<a,u>-p|, |<b,u>-p|).
    The sides are scanned _SIDE_BLOCK at a time."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = b - a
    nrm = np.hypot(d[:, 0], d[:, 1])
    if np.any(nrm == 0.0):
        raise OracleError("degenerate side")
    theta = np.arctan2(-d[:, 0] / nrm, d[:, 1] / nrm)
    turns = np.arange(round(p.period / math.pi)) * math.pi
    out = np.empty((2, len(a)))
    for k0 in range(0, len(a), _SIDE_BLOCK):
        k = slice(k0, k0 + _SIDE_BLOCK)
        psi = np.mod(theta[k, None] + turns, p.period)
        gap = _support_gap(a[k, None], b[k, None], psi, p)
        best = np.argmin(gap, axis=1)[:, None]
        out[:, k] = (np.take_along_axis(psi, best, axis=1)[:, 0],
                     np.take_along_axis(gap, best, axis=1)[:, 0])
    return out[0], out[1]


@dataclass
class VerificationReport:
    label: str
    probes: int
    tol: float
    mode: str
    # the polygon metrics stay None until a closed polygon is measured
    closure_error: float | None = None
    min_premature_closure: float | None = None
    max_tangency_gap: float | None = None
    max_angle_deviation: float | None = None
    side_length_spread: float | None = None
    s_min: float | None = None
    s_max: float | None = None
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
    polygon: Callable[[float], PonceletPolygon]          # one start, for render
    walk: Callable[[np.ndarray], Walk]                   # the parameters of every start
    mode: str                                  # "oracle" | "sequence"
    expected_turns: tuple[float, ...] | None = None   # wrapped exterior angles, cyclic
    expected_side: float | None = None
    expect_interior: bool | None = None

    @property
    def domain_length(self) -> float:
        return self.vertex_curves[0].domain_length

    @property
    def count(self) -> int:
        """Vertices per polygon."""
        return self.walk(np.zeros(1)).contact_params.shape[1]


def verify_pair(config: PonceletConfiguration, probes: int = 64,
                tol: float | None = None) -> VerificationReport:
    """Run every applicable check for the configuration; never raises for
    per-probe oracle failures (they are recorded in the report)."""
    L = config.domain_length
    if tol is None:
        tol = 1e-7 * L
    if not MIN_PROBES <= probes <= MAX_PROBES:
        raise ValueError(f"need {MIN_PROBES} to {MAX_PROBES} probes, got {probes}")
    if not tol > 0.0:
        raise ValueError(f"need a positive tol, got {tol}")
    report = VerificationReport(config.label, probes, tol, config.mode)
    starts = (np.linspace(0.0, L, probes, endpoint=False) + 0.05 * L / probes)

    if config.mode == "oracle":
        _verify_oracle(config, starts, tol, report)
    else:
        _verify_sequence(config, starts, tol, report)

    report.regularity_min_speed = float(np.min([c.min_speed() for c in config.vertex_curves]))
    _judge(report, config, tol)
    return report


def _judge(report: VerificationReport, config, tol: float):
    """The checks of the report's metrics; a missing or NaN metric fails."""
    closure, premature = report.closure_error, report.min_premature_closure
    gap = report.max_tangency_gap
    report.checks["closure"] = closure is not None and closure < tol
    report.checks["no_premature_closure"] = premature is not None and premature > tol
    report.checks["tangency"] = gap is not None and gap < max(tol, 1e-8)
    if config.expected_turns is not None:
        dev = report.max_angle_deviation
        report.checks["equiangular"] = dev is not None and dev < 1e-8
    if config.expected_side is not None:
        spread = report.side_length_spread
        report.checks["equilateral"] = spread is not None and spread < 1e-9
    if config.expect_interior is not None:
        interior = report.s_min is not None and 0.0 < report.s_min and report.s_max < 1.0
        report.checks["interiority"] = interior == config.expect_interior


def _envelope_sides(poly: PonceletPolygon, k: int):
    """The sides of the stacked polygons that touch envelope k: their probe
    and side indices, end vertices and contact parameters."""
    probe, side = np.nonzero(poly.envelope_index == k)
    v = poly.vertices
    return (probe, side, v[probe, side], v[probe, (side + 1) % v.shape[1]],
            poly.contact_parameters[probe, side])


def _polygon_metrics(report: VerificationReport, config, poly: PonceletPolygon, turns):
    """Every polygon statistic of the stacked polygons (probes, n), whatever
    walked them: closure, chord range, premature closure, side-length
    spread, exterior-angle deviation from the turns (cyclic over the
    vertices) and the tangency gap on every envelope. A polygon is its n
    vertices taken cyclically; side i runs from vertex i to vertex i + 1."""
    v = poly.vertices
    count = v.shape[1]
    d = np.roll(v, -1, axis=1) - v
    side = np.hypot(d[..., 0], d[..., 1])
    # np.max and np.min keep a NaN, which then fails its check
    report.closure_error = float(np.max(poly.closure_gap))
    report.s_min, report.s_max = float(np.min(poly.chords)), float(np.max(poly.chords))
    shift = v[:, 1:] - v[:, :1]
    report.min_premature_closure = float(np.min(np.hypot(shift[..., 0], shift[..., 1]),
                                                initial=math.inf))
    if config.expected_side is not None:
        e = config.expected_side
        report.side_length_spread = float(np.max(np.abs(side - e) / e))
    if turns is not None:
        prev = np.roll(d, 1, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):    # huge sides: a NaN turn fails
            turn = np.arctan2(prev[..., 0] * d[..., 1] - prev[..., 1] * d[..., 0],
                              prev[..., 0] * d[..., 0] + prev[..., 1] * d[..., 1])
        dev = np.mod(turn - np.resize(turns, count) + math.pi, 2.0 * math.pi) - math.pi
        report.max_angle_deviation = float(np.max(np.abs(dev)))
    report.max_tangency_gap = 0.0
    for k, (curve, sup) in enumerate(zip(config.envelopes, config.envelope_supports)):
        probe, i, a, b, at = _envelope_sides(poly, k)
        if not probe.size:
            continue
        if sup is not None:
            gap = _support_gap(a, b, at, sup)
        else:
            # the contact must lie on the side line, tangent to it
            vel = curve.jet_many(at, 1)[1]
            dk, r, length = d[probe, i], poly.contacts[probe, i] - a, side[probe, i]
            with np.errstate(divide="ignore", invalid="ignore"):   # zero length: a NaN gap fails
                sin = (vel[:, 0] * dk[:, 1] - vel[:, 1] * dk[:, 0]) / (
                    np.hypot(vel[:, 0], vel[:, 1]) * length)
                gap = np.maximum(np.abs(dk[:, 0] * r[:, 1] - dk[:, 1] * r[:, 0]) / length,
                                 np.abs(np.arcsin(np.clip(sin, -1.0, 1.0))))
        report.max_tangency_gap = float(np.maximum(report.max_tangency_gap, np.max(gap)))


def _verify_oracle(config, starts, tol, report):
    """Walk every probe's polygon in lockstep: one oracle step per step index
    for all probes still live; a probe whose step fails drops out with its
    error and the others go on. The walks of the probes that close are
    measured like any other walk, and their vertex parameters are compared
    with the construction's walk from the same starts, in order and
    reversed: an oracle that walks against the step map meets f^-j = f^(n-j)."""
    K = config.vertex_curves[0]
    p = config.envelope_supports[0]
    L = K.domain_length
    count = config.count
    params, psis = np.empty((len(starts), count + 1)), np.empty((len(starts), count))
    params[:, 0] = starts
    live = np.ones(len(starts), dtype=bool)
    failed: dict[int, OracleError] = {}

    grid = _oracle_grid(K, p)
    for j in range(count):
        probes = np.nonzero(live)[0]
        done, t2, psi, errors = _oracle_step(K, p, params[probes, j], grid)
        failed.update((probes[i], err) for i, err in errors.items())
        live[probes[list(errors)]] = False
        params[probes[done], j + 1], psis[probes[done], j] = t2, psi
        if not live.any():
            break

    report.errors.extend(f"start {starts[i]:.6f}: {failed[i]}" for i in sorted(failed))
    if not live.any():
        return
    claimed = config.walk(starts[live]).vertex_params
    mismatch = {d: float(np.max(circle_distance(params[live], c, L)))
                for d, c in (("forward", claimed), ("reverse", claimed[:, ::-1]))}
    direction = min(mismatch, key=mismatch.get)
    # a reverse-walked polygon turns by the negated exterior angles
    sign = -1.0 if direction == "reverse" else 1.0
    turns = None if config.expected_turns is None else sign * np.array(config.expected_turns)
    poly = assemble(Walk(params[live], 0, psis[live], 0), config.vertex_curves, config.envelopes)
    _polygon_metrics(report, config, poly, turns)

    if not report.errors:
        report.max_step_mismatch = mismatch[direction]
        report.oracle_direction = direction
        report.checks["oracle_step"] = mismatch[direction] < tol
        jumps = np.diff(np.unwrap(params[:, 1], period=L))
        report.monotone_step = bool(np.all(jumps > 0))
        report.checks["monotone_step"] = report.monotone_step


def _verify_sequence(config, starts, tol, report):
    """Measure the polygons of every probe's walk, assembled on the
    configuration's curves, and recover each side's contact on its envelope
    independently of the construction's contact parameter. One rule holds
    for both kinds of envelope: a side whose ends coincide has no line to
    recover a contact from and is a zero-length error; every other side goes
    to its envelope's recoverer (side_contact_recover, one candidate per
    side, for a support function, else parametric_side_contacts), whose
    candidates are (side, parameter) arrays; each side keeps the candidate
    nearest the walk's contact. A side with unconverged brackets, with no
    candidate, or whose kept candidate misses the walk's contact parameter
    by tol or more is a report error; a miss names both parameters."""
    poly = assemble(config.walk(starts), config.vertex_curves, config.envelopes)
    _polygon_metrics(report, config, poly, config.expected_turns)
    mismatch = 0.0
    errors = []                        # ((probe, side), message)
    for k, (curve, sup) in enumerate(zip(config.envelopes, config.envelope_supports)):
        probe, side, a, b, at = _envelope_sides(poly, k)
        flat = np.all(a == b, axis=1)
        kept = np.flatnonzero(~flat)
        stuck = np.zeros(len(at), dtype=int)
        if sup is not None:
            owner, got = kept, side_contact_recover(a[kept], b[kept], sup)[0]
            period = sup.period
        else:
            owner, got, stuck[kept] = parametric_side_contacts(a[kept], b[kept], curve,
                                                              dist_tol=max(tol, 1e-8))
            owner, period = kept[owner], curve.domain_length
        dist = circle_distance(got, at[owner], period)
        order = np.lexsort((dist, owner))
        pick = np.full(len(at), -1)        # each side's nearest candidate; none: -1, near inf
        has, first = np.unique(owner[order], return_index=True)
        pick[has] = order[first]
        near = np.append(dist, np.inf)[pick]
        if has.size:
            mismatch = float(np.maximum(mismatch, np.max(near[has])))
        for i in np.flatnonzero((stuck > 0) | ~(near < tol)):
            where, j = (int(probe[i]), int(side[i])), pick[i]
            if stuck[i]:
                errors.append((where, f"{stuck[i]} contact bracket(s) of side {side[i]} on "
                                      f"envelope {k} near t = {at[i]:.6f} did not converge"))
            if flat[i]:
                errors.append((where, f"side {side[i]} on envelope {k} has zero length"))
            elif j < 0:
                errors.append((where, f"no tangency of side {side[i]} recovered on "
                                      f"envelope {k} near t = {at[i]:.6f}"))
            elif not near[i] < tol:
                errors.append((where, f"start {starts[probe[i]]:.6f}: contact of side {side[i]} "
                                      f"on envelope {k} recovered at t = {got[j]:.6f}, not at "
                                      f"the walk's t = {at[i]:.6f} (mismatch {near[i]:.6g})"))
    report.errors.extend(msg for _, msg in sorted(errors, key=lambda e: e[0]))

    report.max_step_mismatch = mismatch
    report.checks["contact_recovery"] = mismatch < tol


@dataclass(frozen=True)
class RegularityScan:
    min_speed: float
    near_zeros: tuple[tuple[float, float], ...]   # (parameter, refined speed)
    samples: int


def regularity_scan(curve: PlaneCurve, samples: int = 1024) -> RegularityScan:
    """Minimum |velocity| over samples; low local minima are refined as
    zeros of <X', X''> = (1/2) d|X'|^2/dt and those below zero_tol = 1e-6
    reported as near-singular parameters."""
    if samples < 64:
        raise ValueError("need at least 64 samples")
    L, zero_tol = curve.domain_length, 1e-6
    ts = np.linspace(0.0, L, samples, endpoint=False)
    vel = curve.jet_many(ts, 1)[1]
    speed = np.hypot(vel[:, 0], vel[:, 1])
    is_min = (speed < np.roll(speed, 1)) & (speed <= np.roll(speed, -1))
    cut = max(np.median(speed) * 0.25, 10 * zero_tol)
    low = ts[np.nonzero(is_min & (speed < cut))[0]]

    def slope(t, _):
        _, v, a = curve.jet_many(t)
        return v[:, 0] * a[:, 0] + v[:, 1] * a[:, 1]

    lo, hi = low - L / samples, low + L / samples
    ends = slope(np.concatenate([lo, hi]), None).reshape(2, -1)
    signed = ~sign_change(ends[0], -ends[1])     # all but the ends of one strict sign
    roots, open_ = secant_roots(slope, lo[signed], hi[signed], *ends[:, signed])
    if open_.any():
        raise RuntimeError("speed minimum refinement did not converge near t = "
                           + ", ".join(f"{t:.6f}" for t in roots[open_] % L))
    vel = curve.jet_many(roots, 1)[1]
    near = tuple((float(t % L), float(v)) for t, v in zip(roots, np.hypot(vel[:, 0], vel[:, 1]))
                 if v < zero_tol)
    return RegularityScan(float(np.min(speed)), near, samples)
