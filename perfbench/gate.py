"""Correctness gate applied to every benchmark op.

An op passes only if its verification report passes with exactly the
checks the verifier ran for that kind of scene at the benchmark's first
commit (so a change that drops a check cannot look faster), the scene
landed in the mode its workload intends, the SVG has one path per curve
and per polygon, and every CSV has one row per sample plus the header.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

_BASE = frozenset({"closure", "no_premature_closure", "tangency"})
_ORACLE = _BASE | {"equiangular", "oracle_step", "monotone_step"}
_SEQUENCE = _BASE | {"contact_recovery"}

# (construction, mode) -> check names the verifier reports, measured at the
# benchmark's first commit. "interiority" is added when the document sets
# verify.expect_interior.
EXPECTED_CHECKS: dict[tuple[str, str], frozenset[str]] = {
    ("equiangular-pair", "oracle"): _ORACLE,
    ("equilateral", "oracle"): _ORACLE | {"equilateral"},
    ("equilateral", "sequence"): _SEQUENCE | {"equiangular", "equilateral"},
    ("equiangular-clan", "sequence"): _SEQUENCE | {"equiangular"},
    ("envelope-from-vertex", "sequence"): _SEQUENCE,
    ("clan-from-vertex", "sequence"): _SEQUENCE,
    ("clan-from-envelope", "sequence"): _SEQUENCE,
}


def expected_checks(doc: dict, mode: str) -> frozenset[str]:
    checks = EXPECTED_CHECKS[(doc["construction"], mode)]
    if doc.get("verify", {}).get("expect_interior") is not None:
        checks = checks | {"interiority"}
    return checks


def check_scene(case, scene) -> list[str]:
    """Problems with where the built scene landed."""
    cfg = scene.configuration
    problems = []
    if cfg.mode != case.mode:
        problems.append(f"mode {cfg.mode!r}, expected {case.mode!r}")
    has_support = [s is not None for s in cfg.envelope_supports]
    want = case.envelopes == "support"
    if any(h != want for h in has_support):
        problems.append(f"envelopes are not all {case.envelopes}")
    return problems


def check_report(case, report) -> list[str]:
    """Problems with a verification report of a scene that should pass."""
    problems = []
    want = expected_checks(case.doc, case.mode)
    got = set(report.checks)
    if got != want:
        problems.append(f"checks {sorted(got)}, expected {sorted(want)}")
    if not report.passed:
        failed = sorted(k for k, v in report.checks.items() if not v)
        problems.append(f"verification failed: checks {failed}, errors {report.errors[:3]}")
    return problems


def check_outputs(scene, svg: str, csvs: list[str]) -> list[str]:
    problems = []
    samples = scene.render_options.samples
    want_paths = len(scene.curve_table()) + len(scene.render_options.polygon_starts)
    paths = svg.count("<path ")
    if not svg.startswith("<?xml") or paths != want_paths:
        problems.append(f"svg has {paths} paths, expected {want_paths}")
    for i, csv in enumerate(csvs):
        rows = csv.count("\n")
        if rows != samples + 1:
            problems.append(f"csv {i} has {rows} rows, expected {samples + 1}")
    return problems


def worst_error(report) -> float:
    """Largest closure error, tangency gap or step/contact mismatch."""
    values = [report.closure_error, report.max_tangency_gap]
    if report.max_step_mismatch is not None:
        values.append(report.max_step_mismatch)
    return max(values)


def accuracy_digits(worst: float) -> float:
    return -math.log10(max(worst, 1e-17))


# --- negative controls -------------------------------------------------------

CONTROL_SHIFT = 1e-3
CONTROL_KINDS = ("envelope-bump", "vertex-shift")


def _moved_curve(curve, offset):
    """The curve with offset(ts, positions) added to every position."""
    def position_fn(ts):
        pos = curve.positions(ts)
        return pos + offset(ts, pos)

    def jet_fn(ts):
        pos, vel, acc = curve.jet_many(ts)
        return pos + offset(ts, pos), vel, acc

    return dataclasses.replace(curve, jet_fn=jet_fn, position_fn=position_fn)


def _offset_along_normal(curve, eps):
    """Parallel curve at distance eps: what bumping a support constant does."""
    def offset(ts, pos):
        vel = curve.jet_many(ts)[1]
        speed = np.hypot(vel[:, 0], vel[:, 1])[:, None]
        return eps * np.stack([vel[:, 1], -vel[:, 0]], axis=1) / speed
    return _moved_curve(curve, offset)


def controls(configuration) -> dict[str, object]:
    """Perturbed copies of a verified configuration; each must fail.

    envelope-bump: the envelope support constant raised by 1e-3, or for an
    envelope without a support function, the parallel curve at 1e-3.
    vertex-shift: the vertex curves moved by 1e-3 along x; in sequence mode
    the polygons, which the verifier takes from the configuration, move too.
    """
    cfg = configuration
    shift = (CONTROL_SHIFT, 0.0)
    if all(s is not None for s in cfg.envelope_supports):
        bumped = dataclasses.replace(
            cfg, envelope_supports=tuple(
                dataclasses.replace(s, constant=s.constant + CONTROL_SHIFT)
                for s in cfg.envelope_supports))
    else:
        bumped = dataclasses.replace(
            cfg, envelopes=tuple(_offset_along_normal(e, CONTROL_SHIFT)
                                 for e in cfg.envelopes))
    moved = dataclasses.replace(
        cfg, vertex_curves=tuple(_moved_curve(k, lambda ts, pos: np.array(shift))
                                 for k in cfg.vertex_curves))
    if cfg.mode != "oracle":
        original = cfg.polygon

        def shifted_polygon(start):
            poly = original(start)
            return dataclasses.replace(
                poly, vertices=tuple(type(v)(v.x + shift[0], v.y + shift[1])
                                     for v in poly.vertices))

        moved = dataclasses.replace(moved, polygon=shifted_polygon)
    return dict(zip(CONTROL_KINDS, (bumped, moved)))
