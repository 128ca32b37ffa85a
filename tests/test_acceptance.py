"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet.envelope import VertexStepSystem, envelope_from_vertex, interiority_check
from poncelet.equiangular import equilateral_pair, vertex_count
from poncelet.geometry import polyline_self_intersects
from poncelet.render import render_svg
from poncelet.scene import load_scene
from poncelet.support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support
from poncelet.verify import verify_pair

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
CONFIG_PATHS = sorted(CONFIG_DIR.glob("*.json"))

TWO_PI = 2 * math.pi


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    scenes = {p.stem: load_scene(str(p)) for p in CONFIG_PATHS}
    reports = {name: scene.verify(probes=64) for name, scene in scenes.items()}
    return scenes, reports


def test_criterion_01_equilateral_side_length():
    pair = equilateral_pair(1, Fraction(2), 8 / 5)
    expected = 2 * (8 / 5) * math.tan(math.pi / 3)
    worst_side = 0.0
    worst_mid = 0.0
    for start in np.linspace(0.0, TWO_PI, 64, endpoint=False):
        v = pair.polygon(float(start)).vertices
        for s in np.hypot(*(np.roll(v, -1, axis=0) - v).T):
            worst_side = max(worst_side, abs(s - expected) / expected)
        worst_mid = max(worst_mid, abs(math.hypot(*v.mean(axis=0)) - 1.0))
    _report(1, "equilateral side length 2a*tan(pi/3) and unit midpoint circle",
            worst_side < 1e-9 and worst_mid < 1e-12,
            f"side rel err {worst_side:.2e}, midpoint err {worst_mid:.2e}")


def test_criterion_02_wankel_verifies(corpus):
    _, reports = corpus
    rep = reports["wankel"]
    ok = (rep.passed and rep.closure_error < 1e-7 and rep.max_tangency_gap < 1e-8
          and 0.0 < rep.s_min and rep.s_max < 1.0)
    _report(2, "Wankel pair (a = 2 + sqrt(3)) closure/tangency/interior contacts",
            ok, f"closure {rep.closure_error:.2e}, tangency {rep.max_tangency_gap:.2e}, "
                f"s in [{rep.s_min:.3f}, {rep.s_max:.3f}]")


def test_criterion_03_vertex_counts():
    triangle = vertex_count(Fraction(2, 3), 1)
    hexagon = vertex_count(Fraction(5, 3), 1)
    pentagram = equilateral_pair(4, Fraction(2, 3), math.cos(2 * math.pi / 5) * 25 / 9).count
    ok = (triangle, hexagon, pentagram) == (3, 6, 5)
    _report(3, "vertex counts 3 / 6 / 5 by exact rational arithmetic", ok,
            f"got {triangle}, {hexagon}, {pentagram}")


def test_criterion_04_rotation_number_and_conjugator():
    h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.09, -0.03),
                                      cm.FourierTerm(2, 0.0, 0.04)))
    f = cm.make_torsion(h, 2, 5)
    tau = cm.rotation_number(f.map, 10**4)
    H = cm.conjugator_to_rotation(f)
    xs = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    conj_err = float(np.max(np.abs(H.lift(f.map.lift(xs)) - H.lift(xs) - 2 * TWO_PI / 5)))
    ok = abs(tau - 0.4) < 1e-3 and conj_err < 1e-8
    _report(4, "rotation number 2/5 at 1e4 iterations and conjugator identity",
            ok, f"tau err {abs(tau - 0.4):.2e}, conjugation err {conj_err:.2e}")


def test_criterion_05_envelope_chord_specialization():
    # derived from the side-family definition: s = (1 + cot(pi/l) p'/p)/2;
    # the printed square on the cotangent is a misprint (see decisions ledger)
    worst = 0.0
    for l, n, a in ((Fraction(3), 3, 17.3), (Fraction(5), 5, 49.2),
                    (Fraction(4, 3), 4, 53 / 45)):
        p = SupportFunction(a, (SupportTerm(l, 1.0),), l.denominator)
        L = p.domain_length
        f = cm.as_torsion(cm.rotation(L, L / n), n)
        res = envelope_from_vertex(VertexStepSystem(curve_from_support(p), f))
        ts = np.linspace(0.0, L, 256, endpoint=False)
        closed = 0.5 * (1 + (1 / math.tan(math.pi / float(l))) * p.eval(ts, 1) / p.eval(ts))
        worst = max(worst, float(np.max(np.abs(res.s(ts) - closed))))
    _report(5, "chord parameter matches (1 + cot(pi/l) p'/p)/2 at 1e-10", worst < 1e-10,
            f"max deviation {worst:.2e}")


def test_criterion_06_interiority_randomized():
    rng = np.random.default_rng(2024)
    worst_lo, worst_hi = 1.0, 0.0
    for trial in range(10):
        c2 = float(rng.uniform(-0.08, 0.08))
        c3 = float(rng.uniform(-0.05, 0.05))
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), c2),
                                  SupportTerm(Fraction(3), c3)), 1)
        Y = curve_from_support(p)
        assert p.min_curvature_radius() > 0
        assert not polyline_self_intersects(Y.sample(1024))
        n = int(rng.integers(3, 8))
        h = cm.from_fourier(TWO_PI, float(rng.uniform(0, TWO_PI)),
                            (cm.FourierTerm(1, float(rng.uniform(-0.06, 0.06)),
                                            float(rng.uniform(-0.06, 0.06))),))
        f = cm.make_torsion(h, 1, n)
        rep = interiority_check(VertexStepSystem(Y, f), samples=512)
        worst_lo = min(worst_lo, rep.s_min)
        worst_hi = max(worst_hi, rep.s_max)
    ok = 0.0 < worst_lo and worst_hi < 1.0
    _report(6, "contacts interior for 10 random convex pairs (512 samples each)",
            ok, f"s range [{worst_lo:.4f}, {worst_hi:.4f}]")


def test_criterion_07_oracle_round_trip_and_negative_controls(corpus):
    scenes, reports = corpus
    worst = 0.0
    for name, rep in reports.items():
        L = scenes[name].configuration.domain_length
        assert rep.passed, f"{name}: {rep.to_dict()}"
        assert rep.max_step_mismatch is not None, f"{name} has no step comparison"
        worst = max(worst, rep.max_step_mismatch / L)

    # negative controls at tol = 1e-6: perturb either curve of a passing pair
    pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
    base = dict(
        label="control", vertex_curves=(pair.vertex_curve,), envelopes=(pair.envelope,),
        envelope_supports=(pair.envelope_support,), polygon=pair.polygon, walk=pair.walk,
        mode="oracle")
    from poncelet.verify import PonceletConfiguration
    bumped_p = SupportFunction(pair.envelope_support.constant + 1e-3,
                               pair.envelope_support.terms, 1)
    fail_env = not verify_pair(PonceletConfiguration(**{**base, "envelope_supports": (bumped_p,)}),
                               probes=16, tol=1e-6).passed
    moved = PlaneCurve(TWO_PI, lambda ts: (pair.vertex_curve.jet_fn(ts)[0] + np.array([1e-3, 0.0]),
                                           *pair.vertex_curve.jet_fn(ts)[1:]),
                       position_fn=lambda ts: pair.vertex_curve.positions(ts) + np.array([1e-3, 0.0]))
    fail_vertex = not verify_pair(PonceletConfiguration(**{**base, "vertex_curves": (moved,)}),
                                  probes=16, tol=1e-6).passed
    ok = worst < 1e-7 and fail_env and fail_vertex
    _report(7, "oracle reproduces the generating step on the corpus; controls fail",
            ok, f"worst relative step mismatch {worst:.2e}, controls fail: "
                f"{fail_env and fail_vertex}")


def test_criterion_08_curvature_determinant_at_critical_a():
    # for eq-KK as printed ((-1)^k second term) the half-angle factor is
    # sin^2 for odd k; the paper's cos^2 labelling belongs to the opposite
    # sign, verified here as well (see decisions ledger)
    k, l = 1, Fraction(2)
    n = float(l + 1)
    alpha = 2 * k * math.pi / n
    a_crit = math.cos(alpha / 2) * n * n
    pair = equilateral_pair(k, l, a_crit)
    ts = np.linspace(0.0, TWO_PI, 513)
    _, vel, acc = pair.vertex_curve.jet_many(ts)
    det = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
    scale = 2 * n**3 * (n + 1)
    err_sin = float(np.max(np.abs(det - scale * np.sin(float(l) * ts / 2) ** 2))) / scale

    A = a_crit / math.cos(alpha / 2)
    flipped = A ** 2 + n ** 3 + A * n * (n + 1) * np.cos(float(l) * ts)  # second term +u(n phi)
    err_cos = float(np.max(np.abs(flipped - scale * np.cos(float(l) * ts / 2) ** 2))) / scale
    ok = err_sin < 1e-6 and err_cos < 1e-6 and float(np.min(det)) > -1e-9
    _report(8, "critical-a determinant is the exact half-angle square (k odd)",
            ok, f"rel err {err_sin:.2e} (eq-KK sign), {err_cos:.2e} (flipped sign)")


def test_criterion_09_constant_width():
    worst = 0.0
    for l, a in ((3, 9.5), (5, 25.2), (7, 50.0)):
        p = SupportFunction(a, (SupportTerm(Fraction(l), 1.0),), 1)
        phi = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        width = p.eval(phi) + p.eval(phi + math.pi)
        worst = max(worst, float(np.max(np.abs(width - 2 * a))))
    _report(9, "odd-frequency support functions have constant width", worst < 1e-12,
            f"max width deviation {worst:.2e}")


def test_criterion_10_figure_regression(corpus):
    scenes, reports = corpus
    stable = True
    for name, scene in scenes.items():
        assert reports[name].passed, f"{name} failed verification"
        table = scene.curve_table()
        envs = [(n, c) for n, c in sorted(table.items()) if n.startswith("envelope")]
        verts = [(n, c) for n, c in sorted(table.items()) if n.startswith("vertex")]
        kwargs = dict(samples=scene.render_options.samples,
                      margin=scene.render_options.margin)
        one = render_svg(envs, verts, scene.polygons(), **kwargs)
        two = render_svg(envs, verts, scene.polygons(), **kwargs)
        stable = stable and (one == two) and one.startswith("<?xml")
    _report(10, "all checked-in configs build, verify and render byte-stable SVG",
            stable and len(scenes) == 8, f"{len(scenes)} configs")
