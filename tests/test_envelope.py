import dataclasses
import importlib.util
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import circlemaps as cm
from poncelet.envelope import EnvelopeSingularity, clan_from_vertex, envelope_from_vertex
from poncelet.equiangular import ConstructionError, assemble
from poncelet.geometry import polyline_self_intersects
from poncelet.jets import Jet
from poncelet.scene import build_scene
from poncelet.support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support
from poncelet.verify import regularity_scan
from poncelet.vertex import clan_from_envelope, vertex_from_envelope

TWO_PI = 2 * math.pi


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(max(np.sqrt(d2.min(axis=1)).max(), np.sqrt(d2.min(axis=0)).max()))


def line_distance(a, b, x) -> float:
    """Distance of the point x from the line through the points a and b."""
    (ax, ay), (bx, by), (xx, xy) = a, b, x
    dx, dy = bx - ax, by - ay
    return abs(dx * (xy - ay) - dy * (xx - ax)) / math.hypot(dx, dy)


def interior_contact_bound(l) -> float:
    """Sufficient a for the iterated family p = a + cos(l*phi) to touch
    inside the sides: a >= sqrt(cot^2(pi/l) l^2 + 1). For integer l the
    positive-curvature condition a > 2 l^2 - 1 already implies it."""
    lf = float(l)
    cot = 1.0 / math.tan(math.pi / lf)
    return math.sqrt(cot * cot * lf * lf + 1.0)


def rot_pair(p: SupportFunction, m: int, n: int):
    L = p.domain_length
    f = cm.TorsionMap(cm.rotation(L, m * L / n), n)
    return envelope_from_vertex(curve_from_support(p), f)


def cos_support(a, l, k=1):
    return SupportFunction(a, (SupportTerm(Fraction(l), 1.0),), k)


def chords(res, ts) -> np.ndarray:
    """Chord parameter s of the contact on side t, from Y(t) to Y(f(t)), for
    each t in ts: where the polygon from t touches its first side."""
    return assemble(res.walk(np.atleast_1d(ts)), res.vertex_curves, res.envelopes).chords[:, 0]


def grid(res) -> np.ndarray:
    return np.linspace(0.0, res.vertex_curve.domain_length, 512, endpoint=False)


class TestEnvelopeFromVertex:
    def test_circle_with_rotation_gives_inner_circle_and_half(self):
        res = rot_pair(SupportFunction(1.0, (), 1), 1, 5)
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        assert np.max(np.abs(chords(res, ts) - 0.5)) < 1e-12
        radii = np.hypot(*res.curve.positions(ts).T)
        assert np.allclose(radii, math.cos(math.pi / 5), atol=1e-10)

    def test_closed_form_chord_parameter(self):
        # s = (1 + cot(pi/l) p'/p) / 2 for p = a + cos(l phi) and the step 2*pi/l
        for l, n, a in ((Fraction(3), 3, 17.3), (Fraction(4, 3), 4, 53 / 45),
                        (Fraction(5), 5, 49.2)):
            k = l.denominator
            p = cos_support(a, l, k=k)
            res = rot_pair(p, 1, n)   # rotation by L/n = 2*pi/l
            ts = np.linspace(0.05, p.domain_length, 256, endpoint=False)
            closed = 0.5 * (1 + (1 / math.tan(math.pi / float(l))) * p.eval(ts, 1) / p.eval(ts))
            assert np.max(np.abs(chords(res, ts) - closed)) < 1e-10

    def test_chord_parameter_against_raw_finite_differences(self):
        # independent route: s from definition via FD derivatives of Y only
        p = cos_support(17.3, 3)
        Y = curve_from_support(p)
        alpha = TWO_PI / 3
        h = 1e-6

        def s_fd(t):
            d = Y.positions([t + alpha])[0] - Y.positions([t])[0]
            yp = (Y.positions([t + h])[0] - Y.positions([t - h])[0]) / (2 * h)
            dp = (Y.positions([t + alpha + h])[0] - Y.positions([t + alpha - h])[0]) / (2 * h) - yp
            J = lambda v: np.array([-v[1], v[0]])
            return -np.dot(yp, J(d)) / np.dot(dp, J(d))

        res = rot_pair(p, 1, 3)
        for t in np.linspace(0.1, TWO_PI, 16):
            assert chords(res, t)[0] == pytest.approx(s_fd(t), abs=1e-7)

    def test_tangency_identity(self):
        # side t, from Y(t) to Y(f(t)), is tangent to the envelope at X(t)
        p = cos_support(17.3, 3)
        res = rot_pair(p, 1, 3)
        Y = res.vertex_curve
        ts = np.linspace(0, TWO_PI, 200, endpoint=False)
        _, xv, _ = res.curve.jet_many(ts)
        delta = Y.positions(res.step.map.lift(ts)) - Y.positions(ts)
        jd = np.stack([-delta[:, 1], delta[:, 0]], axis=1)
        dots = np.abs(xv[:, 0] * jd[:, 0] + xv[:, 1] * jd[:, 1])
        norm = np.hypot(*xv.T) * np.hypot(*delta.T)
        assert np.max(dots / norm) < 1e-8

    def test_positive_denominator_for_convex_vertex_curve(self):
        # <D', J D> with D = Y o f - Y and (Y o f)' = Y'(f) f' by the chain rule
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), 0.05),
                                  SupportTerm(Fraction(3), 0.02)), 1)
        h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.07, 0.02),))
        f = cm.make_torsion(h, 1, 4)
        Y = envelope_from_vertex(curve_from_support(p), f).vertex_curve
        ts = np.linspace(0, TWO_PI, 300, endpoint=False)
        fts = f.map.lift(ts)
        _, yv, _ = Y.jet_many(ts)
        _, yfv, _ = Y.jet_many(fts)
        dv = yfv * f.map.derivative(ts)[:, None] - yv
        delta = Y.positions(fts) - Y.positions(ts)
        jd = np.stack([-delta[:, 1], delta[:, 0]], axis=1)
        denom = dv[:, 0] * jd[:, 0] + dv[:, 1] * jd[:, 1]
        assert np.min(denom) > 0

    def test_envelope_is_step_invariant(self):
        # building the envelope from the side family starting at f(phi) gives
        # the same point set as starting at phi
        p = cos_support(17.3, 3)
        alpha = TWO_PI / 3
        res = rot_pair(p, 1, 3)
        Y = curve_from_support(p)
        stepped_vertex = PlaneCurve(TWO_PI, lambda ts: Y.jet_many(ts + alpha),
                                    position_fn=lambda ts: Y.positions(ts + alpha))
        f = cm.TorsionMap(cm.rotation(TWO_PI, alpha), 3)
        res2 = envelope_from_vertex(stepped_vertex, f)
        ts = np.linspace(0, TWO_PI, 512, endpoint=False)
        pointwise = np.max(np.abs(res2.curve.positions(ts) - res.curve.positions(ts + alpha)))
        assert pointwise < 1e-9
        assert hausdorff_distance(res2.curve.positions(ts),
                                  res.curve.positions(ts + alpha)) < 1e-6

    def test_singular_denominator_reported_with_parameters(self):
        p = cos_support(0.8, Fraction(3, 4), k=4)   # p crosses zero: a < 1
        with pytest.raises(EnvelopeSingularity) as err:
            rot_pair(p, 1, 3)
        assert len(err.value.params) > 0

    def test_polygon_without_stored_conjugator_touches_every_side(self):
        # TorsionMap certifies the bare map and keeps no h: the envelope is
        # built in the vertex parameter, so it needs none, and the polygons
        # equal those of the map that make_torsion built from h
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), 0.05),
                                  SupportTerm(Fraction(3), -0.03)), 1)
        Y = curve_from_support(p)
        h = cm.from_fourier(TWO_PI, 0.7, (cm.FourierTerm(1, 0.04, -0.03),))
        known = cm.make_torsion(h, 1, 4)
        bare = cm.TorsionMap(known.map, 4)
        assert not bare.map.is_rotation
        poly = envelope_from_vertex(Y, bare).polygon(0.9)
        ref = envelope_from_vertex(Y, known).polygon(0.9)
        for field in dataclasses.fields(poly):
            assert np.array_equal(getattr(poly, field.name), getattr(ref, field.name))
        for i, x in enumerate(poly.contacts):
            assert line_distance(poly.vertices[i], poly.vertices[(i + 1) % 4], x) < 1e-12

    def test_period_two_rejected(self):
        p = cos_support(17.3, 3)
        with pytest.raises(ConstructionError):
            rot_pair(p, 1, 2)


class TestRegularity:
    def test_circle_envelope_speed_bounded_away_from_zero(self):
        rep = regularity_scan(rot_pair(SupportFunction(1.0, (), 1), 1, 4).curve)
        assert rep.near_zeros == ()
        assert rep.min_speed > 0.1

    def test_positive_envelope_curvature_above_threshold(self):
        # a > max(2*l^2 - 1, 1) keeps the envelope curvature positive
        pair = rot_pair(cos_support(17.3, 3), 1, 3)
        assert regularity_scan(pair.curve).near_zeros == ()
        _, v, a = pair.curve.jet_many(grid(pair))
        assert np.all(v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0] > 0)

    def test_curvature_sign_change_below_threshold(self):
        # below a = 2*l^2 - 1 the envelope's curvature changes sign: six
        # cusps, where its speed vanishes
        rep = regularity_scan(rot_pair(cos_support(16.7, 3), 1, 3).curve)
        assert len(rep.near_zeros) == 6
        assert all(speed < 1e-6 for _, speed in rep.near_zeros)


class TestInteriority:
    def test_convex_pair_has_interior_contacts(self):
        pair = rot_pair(cos_support(17.3, 3), 1, 3)
        assert not polyline_self_intersects(pair.vertex_curve.sample(1024))
        s = chords(pair, grid(pair))
        assert 0.0 < s.min() and s.max() < 1.0

    def test_circle_contacts_at_midpoints(self):
        pair = rot_pair(SupportFunction(1.0, (), 1), 2, 5)
        assert np.max(np.abs(chords(pair, grid(pair)) - 0.5)) < 1e-10

    def test_winding_vertex_curve_breaks_interiority(self):
        p = cos_support(53 / 45, Fraction(4, 3), k=3)
        pair = rot_pair(p, 1, 4)
        s = chords(pair, grid(pair))
        assert s.min() < 0.0 and s.max() > 1.0
        assert polyline_self_intersects(pair.vertex_curve.sample(1024))


class TestIteratedFamily:
    def test_interior_contact_bound_is_sufficient(self):
        for l in (Fraction(3), Fraction(4), Fraction(5, 2)):
            a = max(interior_contact_bound(l), float(l * l) - 1) + 0.5
            p = cos_support(a, l, k=l.denominator)
            pair = rot_pair(p, 1, l.numerator)   # rotation by 2*pi/l
            s = chords(pair, grid(pair))
            assert 0.0 <= s.min() and s.max() <= 1.0

    def test_integer_l_bound_below_curvature_threshold(self):
        for l in (3, 4, 5, 6):
            assert 2 * l * l - 1 > interior_contact_bound(l)

    def test_integer_l_gives_regular_polygon(self):
        p = cos_support(17.3, 3)
        pair = rot_pair(p, 1, 3)
        params = cm.orbit((pair.step.map,) * 2, 0.37)
        pts = pair.vertex_curve.positions(params)
        dirs = np.roll(pts, -1, axis=0) - pts
        sides = np.hypot(dirs[:, 0], dirs[:, 1])
        assert max(sides) - min(sides) < 1e-12
        for i in range(3):
            a, b = dirs[i - 1], dirs[i]
            turn = math.atan2(a[0] * b[1] - a[1] * b[0], a @ b)
            assert turn == pytest.approx(2 * math.pi / 3, abs=1e-12)


class TestClanFromVertex:
    def test_equal_rotations_reproduce_single_pair_envelope(self):
        p = cos_support(17.3, 3)
        Y = curve_from_support(p)
        alpha = TWO_PI / 3
        step = cm.rotation(TWO_PI, alpha)
        clan = clan_from_vertex(Y, [step, step])
        single = rot_pair(p, 1, 3)
        ts = np.linspace(0, TWO_PI, 256, endpoint=False)
        # C_1 and C_2 are the pair envelope of the step itself; the closing C_3,
        # of the sides from Y(t + 2 alpha) to Y(t), is it at the advanced parameter
        for env, offset in zip(clan.envelopes, (0.0, 0.0, 2 * alpha)):
            aligned = single.curve.positions(ts + offset)
            assert np.max(np.abs(env.positions(ts) - aligned)) < 1e-9
            assert hausdorff_distance(env.positions(ts), aligned) < 1e-6

    def test_perturbed_rotations_give_distinct_tangent_envelopes(self):
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), 0.04),), 1)
        Y = curve_from_support(p)
        f1 = cm.from_fourier(TWO_PI, TWO_PI / 3, (cm.FourierTerm(1, 0.03, 0.0),))
        f2 = cm.from_fourier(TWO_PI, TWO_PI / 3, (cm.FourierTerm(2, 0.0, 0.02),))
        clan = clan_from_vertex(Y, [f1, f2])
        assert len(clan.envelopes) == 3
        poly = clan.polygon(0.9)
        assert poly.closure_gap < 1e-9
        # each side line touches its envelope: contact on the side line
        for i, x in enumerate(poly.contacts):
            assert line_distance(poly.vertices[i], poly.vertices[(i + 1) % 3], x) < 1e-9
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        assert hausdorff_distance(clan.envelopes[0].positions(ts),
                                  clan.envelopes[1].positions(ts)) > 1e-3

    def test_fixed_point_rejected_with_location(self):
        p = cos_support(17.3, 3)
        Y = curve_from_support(p)
        wiggle = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.05, 0.0),))
        rot = cm.rotation(TWO_PI, TWO_PI / 3)
        with pytest.raises(ConstructionError, match=r"g_2 o g_1\^-1 has a fixed point near") as err:
            clan_from_vertex(Y, [rot, wiggle])
        t = float(str(err.value).rsplit("t = ", 1)[1])
        g2_after_g1_inverse = wiggle.compose(rot).compose(rot.inverse())
        assert abs(g2_after_g1_inverse.lift(t) - t) < 1e-5

    @staticmethod
    def _document(steps) -> dict:
        return {"construction": "clan-from-vertex",
                "parameters": {"support": {"a": 1.0, "k": 1, "terms": []}, "steps": steps}}

    def test_half_turn_composite_is_not_a_fixed_point(self):
        # g_2 moves every point by pi +- 0.02: the centred displacement jumps
        # from +L/2 to -L/2 without a zero between
        step = {"c": math.pi / 2, "terms": [{"j": 1, "sin": 0.01}]}
        scene = build_scene(self._document([step] * 3))
        assert scene.configuration.count == 4
        assert scene.verify().passed

    def test_fixed_point_of_a_composite_is_still_rejected(self):
        steps = [{"c": 2.0}, {"c": -2.0, "terms": [{"j": 1, "sin": 0.3}]}]
        with pytest.raises(ConstructionError, match="polygon degenerates"):
            build_scene(self._document(steps))


def test_clan_polygons_need_no_inverse_map(monkeypatch):
    # the closing step of a clan is g_n = id, so no circle map is inverted
    def refuse(self):
        raise AssertionError("a clan inverted a circle map")

    monkeypatch.setattr(cm.CircleDiffeo, "inverse", refuse)
    clans = (("clan-from-vertex", 1.0, [{"c": TWO_PI / 3, "terms": [{"j": 1, "sin": 0.03}]},
                                        {"c": TWO_PI / 3, "terms": [{"j": 2, "cos": 0.02}]}]),
             ("clan-from-envelope", 2.0, [{"c": 2.0, "terms": [{"j": 1, "sin": 0.05}]},
                                          {"c": 2.4, "terms": [{"j": 2, "cos": 0.04}]}]))
    for construction, a, steps in clans:
        scene = build_scene({"construction": construction, "parameters": {
            "support": {"a": a, "k": 1, "terms": []}, "steps": steps}})
        for start in (0.0, 0.9, 4.0):
            poly = scene.configuration.polygon(start)
            assert len(poly.vertices) == 3 and poly.closure_gap == 0.0, construction


@pytest.mark.parametrize("construction", ["clan-from-vertex", "clan-from-envelope"])
def test_clan_contact_parameters_lie_on_the_curve_domain(construction):
    # the lifted orbit runs past L; verify's messages print these parameters
    steps = [{"c": 2.0, "terms": [{"j": 1, "sin": 0.05}]}, {"c": 2.4}]
    scene = build_scene({"construction": construction, "parameters": {
        "support": {"a": 2.0, "k": 1, "terms": []}, "steps": steps}})
    for start in (0.0, 4.0, 6.2, 9.0, -1.0):
        ts = scene.configuration.polygon(start).contact_parameters
        assert np.all((0.0 <= ts) & (ts < TWO_PI)), (start, ts)


@pytest.mark.parametrize("construction", ["clan-from-vertex", "clan-from-envelope"])
def test_clan_polygon_lifts_each_step_a_bounded_number_of_times(construction):
    # a polygon walks the orbit of its start and evaluates each clan curve
    # at most once: no step is re-run inside the later ones
    n = 15
    calls = [0] * (n - 1)

    def counted(f, i):
        def lift(x):
            calls[i] += 1
            return f.lift(x)
        return dataclasses.replace(f, lift=lift)

    steps = [counted(cm.from_fourier(TWO_PI, TWO_PI / n, (cm.FourierTerm(1, 0.002, 0.0),)), i)
             for i in range(n - 1)]
    if construction == "clan-from-vertex":
        Y = curve_from_support(SupportFunction(1.0, (SupportTerm(Fraction(2), 0.04),), 1))
        clan = clan_from_vertex(Y, steps)
    else:
        clan = clan_from_envelope(SupportFunction(2.0, (), 1), steps)
    calls[:] = [0] * (n - 1)
    poly = clan.polygon(0.7)
    assert len(poly.vertices) == n
    assert max(calls) <= 3, calls


# --- conjugated steps: the vertex-parameter envelope against the conjugated route ---

def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()
coefficient = st.floats(-0.06, 0.06)


@st.composite
def conjugated_steps(draw, fractions):
    """(support, h, m, n): h from the benchmark's conjugated-envelope ranges
    with one harmonic or a second of the same size, the support as the
    benchmark draws it."""
    terms = [{"j": 1, "sin": draw(coefficient), "cos": draw(coefficient)}]
    if draw(st.booleans()):
        terms.append({"j": 2, "sin": draw(coefficient), "cos": draw(coefficient)})
    support = workloads._convex_support(draw(st.randoms(use_true_random=False)))
    m, n = draw(st.sampled_from(fractions))
    return support, {"c": draw(st.floats(0.0, TWO_PI)), "terms": terms}, m, n


def conjugated_scene(support: dict, h: dict | None, m: int, n: int):
    """The envelope-from-vertex scene of the step m/n, conjugated by h if given."""
    step = {"m": m, "n": n} if h is None else {"m": m, "n": n, "h": h}
    return build_scene({
        "construction": "envelope-from-vertex",
        "parameters": {"support": support, "step": step},
        "verify": {"probes": 8, "tol": None, "expect_interior": True}})


def conjugated_route(Y: PlaneCurve, h: dict, alpha: float, ts: np.ndarray):
    """The envelope as it was built with the step conjugated to a rotation:
    Z = Y o h^-1, side tau from Z(tau) to Z(tau + alpha), X_Z(tau) = Z + s D
    with s = -<Z', J D> / <D', J D>. Side t of Y and f = h^-1 o r o h is
    side h(t) of Z, so this returns X_Z(h(t))."""
    lift = cm.from_fourier(TWO_PI, h["c"], tuple(cm.FourierTerm(t["j"], t["sin"], t["cos"])
                                                 for t in h["terms"]))
    hinv = lift.inverse()
    tau = Jet.variable(lift.lift(ts), 1)
    a, b = Y.positions(hinv.lift(tau)), Y.positions(hinv.lift(tau + alpha))
    d, dp = b.v - a.v, b.d[0] - a.d[0]
    jd = np.stack([-d[:, 1], d[:, 0]], axis=1)
    s = -np.sum(a.d[0] * jd, axis=1) / np.sum(dp * jd, axis=1)
    return a.v + s[:, None] * d


@settings(max_examples=30)
@given(conjugated_steps([(1, 4), (1, 5), (2, 5)]))
def test_conjugated_envelope_matches_the_conjugated_route(steps):
    support, h, m, n = steps
    scene = conjugated_scene(*steps)
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    want = conjugated_route(scene.vertex_curves[0], h, m * TWO_PI / n, ts)
    assert np.max(np.abs(scene.envelopes[0].positions(ts) - want)) < 1e-11


@settings(max_examples=20)
@given(conjugated_steps([(1, 4), (1, 5)]))
def test_conjugated_envelope_verifies(steps):
    report = conjugated_scene(*steps).verify()
    assert report.passed, report.errors


def test_star_step_envelope_verifies():
    # m/n = 2/5 on the same supports gives envelopes with near-cusps (speed
    # about 1e-4), where two zeros of d/dt <X - a, n> share a grid cell
    support = workloads._convex_support(random.Random(0))
    report = conjugated_scene(support, {"c": 0.0, "terms": [{"j": 1}]}, 2, 5).verify()
    assert report.passed, report.errors


MISSED_CONTACT = re.compile(r"start (\d+\.\d+): contact of side (\d+) on envelope 0 recovered "
                            r"at t = (\d+\.\d+), not at the walk's t = (\d+\.\d+) "
                            r"\(mismatch (\S+)\)")


@pytest.mark.parametrize("c2, c3, h", [
    (-0.0585017, 0.0347434, None),
    (0.0551075, 0.0257954, {"c": 2.64253, "terms": [{"j": 1, "sin": -0.02893, "cos": 0.00135297}]}),
], ids=["seed-1", "seed-0-with-h"])
def test_a_contact_recovered_off_the_walk_is_an_error(c2, c3, h):
    # two draws of the seeded m/n = 2/5 sweep (random.Random(seed), support
    # from the benchmark's _convex_support, then h): each construction
    # closes and is tangent to rounding, but the independent contact
    # recovery picks a tangency about 0.012 from the walk's contact on one
    # side, next to a near-cusp; such a miss fails contact_recovery, and the
    # report must name it (the side, its probe start, both parameters and
    # the mismatch) rather than fail with no error
    support = {"a": 1.0, "k": 1, "terms": [{"l_num": 2, "l_den": 1, "cos": c2, "sin": 0.0},
                                           {"l_num": 3, "l_den": 1, "cos": c3, "sin": 0.0}]}
    report = conjugated_scene(support, h, 2, 5).verify(64)
    assert all(ok for check, ok in report.checks.items() if check != "contact_recovery")
    misses = [MISSED_CONTACT.fullmatch(e) for e in report.errors]
    assert report.checks["contact_recovery"] == (not report.errors)
    assert all(misses)
    starts = np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.05 * TWO_PI / 64
    worst = 0.0
    for miss in misses:
        start, got, want, mismatch = (float(miss[i]) for i in (1, 3, 4, 5))
        assert np.min(np.abs(starts - start)) < 1e-6 and 0 <= int(miss[2]) < 5
        assert mismatch >= report.tol
        assert mismatch == pytest.approx(float(cm.circle_distance(got, want, TWO_PI)), abs=2e-6)
        worst = max(worst, mismatch)
    assert worst == pytest.approx(report.max_step_mismatch, rel=1e-5)


# every torsion construction from the step maps of an n-gon on the circle of
# length 2*pi: a pair takes one torsion map of period n, a clan n - 1 steps
CIRCLE = SupportFunction(2.0, (), 1)
STEP_CONSTRUCTIONS = {
    "envelope-from-vertex": lambda f, n: envelope_from_vertex(curve_from_support(CIRCLE),
                                                              cm.TorsionMap(f, n)),
    "vertex-from-envelope": lambda f, n: vertex_from_envelope(CIRCLE, cm.TorsionMap(f, n)),
    "clan-from-vertex": lambda f, n: clan_from_vertex(curve_from_support(CIRCLE), [f] * (n - 1)),
    "clan-from-envelope": lambda f, n: clan_from_envelope(CIRCLE, [f] * (n - 1)),
}


@pytest.mark.parametrize("kind", sorted(STEP_CONSTRUCTIONS))
@pytest.mark.parametrize("L, n, message", [
    (2 * TWO_PI, 3, "step maps must act on the curve's parameter circle"),
    (TWO_PI, 2, "a polygon needs at least 3 vertices"),
], ids=["other-circle", "two-vertices"])
def test_pairs_refuse_the_steps_their_clans_refuse(kind, L, n, message):
    with pytest.raises(ConstructionError) as err:
        STEP_CONSTRUCTIONS[kind](cm.rotation(L, L / n), n)
    assert str(err.value) == message
