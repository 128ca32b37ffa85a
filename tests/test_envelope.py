import math
from fractions import Fraction

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet.envelope import (EnvelopeSingularity, VertexStepSystem, clan_from_vertex,
                               envelope_from_vertex, envelope_regularity,
                               interiority_check)
from poncelet.equiangular import ConstructionError
from poncelet.geometry import polyline_self_intersects
from poncelet.scene import build_scene
from poncelet.support import PlaneCurve, SupportFunction, SupportTerm, curve_from_support

TWO_PI = 2 * math.pi


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(max(np.sqrt(d2.min(axis=1)).max(), np.sqrt(d2.min(axis=0)).max()))


def interior_contact_bound(l) -> float:
    """Sufficient a for the iterated family p = a + cos(l*phi) to touch
    inside the sides: a >= sqrt(cot^2(pi/l) l^2 + 1). For integer l the
    positive-curvature condition a > 2 l^2 - 1 already implies it."""
    lf = float(l)
    cot = 1.0 / math.tan(math.pi / lf)
    return math.sqrt(cot * cot * lf * lf + 1.0)


def rot_system(p: SupportFunction, m: int, n: int) -> VertexStepSystem:
    L = p.domain_length
    f = cm.as_torsion(cm.rotation(L, m * L / n), n, m)
    return VertexStepSystem(curve_from_support(p), f)


def cos_support(a, l, k=1):
    return SupportFunction(a, (SupportTerm(Fraction(l), 1.0),), k)


class TestEnvelopeFromVertex:
    def test_circle_with_rotation_gives_inner_circle_and_half(self):
        system = rot_system(SupportFunction(1.0, (), 1), 1, 5)
        res = envelope_from_vertex(system)
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        assert np.max(np.abs(res.s(ts) - 0.5)) < 1e-12
        radii = np.hypot(*res.curve.positions(ts).T)
        assert np.allclose(radii, math.cos(math.pi / 5), atol=1e-10)

    def test_closed_form_chord_parameter(self):
        # s = (1 + cot(pi/l) p'/p) / 2 for p = a + cos(l phi) and the step 2*pi/l
        for l, n, a in ((Fraction(3), 3, 17.3), (Fraction(4, 3), 4, 53 / 45),
                        (Fraction(5), 5, 49.2)):
            k = l.denominator
            p = cos_support(a, l, k=k)
            system = rot_system(p, 1, n)   # rotation by L/n = 2*pi/l
            res = envelope_from_vertex(system)
            ts = np.linspace(0.05, p.domain_length, 256, endpoint=False)
            closed = 0.5 * (1 + (1 / math.tan(math.pi / float(l))) * p.eval(ts, 1) / p.eval(ts))
            assert np.max(np.abs(res.s(ts) - closed)) < 1e-10

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

        res = envelope_from_vertex(rot_system(p, 1, 3))
        for t in np.linspace(0.1, TWO_PI, 16):
            assert res.s(np.array([t]))[0] == pytest.approx(s_fd(t), abs=1e-7)

    def test_tangency_identity(self):
        p = cos_support(17.3, 3)
        res = envelope_from_vertex(rot_system(p, 1, 3))
        Z, alpha = res.conjugated, res.rotation_angle
        ts = np.linspace(0, TWO_PI, 200, endpoint=False)
        _, xv, _ = res.curve.jet_many(ts)
        delta = Z.positions(ts + alpha) - Z.positions(ts)
        jd = np.stack([-delta[:, 1], delta[:, 0]], axis=1)
        dots = np.abs(xv[:, 0] * jd[:, 0] + xv[:, 1] * jd[:, 1])
        norm = np.hypot(*xv.T) * np.hypot(*delta.T)
        assert np.max(dots / norm) < 1e-8

    def test_positive_denominator_for_convex_vertex_curve(self):
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), 0.05),
                                  SupportTerm(Fraction(3), 0.02)), 1)
        h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.07, 0.02),))
        f = cm.make_torsion(h, 1, 4)
        system = VertexStepSystem(curve_from_support(p), f)
        res = envelope_from_vertex(system)
        Z, alpha = res.conjugated, res.rotation_angle
        ts = np.linspace(0, TWO_PI, 300, endpoint=False)
        _, zv, _ = Z.jet_many(ts)
        _, zva, _ = Z.jet_many(ts + alpha)
        delta = Z.positions(ts + alpha) - Z.positions(ts)
        jd = np.stack([-delta[:, 1], delta[:, 0]], axis=1)
        denom = (zva - zv)[:, 0] * jd[:, 0] + (zva - zv)[:, 1] * jd[:, 1]
        assert np.min(denom) > 0

    def test_envelope_is_step_invariant(self):
        # building the envelope from the side family starting at f(phi) gives
        # the same point set as starting at phi
        p = cos_support(17.3, 3)
        alpha = TWO_PI / 3
        res = envelope_from_vertex(rot_system(p, 1, 3))
        Y = curve_from_support(p)
        stepped_vertex = PlaneCurve(TWO_PI, lambda ts: Y.jet_fn(ts + alpha),
                                    position_fn=lambda ts: Y.positions(ts + alpha))
        f = cm.as_torsion(cm.rotation(TWO_PI, alpha), 3, 1)
        res2 = envelope_from_vertex(VertexStepSystem(stepped_vertex, f))
        ts = np.linspace(0, TWO_PI, 512, endpoint=False)
        pointwise = np.max(np.abs(res2.curve.positions(ts) - res.curve.positions(ts + alpha)))
        assert pointwise < 1e-9
        assert hausdorff_distance(res2.curve.positions(ts),
                                  res.curve.positions(ts + alpha)) < 1e-6

    def test_singular_denominator_reported_with_parameters(self):
        p = cos_support(0.8, Fraction(3, 4), k=4)   # p crosses zero: a < 1
        with pytest.raises(EnvelopeSingularity) as err:
            envelope_from_vertex(rot_system(p, 1, 3))
        assert len(err.value.params) > 0

    def test_polygon_without_stored_conjugator_touches_every_side(self):
        # as_torsion stores no conjugator: the polygon maps vertex parameters
        # to contact parameters through the averaged one of the step itself
        p = SupportFunction(1.0, (SupportTerm(Fraction(2), 0.05),
                                  SupportTerm(Fraction(3), -0.03)), 1)
        Y = curve_from_support(p)
        h = cm.from_fourier(TWO_PI, 0.7, (cm.FourierTerm(1, 0.04, -0.03),))
        known = cm.make_torsion(h, 1, 4)
        bare = cm.as_torsion(known.map, 4, 1)
        assert bare.conjugating is None and not bare.map.is_rotation
        poly = envelope_from_vertex(VertexStepSystem(Y, bare)).polygon(0.9)
        ref = envelope_from_vertex(VertexStepSystem(Y, known)).polygon(0.9)
        assert poly.vertices == ref.vertices
        for i, contact in enumerate(poly.contacts):
            a, b = poly.vertices[i], poly.vertices[(i + 1) % 4]
            d = b - a
            assert abs(d.cross(contact.point - a)) / d.norm() < 1e-12
        assert ([c.chord for c in poly.contacts]
                == pytest.approx([c.chord for c in ref.contacts], abs=1e-9))

    def test_period_two_rejected(self):
        p = cos_support(17.3, 3)
        with pytest.raises(ConstructionError):
            rot_system(p, 1, 2)


class TestRegularity:
    def test_circle_determinant_bounded_away_from_zero(self):
        rep = envelope_regularity(rot_system(SupportFunction(1.0, (), 1), 1, 4))
        assert rep.regular
        assert rep.min_abs_det > 0.1

    def test_positive_envelope_curvature_above_threshold(self):
        # a > max(2*l^2 - 1, 1) keeps the envelope curvature positive
        rep = envelope_regularity(rot_system(cos_support(17.3, 3), 1, 3))
        assert rep.regular
        assert rep.curvature_sign_consistent

    def test_curvature_sign_change_below_threshold(self):
        rep = envelope_regularity(rot_system(cos_support(16.7, 3), 1, 3))
        assert len(rep.det_sign_changes) > 0


class TestInteriority:
    def test_convex_pair_has_interior_contacts(self):
        rep = interiority_check(rot_system(cos_support(17.3, 3), 1, 3))
        assert not rep.self_intersecting
        assert rep.passed
        assert 0.0 < rep.s_min and rep.s_max < 1.0

    def test_circle_contacts_at_midpoints(self):
        rep = interiority_check(rot_system(SupportFunction(1.0, (), 1), 2, 5))
        assert rep.s_min == pytest.approx(0.5, abs=1e-10)
        assert rep.s_max == pytest.approx(0.5, abs=1e-10)

    def test_winding_vertex_curve_breaks_interiority(self):
        p = cos_support(53 / 45, Fraction(4, 3), k=3)
        system = rot_system(p, 1, 4)
        rep = interiority_check(system)
        assert rep.self_intersecting
        assert rep.s_min < 0.0 and rep.s_max > 1.0
        assert polyline_self_intersects(system.vertex_curve.sample(1024))


class TestIteratedFamily:
    def test_interior_contact_bound_is_sufficient(self):
        for l in (Fraction(3), Fraction(4), Fraction(5, 2)):
            a = max(interior_contact_bound(l), float(l * l) - 1) + 0.5
            p = cos_support(a, l, k=l.denominator)
            system = rot_system(p, 1, l.numerator)   # rotation by 2*pi/l
            rep = interiority_check(system)
            assert 0.0 <= rep.s_min and rep.s_max <= 1.0

    def test_integer_l_bound_below_curvature_threshold(self):
        for l in (3, 4, 5, 6):
            assert 2 * l * l - 1 > interior_contact_bound(l)

    def test_integer_l_gives_regular_polygon(self):
        p = cos_support(17.3, 3)
        system = rot_system(p, 1, 3)
        params = system.step.orbit(0.37)
        pts = [system.vertex_curve.position(t) for t in params]
        sides = [(pts[(i + 1) % 3] - pts[i]).norm() for i in range(3)]
        assert max(sides) - min(sides) < 1e-12
        dirs = [pts[(i + 1) % 3] - pts[i] for i in range(3)]
        for i in range(3):
            a, b = dirs[i - 1], dirs[i]
            turn = math.atan2(a.cross(b), a.dot(b))
            assert turn == pytest.approx(2 * math.pi / 3, abs=1e-12)


class TestClanFromVertex:
    def test_equal_rotations_reproduce_single_pair_envelope(self):
        p = cos_support(17.3, 3)
        Y = curve_from_support(p)
        alpha = TWO_PI / 3
        step = cm.rotation(TWO_PI, alpha)
        clan = clan_from_vertex(Y, [step, step])
        single = envelope_from_vertex(rot_system(p, 1, 3))
        ts = np.linspace(0, TWO_PI, 256, endpoint=False)
        for i, env in enumerate(clan.envelopes):
            aligned = single.curve.positions(ts + i * alpha)
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
        for i, contact in enumerate(poly.contacts):
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % 3]
            d = b - a
            dist = abs(d.cross(contact.point - a)) / d.norm()
            assert dist < 1e-9
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        assert hausdorff_distance(clan.envelopes[0].positions(ts),
                                  clan.envelopes[1].positions(ts)) > 1e-3

    def test_fixed_point_rejected_with_location(self):
        p = cos_support(17.3, 3)
        Y = curve_from_support(p)
        wiggle = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.05, 0.0),))
        rot = cm.rotation(TWO_PI, TWO_PI / 3)
        with pytest.raises(ConstructionError, match="fixed point near"):
            clan_from_vertex(Y, [rot, wiggle])

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
