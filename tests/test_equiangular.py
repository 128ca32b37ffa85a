import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poncelet.equiangular import (ConstructionError, equiangular_clan, equiangular_pair,
                                  equiangular_vertex_curve, equilateral_pair)
from poncelet.geometry import closure_steps, polyline_self_intersects, radians
from poncelet.support import SupportFunction, SupportTerm, curve_from_support

TWO_PI = 2 * math.pi


def chord_offset(p: SupportFunction, angle: Fraction):
    """q(phi) = csc(a)(p(phi + a) - cos(a) p(phi)); Y = p*u + q*u'."""
    a = radians(angle)
    return lambda phi: (p.eval(np.asarray(phi, float) + a) - math.cos(a) * p.eval(phi)) / math.sin(a)


def exterior_turns(poly) -> list[float]:
    """Signed turn of the side direction at each vertex of a polygon, in (-pi, pi]."""
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    a = np.roll(d, 1, axis=0)
    return [math.atan2(x, y) for x, y in zip(a[:, 0] * d[:, 1] - a[:, 1] * d[:, 0],
                                             a[:, 0] * d[:, 0] + a[:, 1] * d[:, 1])]


def assert_same_polygon(a, b):
    """The two polygons agree bit for bit."""
    for name in ("vertices", "parameters", "contacts", "contact_parameters"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def p_cos(a, l, coeff=1.0, k=1):
    return SupportFunction(a, (SupportTerm(Fraction(l), coeff),), k)


FIG_P = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.9),
                              SupportTerm(Fraction(5), -2 / 9),
                              SupportTerm(Fraction(3), 0.0, 2 / 7)), 1)


class TestVertexCurve:
    def test_constant_support_gives_circle_and_offset(self):
        a = 2.0
        angle = Fraction(2, 7)
        p = SupportFunction(a, (), 1)
        K = equiangular_vertex_curve(p, angle, 0)
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        radii = np.hypot(*K.positions(ts).T)
        assert np.allclose(radii, a / math.cos(radians(angle) / 2), atol=1e-12)
        q = chord_offset(p, angle)
        assert np.allclose(q(ts), a * math.tan(radians(angle) / 2), atol=1e-12)

    def test_triangle_branch_start_point(self):
        p = p_cos(8 / 5, 2)
        K = equiangular_vertex_curve(p, Fraction(2, 3), 0)
        a = TWO_PI / 3
        csc = 1 / math.sin(a)
        expected = csc * np.array([
            -p.eval(a) * 0.0 + p.eval(0.0) * math.sin(a),
            p.eval(a) * 1.0 - p.eval(0.0) * math.cos(a),
        ])
        assert np.allclose(K.positions([0.0])[0], expected, atol=1e-14)

    def test_branches_give_distinct_curves(self):
        tri = equiangular_vertex_curve(FIG_P, Fraction(2, 3), 0)
        hexa = equiangular_vertex_curve(FIG_P, Fraction(2, 3), 1)
        ts = np.linspace(0, TWO_PI, 32)
        assert not np.allclose(tri.positions(ts), hexa.positions(ts), atol=1e-3)

    def test_curve_matches_support_plus_offset_form(self):
        # Y = p*u + q*u' is the same point in a second closed form
        angle = Fraction(2, 3)
        K = equiangular_vertex_curve(FIG_P, angle, 0)
        q = chord_offset(FIG_P, angle)
        ts = np.linspace(0, TWO_PI, 64, endpoint=False)
        u = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        up = np.stack([-np.sin(ts), np.cos(ts)], axis=1)
        alt = FIG_P.eval(ts)[:, None] * u + q(ts)[:, None] * up
        assert np.max(np.abs(K.positions(ts) - alt)) < 1e-12

    def test_jets_match_finite_differences(self):
        K = equiangular_vertex_curve(FIG_P, Fraction(2, 3), 1)
        h = 1e-5
        ha = 1e-4   # second differences need a larger step to beat roundoff
        for t in np.linspace(0.1, TWO_PI, 25):
            pos, vel, acc = K.jet_many([t])
            fd_v = (K.positions([t + h])[0] - K.positions([t - h])[0]) / (2 * h)
            fd_a = (K.positions([t + ha])[0] - 2 * pos[0] + K.positions([t - ha])[0]) / ha**2
            assert np.allclose(vel[0], fd_v, rtol=1e-6, atol=1e-6)
            assert np.allclose(acc[0], fd_a, rtol=1e-4, atol=1e-4)

    def test_branches_regular_over_simple_envelope(self):
        # the envelope has no self-intersections, so every branch curve is regular
        env = curve_from_support(FIG_P)
        assert not polyline_self_intersects(env.sample(1024))
        for branch in (0, 1):
            K = equiangular_vertex_curve(FIG_P, Fraction(2, 3), branch)
            assert K.min_speed() > 0.0
            assert K.min_speed() > 0.5

    def test_angle_outside_open_interval_rejected(self):
        with pytest.raises(ConstructionError):
            equiangular_pair(FIG_P, Fraction(1, 1), 0)     # alpha = pi
        with pytest.raises(ConstructionError):
            equiangular_pair(FIG_P, Fraction(-1, 3), 0)

    def test_branch_outside_sheet_range_rejected(self):
        with pytest.raises(ConstructionError):
            equiangular_pair(FIG_P, Fraction(1, 2), 2)     # k = 1 allows 0..1


class TestVertexCount:
    """A pair counts the steps of its branch angle angle + branch (in units
    of pi) that fill a period 2 pi P of its support (SupportFunction.period):
    closure_steps(angle + branch, 2P)."""

    def test_paper_counts(self):
        assert equiangular_pair(FIG_P, Fraction(2, 3)).count == 3
        assert equiangular_pair(FIG_P, Fraction(2, 3), 1).count == 6     # 5/3 pi

    def test_angle_outside_the_sheets_rejected(self):
        # branch angles lie in (0, 2k): the last branch is 2k - 1
        for k in (1, 2, 3):
            p = p_cos(1.0, 2, 0.05, k)
            last = equiangular_pair(p, Fraction(1, 2), 2 * k - 1)
            assert last.angles == (2 * k - Fraction(1, 2),)
            with pytest.raises(ConstructionError, match=rf"branch must lie in \[0, {2 * k}\)"):
                equiangular_pair(p, Fraction(1, 2), 2 * k)

    def test_rational_step_on_three_sheets(self):
        # alpha = 2*pi*5/7 = (10/7)*pi on k = 3 sheets of period 6 pi
        assert equiangular_pair(p_cos(1.0, Fraction(1, 3), 0.05, 3), Fraction(3, 7), 1).count == 21

    def test_counts_over_the_support_period(self):
        # k = 2 with one l = 2 term repeats after 2 pi: 3 vertices, not the 6
        # that fill the 4 pi domain; branch 2 is one period on
        p = p_cos(1.0, 2, 0.05, 2)
        assert p.period == TWO_PI
        assert [equiangular_pair(p, Fraction(2, 3), j).count for j in (0, 1, 2)] == [3, 6, 3]

    def test_against_brute_force(self):
        # angles anywhere in (0, 2k): branch angles a + i*pi reach past 2 on k >= 2 sheets
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            den = int(rng.integers(1, 24))
            ang = Fraction(int(rng.integers(1, 2 * k * den)), den)
            acc = Fraction(0)
            steps = 0
            while True:
                acc += ang
                steps += 1
                if acc % (2 * k) == 0:
                    break
            assert closure_steps(ang, Fraction(2 * k)) == steps


class TestEquilateralPair:
    def test_spec_side_length_and_start(self):
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        # alpha = 2*pi/3, and each side touches halfway along its step
        assert pair.angles == (Fraction(2, 3),) and pair.shifts == (Fraction(1, 3),)
        side = (16 / 5) * math.tan(math.pi / 3)      # 2a tan(alpha/2)
        assert tuple(pair.vertex_curves[0].positions([0.0])[0]) == pytest.approx((2.2, 0.0),
                                                                                abs=1e-12)
        v = pair.polygon(0.41).vertices
        for s in np.hypot(*(np.roll(v, -1, axis=0) - v).T):
            assert s == pytest.approx(side, rel=1e-12)

    def test_midpoint_rides_the_unit_circle(self):
        pair = equilateral_pair(1, Fraction(2), 8 / 5)
        for start in np.linspace(0, TWO_PI, 16, endpoint=False):
            mid = pair.polygon(float(start)).vertices.mean(axis=0)
            assert abs(math.hypot(*mid) - 1.0) < 1e-12

    def test_wankel_pair(self):
        pair = equilateral_pair(1, Fraction(2), 2 + math.sqrt(3))
        assert pair.count == 3
        assert pair.envelope_support.min_curvature_radius() > 0
        poly = pair.polygon(0.0)
        assert poly.closure_gap < 1e-12
        assert np.all((0.0 < poly.chords) & (poly.chords < 1.0))

    def test_pentagram_five_vertices_on_compatible_sheets(self):
        a = math.cos(2 * math.pi / 5) * 25 / 9
        pair = equilateral_pair(4, Fraction(2, 3), a)
        assert pair.count == 5
        assert pair.envelope_support.sheets == 3      # l * k = 8/3: the 3 sheets of l
        # Y(0) = (a sec(alpha/2) + 1, 0) with a sec(alpha/2) = 25/9
        assert tuple(pair.vertex_curves[0].positions([0.0])[0]) == pytest.approx((25 / 9 + 1, 0.0),
                                                                                rel=1e-12)
        poly = pair.polygon(1.0)
        assert poly.closure_gap < 1e-12
        # pentagram exterior turn is 4*pi/5
        for turn in exterior_turns(poly):
            assert turn == pytest.approx(4 * math.pi / 5, abs=1e-12)

    def test_excluded_l_values(self):
        with pytest.raises(ConstructionError):
            equilateral_pair(1, Fraction(1), 5.0)       # alpha = pi
        with pytest.raises(ConstructionError):
            equilateral_pair(2, Fraction(3), 20.0)      # alpha = pi again

    def test_huge_l_counts_its_vertices_without_overflow(self):
        # l * l is past the float range; the count is exact all the same
        with np.errstate(over="ignore", invalid="ignore"):
            pair = equilateral_pair(1, Fraction(10**200), 1.6)
        assert pair.count == 10**200 + 1

    def test_curvature_determinant_at_critical_a_odd_sheets(self):
        k, l = 1, Fraction(2)
        n = float(l + 1)
        alpha = 2 * k * math.pi / n
        pair = equilateral_pair(k, l, math.cos(alpha / 2) * n * n)
        ts = np.linspace(0, TWO_PI, 257)
        _, vel, acc = pair.vertex_curves[0].jet_many(ts)
        det = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
        scale = 2 * n**3 * (n + 1)
        formula = scale * np.sin(float(l) * ts / 2) ** 2
        assert np.max(np.abs(det - formula)) / scale < 1e-6

    def test_curvature_determinant_at_critical_a_even_sheets(self):
        k, l = 2, Fraction(5)
        n = float(l + 1)
        alpha = 2 * k * math.pi / n
        pair = equilateral_pair(k, l, math.cos(alpha / 2) * n * n)
        ts = np.linspace(0, pair.vertex_curves[0].domain_length, 257)
        _, vel, acc = pair.vertex_curves[0].jet_many(ts)
        det = vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]
        scale = 2 * n**3 * (n + 1)
        formula = scale * np.cos(float(l) * ts / 2) ** 2
        assert np.max(np.abs(det - formula)) / scale < 1e-6

    def test_determinant_against_finite_differences(self):
        pair = equilateral_pair(1, Fraction(2), 4.5)
        h = 1e-4
        for t in (0.0, 0.7, 2.2):
            pm, p0, pp = (pair.vertex_curves[0].positions([t + d])[0] for d in (-h, 0.0, h))
            v = (pp - pm) / (2 * h)
            a = (pp - 2 * p0 + pm) / h**2
            _, vel, acc = pair.vertex_curves[0].jet_many([t])
            det_fd = v[0] * a[1] - v[1] * a[0]
            det = vel[0, 0] * acc[0, 1] - vel[0, 1] * acc[0, 0]
            assert det == pytest.approx(det_fd, abs=5e-4 * (1 + abs(det)))


class TestEquiangularPairPolygons:
    def test_triangle_counts_and_angles(self):
        pair = equiangular_pair(FIG_P, Fraction(2, 3), 0)
        assert pair.count == 3
        poly = pair.polygon(0.9)
        assert poly.closure_gap < 1e-12
        for turn in exterior_turns(poly):
            assert turn == pytest.approx(TWO_PI / 3, abs=1e-8)

    def test_hexagon_branch_count_and_angles(self):
        pair = equiangular_pair(FIG_P, Fraction(2, 3), 1)
        assert pair.count == 6
        poly = pair.polygon(0.2)
        assert poly.closure_gap < 1e-12
        # branch angle 5*pi/3 turns by -pi/3 at each vertex
        for turn in exterior_turns(poly):
            assert turn == pytest.approx(-math.pi / 3, abs=1e-8)

    def test_sides_tangent_in_support_form(self):
        pair = equiangular_pair(FIG_P, Fraction(2, 3), 0)
        poly = pair.polygon(1.7)
        for i, psi in enumerate(poly.contact_parameters):
            u = np.array([math.cos(psi), math.sin(psi)])
            pv = FIG_P.eval(psi)
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % len(poly.vertices)]
            assert abs(np.dot(a, u) - pv) < 1e-10
            assert abs(np.dot(b, u) - pv) < 1e-10


class TestEquiangularClan:
    ANGLES = [Fraction(5, 6), Fraction(5, 12), Fraction(3, 4)]
    SUPPORT = SupportFunction(1.0, (SupportTerm(Fraction(1, 2), 0.375),
                                    SupportTerm(Fraction(3, 2), 0.125)), 2)

    def test_three_distinct_curves_and_count(self):
        clan = equiangular_clan(self.SUPPORT, self.ANGLES)
        assert len(clan.vertex_curves) == 3
        assert clan.count == 6
        ts = np.linspace(0, clan.envelope.domain_length, 16)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(clan.vertex_curves[i].positions(ts),
                                       clan.vertex_curves[j].positions(ts), atol=1e-6)

    def test_polygon_closes_and_touches(self):
        clan = equiangular_clan(self.SUPPORT, self.ANGLES)
        poly = clan.polygon(0.4)
        assert len(poly.vertices) == 6
        assert poly.closure_gap < 1e-12
        for i, psi in enumerate(poly.contact_parameters):
            u = np.array([math.cos(psi), math.sin(psi)])
            pv = self.SUPPORT.eval(psi)
            a, b = poly.vertices[i], poly.vertices[(i + 1) % 6]
            assert abs(np.dot(a, u) - pv) < 1e-10
            assert abs(np.dot(b, u) - pv) < 1e-10

    def test_exterior_angles_follow_the_branch_cycle(self):
        clan = equiangular_clan(self.SUPPORT, self.ANGLES)
        poly = clan.polygon(1.3)
        turns = exterior_turns(poly)
        for idx, turn in enumerate(turns):
            expected = radians(clan.angles[idx % 3])
            assert turn == pytest.approx(expected, abs=1e-8)

    def test_count_against_brute_force_closure(self):
        clan = equiangular_clan(self.SUPPORT, self.ANGLES, [1, 0, 0])
        # |j| = 1, m = 1: the angles sum to 3*pi, so 4 turns of the cycle close on k = 2
        assert clan.count == 12
        acc = Fraction(0)
        steps = 0
        while True:
            acc += clan.angles[steps % 3]
            steps += 1
            if acc % 4 == 0:   # multiple of 2*k*pi with k = 2
                break
        assert steps == clan.count

    def test_k1_branch_example_row_count(self):
        p1 = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.5),), 1)
        angles = [Fraction(2, 3)] * 3
        clan = equiangular_clan(p1, angles, [1, 0, 0])
        assert clan.count == 6

    def test_degenerate_equal_angles_reduce_to_pair(self):
        p1 = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.5),), 1)
        clan = equiangular_clan(p1, [Fraction(2, 3)] * 3, [0, 0, 0])
        assert clan.count == closure_steps(Fraction(2, 3), Fraction(2)) == 3
        poly = clan.polygon(0.8)
        assert len(poly.vertices) == 3
        assert poly.closure_gap < 1e-12

    def test_equal_angles_walk_the_pair_of_that_angle(self):
        p1 = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.5),), 1)
        pair = equiangular_pair(p1, Fraction(2, 3))
        clan = equiangular_clan(p1, [Fraction(2, 3)] * 3)
        assert pair.count == clan.count == 3
        for start in (0.0, 0.8, 4.1):
            assert_same_polygon(pair.polygon(start), clan.polygon(start))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_repeating_the_cycle_changes_nothing(self, data):
        # the clan closes after its shortest repeating block, however often
        # the document spells that block out
        k = data.draw(st.sampled_from([1, 2]), label="k")
        den = data.draw(st.integers(2, 12), label="den")
        n = data.draw(st.integers(2, 6), label="n")
        nums = data.draw(st.lists(st.integers(1, den - 1), min_size=n - 1, max_size=n - 1))
        last = -sum(nums) % (2 * den)
        assume(1 <= last < den)
        angles = [Fraction(a, den) for a in nums + [last]]
        branches = data.draw(st.lists(st.integers(0, 2 * k - 1), min_size=n, max_size=n))
        r = data.draw(st.integers(2, 64 // n), label="r")
        support = SupportFunction(1.0, (SupportTerm(Fraction(3, k), 0.05),), k)
        try:
            clan = equiangular_clan(support, angles, branches)
        except ConstructionError as exc:
            # two consecutive branch angles that sum to a multiple of 2*k*pi
            # make two vertices meet: refused however often it is spelled out
            assert "polygon degenerates" in str(exc)
            with pytest.raises(ConstructionError, match="polygon degenerates"):
                equiangular_clan(support, angles * r, branches * r)
            return
        repeated = equiangular_clan(support, angles * r, branches * r)
        assert repeated.count == clan.count
        for start in (0.3, 2.9):
            assert_same_polygon(repeated.polygon(start), clan.polygon(start))

    def test_bad_angle_sum_rejected(self):
        with pytest.raises(ConstructionError):
            equiangular_clan(self.SUPPORT, [Fraction(2, 3), Fraction(2, 3),
                                            Fraction(1, 3)])

    def test_branch_angle_hitting_pi_rejected(self):
        p1 = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.5),), 1)
        with pytest.raises(ConstructionError):
            equiangular_clan(p1, [Fraction(1, 1), Fraction(1, 2),
                                  Fraction(1, 2)], [0, 0, 0])
