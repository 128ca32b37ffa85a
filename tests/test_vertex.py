import math
from fractions import Fraction

import numpy as np
import pytest

from poncelet import circlemaps as cm
from poncelet.equiangular import (ConstructionError, EquiangularSpec, equiangular_clan,
                                  equiangular_vertex_curve)
from poncelet.geometry import radians
from poncelet.support import SupportFunction, SupportTerm
from poncelet.vertex import ContactStepSystem, clan_from_envelope, vertex_from_envelope

TWO_PI = 2 * math.pi

FIG_P = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.9),
                              SupportTerm(Fraction(5), -2 / 9),
                              SupportTerm(Fraction(3), 0.0, 2 / 7)), 1)


def shift_torsion(L: float, m: int, n: int) -> cm.TorsionMap:
    return cm.as_torsion(cm.rotation(L, m * L / n), n)


class TestVertexFromEnvelope:
    def test_rigid_shift_reduces_to_equiangular_curve(self):
        # reference: the closed form Y = csc(a) (p(t + a) u'(t) - p(t) u'(t + a))
        f = shift_torsion(TWO_PI, 1, 3)
        res = vertex_from_envelope(ContactStepSystem(FIG_P, f))
        a = radians(Fraction(2, 3))
        ts = np.linspace(0, TWO_PI, 128, endpoint=False)
        p0, pa = FIG_P.eval(ts), FIG_P.eval(ts + a)
        want = np.stack([-pa * np.sin(ts) + p0 * np.sin(ts + a),
                         pa * np.cos(ts) - p0 * np.cos(ts + a)], axis=1) / math.sin(a)
        spec_curve = equiangular_vertex_curve(EquiangularSpec(FIG_P, Fraction(2, 3), 0))
        for curve in (res.curve, spec_curve):
            assert np.max(np.abs(curve.positions(ts) - want)) < 1e-12

    def test_constant_support_gives_circle(self):
        f = shift_torsion(TWO_PI, 1, 5)
        res = vertex_from_envelope(ContactStepSystem(SupportFunction(2.0, (), 1), f))
        ts = np.linspace(0, TWO_PI, 96, endpoint=False)
        radii = np.hypot(*res.curve.positions(ts).T)
        assert np.allclose(radii, 2.0 / math.cos(math.pi / 5), atol=1e-12)

    def test_conjugated_step_polygon_closes_and_touches(self):
        h = cm.from_fourier(TWO_PI, 0.1, (cm.FourierTerm(1, 0.08, 0.03),))
        f = cm.make_torsion(h, 1, 5)
        res = vertex_from_envelope(ContactStepSystem(SupportFunction(2.0, (), 1), f))
        poly = res.polygon(0.6)
        assert poly.closure_gap < 1e-9
        for i, psi in enumerate(poly.contact_parameters):
            u = np.array([math.cos(psi), math.sin(psi)])
            for v in (poly.vertices[i], poly.vertices[(i + 1) % 5]):
                assert abs(np.dot(v, u) - 2.0) < 1e-10

    def test_transversality_failure_located(self):
        # f moves phi by ~pi somewhere: sin(f(phi) - phi) crosses zero
        h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.1, 0.0),))
        bad = cm.TorsionMap(cm.rotation(TWO_PI, math.pi), 2)
        with pytest.raises(ConstructionError):
            ContactStepSystem(SupportFunction(2.0, (), 1), bad)  # n = 2 rejected first
        near_pi = cm.TorsionMap(
            h.inverse().compose(cm.rotation(TWO_PI, TWO_PI / 2)).compose(h), 4)
        with pytest.raises(ConstructionError, match="transversality"):
            vertex_from_envelope(ContactStepSystem(SupportFunction(2.0, (), 1), near_pi))

    def test_period_must_exceed_two(self):
        with pytest.raises(ConstructionError):
            ContactStepSystem(SupportFunction(2.0, (), 1), shift_torsion(TWO_PI, 1, 2))


class TestClanFromEnvelope:
    def test_rigid_shifts_reproduce_equiangular_clan(self):
        # exact specialization on one sheet (for k > 1 the closing side of the
        # single-cycle polygon touches at phi, not at the advanced phi + 2*pi*m)
        angles = [Fraction(5, 6), Fraction(5, 12), Fraction(3, 4)]
        support = SupportFunction(9.0, (SupportTerm(Fraction(2), 0.5),
                                        SupportTerm(Fraction(3), 0.0, 0.25)), 1)
        L = support.domain_length
        steps = [cm.rotation(L, radians(angles[0])), cm.rotation(L, radians(angles[1]))]
        clan = clan_from_envelope(support, steps)
        reference = equiangular_clan(support, angles)
        ts = np.linspace(0, L, 64, endpoint=False)
        # K_1 and K_2 sit on the tangents at phi and f_i(phi), as the
        # corollary's curves do; the closing K_3 sits on those at g_2(phi) and
        # phi, the corollary's curve at the advanced parameter
        offsets = [0.0, 0.0, radians(angles[0] + angles[1])]
        for K, K_ref, off in zip(clan.vertex_curves, reference.vertex_curves, offsets):
            assert np.max(np.abs(K.positions(ts) - K_ref.positions(ts + off))) < 1e-12

    def test_polygon_vertices_share_tangent_lines(self):
        support = SupportFunction(2.0, (), 1)
        h1 = cm.from_fourier(TWO_PI, 2.0, (cm.FourierTerm(1, 0.05, 0.0),))
        h2 = cm.from_fourier(TWO_PI, 2.4, (cm.FourierTerm(2, 0.0, 0.04),))
        clan = clan_from_envelope(support, [h1, h2])
        poly = clan.polygon(0.8)
        assert poly.closure_gap < 1e-9
        n = len(poly.vertices)
        for i, psi in enumerate(poly.contact_parameters):
            u = np.array([math.cos(psi), math.sin(psi)])
            pv = support.eval(psi)
            a, b = poly.vertices[i], poly.vertices[(i + 1) % n]
            assert abs(np.dot(a, u) - pv) < 1e-10
            assert abs(np.dot(b, u) - pv) < 1e-10

    def test_tangency_by_construction_identities(self):
        # <K_i(phi), u(psi)> = p(psi) pointwise at both tangent parameters psi:
        # phi and f_i(phi) for i < n, g_{n-1}(phi) and phi for the closing K_n
        support = SupportFunction(2.0, (), 1)
        h1 = cm.from_fourier(TWO_PI, 2.0, (cm.FourierTerm(1, 0.05, 0.0),))
        h2 = cm.from_fourier(TWO_PI, 2.4, (cm.FourierTerm(2, 0.0, 0.04),))
        clan = clan_from_envelope(support, [h1, h2])
        ts = np.linspace(0, TWO_PI, 64, endpoint=False)
        tangents = [(ts, f.lift(ts)) for f in clan.steps]
        tangents.append((cm.orbit(clan.steps, ts)[-1], ts))
        for K, phis in zip(clan.vertex_curves, tangents):
            pts = K.positions(ts)
            for phi in phis:
                proj = pts[:, 0] * np.cos(phi) + pts[:, 1] * np.sin(phi)
                assert np.max(np.abs(proj - support.eval(phi))) < 1e-10

    def test_transversality_violation_reported_with_step_index(self):
        support = SupportFunction(2.0, (), 1)
        h1 = cm.from_fourier(TWO_PI, math.pi - 0.05, (cm.FourierTerm(1, 0.08, 0.0),))
        h2 = cm.from_fourier(TWO_PI, 2.0, ())
        with pytest.raises(ConstructionError, match="transversality fails for step 1"):
            clan_from_envelope(support, [h1, h2])

    def test_parameter_space_closure_by_torsion_certificate(self):
        h = cm.from_fourier(TWO_PI, 0.1, (cm.FourierTerm(1, 0.08, 0.03),))
        f = cm.make_torsion(h, 1, 5)
        rep = cm.verify_torsion(f.map, 5, tol=1e-8)
        assert rep.passed and rep.final_displacement < 1e-8 * TWO_PI
