import math

import numpy as np
import pytest

from poncelet import circlemaps as cm

TWO_PI = 2 * math.pi


def perturbed(L=TWO_PI, c=0.0, a1=0.1, seed_terms=()):
    terms = (cm.FourierTerm(1, a1, 0.0),) + tuple(seed_terms)
    return cm.from_fourier(L, c, terms)


class TestRotationNumber:
    def test_rigid_rotation_two_fifths(self):
        f = cm.rotation(TWO_PI, TWO_PI * 2 / 5)
        assert cm.rotation_number(f, 1000) == pytest.approx(0.4, abs=1e-12)

    def test_identity_is_zero(self):
        assert cm.rotation_number(cm.identity(TWO_PI), 500) == 0.0

    def test_conjugated_rotation_recovers_two_fifths(self):
        h = perturbed(a1=0.09, seed_terms=(cm.FourierTerm(2, 0.0, 0.04),))
        f = cm.make_torsion(h, 2, 5)
        tau = cm.rotation_number(f.map, 10**4)
        assert abs(tau - 0.4) < 1e-3

    def test_conjugacy_invariance(self):
        rng = np.random.default_rng(31)
        iterations = 4000
        for _ in range(5):
            amount = float(rng.uniform(0.3, 5.5))
            f = cm.rotation(TWO_PI, amount)
            h = perturbed(a1=float(rng.uniform(0.02, 0.12)))
            conj = h.inverse().compose(f).compose(h)
            t1 = cm.rotation_number(f, iterations)
            t2 = cm.rotation_number(conj, iterations)
            assert abs(t1 - t2) < 2.0 / iterations


class TestMakeTorsion:
    def test_identity_conjugator_quarter_turn(self):
        f = cm.make_torsion(cm.identity(TWO_PI), 1, 4)
        xs = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert np.max(np.abs(f.map.iterate(xs, 4) - xs - TWO_PI)) < 1e-12

    def test_perturbed_conjugator_period_three(self):
        h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.1, 0.0),))
        f = cm.make_torsion(h, 1, 3)
        xs = np.linspace(0, TWO_PI, 64, endpoint=False)
        gap = np.max(np.abs(f.map.iterate(xs, 3) - xs - TWO_PI))
        assert gap < 1e-9 * TWO_PI

    def test_non_coprime_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.make_torsion(cm.identity(TWO_PI), 2, 4)


class TestVerifyTorsion:
    def test_third_rotation_has_period_three(self):
        rep = cm.verify_torsion(cm.rotation(TWO_PI, TWO_PI / 3), 3)
        assert rep.passed
        assert rep.min_intermediate == pytest.approx(TWO_PI / 3, abs=1e-12)

    def test_period_six_fails_minimality(self):
        rep = cm.verify_torsion(cm.rotation(TWO_PI, TWO_PI / 3), 6)
        assert not rep.passed
        assert rep.min_intermediate < 1e-12

    def test_constructed_period_five_passes(self):
        h = perturbed(a1=0.07)
        f = cm.make_torsion(h, 1, 5)
        rep = cm.verify_torsion(f.map, 5, tol=1e-8)
        assert rep.passed


class TestConjugator:
    def test_rigid_rotation_averages_to_shifted_identity(self):
        m, n = 2, 5
        f = cm.make_torsion(cm.identity(TWO_PI), m, n)
        H = cm.conjugator_to_rotation(f)
        xs = np.linspace(0, TWO_PI, 64)
        shift = (m / n) * TWO_PI * (n - 1) / 2
        assert np.max(np.abs(H.lift(xs) - xs - shift)) < 1e-12

    def test_conjugation_identity_for_constructed_map(self):
        h0 = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.11, -0.02),))
        f = cm.make_torsion(h0, 1, 3)
        H = cm.conjugator_to_rotation(f)
        xs = np.linspace(0, TWO_PI, 256, endpoint=False)
        err = np.abs(H.lift(f.map.lift(xs)) - H.lift(xs) - TWO_PI / 3)
        assert np.max(err) < 1e-8
        assert H.min_derivative() > 0

    def test_identity_map_has_identity_conjugator(self):
        f = cm.make_torsion(cm.identity(TWO_PI), 0, 1)
        H = cm.conjugator_to_rotation(f)
        xs = np.linspace(0, TWO_PI, 32)
        assert np.max(np.abs(H.lift(xs) - xs)) == 0.0

    def test_non_torsion_input_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.conjugator_to_rotation(cm.TorsionMap(cm.rotation(TWO_PI, 0.3), 3, 1))


class TestLiftMechanics:
    def test_inverse_round_trip(self):
        h = perturbed(c=0.4, a1=0.12, seed_terms=(cm.FourierTerm(3, 0.0, 0.02),))
        hinv = h.inverse()
        xs = np.linspace(0, TWO_PI, 256, endpoint=False)
        assert np.max(np.abs(h.lift(hinv.lift(xs)) - xs)) < 1e-10 * TWO_PI
        assert np.max(np.abs(hinv.lift(h.lift(xs)) - xs)) < 1e-10 * TWO_PI

    def test_lift_periodicity_by_construction(self):
        h = perturbed(c=1.2, a1=0.05)
        xs = np.linspace(0, TWO_PI, 64)
        assert np.max(np.abs(h.lift(xs + TWO_PI) - h.lift(xs) - TWO_PI)) < 1e-12

    def test_monotone_composites_and_conjugator(self):
        h = perturbed(a1=0.11)
        f = cm.make_torsion(h, 1, 4)
        H = cm.conjugator_to_rotation(f)
        for g in (f.map, h.inverse().compose(h), H):
            assert g.min_derivative(1024) > 0

    def test_inversion_without_a_preimage_raises(self):
        # an increasing degree-one lift that jumps from pi - 1/4 to pi + 1/4
        # at x = pi, so y = pi has no preimage
        def lift(x):
            r = np.mod(np.asarray(x, dtype=float), TWO_PI)
            return x - 0.5 * r / TWO_PI + 0.5 * (r >= math.pi)

        jumpy = cm.CircleDiffeo(TWO_PI, lift, displacement_bound=0.5).inverse()
        x = jumpy.lift(np.array([0.5]))[0]
        assert lift(x) == pytest.approx(0.5, abs=1e-11)
        with pytest.raises(cm.CircleMapError, match="did not converge.* 1 of 2 values"):
            jumpy.lift(np.array([0.5, math.pi]))

    def test_non_monotone_lift_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 1.5, 0.0),))

    def test_serialization_round_trip(self):
        h = cm.from_fourier(1.0, 0.25, (cm.FourierTerm(1, 0.03, 0.01),
                                        cm.FourierTerm(2, -0.02, 0.0)))
        doc = h.to_dict()
        assert doc == {"L": 1.0, "c": 0.25,
                       "terms": [{"j": 1, "sin": 0.03, "cos": 0.01},
                                 {"j": 2, "sin": -0.02, "cos": 0.0}]}
        g = cm.CircleDiffeo.from_dict(doc)
        xs = np.linspace(0, 1, 64)
        assert np.max(np.abs(g.lift(xs) - h.lift(xs))) == 0.0

    def test_unit_circumference_section_convention(self):
        # the torsion-map section works on circumference 1 as well as 2*pi
        h = cm.from_fourier(1.0, 0.0, (cm.FourierTerm(1, 0.02, 0.0),))
        f = cm.make_torsion(h, 2, 5)
        assert cm.rotation_number(f.map, 2000) == pytest.approx(0.4, abs=1e-3)
