import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import circlemaps as cm
from poncelet import jets

TWO_PI = 2 * math.pi


def perturbed(L=TWO_PI, c=0.0, a1=0.1, seed_terms=()):
    terms = (cm.FourierTerm(1, a1, 0.0),) + tuple(seed_terms)
    return cm.from_fourier(L, c, terms)


def rotation_number(f: cm.CircleDiffeo, iterations: int) -> float:
    """Poincare rotation number estimate F^k(0) / k, scaled into [0, 1)."""
    x = cm.orbit((f,) * iterations, np.asarray(0.0))[-1]
    return float(np.mod(x / iterations, f.circumference) / f.circumference)


def min_slope(f: cm.CircleDiffeo, samples: int = 1024) -> float:
    return float(f.derivative(np.linspace(0.0, f.circumference, samples, endpoint=False)).min())


class TestRotationNumber:
    def test_rigid_rotation_two_fifths(self):
        f = cm.rotation(TWO_PI, TWO_PI * 2 / 5)
        assert rotation_number(f, 1000) == pytest.approx(0.4, abs=1e-12)

    def test_identity_is_zero(self):
        assert rotation_number(cm.rotation(TWO_PI, 0.0), 500) == 0.0

    def test_conjugated_rotation_recovers_two_fifths(self):
        h = perturbed(a1=0.09, seed_terms=(cm.FourierTerm(2, 0.0, 0.04),))
        f = cm.make_torsion(h, 2, 5)
        tau = rotation_number(f.map, 10**4)
        assert abs(tau - 0.4) < 1e-3

    def test_conjugacy_invariance(self):
        rng = np.random.default_rng(31)
        iterations = 4000
        for _ in range(5):
            amount = float(rng.uniform(0.3, 5.5))
            f = cm.rotation(TWO_PI, amount)
            h = perturbed(a1=float(rng.uniform(0.02, 0.12)))
            conj = h.inverse().compose(f).compose(h)
            t1 = rotation_number(f, iterations)
            t2 = rotation_number(conj, iterations)
            assert abs(t1 - t2) < 2.0 / iterations


class TestMakeTorsion:
    def test_identity_conjugator_quarter_turn(self):
        f = cm.make_torsion(cm.rotation(TWO_PI, 0.0), 1, 4)
        xs = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert np.max(np.abs(cm.orbit((f.map,) * 4, xs)[-1] - xs - TWO_PI)) < 1e-12

    def test_perturbed_conjugator_period_three(self):
        h = cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 0.1, 0.0),))
        f = cm.make_torsion(h, 1, 3)
        xs = np.linspace(0, TWO_PI, 64, endpoint=False)
        gap = np.max(np.abs(cm.orbit((f.map,) * 3, xs)[-1] - xs - TWO_PI))
        assert gap < 1e-9 * TWO_PI

    def test_non_coprime_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.make_torsion(cm.rotation(TWO_PI, 0.0), 2, 4)


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
        rep = cm.verify_torsion(f.map, 5)
        assert rep.passed

    def test_period_zero_is_refused(self):
        with pytest.raises(cm.CircleMapError, match="^period must be positive$"):
            cm.verify_torsion(cm.rotation(TWO_PI, 1.0), 0)

    def test_torsion_map_certifies_itself(self):
        assert cm.TorsionMap(cm.rotation(TWO_PI, TWO_PI / 3), 3).period == 3
        for f, n in [(cm.rotation(TWO_PI, 0.3), 3), (cm.rotation(TWO_PI, TWO_PI / 3), 6),
                     (cm.rotation(TWO_PI, 0.0), 0)]:
            with pytest.raises(cm.CircleMapError):
                cm.TorsionMap(f, n)


class TestConjugator:
    def test_rigid_rotation_averages_to_shifted_identity(self):
        m, n = 2, 5
        f = cm.make_torsion(cm.rotation(TWO_PI, 0.0), m, n)
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
        assert min_slope(H) > 0

    def test_identity_map_has_identity_conjugator(self):
        f = cm.make_torsion(cm.rotation(TWO_PI, 0.0), 0, 1)
        H = cm.conjugator_to_rotation(f)
        xs = np.linspace(0, TWO_PI, 32)
        assert np.max(np.abs(H.lift(xs) - xs)) == 0.0

    def test_non_torsion_input_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.conjugator_to_rotation(cm.TorsionMap(cm.rotation(TWO_PI, 0.3), 3))


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
            assert min_slope(g) > 0

    def test_inversion_without_a_preimage_raises(self):
        # an increasing degree-one lift with slope 1 - 0.5 / 2 pi that jumps
        # from pi - 1/4 to pi + 1/4 at x = pi, so y = pi has no preimage
        def derivs(x, order):
            r = np.mod(x, TWO_PI)
            slope = np.full_like(x, 1.0 - 0.5 / TWO_PI)
            return [x - 0.5 * r / TWO_PI + 0.5 * (r >= math.pi), slope] + [0 * x] * (order - 1)

        def lift(x):
            return jets.chain(x, derivs)

        jumpy = cm.CircleDiffeo(TWO_PI, lift, displacement_bound=0.5).inverse()
        x = jumpy.lift(np.array([0.5]))[0]
        assert lift(x) == pytest.approx(0.5, abs=1e-11)
        with pytest.raises(cm.CircleMapError, match="did not converge.* 1 of 2 values"):
            jumpy.lift(np.array([0.5, math.pi]))

    def test_non_monotone_lift_rejected(self):
        with pytest.raises(cm.CircleMapError):
            cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1, 1.5, 0.0),))

    def test_unit_circumference_section_convention(self):
        # the torsion-map section works on circumference 1 as well as 2*pi
        h = cm.from_fourier(1.0, 0.0, (cm.FourierTerm(1, 0.02, 0.0),))
        f = cm.make_torsion(h, 2, 5)
        assert rotation_number(f.map, 2000) == pytest.approx(0.4, abs=1e-3)


class TestMonotonicityCertificate:
    def test_aliased_harmonic_is_rejected(self):
        # F' = 1 + 2 cos(1024 x) has minimum -1, but every sample of a
        # 1024-point grid sits at a maximum of the harmonic
        with pytest.raises(cm.CircleMapError, match="not strictly increasing"):
            cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(1024, 2 / 1024, 0.0),))

    def test_minimum_between_samples_is_refined(self):
        # min F' = 1 - k R = -1e-6 at phase pi/8 off the scan grid of
        # 8 points per period, where every sample reads F' >= 0.07
        k = cm.MAX_HARMONIC
        R = (1 + 1e-6) / k
        psi = math.pi / 8
        term = cm.FourierTerm(k, R * math.cos(psi), R * math.sin(psi))
        xs = np.linspace(0.0, TWO_PI, 8 * k, endpoint=False)
        sampled = 1 + k * R * np.cos(k * xs + psi)
        assert sampled.min() > 0.07
        with pytest.raises(cm.CircleMapError, match="not strictly increasing"):
            cm.from_fourier(TWO_PI, 0.0, (term,))

    def test_monotone_lift_beyond_the_coefficient_bound_is_accepted(self):
        # 1 - (0.6 + 0.6) < 0, yet F' = 1 + 0.6 cos x + 0.6 cos 2x >= 0.325
        terms = (cm.FourierTerm(1, 0.6, 0.0), cm.FourierTerm(2, 0.3, 0.0))
        f = cm.from_fourier(TWO_PI, 0.0, terms)
        assert min_slope(f, 4096) == pytest.approx(0.325, abs=1e-6)

    def test_harmonic_above_the_cap_is_refused(self):
        with pytest.raises(cm.CircleMapError, match="4096"):
            cm.from_fourier(TWO_PI, 0.0, (cm.FourierTerm(cm.MAX_HARMONIC + 1, 1e-9, 0.0),))


# monotone Fourier lifts: raw terms scaled so that the coefficient bound
# 1 - sum (2 pi |j| / L) hypot(a, b) of the slope is at least 1e-3
raw_terms = st.lists(st.tuples(st.integers(1, 64), st.sampled_from((-1, 1)),
                               st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                     min_size=1, max_size=4).filter(
    lambda ts: any(math.hypot(a, b) > 1e-3 for _, _, a, b in ts))


class TestWarmStart:
    @settings(max_examples=60)
    @given(raw_terms, st.floats(0.0, 1.0 - 1e-3), st.floats(-3 * TWO_PI, 3 * TWO_PI),
           st.lists(st.floats(-3 * TWO_PI, 3 * TWO_PI), min_size=1, max_size=48))
    def test_round_trip_over_several_periods(self, raw, slope_budget, c, targets):
        total = sum(j * math.hypot(a, b) for j, _, a, b in raw)    # L = 2 pi: 2 pi |j| / L = |j|
        scale = slope_budget / total
        h = cm.from_fourier(TWO_PI, c, tuple(cm.FourierTerm(sign * j, a * scale, b * scale)
                                             for j, sign, a, b in raw))
        ys = np.array(targets)
        err = np.abs(h.lift(h.inverse().lift(ys)) - ys)
        # 1e-14 near the origin; beyond it the lift's own rounding grows with
        # the magnitudes of x and c, a few ulps of values up to 7 periods
        assert np.all(err <= 1e-14 * np.maximum(1.0, (abs(c) + np.abs(ys)) / TWO_PI))

    def test_inversion_that_stalled_from_the_target_converges(self):
        # slope bound 1e-3: from the start x = y, Newton stayed inside its
        # bracket without closing on the root and used up its 100 steps
        terms = (cm.FourierTerm(-49, -0.012926285212364537, 0.009482700064631366),
                 cm.FourierTerm(10, 0.004513262300353227, 0.00756456392403858),
                 cm.FourierTerm(-9, 0.012315113999779845, 0.006509703258527598))
        h = cm.from_fourier(TWO_PI, 16.116380134874426, terms)
        y = np.array([-9.96751532475281])
        assert abs(h.lift(h.inverse().lift(y))[0] - y[0]) <= 4e-14

    def test_conjugated_steps_take_two_evaluations_per_inversion(self):
        # the conjugators of the benchmark's seeded envelope-from-vertex
        # scenes: one j = 1 term, c in [0, 2 pi), |sin|, |cos| <= 0.06; the
        # table the inverse starts from is one plain evaluation, made before
        rng = np.random.default_rng(23)
        for _ in range(24):
            a, b = rng.uniform(-0.06, 0.06, 2)
            h = cm.from_fourier(TWO_PI, rng.uniform(0.0, TWO_PI), (cm.FourierTerm(1, a, b),))
            orders = []

            def lift(x, h=h):
                if isinstance(x, jets.Jet):
                    orders.append(x.order)
                return h.lift(x)

            inv = cm.CircleDiffeo(TWO_PI, lift, displacement_bound=h.displacement_bound).inverse()
            for ys in (rng.uniform(-3 * TWO_PI, 3 * TWO_PI, 64), np.linspace(0.0, TWO_PI, 37)):
                orders.clear()
                inv.lift(ys)
                assert orders in ([1], [1, 1])
