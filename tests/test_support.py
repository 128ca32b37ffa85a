import math
from fractions import Fraction

import numpy as np
import pytest

from poncelet.support import (SupportError, SupportFunction, SupportTerm,
                              constant_width_check, curve_from_support, signed_area)

WANKEL_A = 2 + math.sqrt(3)


def curvature(curve, ts) -> np.ndarray:
    _, vel, acc = curve.jet_many(ts)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    return (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed ** 3


def jet(p, phi):
    """(p, p', p'') at phi."""
    return p.eval(phi, 0), p.eval(phi, 1), p.eval(phi, 2)


def cos_poly(a, *freqs_coeffs, k=1):
    terms = tuple(SupportTerm(Fraction(f), c) for f, c in freqs_coeffs)
    return SupportFunction(a, terms, k)


class TestEvalJet:
    def test_figure_family_at_zero(self):
        p = cos_poly(8 / 5, (2, 1.0))
        assert jet(p, 0.0) == pytest.approx((2.6, 0.0, -4.0), abs=1e-15)

    def test_constant(self):
        p = SupportFunction(3.25, (), 1)
        for phi in (0.0, 1.0, 17.3):
            assert jet(p, phi) == (3.25, 0.0, 0.0)

    def test_wankel_constant_at_quarter_pi(self):
        p = cos_poly(WANKEL_A, (2, 1.0))
        v, d1, d2 = jet(p, math.pi / 4)
        assert v == pytest.approx(WANKEL_A, abs=1e-15)
        assert d1 == pytest.approx(-2.0, abs=1e-14)
        assert d2 == pytest.approx(0.0, abs=1e-13)

    def test_reduction_mod_domain(self):
        p = cos_poly(1.0, (Fraction(2, 3), 0.5), k=3)
        assert p.eval(0.4 + 6 * math.pi) == pytest.approx(p.eval(0.4), abs=1e-12)


class TestSheetValidation:
    def test_fractional_frequency_needs_compatible_sheets(self):
        cos_poly(1.0, (Fraction(2, 3), 1.0), k=3)   # fine
        with pytest.raises(SupportError):
            cos_poly(1.0, (Fraction(2, 3), 1.0), k=4)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(SupportError):
            cos_poly(1.0, (Fraction(-1), 1.0))

    def test_period_is_two_pi_times_the_denominators_lcm(self):
        assert cos_poly(1.0, k=5).period == 2 * math.pi
        assert cos_poly(1.0, (Fraction(2), 1.0), k=4).period == 2 * math.pi
        p = cos_poly(1.0, (Fraction(1, 2), 1.0), (Fraction(2, 3), 0.5), k=12)
        assert p.period == 6 * 2 * math.pi
        curve = curve_from_support(p)
        ts = np.linspace(0.0, p.period, 64)
        assert np.allclose(curve.positions(ts + p.period), curve.positions(ts), atol=1e-12)
        assert not np.allclose(curve.positions(ts + p.period / 2), curve.positions(ts))


class TestCurveFromSupport:
    def test_constant_support_gives_circle(self):
        p = SupportFunction(2.5, (), 1)
        curve = curve_from_support(p)
        ts = np.linspace(0, 2 * math.pi, 97)
        pts = curve.positions(ts)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.5, atol=1e-14)
        assert p.min_curvature_radius() > 0
        assert curve.closure_gap() < 1e-9

    def test_figure_pair_start_point(self):
        p = cos_poly(8 / 5, (2, 1.0))
        curve = curve_from_support(p)
        assert tuple(curve.positions([0.0])[0]) == pytest.approx((2.6, 0.0), abs=1e-15)
        assert p.min_curvature_radius() <= 0  # a < l^2 - 1: cusped envelope

    def test_radius_of_curvature_three_lobes(self):
        p = cos_poly(8.1, (3, 1.0))
        v, _, d2 = jet(p, 0.0)
        assert v + d2 == pytest.approx(8.1 + 1 - 9, abs=1e-12)
        assert p.min_curvature_radius() > 0

    def test_jets_match_central_differences(self):
        p = cos_poly(9.0, (2, 0.9), (5, -2 / 9))
        p = SupportFunction(9.0, p.terms + (SupportTerm(Fraction(3), 0.0, 2 / 7),), 1)
        curve = curve_from_support(p)
        rng = np.random.default_rng(23)
        h = 1e-5
        for t in rng.uniform(0, 2 * math.pi, 100):
            pos, vel, acc = curve.jet_many([t])
            fd_v = (curve.positions([t + h])[0] - curve.positions([t - h])[0]) / (2 * h)
            fd_a = (curve.positions([t + h])[0] - 2 * pos[0] + curve.positions([t - h])[0]) / h**2
            assert np.allclose(vel[0], fd_v, rtol=1e-6, atol=1e-6)
            assert np.allclose(acc[0], fd_a, rtol=1e-4, atol=1e-4)

    def test_curvature_is_reciprocal_support_radius(self):
        p = cos_poly(8.1, (3, 1.0))
        curve = curve_from_support(p)
        ts = np.linspace(0.1, 2 * math.pi, 64)
        kappa = curvature(curve, ts)
        rho = p.eval(ts) + p.eval(ts, 2)
        assert np.max(np.abs(kappa - 1.0 / rho)) < 1e-8

    def test_signed_area_of_circle(self):
        a = 0.7
        curve = curve_from_support(SupportFunction(a, (), 1))
        assert signed_area(curve, 4096) == pytest.approx(math.pi * a * a, abs=1e-6)


class TestConstantWidth:
    def test_odd_frequency_has_constant_width(self):
        assert constant_width_check(cos_poly(9.5, (3, 1.0))) is True

    def test_even_frequency_does_not(self):
        assert constant_width_check(cos_poly(9.5, (2, 1.0))) is False

    def test_odd_mixture(self):
        p = SupportFunction(26.0, (SupportTerm(Fraction(5), 1.0),
                                   SupportTerm(Fraction(3), 0.1)), 1)
        assert constant_width_check(p) is True

    def test_multi_sheet_rejected(self):
        with pytest.raises(SupportError):
            constant_width_check(cos_poly(1.0, (Fraction(1, 2), 0.2), k=2))


def test_derivative_of_a_huge_frequency_overflows_to_infinity():
    p = SupportFunction(1.0, (SupportTerm(Fraction(10**200), 1.0),), 1)
    with np.errstate(over="ignore"):
        assert math.isinf(p.eval(0.0, 2))


def test_plane_curve_min_speed_positive_for_circle():
    curve = curve_from_support(SupportFunction(2.5, (), 1))
    assert curve.min_speed() == pytest.approx(2.5, abs=1e-12)


class TestEvalOrders:
    P = SupportFunction(1.5, (SupportTerm(Fraction(2), 0.3, -0.2),
                              SupportTerm(Fraction(1, 2), 0.1, 0.4)), 2)

    def _closed_form(self, phi, order):
        # d^n/dphi^n of c cos(l phi) + s sin(l phi) = l^n (c cos(l phi + n pi/2) + s sin(...))
        out = np.full_like(phi, self.P.constant if order == 0 else 0.0)
        for t in self.P.terms:
            l = float(t.frequency)
            arg = l * phi + order * math.pi / 2
            out += l ** order * (t.cos_coeff * np.cos(arg) + t.sin_coeff * np.sin(arg))
        return out

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
    def test_orders_match_the_closed_form(self, order):
        phi = np.linspace(0.0, 4 * math.pi, 50)
        assert np.max(np.abs(self.P.eval(phi, order) - self._closed_form(phi, order))) < 1e-13

    def test_numpy_integer_order_is_accepted(self):
        assert self.P.eval(0.7, np.int64(4)) == self.P.eval(0.7, 4)

    @pytest.mark.parametrize("order", [-1, 1.5, 2.0, True, "2", None])
    def test_invalid_orders_are_refused(self, order):
        with pytest.raises(ValueError, match="integer >= 0"):
            self.P.eval(0.7, order)
