import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poncelet.jets import Jet
from poncelet.support import (PlaneCurve, SupportError, SupportFunction, SupportTerm,
                              curve_from_support)

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


def constant_width(p: SupportFunction) -> bool:
    """p(phi) + p(phi + pi) == 2a within 1e-10 on 720 points of one sheet."""
    phi = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    width = p.eval(phi) + p.eval(phi + math.pi)
    return float(np.max(np.abs(width - 2.0 * p.constant))) < 1e-10


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


@st.composite
def supports(draw):
    """Up to four terms on 1 to 3 sheets, with a either drawn from [-1, 3] or
    within a relative 1e-6 of sum |1 - l^2| hypot(c, s), where the bound of
    the radius of curvature is tight."""
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(st.integers(1, 12).map(lambda j: Fraction(j, k)),
                                   st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=4))
    tight = sum(abs(1 - float(l) ** 2) * math.hypot(c, s) for l, c, s in rows)
    a = draw(st.one_of(st.floats(-1.0, 3.0),
                       st.floats(-1e-12, 1e-6).map(lambda e: tight * (1.0 + e))))
    return SupportFunction(a, tuple(SupportTerm(*row) for row in rows), k)


class TestCurveFromSupport:
    def test_constant_support_gives_circle(self):
        p = SupportFunction(2.5, (), 1)
        curve = curve_from_support(p)
        ts = np.linspace(0, 2 * math.pi, 97)
        pts = curve.positions(ts)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.5, atol=1e-14)
        assert p.min_curvature_radius() > 0
        assert np.hypot(*(pts[-1] - pts[0])) < 1e-9   # ts ends at the domain length

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

    @settings(max_examples=200, deadline=None)
    @given(supports())
    # rho = a - 3 cos 2phi with a one ulp above 3: the bound without its
    # rounding margin is 4.4e-16, but the sampled a + cos - 4 cos reads 0
    @example(SupportFunction(3.0000000000000004, (SupportTerm(Fraction(2), 1.0),)))
    def test_curvature_radius_bound_is_below_the_sampled_minimum(self, p):
        bound, sampled = p.curvature_radius_bound(), p.min_curvature_radius()
        if bound > 0:
            assert sampled > 0
        assert sampled >= bound

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
        x, y = curve_from_support(SupportFunction(a, (), 1)).sample(4096).T
        area = 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))   # shoelace
        assert area == pytest.approx(math.pi * a * a, abs=1e-6)


class TestConstantWidth:
    def test_odd_frequency_has_constant_width(self):
        assert constant_width(cos_poly(9.5, (3, 1.0)))

    def test_even_frequency_does_not(self):
        assert not constant_width(cos_poly(9.5, (2, 1.0)))

    def test_odd_mixture(self):
        p = SupportFunction(26.0, (SupportTerm(Fraction(5), 1.0),
                                   SupportTerm(Fraction(3), 0.1)), 1)
        assert constant_width(p)


def test_derivative_of_a_huge_frequency_overflows_to_infinity():
    p = SupportFunction(1.0, (SupportTerm(Fraction(10**200), 1.0),), 1)
    with np.errstate(over="ignore"):
        assert math.isinf(p.eval(0.0, 2))


def _hand_written_circle(radius: float) -> PlaneCurve:
    """A circle given only by its jet on arrays, as a test or a control writes one."""
    def jet_fn(ts):
        u = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        return radius * u, radius * np.stack([-u[:, 1], u[:, 0]], axis=1), -radius * u
    return PlaneCurve(2 * math.pi, jet_fn, label="hand")


class TestJetOrders:
    TS = np.linspace(0.0, 2 * math.pi, 33) + 0.1

    def test_hand_written_jet_is_cut_to_the_order_asked(self):
        curve = _hand_written_circle(1.5)
        first, second = curve.jet_many(self.TS, 1), curve.jet_many(self.TS)
        assert len(first) == 2 and len(second) == 3
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second[:2]]

    def test_library_curve_takes_the_taylor_jet_of_its_positions(self):
        curve = curve_from_support(cos_poly(2.0, (3, 0.1)))
        assert curve.jet_fn is None
        x = curve.positions(Jet.variable(self.TS, 1))
        assert [a.tobytes() for a in curve.jet_many(self.TS, 1)] == [x.v.tobytes(),
                                                                    x.d[0].tobytes()]

    @pytest.mark.parametrize("order", [0, 3, 1.0, "1"])
    def test_other_orders_are_refused(self, order):
        for curve in (curve_from_support(cos_poly(2.0)), _hand_written_circle(1.0)):
            with pytest.raises(ValueError, match="jet order must be 1 or 2"):
                curve.jet_many(self.TS, order)

    def test_jet_positions_without_a_position_function_name_the_curve(self):
        curve = _hand_written_circle(1.0)
        assert np.allclose(curve.positions([0.0]), [[1.0, 0.0]])
        with pytest.raises(TypeError, match="'hand' has no position function for Jets"):
            curve.positions(Jet.variable(self.TS, 1))


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

    def test_derivatives_give_every_order_in_one_pass(self):
        phi = np.linspace(0.0, 4 * math.pi, 50)
        ds = self.P.derivatives(phi, 6)
        assert len(ds) == 6
        for order, d in enumerate(ds):
            assert np.max(np.abs(d - self._closed_form(phi, order))) < 1e-13

    def test_numpy_integer_order_is_accepted(self):
        assert self.P.eval(0.7, np.int64(4)) == self.P.eval(0.7, 4)

    @pytest.mark.parametrize("order", [-1, 1.5, 2.0, True, "2", None])
    def test_invalid_orders_are_refused(self, order):
        with pytest.raises(ValueError, match="integer >= 0"):
            self.P.eval(0.7, order)

    def _per_call_derivatives(self, phi, count):
        """derivatives as written when it converted each frequency on every call."""
        phi = np.mod(np.asarray(phi, dtype=float), self.P.domain_length)
        out = [np.full_like(phi, self.P.constant if i == 0 else 0.0) for i in range(count)]
        for t in self.P.terms:
            l = np.float64(t.frequency)
            cos, sin = np.cos(l * phi), np.sin(l * phi)
            c, s = t.cos_coeff, t.sin_coeff
            for order in range(count):
                a, b = ((c, s), (s, -c), (-c, -s), (-s, c))[order % 4]
                out[order] = out[order] + (l ** order) * (a * cos + b * sin)
        return out

    def test_derivatives_match_the_per_call_conversion_bit_for_bit(self):
        phi = np.linspace(-3.0, 15.0, 97)
        got, ref = self.P.derivatives(phi, 6), self._per_call_derivatives(phi, 6)
        assert [d.tobytes() for d in got] == [d.tobytes() for d in ref]

    def test_eval_converts_no_frequency(self, monkeypatch):
        calls = []
        to_float = Fraction.__float__

        def counted(self):
            calls.append(self)
            return to_float(self)

        monkeypatch.setattr(Fraction, "__float__", counted)
        self.P.eval(np.linspace(0.0, 4 * math.pi, 50), 3)
        self.P.eval(0.7)
        self.P.eval(Jet.variable(np.array([0.1, 0.2]), 2), 1)
        assert calls == []
