"""Taylor jets: the arithmetic itself, the jets of circle maps and curves
against the chain and inverse-function rules written out here, an envelope
with a closed-form answer, and the accuracy the exact derivatives buy the
verifier on implicit envelopes."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import circlemaps as cm
from poncelet import jets
from poncelet.envelope import envelope_from_vertex
from poncelet.jets import Jet
from poncelet.scene import build_scene, load_scene
from poncelet.support import SupportFunction, SupportTerm, curve_from_position, curve_from_support

TWO_PI = 2 * math.pi
TS = np.linspace(0.0, TWO_PI, 37, endpoint=False) + 0.01


def jet_of(fn, ts, order=3):
    """(value, d1, ..., d_order) of fn along the parameter ts."""
    x = fn(Jet.variable(ts, order))
    return (x.v,) + x.d


# --- the arithmetic ------------------------------------------------------------

class TestArithmetic:
    def test_quotient_rule_and_product_back(self):
        t = Jet.variable(TS, 3)
        num, den = t * t * t - 2.0 * t + 1.0, t * t + 1.0
        q = num / den
        n0, n1 = TS ** 3 - 2 * TS + 1, 3 * TS ** 2 - 2
        d0, d1 = TS ** 2 + 1, 2 * TS
        assert np.allclose(q.v, n0 / d0, rtol=0, atol=1e-14)
        assert np.allclose(q.d[0], (n1 * d0 - n0 * d1) / d0 ** 2, rtol=0, atol=1e-13)
        back = q * den
        want = [n0, n1, 6 * TS, np.full_like(TS, 6.0)]
        for got, w in zip((back.v,) + back.d, want):
            assert np.allclose(got, w, rtol=0, atol=1e-11)

    def test_trig_and_composition(self):
        t = Jet.variable(TS, 3)
        y = jets.sin(2.0 * t) * jets.cos(t)
        # sin 2t cos t = (sin 3t + sin t) / 2
        want = [(np.sin(3 * TS) + np.sin(TS)) / 2, (3 * np.cos(3 * TS) + np.cos(TS)) / 2,
                (-9 * np.sin(3 * TS) - np.sin(TS)) / 2, (-27 * np.cos(3 * TS) - np.cos(TS)) / 2]
        for got, w in zip((y.v,) + y.d, want):
            assert np.allclose(got, w, rtol=0, atol=1e-13)
        # exp(sin t) through compose: derivatives e^s (c), e^s (c^2 - s), e^s (c^3 - 3 s c - c)
        s, c = np.sin(TS), np.cos(TS)
        e = np.exp(s)
        z = jets.sin(t).compose([e, e, e, e])
        want = [e, e * c, e * (c * c - s), e * (c ** 3 - 3 * s * c - c)]
        for got, w in zip((z.v,) + z.d, want):
            assert np.allclose(got, w, rtol=0, atol=1e-13)

    def test_arrays_pass_through_unchanged(self):
        assert np.array_equal(jets.sin(TS), np.sin(TS))
        assert np.array_equal(jets.stack([TS, -TS]), np.stack([TS, -TS], axis=1))
        assert np.array_equal(jets.chain(TS, lambda v, order: [v * v]), TS * TS)

    def test_mixed_orders_truncate(self):
        a, b = Jet.variable(TS, 3), Jet.variable(TS, 1)
        assert (a * b).order == 1 and (a + b).order == 1 and (a / b).order == 1

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_variable_carries_the_order_asked(self, order):
        # t' = 1 and nothing higher; order 0 is the bare parameter
        t = Jet.variable(TS, order)
        want = [np.ones_like(TS), *[np.zeros_like(TS)] * (order - 1)][:order]
        assert t.order == order and len(t.d) == len(want)
        assert all(np.array_equal(d, w) for d, w in zip(t.d, want))
        assert jets.sin(t).order == order

    def test_composition_beyond_order_three_is_refused(self):
        with pytest.raises(ValueError, match="order 3"):
            jets.sin(Jet.variable(TS, 4))


# --- circle maps -----------------------------------------------------------------

def fourier_derivs(c, terms, L, x):
    """F, F', F'', F''' of the Fourier lift, written out term by term."""
    w = TWO_PI / L
    out = [x + c, np.ones_like(x), np.zeros_like(x), np.zeros_like(x)]
    for t in terms:
        k = w * t.j
        sn, cs = np.sin(k * x), np.cos(k * x)
        a, b = t.sin_coeff, t.cos_coeff
        out[0] = out[0] + a * sn + b * cs
        out[1] = out[1] + k * (a * cs - b * sn)
        out[2] = out[2] - k * k * (a * sn + b * cs)
        out[3] = out[3] - k ** 3 * (a * cs - b * sn)
    return out


def chain_rule(outer, inner):
    """Derivatives 0..3 of outer(inner(x)) from outer's derivatives at
    inner(x) and inner's derivatives at x (Faa di Bruno, order 3)."""
    g0, g1, g2, g3 = inner
    f0, f1, f2, f3 = outer
    return [f0, f1 * g1, f2 * g1 ** 2 + f1 * g2, f3 * g1 ** 3 + 3 * f2 * g1 * g2 + f1 * g3]


coeff = st.floats(-0.06, 0.06, allow_nan=False)
fourier_terms = st.lists(st.builds(cm.FourierTerm, st.integers(1, 3), coeff, coeff),
                         min_size=1, max_size=3)
offsets = st.floats(0.0, TWO_PI, allow_nan=False)


def fourier_map(c, terms):
    return cm.from_fourier(TWO_PI, c, tuple(terms))


@settings(max_examples=30)
@given(offsets, fourier_terms)
def test_lift_of_inverse_is_the_identity_jet(c, terms):
    h = fourier_map(c, terms)
    v, d1, d2, d3 = jet_of(lambda t: h.lift(h.inverse().lift(t)), TS)
    assert np.max(np.abs(v - TS)) < 1e-11
    assert np.max(np.abs(d1 - 1.0)) < 1e-12
    assert np.max(np.abs(d2)) < 1e-12 and np.max(np.abs(d3)) < 1e-12


@settings(max_examples=30)
@given(offsets, fourier_terms)
def test_inverse_jet_of_each_order_is_the_order_three_jet_cut(c, terms):
    # the inverse takes the lift's jet at its argument's order, not always 3
    inv = fourier_map(c, terms).inverse()
    full = jet_of(inv.lift, TS)
    for order in range(4):
        cut = jet_of(inv.lift, TS, order)
        assert [a.tobytes() for a in cut] == [a.tobytes() for a in full[:order + 1]]


@settings(max_examples=30)
@given(offsets, fourier_terms)
def test_lift_inversion_ends_at_rounding(c, terms):
    h = fourier_map(c, terms)
    ys = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    assert np.max(np.abs(h.lift(h.inverse().lift(ys)) - ys)) <= 1e-14


@settings(max_examples=30)
@given(offsets, fourier_terms, offsets, fourier_terms)
def test_compose_jets_follow_the_chain_rule(c1, terms1, c2, terms2):
    inner, outer = fourier_map(c1, terms1), fourier_map(c2, terms2)
    got = jet_of(outer.compose(inner).lift, TS)
    g = fourier_derivs(c1, terms1, TWO_PI, TS)
    want = chain_rule(fourier_derivs(c2, terms2, TWO_PI, g[0]), g)
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.max(np.abs(a - b)) < 1e-12, k


@settings(max_examples=30)
@given(offsets, fourier_terms)
def test_inverse_jets_follow_the_inverse_function_rule(c, terms):
    h = fourier_map(c, terms)
    g0, g1, g2, g3 = jet_of(h.inverse().lift, TS)
    F = fourier_derivs(c, terms, TWO_PI, g0)
    assert np.max(np.abs(F[0] - TS)) < 1e-11
    assert np.max(np.abs(g1 - 1.0 / F[1])) < 1e-12
    assert np.max(np.abs(g2 + F[2] / F[1] ** 3)) < 1e-12
    assert np.max(np.abs(g3 - (-F[3] / F[1] ** 4 + 3 * F[2] ** 2 / F[1] ** 5))) < 1e-12


@settings(max_examples=15)
@given(offsets, fourier_terms, st.sampled_from([(1, 3), (1, 4), (2, 5)]))
def test_conjugator_jets_average_the_iterates_by_the_chain_rule(c, terms, mn):
    m, n = mn
    f = cm.make_torsion(fourier_map(c, terms), m, n)
    got = jet_of(cm.conjugator_to_rotation(f).lift, TS)
    # H = (1/n) sum_j F^j; the jet of F^(j+1) is F's jet chained onto F^j's
    it = [TS, np.ones_like(TS), np.zeros_like(TS), np.zeros_like(TS)]
    total = list(it)
    for _ in range(n - 1):
        it = chain_rule(jet_of(f.map.lift, it[0]), it)
        total = [a + b for a, b in zip(total, it)]
    for k, (a, b) in enumerate(zip(got, total)):
        assert np.max(np.abs(a - b / n)) < 1e-12, k


# --- curves --------------------------------------------------------------------

support_terms = st.lists(
    st.builds(SupportTerm, st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(5)]),
              st.floats(-0.2, 0.2, allow_nan=False), st.floats(-0.2, 0.2, allow_nan=False)),
    max_size=3)


@settings(max_examples=40)
@given(st.floats(0.5, 10.0), support_terms,
       st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=40))
def test_support_curve_jets_equal_the_closed_form_bit_for_bit(a, terms, ts):
    p = SupportFunction(a, tuple(terms), 1)
    ts = np.array(ts)
    pos, vel, acc = curve_from_support(p).jet_many(ts)
    c, s = np.cos(ts), np.sin(ts)
    u, up = np.stack([c, s], axis=1), np.stack([-s, c], axis=1)
    p0, p1 = p.eval(ts), p.eval(ts, 1)
    rho = p0 + p.eval(ts, 2)
    drho = p1 + p.eval(ts, 3)
    assert np.array_equal(pos, p0[:, None] * u + p1[:, None] * up)
    assert np.array_equal(vel, rho[:, None] * up)
    assert np.array_equal(acc, drho[:, None] * up - rho[:, None] * u)


def test_support_curve_third_derivative():
    p = SupportFunction(3.0, (SupportTerm(Fraction(2), 0.3, -0.1),
                              SupportTerm(Fraction(3), 0.0, 0.2)))
    X = curve_from_support(p)
    _, _, x2, x3 = jet_of(X.positions, TS)
    # X'' = rho' u' - rho u differentiates to (rho'' - rho) u' - 2 rho' u
    c, s = np.cos(TS), np.sin(TS)
    rho = p.eval(TS) + p.eval(TS, 2)
    drho = p.eval(TS, 1) + p.eval(TS, 3)
    ddrho = p.eval(TS, 2) + p.eval(TS, 4)
    want = ((ddrho - rho)[:, None] * np.stack([-s, c], axis=1)
            - 2 * drho[:, None] * np.stack([c, s], axis=1))
    assert np.max(np.abs(x3 - want)) < 1e-12
    assert np.max(np.abs(x2 - X.jet_many(TS)[2])) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("R", [1.0, 2.5])
def test_envelope_of_a_reparametrized_circle(n, R):
    """Y(t) = R u(h(t)) with the step f = h^-1 o r o h: side t joins R u(h(t))
    and R u(h(t) + a), a = 2 pi / n, so the envelope in the vertex parameter
    is exactly R cos(a/2) u(h(t) + a/2), with the chain rule through h for
    its derivatives.

    Y o f inverts h once, and lift inversion ends at rounding, so the
    envelope is exact to rounding too."""
    h = cm.from_fourier(TWO_PI, 0.4, (cm.FourierTerm(1, 0.05, -0.03), cm.FourierTerm(2, 0.0, 0.02)))

    def position(ts):
        phi = h.lift(ts)
        return R * jets.stack([jets.cos(phi), jets.sin(phi)])

    Y = curve_from_position(TWO_PI, position, label="K")
    result = envelope_from_vertex(Y, cm.make_torsion(h, 1, n))
    half = math.pi / n
    pos, vel, acc = result.curve.jet_many(TS)
    r = R * math.cos(half)
    phi, h1, h2 = jet_of(h.lift, TS, 2)
    u = np.stack([np.cos(phi + half), np.sin(phi + half)], axis=1)
    up = np.stack([-u[:, 1], u[:, 0]], axis=1)
    want_vel = r * h1[:, None] * up
    want_acc = r * (h2[:, None] * up - (h1 * h1)[:, None] * u)
    for got, want in ((pos, r * u), (vel, want_vel), (acc, want_acc)):
        assert np.max(np.abs(got - want)) < 1e-12


# --- what the exact jets buy the verifier ------------------------------------------

def _doc(construction, parameters, probes):
    return {"construction": construction, "parameters": parameters,
            "verify": {"probes": probes, "tol": None, "expect_interior": True}}


def _support(a, terms):
    return {"a": a, "k": 1, "terms": [{"l_num": l, "l_den": 1, "cos": cs, "sin": 0.0}
                                      for l, cs in terms]}


def _vertex_clan(rng):
    """A clan-from-vertex scene from the parameter ranges of the benchmark."""
    steps = [{"c": TWO_PI / 3, "terms": [{"j": 1, "sin": rng.uniform(0.02, 0.04), "cos": 0.0}]},
             {"c": TWO_PI / 3, "terms": [{"j": 2, "sin": 0.0, "cos": rng.uniform(0.01, 0.03)}]}]
    return _doc("clan-from-vertex",
                {"support": _support(1.0, [(2, rng.uniform(0.02, 0.06))]), "steps": steps}, 16)


def _conjugated_envelope(rng):
    """An envelope-from-vertex scene with a Fourier conjugator h."""
    h = {"c": rng.uniform(0.0, TWO_PI),
         "terms": [{"j": 1, "sin": rng.uniform(-0.06, 0.06), "cos": rng.uniform(-0.06, 0.06)}]}
    support = _support(1.0, [(2, rng.uniform(-0.08, 0.08)), (3, rng.uniform(-0.05, 0.05))])
    return _doc("envelope-from-vertex", {"support": support, "step": {"m": 1, "n": 4, "h": h}},
                16)


def _assert_accuracy(report, bound):
    assert report.passed, report.errors
    assert report.max_tangency_gap <= bound
    assert report.max_step_mismatch <= bound


def test_iterated_square_is_exact_to_rounding():
    config = Path(__file__).resolve().parent.parent / "configs" / "iterated_square.json"
    _assert_accuracy(load_scene(str(config)).verify(probes=64), 1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vertex_clan_is_exact_to_rounding(seed):
    _assert_accuracy(build_scene(_vertex_clan(random.Random(seed))).verify(), 1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conjugated_envelope_reaches_the_inversion_floor(seed):
    # lift inversion ends with a Newton step past its 1e-12 L tolerance, so
    # its floor is rounding, like that of the jets
    _assert_accuracy(build_scene(_conjugated_envelope(random.Random(seed))).verify(), 1e-12)
