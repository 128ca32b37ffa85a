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
        y = jets.sin(2.0 * t) * jets.cis(t)[0]
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
        t = Jet.variable(TS, 4)
        for compose in (jets.sin, jets.cis, lambda t: t.compose([TS] * 5)):
            with pytest.raises(ValueError, match="order 3"):
                compose(t)


# --- the parameter's own jet and cis ------------------------------------------------

def _components(x):
    return [np.asarray(a).tobytes() for a in (x.v,) + x.d]


def _separate_trig(x, shift):
    """The sine (shift 0) and cosine (shift 1) of the Jet x, each from its own
    np.sin and np.cos."""
    s, c = np.sin(x.v), np.cos(x.v)
    return x.compose([s, c, -s, -c, s][shift:shift + x.order + 1])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_composing_through_the_variable_returns_f_as_given(order):
    t = Jet.variable(TS, order)
    scalar = [np.sin((k + 1) * TS) for k in range(4)]      # f may hold more than t reads
    for f in (scalar, [np.stack([a, -a], axis=1) for a in scalar]):
        y = t.compose(f)
        assert y.order == order and y.v is f[0]
        assert all(d is a for d, a in zip(y.d, f[1:]))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cis_equals_separate_cos_and_sin_bit_for_bit(order):
    c, s = jets.cis(TS)
    assert c.tobytes() == np.cos(TS).tobytes() and s.tobytes() == np.sin(TS).tobytes()
    t = Jet.variable(TS, order)
    c, s = np.cos(TS), np.sin(TS)
    got = jets.cis(t)
    assert _components(got[0]) == [a.tobytes() for a in (c, -s, -c, s)[:order + 1]]
    assert _components(got[1]) == [a.tobytes() for a in (s, c, -s, -c)[:order + 1]]
    assert _components(jets.sin(t)) == _components(got[1])
    x = 3.0 * t + jets.sin(t) * t       # a jet whose composition takes the chain rule
    cos, sin = jets.cis(x)
    assert _components(cos) == _components(_separate_trig(x, 1))
    assert _components(sin) == _components(_separate_trig(x, 0))
    assert _components(jets.sin(x)) == _components(sin)


DERIVED = {"t + 1.0": lambda t: t + 1.0, "2.0 * t": lambda t: 2.0 * t, "-t": lambda t: -t,
           "t[1:]": lambda t: t[1:], "t.truncated(2)": lambda t: t.truncated(2),
           "t.truncated(1)": lambda t: t.truncated(1)}


@pytest.mark.parametrize("derive", DERIVED.values(), ids=DERIVED.keys())
def test_jets_derived_from_the_variable_take_the_chain_rule(derive):
    # f' = inf at the first point and f'' = -0.0 at the second, where f' > 0:
    # the chain rule gives f'' t'^2 + f' t'' = nan and +0.0 there even at
    # t' = 1, t'' = 0, while the identity would give f' and f'' as they are;
    # at order 1 the two agree on every value, so the type tells them apart
    x = derive(Jet.variable(TS, 3))
    assert type(x) is Jet
    f = [np.cos((k + 1) * x.v) + 2.0 for k in range(4)]
    f[1][0], f[2][1] = np.inf, -0.0
    g = list((x.v,) + x.d) + [np.zeros_like(x.v)] * (3 - x.order)
    with np.errstate(invalid="ignore"):
        got = x.compose(f)
        want = chain_rule(f, g)[:x.order + 1]
    assert _components(got) == [a.tobytes() for a in want]


# --- the trigonometric-series kernel ----------------------------------------------

# (w, c, s) rows; lifts pass negative and zero w, supports positive w only
SERIES_ROWS = [(np.float64(w), c, s) for w, c, s in
               [(3.0, 0.4, -0.25), (-2.5, 0.1, 0.7), (0.0, 1.5, -0.3), (0.5, 0.0, 2.0)]]


@pytest.mark.parametrize("row", SERIES_ROWS, ids=lambda row: f"w={row[0]}")
def test_series_matches_the_closed_form_to_order_five(row):
    # d^n/dx^n (c cos wx + s sin wx) = w^n (c cos(wx + n pi/2) + s sin(wx + n pi/2))
    w, c, s = row
    got = jets.series(TS, [row], [np.zeros_like(TS) for _ in range(6)])
    for n, d in enumerate(got):
        arg = w * TS + n * math.pi / 2
        want = w ** n * (c * np.cos(arg) + s * np.sin(arg))
        assert np.allclose(d, want, rtol=0, atol=1e-13 * max(1.0, abs(w)) ** n), n


def test_series_adds_every_row_to_what_out_holds():
    got = jets.series(TS, SERIES_ROWS, [np.full_like(TS, n) for n in range(6)])
    for n, d in enumerate(got):
        want = n + sum(jets.series(TS, [row], [np.zeros_like(TS)] * (n + 1))[n]
                       for row in SERIES_ROWS)
        assert np.allclose(d, want, rtol=0, atol=1e-12), n


def test_lift_terms_of_negative_and_zero_harmonic_follow_the_written_out_sum():
    terms = (cm.FourierTerm(-2, 0.03, -0.02), cm.FourierTerm(0, 0.1, 0.2),
             cm.FourierTerm(1, 0.01, 0.04))
    for got, want in zip(jet_of(cm.from_fourier(TWO_PI, 0.3, terms).lift, TS),
                         fourier_derivs(0.3, terms, TWO_PI, TS)):
        assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_lift_derivative_of_a_huge_harmonic_overflows_to_infinity():
    # w = 2 pi / L is about 6.3e150, so w ** 3 is past the float range
    h = cm.from_fourier(1e-150, 0.0, (cm.FourierTerm(1, 1e-200),))
    with np.errstate(over="ignore"):
        v, d1, d2, d3 = jet_of(h.lift, np.array([0.3e-150]))
    assert np.isfinite([v, d1, d2]).all() and np.isinf(d3).all()


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
        return R * jets.stack(jets.cis(phi))

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
