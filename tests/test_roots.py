import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poncelet import roots, verify
from poncelet.circlemaps import FourierTerm, from_fourier
from poncelet.jets import Jet
from poncelet.roots import newton_roots, secant_roots, sign_change
from poncelet.scene import load_scene

REPO = Path(__file__).resolve().parent.parent


def trig_values(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """c0 + sum_j (a_j cos(j t) + b_j sin(j t)), one coefficient row per t."""
    out = coeffs[:, 0].copy()
    for j in range(1, (coeffs.shape[1] + 1) // 2):
        out = out + coeffs[:, 2 * j - 1] * np.cos(j * t) + coeffs[:, 2 * j] * np.sin(j * t)
    return out


coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
bracket = st.tuples(st.lists(coefficient, min_size=7, max_size=7),
                    st.floats(-10.0, 10.0), st.floats(1e-6, 3.0))


@settings(max_examples=150)
@given(st.lists(bracket, min_size=1, max_size=12))
# sin 3t on [-1.9e-124, 0.5]: the converged secant update, -2.5e-16, lies outside
@example([([0.0] * 6 + [1.0], -1.8538887726799102e-124, 0.5)])
def test_lockstep_roots_match_one_bracket_at_a_time(brackets):
    # the solver's state holds only the live brackets; compacting it must
    # not change any bracket's arithmetic
    coeffs = np.array([c for c, _, _ in brackets])
    lo = np.array([a for _, a, _ in brackets])
    hi = lo + np.array([w for _, _, w in brackets])
    ends = trig_values(np.concatenate([coeffs, coeffs]), np.concatenate([lo, hi]))
    # a sign change or a zero end; a product of the ends would underflow
    keep = ~sign_change(ends[:len(lo)], -ends[len(lo):])
    assume(keep.any())
    coeffs, lo, hi = coeffs[keep], lo[keep], hi[keep]

    flo, fhi = trig_values(coeffs, lo), trig_values(coeffs, hi)
    roots, open_ = secant_roots(lambda t, idx: trig_values(coeffs[idx], t), lo, hi, flo, fhi)

    assert roots.shape == open_.shape == lo.shape
    for i in range(len(lo)):
        one = coeffs[i:i + 1]
        ref, ref_open = secant_roots(lambda t, idx: trig_values(one[idx], t), lo[i:i + 1],
                                     hi[i:i + 1], flo[i:i + 1], fhi[i:i + 1])
        assert lo[i] <= roots[i] <= hi[i]
        assert roots[i] == ref[0]
        assert open_[i] == ref_open[0]


def test_exact_zero_at_an_end_returns_that_end():
    calls = []

    def fn(t, idx):
        calls.append(len(t))
        return t - 1.0

    roots, open_ = secant_roots(fn, [1.0, 0.0], [2.0, 1.0], [0.0, -1.0], [1.0, 0.0])
    assert roots.tolist() == [1.0, 1.0]
    assert not open_.any()
    assert calls == []          # the caller's end values settle both brackets


def test_each_iteration_evaluates_only_live_brackets():
    calls = []

    def fn(t, idx):
        calls.append(idx.tolist())
        return np.where(idx == 0, t - 0.5, np.cos(t))

    roots, open_ = secant_roots(fn, [0.0, 1.0], [1.0, 2.0], [-0.5, math.cos(1.0)],
                                [0.5, math.cos(2.0)])
    assert not open_.any()
    assert roots[0] == 0.5                      # linear: its secant start is the root
    assert roots[1] == pytest.approx(math.pi / 2, abs=1e-15)
    assert calls[0] == [0, 1]
    assert all(c == [1] for c in calls[1:])


def test_iteration_limit_flags_the_bracket():
    roots, open_ = secant_roots(lambda t, _: np.tan(t - 1.0), [0.0, 0.5], [1.5, 2.0],
                                np.tan([-1.0, -0.5]), np.tan([0.5, 1.0]), steps=1)
    assert open_.all()
    assert np.all((roots > [0.0, 0.5]) & (roots < [1.5, 2.0]))


def test_no_brackets():
    roots, open_ = secant_roots(lambda t, idx: pytest.fail("called"), [], [], [], [])
    assert roots.size == 0 and open_.size == 0
    empty = np.empty(0)
    roots, open_ = newton_roots(lambda t, idx: pytest.fail("called"), empty, empty, empty, empty)
    assert roots.size == 0 and open_.size == 0


def counting(solve, counts: list):
    """solve, appending the number of fn calls of each solve to counts."""
    def counted_solve(fn, *args, **kwargs):
        calls = [0]

        def counted(t, idx):
            calls[0] += 1
            return fn(t, idx)

        out = solve(counted, *args, **kwargs)
        counts.append(calls[0])         # one call per iteration, none for the ends
        return out

    return counted_solve


@pytest.mark.parametrize("name", ["wankel", "equiangular_hexagon", "iterated_square"])
def test_verify_brackets_end_at_the_rounding_floor(monkeypatch, name):
    # every solve is Newton from its cell's secant point, and stops when the
    # estimated error of its update reaches the rounding floor: the oracle's
    # circle scans take 2.0 evaluations per scan on the oracle-convex
    # benchmark scenes where Anderson-Bjorck took 5.3 and a stop on the step
    # alone 3.1; iterated_square's contact solve takes at most 5 Newton
    # steps on the slope g'' (9 for Anderson-Bjorck, 7 for the step alone),
    # and its Rolle split at most 4 secant-slope steps (5 for the step alone)
    scans, contacts, splits = [], [], []
    monkeypatch.setattr(roots, "newton_roots", counting(roots.newton_roots, scans))
    monkeypatch.setattr(verify, "newton_roots", counting(newton_roots, contacts))
    monkeypatch.setattr(verify, "secant_roots", counting(secant_roots, splits))
    scene = load_scene(str(REPO / "configs" / f"{name}.json"))
    assert scene.verify().passed
    if scene.configuration.mode == "oracle":
        assert scans and max(scans) <= 3
    else:               # the splits' Newton loop is roots.newton_roots too
        assert contacts and max(contacts) <= 5 and max(splits, default=0) <= 4


def test_every_oracle_scan_of_wankel_stops_after_two_evaluations(monkeypatch):
    # the first Newton step from the secant point is followed by one whose
    # estimated error is below the rounding floor; a stop on the step alone
    # took a third evaluation to see that step fall below 1e-15
    scans = []
    monkeypatch.setattr(roots, "newton_roots", counting(roots.newton_roots, scans))
    assert load_scene(str(REPO / "configs" / "wankel.json")).verify(probes=8).passed
    assert scans and scans == [2] * len(scans)


ORACLE_CONFIGS = sorted(p.stem for p in (REPO / "configs").glob("*.json")
                        if load_scene(str(p)).configuration.mode == "oracle")


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_oracle_verify_solves_sign_changes_from_the_callers_end_values(monkeypatch, name):
    # every scan bracket is a grid cell whose ends differ in sign as `rising`
    # says; the solver starts inside and evaluates no end
    brackets = []
    solve = roots.newton_roots

    def checking(fn, x, lo, hi, rising, *args, **kwargs):
        every = np.arange(len(lo))
        flo, fhi = fn(lo, every)[0], fn(hi, every)[0]
        assert np.all(np.where(rising, (flo < 0) & (fhi > 0), (flo > 0) & (fhi < 0)))

        def at_no_end(t, idx):
            assert not np.any((t == lo[idx]) | (t == hi[idx]))
            return fn(t, idx)

        brackets.append(len(lo))
        return solve(at_no_end, x, lo, hi, rising, *args, **kwargs)

    monkeypatch.setattr(roots, "newton_roots", checking)
    assert load_scene(str(REPO / "configs" / f"{name}.json")).verify().passed
    assert sum(brackets) > 0


def test_newton_that_stalls_inside_its_bracket_bisects():
    # started at x = y, these Newton points stay inside the bracket y -+
    # bound without closing in, and used up all 100 steps (residual -0.0269)
    # when only a point outside the bracket bisected
    h = from_fourier(2 * math.pi, 16.116380134874426, (
        FourierTerm(-49, -0.0129262852, 0.0094827001),
        FourierTerm(10, 0.0045132623, 0.0075645639),
        FourierTerm(-9, 0.0123151140, 0.0065097033)))
    y = np.array([-9.96751532475281])
    bound = h.displacement_bound + 2 * math.pi
    calls = []

    def residual(x, idx):
        calls.append(1)
        jet = h.lift(Jet.variable(x, 1))
        return jet.v - y[idx], jet.d[0]

    x, open_ = newton_roots(residual, y, y - bound, y + bound, True, ftol=1e-12 * 2 * math.pi)
    assert not open_.any()
    assert abs(h.lift(x)[0] - y[0]) < 1e-12 * 2 * math.pi
    assert len(calls) < 20


def trig_slopes(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of trig_values."""
    out = np.zeros_like(t)
    for j in range(1, (coeffs.shape[1] + 1) // 2):
        out = out + j * (coeffs[:, 2 * j] * np.cos(j * t) - coeffs[:, 2 * j - 1] * np.sin(j * t))
    return out


def bisection(fn, lo: float, hi: float, steps: int = 200) -> float:
    flo = fn(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=150)
@given(st.lists(coefficient, min_size=6, max_size=6), st.floats(-3.0, 3.0),
       st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
def test_simple_roots_match_bisection(c, r, left, right):
    # c0 puts a root at about r; |f'(t) - f'(r)| <= max|f''| |t - r|, so f is
    # monotone on any bracket within |f'(r)| / max|f''| of r
    coeffs = np.array([[0.0, *c]])
    coeffs[0, 0] = -trig_values(coeffs, np.array([r]))[0]
    slope = trig_slopes(coeffs, np.array([r]))[0]
    assume(abs(slope) >= 1e-2)
    reach = abs(slope) / sum(j * j * (abs(c[2 * j - 2]) + abs(c[2 * j - 1])) for j in (1, 2, 3))
    lo, hi = r - left * reach, r + right * reach

    def f(t):
        return float(trig_values(coeffs, np.array([t]))[0])

    assume(f(lo) * f(hi) < 0)
    ref = bisection(f, lo, hi)
    roots, open_ = secant_roots(lambda t, idx: trig_values(coeffs[idx], t), [lo], [hi],
                                [f(lo)], [f(hi)])
    assert not open_[0]
    assert abs(roots[0] - ref) <= 1e-13


def solve_one(f, df, lo: float, hi: float, x: float) -> tuple[float, int]:
    """newton_roots on the one bracket [lo, hi] of f with slope df from x:
    the converged root and the number of evaluations."""
    calls = []

    def fn(t, idx):
        calls.append(1)
        return f(t), df(t)

    root, open_ = newton_roots(fn, np.array([x]), np.array([lo]), np.array([hi]),
                               np.array([f(lo) < 0]), xtol=1e-15)
    assert not open_[0]
    return root[0], len(calls)


@pytest.mark.parametrize("start", [-1.9, -0.5, 0.5, 2.9])
def test_error_estimate_waits_for_the_quadratic_phase(start):
    # atan(50 (t - r)) is flat far from r: Newton steps from there leave the
    # bracket and bisect, or shrink by less than the square law, and the
    # estimate must not stop them before the update is at the rounding floor
    r, lo, hi = 0.3, -2.0, 3.0

    def f(t):
        return np.arctan(50.0 * (t - r))

    def df(t):
        return 50.0 / (1.0 + (50.0 * (t - r)) ** 2)

    ref = bisection(f, lo, hi)
    root, _ = solve_one(f, df, lo, hi, start)
    assert abs(root - ref) <= 1e-12
    secant, open_ = secant_roots(lambda t, idx: f(t), [lo], [hi], [f(lo)], [f(hi)])
    assert not open_[0] and abs(secant[0] - ref) <= 1e-12


def test_error_estimate_needs_a_newton_step_before_it():
    # exp(t - r) - 1 from the bracket's left end: the Newton update lands far
    # outside, so the solver bisects to r + 1e-5, and the next Newton step
    # (1e-5) is so much smaller than that midpoint step (3) that the estimate
    # 1e-5 (1e-5 / 3)^2 would read 1e-16; the update's true error is about
    # 5e-11, since a midpoint says nothing of the convergence rate
    r, lo, hi = 0.25, -2.75, 3.25 + 2e-5

    def f(t):
        return np.expm1(t - r)

    def df(t):
        return np.exp(t - r)

    ref = bisection(f, lo, hi)
    root, calls = solve_one(f, df, lo, hi, lo)
    assert abs(root - ref) <= 1e-12
    assert calls == 3       # the start, the midpoint and the first Newton point


@pytest.mark.parametrize("slope", [0.0, math.nan])
@pytest.mark.parametrize("bad", [1, 2, 3])
def test_error_estimate_ignores_a_slope_of_zero_or_nan(slope, bad):
    # a slope of 0 or NaN at the bad-th evaluation makes a Newton step of inf
    # or NaN, which must neither stop the bracket nor count as the Newton
    # step that a later estimate divides by
    r, lo, hi = 0.7, 0.0, 2.0
    seen = []

    def f(t):
        return np.sin(t - r) + 0.5 * (t - r) ** 2

    def df(t):
        seen.append(1)
        d = np.cos(t - r) + (t - r)
        return np.full_like(d, slope) if len(seen) == bad else d

    ref = bisection(f, lo, hi)
    root, calls = solve_one(f, df, lo, hi, 1.9)
    assert abs(root - ref) <= 1e-12
    assert calls > bad      # the bad slope came before the stop
