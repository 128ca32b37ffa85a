import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poncelet import verify
from poncelet.roots import bracketed_roots
from poncelet.scene import load_scene

REPO = Path(__file__).resolve().parent.parent


def illinois(fn, lo: float, hi: float, iters: int = 60):
    """Scalar Illinois iteration on one bracket: the reference for the
    lockstep solver. Each secant point keeps a step of tol inside the
    bracket, the width is tested after every update, and a bracket closed
    by width returns the end with the smaller unhalved |f|. Returns
    (root, converged)."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo, True
    if fhi == 0.0:
        return hi, True
    alo, ahi = abs(flo), abs(fhi)

    def closed():
        return hi - lo < 1e-15 * max(1.0, abs(hi))

    def best_end():
        return lo if alo < ahi else hi

    if closed():
        return best_end(), True
    side = 0
    for _ in range(iters):
        tol = 0.5e-15 * max(1.0, abs(hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = float(np.float64(hi) - fhi * (hi - lo) / np.float64(fhi - flo))
        if math.isnan(mid):
            mid = 0.5 * (lo + hi)
        mid = min(max(mid, lo + tol), hi - tol)
        fm = fn(mid)
        if fm == 0.0:
            return mid, True
        if np.signbit(flo) != np.signbit(fm):
            hi, fhi, ahi = mid, fm, abs(fm)
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo, alo = mid, fm, abs(fm)
            if side == 1:
                fhi *= 0.5
            side = 1
        if closed():
            return best_end(), True
    return 0.5 * (lo + hi), False


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
def test_lockstep_roots_match_scalar_illinois(brackets):
    coeffs = np.array([c for c, _, _ in brackets])
    lo = np.array([a for _, a, _ in brackets])
    hi = lo + np.array([w for _, _, w in brackets])
    ends = trig_values(np.concatenate([coeffs, coeffs]), np.concatenate([lo, hi]))
    keep = ends[:len(lo)] * ends[len(lo):] <= 0      # brackets with a sign change
    assume(keep.any())
    coeffs, lo, hi = coeffs[keep], lo[keep], hi[keep]

    roots, open_ = bracketed_roots(lambda t, idx: trig_values(coeffs[idx], t), lo, hi)

    assert roots.shape == open_.shape == lo.shape
    for i in range(len(lo)):
        ref, converged = illinois(
            lambda t: float(trig_values(coeffs[i:i + 1], np.array([t]))[0]), lo[i], hi[i])
        assert lo[i] <= roots[i] <= hi[i]
        assert roots[i] == ref
        assert open_[i] == (not converged)


def test_exact_zero_at_an_end_returns_that_end():
    calls = []

    def fn(t, idx):
        calls.append(len(t))
        return t - 1.0

    roots, open_ = bracketed_roots(fn, [1.0, 0.0], [2.0, 1.0])
    assert roots.tolist() == [1.0, 1.0]
    assert not open_.any()
    assert calls == [4]         # both ends of both brackets in one call, no iteration


def test_each_iteration_evaluates_only_live_brackets():
    calls = []

    def fn(t, idx):
        calls.append(idx.tolist())
        return np.where(idx == 0, t - 0.5, np.cos(t))

    roots, open_ = bracketed_roots(fn, [0.0, 1.0], [1.0, 2.0])
    assert not open_.any()
    assert roots[0] == 0.5                      # linear: the first secant step lands on it
    assert roots[1] == pytest.approx(math.pi / 2, abs=1e-15)
    assert calls[0] == [0, 1, 0, 1]
    assert all(c == [1] for c in calls[2:])


def test_iteration_limit_flags_the_bracket():
    roots, open_ = bracketed_roots(lambda t, _: np.tan(t - 1.0), [0.0, 0.5], [1.5, 2.0],
                                   iters=2)
    assert open_.all()
    assert np.all((roots > [0.0, 0.5]) & (roots < [1.5, 2.0]))


def test_no_brackets():
    roots, open_ = bracketed_roots(lambda t, idx: pytest.fail("called"), [], [])
    assert roots.size == 0 and open_.size == 0


@pytest.mark.parametrize("name", ["wankel", "equiangular_hexagon", "iterated_square"])
def test_verify_brackets_end_at_the_rounding_floor(monkeypatch, name):
    # without the minimum step a bracket whose function reached its rounding
    # floor went on near-bisecting to the width test: 29-38 iterations per call
    iterations = []

    def counting(fn, lo, hi, *args):
        calls = [0]

        def counted(t, idx):
            calls[0] += 1
            return fn(t, idx)

        out = bracketed_roots(counted, lo, hi, *args)
        iterations.append(calls[0] - 1)     # one call for the bracket ends, one per iteration
        return out

    monkeypatch.setattr(verify, "bracketed_roots", counting)
    assert load_scene(str(REPO / "configs" / f"{name}.json")).verify().passed
    assert iterations and max(iterations) <= 12


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
    roots, open_ = bracketed_roots(lambda t, idx: trig_values(coeffs[idx], t), [lo], [hi])
    assert not open_[0]
    assert abs(roots[0] - ref) <= 1e-13
