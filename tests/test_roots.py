import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poncelet.roots import bracketed_roots


def illinois(fn, lo: float, hi: float, iters: int = 60):
    """Scalar Illinois iteration on one bracket: the reference for the
    lockstep solver. Returns (root, converged)."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo, True
    if fhi == 0.0:
        return hi, True
    side = 0
    for _ in range(iters):
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = hi - fhi * (hi - lo) / (fhi - flo)
        if not (lo < mid < hi):
            mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < 1e-15 * max(1.0, abs(hi)):
            return mid, True
        if flo * fm < 0:
            hi, fhi = mid, fm
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = mid, fm
            if side == 1:
                fhi *= 0.5
            side = 1
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
