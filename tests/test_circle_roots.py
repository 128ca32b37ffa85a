"""The rules by which the oracle's circle scan turns sign changes on the
grid into roots: merging of near-coincident roots, within a row and across
the seam at 0 = L, exact zeros on grid points, and per-row errors for
unconverged brackets. Every row's function gives its value and its slope,
on which the scan refines its brackets by Newton."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poncelet import roots, verify
from poncelet.roots import GRID, newton_roots
from poncelet.verify import OracleError

L = 2 * math.pi
TS = np.linspace(0.0, L, GRID, endpoint=False)
MERGE = 1e-9 * L


def roots_by_row(fns):
    """{row: its roots, ascending, or its OracleError} from one _circle_roots
    call over the rows' functions fns[row](t), each giving (value, slope).
    The call returns roots sorted by row, and none for a row with an error."""
    def fn(t, row):
        return tuple(np.select([row == i for i in range(len(fns))], [f(t)[k] for f in fns])
                     for k in (0, 1))

    row, root, errors = verify._circle_roots(fn, L, TS, np.array([f(TS)[0] for f in fns]))
    assert np.all(np.diff(row) >= 0) and not set(errors) & set(row.tolist())
    return {r: errors.get(r, root[row == r].tolist()) for r in range(len(fns))}


def pair(r1, r2):
    """sin((t - r1)/2) sin((t - r2)/2) and its slope: L-periodic, simple
    roots at r1 and r2 only."""
    return lambda t: (np.sin((t - r1) / 2) * np.sin((t - r2) / 2),
                      0.5 * np.sin(t - (r1 + r2) / 2))


def test_roots_closer_than_the_merge_distance_are_one():
    g = TS[100]                                  # the two roots straddle a grid point
    close, apart = 0.3 * MERGE, 3 * MERGE
    found = roots_by_row([pair(g - close, g + close), pair(g - apart, g + apart)])
    assert found[0] == [pytest.approx(g - close, abs=1e-14)]
    assert found[1] == pytest.approx([g - apart, g + apart], abs=1e-14)


def test_a_last_root_near_the_first_across_the_seam_is_dropped():
    d = 0.25 * MERGE
    found = roots_by_row([pair(d, L - d), pair(4 * d, L - 4 * d)])
    # the two roots lie in the last and the first grid cell, 2d apart across 0 = L
    assert found[0] == [pytest.approx(d, abs=1e-14)]
    assert found[1] == pytest.approx([4 * d, L - 4 * d], abs=1e-14)


def test_an_exact_zero_on_a_grid_point_is_a_root():
    k = GRID // 4
    assert math.sin(TS[k] - L / 4) == 0.0
    found = roots_by_row([lambda t: (np.sin(t - L / 4), np.cos(t - L / 4))])
    assert found[0][0] == TS[k]                  # returned as it is, not refined
    assert found[0] == pytest.approx([L / 4, 3 * L / 4], abs=1e-14)


def test_an_unconverged_bracket_fails_its_row_only(monkeypatch):
    def solver(fn, x, lo, hi, *args, **kwargs):
        roots, open_ = newton_roots(fn, x, lo, hi, *args, **kwargs)
        return roots, open_ | ((lo < 2.0) & (hi > 2.0))   # the bracket around t = 2

    monkeypatch.setattr(roots, "newton_roots", solver)
    found = roots_by_row([pair(1.0, 3.0), pair(2.0, 4.0), pair(0.5, 5.0)])
    assert found[0] == pytest.approx([1.0, 3.0], abs=1e-14)
    assert isinstance(found[1], OracleError)
    assert str(found[1]).startswith("root refinement did not converge near t = 2.00")
    assert found[2] == pytest.approx([0.5, 5.0], abs=1e-14)


HARMONICS = np.arange(1, 7)


def trig(coeffs: np.ndarray, t: np.ndarray):
    """Values and slopes at t[i] of the trigonometric polynomial of degree 6
    with coefficients coeffs[i] = (c0, a1, b1, ..., a6, b6)."""
    jt = HARMONICS * t[:, None]
    cos, sin = np.cos(jt), np.sin(jt)
    a, b = coeffs[:, 1::2], coeffs[:, 2::2]
    return coeffs[:, 0] + (a * cos + b * sin).sum(1), (HARMONICS * (b * cos - a * sin)).sum(1)


def bisected(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of each bracket's polynomial after 200 bisection steps."""
    flo = trig(coeffs, lo)[0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        right = np.signbit(trig(coeffs, mid)[0]) == np.signbit(flo)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=13, max_size=13), min_size=1,
                max_size=4))
def test_scan_refines_one_root_per_sign_change_to_the_bisection_root(rows):
    coeffs = np.array(rows)
    vals = np.array([trig(np.repeat(c[None], GRID, axis=0), TS)[0] for c in coeffs])
    assume(not (vals == 0.0).any())                 # exact grid zeros are roots as they are
    # sign bits: a product of tiny neighbours would underflow to 0
    r, c = np.nonzero(np.signbit(vals) != np.signbit(np.roll(vals, -1, axis=1)))
    ref = bisected(coeffs[r], TS[c], np.append(TS[1:], L)[c])
    # simple roots, one per sign-change cell: a slope at least 0.1 (so rounding
    # moves no root by 1e-12) and one sign change on 16 points inside the cell
    assume(np.all(np.abs(trig(coeffs[r], ref)[1]) >= 0.1))
    inner = TS[c][:, None] + L / GRID * np.linspace(0.0, 1.0, 17)
    fine = trig(np.repeat(coeffs[r], 17, axis=0), inner.ravel())[0].reshape(-1, 17)
    assume(np.all(np.count_nonzero(fine[:, 1:] * fine[:, :-1] < 0, axis=1) == 1))

    def fn(t, row):
        return trig(coeffs[row], t)

    # both sorted by row, then root, so each cell's root is at its index
    row, x, open_ = roots.circle_roots(fn, L, TS, vals)
    assert not open_.any() and np.array_equal(row, r)
    assert np.all(np.abs(x - ref) <= 1e-12)

    # a cap of no step leaves brackets open (one step can already converge on
    # the error estimate), and the oracle's adapter returns no root of a row
    # with an open bracket
    with mock.patch.object(roots, "newton_roots", functools.partial(newton_roots, steps=0)):
        row1, x1, open1 = roots.circle_roots(fn, L, TS, vals)
        kept, root, errors = verify._circle_roots(fn, L, TS, vals)
    assert np.array_equal(row1, r)
    assert open1.any() or not len(r)
    assert np.all(np.abs(x1 - ref)[~open1] <= 1e-12)
    assert set(errors) == set(row1[open1].tolist())
    assert not set(kept.tolist()) & set(errors)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_roots_do_not_change_when_the_row_is_scaled():
    # scaling by a power of 2 is exact, and Newton steps and secant points
    # are ratios, so every root keeps its bits; a product of neighbouring
    # values would underflow to 0 at the small scale (no sign change found)
    # and overflow at the large one
    ts = np.linspace(0.0, L, 8, endpoint=False)

    def scaled(s):
        row, x, open_ = roots.circle_roots(
            lambda t, _: (s * np.sin(t + 0.1), s * np.cos(t + 0.1)), L, ts,
            s * np.sin(ts + 0.1)[None])
        assert not open_.any() and row.tolist() == [0, 0]
        return x.tolist()

    assert scaled(1.0) == pytest.approx([math.pi - 0.1, L - 0.1], abs=1e-15)
    assert scaled(2.0 ** -660) == scaled(2.0 ** 660) == scaled(1.0)
