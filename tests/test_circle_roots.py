"""The rules by which the oracle's circle scan turns sign changes on the
grid into roots: merging of near-coincident roots, within a row and across
the seam at 0 = L, exact zeros on grid points, and per-row errors for
unconverged brackets."""

import math

import numpy as np
import pytest

from poncelet import verify
from poncelet.roots import GRID, bracketed_roots
from poncelet.verify import OracleError

L = 2 * math.pi
TS = np.linspace(0.0, L, GRID, endpoint=False)
MERGE = 1e-9 * L


def roots_by_row(fns):
    """{row: its roots, ascending, or its OracleError} from one _circle_roots
    call over the rows' functions fns[row](t). The call returns roots
    sorted by row, and none for a row with an error."""
    def fn(t, row):
        return np.select([row == i for i in range(len(fns))], [f(t) for f in fns])

    row, root, errors = verify._circle_roots(fn, L, TS, np.array([f(TS) for f in fns]))
    assert np.all(np.diff(row) >= 0) and not set(errors) & set(row.tolist())
    return {r: errors.get(r, root[row == r].tolist()) for r in range(len(fns))}


def pair(r1, r2):
    """sin((t - r1)/2) sin((t - r2)/2): L-periodic, simple roots at r1 and r2 only."""
    return lambda t: np.sin((t - r1) / 2) * np.sin((t - r2) / 2)


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
    found = roots_by_row([lambda t: np.sin(t - L / 4)])
    assert found[0][0] == TS[k]                  # returned as it is, not refined
    assert found[0] == pytest.approx([L / 4, 3 * L / 4], abs=1e-14)


def test_an_unconverged_bracket_fails_its_row_only(monkeypatch):
    def solver(fn, lo, hi, *args):
        roots, open_ = bracketed_roots(fn, lo, hi, *args)
        return roots, open_ | ((lo < 2.0) & (hi > 2.0))   # the bracket around t = 2

    monkeypatch.setattr(verify, "bracketed_roots", solver)
    found = roots_by_row([pair(1.0, 3.0), pair(2.0, 4.0), pair(0.5, 5.0)])
    assert found[0] == pytest.approx([1.0, 3.0], abs=1e-14)
    assert isinstance(found[1], OracleError)
    assert str(found[1]).startswith("root refinement did not converge near t = 2.00")
    assert found[2] == pytest.approx([0.5, 5.0], abs=1e-14)
