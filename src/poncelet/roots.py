"""Zeros of periodic functions on a circle, and bracketed root finding.

One solver, `newton_roots`, refines sign-change brackets in lockstep, so a
batched function is evaluated once per iteration for every live bracket;
its state holds only the live brackets, and it says which brackets did not
converge. It is safeguarded Newton, the `rtsafe` scheme (Press et al.,
*Numerical Recipes*, 3rd ed., 9.4), on slopes that the functions give in
the same evaluation, from truncated Taylor jets (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., 2008): the periodic scan `circle_roots`,
which serves the oracle and every construction precondition, lift
inversion, and the verifier's contact solves. A function whose jet would
need one order more than its caller's curves give takes `secant_roots`:
the same loop, with the slope of the secant through each bracket's last
two points, which converges superlinearly (order 1.618) as the secant
method does, and bisects where that step would not. A solve to a step
tolerance stops as soon as the error of its next update is below that
tolerance: the step itself, or the a-posteriori estimate that two Newton
steps in a row give for an iteration of order p (C. T. Kelley, *Solving
Nonlinear Equations with Newton's Method*, SIAM 2003, on terminating the
iteration), so it does not spend an evaluation on a root it already holds.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# points in the sign-change scans over a parameter circle that feed the solver
GRID = 512


def circle_roots(fn: Callable[[np.ndarray, np.ndarray], tuple], L: float, ts: np.ndarray,
                 vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeros on the circle [0, L) of each row's periodic function.

    vals holds the rows' values on the grid ts, and fn(t, row) gives their
    values and slopes at t, a pair of arrays that broadcast like numpy. A
    grid value of exactly 0 is a root (so a caller's rounding-level rule
    sets such samples to 0), and every sign change between neighbours, last
    and first included, is a bracket (see sign_change); one newton_roots
    call refines them all from their secant points until a step, or the
    estimated error of the update, is below 1e-15 max(1, |t|). Returns the
    row-sorted arrays (row, root, open), each row's roots ascending; open
    marks the last points of brackets that did not converge. A root within
    1e-9 L of its predecessor in the row, or of the row's first root across
    the seam, is dropped.
    """
    after = np.concatenate([vals[:, 1:], vals[:, :1]], axis=1)
    row, col = np.nonzero(sign_change(vals, after))
    zero_row, zero_col = np.nonzero(vals == 0.0)
    if not (len(row) or len(zero_row)):         # the common case of a check that passes
        return row, ts[col], np.zeros(0, dtype=bool)
    a, b, fa, fb = ts[col], np.append(ts[1:], L)[col], vals[row, col], after[row, col]
    refined, open_ = newton_roots(lambda t, i: fn(t, row[i]), secant_point(a, b, fa, fb), a, b,
                                  fa < 0, xtol=1e-15)
    row = np.concatenate([zero_row, row])
    x = np.mod(np.concatenate([ts[zero_col], refined]), L)
    open_ = np.concatenate([np.zeros(len(zero_row), dtype=bool), open_])
    order = np.lexsort((x, row))
    row, x, open_ = row[order], x[order], open_[order]
    keep = np.ones(len(row), dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (x[1:] - x[:-1] > 1e-9 * L)
    row, x, open_ = row[keep], x[keep], open_[keep]
    new = np.ones(len(row) + 1, dtype=bool)      # new[i]: row i - 1 differs from row i
    new[1:-1] = row[1:] != row[:-1]
    first, last = np.flatnonzero(new[:-1]), np.flatnonzero(new[1:])
    keep = np.ones(len(row), dtype=bool)
    keep[last[(last > first) & (x[first] + L - x[last] <= 1e-9 * L)]] = False
    return row[keep], x[keep], open_[keep]


def sign_change(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Where f0 and f1 have strictly opposite signs: neither is 0 or NaN.
    No product, which under- or overflows for tiny or huge values."""
    return (f0 < 0.0) & (f1 > 0.0) | (f0 > 0.0) & (f1 < 0.0)


def secant_point(lo, hi, flo, fhi) -> np.ndarray:
    """The secant point of each bracket's end values, kept 0.5e-15 max(1,
    |hi|) inside the bracket: where a Newton solve of a cell starts."""
    tol = 0.5e-15 * np.maximum(1.0, np.abs(hi))
    return np.minimum(np.maximum(hi - fhi * (hi - lo) / (fhi - flo), lo + tol), hi - tol)


def newton_roots(fn: Callable[[np.ndarray, np.ndarray], tuple], x, lo, hi, rising,
                 ftol: float = 0.0, xtol: float = 0.0, steps: int = 100,
                 _order: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn in the brackets [lo[i], hi[i]] by safeguarded Newton from
    x[i] (arrays), and a not-converged mask. fn(x, idx) gives the values and
    slopes at x[j] of bracket idx[j]'s function, for the live brackets only.
    Where rising is True the function is negative at lo, else positive; each
    evaluation moves the end of its sign there. A bracket converges when
    |f| < ftol if ftol is given, else when its Newton step a = |f / f'| is
    below xtol max(1, |x|), or when its last step was a Newton step too, of
    length last > 2 a, and the estimated error of this update, a (a /
    last)**_order, is below that bound. _order is the iteration's order: 2
    for slopes that fn computes, 1.618 for secant_roots' secant slopes. A
    converged bracket returns the Newton update clipped into its bracket,
    which holds the root where the update may not. Else it steps to that
    update, or to its midpoint if the update is not inside or the step not
    smaller than half the step before last (both start as the width), and a
    midpoint step below xtol max(1, |x|) returns the midpoint. A bracket
    open after `steps` steps returns its last point and is flagged.
    """
    roots = np.empty(x.size)
    # index, point, ends, 1 where f < 0 at lo, the last step and the one
    # before, and whether the last step was a Newton step
    state = [np.arange(x.size), x, lo, hi, np.where(rising, 1.0, -1.0), hi - lo, hi - lo,
             np.zeros(x.size, dtype=bool)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(steps + 1):
            live, x, lo, hi, sense, last, before, newt = state
            if not live.size:
                break
            f, d = fn(x, live)
            newton = f / d
            xn = x - newton
            small = xtol and xtol * np.maximum(1.0, np.abs(x))
            if ftol:
                near = np.abs(f) < ftol
            else:
                a = np.abs(newton)
                near = (a < small) | newt & (a < 0.5 * last) & (a * (a / last) ** _order < small)
            if k == steps or np.count_nonzero(near) == near.size:
                roots[live[near]] = np.clip(xn[near], lo[near], hi[near])
                live, x = live[~near], x[~near]
                break
            s = np.sign(f) * sense
            lo, hi = np.where(s < 0, x, lo), np.where(s > 0, x, hi)
            take = near | (xn > lo) & (xn < hi) & (np.abs(newton) < 0.5 * before)
            xn = np.where(take, xn, 0.5 * (lo + hi))
            step = np.abs(xn - x)
            done = near | (step < small)
            state = [live, xn, lo, hi, sense, step, last, take]
            if np.count_nonzero(done):
                roots[live[done]] = np.clip(xn[done], lo[done], hi[done])
                state = [v[~done] if np.ndim(v) else v for v in state]
    roots[live] = x
    open_ = np.zeros(roots.size, dtype=bool)
    open_[live] = True
    return roots, open_


def secant_roots(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, flo, fhi,
                 steps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn in the brackets [lo[i], hi[i]] and a not-converged mask,
    where fn(t, idx) gives only the values at t[j] of bracket idx[j]'s
    function. flo and fhi are its values at the ends, which the caller
    holds; a bracket with an end value of exactly 0 returns that end, and
    every other bracket is one of newton_roots' (xtol 1e-15), from its
    secant point, with the slope of the secant through its last two
    points, the first of them its hi end. Its error estimate takes the
    secant method's order, 1.618: the square law of Newton would predict
    too small an error and stop it early.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, flo, fhi))
    out, open_ = np.where(flo == 0.0, lo, hi), np.zeros(lo.size, dtype=bool)
    solve = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    last = [hi[solve], fhi[solve]]              # each bracket's last point and value

    def value_and_secant(t, i):
        f = np.asarray(fn(t, solve[i]), dtype=float)
        slope = (f - last[1][i]) / (t - last[0][i])
        last[0][i], last[1][i] = t, f
        return f, slope

    lo, hi, flo, fhi = lo[solve], hi[solve], flo[solve], fhi[solve]
    out[solve], open_[solve] = newton_roots(value_and_secant, secant_point(lo, hi, flo, fhi),
                                            lo, hi, flo < 0, xtol=1e-15, steps=steps,
                                            _order=1.618)
    return out, open_
