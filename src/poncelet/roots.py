"""Zeros of periodic functions on a circle, and bracketed root finding.

Two solvers refine sign-change brackets in lockstep, so a batched function
is evaluated once per iteration for every live bracket; their state holds
only the live brackets, and both say which brackets did not converge.
`newton_roots` serves the functions that give their slope in the same
evaluation, from truncated Taylor jets (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008): the periodic scan `circle_roots`, which serves
the oracle and every construction precondition, and lift inversion. It is
safeguarded Newton, the `rtsafe` scheme (Press et al., *Numerical Recipes*,
3rd ed., 9.4). `bracketed_roots` serves the verifier's contact solves and
`regularity_scan` from the end values its callers hold: regula falsi with
the Anderson-Bjorck factor (N. Anderson and A. Bjorck, BIT 13, 1973,
253-264; among the best Illinois-type methods in J. A. Ford's comparison,
University of Essex, 1995). Every secant point keeps a minimum step inside
the bracket (T. J. Dekker, 1969), so a bracket whose function reached its
rounding floor does not leave a tail of near-bisection steps, and a bracket
that closes by width returns the secant point of its ends' unscaled values,
or the end with the smaller |f| if that is not finite, as Brent's `zero`
does (R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973).
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
    and first included, is a bracket; one newton_roots call refines them
    all from their secant points (kept 0.5e-15 max(1, |t|) inside) to a
    step below 1e-15 max(1, |t|). Returns the row-sorted arrays (row, root,
    open), each row's roots ascending; open marks the last points of
    brackets that did not converge. A root within 1e-9 L of its predecessor
    in the row, or of the row's first root across the seam, is dropped.
    """
    exact, after = vals == 0.0, np.concatenate([vals[:, 1:], vals[:, :1]], axis=1)
    row, col = np.nonzero(~exact & (vals * after < 0))
    zero_row, zero_col = np.nonzero(exact)
    if not (len(row) or len(zero_row)):         # the common case of a check that passes
        return row, ts[col], np.zeros(0, dtype=bool)
    a, b, fa, fb = ts[col], np.append(ts[1:], L)[col], vals[row, col], after[row, col]
    tol = 0.5e-15 * np.maximum(1.0, np.abs(b))
    start = np.minimum(np.maximum(b - fb * (b - a) / (fb - fa), a + tol), b - tol)
    refined, open_ = newton_roots(lambda t, i: fn(t, row[i]), start, a, b, fa < 0, xtol=1e-15)
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


def newton_roots(fn: Callable[[np.ndarray, np.ndarray], tuple], x, lo, hi, rising,
                 ftol: float = 0.0, xtol: float = 0.0,
                 steps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn in the brackets [lo[i], hi[i]] by safeguarded Newton from
    x[i] (arrays), and a not-converged mask. fn(x, idx) gives the values and
    slopes at x[j] of bracket idx[j]'s function, for the live brackets only.
    Where rising is True the function is negative at lo, else positive; each
    evaluation moves the end of its sign there. A bracket converges when
    |f| < ftol if ftol is given, else when its Newton step |f / f'| < xtol
    max(1, |x|), and returns the Newton update. Else it steps to that update,
    or to its midpoint if the update is not inside or the step not smaller
    than half the step before last (both start as the width), and a midpoint
    step below xtol max(1, |x|) returns the midpoint. A bracket open after
    `steps` steps returns its last point and is flagged.
    """
    roots = np.empty(x.size)
    # index, point, ends, 1 where f < 0 at lo, the last step and the one before
    state = [np.arange(x.size), x, lo, hi, np.where(rising, 1.0, -1.0), hi - lo, hi - lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(steps + 1):
            live, x, lo, hi, sense, last, before = state
            if not live.size:
                break
            f, d = fn(x, live)
            newton = f / d
            xn = x - newton
            small = xtol and xtol * np.maximum(1.0, np.abs(x))
            near = np.abs(f) < ftol if ftol else np.abs(newton) < small
            if k == steps or np.count_nonzero(near) == near.size:
                roots[live[near]] = xn[near]
                live, x = live[~near], x[~near]
                break
            s = np.sign(f) * sense
            lo, hi = np.where(s < 0, x, lo), np.where(s > 0, x, hi)
            take = near | (xn > lo) & (xn < hi) & (np.abs(newton) < 0.5 * before)
            xn = np.where(take, xn, 0.5 * (lo + hi))
            step = np.abs(xn - x)
            done = near | (step < small)
            state = [live, xn, lo, hi, sense, step, last]
            if np.count_nonzero(done):
                roots[live[done]] = xn[done]
                state = [v[~done] if np.ndim(v) else v for v in state]
    roots[live] = x
    open_ = np.zeros(roots.size, dtype=bool)
    open_[live] = True
    return roots, open_


def bracketed_roots(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    lo, hi, flo, fhi, iters: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn in the brackets [lo[i], hi[i]] and a not-converged mask.

    flo and fhi are fn at the ends, which the caller has evaluated. fn(t,
    idx) returns the values at t[j] of the function of bracket idx[j]; it is
    called once per iteration with only the live brackets. A bracket whose
    end value is exactly zero returns that end. Each iteration takes the
    secant point of the bracket [a, b] on the scaled end values (the
    midpoint if that is NaN) and clips it into [a + tol, b - tol] with tol =
    0.5e-15 max(1, |b|). When the same end moves twice in a row, the kept
    end's value is scaled by 1 - f(new)/f(replaced), or by 1/2 if that is
    not positive. A bracket converges when the function vanishes at the new
    point, which it then returns, or when its bracket, as given or as
    updated, is narrower than 1e-15 max(1, |b|); it then returns
    a + (b - a) |f(a)| / (|f(a)| + |f(b)|) on the unscaled values (its end
    with the smaller |f|, the hi end on a tie, if that is not finite), so
    every root lies within that width of a sign change. A bracket still
    open after `iters` iterations returns its midpoint and is flagged.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    flo = np.array(flo, dtype=float, ndmin=1)
    fhi = np.array(fhi, dtype=float, ndmin=1)
    n = lo.size
    if n == 0:
        return lo, np.zeros(0, dtype=bool)
    every = np.arange(n)
    roots = np.empty(n)

    def settle(state: list, hit: np.ndarray, at: np.ndarray) -> list:
        """Set the root of each bracket whose function vanished at `at`
        (`hit`), and of each other bracket narrower than 1e-15 max(1, |hi|)
        the secant point of its unscaled |f|; return the state of the others."""
        live, a, b, _, _, alo, ahi, _ = state
        shut = ~hit & (b - a < 1e-15 * np.maximum(1.0, np.abs(b)))
        keep = ~(hit | shut)
        if keep.all():
            return state
        roots[live[hit]] = at[hit]
        a, b, alo, ahi = a[shut], b[shut], alo[shut], ahi[shut]
        x = a + (b - a) * alo / (alo + ahi)
        roots[live[shut]] = np.where(np.isfinite(x), x, np.where(alo < ahi, a, b))
        return [v[keep] for v in state]

    # the live brackets only: index, ends, scaled end values, |f| at the ends
    # (never scaled) and which end moved last (-1: hi, 1: lo)
    state = settle([every, lo, hi, flo, fhi, np.abs(flo), np.abs(fhi), np.zeros(n)],
                   (flo == 0.0) | (fhi == 0.0), np.where(flo == 0.0, lo, hi))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iters):
            live, a, b, fa, fb, alo, ahi, side = state
            if live.size == 0:
                break
            tol = 0.5e-15 * np.maximum(1.0, np.abs(b))
            mid = b - fb * (b - a) / (fb - fa)
            mid = np.where(np.isnan(mid), 0.5 * (a + b), mid)
            mid = np.minimum(np.maximum(mid, a + tol), b - tol)
            fm = np.asarray(fn(mid, live), dtype=float)
            afm = np.abs(fm)
            # the root lies in [a, mid]; sign bits, since fa * fm can underflow
            down = np.signbit(fa) != np.signbit(fm)
            # the Anderson-Bjorck factor for the kept end, 1/2 where it is not positive
            scale = 1.0 - fm / np.where(down, fb, fa)
            scale = np.where(scale > 0.0, scale, 0.5)
            state = settle([live, np.where(down, a, mid), np.where(down, mid, b),
                            np.where(down, np.where(side == -1, scale * fa, fa), fm),
                            np.where(down, fm, np.where(side == 1, scale * fb, fb)),
                            np.where(down, alo, afm), np.where(down, afm, ahi),
                            np.where(down, -1, 1)], fm == 0.0, mid)
    live, a, b = state[:3]
    roots[live] = 0.5 * (a + b)
    return roots, np.isin(every, live)
