"""Bracketed root finding for many brackets at once.

One solver serves every sign-change bracket in the library: the oracle's
circle scans, the verifier's side-contact recovery, and the envelope
singularity and fixed-point reports. It runs the Illinois method (regula
falsi with the stale end's value halved) on all brackets in lockstep, so a
batched function is evaluated once per iteration for every bracket still
live, and it says which brackets did not converge. Its state holds only
the live brackets, compacted whenever some of them close.

Two safeguards end a bracket once its function reaches the rounding floor.
Every secant point keeps at least a minimum step inside the bracket (T. J.
Dekker, "Finding a zero by means of successive linear interpolation",
1969), so a point that would round onto an end moves the bracket by that
step instead of leaving a long tail of near-bisection steps. A bracket
that closes by width returns the end with the smaller |f|, as Brent's
`zero` does (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# points in the sign-change scans over a parameter circle that feed the solver
GRID = 512


def bracketed_roots(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    lo, hi, iters: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn in the brackets [lo[i], hi[i]] and a not-converged mask.

    fn(t, idx) returns the values at t[j] of the function of bracket
    idx[j]; it is called once for both ends of every bracket and then once
    per iteration with only the live brackets. A bracket whose end value is
    exactly zero returns that end. Each iteration takes the Illinois secant
    point of the bracket [a, b] (the midpoint if that is NaN) and clips it
    into [a + tol, b - tol] with tol = 0.5e-15 max(1, |b|). A bracket
    converges when the function vanishes at the new point, which it then
    returns, or when its bracket, as given or as updated, is narrower than
    1e-15 max(1, |b|); it then returns the end of that bracket with the
    smaller |f| (the hi end on a tie), so every root lies within that width
    of a sign change. A bracket still open after `iters` iterations returns
    its midpoint and is flagged in the mask.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    n = lo.size
    if n == 0:
        return lo, np.zeros(0, dtype=bool)
    every = np.arange(n)
    ends = np.asarray(fn(np.concatenate([lo, hi]), np.concatenate([every, every])),
                      dtype=float)
    flo, fhi = ends[:n], ends[n:]
    roots = np.empty(n)

    def settle(state: list, hit: np.ndarray, at: np.ndarray) -> list:
        """Set the root of each bracket whose function vanished at `at`
        (`hit`), and of each other bracket narrower than 1e-15 max(1, |hi|)
        its end with the smaller |f|; return the state of the others."""
        live, a, b, _, _, alo, ahi, _ = state
        shut = ~hit & (b - a < 1e-15 * np.maximum(1.0, np.abs(b)))
        keep = ~(hit | shut)
        if keep.all():
            return state
        roots[live[hit]] = at[hit]
        roots[live[shut]] = np.where(alo[shut] < ahi[shut], a[shut], b[shut])
        return [v[keep] for v in state]

    # the live brackets only: index, ends, Illinois-halved end values, |f| at
    # the ends (never halved) and which end moved last (-1: hi, 1: lo)
    state = settle([every, lo, hi, flo, fhi, np.abs(flo), np.abs(fhi), np.zeros(n)],
                   (flo == 0.0) | (fhi == 0.0), np.where(flo == 0.0, lo, hi))
    with np.errstate(divide="ignore", invalid="ignore"):
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
            state = settle([live, np.where(down, a, mid), np.where(down, mid, b),
                            np.where(down, np.where(side == -1, 0.5 * fa, fa), fm),
                            np.where(down, fm, np.where(side == 1, 0.5 * fb, fb)),
                            np.where(down, alo, afm), np.where(down, afm, ahi),
                            np.where(down, -1, 1)], fm == 0.0, mid)
    live, a, b = state[:3]
    roots[live] = 0.5 * (a + b)
    return roots, np.isin(every, live)
