"""Bracketed root finding for many brackets at once.

One solver serves every sign-change bracket in the library: the oracle's
circle scans, the verifier's side-contact recovery, and the envelope
singularity and fixed-point reports. It runs the Illinois method (regula
falsi with the stale end's value halved) on all brackets in lockstep, so a
batched function is evaluated once per iteration for every bracket still
live, and it says which brackets did not converge.
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
    exactly zero returns that end. A bracket converges when the function
    vanishes at the new point or its width falls under 1e-15 max(1, |hi|);
    it then returns that point. A bracket still open after `iters`
    iterations returns its midpoint and is flagged in the mask.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    n = lo.size
    if n == 0:
        return lo, np.zeros(0, dtype=bool)
    every = np.arange(n)
    ends = np.asarray(fn(np.concatenate([lo, hi]), np.concatenate([every, every])),
                      dtype=float)
    flo, fhi = ends[:n].copy(), ends[n:].copy()
    roots = 0.5 * (lo + hi)
    at_lo = flo == 0.0
    at_hi = ~at_lo & (fhi == 0.0)
    roots[at_lo] = lo[at_lo]
    roots[at_hi] = hi[at_hi]
    open_ = ~(at_lo | at_hi)
    side = np.zeros(n, dtype=np.int8)   # -1: hi moved last, 1: lo moved last
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            live = np.nonzero(open_)[0]
            if live.size == 0:
                break
            a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
            mid = b - fb * (b - a) / (fb - fa)
            mid = np.where((a < mid) & (mid < b), mid, 0.5 * (a + b))
            fm = np.asarray(fn(mid, live), dtype=float)
            done = (fm == 0.0) | (b - a < 1e-15 * np.maximum(1.0, np.abs(b)))
            roots[live[done]] = mid[done]
            open_[live[done]] = False
            keep = ~done
            live, a, b, fa, fb, mid, fm = (v[keep] for v in (live, a, b, fa, fb, mid, fm))
            s = side[live]
            down = fa * fm < 0                   # the root lies in [a, mid]
            hi[live] = np.where(down, mid, b)
            fhi[live] = np.where(down, fm, np.where(s == 1, 0.5 * fb, fb))
            lo[live] = np.where(down, a, mid)
            flo[live] = np.where(down, np.where(s == -1, 0.5 * fa, fa), fm)
            side[live] = np.where(down, -1, 1)
    roots[open_] = 0.5 * (lo[open_] + hi[open_])
    return roots, open_
