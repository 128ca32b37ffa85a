"""Deterministic SVG and CSV output.

The SVG mirrors the usual figure style: the envelope(s) in red first, then
the vertex curves in blue/green/brown, then the polygons as filled closed
paths. Output is plain SVG 1.1 text and byte-stable for fixed inputs.

Path data and CSV rows are formatted ROW_BLOCK rows at a time by one numpy
kernel, whose bytes are those of `%.6f` and `%.17g` on each coordinate:
D = round-half-even(|x| 10**k) is computed exactly, from Dekker's
double-length product of |x| and 10**k (T. J. Dekker, Numer. Math. 18,
1971) and the tie rule of correctly rounded conversion (D. M. Gay, AT&T
Numerical Analysis Manuscript 90-10, 1990). Its digits are written into
fixed character slots, and a mask, looked up by the value's exponent and
last nonzero digit, keeps the slots its text uses. A value outside the
exact range (`%g`: zero, below 1e-5 and from 1e16 on; `%f`: from 1e12 on)
is formatted by `%` on its own. A curve with a NaN or infinite point raises
RenderError rather than writing `nan` into the output.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .equiangular import PonceletPolygon
from .support import PlaneCurve

# the most points sampled per curve: 16x the largest count the benchmark asks for
MAX_SAMPLES = 2 ** 18

# rows formatted per kernel pass; larger passes run faster, but at 512 rows
# perfbench repeats its four-curve renders and holds two copies of their
# output (ROADMAP item 1, the `run._timed` bullet)
ROW_BLOCK = 192

ENVELOPE_COLORS = ("red", "orangered", "crimson", "darkred")
VERTEX_COLORS = ("blue", "darkgreen", "brown", "teal", "purple", "darkorange")


class RenderError(ValueError):
    pass


def _unsigned_zero(a: np.ndarray) -> np.ndarray:
    """a, with each value that prints as -0.000000 (-0.0 and the negatives
    down to -5e-7) set to 0.0 in place, so that no digest sees the sign."""
    a[(a <= 0.0) & (a >= -5e-7)] = 0.0
    return a


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# One value takes _S uint8 slots: literal before (0-1), sign (2), "0.000"
# (3-7), digits d0..d19 of D each followed by a dot slot (8-47), "e-05"
# (48-51), literal after (52-55). %.17g puts D's 17 digits in d3..d19, %.6f
# its 18 in d2..d19.
_S = 56
_NUMBER = b"-0.000" + b"0." * 20 + b"e-05"
_SPLIT = 134217729.0                                      # 2**27 + 1, Dekker's splitter
_POW10 = np.cumprod(np.concatenate([[1.0], np.full(22, 10.0)]))    # 10**k, products exact
_INT_DIGITS = 10 ** np.arange(7, 18, dtype=np.int64)      # %.6f: D of 2, 3, ... integer digits
_PAIR_DIV = 10.0 ** np.arange(8, -1, -2)[:, None]         # the five pairs of digits below 1e10
_P = np.arange(100)
# the slots d, '.', d, '.' of each pair of digits, as one word
_PAIRS = (np.stack([_P // 10, 0 * _P - 2, _P % 10, 0 * _P - 2], 1) + 48).astype(np.uint8)
_PAIRS = _PAIRS.view(np.uint32)[:, 0]
# at 100 k + p: the index in d0..d19 of the last nonzero digit of pair k
# if that pair is p, -99 for 00
_LAST = np.where(_P % 10 > 0, 1, np.where(_P > 0, 0, -99)) + np.arange(0, 20, 2)[:, None]
_LAST, _LAST_ROW = _LAST.astype(np.int8).ravel(), np.arange(0, 1000, 100)[:, None]
# mask rows of the number slots: %.17g's 420 by (E + 5) * 20 + the index of
# D's last nonzero digit, then %.6f's 14 by 420 + the index of its first digit
_E, _L = np.divmod(np.concatenate([np.arange(420), np.full(14, 319)])[:, None], 20)
_E, _J = _E - 5, np.arange(20)
_LO = np.concatenate([np.full(420, 3), np.arange(14)])[:, None]
_MASKS = np.zeros((434, _S), bool)
_MASKS[:, 3:8] = (np.arange(5) <= -_E) & (_E < 0) & (_E > -5)
_MASKS[:, 8:48:2] = (_J >= _LO) & (_J <= np.maximum(_L, _E + 3))
_MASKS[:, 9:48:2] = (_J == np.where(_E == -5, 3, np.where(_E >= 0, _E + 3, -99))) & (_J < _L)
_MASKS[:, 48:52] = _E == -5
_MASKS = np.packbits(_MASKS, axis=1)     # 7 bytes a row; each call unpacks them
del _P, _E, _L, _J, _LO


def _halves(x):
    """Dekker's split x = hi + lo, each half of at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _round_scaled(a: np.ndarray, k) -> np.ndarray:
    """round-half-even(a * 10**k) as int64, exact for 0 <= a and k <= 22."""
    ah, al = _halves(a)
    p = a * _POW10[k]
    e = ((ah * _POW10_HI[k] - p) + ah * _POW10_LO[k] + al * _POW10_HI[k]) + al * _POW10_LO[k]
    f, i = np.modf(p)                       # a * 10**k == i + f + e
    s = f + e
    r = np.rint(s)
    d = s - r                               # exact, and |d| <= 1/2
    out = i.astype(np.int64) + r.astype(np.int64)
    half = np.flatnonzero(np.abs(d) == 0.5)
    if half.size:   # f + e == s + t (Knuth's two-sum): t picks the side, t == 0 the even one
        f, e, s, d = f[half], e[half], s[half], d[half]
        z = s - f
        t = (f - (s - z)) + (e - z)
        move = np.where(t == 0, out[half] & 1, (t > 0) == (d > 0))
        out[half] += move * np.sign(d).astype(np.int64)
    return out


def _kernel(v: np.ndarray, g: bool, tab: np.ndarray, m: np.ndarray, masks) -> np.ndarray:
    """Digits of the values v into tab's digit slots, and the mask of their
    number slots, rows of `masks`, into m. Returns the indices of the values
    outside the exact range, whose number slots are masked off."""
    a = np.abs(v)
    bad = np.flatnonzero(~(a < 1e16) | (a < 1e-5) if g else ~(a < 1e12))
    a[bad] = 1.0
    if g:
        k = 16 - np.floor(np.log10(a)).astype(np.intp)
        D = _round_scaled(a, k)
        off = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))   # log10 was off by one
        if off.size:
            k[off] += np.where(D[off] < 10 ** 16, 1, -1)
            D[off] = _round_scaled(a[off], k[off])
        code = (21 - k) * 20
    else:
        D = _round_scaled(a, 6)
        code = 433 - np.searchsorted(_INT_DIGITS, D, side="right")
    hi = D // 10 ** 10                      # D = hi 1e10 + lo, both exact as doubles
    x = np.floor(np.stack([hi, D - hi * 10 ** 10])[:, None] / _PAIR_DIV).reshape(10, -1)
    pairs = (x - 100.0 * np.floor(x * 0.01)).astype(np.intp)
    tab.view(np.uint32)[:, 2:12] = _PAIRS[pairs.T]
    if g:
        code += _LAST[pairs + _LAST_ROW].max(axis=0)
    np.take(masks, code, axis=0, out=m)
    m[:, 2] = np.signbit(v)
    m[bad, 2:52] = False
    return bad


def _text_pieces(row: str, table: np.ndarray, cuts=()) -> Iterator[str]:
    """`row % tuple(r)` for every row r of the (n, k) float table, joined and
    cut before each row index, below n, of the ascending `cuts`. row holds k
    `%.17g` or k `%.6f`, and literals of at most 2 characters (4 after the
    last)."""
    spec = "%.17g" if "%.17g" in row else "%.6f"
    lits = row.split(spec)
    n, c = table.shape
    chars = np.zeros((c, _S), np.uint8)     # the slots of each column, NUL where unused
    chars[:, 2:52] = np.frombuffer(_NUMBER, np.uint8)
    for j, s in enumerate(lits[:-1]):
        chars[j, :len(s)] = list(s.encode())
    chars[-1, 52:52 + len(lits[-1])] = list(lits[-1].encode())
    lit = chars != 0
    lit[:, 2:52] = False
    size = min(n, ROW_BLOCK) * c
    tab, m = np.resize(chars, (size, _S)), np.empty((size, _S), bool)
    masks = np.unpackbits(_MASKS, axis=1).view(bool)
    values, piece = table.reshape(-1), []
    for r0 in range(0, n, ROW_BLOCK):
        v = values[r0 * c:(r0 + ROW_BLOCK) * c]
        N = len(v)
        bad = _kernel(v, spec == "%.17g", tab[:N], m[:N], masks)
        m[:N].reshape(-1, c, _S)[...] |= lit
        text = str(np.compress(m[:N].reshape(-1), tab[:N].reshape(-1)).data, "ascii")
        # (text offset, i - 1/2, "") for a cut before value i, (offset, i, text)
        # for a value i that `%` formats: ties go in value order
        marks = []
        for r in cuts:
            if r0 <= r < r0 + N // c:
                marks.append((np.count_nonzero(m[:(r - r0) * c]), (r - r0) * c - 0.5, ""))
        for i, x in zip(bad.tolist(), v[bad].tolist()):
            marks.append((np.count_nonzero(m[:i]) + len(lits[i % c]), i, spec % x))
        at = 0
        for pos, i, s in sorted(marks):
            piece.append(text[at:pos])
            at = pos
            if s:
                piece.append(s)
            else:
                yield "".join(piece)
                piece = []
        piece.append(text[at:])
    yield "".join(piece)


def _format_rows(row: str, table: np.ndarray) -> str:
    """`row % tuple(r)` for every row r of the (n, k) float table, joined."""
    return "".join(_text_pieces(row, table))


def _curve_points(curve: PlaneCurve, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n equispaced parameters and their points; RenderError at the first
    parameter whose point is NaN or infinite."""
    ts = np.linspace(0.0, curve.domain_length, n, endpoint=False)
    pts = curve.positions(ts)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        t = float(ts[np.argmax(bad)])
        raise RenderError(f"curve {curve.label!r} has a non-finite point at t = {t!r}")
    return ts, pts


def render_svg(envelopes: list[tuple[str, PlaneCurve]],
               vertex_curves: list[tuple[str, PlaneCurve]],
               polygons: list[PonceletPolygon],
               samples: int = 1024,
               margin: float = 0.05) -> str:
    """SVG document with all curves as sampled polylines (y flipped so the
    mathematical orientation is preserved on screen)."""
    if not envelopes and not vertex_curves:
        raise RenderError("empty scene")
    _check_samples(samples)
    if not 0.0 <= margin <= 1.0:
        raise RenderError(f"need a margin between 0 and 1, got {margin}")

    paths, arrays = [], []    # (name, color, fill) and the closed point table of each path
    for curves, colors in ((envelopes, ENVELOPE_COLORS), (vertex_curves, VERTEX_COLORS)):
        for (name, curve), color in zip(curves, itertools.cycle(colors)):
            pts = _curve_points(curve, samples)[1]
            paths.append((name, color, None))
            arrays += [pts, pts[:1]]
    for i, poly in enumerate(polygons):
        paths.append((f"polygon-{i + 1}", "black", "0.05"))
        arrays += [poly.vertices, poly.vertices[:1]]

    starts = np.cumsum([len(a) for a in arrays])[1:-1:2].tolist()
    stacked = np.vstack(arrays)
    arrays.clear()
    stacked[:, 1] *= -1.0
    (x0, y0), (x1, y1) = stacked.min(axis=0).tolist(), stacked.max(axis=0).tolist()
    pad = margin * max(x1 - x0, y1 - y0, 1e-9)
    vb = np.array([x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad])
    vb = _unsigned_zero(vb).tolist()
    stroke = max(vb[2], vb[3]) / 400.0

    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">\n']
    # the path data of one path at a time
    texts = _text_pieces("L%.6f %.6f", _unsigned_zero(stacked), starts)
    for (name, color, fill), text in zip(paths, texts):
        if fill is not None:
            attrs, end = f'fill="black" fill-opacity="{fill}" stroke="{color}"', "Z"
        else:
            attrs, end = f'fill="none" stroke="{color}"', ""
        parts.append(f'<path id="{name}" {attrs} stroke-width="{_fmt(stroke)}" '
                     f'd="M{text[1:]}{end}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _check_samples(n: int):
    if not 2 <= n <= MAX_SAMPLES:
        raise RenderError(f"need 2 to {MAX_SAMPLES} samples, got {n}")


def sample_points(curve: PlaneCurve, n: int) -> str:
    """CSV `t,x,y` at n equispaced parameters, full double precision."""
    _check_samples(n)
    table = np.column_stack(_curve_points(curve, n))
    return "t,x,y\n" + _format_rows("%.17g,%.17g,%.17g\n", table)
