"""Truncated Taylor arithmetic (Griewank & Walther, Evaluating Derivatives,
2nd ed., ch. 13). A Jet holds a value v and its derivatives d = (d1, ..., dK)
along one parameter t as numpy arrays ((n,) for scalars, (n, 2) for points);
results have the lower order of their operands. Every lift and position
function of the library takes a plain array or a Jet."""

from __future__ import annotations

from math import comb
from typing import Callable, Sequence

import numpy as np


class Jet:
    __slots__ = ("v", "d")
    __array_ufunc__ = None    # numpy operands defer to the reflected operators

    def __init__(self, v, d: Sequence):
        self.v, self.d = v, tuple(d)

    @classmethod
    def variable(cls, ts, order: int) -> Jet:
        """The parameter itself to the given order: t' = 1 (none at order 0), t'' = ... = 0."""
        ts = np.asarray(ts, dtype=float)
        return cls(ts, [np.ones_like(ts) if i == 0 else np.zeros_like(ts) for i in range(order)])

    @property
    def order(self) -> int:
        return len(self.d)

    @property
    def size(self) -> int:
        return np.size(self.v)

    def truncated(self, order: int):
        """The jet cut to the given order; the plain value at order 0."""
        return Jet(self.v, self.d[:order]) if order else self.v

    def derivative(self):
        """The jet of the first derivative, one order lower (plain at order 0)."""
        return Jet(self.d[0], self.d[1:]) if self.order > 1 else self.d[0]

    def compose(self, f: Sequence) -> Jet:
        """f(self) by Faa di Bruno for f given at self.v by f[k] = f^(k)(self.v),
        to order 3; f may be vector valued ((n, 2) against this jet's (n,))."""
        if self.order > 3:
            raise ValueError(f"composition is implemented to order 3, not {self.order}")
        x = self.d
        if np.ndim(f[0]) > np.ndim(self.v):
            x = tuple(c[..., None] for c in x)
        d = []
        if x:
            d.append(f[1] * x[0])
        if len(x) > 1:
            d.append(f[2] * (x[0] * x[0]) + f[1] * x[1])
        if len(x) > 2:
            d.append(f[3] * (x[0] * x[0] * x[0]) + 3.0 * (f[2] * (x[0] * x[1])) + f[1] * x[2])
        return Jet(f[0], d)

    def __getitem__(self, key) -> Jet:
        return Jet(self.v[key], [c[key] for c in self.d])

    def __neg__(self) -> Jet:
        return Jet(-self.v, [-c for c in self.d])

    def __add__(self, other) -> Jet:
        if isinstance(other, Jet):
            return Jet(self.v + other.v, [a + b for a, b in zip(self.d, other.d)])
        return Jet(self.v + other, self.d)

    def __sub__(self, other) -> Jet:
        return self + -other

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            return Jet(self.v * other, [c * other for c in self.d])
        a, b = (self.v,) + self.d, (other.v,) + other.d
        d = []
        for n in range(1, min(len(a), len(b))):       # Leibniz
            d.append(a[n] * b[0] + a[0] * b[n])
            for i in range(1, n):
                d[-1] = d[-1] + comb(n, i) * (a[i] * b[n - i])
        return Jet(a[0] * b[0], d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        if not isinstance(other, Jet):
            return Jet(self.v / other, [c / other for c in self.d])
        a, b = (self.v,) + self.d, (other.v,) + other.d
        q = [a[0] / b[0]]
        for n in range(1, min(len(a), len(b))):       # a = q b, solved for q^(n)
            q.append(a[n])
            for i in range(1, n + 1):
                q[-1] = q[-1] - comb(n, i) * (b[i] * q[n - i])
            q[-1] = q[-1] / b[0]
        return Jet(q[0], q[1:])


def chain(x, derivs: Callable[[np.ndarray, int], list]):
    """f(x) for an array or Jet x, where derivs(v, order) lists
    f(v), f'(v), ..., f^(order)(v) at a float array v."""
    if isinstance(x, Jet):
        return x.compose(derivs(x.v, x.order))
    return derivs(np.asarray(x, dtype=float), 0)[0]


def _trig(x, shift: int):
    if not isinstance(x, Jet):
        return (np.sin, np.cos)[shift](x)
    s, c = np.sin(x.v), np.cos(x.v)
    return x.compose([s, c, -s, -c, s][shift:shift + x.order + 1])


def sin(x):
    return _trig(x, 0)


def cos(x):
    return _trig(x, 1)


def stack(items: Sequence, axis: int = 1):
    """np.stack of arrays, or of Jets component by component."""
    if not isinstance(items[0], Jet):
        return np.stack(items, axis=axis)
    return Jet(np.stack([j.v for j in items], axis=axis),
               [np.stack(ds, axis=axis) for ds in zip(*(j.d for j in items))])
