"""Minimal double-double arithmetic (about 32 significant digits).

Values are (hi, lo) pairs with hi + lo the represented number and
|lo| <= ulp(hi)/2.  Used where closed-form alternating sums exhaust
plain double precision.
"""

from __future__ import annotations

DD = tuple[float, float]

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a: float, b: float) -> DD:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> DD:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> DD:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x: DD, y: DD) -> DD:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    s2, e2 = two_sum(s, e)
    return s2, e2


def dd_mul_f(x: DD, f: float) -> DD:
    p, e = two_prod(x[0], f)
    e += x[1] * f
    s, e2 = two_sum(p, e)
    return s, e2
