"""Adaptive Gauss-Kronrod quadrature shared by the measure, closed-form
and geometric-law code.

The kernel is a 15-point Gauss-Kronrod panel with globally adaptive
bisection, for scalar or vector-valued integrands, plus a power-law
substitution for algebraic endpoint singularities, and the bracketed
bisection-Newton root finder of the geometric parameters.  Hypergeometric
and Lambert-W values come from scipy.special.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureFailure

_EPS = np.finfo(float).eps

_XGK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XGK
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim > 2 or fx.shape[-1:] != x.shape:
        raise QuadratureFailure("integrand must be vectorized over a 1-d grid")
    if not np.all(np.isfinite(fx)):
        raise QuadratureFailure(f"integrand not finite on [{a}, {b}]")
    k15 = half * np.dot(fx, _WGK)
    g7 = half * np.dot(fx[..., 1::2], _WG)
    return k15, float(np.max(np.abs(k15 - g7)))


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_panels: int = 4096,
) -> float | np.ndarray:
    """Integrate a vectorized integrand on [a, b] to absolute tolerance tol.

    Gauss-Kronrod 15-point panels, globally adaptive: the panel with the
    largest error estimate is bisected until the summed error estimate
    drops below tol (or below 50 eps times the largest component).
    Raises QuadratureFailure if max_panels is reached first.

    f maps a grid of shape (n,) to values of shape (n,), or to shape
    (m, n) for m integrands refined on shared panels; a panel's error
    estimate is then the largest over the components and an array of
    m integrals is returned.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    import heapq

    val, err = _gk15(f, a, b)
    heap = [(-err, a, b, val)]
    total_val = val
    total_err = err
    n_panels = 1
    while total_err > tol and total_err > 50.0 * _EPS * np.max(np.abs(total_val)):
        if n_panels >= max_panels:
            raise QuadratureFailure(
                f"quadrature error {total_err:.3e} > tol {tol:.3e} "
                f"after {n_panels} panels on [{a}, {b}]"
            )
        neg_err, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel at floating-point resolution; accept its estimate.
            total_err += neg_err  # removes this panel's error from the budget
            heapq.heappush(heap, (0.0, lo, hi, old_val))
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val = total_val + (v1 + v2 - old_val)  # not +=: val is also in the heap
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1
    vals = np.array([item[3] for item in heap])
    if vals.ndim == 1:
        return sign * math.fsum(vals)
    return sign * np.array([math.fsum(col) for col in vals.T])


def bracketed_root(
    f: Callable[[float], float], df: Callable[[float], float], lo: float, hi: float
) -> float:
    """Root of f in [lo, hi], where f(lo) and f(hi) differ in sign.

    Bisection narrows the bracket to 1e-12; Newton steps then polish the
    root, and a step that leaves the bracket falls back to its midpoint.
    """
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    x = 0.5 * (lo + hi)
    for _ in range(60):
        dx = f(x) / df(x)
        x_new = x - dx
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
        if abs(dx) < 1e-16 * (1.0 + abs(x)):
            break
    return x


def quad_power_endpoints(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    alpha: float = 0.0,
    beta: float = 0.0,
    tol: float = 1e-12,
) -> float:
    """Integrate (x-a)^alpha (b-x)^beta f(x) over [a, b], alpha, beta > -1.

    Exponents in (-1, 0) are removed by the substitution u = (x-a)^(1+alpha)
    (resp. at b), so the transformed integrand is bounded; nonnegative
    exponents are folded into the integrand directly.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("endpoint exponents must exceed -1")
    if a >= b:
        return 0.0
    mid = 0.5 * (a + b)

    def plain(x):
        return np.power(x - a, alpha) * np.power(b - x, beta) * f(x)

    # left piece
    if -1.0 < alpha < 0.0:
        p = 1.0 + alpha

        def left_sub(u):
            x = a + np.power(u, 1.0 / p)
            return np.power(b - x, beta) * f(x) / p

        left = adaptive_quad(left_sub, 0.0, (mid - a) ** p, tol=0.5 * tol)
    else:
        left = adaptive_quad(plain, a, mid, tol=0.5 * tol)
    # right piece
    if -1.0 < beta < 0.0:
        q = 1.0 + beta

        def right_sub(u):
            x = b - np.power(u, 1.0 / q)
            return np.power(x - a, alpha) * f(x) / q

        right = adaptive_quad(right_sub, 0.0, (b - mid) ** q, tol=0.5 * tol)
    else:
        right = adaptive_quad(plain, mid, b, tol=0.5 * tol)
    return left + right
