"""Special functions and quadrature used by the closed-form solvers.

Hypergeometric series (2F1, 1F1, 3F2, Appell F1) are evaluated by direct
Kahan-summed power series with a ratio-based stopping rule; each also has an
integral-representation twin used for cross-validation.  The quadrature
kernel is a 15-point Gauss-Kronrod panel with adaptive bisection and a
power-law substitution for algebraic endpoint singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoConvergence, PoleError, QuadratureFailure

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series with an estimated truncation error.

    tail_bound is exactly 0 when the series terminates (a numerator
    parameter is a nonpositive integer).
    """

    value: float
    terms_used: int
    tail_bound: float

    def __float__(self) -> float:
        return float(self.value)


def rising_factorial(alpha: float, n: int) -> float:
    """(alpha)_n^up = alpha (alpha+1) ... (alpha+n-1), empty product = 1.

    Overflow is reported as +/-inf rather than raising.
    """
    if n < 0:
        raise DomainError("rising_factorial needs n >= 0")
    out = 1.0
    for k in range(n):
        out *= alpha + k
    return out


def falling_factorial(alpha: float, n: int) -> float:
    """(alpha)_n^down = alpha (alpha-1) ... (alpha-n+1), empty product = 1."""
    if n < 0:
        raise DomainError("falling_factorial needs n >= 0")
    out = 1.0
    for k in range(n):
        out *= alpha - k
    return out


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _termination_order(*params: float) -> int | None:
    """Smallest m with some numerator parameter equal to -m, else None."""
    orders = [int(-p) for p in params if _is_nonpositive_int(p)]
    return min(orders) if orders else None


def _kahan_sum_series(
    first_term: float,
    ratio: Callable[[int], float],
    n_terms: int | None,
    max_terms: int = 500_000,
) -> SeriesResult:
    """Sum term_0 + term_1 + ... with term_{k+1} = term_k * ratio(k).

    Terminating series (n_terms given) are summed exactly and get
    tail_bound 0.  Otherwise summation stops once |term| < eps*|sum| for
    three consecutive terms; the tail bound is a geometric estimate from
    the last ratio.
    """
    total = first_term
    comp = 0.0
    term = first_term
    small_streak = 0
    k = 0
    last_q = 0.0
    while True:
        if n_terms is not None and k + 1 >= n_terms:
            return SeriesResult(total, k + 1, 0.0)
        if n_terms is None and small_streak >= 3:
            q = min(abs(last_q), 0.999)
            tail = abs(term) * q / (1.0 - q)
            return SeriesResult(total, k + 1, tail)
        if k + 1 > max_terms:
            raise NoConvergence(f"series did not stabilise in {max_terms} terms")
        r = ratio(k)
        term = term * r
        last_q = r
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        if abs(term) < _EPS * abs(total) + 5e-324:
            small_streak += 1
        else:
            small_streak = 0


def gauss_2f1(a: float, b: float, c: float, z: float) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z) by direct power series.

    Requires |z| < 1 unless a or b is a nonpositive integer (terminating
    polynomial, valid for any z).
    """
    if _is_nonpositive_int(c):
        raise PoleError(f"2F1 bottom parameter c={c} is a nonpositive integer")
    n_terms = _termination_order(a, b)
    if n_terms is not None:
        n_terms += 1
    elif abs(z) >= 1.0:
        raise DomainError(f"2F1 series diverges for |z|={abs(z)} >= 1 (nonterminating)")

    def ratio(k: int) -> float:
        return (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z

    return _kahan_sum_series(1.0, ratio, n_terms)


def kummer_1f1(a: float, c: float, z: float) -> SeriesResult:
    """Confluent hypergeometric 1F1(a; c; z); converges for all finite z."""
    if _is_nonpositive_int(c):
        raise PoleError(f"1F1 bottom parameter c={c} is a nonpositive integer")
    n_terms = _termination_order(a)
    if n_terms is not None:
        n_terms += 1

    def ratio(k: int) -> float:
        return (a + k) / ((c + k) * (k + 1.0)) * z

    return _kahan_sum_series(1.0, ratio, n_terms)


def hyper_3f2(
    a1: float, a2: float, a3: float, b1: float, b2: float, z: float
) -> SeriesResult:
    """Generalised hypergeometric 3F2(a1, a2, a3; b1, b2; z)."""
    if _is_nonpositive_int(b1) or _is_nonpositive_int(b2):
        raise PoleError("3F2 bottom parameter is a nonpositive integer")
    n_terms = _termination_order(a1, a2, a3)
    if n_terms is not None:
        n_terms += 1
    elif abs(z) >= 1.0:
        raise DomainError(f"3F2 series diverges for |z|={abs(z)} >= 1 (nonterminating)")

    def ratio(k: int) -> float:
        return (a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1.0)) * z

    return _kahan_sum_series(1.0, ratio, n_terms)


def appell_f1(
    a: float, b: float, c: float, d: float, z: float, w: float
) -> SeriesResult:
    """Appell F1(a; b, c; d; z, w) via the 2F1 expansion of the outer sum.

    F1 = sum_m (a)_m (b)_m / ((d)_m m!) z^m * 2F1(a+m, c; d+m; w), which
    truncates better than the raw double series.
    """
    if _is_nonpositive_int(d):
        raise PoleError(f"F1 bottom parameter d={d} is a nonpositive integer")
    m_terms = _termination_order(a, b)
    if m_terms is not None:
        m_terms += 1
    elif abs(z) >= 1.0:
        raise DomainError("F1 outer series diverges for |z| >= 1 (nonterminating)")
    if not (_is_nonpositive_int(a) or _is_nonpositive_int(c)) and abs(w) >= 1.0:
        raise DomainError("F1 inner series diverges for |w| >= 1 (nonterminating)")

    total = 0.0
    comp = 0.0
    coef = 1.0  # (a)_m (b)_m / ((d)_m m!) z^m
    inner_tails = 0.0
    m = 0
    small_streak = 0
    while True:
        inner = gauss_2f1(a + m, c, d + m, w)
        term = coef * inner.value
        inner_tails += abs(coef) * inner.tail_bound
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        m += 1
        if m_terms is not None and m >= m_terms:
            return SeriesResult(total, m, inner_tails)
        if abs(term) < _EPS * abs(total) + 5e-324:
            small_streak += 1
            if small_streak >= 3:
                q = min(abs(z), 0.999)
                outer_tail = abs(term) * q / (1.0 - q)
                return SeriesResult(total, m, outer_tail + inner_tails)
        else:
            small_streak = 0
        if m > 500_000:
            raise NoConvergence("F1 outer sum did not stabilise")
        coef *= (a + m - 1) * (b + m - 1) / ((d + m - 1) * m) * z


def lambert_w(x: float) -> float:
    """Real branch of Lambert W on [0, inf): the w >= 0 with w e^w = x.

    Initial guess log1p(x), then Halley iteration.
    """
    if x < 0.0:
        raise DomainError(f"lambert_w requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    for _ in range(100):
        e = math.exp(w)
        f = w * e - x
        wp1 = w + 1.0
        dw = f / (e * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Integral-representation twins of the series evaluators
# ----------------------------------------------------------------------


def gauss_2f1_quadrature(a: float, b: float, c: float, z: float) -> float:
    """Euler integral for 2F1; valid for Re(c) > Re(b) > 0 and z < 1."""
    if not (c > b > 0.0):
        raise DomainError("integral form of 2F1 needs c > b > 0")
    if z >= 1.0:
        raise DomainError("integral form of 2F1 needs z < 1")
    pref = math.exp(-log_beta(b, c - b))

    def g(t):
        return np.power(1.0 - z * t, -a)

    return pref * quad_power_endpoints(g, 0.0, 1.0, alpha=b - 1.0, beta=c - b - 1.0)


def kummer_1f1_quadrature(a: float, c: float, z: float) -> float:
    """Euler integral for 1F1; valid for Re(c) > Re(a) > 0."""
    if not (c > a > 0.0):
        raise DomainError("integral form of 1F1 needs c > a > 0")
    pref = math.exp(-log_beta(a, c - a))

    def g(t):
        return np.exp(z * t)

    return pref * quad_power_endpoints(g, 0.0, 1.0, alpha=a - 1.0, beta=c - a - 1.0)


def appell_f1_quadrature(
    a: float, b: float, c: float, d: float, z: float, w: float
) -> float:
    """One-dimensional integral form of F1; needs Re(d) > Re(a) > 0."""
    if not (d > a > 0.0):
        raise DomainError("integral form of F1 needs d > a > 0")
    if z >= 1.0 or w >= 1.0:
        raise DomainError("integral form of F1 needs z, w < 1 on the real line")
    pref = math.exp(-log_beta(a, d - a))

    def g(t):
        return np.power(1.0 - z * t, -b) * np.power(1.0 - w * t, -c)

    return pref * quad_power_endpoints(g, 0.0, 1.0, alpha=a - 1.0, beta=d - a - 1.0)


# ----------------------------------------------------------------------
# The integral family I(alpha, beta, gamma, nu; z)
# ----------------------------------------------------------------------


def integral_I(
    alpha: float, beta: float, gamma: float, nu: float, z: float, tol: float = 1e-12
) -> float:
    """I = int_0^z y^alpha (1-y)^beta (y+nu)^(-gamma) dy for positive parameters.

    The integrand is evaluated in log space so large exponents cannot
    overflow mid-product.
    """
    if min(alpha, beta, gamma, nu) <= 0.0:
        raise DomainError("integral_I requires strictly positive parameters")
    if not (0.0 < z <= 1.0):
        raise DomainError("integral_I requires z in (0, 1]")

    def f(y):
        out = np.zeros_like(y)
        inside = (y > 0.0) & (y < 1.0)
        yy = y[inside]
        out[inside] = np.exp(
            alpha * np.log(yy) + beta * np.log1p(-yy) - gamma * np.log(yy + nu)
        )
        return out

    return adaptive_quad(f, 0.0, z, tol=tol)


def integral_I_gauss_form(alpha: float, beta: float, gamma: float, nu: float) -> float:
    """Closed 2F1 form of integral_I at z = 1."""
    pref = math.exp(
        (1.0 + alpha - gamma) * math.log(nu)
        - (1.0 + alpha) * math.log1p(nu)
        + log_beta(1.0 + alpha, 1.0 + beta)
    )
    f21 = gauss_2f1(2.0 + alpha + beta - gamma, 1.0 + alpha, 2.0 + alpha + beta, 1.0 / (1.0 + nu))
    return pref * f21.value


def integral_I_appell_form(
    alpha: float, beta: float, gamma: float, nu: float, z: float
) -> float:
    """Appell-F1 form of integral_I, convergent for real z in (0, 1)."""
    u = z / (z + nu)
    pref = math.exp(
        (alpha - gamma + 1.0) * math.log(nu) + (1.0 + alpha) * math.log(u)
    ) / (1.0 + alpha)
    f1 = appell_f1(1.0 + alpha, 2.0 + alpha + beta - gamma, -beta, 2.0 + alpha, u, (1.0 + nu) * u)
    return pref * f1.value
