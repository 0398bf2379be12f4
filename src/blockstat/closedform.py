"""Closed-form stationary laws, generating functions, and moment formulas.

Implements the explicit Moran, Wright-Fisher (Kingman), star-shaped and
beta(3,1) solutions, the geometric-parameter root for the uniform
(Bolthausen-Sznitman) measure, and residual verifiers that plug a
probability generating function back into its defining integro-differential
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import (
    DomainError,
    IllConditioned,
    NegativeMass,
    PreconditionViolated,
    QuadratureFailure,
    RootOrderViolation,
)
from .measures import LambdaMeasure, ModelParams, MoranParams
from .recursions import (
    StationaryPmf,
    _clip_negative,
    _solve_moran_banded,
    _solve_prlm,
    solve_star,
)
from .specfun import (
    adaptive_quad,
    gauss_2f1,
    kummer_1f1,
    lambert_w,
    quad_power_endpoints,
)


def _pair_quad(f2: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               tol: float = 1e-15, max_panels: int = 4096) -> np.ndarray:
    """Integrate a 2-vector integrand on shared Gauss-Kronrod panels.

    Refining both components on identical panels makes their quadrature
    errors strongly correlated, which is what the ill-conditioned ratio
    I1/I0 of the closed-form pmfs needs.
    """
    import heapq

    from .specfun import _WG, _WGK, _XGK

    def panel(lo: float, hi: float):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = mid + half * _XGK
        fx = np.asarray(f2(x), dtype=float)
        k15 = half * (fx @ _WGK)
        g7 = half * (fx[:, 1::2] @ _WG)
        return k15, float(np.max(np.abs(k15 - g7)))

    val, err = panel(a, b)
    heap = [(-err, a, b, val)]
    total_err = err
    n_panels = 1
    while total_err > tol and n_panels < max_panels:
        neg_err, lo, hi, old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            total_err += neg_err
            heapq.heappush(heap, (0.0, lo, hi, old))
            continue
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1
    return np.sum([item[3] for item in heap], axis=0)


def _pair_quad_right_singular(
    f2: Callable[[np.ndarray], np.ndarray], beta: float, tol: float = 1e-15
) -> np.ndarray:
    """Shared-panel integral of (1-y)^beta f2(y) over (0,1), beta in (-1,0]."""
    if beta >= 0.0:
        def g(y):
            return f2(y) * np.power(1.0 - y, beta)

        return _pair_quad(g, 0.0, 1.0, tol=tol)
    q = 1.0 + beta

    def left(y):
        return f2(y) * np.power(1.0 - y, beta)

    def right(u):
        y = 1.0 - np.power(u, 1.0 / q)
        return f2(y) / q

    return _pair_quad(left, 0.0, 0.5, tol=0.5 * tol) + _pair_quad(
        right, 0.0, 0.5**q, tol=0.5 * tol
    )


@dataclass
class PgfEvaluator:
    """Probability generating function of a stationary block-count law.

    evaluate(z) is defined on [0, 1] with evaluate(0) = 0 and
    evaluate(1) = 1; derivative is analytic where cheap and None where the
    verifier should fall back to Richardson differences.
    """

    model_tag: str
    params: dict
    evaluate: Callable[[float], float]
    p1: float
    p2: float | None = None
    derivative: Callable[[float], float] | None = None

    def __call__(self, z: float) -> float:
        return self.evaluate(z)

    def d(self, z: float) -> float:
        if self.derivative is not None:
            return self.derivative(z)
        h = 1e-5 * (1.0 + abs(z))
        d1 = (self.evaluate(z + h) - self.evaluate(z - h)) / (2 * h)
        d2 = (self.evaluate(z + h / 2) - self.evaluate(z - h / 2)) / h
        return (4.0 * d2 - d1) / 3.0


# ----------------------------------------------------------------------
# Moran model
# ----------------------------------------------------------------------


def _moran_weight_integrals(params: MoranParams) -> tuple[float, float, float]:
    """Scaled integrals (I0_hat, I1_hat, log_scale) of the Moran pgf family.

    I_i = int_0^1 y^(N u1 + i) (1-y)^(N rho0 - 1) (y + 1/s)^(-A-1) dy with
    A = (1 + u1 + rho0) N, computed as exp(log_scale) * I_hat so only the
    scale-free ratios are ever used.
    """
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    rho0 = u0 / (1.0 + s)
    A = (1.0 + u1 + rho0) * N
    inv_s = 1.0 / s
    beta_exp = N * rho0 - 1.0

    def log_w(y, i):
        return (N * u1 + i) * np.log(y) + (-A - 1.0) * np.log(y + inv_s)

    # scale against the full log-integrand so the absolute quadrature
    # tolerance is effectively relative to the true peak
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    full = log_w(grid, 0) + max(beta_exp, 0.0) * np.log1p(-grid)
    scale = float(np.max(full))

    beta_split = beta_exp if beta_exp < 0.0 else 0.0

    def f_pair(y):
        # the de-singularised integrand is regular at y = 1, so only y = 0
        # is masked; a folded positive beta exponent sends the y = 1 value
        # to exp(-inf) = 0, which is the correct limit
        out = np.zeros((2, y.size))
        pos = y > 0
        with np.errstate(divide="ignore"):
            lw = log_w(y[pos], 0) - scale
            if beta_exp > 0.0:
                lw = lw + beta_exp * np.log1p(-y[pos])
        base = np.exp(lw)
        out[0, pos] = base
        out[1, pos] = base * y[pos]
        return out

    i0, i1 = _pair_quad_right_singular(f_pair, beta_split)
    return float(i0), float(i1), scale


def _f32_terminating(a1: float, b_top: float, a3: int, b_bot: float, z: float):
    """Terminating 3F2(a1, b_top, a3; b_bot, 1; z) with its gross term sum.

    a3 is a nonpositive integer; returns (value, sum of |terms|) so callers
    can bound the cancellation-aware rounding error.
    """
    terms = [1.0]
    t = 1.0
    for k in range(-a3):
        t *= (a1 + k) * (b_top + k) * (a3 + k) * z / ((b_bot + k) * (1.0 + k) * (1.0 + k))
        terms.append(t)
    return math.fsum(terms), math.fsum(map(abs, terms))


def _moran_q(params: MoranParams, n: int, i: int) -> tuple[float, float]:
    """Coefficient q_{n,i} of the Moran pmf expansion and its gross sum."""
    if n == 1:
        return (1.0, 1.0) if i == 1 else (0.0, 0.0)
    N, s, u1 = params.N, params.s, params.u1
    rho0 = params.u0 / (1.0 + s)
    terms = []
    gross = []
    pref = 1.0  # (-N+i-1)_m^up / (Nu1+i+1)_m^up * (-s)^m
    for m in range(n - i + 1):
        val, big = _f32_terminating(
            m + 1.0, 1.0 - N * rho0, m - n + i, N * u1 + m + i + 1.0, 1.0 + s
        )
        terms.append(pref * val)
        gross.append(abs(pref) * big)
        pref *= (-N + i - 1 + m) * (-s) / (N * u1 + i + 1 + m)
    return math.fsum(terms), math.fsum(gross)


# The alternating combination I1 q_{n,1}/(Nu1+1) - I0 q_{n,2}/(Nu1+2) is
# exponentially ill-conditioned in n: the true pmf is the recessive part of
# the expansion, so its tail demands relative accuracy ~ p_n / q_n of every
# factor, including the weight integrals.  The formula is therefore used
# with a running error estimate (effective relative error ~3e-16 of the
# term scale) and handed over to the stable banded tail solve beyond its
# trustworthy range.
_Q_EFF_EPS = 1e-15
_Q_ERR_CAP = 1e-10


def moran_closed(params: MoranParams, n_max: int | None = None) -> tuple[StationaryPmf, PgfEvaluator]:
    """Explicit stationary law of the Moran block counting chain.

    u0 = 0 uses the terminating-2F1 product form; u0 > 0 goes through the
    weight integrals I_i and the q_{n,i} sums.  n_max truncates the pmf
    (useful for large N, where only the head carries mass).
    """
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    u = params.u
    n_max = N if n_max is None else min(n_max, N)

    if u0 == 0.0:
        t = np.empty(N)
        t[0] = 1.0
        for n in range(2, N + 1):
            t[n - 1] = t[n - 2] * (N - n + 1) * s / (N * u + n)
        norm = math.fsum(t)
        probs = t / norm
        denom = gauss_2f1(1.0, 1.0 - N, N * u + 2.0, -s).value

        def evaluate(z: float) -> float:
            if z == 0.0:
                return 0.0
            return z * gauss_2f1(1.0, 1.0 - N, N * u + 2.0, -s * z).value / denom

        pmf = StationaryPmf(probs[:n_max], n_max, abs(norm - denom) / denom,
                            "moran-closed-u0zero", tail_mass=float(probs[n_max:].sum()))
        pgf = PgfEvaluator("moran", _moran_params_dict(params), evaluate, float(probs[0]))
        return pmf, pgf

    i0, i1, scale = _moran_weight_integrals(params)
    if i0 <= i1:
        raise QuadratureFailure("Moran weight integrals came out non-monotone")
    p1 = N * u0 * i1 / ((N * u1 + 1.0) * (i0 - i1))
    pref = N * u0 / (i0 - i1)

    probs = np.empty(n_max)
    probs[0] = p1
    fill_from = None
    for n in range(2, n_max + 1):
        q1, g1 = _moran_q(params, n, 1)
        q2, g2 = _moran_q(params, n, 2)
        t1 = i1 * q1 / (N * u1 + 1.0)
        t2 = i0 * q2 / (N * u1 + 2.0)
        gross = (i1 * g1 / (N * u1 + 1.0) + i0 * g2 / (N * u1 + 2.0)) * pref
        err = gross * _Q_EFF_EPS
        if err > _Q_ERR_CAP:
            fill_from = n
            break
        probs[n - 1] = pref * (t1 - t2)
    if fill_from is not None:
        a = _solve_moran_banded(params)
        p_fill = np.empty(N)
        p_fill[: N - 1] = a[: N - 1] - a[1:]
        p_fill[N - 1] = a[N - 1]
        probs[fill_from - 1 :] = p_fill[fill_from - 1 : n_max]
    tail = 1.0 - float(probs.sum())
    pmf = StationaryPmf(
        _renorm_head(probs, "moran-closed"), n_max, abs(min(tail, 0.0)),
        "moran-closed", tail_mass=max(tail, 0.0),
        extras={"formula_valid_to": (fill_from - 1) if fill_from else n_max},
    )

    rho0 = u0 / (1.0 + s)
    A = (1.0 + u1 + rho0) * N
    inv_s = 1.0 / s
    ratio = i1 / i0
    pref_const = N * u0 * i0 / (s * (i0 - i1))
    beta_exp = N * rho0 - 1.0
    beta_split = beta_exp if beta_exp < 0.0 else 0.0

    def weighted(y):
        out = np.zeros_like(y)
        pos = y > 0
        with np.errstate(divide="ignore"):
            lw = N * u1 * np.log(y[pos]) - (A + 1.0) * np.log(y[pos] + inv_s) - scale
            if beta_exp > 0.0:
                lw = lw + beta_exp * np.log1p(-y[pos])
        out[pos] = np.exp(lw)
        return out

    def evaluate(z: float) -> float:
        if z <= 0.0:
            return 0.0
        if z >= 1.0:
            return 1.0
        if z <= 0.6:
            def f(y):
                base = (ratio - y) * weighted(y)
                if beta_split < 0.0:
                    base = base * np.power(1.0 - y, beta_split)
                return base

            j = adaptive_quad(f, 0.0, z, tol=1e-13)
        else:
            def f(y):
                return (y - ratio) * weighted(y)

            j = quad_power_endpoints(f, z, 1.0, alpha=0.0, beta=beta_split, tol=1e-13)
        logpref = A * math.log(z + inv_s) - N * u1 * math.log(z) - N * rho0 * math.log1p(-z) + scale
        return pref_const * j * math.exp(logpref)

    pgf = PgfEvaluator("moran", _moran_params_dict(params), evaluate, p1)
    return pmf, pgf


def _moran_params_dict(params: MoranParams) -> dict:
    return {"N": params.N, "s": params.s, "u0": params.u0, "u1": params.u1}


def _renorm_head(probs: np.ndarray, tag: str) -> np.ndarray:
    worst = float(probs.min(initial=0.0))
    if worst < -1e-9:
        raise NegativeMass(f"{tag}: closed-form probability {worst}")
    return np.where(probs < 0.0, 0.0, probs)


def moran_mean(params: MoranParams, p1: float | None = None) -> float:
    """E[L] = (N(s+u0-u1) + (1+N u1) p1) / (1+s+N u0)."""
    if p1 is None:
        p1 = moran_closed(params, n_max=1)[1].p1
    N = params.N
    return (N * (params.s + params.u0 - params.u1) + (1.0 + N * params.u1) * p1) / (
        1.0 + params.s + N * params.u0
    )


def moran_factorial_moments(
    params: MoranParams, n_max: int, pmf: StationaryPmf | None = None
) -> np.ndarray:
    """E[(L)_n^down] for n = 0..n_max via the three-term recursion.

    The shifted term E[(L-1)_n^down] is read off the pmf, so a pmf (from
    any solver) can be supplied to avoid recomputing the closed form.
    """
    if n_max > params.N:
        raise DomainError("falling moments vanish beyond n = N")
    if pmf is None:
        pmf = moran_closed(params)[0]
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = moran_mean(params, p1=float(pmf.probs[0]))
    j = np.arange(1, pmf.truncation_K + 1, dtype=float)
    for n in range(1, n_max):
        shifted = np.ones_like(j)
        for i in range(n):
            shifted *= j - 1.0 - i
        e_shift = float(np.dot(shifted, pmf.probs))
        out[n + 1] = (
            (n + 1) * (N - n) * s * out[n] - N * (n + 1) * u1 * e_shift
        ) / ((n + 1) * (1.0 + s) + N * u0)
    return out


# ----------------------------------------------------------------------
# Wright-Fisher (Kingman) model
# ----------------------------------------------------------------------


def _wf_primed(m0: float, params: ModelParams) -> tuple[float, float, float]:
    """Reduce to unit Kingman mass 2: (sigma', theta0', theta1')."""
    if m0 <= 0:
        raise PreconditionViolated("Kingman model needs m0 > 0")
    return 2 * params.sigma / m0, 2 * params.theta0 / m0, 2 * params.theta1 / m0


def _wf_weight_integrals(sp: float, t0p: float, t1p: float) -> tuple[float, float]:
    def f_pair(y):
        out = np.zeros((2, y.size))
        pos = y > 0
        with np.errstate(divide="ignore"):
            lw = t1p * np.log(y[pos]) - sp * y[pos]
            if t0p - 1.0 > 0.0:
                lw = lw + (t0p - 1.0) * np.log1p(-y[pos])
        base = np.exp(lw)
        out[0, pos] = base
        out[1, pos] = base * y[pos]
        return out

    beta_split = t0p - 1.0 if t0p < 1.0 else 0.0
    i0, i1 = _pair_quad_right_singular(f_pair, beta_split)
    return float(i0), float(i1)


def _wf_q(sp: float, t0p: float, t1p: float, n: int, i: int) -> tuple[float, float]:
    """Kingman expansion coefficient q_{n,i} and its gross term sum."""
    if n == 1:
        return (1.0, 1.0) if i == 1 else (0.0, 0.0)
    terms = []
    gross = []
    pref = 1.0  # sigma'^m / (theta1'+i+1)_m^up
    for m in range(n - i + 1):
        val, big = _f32_terminating(m + 1.0, 1.0 - t0p, m - n + i, t1p + m + i + 1.0, 1.0)
        terms.append(pref * val)
        gross.append(abs(pref) * big)
        pref *= sp / (t1p + i + 1 + m)
    return math.fsum(terms), math.fsum(gross)


def wf_closed(
    m0: float, params: ModelParams, n_max: int = 120
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Explicit stationary law of the Kingman block counting chain.

    theta0 = 0 is the confluent-hypergeometric product form (Poisson
    conditioned positive when theta = 0); theta0 > 0 goes through the
    exponential weight integrals and terminating 3F2 sums at unit
    argument.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("wf_closed needs sigma > 0")
    sp, t0p, t1p = _wf_primed(m0, params)
    tp = t0p + t1p

    if t0p == 0.0:
        t = [1.0]
        n = 1
        while t[-1] > 1e-18 * sum(t) or n < 8:
            t.append(t[-1] * sp / (tp + n + 1.0))
            n += 1
            if n >= n_max:
                break
        t = np.array(t)
        probs = t / math.fsum(t)
        denom = kummer_1f1(1.0, 2.0 + tp, sp).value

        def evaluate(z: float) -> float:
            if z == 0.0:
                return 0.0
            return z * kummer_1f1(1.0, 2.0 + tp, sp * z).value / denom

        pmf = StationaryPmf(probs, probs.size, 0.0, "wf-closed-theta0zero")
        pgf = PgfEvaluator(
            "wf", {"m0": m0, **_params_dict(params)}, evaluate, float(probs[0])
        )
        return pmf, pgf

    i0, i1 = _wf_weight_integrals(sp, t0p, t1p)
    if i0 <= i1:
        raise QuadratureFailure("Kingman weight integrals came out non-monotone")
    p1 = t0p * i1 / ((t1p + 1.0) * (i0 - i1))
    pref = t0p / (i0 - i1)
    probs = np.empty(n_max)
    probs[0] = p1
    fill_from = None
    for n in range(2, n_max + 1):
        q1, g1 = _wf_q(sp, t0p, t1p, n, 1)
        q2, g2 = _wf_q(sp, t0p, t1p, n, 2)
        t1 = i1 * q1 / (t1p + 1.0)
        t2 = i0 * q2 / (t1p + 2.0)
        gross = (i1 * g1 / (t1p + 1.0) + i0 * g2 / (t1p + 2.0)) * pref
        err = gross * _Q_EFF_EPS
        if err > _Q_ERR_CAP:
            fill_from = n
            break
        probs[n - 1] = pref * (t1 - t2)
    if fill_from is not None:
        from .measures import LambdaMeasure as _LM

        p_fill = _solve_prlm(_LM.kingman(m0), params, max(2 * n_max, 128))
        probs[fill_from - 1 :] = p_fill[fill_from - 1 : n_max]
    tail = 1.0 - float(probs.sum())
    pmf = StationaryPmf(
        _renorm_head(probs, "wf-closed"), n_max, abs(min(tail, 0.0)),
        "wf-closed", tail_mass=max(tail, 0.0),
        extras={"formula_valid_to": (fill_from - 1) if fill_from else n_max},
    )

    ratio = i1 / i0
    pref_const = t0p * i0 / (i0 - i1)

    def evaluate(z: float) -> float:
        if z <= 0.0:
            return 0.0
        if z >= 1.0:
            return 1.0
        if z <= 0.6:
            def f(y):
                out = np.zeros_like(y)
                pos = y > 0
                out[pos] = (
                    (ratio - y[pos])
                    * np.exp(t1p * np.log(y[pos]) - sp * y[pos])
                    * np.power(1.0 - y[pos], t0p - 1.0)
                )
                return out

            j = adaptive_quad(f, 0.0, z, tol=1e-13)
        else:
            def f(y):
                out = np.zeros_like(y)
                pos = y > 0
                out[pos] = (y[pos] - ratio) * np.exp(t1p * np.log(y[pos]) - sp * y[pos])
                return out

            j = quad_power_endpoints(f, z, 1.0, alpha=0.0, beta=t0p - 1.0, tol=1e-13)
        logpref = sp * z - t1p * math.log(z) - t0p * math.log1p(-z)
        return pref_const * j * math.exp(logpref)

    pgf = PgfEvaluator("wf", {"m0": m0, **_params_dict(params)}, evaluate, p1)
    return pmf, pgf


def _params_dict(params: ModelParams) -> dict:
    return {"sigma": params.sigma, "theta0": params.theta0, "theta1": params.theta1}


def wf_mean(m0: float, params: ModelParams, p1: float | None = None) -> float:
    """E[L] = (2(sigma+theta0-theta1) + (m0+2 theta1) p1) / (m0+2 theta0)."""
    if p1 is None:
        p1 = wf_closed(m0, params, n_max=40)[1].p1
    return (
        2.0 * (params.sigma + params.theta0 - params.theta1)
        + (m0 + 2.0 * params.theta1) * p1
    ) / (m0 + 2.0 * params.theta0)


def wf_factorial_moments(
    m0: float, params: ModelParams, n_max: int, pmf: StationaryPmf | None = None
) -> np.ndarray:
    """E[(L)_n^down] for n = 0..n_max via the Kingman moment recursion."""
    if pmf is None:
        pmf = wf_closed(m0, params)[0]
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = wf_mean(m0, params, p1=float(pmf.probs[0]))
    j = np.arange(1, pmf.truncation_K + 1, dtype=float)
    for n in range(1, n_max):
        shifted = np.ones_like(j)
        for i in range(n):
            shifted *= j - 1.0 - i
        e_shift = float(np.dot(shifted, pmf.probs))
        out[n + 1] = (
            2.0 * (n + 1) * params.sigma * out[n]
            - 2.0 * (n + 1) * params.theta1 * e_shift
        ) / ((n + 1) * m0 + 2.0 * params.theta0)
    return out


# ----------------------------------------------------------------------
# Star-shaped model
# ----------------------------------------------------------------------


def _star_roots(params: ModelParams) -> tuple[float, float, float]:
    sigma, theta, th1 = params.sigma, params.theta, params.theta1
    d = math.sqrt((sigma + theta) ** 2 - 4.0 * sigma * th1)
    x_minus = (sigma + theta - d) / (2.0 * sigma)
    x_plus = (sigma + theta + d) / (2.0 * sigma)
    if not (0.0 < x_minus < 1.0) or x_plus < 1.0 - 1e-14:
        raise RootOrderViolation(
            f"roots x-={x_minus}, x+={x_plus} outside the admissible order"
        )
    return d, x_minus, x_plus


def star_p1(m1: float, params: ModelParams) -> float:
    """p_1 of the star-shaped law for theta1 > 0, by quadrature."""
    sigma, th1 = params.sigma, params.theta1
    if th1 <= 0:
        raise PreconditionViolated("star_p1 is the theta1 > 0 branch")
    d, xm, xp = _star_roots(params)
    e = m1 / d

    def f(u):
        return np.exp(e * (np.log1p(-u / xm) - np.log1p(-u / xp)))

    return 1.0 - sigma / th1 * adaptive_quad(f, 0.0, xm, tol=1e-14)


def star_closed(
    m1: float, params: ModelParams, K: int = 512
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Explicit stationary law of the star-shaped block counting chain."""
    if params.sigma <= 0 or m1 <= 0:
        raise PreconditionViolated("star model needs sigma > 0 and m1 > 0")
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    theta = params.theta

    if th1 == 0.0:
        pmf = solve_star(params, m1, K=K)
        c = m1 / (sigma + th0)
        arg_scale = sigma / (sigma + th0)

        def evaluate(z: float) -> float:
            if z >= 1.0:
                return 1.0
            f = gauss_2f1(1.0, 1.0, 1.0 + c, arg_scale * z).value
            return 1.0 - (1.0 - z) * f

        pgf = PgfEvaluator(
            "star", {"m1": m1, **_params_dict(params)}, evaluate, float(pmf.probs[0])
        )
        return pmf, pgf

    d, xm, xp = _star_roots(params)
    e = m1 / d
    p1 = star_p1(m1, params)

    def f_of_z(z: float) -> float:
        """(z - g(z)/1)/... the rational part f with P(z) f = sigma * integral."""
        if abs(z - xm) < 0.3 * (xp - xm):
            w = (z - xm) / (xp - xm)
            val = gauss_2f1(2.0, 1.0, e + 2.0, w).value
            return d / ((m1 + d) * (xp - xm)) * val
        # grouped positive-base quadrature form
        def integrand(u):
            return np.exp(
                e
                * (
                    np.log(np.abs(xm - u) / abs(xm - z))
                    + np.log((xp - z) / (xp - u))
                )
            )

        integral = adaptive_quad(integrand, z, xm, tol=1e-13)
        pz = sigma * (z - xm) * (z - xp)
        return sigma * integral / pz

    def evaluate(z: float) -> float:
        if z <= 0.0:
            return 0.0
        if z >= 1.0:
            return 1.0
        return z * (1.0 - (1.0 - z) * f_of_z(z))

    pmf = solve_star(params, m1, K=K, p1=p1)
    pgf = PgfEvaluator("star", {"m1": m1, **_params_dict(params)}, evaluate, p1)
    return pmf, pgf


# ----------------------------------------------------------------------
# Uniform measure: the geometric parameter rho
# ----------------------------------------------------------------------


def bs_rho(params: ModelParams) -> float:
    """Geometric parameter for the uniform measure: unique interior root of
    r(x) = (sigma + log(1-x) - theta1 x)(x-1) + theta0 x.

    Safeguarded bisection-Newton; matches the Lambert-W special cases.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("bs_rho needs sigma > 0")
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1

    def r(x: float) -> float:
        return (sigma + math.log1p(-x) - th1 * x) * (x - 1.0) + th0 * x

    def rp(x: float) -> float:
        return (
            1.0
            + th1 * (1.0 - x)
            + sigma
            + math.log1p(-x)
            - th1 * x
            + th0
        )

    lo, hi = 1e-15, 1.0 - 1e-15
    flo = r(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = r(mid)
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
        dx = r(x) / rp(x)
        x_new = x - dx
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
        if abs(dx) < 1e-16 * (1.0 + abs(x)):
            break
    return x


def bs_rho_special(params: ModelParams) -> float | None:
    """Lambert-W closed form of rho when one mutation rate vanishes."""
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    if th0 == 0.0 and th1 == 0.0:
        return 1.0 - math.exp(-sigma)
    if th0 == 0.0 and th1 > 0.0:
        return 1.0 - lambert_w(th1 * math.exp(th1 - sigma)) / th1
    if th1 == 0.0 and th0 > 0.0:
        return 1.0 - th0 / lambert_w(th0 * math.exp(th0 + sigma))
    return None


def bs_geometric_pmf(params: ModelParams, K: int | None = None) -> tuple[float, StationaryPmf]:
    """Geometric stationary law Geom(1-rho) of the uniform-measure model."""
    rho = bs_rho(params)
    if K is None:
        K = min(2**14, max(16, int(math.log(1e-17) / math.log(rho)) + 1))
    n = np.arange(1, K + 1)
    probs = (1.0 - rho) * rho ** (n - 1.0)
    return rho, StationaryPmf(probs, K, 0.0, "bs-geometric", tail_mass=float(rho**K))


# ----------------------------------------------------------------------
# beta(3,1) model: first-order ODE for the pgf
# ----------------------------------------------------------------------


def beta31_pgf(
    params: ModelParams, K: int = 400
) -> tuple[PgfEvaluator, StationaryPmf]:
    """Stationary law of the beta(3,1) model (density 3x^2) via its pgf ODE.

    P(z) g' + Q(z) g = r0 + r1 z with P = sigma z^2 - (sigma+theta) z +
    theta1 and Q = 2 sigma z - sigma - theta - 3, where (r0, r1) are
    linear in the unknown head probabilities (p1, p2).  Two basis
    solutions analytic at the interior root of P are propagated from a
    series start; the boundary conditions g(0) = 0, g(1) = 1 give a 2x2
    system for (p1, p2); the pmf follows from the local derivative
    recursion of the ODE, solved as a stable banded system.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    theta = params.theta
    if sigma <= 0:
        raise PreconditionViolated("beta31 model needs sigma > 0")
    if not (th0 > 0 or sigma < 3.0 + th1):
        raise PreconditionViolated("beta31 recurrence condition fails")
    if th1 == 0.0 and th0 == 0.0:
        raise DomainError("beta31 pgf solver needs theta0 > 0 or theta1 > 0")

    def P(z):
        return sigma * z * z - (sigma + theta) * z + th1

    def Q(z):
        return 2.0 * sigma * z - sigma - theta - 3.0

    if th1 > 0.0:
        disc = (sigma + theta) ** 2 - 4.0 * sigma * th1
        z0 = (sigma + theta - math.sqrt(disc)) / (2.0 * sigma)
    else:
        z0 = 0.0
    P1 = 2.0 * sigma * z0 - (sigma + theta)
    Q0 = Q(z0)

    loads = [(th1, -(3.0 + 2.0 * (sigma + theta))), (0.0, 2.0 * th1)]

    def series_solution(r0: float, r1: float, u: float, n_terms: int = 18) -> float:
        e = np.zeros(n_terms)
        e[0] = (r0 + r1 * z0) / Q0
        for j in range(1, n_terms):
            rhs = r1 if j == 1 else 0.0
            e[j] = (rhs - sigma * (j + 1) * e[j - 1]) / (j * P1 + Q0)
        return float(np.polyval(e[::-1], u))

    def march(z_start: float, z_end: float, y_start: np.ndarray) -> np.ndarray:
        def rhs(z, y):
            return np.array(
                [(loads[i][0] + loads[i][1] * z - Q(z) * y[i]) / P(z) for i in range(2)]
            )

        sol = scipy.integrate.solve_ivp(
            rhs, (z_start, z_end), y_start, method="DOP853",
            rtol=1e-12, atol=1e-14, dense_output=False,
        )
        if not sol.success:
            raise QuadratureFailure(f"beta31 ODE march failed: {sol.message}")
        return sol.y[:, -1]

    span = max(abs(min(z0, 1.0 - z0)), 1e-3)
    delta = min(1e-2, 0.05 * span)
    y_right = np.array([series_solution(*loads[i], +delta) for i in range(2)])
    g_at_1 = march(z0 + delta, 1.0, y_right)
    if z0 > 0.0:
        y_left = np.array([series_solution(*loads[i], -delta) for i in range(2)])
        g_at_0 = march(z0 - delta, 0.0, y_left)
        mat = np.array([g_at_0, g_at_1])
        rhs_vec = np.array([0.0, 1.0])
        cond = np.linalg.cond(mat)
        if cond > 1e10:
            raise IllConditioned(f"beta31 boundary system condition {cond:.2e}")
        p1, p2 = np.linalg.solve(mat, rhs_vec)
    else:
        # theta1 = 0: the p2 load vanishes and g(0) = 0 holds by construction
        p1 = 1.0 / g_at_1[0]
        p2 = math.nan  # recovered from the pmf below

    # pmf from the derivative recursion of the ODE at 0:
    # th1 (n+1) p_{n+1} + (n P'(0) + Q(0)) p_n + sigma (n+1) p_{n-1} = 0, n >= 2
    Pp0 = -(sigma + theta)
    Q00 = Q(0.0)
    if th1 > 0.0:
        n_unknown = K - 1  # p_2 .. p_K with p_{K+1} = 0
        ab = np.zeros((3, n_unknown))
        rhs_vec = np.zeros(n_unknown)
        for r in range(n_unknown):
            n = r + 2
            ab[1, r] = n * Pp0 + Q00  # p_n
            if r - 1 >= 0:
                ab[2, r - 1] = sigma * (n + 1)  # p_{n-1}
            else:
                rhs_vec[r] = -sigma * (n + 1) * p1
            if r + 1 < n_unknown:
                ab[0, r + 1] = th1 * (n + 1)  # p_{n+1}
        tail_probs = scipy.linalg.solve_banded((1, 1), ab, rhs_vec)
        probs = np.concatenate([[p1], tail_probs])
        if math.isnan(p2):
            p2 = float(probs[1])
        consistency = abs(float(probs[1]) - p2)
    else:
        # theta1 = 0: the derivative recursion is first order, p_{n-1} -> p_n
        probs = np.empty(K)
        probs[0] = p1
        for n in range(2, K + 1):
            probs[n - 1] = -sigma * (n + 1) * probs[n - 2] / (n * Pp0 + Q00)
        p2 = float(probs[1])
        consistency = 0.0
    probs = _clip_negative(np.asarray(probs, dtype=float), "beta31")
    pmf = StationaryPmf(
        probs, probs.size, consistency, "beta31-ode",
        extras={"p2_consistency": consistency},
    )

    n_idx = np.arange(1, probs.size + 1)

    def evaluate(z: float) -> float:
        if z <= 0.0:
            return 0.0
        if z >= 1.0:
            return 1.0
        return float(np.dot(probs, np.power(z, n_idx)))

    pgf = PgfEvaluator(
        "beta31", _params_dict(params), evaluate, float(p1), p2=float(p2)
    )
    return pgf, pmf


# ----------------------------------------------------------------------
# Master-equation / Carleman residual verification
# ----------------------------------------------------------------------


def cauchy_principal_value(
    f: Callable[[np.ndarray], np.ndarray], x: float, lo: float = 0.0, hi: float = 1.0
) -> float:
    """PV integral of f(t)/(t-x) over (lo, hi) by symmetric excision.

    Excision radii 1e-2, 1e-3, 1e-4 with two-point Richardson on the
    smaller pair (the excision error is linear in the radius at leading
    order).
    """
    if not lo < x < hi:
        raise DomainError("principal-value point must be interior")

    def excised(eps: float) -> float:
        def g(t):
            return f(t) / (t - x)

        left = adaptive_quad(g, lo, x - eps, tol=1e-12)
        right = adaptive_quad(g, x + eps, hi, tol=1e-12)
        return left + right

    radii = [1e-2, 1e-3, 1e-4]
    max_eps = 0.5 * min(x - lo, hi - x)
    radii = [min(e, 0.5 * max_eps) for e in radii]
    vals = [excised(e) for e in radii]
    e1, e2 = radii[1], radii[2]
    return (e1 * vals[2] - e2 * vals[1]) / (e1 - e2)


def verify_master_equation(
    pgf: PgfEvaluator,
    measure: LambdaMeasure | None,
    params: ModelParams | MoranParams,
    z_grid: np.ndarray,
) -> float:
    """Max residual of the model's defining pgf identity on a z grid.

    Dispatches on pgf.model_tag: the Moran ODE, the Kingman ODE, the
    star-shaped integro-differential equation, the zero-measure algebraic
    identity, the beta(3,1) ODE, or the Carleman singular equation of the
    uniform measure (with the principal value by symmetric excision).
    """
    tag = pgf.model_tag
    worst = 0.0
    for z in np.asarray(z_grid, dtype=float):
        g = pgf.evaluate(z)
        if tag == "moran":
            prm: MoranParams = params  # type: ignore[assignment]
            N, s, u0, u1 = prm.N, prm.s, prm.u0, prm.u1
            gp = pgf.d(z)
            res = (
                z * (1.0 - z) * (1.0 + s * z) * gp
                + N * (s * z * z - (s + prm.u) * z + u1) * g
                - (1.0 + N * u1) * pgf.p1 * z * (1.0 - z)
                + N * u0 * z * z
            )
        elif tag == "wf":
            p: ModelParams = params  # type: ignore[assignment]
            m0 = measure.m0 if measure is not None else pgf.params["m0"]
            gp = pgf.d(z)
            res = (
                0.5 * m0 * z * (1.0 - z) * gp
                + (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * g
                - (0.5 * m0 + p.theta1) * pgf.p1 * z * (1.0 - z)
                + p.theta0 * z * z
            )
        elif tag == "star":
            p = params  # type: ignore[assignment]
            m1 = measure.m1 if measure is not None else pgf.params["m1"]

            def h(u):
                out = np.empty_like(u)
                for i, ui in enumerate(u):
                    if ui < 1e-12:
                        out[i] = 1.0 - pgf.p1
                    else:
                        out[i] = (ui - pgf.evaluate(ui)) / (ui * (1.0 - ui))
                return out

            integral = adaptive_quad(h, 0.0, z, tol=1e-11)
            res = (
                m1 * z * (1.0 - z) * integral
                + (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * g
                - p.theta1 * pgf.p1 * z * (1.0 - z)
                + p.theta0 * z * z
            )
        elif tag == "crow-kimura":
            p = params  # type: ignore[assignment]
            res = (
                (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * g
                - p.theta1 * pgf.p1 * z * (1.0 - z)
                + p.theta0 * z * z
            )
        elif tag == "beta31":
            p = params  # type: ignore[assignment]
            gp = pgf.d(z)
            r0 = p.theta1 * pgf.p1
            r1 = -(3.0 + 2.0 * (p.sigma + p.theta)) * pgf.p1 + 2.0 * p.theta1 * pgf.p2
            res = (
                (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * gp
                + (2.0 * p.sigma * z - p.sigma - p.theta - 3.0) * g
                - r0
                - r1 * z
            )
        elif tag == "bs":
            p = params  # type: ignore[assignment]
            x = z
            def rho_vec(t):
                t = np.atleast_1d(t)
                return np.array(
                    [pgf.evaluate(ti) / ti if ti > 0 else pgf.p1 for ti in t]
                )

            alpha = (
                p.sigma
                + math.log1p(-x)
                - math.log(x)
                - p.theta1 / x
                + p.theta0 / (1.0 - x)
            )
            fval = p.theta0 / (1.0 - x) - p.theta1 * pgf.p1 / x
            pv = cauchy_principal_value(rho_vec, x)
            res = alpha * pgf.evaluate(x) / x - pv - fval
        else:
            raise DomainError(f"no master equation registered for {tag!r}")
        worst = max(worst, abs(res))
    return worst
