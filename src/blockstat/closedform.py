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
    _solve_three_term,
    solve_star,
)
from .specfun import (
    adaptive_quad,
    gauss_2f1,
    kummer_1f1,
    lambert_w,
    quad_power_endpoints,
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
# Moran and Kingman models: one two-weight closed form
# ----------------------------------------------------------------------
#
# Both laws come from the weights w_i(y) = y^(alpha+i) (1-y)^(beta-1) k(y)
# on (0, 1) and their integrals I_i:
#   p_1 = c I_1 / ((alpha+1)(I_0-I_1)),
#   p_n = c / (I_0-I_1) * (I_1 q_{n,1}/(alpha+1) - I_0 q_{n,2}/(alpha+2)),
#   G(z) = c / (I_0-I_1) * K(z) z^(-alpha) (1-z)^(-beta)
#          * int_0^z (I_1 - I_0 y) w_0(y) dy,
#   q_{n,i} = sum_{m=0}^{n-i} r_m 3F2(m+1, 1-beta, m-n+i; alpha+m+i+1, 1; x),
#   r_0 = 1, r_{m+1} = r_m rho(i, m) / (alpha+i+1+m).
# Moran: alpha = N u1, beta = N rho0, c = N u0, k(y) = (1+sy)^(-A-1),
# K(z) = (1+sz)^A, x = 1+s, rho = (N-i+1-m) s, with rho0 = u0/(1+s) and
# A = (1+u1+rho0) N.  Kingman, Moran's diffusion limit: alpha = theta1',
# beta = c = theta0', k(y) = exp(-sigma' y), K(z) = exp(sigma' z), x = 1,
# rho = sigma'.


@dataclass(frozen=True)
class _TwoWeightForm:
    """The data a model passes to the shared two-weight closed form."""

    alpha: float
    beta: float
    c: float
    log_k: Callable[[np.ndarray], np.ndarray]
    log_K: Callable[[float], float]
    arg: float
    q_step: Callable[[int, int], float]  # rho(i, m)
    tail_solve: Callable[[], np.ndarray]  # stable pmf past formula_valid_to


def _scaled_weight(form: _TwoWeightForm) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """(w, scale) with w(y) = w_0(y) exp(-scale).

    scale is the peak of the log-integrand, so an absolute quadrature
    tolerance on w acts as a relative one; only scale-free ratios of its
    integrals are used.  A factor (1-y)^(beta-1) with beta > 1 is folded
    into w; a singular one (beta < 1) is left to the caller.
    """
    beta_exp = form.beta - 1.0
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    full = form.alpha * np.log(grid) + form.log_k(grid) + max(beta_exp, 0.0) * np.log1p(-grid)
    scale = float(np.max(full))

    def w(y):
        # only y = 0 is masked; at y = 1 a folded exponent gives
        # exp(-inf) = 0, which is the correct limit
        out = np.zeros_like(y)
        pos = y > 0
        with np.errstate(divide="ignore"):
            lw = form.alpha * np.log(y[pos]) + form.log_k(y[pos]) - scale
            if beta_exp > 0.0:
                lw = lw + beta_exp * np.log1p(-y[pos])
        out[pos] = np.exp(lw)
        return out

    return w, scale


def _weight_integrals(
    w: Callable[[np.ndarray], np.ndarray], beta_split: float
) -> tuple[float, float]:
    """Integrals of (1-y)^beta_split w(y) (1, y) over (0, 1), beta_split in (-1, 0].

    Refining both components on identical panels makes their quadrature
    errors strongly correlated, which is what the ill-conditioned ratio
    I_1/I_0 needs.  The singularity at y = 1 is removed on (1/2, 1) by
    the substitution u = (1-y)^(1+beta_split).
    """
    tol = 1e-15

    def pair(y):
        base = w(y)
        return np.stack([base, base * y])

    if beta_split == 0.0:
        i0, i1 = adaptive_quad(pair, 0.0, 1.0, tol=tol)
    else:
        q = 1.0 + beta_split

        def right(u):
            return pair(1.0 - np.power(u, 1.0 / q)) / q

        i0, i1 = adaptive_quad(
            lambda y: pair(y) * np.power(1.0 - y, beta_split), 0.0, 0.5, tol=0.5 * tol
        ) + adaptive_quad(right, 0.0, 0.5**q, tol=0.5 * tol)
    return float(i0), float(i1)


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


def _q(form: _TwoWeightForm, n: int, i: int) -> tuple[float, float]:
    """Coefficient q_{n,i} of the pmf expansion and its gross term sum."""
    terms = []
    gross = []
    r = 1.0
    for m in range(n - i + 1):
        val, big = _f32_terminating(
            m + 1.0, 1.0 - form.beta, m - n + i, form.alpha + m + i + 1.0, form.arg
        )
        terms.append(r * val)
        gross.append(abs(r) * big)
        r *= form.q_step(i, m) / (form.alpha + i + 1 + m)
    return math.fsum(terms), math.fsum(gross)


# The alternating combination I1 q_{n,1}/(alpha+1) - I0 q_{n,2}/(alpha+2) is
# exponentially ill-conditioned in n: the true pmf is the recessive part of
# the expansion, so its tail demands relative accuracy ~ p_n / q_n of every
# factor, including the weight integrals.  The formula is therefore used
# with a running error estimate (effective relative error ~3e-16 of the
# term scale) and handed over to the model's stable tail solve beyond its
# trustworthy range.
_Q_EFF_EPS = 1e-15
_Q_ERR_CAP = 1e-10


def _two_weight_closed(
    form: _TwoWeightForm, n_max: int, tag: str, pgf_tag: str, pgf_params: dict
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Head p_1..p_{n_max} and pgf of a two-weight closed form."""
    w, scale = _scaled_weight(form)
    beta_split = min(form.beta - 1.0, 0.0)
    i0, i1 = _weight_integrals(w, beta_split)
    if i0 <= i1:
        raise QuadratureFailure(f"{tag}: weight integrals came out non-monotone")
    a1, a2 = form.alpha + 1.0, form.alpha + 2.0
    p1 = form.c * i1 / (a1 * (i0 - i1))
    pref = form.c / (i0 - i1)

    probs = np.empty(n_max)
    probs[0] = p1
    valid_to = n_max
    for n in range(2, n_max + 1):
        q1, g1 = _q(form, n, 1)
        q2, g2 = _q(form, n, 2)
        if (i1 * g1 / a1 + i0 * g2 / a2) * pref * _Q_EFF_EPS > _Q_ERR_CAP:
            valid_to = n - 1
            probs[n - 1 :] = form.tail_solve()[n - 1 : n_max]
            break
        probs[n - 1] = pref * (i1 * q1 / a1 - i0 * q2 / a2)
    worst = float(probs.min(initial=0.0))
    if worst < -1e-9:
        raise NegativeMass(f"{tag}: closed-form probability {worst}")
    tail = 1.0 - float(probs.sum())
    pmf = StationaryPmf(
        np.where(probs < 0.0, 0.0, probs), n_max, abs(min(tail, 0.0)), tag,
        tail_mass=max(tail, 0.0), extras={"formula_valid_to": valid_to},
    )

    ratio = i1 / i0
    pgf_pref = form.c * i0 / (i0 - i1)

    def evaluate(z: float) -> float:
        if z <= 0.0:
            return 0.0
        if z >= 1.0:
            return 1.0
        if z <= 0.6:
            def f(y):
                base = (ratio - y) * w(y)
                if beta_split < 0.0:
                    base = base * np.power(1.0 - y, beta_split)
                return base

            j = adaptive_quad(f, 0.0, z, tol=1e-13)
        else:
            # int_0^1 (ratio - y) w = 0, so the tail integral is used
            def f(y):
                return (y - ratio) * w(y)

            j = quad_power_endpoints(f, z, 1.0, alpha=0.0, beta=beta_split, tol=1e-13)
        log_pref = form.log_K(z) - form.alpha * math.log(z) - form.beta * math.log1p(-z) + scale
        return pgf_pref * j * math.exp(log_pref)

    return pmf, PgfEvaluator(pgf_tag, pgf_params, evaluate, p1)


def _product_form(
    next_term: Callable[[float, int], float],
    n_terms: float,
    drop: float,
    series: Callable[[float], float],
    n_max: int,
    tag: str,
    pgf_tag: str,
    pgf_params: dict,
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Law p_n = t_n / sum_k t_k with t_1 = 1 and pgf z series(z) / series(1).

    next_term(t, n) gives t_n from t_{n-1}.  Terms are generated up to
    n_terms, or, from the eighth on, until one falls below drop times
    the running sum (drop = 0 keeps every term of a terminating series).
    The first n_max are kept and the rest is reported as tail_mass; the
    residual is the distance of the summed terms from series(1).
    """
    t = [1.0]
    total = 1.0
    while len(t) < n_terms and total < math.inf and (len(t) < 8 or drop * total <= t[-1]):
        t.append(next_term(t[-1], len(t) + 1))
        total += t[-1]
    if not total < math.inf:
        raise DomainError(f"{tag}: the product-form series overflows")
    norm = math.fsum(t)
    probs = np.array(t) / norm
    denom = series(1.0)

    def evaluate(z: float) -> float:
        if z == 0.0:
            return 0.0
        return z * series(z) / denom

    pmf = StationaryPmf(
        probs[:n_max], min(n_max, probs.size), abs(norm - denom) / denom, tag,
        tail_mass=float(probs[n_max:].sum()),
    )
    return pmf, PgfEvaluator(pgf_tag, pgf_params, evaluate, float(probs[0]))


def _factorial_moments(
    pmf: StationaryPmf,
    n_max: int,
    mean: float,
    next_moment: Callable[[int, float, float], float],
) -> np.ndarray:
    """E[(L)_n^down] for n = 0..n_max from a three-term moment recursion.

    next_moment(n, E[(L)_n^down], E[(L-1)_n^down]) gives E[(L)_{n+1}^down];
    the shifted moment is read off the pmf.
    """
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = mean
    j = np.arange(1, pmf.truncation_K + 1, dtype=float)
    shifted = np.ones_like(j)  # (j-1)_n^down
    for n in range(1, n_max):
        shifted *= j - n
        out[n + 1] = next_moment(n, out[n], float(np.dot(shifted, pmf.probs)))
    return out


def moran_closed(params: MoranParams, n_max: int | None = None) -> tuple[StationaryPmf, PgfEvaluator]:
    """Explicit stationary law of the Moran block counting chain.

    u0 = 0 uses the terminating-2F1 product form; u0 > 0 goes through the
    weight integrals I_i and the q_{n,i} sums.  n_max truncates the pmf
    (useful for large N, where only the head carries mass).
    """
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    n_max = N if n_max is None else min(n_max, N)
    pgf_head = ("moran", {"N": N, "s": s, "u0": u0, "u1": u1})

    if u0 == 0.0:
        u = params.u
        return _product_form(
            lambda t, n: t * (N - n + 1) * s / (N * u + n), N, 0.0,
            lambda z: gauss_2f1(1.0, 1.0 - N, N * u + 2.0, -s * z).value,
            n_max, "moran-closed-u0zero", *pgf_head,
        )

    rho0 = u0 / (1.0 + s)
    A = (1.0 + u1 + rho0) * N

    def tail_solve():
        a = _solve_moran_banded(params)
        return np.append(a[:-1] - a[1:], a[-1])

    form = _TwoWeightForm(
        alpha=N * u1, beta=N * rho0, c=N * u0,
        log_k=lambda y: -(A + 1.0) * np.log1p(s * y),
        log_K=lambda z: A * math.log1p(s * z),
        arg=1.0 + s,
        q_step=lambda i, m: (-N + i - 1 + m) * (-s),
        tail_solve=tail_solve,
    )
    return _two_weight_closed(form, n_max, "moran-closed", *pgf_head)


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
    return _factorial_moments(
        pmf, n_max, moran_mean(params, p1=float(pmf.probs[0])),
        lambda n, fm, shifted: ((n + 1) * (N - n) * s * fm - N * (n + 1) * u1 * shifted)
        / ((n + 1) * (1.0 + s) + N * u0),
    )


def _wf_primed(m0: float, params: ModelParams) -> tuple[float, float, float]:
    """Reduce to unit Kingman mass 2: (sigma', theta0', theta1')."""
    if m0 <= 0:
        raise PreconditionViolated("Kingman model needs m0 > 0")
    return 2 * params.sigma / m0, 2 * params.theta0 / m0, 2 * params.theta1 / m0


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
    pgf_head = ("wf", {"m0": m0, **_params_dict(params)})

    if t0p == 0.0:
        tp = t0p + t1p
        return _product_form(
            # t_n / t_{n-1} = sigma' / (theta' + n)
            lambda t, n: t * sp / (tp + (n - 1) + 1.0), math.inf, 1e-18,
            lambda z: kummer_1f1(1.0, 2.0 + tp, sp * z).value,
            n_max, "wf-closed-theta0zero", *pgf_head,
        )

    form = _TwoWeightForm(
        alpha=t1p, beta=t0p, c=t0p,
        log_k=lambda y: -sp * y,
        log_K=lambda z: sp * z,
        arg=1.0,
        q_step=lambda i, m: sp,
        tail_solve=lambda: _solve_prlm(
            LambdaMeasure.kingman(m0), params, max(2 * n_max, 128)
        )[0],
    )
    return _two_weight_closed(form, n_max, "wf-closed", *pgf_head)


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
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    return _factorial_moments(
        pmf, n_max, wf_mean(m0, params, p1=float(pmf.probs[0])),
        lambda n, fm, shifted: (2.0 * (n + 1) * sigma * fm - 2.0 * (n + 1) * th1 * shifted)
        / ((n + 1) * m0 + 2.0 * th0),
    )


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
        n = np.arange(2, K + 1)  # rows for p_2..p_K with p_{K+1} = 0
        tail_probs = _solve_three_term(sigma * (n + 1), n * Pp0 + Q00, th1 * (n + 1), p1)
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


def _moran_residual(pgf, measure, prm: MoranParams, z):
    N, s, u0, u1 = prm.N, prm.s, prm.u0, prm.u1
    return (
        z * (1.0 - z) * (1.0 + s * z) * pgf.d(z)
        + N * (s * z * z - (s + prm.u) * z + u1) * pgf.evaluate(z)
        - (1.0 + N * u1) * pgf.p1 * z * (1.0 - z)
        + N * u0 * z * z
    )


def _wf_residual(pgf, measure, p: ModelParams, z):
    m0 = measure.m0 if measure is not None else pgf.params["m0"]
    return (
        0.5 * m0 * z * (1.0 - z) * pgf.d(z)
        + (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * pgf.evaluate(z)
        - (0.5 * m0 + p.theta1) * pgf.p1 * z * (1.0 - z)
        + p.theta0 * z * z
    )


def _star_residual(pgf, measure, p: ModelParams, z):
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
    return (
        m1 * z * (1.0 - z) * integral
        + (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * pgf.evaluate(z)
        - p.theta1 * pgf.p1 * z * (1.0 - z)
        + p.theta0 * z * z
    )


def _crow_kimura_residual(pgf, measure, p: ModelParams, z):
    return (
        (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * pgf.evaluate(z)
        - p.theta1 * pgf.p1 * z * (1.0 - z)
        + p.theta0 * z * z
    )


def _beta31_residual(pgf, measure, p: ModelParams, z):
    r0 = p.theta1 * pgf.p1
    r1 = -(3.0 + 2.0 * (p.sigma + p.theta)) * pgf.p1 + 2.0 * p.theta1 * pgf.p2
    return (
        (p.sigma * z * z - (p.sigma + p.theta) * z + p.theta1) * pgf.d(z)
        + (2.0 * p.sigma * z - p.sigma - p.theta - 3.0) * pgf.evaluate(z)
        - r0
        - r1 * z
    )


def _carleman_residual(pgf, measure, p: ModelParams, x):
    def rho_vec(t):
        t = np.atleast_1d(t)
        return np.array([pgf.evaluate(ti) / ti if ti > 0 else pgf.p1 for ti in t])

    alpha = p.sigma + math.log1p(-x) - math.log(x) - p.theta1 / x + p.theta0 / (1.0 - x)
    fval = p.theta0 / (1.0 - x) - p.theta1 * pgf.p1 / x
    pv = cauchy_principal_value(rho_vec, x)
    return alpha * pgf.evaluate(x) / x - pv - fval


# model_tag -> residual(pgf, measure, params, z) of the model's pgf identity
_RESIDUALS = {
    "moran": _moran_residual,
    "wf": _wf_residual,
    "star": _star_residual,
    "crow-kimura": _crow_kimura_residual,
    "beta31": _beta31_residual,
    "bs": _carleman_residual,
}


def verify_master_equation(
    pgf: PgfEvaluator,
    measure: LambdaMeasure | None,
    params: ModelParams | MoranParams,
    z_grid: np.ndarray,
) -> float:
    """Max residual of the model's defining pgf identity on a z grid.

    Looks up pgf.model_tag: the Moran ODE, the Kingman ODE, the
    star-shaped integro-differential equation, the zero-measure algebraic
    identity, the beta(3,1) ODE, or the Carleman singular equation of the
    uniform measure (with the principal value by symmetric excision).
    """
    residual = _RESIDUALS.get(pgf.model_tag)
    if residual is None:
        raise DomainError(f"no master equation registered for {pgf.model_tag!r}")
    res = [residual(pgf, measure, params, z) for z in np.asarray(z_grid, dtype=float)]
    # np.max, unlike the builtin max, passes a NaN residual on
    return float(np.max(np.abs(res), initial=0.0))
