"""Closed-form stationary laws, generating functions, and moment formulas.

Implements the explicit Moran and Wright-Fisher (Kingman) solutions, the
star-shaped and beta(3,1) laws from one integral of the integrating factor
of their shared quadratic P(z), the geometric laws of the uniform
(Bolthausen-Sznitman) and zero (Crow-Kimura) measures, each returned as
(StationaryPmf, PgfEvaluator), and the residual of the pgf identity: a
once-integrated form for Moran and Lambda = m0 delta_0 + m1 delta_1, and
the paper's integro-differential equation, read from the measure and
the pgf's power series, for every Lambda with an interior part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.special import lambertw, xlogy

from .errors import (
    DomainError,
    IllConditioned,
    NegativeMass,
    NotPositiveRecurrent,
    PreconditionViolated,
    QuadratureFailure,
    RootOrderViolation,
)
from .measures import LambdaMeasure, ModelParams, MoranParams, Zero
from .recursions import (
    PMF_CLOSURE,
    StationaryPmf,
    clip_negative,
    double_until_closed,
    exact_tails,
    solve_lambda_truncated,
    solve_moran,
    solve_star,
    solve_three_term,
)
from .specfun import adaptive_quad, bracketed_root, quad_power_endpoints


@dataclass
class PgfEvaluator:
    """Probability generating function of a stationary block-count law.

    evaluate(z) is defined on [0, 1]; it reads 0 at z <= 0 and 1 at z >= 1
    whatever the closure given, which only sees 0 < z < 1.  z may be a
    float or an array: a float gives a float, an array an array of its
    shape.  The closure is called once per evaluation with a 1-d array of
    the interior points; a scalar it returns is broadcast over them.  d(z)
    is a Richardson-extrapolated central difference, taken from one
    evaluate call over all four stencil points of every z; value_and_slope
    adds z itself to that call.
    p1 is the head probability that the first-order identity takes as
    data.  probs, where known, are the coefficients p_1, p_2, ... of the
    pgf as a power series (of_probs builds such a pgf); the identity of a
    measure with an interior part reads its divided differences off them.
    The pgf does not name its model: the measure and parameters given to
    verify_master_equation do.
    """

    evaluate: Callable[[np.ndarray], np.ndarray | float]
    p1: float
    probs: np.ndarray | None = None

    def __post_init__(self):
        inner = self.evaluate

        def evaluate(z):
            z = np.asarray(z, dtype=float)
            out = np.where(z >= 1.0, 1.0, 0.0)
            mid = ~((z <= 0.0) | (z >= 1.0))  # a NaN z goes to the closure
            if mid.any():
                out[mid] = inner(z[mid])
            return _like_input(out)

        self.evaluate = evaluate

    @classmethod
    def of_probs(cls, probs: np.ndarray) -> "PgfEvaluator":
        """The power series sum_n p_n z^n of a pmf p_1, p_2, ...."""
        probs = np.asarray(probs, dtype=float)
        n = np.arange(1, probs.size + 1)
        return cls(lambda z: np.power.outer(z, n) @ probs, float(probs[0]), probs)

    def __call__(self, z):
        return self.evaluate(z)

    def d(self, z):
        return _like_input(self.value_and_slope(z)[1])

    def value_and_slope(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(f(z), d(z)) as arrays, from one evaluate call over every z and
        the four points of its stencil."""
        z = np.asarray(z, dtype=float)
        h = 1e-5 * (1.0 + np.abs(z))
        f = self.evaluate(z + np.multiply.outer([0.0, 1.0, -1.0, 0.5, -0.5], h))
        d1 = (f[1] - f[2]) / (2 * h)
        d2 = (f[3] - f[4]) / h
        return f[0], (4.0 * d2 - d1) / 3.0


def _like_input(out: np.ndarray) -> np.ndarray | float:
    """A 0-d result as a float, any other as the array it is."""
    return float(out) if out.ndim == 0 else out


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
# The q_{n,i} are computed, not summed: both solve the model's cut balance
#   C_{n+1} q_{n+1} = (S_n + c + C_n) q_n - S_{n-1} q_{n-1},  C_n = n + alpha,
# from q_{i-1,i} = 0 and q_{i,i} = 1, with the per-block up-rate
# S_n = (N-n) s (Moran) or sigma' (Kingman).  Both are dominant solutions,
# so forward stepping is stable.


@dataclass(frozen=True)
class _TwoWeightForm:
    """The data a model passes to the shared two-weight closed form."""

    alpha: float
    beta: float
    c: float
    log_k: Callable[[np.ndarray], np.ndarray]
    log_K: Callable[[np.ndarray], np.ndarray]
    branch: Callable[[float], float]  # S_n, the per-block up-rate at n blocks
    tail_solve: Callable[[], tuple[np.ndarray, dict]]  # pmf past formula_valid_to, extras


def _log_weight(form: _TwoWeightForm) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """log w_0(y) = alpha log y + log k(y) + (beta-1) log(1-y) on [0, 1], as a
    function of y and ybar = 1 - y.

    The caller passes ybar, so that a y next to 1 keeps the digits of its
    distance to 1.  The factor (1-y)^(beta-1) is folded in for beta > 1
    only; a singular one (beta < 1) is left to the caller.  Both ends give
    -inf, not a warning, where w_0 vanishes.
    """
    fold = max(form.beta - 1.0, 0.0)
    return lambda y, ybar: xlogy(form.alpha, y) + form.log_k(y) + xlogy(fold, ybar)


def _weight_integrals(
    log_w: Callable[[np.ndarray, np.ndarray], np.ndarray], scale: float, beta_split: float
) -> tuple[float, float]:
    """Integrals of (1-y)^beta_split w(y) (1, y) over (0, 1), w = exp(log_w - scale).

    scale is the peak of log_w, so the absolute quadrature tolerance acts
    as a relative one; only scale-free ratios of the integrals are used.
    Refining both components on identical panels makes their quadrature
    errors strongly correlated, which is what the ill-conditioned ratio
    I_1/I_0 needs.  A singular beta_split < 0 goes to quad_power_endpoints.
    """

    def pair(y):
        base = np.exp(log_w(y, 1.0 - y) - scale)
        return np.stack([base, base * y])

    if beta_split == 0.0:
        i0, i1 = adaptive_quad(pair, 0.0, 1.0, tol=_W_TOL)
    else:
        i0, i1 = quad_power_endpoints(pair, 0.0, 1.0, alpha=0.0, beta=beta_split, tol=_W_TOL)
    return float(i0), float(i1)


# The alternating combination I1 q_{n,1}/(alpha+1) - I0 q_{n,2}/(alpha+2) is
# exponentially ill-conditioned in n: the true pmf is the recessive part of
# the expansion, so its tail demands relative accuracy ~ p_n / q_n of every
# factor.  _Q_EFF_EPS is the relative error that the double inputs bring
# to each term; the weight integrals add their absolute quadrature tolerance
# _W_TOL, which is _W_TOL / min(I0, I1) relative (w peaks at 1, so I0 and
# I1 can be far below 1); stepping the recurrence in _QDTYPE adds up to
# about 2n roundings.  The error estimate of p_n is the term scale times
# their sum, and the formula hands over to the model's stable tail solve at
# the first n where that estimate exceeds _Q_ERR_CAP or |p_n|.  Where long
# double is a plain double, the n-scaled part of the estimate is 2048 times
# larger.
_Q_EFF_EPS = 1e-15
_W_TOL = 1e-15
_W_GRID = np.linspace(1e-9, 1.0 - 1e-9, 4001)  # scanned for the peaks of log w
_Q_ERR_CAP = 1e-10
_QDTYPE = np.longdouble


def _q_pairs(form: _TwoWeightForm) -> Iterator[tuple[np.floating, np.floating]]:
    """(q_{n,1}, q_{n,2}) for n = 2, 3, ..., one recurrence step per item."""
    qdt = _QDTYPE
    S, c, alpha = form.branch, form.c, form.alpha

    def step(prev, cur, k):
        """q_{k+1,i} from q_{k-1,i} and q_{k,i}."""
        k = qdt(k)  # first, so that every sum below is taken in qdt
        return ((k + alpha + c + S(k)) * cur - S(k - 1) * prev) / (k + 1 + alpha)

    q1_prev, q1 = qdt(1), step(qdt(0), qdt(1), 1)
    q2_prev, q2 = qdt(0), qdt(1)
    for n in itertools.count(2):
        yield q1, q2
        q1_prev, q1 = q1, step(q1_prev, q1, n)
        q2_prev, q2 = q2, step(q2_prev, q2, n)


def _two_weight_closed(
    form: _TwoWeightForm, n_max: int, tag: str
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Head p_1..p_{n_max} and pgf of a two-weight closed form.

    At the hand-over the formula's head p_1..p_{n-1} must agree with the
    stable solve's to _Q_ERR_CAP, or IllConditioned is raised: the error
    estimate bounds the q recurrence, not the weight integrals' own error.
    """
    log_w = _log_weight(form)
    on_grid = log_w(_W_GRID, 1.0 - _W_GRID)
    scale = float(np.max(on_grid))
    beta_split = min(form.beta - 1.0, 0.0)
    i0, i1 = _weight_integrals(log_w, scale, beta_split)
    if i0 <= i1:
        raise QuadratureFailure(f"{tag}: weight integrals came out non-monotone")
    a1, a2 = form.alpha + 1.0, form.alpha + 2.0
    p1 = form.c * i1 / (a1 * (i0 - i1))
    pref = form.c / (i0 - i1)

    eps = float(np.finfo(_QDTYPE).eps)
    rel = _Q_EFF_EPS + _W_TOL / min(i0, i1)
    probs = np.empty(n_max)
    probs[0] = p1
    extras = {"formula_valid_to": n_max}
    # the n = 2 estimate is taken even for n_max = 1: it is what tells
    # whether p_1 itself holds its digits
    for n, (q1, q2) in zip(range(2, max(n_max, 2) + 1), _q_pairs(form)):
        p = pref * (i1 * q1 / a1 - i0 * q2 / a2)
        err = pref * (i1 * abs(q1) / a1 + i0 * abs(q2) / a2) * (rel + 2 * n * eps)
        if err > _Q_ERR_CAP or err > abs(p):
            fill, fill_extras = form.tail_solve()
            gap = float(np.max(np.abs(probs[: n - 1] - fill[: n - 1])))
            if not gap <= _Q_ERR_CAP:
                raise IllConditioned(f"{tag}: head {gap:.3g} off the stable solve at n = {n}")
            probs[n - 1 :] = fill[n - 1 : n_max]
            extras = {"formula_valid_to": n - 1, **fill_extras}
            break
        if n <= n_max:
            probs[n - 1] = p
    worst = float(probs.min(initial=0.0))
    if worst < -1e-9:
        raise NegativeMass(f"{tag}: closed-form probability {worst}")
    tail = 1.0 - float(probs.sum())
    pmf = StationaryPmf(
        np.where(probs < 0.0, 0.0, probs), n_max, max(-tail, extras.get("closure_bound", 0.0)),
        tag, tail_mass=max(tail, 0.0), extras=extras,
    )

    ratio = i1 / i0
    pgf_pref = form.c * i0 / (i0 - i1)
    # the largest log w on the grid below each grid point, and from it up
    below = np.maximum.accumulate(np.append(-math.inf, on_grid))
    above = np.maximum.accumulate(np.append(on_grid, -math.inf)[::-1])[::-1]

    def evaluate(z: np.ndarray) -> np.ndarray:
        # (ratio - y) w_0(y) is positive below y = ratio, negative above, and
        # integrates to 0 over (0, 1); so each z integrates on its own side,
        # int_0^z below and int_z^1 (y - ratio) w_0 above, and nothing
        # cancels.  w is taken relative to its largest value on that side,
        # so the integrand peaks near 1 and the prefactor stays in range.
        # Each side is one vector-valued quadrature over all its z, mapped
        # onto (0, 1) by a factor <= 1, so its tolerance is no looser per z.
        low = z <= ratio
        at = np.searchsorted(_W_GRID, z)  # _W_GRID[at - 1] < z <= _W_GRID[at]
        ref = np.maximum(log_w(z, 1.0 - z), np.where(low, below[at], above[at]))
        j = np.empty_like(z)
        if low.any():
            # int_0^z f(y) dy = z int_0^1 f(z t) dt
            zl, rl = z[low][:, None], ref[low][:, None]

            def f(t):
                y = zl * t
                return (ratio - y) * np.exp(log_w(y, 1.0 - y) - rl) * np.power(1.0 - y, beta_split)

            j[low] = z[low] * adaptive_quad(f, 0.0, 1.0, tol=1e-13)
        if not low.all():
            # y = z + (1-z) t, so 1-y = (1-z)(1-t), and
            # (1-y)^beta_split = (1-z)^beta_split (1-t)^beta_split
            zh, rh = z[~low][:, None], ref[~low][:, None]

            def g(t):
                y = zh + (1.0 - zh) * t
                return (y - ratio) * np.exp(log_w(y, (1.0 - zh) * (1.0 - t)) - rh)

            tail = quad_power_endpoints(g, 0.0, 1.0, alpha=0.0, beta=beta_split, tol=1e-13)
            j[~low] = (1.0 - z[~low]) ** (1.0 + beta_split) * tail
        log_pref = form.log_K(z) - form.alpha * np.log(z) - form.beta * np.log1p(-z) + ref
        value = pgf_pref * j * np.exp(log_pref)
        bad = ~((-1e-9 <= value) & (value <= 1.0 + 1e-9))
        if bad.any():
            k = int(np.argmax(bad))
            raise IllConditioned(
                f"{tag}: pgf value {value[k]:.6g} at z = {z[k]} lies outside [0, 1]"
            )
        return value

    return pmf, PgfEvaluator(evaluate, p1)


def _product_form(
    next_term: Callable[[float, int], float],
    n_terms: float,
    drop: float,
    n_max: int,
    tag: str,
) -> tuple[StationaryPmf, PgfEvaluator]:
    """Law p_n = t_n / sum_k t_k with t_1 = 1, and its pgf sum_n p_n z^n.

    next_term(t, n) gives t_n from t_{n-1}.  Terms are generated up to
    n_terms, or, from the eighth on, until one falls below drop times
    the running sum (drop = 0 keeps every term of a terminating series).
    The pgf sums every term; the pmf keeps the first n_max and reports
    the rest as tail_mass.  The residual is the first term left out,
    relative to the sum: 0 when all n_terms are kept.
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
    dropped = next_term(t[-1], len(t) + 1) / norm if len(t) < n_terms else 0.0
    pmf = StationaryPmf(
        probs[:n_max], min(n_max, probs.size), dropped, tag,
        tail_mass=float(probs[n_max:].sum()),
    )
    return pmf, PgfEvaluator.of_probs(probs)


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
    weight integrals I_i and the q_{n,i} recurrence.  n_max truncates the pmf
    (useful for large N, where only the head carries mass).
    """
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    if n_max is not None and n_max < 1:
        raise DomainError(f"moran_closed needs n_max >= 1, got {n_max}")
    n_max = N if n_max is None else min(n_max, N)

    if u0 == 0.0:
        u = params.u
        return _product_form(
            lambda t, n: t * (N - n + 1) * s / (N * u + n), N, 0.0, n_max, "moran-closed-u0zero",
        )

    rho0 = u0 / (1.0 + s)
    A = (1.0 + u1 + rho0) * N

    form = _TwoWeightForm(
        alpha=N * u1, beta=N * rho0, c=N * u0,
        log_k=lambda y: -(A + 1.0) * np.log1p(s * y),
        log_K=lambda z: A * np.log1p(s * z),
        branch=lambda n: (N - n) * s,
        tail_solve=lambda: (solve_moran(params).probs, {}),
    )
    return _two_weight_closed(form, n_max, "moran-closed")


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
    if not 0 <= n_max <= params.N:
        raise DomainError(f"moran falling moments need 0 <= n_max <= N, got {n_max}")
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
    exponential weight integrals and the q_{n,i} recurrence.
    """
    if params.sigma <= 0 or n_max < 1:
        raise PreconditionViolated(f"wf_closed needs sigma > 0 and n_max >= 1, got n_max = {n_max}")
    sp, t0p, t1p = _wf_primed(m0, params)

    if t0p == 0.0:
        tp = t0p + t1p
        return _product_form(
            # t_n / t_{n-1} = sigma' / (theta' + n)
            lambda t, n: t * sp / (tp + (n - 1) + 1.0), math.inf, 1e-18, n_max,
            "wf-closed-theta0zero",
        )

    def tail_solve():
        pmf = solve_lambda_truncated(LambdaMeasure.kingman(m0), params, K=max(2 * n_max, 128))
        return pmf.probs, {"closure_bound": pmf.extras["closure_bound"]}

    form = _TwoWeightForm(
        alpha=t1p, beta=t0p, c=t0p,
        log_k=lambda y: -sp * y,
        log_K=lambda z: sp * z,
        branch=lambda n: sp,
        tail_solve=tail_solve,
    )
    return _two_weight_closed(form, n_max, "wf-closed")


def wf_mean(m0: float, params: ModelParams, p1: float | None = None) -> float:
    """E[L] = (2(sigma+theta0-theta1) + (m0+2 theta1) p1) / (m0+2 theta0)."""
    if not m0 > 0:
        raise PreconditionViolated("Kingman model needs m0 > 0")
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
    if n_max < 0:
        raise DomainError(f"wf falling moments need n_max >= 0, got {n_max}")
    if pmf is None:
        pmf = wf_closed(m0, params)[0]
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    return _factorial_moments(
        pmf, n_max, wf_mean(m0, params, p1=float(pmf.probs[0])),
        lambda n, fm, shifted: (2.0 * (n + 1) * sigma * fm - 2.0 * (n + 1) * th1 * shifted)
        / ((n + 1) * m0 + 2.0 * th0),
    )


# ----------------------------------------------------------------------
# Star-shaped and beta(3,1) models: first-order pgf equations with one
# quadratic P(z) = sigma z^2 - (sigma+theta) z + theta1, solved through
# their integrating factor
# ----------------------------------------------------------------------


def _p_disc(params: ModelParams) -> float:
    """d = sqrt of the discriminant of P(z) = sigma z^2 - (sigma+theta) z + theta1,
    written as (sigma-theta)^2 + 4 sigma theta0, which does not cancel, and
    taken by hypot, which does not overflow."""
    sigma = params.sigma
    return math.hypot(sigma - params.theta, 2.0 * math.sqrt(sigma) * math.sqrt(params.theta0))


def _p_roots(params: ModelParams) -> tuple[float, float, float]:
    """(d, x-, x+) with P(z) = sigma (z - x-)(z - x+) and d = sigma (x+ - x-).

    P(0) = theta1 >= 0 >= P(1) = -theta0, so 0 <= x- <= 1 <= x+ (x+ is
    held to 1 against rounding).  x- = theta1 / (sigma x+) keeps its
    relative accuracy as theta1 -> 0 (x- = 0 at theta1 = 0).
    """
    sigma, theta = params.sigma, params.theta
    d = _p_disc(params)
    x_plus = max((sigma + theta + d) / (2.0 * sigma), 1.0)
    return d, params.theta1 / (sigma * x_plus), x_plus


def _star_f(m1: float, params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    """f with g(z) = z (1 - (1-z) f(z)), the star pgf, for every theta1 >= 0.

    The pgf equation is first order with integrating factor
    ((z - x-)/(x+ - z))^e, e = m1/d; on u = z + (x- - z) t the factor
    x- - z cancels against P(z), so
      f(z) = (x+ - z)^-1 int_0^1 ((1-t)(x+ - z)/(x+ - u))^e dt,
    an integrand in [0, 1], smooth across z = x-.  The z grid is one
    vector-valued quadrature.
    """
    d, xm, xp = _p_roots(params)
    if not xm < 1.0:
        raise RootOrderViolation(f"roots x-={xm}, x+={xp}: the star law needs x- < 1")
    e = m1 / d

    def f(z: np.ndarray) -> np.ndarray:
        zc = z[:, None]

        def integrand(t):
            return np.power((1.0 - t) * (xp - zc) / (xp - zc - (xm - zc) * t), e)

        return adaptive_quad(integrand, 0.0, 1.0, tol=1e-14) / (xp - z)

    return f


def star_p1(m1: float, params: ModelParams) -> float:
    """p_1 = g'(0) = 1 - f(0) of the star-shaped law for theta1 > 0."""
    if params.theta1 <= 0:
        raise PreconditionViolated("star_p1 is the theta1 > 0 branch")
    return 1.0 - float(_star_f(m1, params)(np.zeros(1))[0])


def star_closed(m1: float, params: ModelParams) -> tuple[StationaryPmf, PgfEvaluator]:
    """Explicit stationary law of the star-shaped block counting chain.

    The pgf is z (1 - (1-z) f(z)) with f the integral of _star_f, for
    every theta1 >= 0; the pmf is solve_star's.  p1 is star_p1 for
    theta1 > 0 and the exact-tails p_1 at theta1 = 0, where f(0) would cost
    a quadrature that the pmf makes unnecessary.
    """
    pmf = solve_star(params, m1)  # refuses sigma <= 0 and an m1 outside (0, inf)
    f = _star_f(m1, params)
    p1 = float(pmf.probs[0]) if params.theta1 == 0.0 else star_p1(m1, params)
    return pmf, PgfEvaluator(lambda z: z * (1.0 - (1.0 - z) * f(z)), p1)


def beta31_pgf(params: ModelParams) -> tuple[StationaryPmf, PgfEvaluator]:
    """Stationary law of the beta(3,1) model (density 3x^2) from its pgf equation.

    P(z) g' + Q(z) g = R(z) with P = sigma (z - x-)(z - x+) (_p_roots),
    Q = P' - 3 and R = p1 (theta1 - a z) + 2 theta1 p2 z,
    a = 3 + 2 (sigma+theta), is (mu P g)' = mu R with the integrating factor
    mu = |(z - x-)/(x+ - z)|^c, c = 3/d, which vanishes at x-.  The head
    (p1, p2) solves the linear conditions
      theta0 > 0:  int_{x-}^1 mu R / mu(1) = P(1) = -theta0,
      theta0 = 0:  R(1) = Q(1), the equation at the root z = 1 of P,
      theta1 > 0:  int_0^{x-} mu R = 0, which is g(0) = 0;
    at theta1 = 0 there is one condition and p2 stays NaN.  Each weight is
    scaled to peak at 1.  The pmf follows from the local derivative
    recursion of the equation, solved as a stable banded system with
    p_{K+1} = 0, K from double_until_closed; the mass that cut leaves out
    is tail_mass = 1 - sum p_n.  The residual is the largest of the p2
    consistency, the closure bound and the residual of the banded rows.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    theta = params.theta
    if sigma <= 0:
        raise PreconditionViolated("beta31 model needs sigma > 0")
    if not (th0 > 0 or sigma < 3.0 + th1):
        raise PreconditionViolated("beta31 recurrence condition fails")
    if th1 == 0.0 and th0 == 0.0:
        raise DomainError("beta31 pgf solver needs theta0 > 0 or theta1 > 0")
    d, xm, xp = _p_roots(params)
    if d == 0.0:
        raise DomainError("beta31 pgf solver needs simple roots of P: theta1 = sigma at theta0 = 0")
    c, delta = 3.0 / d, d / sigma
    a = 3.0 + 2.0 * (sigma + theta)

    def row(t0, sign, hi, q, h):
        """Coefficients of (p1, p2) in int w R dt / h from t0 to the root of P
        at distance hi, on v = |t - t0| = sign (t0 - t).

        w is the integrating factor scaled to 1 at t0: w = (1-x)^c with
        x = (delta/hi) v / (x+ - t) and 1 - x = ((hi - v)/hi) q / (x+ - t),
        q = x+ - t0; each form is taken where it does not cancel.  w falls
        like exp(-v/h) from v = 0, so v = h expm1(u) gives it a unit scale
        in u whatever h: a layer at v = 0 far thinner than hi is not
        stepped over, and dv / h = e^u du is free of h.
        """
        u_hi = math.log1p(hi / h)

        def moments(u):
            v = h * np.expm1(u)
            dist = q + sign * v  # x+ - t
            x = delta / hi * (v / dist)
            with np.errstate(divide="ignore"):  # hi - v underflows to 0 next to hi
                log_w = np.log((h + v) * np.expm1(u_hi - u) / hi * (q / dist))
            small = x < 0.5
            log_w[small] = np.log1p(-x[small])
            w = np.exp(c * log_w + u)
            return np.stack([w, w * (t0 - sign * v)])

        i0, i1 = adaptive_quad(moments, 0.0, u_hi, tol=1e-15)
        return [th1 * i0 - a * i1, 2.0 * th1 * i1]

    if th0 > 0.0:
        # from t = 1 down to x-: 1 - x- and x+ - 1 are the roots of
        # P(1 - s) = sigma s^2 - (sigma - theta) s - theta0, taken without
        # cancellation; near t = 1 the weight is exp(-3 (1-t) / theta0)
        big = (abs(sigma - theta) + d) / (2.0 * sigma)
        small = th0 / (sigma * big)
        am, bp = (big, small) if sigma >= theta else (small, big)
        rows, rhs = [row(1.0, 1.0, am, bp, th0 / 3.0)], [-3.0]  # -theta0 / h
    else:
        rows, rhs = [[th1 - a, 2.0 * th1]], [sigma - theta - 3.0]
    if th1 > 0.0:
        # from t = 0 up to x-; near t = 0 the weight is exp(-3 t / theta1)
        rows.append(row(0.0, -1.0, xm, xp, th1 / 3.0))
        rhs.append(0.0)
        mat = np.array(rows)
        cond = np.linalg.cond(mat / np.max(np.abs(mat), axis=1, keepdims=True))
        if cond > 1e10:
            raise IllConditioned(f"beta31 boundary system condition {cond:.2e}")
        p1, p2 = np.linalg.solve(mat, rhs)
    else:
        p1 = rhs[0] / rows[0][0]
        p2 = math.nan  # no second condition, so nothing to check p2 against

    # pmf from the derivative recursion of the equation at 0:
    # th1 (n+1) p_{n+1} + (n P'(0) + Q(0)) p_n + sigma (n+1) p_{n-1} = 0, n >= 2,
    # with P'(0) = -(sigma+theta); theta1 = 0 makes it lower bidiagonal
    def solve(K):
        n = np.arange(2, K + 1)  # rows for p_2..p_K with p_{K+1} = 0
        diag = -n * (sigma + theta) - (sigma + theta + 3.0)
        tail, residual = solve_three_term(sigma * (n + 1), diag, th1 * (n + 1), p1)
        probs = clip_negative(np.concatenate([[p1], tail]), "beta31")
        return (probs, residual), PMF_CLOSURE * float(probs[-1])

    (probs, residual), K, bound = double_until_closed(solve)
    consistency = 0.0 if math.isnan(p2) else abs(float(probs[1]) - p2)
    return StationaryPmf(
        probs, K, max(consistency, bound, residual), "beta31-ode",
        tail_mass=max(1.0 - float(probs.sum()), 0.0),
        extras={"p2_consistency": consistency, "closure_bound": bound},
    ), PgfEvaluator.of_probs(probs)


# ----------------------------------------------------------------------
# Geometric laws: the uniform and the zero measure
# ----------------------------------------------------------------------


def _geometric(rho: float, tag: str) -> tuple[StationaryPmf, PgfEvaluator]:
    """Geom(1-rho) law P(L = n) = (1-rho) rho^(n-1), cut by exact_tails, and its pgf.

    A rho that rounds to 1 leaves no mass to represent and is refused.
    """
    if not rho < 1.0:
        raise DomainError(f"{tag}: rho = {rho!r} rounds to 1, leaving Geom(1-rho) no mass")
    n = np.arange(exact_tails(lambda n: np.full_like(n, rho)).size - 1.0)
    pmf = StationaryPmf(
        (1.0 - rho) * rho**n, n.size, 0.0, tag, tail_mass=float(rho**n.size), extras={"rho": rho}
    )
    return pmf, PgfEvaluator(lambda z: (1.0 - rho) * z / (1.0 - rho * z), 1.0 - rho, pmf.probs)


def crow_kimura_geometric(params: ModelParams) -> tuple[StationaryPmf, PgfEvaluator]:
    """Geometric stationary law Geom(1-rho) of the zero-measure model.

    rho is the root in [0, 1) of theta1 x^2 - (sigma+theta) x + sigma, the
    reversed P, so rho = 1/x+ = 2 sigma / (sigma + theta + d) (_p_disc):
    a sum of positive terms, for theta1 = 0 and sigma = 0 too
    (pmf.extras["rho"]); requires theta0 > 0 or theta1 > sigma.
    """
    sigma, theta = params.sigma, params.theta
    if not (params.theta0 > 0 or params.theta1 > sigma):
        raise NotPositiveRecurrent(
            "zero measure needs theta0 > 0 or theta1 > sigma for recurrence"
        )
    rho = 2.0 * sigma / (sigma + theta + _p_disc(params))
    return _geometric(rho, "crow-kimura-geometric")


def bs_rho(params: ModelParams) -> float:
    """Geometric parameter for the uniform measure: unique interior root of
    r(x) = (sigma + log(1-x) - theta1 x)(x-1) + theta0 x.

    Matches the Lambert-W special cases.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("bs_rho needs sigma > 0")
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1

    def r(x: float) -> float:
        return (sigma + math.log1p(-x) - th1 * x) * (x - 1.0) + th0 * x

    def rp(x: float) -> float:
        return 1.0 + th1 * (1.0 - x) + sigma + math.log1p(-x) - th1 * x + th0

    return bracketed_root(r, rp, 1e-15, 1.0 - 1e-15)


def bs_rho_special(params: ModelParams) -> float | None:
    """Lambert-W closed form of rho when one mutation rate vanishes.

    1 - W(...) keeps only the absolute accuracy of rho, so two Newton steps
    on sigma + log(1-x) - theta1 x - theta0 x/(1-x) = 0 restore the relative one.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    if th0 == 0.0 and th1 == 0.0:
        return -math.expm1(-sigma)
    if th0 == 0.0 and th1 > 0.0:
        rho = 1.0 - float(lambertw(th1 * math.exp(th1 - sigma)).real) / th1
    elif th1 == 0.0 and th0 > 0.0:
        rho = 1.0 - th0 / float(lambertw(th0 * math.exp(th0 + sigma)).real)
    else:
        return None
    for _ in range(2):
        if rho < 1.0:
            q = 1.0 / (1.0 - rho)
            rho += (sigma + math.log1p(-rho) - th1 * rho - th0 * rho * q) / (q + th1 + th0 * q * q)
    return rho


def bs_geometric_pmf(params: ModelParams) -> tuple[StationaryPmf, PgfEvaluator]:
    """Geometric stationary law Geom(1-rho) of the uniform-measure model, rho = bs_rho."""
    return _geometric(bs_rho(params), "bs-geometric")


# ----------------------------------------------------------------------
# Master-equation residual verification
# ----------------------------------------------------------------------


def _first_order_coefficients(measure, prm):
    """(sigma, theta0, theta1, a0, a1, m1, c) of _first_order_residual.

    Lambda = m0 delta_0 + m1 delta_1 has a0 = m0/2, a1 = 0, c = 1.  The
    Moran identity is the Kingman one with m0/2 replaced by (1+sz)/N,
    scaled by N.
    """
    if isinstance(prm, MoranParams):
        return prm.s, prm.u0, prm.u1, 1.0 / prm.N, prm.s / prm.N, 0.0, prm.N
    return prm.sigma, prm.theta0, prm.theta1, 0.5 * measure.m0, 0.0, measure.m1, 1.0


def _first_order_residual(pgf, measure, prm, z):
    """The once-integrated pgf identity for Lambda = m0 delta_0 + m1 delta_1:

      c [(a0 + a1 z) z(1-z) f' + m1 z(1-z) int_0^z (u - f(u))/(u(1-u)) du
         + (sigma z^2 - (sigma+theta) z + theta1) f - (a0 + theta1) p1 z(1-z)
         + theta0 z^2].

    Kingman, star-shaped and the zero measure are its m1 = 0, m0 = 0 and
    m0 = m1 = 0 cases; see _first_order_coefficients for Moran.  z is the
    whole grid: f and f' come from one evaluate call, and for m1 > 0 the
    integral is one vector-valued z int_0^1 h(z t) dt whose integrand is
    one evaluate call per panel.
    """
    sigma, th0, th1, a0, a1, m1, c = _first_order_coefficients(measure, prm)
    out = np.zeros_like(z)
    if a0 != 0.0 or a1 != 0.0:
        f, df = pgf.value_and_slope(z)
        out += (a0 + a1 * z) * z * (1.0 - z) * df
    else:
        f = pgf.evaluate(z)
    if m1 != 0.0:
        zc = z[:, None]

        def h(t):
            u = zc * t
            vals = np.full_like(u, 1.0 - pgf.p1)
            far = u >= 1e-12
            vals[far] = (u[far] - pgf.evaluate(u[far])) / (u[far] * (1.0 - u[far]))
            return vals

        out += m1 * z * (1.0 - z) * z * adaptive_quad(h, 0.0, 1.0, tol=1e-11)
    return c * (
        out
        + (sigma * z * z - (sigma + (th0 + th1)) * z + th1) * f
        - (a0 + th1) * pgf.p1 * z * (1.0 - z)
        + th0 * z * z
    )


def _divided_differences(coef, a, b, c):
    """(f(a), f[a, b], f[a, b, c]) of f = sum_n coef[n] x^n by one Horner sweep.

    f[a, b, c] = sum_n coef[n] h_{n-2}(a, b, c), h the complete homogeneous
    symmetric polynomial, has no negative term for coef, a, b, c >= 0, so
    it does not cancel.  At (z, z, z) the three are f(z), f'(z), f''(z)/2.
    """
    g = d = e = 0.0
    for p_n in coef[::-1]:
        e, d, g = e * c + d, d * b + g, g * a + p_n
    return g, d, e


def _lambda_residual(pgf, measure, p: ModelParams, z: np.ndarray) -> np.ndarray:
    """The paper's pgf identity for Lambda = m0 delta_0 + m1 delta_1 + Lambda_0,
    at every z of the grid at once:

      sigma z(z-1) f' + theta1 (1-z)(f' - f/z) + theta0 [(z-f)/(1-z) - z f' + f]
        + (m0/2) z(1-z) f'' + m1 (z - f)
        + int Lambda_0(dr) r^-2 [z f((1-r)z + r) + (1-z) f((1-r)z) - f(z)].

    f is the power series of pgf.probs.  With a = (1-r)z and c = z + r(1-z),
    c - a = r and z = z c + (1-z) a, so the bracket is r^2 z(1-z) f[a, z, c],
    a second divided difference that does not cancel at any r; f, f' and
    f''/2 are those at (z, z, z).  The r-integral is one vector-valued
    measure.interior.integrate call over the whole grid.
    """
    coef = np.trim_zeros(np.concatenate(([0.0], pgf.probs)), "b")
    f, df, half_d2f = _divided_differences(coef, z, z, z)
    zc = z[:, None]

    def bracket(r):
        """bracket / r^2, shape (z.size, r.size)."""
        a, c = (1.0 - r) * zc, zc + r * (1.0 - zc)
        return zc * (1.0 - zc) * _divided_differences(coef, a, zc, c)[2]

    return (
        p.sigma * z * (z - 1.0) * df
        + p.theta1 * (1.0 - z) * (df - f / z)
        + p.theta0 * ((z - f) / (1.0 - z) - z * df + f)
        + measure.m0 * z * (1.0 - z) * half_d2f
        + measure.m1 * (z - f)
        + measure.interior.integrate(bracket, tol=1e-11)
    )


def verify_master_equation(
    pgf: PgfEvaluator,
    measure: LambdaMeasure | None,
    params: ModelParams | MoranParams,
    z_grid: np.ndarray,
) -> float:
    """Max residual of the pgf identity of the model (measure, params) on a z grid in (0, 1).

    The model picks the identity by its structure.  MoranParams without a
    measure, and ModelParams with Lambda = m0 delta_0 + m1 delta_1
    (Kingman, star-shaped, zero and mixed), share one once-integrated
    identity (_first_order_residual); Moran is the Kingman case with m0/2
    replaced by (1+sz)/N, scaled by N.  A measure with an interior part
    goes to the paper's identity (_lambda_residual), which reads the pgf's
    coefficients; a pgf without them raises DomainError, as do a z
    outside (0, 1), MoranParams with a measure and ModelParams without one.
    """
    z = np.ravel(np.asarray(z_grid, dtype=float))
    if not (isinstance(params, MoranParams) and measure is None
            or isinstance(params, ModelParams) and measure is not None):
        raise DomainError("a pgf identity takes MoranParams alone or ModelParams and a measure")
    first_order = measure is None or isinstance(measure.interior, Zero)
    if not first_order and pgf.probs is None:
        raise DomainError(
            "the pgf identity of a measure with an interior part needs the pgf's "
            "coefficients (PgfEvaluator.of_probs)"
        )
    if not np.all((z > 0.0) & (z < 1.0)):
        raise DomainError("the pgf identity divides by z and by 1 - z: z must lie in (0, 1)")
    if not z.size:
        return 0.0
    residual = _first_order_residual if first_order else _lambda_residual
    # np.max, unlike the builtin max, passes a NaN residual on
    return float(np.max(np.abs(residual(pgf, measure, params, z))))
