"""Moment-duality computations.

Stationary moments w_n = P_n(absorption at 0) of the killed ancestral
selection graph solve a lower-Hessenberg linear system; for the uniform
measure their generating function solves a first-order ODE whose regular
solution is constructed from a series start at the interior singular
point.  Also: the classical absorption/fixation formulas and the
ancestral-type function h(x) = 1 - g(1-x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
from scipy.special import betaln

from .closedform import PgfEvaluator
from .errors import DomainError, PreconditionViolated, QuadratureFailure
from .measures import BetaDensity, LambdaMeasure, ModelParams, UniformScaled, Zero, lambda_rate
from .recursions import StationaryPmf, _double_until_stable


@dataclass
class MomentSequence:
    """Moments w_n = E[(1-X_inf)^n], n = 0..truncation_K, with w_0 = 1."""

    w: np.ndarray
    truncation_K: int
    residual: float
    monotonicity_defect: float = 0.0
    extras: dict = field(default_factory=dict)

    def __getitem__(self, n: int) -> float:
        return float(self.w[n])

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("n,w_n\n")
            for n, wn in enumerate(self.w):
                fh.write(f"{n},{float(wn)!r}\n")


def _merger_coefficient(measure: LambdaMeasure, n: int, ell: int) -> float:
    """binom(n, n-ell+1) * lambda_{n, n-ell+1} with closed special cases."""
    interior = measure.interior
    if measure.m1 == 0.0 and isinstance(interior, Zero):
        # pure Kingman (or zero) measure
        return measure.m0 * math.comb(n, 2) if ell == n - 1 else 0.0
    if measure.m0 == 0.0 and measure.m1 == 0.0 and isinstance(interior, UniformScaled):
        return interior.c * n / ((n - ell) * (n - ell + 1.0))
    return math.comb(n, n - ell + 1) * lambda_rate(measure, n, n - ell + 1)


def _merger_row(measure: LambdaMeasure, n: int) -> np.ndarray:
    """_merger_coefficient(measure, n, ell) for ell = 1..n-1.

    A Beta(a, b) interior gives binom(n, j) M B(a+j-2, b+n-j) / B(a, b)
    with j = n-ell+1, evaluated for the whole row in log space; the
    endpoint atoms add binom(n, 2) m0 at j = 2 and m1 at j = n.
    """
    interior = measure.interior
    if not isinstance(interior, BetaDensity) or n < 2:
        return np.array([_merger_coefficient(measure, n, ell) for ell in range(1, n)])
    a, b = interior.a, interior.b
    j = n + 1.0 - np.arange(1, n)
    log_binom = -math.log(n + 1.0) - betaln(j + 1.0, n - j + 1.0)
    row = interior.total_mass * np.exp(
        log_binom + betaln(a + j - 2.0, b + n - j) - betaln(a, b)
    )
    row[-1] += measure.m0 * n * (n - 1) / 2.0
    row[0] += measure.m1
    return row


def _solve_w_system(measure: LambdaMeasure, params: ModelParams, K: int) -> np.ndarray:
    sigma, th1 = params.sigma, params.theta1
    theta = params.theta
    A = np.zeros((K, K))
    rhs = np.zeros(K)
    for n in range(1, K + 1):
        r = n - 1
        coefs = _merger_row(measure, n)
        gam = coefs.sum() / n if n > 1 else 0.0
        A[r, r] = theta + sigma + gam
        if n >= 2:
            A[r, n - 2] -= th1
        else:
            rhs[r] += th1  # w_0 = 1
        if n < K:
            A[r, n] -= sigma
        if n > 1:
            A[r, : n - 1] -= coefs / n
    return np.linalg.solve(A, rhs)


def complete_monotonicity_defect(w: np.ndarray, depth: int = 12) -> float:
    """Largest negative excursion of the iterated differences of (w_k).

    For a genuine moment sequence every forward difference
    Delta^n w_k = Delta^(n-1) w_k - Delta^(n-1) w_{k+1} is nonnegative.
    """
    cur = np.asarray(w, dtype=float)
    worst = 0.0
    for _n in range(1, depth + 1):
        cur = cur[:-1] - cur[1:]
        if cur.size == 0:
            break
        m = cur[: max(1, depth - _n + 1)].min()
        worst = min(worst, float(m))
    return -worst


def solve_w_moments(
    measure: LambdaMeasure,
    params: ModelParams,
    K: int = 64,
    tol: float = 1e-10,
    K_cap: int = 2**12,
) -> MomentSequence:
    """Stationary moments w_n from the truncated duality system.

    Closure w_{K+1} = 0; K doubles until the head (n <= K/4) moves less
    than tol.  The closure sensitivity is reported as the residual and a
    complete-monotonicity spot check as a diagnostic defect.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise PreconditionViolated("duality moments need theta0 > 0 and theta1 > 0")
    (w,), K, delta = _double_until_stable(
        lambda k: (_solve_w_system(measure, params, k),), K, tol, K_cap,
        head=lambda k: k // 4,
    )
    full = np.concatenate([[1.0], w])
    defect = complete_monotonicity_defect(full[: min(14, full.size)])
    return MomentSequence(full, K, delta, defect, extras={"closure_delta": delta})


# ----------------------------------------------------------------------
# Uniform-measure generating function w(s) = sum_{n>=1} w_n s^n
# ----------------------------------------------------------------------


@dataclass
class WGeneratingFunction:
    """Regular solution of the moment generating-function ODE.

    Exposes values on (0, s2), the Taylor head (w_0..w_n), the Stieltjes
    transform wrapper, and the circle-closure diagnostic of the contour
    used for coefficient extraction.
    """

    params: ModelParams
    s2: float
    taylor: np.ndarray
    circle_radius: float
    circle_closure: float
    _left_sol: object
    _delta: float
    _series: Callable[[float], float]

    def value(self, s: float) -> float:
        if not 0.0 <= s < self.s2:
            raise DomainError(f"w(s) is evaluated on [0, s2 = {self.s2:.6f})")
        if s == 0.0:
            return 0.0
        if s >= self.s2 - self._delta:
            return float(self._series(s))
        return float(self._left_sol.sol(s)[0])

    def values(self, s_grid) -> np.ndarray:
        return np.array([self.value(float(s)) for s in np.asarray(s_grid)])

    def stieltjes(self, t: float) -> float:
        """E[1/(t - (1-X_inf))] = (1 + w(1/t))/t for t > 1/s2."""
        if t <= 1.0 / self.s2:
            raise DomainError("stieltjes transform needs t > 1/s2")
        return (1.0 + self.value(1.0 / t)) / t


def _bs_h(params: ModelParams, s):
    theta = params.theta
    return (
        theta * s
        - params.theta1 * s * s
        - params.sigma * (1.0 - s)
        - (1.0 - s) * np.log1p(-s)
    )


def _bs_n(params: ModelParams, s):
    return params.theta1 * s * s - params.sigma - np.log1p(-s)


def bs_s2(params: ModelParams) -> float:
    """Interior root of theta s - theta1 s^2 - sigma(1-s) - (1-s)log(1-s)."""
    lo, hi = 1e-14, 1.0 - 1e-14
    if _bs_h(params, lo) >= 0:
        raise DomainError("expected h(0+) < 0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _bs_h(params, mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bs_frobenius(params: ModelParams, s2: float, order: int = 10) -> np.ndarray:
    """Series coefficients of the regular solution at the singular point s2.

    (s h(s)) w' = n(s) w + theta1 s^2 admits exactly one solution analytic
    at s2 (the singular mode diverges there); its Taylor coefficients
    follow from the closed derivatives of h and n.
    """
    theta, th1, sigma = params.theta, params.theta1, params.sigma
    hd = [
        _bs_h(params, s2),
        theta - 2.0 * th1 * s2 + sigma + math.log1p(-s2) + 1.0,
        -2.0 * th1 - 1.0 / (1.0 - s2),
    ]
    for j in range(3, order + 1):
        hd.append(-math.factorial(j - 2) / (1.0 - s2) ** (j - 1))
    hc = [hd[j] / math.factorial(j) for j in range(order + 1)]
    sh = [s2 * hc[0]] + [s2 * hc[j] + hc[j - 1] for j in range(1, order + 1)]
    nd = [_bs_n(params, s2), 2.0 * th1 * s2 + 1.0 / (1.0 - s2), 2.0 * th1 + 1.0 / (1.0 - s2) ** 2]
    for j in range(3, order + 1):
        nd.append(math.factorial(j - 1) / (1.0 - s2) ** j)
    nc = [nd[j] / math.factorial(j) for j in range(order + 1)]
    d = np.zeros(order)
    d[0] = -th1 * s2 * s2 / nc[0]
    for j in range(1, order):
        rhs_j = th1 * (2.0 * s2 if j == 1 else (1.0 if j == 2 else 0.0))
        lhs_known = sum(sh[m] * (j - m + 1) * d[j - m + 1] for m in range(2, j + 1))
        rhs_known = sum(nc[m] * d[j - m] for m in range(1, j + 1)) + rhs_j
        d[j] = (rhs_known - lhs_known) / (sh[1] * j - nc[0])
    return d


def bs_w_generating(
    params: ModelParams,
    s_grid=None,
    n_taylor: int = 12,
    circle_radius: float = 0.6,
    n_circle: int = 256,
) -> WGeneratingFunction:
    """Moment generating function of the uniform-measure model.

    The regular solution is seeded by its series at the interior singular
    point s2 and marched outward (the singular mode decays away from s2,
    so both directions are stable).  Taylor coefficients at 0 come from a
    Cauchy-integral FFT on the complex circle |s| = r: the function is
    analytic in the unit disk, and real-interval extraction would lose
    the high coefficients to noise amplification.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise PreconditionViolated("the generating function needs theta0, theta1 > 0")
    th1 = params.theta1
    s2 = bs_s2(params)
    d = _bs_frobenius(params, s2)
    delta = 1e-3 * s2

    def series(s: float) -> float:
        return float(np.polyval(d[::-1], s - s2))

    def rhs_real(s, y):
        return [(_bs_n(params, s) * y[0] + th1 * s * s) / (s * _bs_h(params, s))]

    left = scipy.integrate.solve_ivp(
        rhs_real,
        (s2 - delta, 1e-9),
        [series(s2 - delta)],
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
    )
    if not left.success:
        raise QuadratureFailure(f"generating-function march failed: {left.message}")

    # choose a contour radius separated from s2 and from zeros of h
    r = circle_radius
    for cand in (circle_radius, 0.68, 0.52, 0.74, 0.45):
        if abs(cand - s2) > 0.04:
            phis = np.linspace(0.0, 2.0 * np.pi, 181)
            hmag = np.abs(_bs_h(params, cand * np.exp(1j * phis)))
            if hmag.min() > 1e-3:
                r = cand
                break
    if r > s2:
        seed = series(s2 + delta)
        seg = (s2 + delta, r)
    else:
        seed = series(s2 - delta)
        seg = (s2 - delta, r)
    radial = scipy.integrate.solve_ivp(
        rhs_real, seg, [seed], method="DOP853", rtol=1e-13, atol=1e-16
    )
    w_r = complex(radial.y[0, -1])

    def rhs_circ(phi, y):
        s = r * np.exp(1j * phi)
        return [(_bs_n(params, s) * y[0] + th1 * s * s) / (s * _bs_h(params, s)) * 1j * s]

    phis = np.linspace(0.0, 2.0 * np.pi, n_circle, endpoint=False)
    circ = scipy.integrate.solve_ivp(
        rhs_circ,
        (0.0, 2.0 * np.pi),
        [w_r],
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        t_eval=np.append(phis, 2.0 * np.pi),
    )
    if not circ.success:
        raise QuadratureFailure("contour march failed")
    closure = abs(circ.y[0, -1] - w_r)
    fft = np.fft.fft(circ.y[0, :-1]) / n_circle
    taylor = np.zeros(n_taylor + 1)
    for n in range(1, n_taylor + 1):
        taylor[n] = (fft[n] / r**n).real

    out = WGeneratingFunction(
        params, s2, taylor, r, closure, left, delta, series
    )
    if s_grid is not None:
        out.values(s_grid)  # validate the grid eagerly
    return out


# ----------------------------------------------------------------------
# Absorption and fixation formulas
# ----------------------------------------------------------------------


def bs_absorption(x: float, sigma: float) -> float:
    """P(unfit type takes over | start frequency x) for the uniform measure,
    no mutation: (1-x) e^-sigma / (x + (1-x) e^-sigma)."""
    if not 0.0 <= x <= 1.0 or sigma <= 0:
        raise DomainError("need x in [0,1] and sigma > 0")
    e = math.exp(-sigma)
    return (1.0 - x) * e / (x + (1.0 - x) * e)


def geometric_pgf_absorption(x: float, rho: float) -> float:
    """E[(1-x)^G] for G ~ Geom(1-rho): the duality twin of bs_absorption."""
    y = 1.0 - x
    return (1.0 - rho) * y / (1.0 - rho * y)


def kimura_fixation(x: float, sigma: float, m0: float) -> float:
    """(1 - exp(-2 sigma x / m0)) / (1 - exp(-2 sigma / m0))."""
    if not 0.0 <= x <= 1.0 or sigma <= 0 or m0 <= 0:
        raise DomainError("need x in [0,1], sigma > 0, m0 > 0")
    lam = 2.0 * sigma / m0
    return math.expm1(-lam * x) / math.expm1(-lam)


def poisson_duality_fixation(x: float, sigma: float, m0: float) -> float:
    """1 - E[(1-x)^L], L ~ Poisson(2 sigma/m0) conditioned positive."""
    lam = 2.0 * sigma / m0
    return -(math.expm1(-lam * x)) / (-math.expm1(-lam))


def moran_fixation(k: int, N: int, s: float) -> float:
    """P_k(fixation at N) = ((1+s)^N - (1+s)^(N-k)) / ((1+s)^N - 1).

    Computed as expm1 ratios so large N cannot overflow.
    """
    if not 1 <= k <= N or s <= 0:
        raise DomainError("need 1 <= k <= N and s > 0")
    ls = math.log1p(s)
    return math.expm1(-k * ls) / math.expm1(-N * ls)


def ancestral_type_h(pgf: PgfEvaluator, x: float) -> float:
    """Probability the ancestor is fit given current fit frequency x."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0,1]")
    return 1.0 - pgf.evaluate(1.0 - x)


def ancestral_type_h_from_tails(pmf: StationaryPmf, x: float) -> float:
    """Tail-sum form sum_n x (1-x)^n a_n of the ancestral-type function."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0,1]")
    a = pmf.tails()
    n = np.arange(a.size)
    return float(x * np.dot(np.power(1.0 - x, n), a))
