"""Moment-duality computations.

Stationary moments w_n = P_n(absorption at 0) of the killed ancestral
selection graph solve a lower-Hessenberg linear system; for the uniform
measure their generating function solves a first-order ODE whose regular
solution is marched from its two-term Taylor start at the interior
singular point.  Also: the classical absorption/fixation formulas and the
ancestral-type function h(x) = 1 - g(1-x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closedform import PgfEvaluator, bs_rho
from .errors import DomainError, IllConditioned, PreconditionViolated, QuadratureFailure
from .measures import LambdaMeasure, ModelParams, merger_rows
from .recursions import DEFAULT_TOL, K_START, StationaryPmf, double_until_closed
from .textio import write_csv


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
        write_csv(path, ("n", "w_n"), (np.arange(self.w.size), self.w))


def _extend_w_system(
    rows: np.ndarray, params: ModelParams, w=(1.0,), y=(0.0,)
) -> tuple[np.ndarray, np.ndarray]:
    """Solution w_0..w_{k+m} at closure k+m from the solution at closure k.

    Row n of the lower-Hessenberg system is
        (theta + sigma + R_n / n) w_n - theta1 w_{n-1} - sigma w_{n+1}
            - (1/n) sum_{l<n} r_{n->l} w_l = 0,
    with R_n the total merger rate from n, w_0 = 1 and, at closure k,
    w_{k+1} = 0.  rows holds the merger rows of the new n = k+1..k+m
    (merger_rows(measure, k+1, k+m): atom and custom-density rows step
    down from row k+m) and is overwritten with the matrix entries
    -r_{n->l} / n; w = (w_0..w_k) solves the system at closure k and
    y = (y_0..y_k) the same rows with e_k on the right (y_0 = 0).  The
    defaults are the closure k = 0 (w_0 = 1), so a call without them
    builds the whole system.  The old rows meet the new unknowns only
    through -sigma w_{k+1} in row k, so
        w_old = w + sigma w_{k+1} y,
    and with A21 and A22 the new rows' columns 0..k and k+1..k+m, the
    new unknowns solve the m x m Schur complement system
        S = A22 + sigma (A21 y) e_1^T,   S w_new = -A21 w;
    e_m on the right, in the same factorisation, gives the new y.  Each
    row's diagonal exceeds the sum of the moduli of its other entries by
    theta0 > 0.  A Schur complement keeps strict row dominance, so S is
    nonsingular and Gaussian elimination on it is as stable as on the
    whole system; where theta0 is negligible next to the rates, rounding
    can still make S singular, which raises IllConditioned.  Returns
    (w_0..w_{k+m}, y_0..y_{k+m}).
    """
    w, y = np.asarray(w, dtype=float), np.asarray(y, dtype=float)
    k, m = w.size - 1, rows.shape[0]
    n = np.arange(k + 1.0, k + m + 1)
    diag = params.theta + params.sigma + rows.sum(axis=1) / n
    rows /= -n[:, None]
    # A21 [w, y]: the merger terms into l <= k and -theta1 w_k in row k+1
    old = rows[:, :k] @ np.column_stack((w[1:], y[1:]))
    old[0] -= params.theta1 * np.array((w[k], y[k]))
    S = np.zeros((m, m))
    S[:, : m - 1] = rows[:, k:]
    flat = S.reshape(-1)  # each diagonal of S is a stride of its flat view
    flat[:: m + 1] = diag
    flat[m :: m + 1] -= params.theta1
    flat[1 :: m + 1] -= params.sigma
    S[:, 0] += params.sigma * old[:, 1]
    rhs = np.zeros((m, 2))
    rhs[:, 0] = -old[:, 0]
    rhs[-1, 1] = 1.0
    try:
        new = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"duality system at n = {k + 1}..{k + m}: {exc}") from exc
    w_next = np.concatenate((w + params.sigma * new[0, 0] * y, new[:, 0]))
    y_next = np.concatenate((params.sigma * new[0, 1] * y, new[:, 1]))
    return w_next, y_next


def complete_monotonicity_defect(w: np.ndarray, depth: int = 12) -> float:
    """Largest negative excursion of the iterated differences of (w_k).

    For a genuine moment sequence every forward difference
    Delta^n w_k = Delta^(n-1) w_k - Delta^(n-1) w_{k+1} is nonnegative.
    Only Delta^n w_k with k + n <= depth are checked, so only w_0..w_depth
    are read; a dozen differences are cheaper in floats than in arrays.
    """
    cur = [float(v) for v in np.asarray(w, dtype=float)[: depth + 1]]
    worst = 0.0
    for n in range(1, depth + 1):
        cur = [x - y for x, y in zip(cur, cur[1:])]
        if not cur:
            break
        worst = min(worst, *cur[: max(1, depth - n + 1)])
    return -worst


def solve_w_moments(
    measure: LambdaMeasure,
    params: ModelParams,
    K: int = K_START,
    tol: float = DEFAULT_TOL,
    K_cap: int = 2**12,
) -> MomentSequence:
    """Stationary moments w_n from the truncated duality system.

    Closure w_{K+1} = 0; K doubles until the K-solve's own bound on the
    head (n <= K/4) error is below tol; K < 4 or K > K_cap raise
    DomainError.  A doubling solves only the new rows K+1..2K
    (_extend_w_system), carrying over the solution at K and its
    sensitivity y to w_{K+1}.  The true moments are w + sigma w_{K+1} y
    on 0..K, y >= 0 (an M-matrix) and w_{K+1} <= w_K, which proves
    |error_n| <= sigma w_K / (1 - sigma y_K) y_n while sigma y_K < 1
    (README); the residual is its largest value on the head.  A
    complete-monotonicity spot check is reported as a diagnostic defect.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise PreconditionViolated("duality moments need theta0 > 0 and theta1 > 0")
    if K < 4:
        raise DomainError(f"truncation level {K} leaves no head n <= K/4")
    w, y = (1.0,), (0.0,)

    def solve(k):
        nonlocal w, y
        w, y = _extend_w_system(merger_rows(measure, len(w), k), params, w, y)
        gain = params.sigma * float(y[-1])
        if gain >= 1.0:
            return w, math.inf
        return w, params.sigma * float(w[-1]) / (1.0 - gain) * float(np.max(y[1 : k // 4 + 1]))

    w, K, bound = double_until_closed(solve, K, tol, K_cap)
    defect = complete_monotonicity_defect(w)
    return MomentSequence(w, K, bound, defect, extras={"closure_bound": bound})


# ----------------------------------------------------------------------
# Uniform-measure generating function w(s) = sum_{n>=1} w_n s^n
# ----------------------------------------------------------------------

_N_CIRCLE = 256  # contour points of the Cauchy-integral FFT


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
    _delta: float
    _series: Callable[[float], float]

    @functools.cached_property
    def _left_sol(self):
        """Dense march from s2 - delta down to 1e-9, made on first use:
        only value() below s2 - delta reads it."""
        s0 = self.s2 - self._delta
        rhs = functools.partial(_bs_w_rhs, self.params)
        return _march(rhs, (s0, 1e-9), self._series(s0), dense_output=True)

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


def _bs_w_rhs(params: ModelParams, s, y):
    """w' = (n(s) w + theta1 s^2) / (s h(s)), for real or complex s."""
    return [(_bs_n(params, s) * y[0] + params.theta1 * s * s) / (s * _bs_h(params, s))]


def _march(rhs, span: tuple[float, float], y0, **kwargs):
    """One DOP853 march of the generating-function ODE at rtol 1e-13, atol 1e-16."""
    import scipy.integrate  # on first use: it loads scipy.optimize, sparse and spatial

    sol = scipy.integrate.solve_ivp(
        rhs, span, [y0], method="DOP853", rtol=1e-13, atol=1e-16, **kwargs
    )
    if not sol.success:
        raise QuadratureFailure(f"generating-function march failed: {sol.message}")
    return sol


def _bs_start(params: ModelParams, s2: float) -> tuple[float, float]:
    """(w(s2), w'(s2)) of the regular solution at the singular point s2.

    (s h(s)) w' = n(s) w + theta1 s^2 with h(s2) = 0 fixes both: at s2 the
    equation reads n w + theta1 s2^2 = 0, and its derivative
    s2 h'(s2) w' = n'(s2) w + n(s2) w' + 2 theta1 s2.
    """
    th1 = params.theta1
    n = float(_bs_n(params, s2))
    dh = params.theta - 2.0 * th1 * s2 + params.sigma + math.log1p(-s2) + 1.0
    dn = 2.0 * th1 * s2 + 1.0 / (1.0 - s2)
    w = -th1 * s2 * s2 / n
    return w, (dn * w + 2.0 * th1 * s2) / (s2 * dh - n)


def bs_w_generating(params: ModelParams, n_taylor: int = 12) -> WGeneratingFunction:
    """Moment generating function of the uniform-measure model.

    The regular solution is seeded at s2 +- delta, delta = 1e-7 s2, by its
    two-term Taylor start at the interior singular point s2 (_bs_start) and
    marched outward.  The singular mode behaves like |s - s2|^kappa with
    kappa = n(s2) / (s2 h'(s2)) < 0, so it decays away from s2 and an
    error in the start shrinks along both marches; the dropped term
    w'' delta^2 / 2 is about 1e-15.  Taylor coefficients at 0 come from a
    Cauchy-integral FFT on the complex circle |s| = r: the function is
    analytic in the unit disk, and real-interval extraction would lose
    the high coefficients to noise amplification.  The march from s2
    toward 0 that value() reads is made on its first use.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise PreconditionViolated("the generating function needs theta0, theta1 > 0")
    s2 = bs_rho(params)  # the root of h: bs_rho's r(x) expands to h(x)
    w2, dw2 = _bs_start(params, s2)
    delta = 1e-7 * s2

    def series(s: float) -> float:
        return w2 + dw2 * (s - s2)

    # choose a contour radius separated from s2 and from zeros of h
    r = 0.6
    for cand in (0.6, 0.68, 0.52, 0.74, 0.45):
        if abs(cand - s2) > 0.04:
            phis = np.linspace(0.0, 2.0 * np.pi, 181)
            hmag = np.abs(_bs_h(params, cand * np.exp(1j * phis)))
            if hmag.min() > 1e-3:
                r = cand
                break
    s0 = s2 + delta if r > s2 else s2 - delta
    w_r = complex(_march(functools.partial(_bs_w_rhs, params), (s0, r), series(s0)).y[0, -1])

    def rhs_circ(phi, y):
        s = r * np.exp(1j * phi)
        return [_bs_w_rhs(params, s, y)[0] * 1j * s]

    # the contour's _N_CIRCLE points, and 2 pi again for the closure
    t_eval = np.linspace(0.0, 2.0 * np.pi, _N_CIRCLE + 1)
    circ = _march(rhs_circ, (0.0, 2.0 * np.pi), w_r, t_eval=t_eval)
    closure = abs(circ.y[0, -1] - w_r)
    fft = np.fft.fft(circ.y[0, :-1]) / _N_CIRCLE
    taylor = np.zeros(n_taylor + 1)
    for n in range(1, n_taylor + 1):
        taylor[n] = (fft[n] / r**n).real

    return WGeneratingFunction(params, s2, taylor, r, closure, delta, series)


# ----------------------------------------------------------------------
# Absorption and fixation formulas
# ----------------------------------------------------------------------


def bs_absorption(x: float, sigma: float) -> float:
    """P(unfit type takes over | start frequency x) for the uniform measure,
    no mutation: (1-x) e^-sigma / (x + (1-x) e^-sigma)."""
    if not (0.0 <= x <= 1.0 and 0 < sigma < math.inf):
        raise DomainError("need x in [0,1] and finite sigma > 0")
    if x == 0.0:
        return 1.0  # the formula's 0/0 once e^-sigma underflows
    e = math.exp(-sigma)
    return (1.0 - x) * e / (x + (1.0 - x) * e)


def geometric_pgf_absorption(x: float, rho: float) -> float:
    """E[(1-x)^G] for G ~ Geom(1-rho): the duality twin of bs_absorption."""
    y = 1.0 - x
    return (1.0 - rho) * y / (1.0 - rho * y)


def kimura_fixation(x: float, sigma: float, m0: float) -> float:
    """(1 - exp(-2 sigma x / m0)) / (1 - exp(-2 sigma / m0))."""
    if not (0.0 <= x <= 1.0 and 0 < sigma < math.inf and 0 < m0 < math.inf):
        raise DomainError("need x in [0,1], finite sigma > 0, finite m0 > 0")
    lam = 2.0 * sigma / m0
    if lam == 0.0:
        return x  # the lam -> 0 limit, where the expm1 ratio is 0/0
    return math.expm1(-lam * x) / math.expm1(-lam)


def poisson_duality_fixation(x: float, sigma: float, m0: float) -> float:
    """1 - E[(1-x)^L], L ~ Poisson(2 sigma/m0) conditioned positive."""
    lam = 2.0 * sigma / m0
    return -(math.expm1(-lam * x)) / (-math.expm1(-lam))


def moran_fixation(k: int, N: int, s: float) -> float:
    """P_k(fixation at N) = ((1+s)^N - (1+s)^(N-k)) / ((1+s)^N - 1).

    Computed as expm1 ratios so large N cannot overflow.
    """
    if not (1 <= k <= N and 0 < s < math.inf):
        raise DomainError("need 1 <= k <= N and finite s > 0")
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
