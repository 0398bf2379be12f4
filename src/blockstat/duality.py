"""Moment-duality computations.

Stationary moments w_n = P_n(absorption at 0) of the killed ancestral
selection graph solve a lower-Hessenberg linear system; for the uniform
measure their generating function solves a first-order ODE whose regular
solution is collocated on Chebyshev panels that start at the interior
singular point, where the equation itself selects it.  Also: the
classical absorption/fixation formulas and the ancestral-type function
h(x) = 1 - g(1-x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from .closedform import PgfEvaluator, bs_rho
from .errors import DomainError, IllConditioned, PreconditionViolated
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
    return 0.0 - worst  # +0.0, not -0.0, when no difference is negative


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

_N_CIRCLE = 256  # contour points of the Cauchy-integral FFT, one arc each
_NODES = 12  # Chebyshev-Lobatto collocation nodes per panel
_X = chebyshev.chebpts2(_NODES)  # the nodes on [-1, 1]
_TO_CHEB = np.linalg.inv(chebyshev.chebvander(_X, _NODES - 1))  # node values -> coefficients
_T = (_X + 1.0) / 2.0  # the nodes on [0, 1], t_0 = 0; _D differentiates in t
_D = 2.0 * chebyshev.chebvander(_X, _NODES - 2) @ chebyshev.chebder(np.eye(_NODES)) @ _TO_CHEB


@dataclass
class WGeneratingFunction:
    """Regular solution of the moment generating-function ODE.

    Exposes values on [0, s2), the Taylor head (w_0..w_n), the Stieltjes
    transform wrapper, and the circle-closure diagnostic of the contour
    used for coefficient extraction.
    """

    params: ModelParams
    s2: float
    taylor: np.ndarray
    circle_radius: float
    circle_closure: float
    _disk: np.ndarray  # the FFT: w(s) = sum_n _disk[n] (s/r)^n on |s| <= r
    _ends: np.ndarray  # the real panels' ends, s2 to r
    _cheb: np.ndarray  # w's Chebyshev coefficients on each real panel

    def value(self, s: float) -> float:
        return float(self.values([s])[0])

    def values(self, s_grid) -> np.ndarray:
        """w on [0, r] from the FFT; on (r, s2), when r < s2, from the panels."""
        s = np.asarray(s_grid, dtype=float).reshape(-1)
        if not np.all((0.0 <= s) & (s < self.s2)):
            raise DomainError(f"w(s) is evaluated on [0, s2 = {self.s2:.6f})")
        r, a = self.circle_radius, self._ends
        out = np.power.outer(np.minimum(s, r) / r, np.arange(_N_CIRCLE)) @ self._disk
        far = s > r
        k = np.searchsorted(-a, -s[far]) - 1  # the ends fall from s2 to r here
        x = 2.0 * (s[far] - a[k]) / (a[k + 1] - a[k]) - 1.0
        out[far] = chebyshev.chebval(x, self._cheb[k].T, tensor=False)
        return out

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


def bs_w_generating(params: ModelParams, n_taylor: int = 12) -> WGeneratingFunction:
    """Moment generating function of the uniform-measure model.

    The regular solution of P(s) w' - n(s) w = theta1 s^2, P = s h, is
    collocated at Chebyshev-Lobatto nodes on panels: real ones from the
    interior singular point s2 to the contour radius r, then _N_CIRCLE
    arcs once around |s| = r.  At s2, P = 0 turns the first row into
    n(s2) w = -theta1 s2^2, and the other solutions grow like
    |s - s2|^kappa, kappa = n(s2)/(s2 h'(s2)) < 0, so the first panel's
    collocation picks the regular one.  Each later panel is solved, all in
    one batch, for a part zero at its start and a homogeneous part one
    there; a scalar loop chains them.  Taylor coefficients at 0 come from
    a Cauchy-integral FFT of the arcs' start values: the function is
    analytic in the unit disk, and real-interval extraction would lose
    the high coefficients to noise amplification.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise PreconditionViolated("the generating function needs theta0, theta1 > 0")
    s2 = bs_rho(params)  # the root of h: bs_rho's r(x) expands to h(x)

    # choose a contour radius separated from s2 and from zeros of h
    r = 0.6
    for cand in (0.6, 0.68, 0.52, 0.74, 0.45):
        if abs(cand - s2) > 0.04:
            phis = np.linspace(0.0, 2.0 * np.pi, 181)
            hmag = np.abs(_bs_h(params, cand * np.exp(1j * phis)))
            if hmag.min() > 1e-3:
                r = cand
                break

    # a real panel from x is at most min(0.05, x/4, (1 - x)/4) long, so
    # the singular points 0 and 1 lie four panel lengths or more from it
    ends = [s2]
    while ends[-1] != r:
        x = ends[-1]
        step = min(0.05, 0.25 * x, 0.25 * (1.0 - x))
        ends.append(min(x + step, r) if r > x else max(x - step, r))
    ends = np.array(ends)
    n_real = ends.size - 1
    dphi = 2.0 * np.pi / _N_CIRCLE
    s_arc = r * np.exp(1j * dphi * (np.arange(_N_CIRCLE)[:, None] + _T))
    s = np.concatenate((ends[:-1, None] + np.diff(ends)[:, None] * _T, s_arc))
    ds = np.concatenate((np.diff(ends)[:, None] + 0.0 * _T, 1j * dphi * s_arc))  # ds/dt

    # rows P(s_j)/s'(t_j) D_j - n(s_j) e_j, with P(s2) = 0 exactly; every
    # later panel's first row sets its start value: 0 or 1
    coef = s * _bs_h(params, s) / ds
    coef[0, 0] = 0.0
    A = coef[:, :, None] * _D
    A[:, np.arange(_NODES), np.arange(_NODES)] -= _bs_n(params, s)
    A[1:, 0, :] = np.eye(_NODES)[0]
    B = np.zeros(s.shape + (2,), dtype=complex)
    B[:, :, 0] = params.theta1 * s * s
    B[1:, 0] = (0.0, 1.0)
    try:
        U = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"generating-function collocation: {exc}") from exc

    # w at each later panel's start and, last, at the final end; panel 0
    # has no homogeneous part, and its 0 weights none
    start = [0.0]
    for part, hom in zip(U[:, -1, 0].tolist(), U[:, -1, 1].tolist()):
        start.append(part + start[-1] * hom)
    circle = np.array(start[n_real:-1])
    node_w = (U[:n_real, :, 0] + np.array(start[:n_real])[:, None] * U[:n_real, :, 1]).real

    fft = np.fft.fft(circle) / _N_CIRCLE
    taylor = np.zeros(n_taylor + 1)
    for n in range(1, n_taylor + 1):
        taylor[n] = (fft[n] / r**n).real
    disk = fft.real
    disk[0] = 0.0  # w(0) = 0: the sum starts at n = 1
    closure = abs(start[-1] - circle[0])
    return WGeneratingFunction(params, s2, taylor, r, closure, disk, ends, node_w @ _TO_CHEB.T)


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
