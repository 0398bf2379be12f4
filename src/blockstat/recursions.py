"""Linear solvers for the stationary block-count distributions.

Covers the finite Moran tail recursion (one banded tridiagonal solve),
a brute-force generator null-space oracle, the truncated general-measure
system and the star-shaped banded solve, with the two truncation rules
they share: double_until_closed and exact_tails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    NegativeMass,
    NoConvergence,
    PreconditionViolated,
)
from .measures import (
    LambdaMeasure,
    ModelParams,
    MoranParams,
    is_positive_recurrent,
    merger_blocks,
)

NEG_CLIP = -1e-12
DEFAULT_TOL = 1e-10  # the default tol of every truncated solve
K_START, K_CAP = 64, 2**14  # its default first and largest truncation levels
EXACT_TAIL = 1e-17  # exact_tails keeps a law's exact tails down to this
# sup-norm error of a pmf closed at K (no branching out of K) over its own
# top mass p_K: a measured bound, not a proved one (README, numerical notes)
PMF_CLOSURE = 4.0
MORAN_N_CAP = 10**7  # states of the banded Moran solve, about 85 bytes each


@dataclass
class StationaryPmf:
    """Stationary pmf over block counts 1..truncation_K.

    probs[i] is the mass at i+1.  tail_mass is the mass beyond the
    truncation that a route knows it left out; a solve closed at K bounds
    it in the residual instead.
    """

    probs: np.ndarray
    truncation_K: int
    residual: float
    solver_tag: str
    tail_mass: float = 0.0
    extras: dict = field(default_factory=dict)

    def p(self, n: int) -> float:
        if n < 1:
            raise DomainError("block counts start at 1")
        return float(self.probs[n - 1]) if n <= self.truncation_K else 0.0

    def tails(self) -> np.ndarray:
        """a_n = P(L > n) = tail_mass + sum_{k>n} p_k, n = 0..K, summed from the top."""
        return np.cumsum(np.append(self.probs, self.tail_mass)[::-1])[::-1]

    def mean(self) -> float:
        n = np.arange(1, self.truncation_K + 1)
        return float(np.dot(n, self.probs))

    def falling_moment(self, r: int) -> float:
        """E[(L)_r^down] from the pmf."""
        n = np.arange(1, self.truncation_K + 1, dtype=float)
        fact = np.ones_like(n)
        for i in range(r):
            fact *= n - i
        return float(np.dot(fact, self.probs))

    def sup_distance(self, other: "StationaryPmf") -> float:
        k = max(self.truncation_K, other.truncation_K)
        a, b = (np.pad(x.probs, (0, k - x.truncation_K)) for x in (self, other))
        return float(np.max(np.abs(a - b)))

    def diagnostics(self) -> dict:
        return {
            "K": self.truncation_K,
            "residual": self.residual,
            "solver_tag": self.solver_tag,
            "tail_mass": self.tail_mass,
            **self.extras,
        }


def clip_negative(p: np.ndarray, tag: str) -> np.ndarray:
    worst = float(p.min(initial=0.0))
    if worst < NEG_CLIP:
        raise NegativeMass(f"{tag}: probability {worst} below the clip tolerance")
    return np.where(p < 0.0, 0.0, p)


# ----------------------------------------------------------------------
# Moran model
# ----------------------------------------------------------------------


def _moran_coeffs(params: MoranParams, n):
    """(A_n, B_n, C_n) with A_n a_n = B_n a_{n-1} - C_n a_{n-2}.

    n is an int or an integer array (then each coefficient is an array).
    """
    N, s, u1 = params.N, params.s, params.u1
    A = n / N + u1
    C = (N - n + 1) * s / N
    B = n / N + C + params.u
    return A, B, C


def _moran_pmf_residual(params: MoranParams, p: np.ndarray) -> float:
    """Residual of the equivalent pmf-form equations plus its boundary."""
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    tail = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])  # tail[n-1] = sum_{l>=n} p_l
    n = np.arange(2, N)
    lhs = (n / N + u1) * p[1:-1]
    rhs = (N - n + 1) * s / N * p[:-2] - u0 * tail[1:-2]
    res = max(abs(p.sum() - 1.0), float(np.max(np.abs(lhs - rhs), initial=0.0)))
    res = max(res, abs((1.0 + params.u) * p[N - 1] - (s / N) * p[N - 2]))
    return res


def solve_moran(params: MoranParams) -> StationaryPmf:
    """Stationary pmf of the Moran block counting chain.

    The tails a_n = P(L > n) solve a homogeneous three-term recursion
    with a_0 = 1 and a boundary equation at n = N-1; the equations are
    solved together as one pivoted tridiagonal system.  N above
    MORAN_N_CAP raises DomainError.
    """
    N = params.N
    if N > MORAN_N_CAP:
        raise DomainError(f"the banded Moran solve holds {MORAN_N_CAP} states, not N = {N}")
    a, tail_residual = _solve_moran_banded(params)
    p = np.empty(N)
    p[: N - 1] = a[: N - 1] - a[1:]
    p[N - 1] = a[N - 1]
    p = clip_negative(p, "moran-banded")
    residual = max(tail_residual, _moran_pmf_residual(params, p))
    return StationaryPmf(p, N, residual, "moran-banded")


def solve_three_term(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, x_left: float
) -> tuple[np.ndarray, float]:
    """x_0..x_{m-1} from sub_r x_{r-1} + diag_r x_r + sup_r x_{r+1} = 0, and
    the largest |sub_r x_{r-1} + diag_r x_r + sup_r x_{r+1}| at the solution.

    Rows r = 0..m-1 with x_{-1} = x_left given and x_m = 0, so sup[m-1]
    meets only that 0; solved as a pivoted banded system.
    """
    import scipy.linalg  # on first use, not on import of the package

    m = diag.size
    ab = np.zeros((3, m))  # (1,1) banded storage
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    rhs = np.zeros(m)
    rhs[0] = -sub[0] * x_left
    x = scipy.linalg.solve_banded((1, 1), ab, rhs)
    rows = sub * np.append(x_left, x[:-1]) + diag * x + sup * np.append(x[1:], 0.0)
    return x, float(np.max(np.abs(rows)))


def _solve_moran_banded(params: MoranParams) -> tuple[np.ndarray, float]:
    """Tails a_0..a_{N-1} of the Moran chain from its tridiagonal system,
    and the residual of its rows.

    Unknowns a_1..a_{N-1}: the recursion C a_{n-2} - B a_{n-1} + A a_n = 0
    at n = 2..N-1, then the boundary row (1+u+s/N) a_{N-1} - (s/N) a_{N-2} = 0.
    """
    N = params.N
    A, B, C = _moran_coeffs(params, np.arange(2, N + 1))
    diag = -B
    # the last row (n = N) is the boundary equation, not the recursion
    sN = params.s / N
    C[-1] = -sN
    diag[-1] = 1.0 + params.u + sN
    a_unknown, residual = solve_three_term(C, diag, A, 1.0)
    return np.concatenate([[1.0], a_unknown]), residual


def moran_rate_matrix(params: MoranParams) -> np.ndarray:
    """Generator of the block counting chain on states 1..N."""
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    Q = np.zeros((N, N))
    for i in range(1, N + 1):
        if i < N:
            Q[i - 1, i] = i * (N - i) * s / N
        if i >= 2:
            Q[i - 1, i - 2] = i * (i - 1) / N + (i - 1) * u1 + u0
        for j in range(1, i - 1):
            Q[i - 1, j - 1] += u0
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def stationary_from_generator(Q: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible generator via GTH elimination.

    Subtraction-free, hence entrywise accurate; used as the independent
    oracle for the structured solvers.
    """
    A = np.array(Q, dtype=float, copy=True)
    n = A.shape[0]
    if n > 2000:
        raise PreconditionViolated("null-space oracle capped at 2000 states")
    s_cache = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise DomainError("generator is not irreducible")
        s_cache[k] = s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k]) / s
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = np.dot(pi[:k], A[:k, k]) / s_cache[k]
    return pi / pi.sum()


def solve_moran_nullspace(params: MoranParams) -> StationaryPmf:
    """Independent Moran oracle: stationary vector of the full rate matrix."""
    Q = moran_rate_matrix(params)
    pi = stationary_from_generator(Q)
    residual = float(np.max(np.abs(pi @ Q)))
    return StationaryPmf(pi, params.N, residual, "moran-nullspace")


# ----------------------------------------------------------------------
# General-measure truncated system
# ----------------------------------------------------------------------


def _solve_prlm(
    measure: LambdaMeasure, params: ModelParams, K: int
) -> tuple[np.ndarray, float]:
    """Backward substitution for the truncated pmf system with p_{K+1..} = 0.

    The equation at n balances the flux across the cut n | n+1:
        sigma p_n = theta1 p_{n+1} + theta0 T_{n+1} + (1/n) sum_{l<=n} D_l,
    with T_{n+1} = sum_{k>n} p_k and D_l = sum_{k>n} p_k r_{k->l}, where
    r_{k->l} is the merger rate of k -> l, atoms at 0 and 1 included.
    The rows are read from merger_blocks, blocks of at most BLOCK rows
    k = k_lo..k_hi walking down from k = K.  Rows above the block enter
    through their column sums D_l, which one rows.T @ p updates after
    each block, and a prefix sum of D per block gives sum_{l<=n} D_l.
    Rows inside the block enter through their cumulative row sums
    C[k, n] = sum_{l<=n} r_{k->l}, taken once per block over the block's
    own columns n = k_lo-1..k_hi-1 on top of each row's prefix sum, so
    each state costs one dot product of at most BLOCK terms and a solve
    holds O(BLOCK K) numbers.  All terms are nonnegative, so the sweep is
    subtraction-free and the result positive by construction; p, D and
    T are rescaled whenever p_n passes 1e250.  Returns the normalised
    pmf and the largest equation residual |rhs_n - sigma p_n| met in the
    sweep, in the same scale.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    p = np.zeros(K)
    p[K - 1] = 1.0
    tail = 0.0
    down = np.zeros(K - 1)  # D_l, l = 1..K-1, from the rows above the block
    res = 0.0
    p_n = 1.0
    for k_lo, rows in merger_blocks(measure, K):
        k_hi = k_lo + rows.shape[0] - 1
        # cum[i, m] = C[k_lo + m, k_lo - 1 + i]: state n = k_lo - 1 + i
        # reads row i against p_{k_lo..k_hi}, whose p_k, k <= n, are still 0
        cum = rows[:, k_lo - 2 :].T.copy()
        np.cumsum(cum, axis=0, out=cum)
        cum += rows[:, : k_lo - 2].sum(axis=1)
        above = np.cumsum(down[: k_hi - 1])[k_lo - 2 :].tolist()  # sum_{l<=n} D_l
        block = p[k_lo - 1 : k_hi]
        for n in range(k_hi - 1, k_lo - 2, -1):
            i = n - k_lo + 1
            tail += p_n
            val = th1 * p_n + th0 * tail + (above[i] + cum[i].dot(block)) / n
            p_n = float(val / sigma)
            p[n - 1] = p_n
            res = max(res, abs(val - sigma * p_n))
            if p_n > 1e250:
                # only ratios matter; rescale the computed part to avoid overflow
                p[n - 1 :] /= p_n
                down /= p_n
                above = [s / p_n for s in above]
                tail /= p_n
                res /= p_n
                p_n = 1.0
        down[: k_hi - 1] += rows.T @ block
    total = p.sum()
    return p / total, res / total


def double_until_closed(
    solve: Callable[[int], tuple], K: int = K_START, tol: float = DEFAULT_TOL, K_cap: int = K_CAP
) -> tuple[object, int, float]:
    """Solve at K, 2K, 4K, ... until a solve's own closure bound is below tol.

    solve(K) returns (result, bound), where bound is that K-solve's own
    bound on how far closing the system at K moves the part of the result
    it vouches for.  Returns (result, K, bound) for the first K with
    bound < tol; raises DomainError before any solve if K > K_cap or tol
    is not in (0, inf), and NoConvergence once 2K > K_cap.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must lie in (0, inf), not {tol}")
    if K > K_cap:
        raise DomainError(f"truncation level {K} passes the cap {K_cap}")
    while True:
        result, bound = solve(K)
        if bound < tol:
            return result, K, bound
        if 2 * K > K_cap:
            raise NoConvergence(f"truncation cap {K_cap} reached without closing")
        K *= 2


def exact_tails(ratio: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Exact tails a_0 = 1, a_n = a_{n-1} ratio(n) of a law, n = 1..K.

    K is the first n in 16..K_CAP with a_n < EXACT_TAIL, else K_CAP; the
    route keeps p_1..p_K and reports a_K as tail_mass.
    """
    m = 16
    while True:
        a = np.cumprod(np.append(1.0, ratio(np.arange(1.0, m + 1))))
        if a[-1] < EXACT_TAIL:
            return a[: 17 + int(np.argmax(a[16:] < EXACT_TAIL))]
        if m == K_CAP:
            return a
        m *= 2


def solve_lambda_truncated(
    measure: LambdaMeasure,
    params: ModelParams,
    K: int = K_START,
    tol: float = DEFAULT_TOL,
    K_cap: int = K_CAP,
) -> StationaryPmf:
    """Stationary pmf of the general block counting chain, truncated at K.

    K doubles until the K-solve's closure bound PMF_CLOSURE * p_K, with
    p_K its own normalised top mass, is below tol; the reported residual
    combines the in-system equation residual with that bound.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("the truncated system needs sigma > 0")
    if K < 10:
        raise DomainError("truncation level must be at least 10")
    rep = is_positive_recurrent(measure, params)
    if not rep:
        warnings.warn(
            f"positive recurrence not established ({rep.clause}); "
            "the truncated solution may not converge",
            stacklevel=2,
        )

    def solve(k):
        p, res = _solve_prlm(measure, params, k)
        return (p, res), PMF_CLOSURE * float(p[-1])

    (p, res), K, bound = double_until_closed(solve, K, tol, K_cap)
    res = max(res, abs(p.sum() - 1.0), bound)
    return StationaryPmf(p, K, res, "lambda-truncated", extras={"closure_bound": bound})


# ----------------------------------------------------------------------
# Star-shaped model
# ----------------------------------------------------------------------


def solve_star(params: ModelParams, m1: float) -> StationaryPmf:
    """Stationary pmf for the star-shaped coalescent (mass m1 at 1).

    theta1 = 0 has closed tails (exact_tails).  For theta1 > 0 the tails
    solve the two-sided tridiagonal system with a_K = 0, which folds the
    mass beyond K into p_K (double_until_closed bounds it); the forward
    recursion from a_1 = 1 - p_1 amplifies its dominant solution.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("star-shaped model needs sigma > 0")
    if not 0 < m1 < np.inf:
        raise DomainError("star-shaped model needs a finite m1 > 0")
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1

    if th1 == 0.0:
        a = exact_tails(lambda n: n * sigma / (n * (sigma + th0) + m1))
        return StationaryPmf(a[:-1] - a[1:], a.size - 1, 0.0, "star-closed-tails", float(a[-1]))

    def solve(K):
        a, residual = _solve_star_banded(params, m1, K)
        p = clip_negative(a[:-1] - a[1:], "star-banded")
        return (p, residual), PMF_CLOSURE * float(p[-1])

    (p, residual), K, bound = double_until_closed(solve)
    return StationaryPmf(
        p, K, max(residual, bound), "star-banded", extras={"closure_bound": bound}
    )


def _solve_star_banded(params: ModelParams, m1: float, K: int) -> tuple[np.ndarray, float]:
    """Tails a_0..a_K from the two-sided tridiagonal system with a_K = 0,
    and the residual of its rows."""
    sigma, th1, theta = params.sigma, params.theta1, params.theta
    n = np.arange(1, K, dtype=float)  # rows for the unknowns a_1..a_{K-1}
    a_unknown, residual = solve_three_term(
        np.full(K - 1, sigma), -(m1 / n + theta + sigma), np.full(K - 1, th1), 1.0
    )
    return np.concatenate([[1.0], a_unknown, [0.0]]), residual
