"""Linear solvers for the stationary block-count distributions.

Covers the finite Moran tail recursion (one banded tridiagonal solve),
a brute-force generator null-space oracle, the truncated general-measure
system, the star-shaped forward recursion, and the geometric closed form
of the zero-measure (Crow-Kimura) model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from ._dd import dd_add as _dd_add, dd_mul_f as _dd_mul_f, two_sum as _dd_two_sum
from .errors import (
    DomainError,
    InstabilityDetected,
    NegativeMass,
    NoConvergence,
    NotPositiveRecurrent,
    PreconditionViolated,
)
from .measures import (
    LambdaMeasure,
    ModelParams,
    MoranParams,
    cnk_row,
    is_positive_recurrent,
)

NEG_CLIP = -1e-12


@dataclass
class StationaryPmf:
    """Stationary pmf over block counts 1..truncation_K.

    probs[i] is the mass at i+1.  tail_mass is the analytically known mass
    beyond the truncation (nonzero only for heavy-tailed closed forms).
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
        """a_n = P(L > n) for n = 0..K; a_0 = 1 up to truncation."""
        a = np.empty(self.truncation_K + 1)
        a[0] = self.probs.sum() + self.tail_mass
        a[1:] = a[0] - np.cumsum(self.probs)
        return a

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
        a = np.zeros(k)
        b = np.zeros(k)
        a[: self.truncation_K] = self.probs
        b[: other.truncation_K] = other.probs
        return float(np.max(np.abs(a - b)))

    def diagnostics(self) -> dict:
        return {
            "K": self.truncation_K,
            "residual": self.residual,
            "solver_tag": self.solver_tag,
        }


def _clip_negative(p: np.ndarray, tag: str) -> np.ndarray:
    worst = float(p.min(initial=0.0))
    if worst < NEG_CLIP:
        raise NegativeMass(f"{tag}: probability {worst} below the clip tolerance")
    p = np.where(p < 0.0, 0.0, p)
    return p / p.sum()


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


def _moran_tail_residual(params: MoranParams, a: np.ndarray) -> float:
    N = params.N
    A, B, C = _moran_coeffs(params, np.arange(2, N))
    res = float(np.max(np.abs(A * a[2:] - B * a[1:-1] + C * a[:-2]), initial=0.0))
    res = max(res, abs(a[0] - 1.0))
    res = max(
        res,
        abs((1.0 + params.u + params.s / N) * a[N - 1] - (params.s / N) * a[N - 2]),
    )
    return res


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
    solved together as one pivoted tridiagonal system.
    """
    N = params.N
    a = _solve_moran_banded(params)
    p = np.empty(N)
    p[: N - 1] = a[: N - 1] - a[1:]
    p[N - 1] = a[N - 1]
    p = _clip_negative(p, "moran-banded")
    residual = max(_moran_tail_residual(params, a), _moran_pmf_residual(params, p))
    return StationaryPmf(p, N, residual, "moran-banded")


def _solve_three_term(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, x_left: float
) -> np.ndarray:
    """x_0..x_{m-1} from sub_r x_{r-1} + diag_r x_r + sup_r x_{r+1} = 0.

    Rows r = 0..m-1 with x_{-1} = x_left given and x_m = 0, so sup[m-1]
    is never used; solved as a pivoted banded system.
    """
    m = diag.size
    ab = np.zeros((3, m))  # (1,1) banded storage
    ab[0, 1:] = sup[:-1]
    ab[1] = diag
    ab[2, :-1] = sub[1:]
    rhs = np.zeros(m)
    rhs[0] = -sub[0] * x_left
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _solve_moran_banded(params: MoranParams) -> np.ndarray:
    """Tails a_0..a_{N-1} of the Moran chain from its tridiagonal system.

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
    return np.concatenate([[1.0], _solve_three_term(C, diag, A, 1.0)])


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

    All recursion coefficients are nonnegative, so the sweep is
    subtraction-free and the result positive by construction.  Returns
    the normalised pmf and the largest equation residual
    |rhs_n - sigma p_{n-1}| met in the sweep, in the same scale.
    """
    sigma = params.sigma
    th0, th1 = params.theta0, params.theta1
    m0, m1 = measure.m0, measure.m1
    p = np.zeros(K)
    p[K - 1] = 1.0
    res = 0.0
    for n in range(K - 1, 0, -1):
        row = cnk_row(measure, n, K) + (m1 / n + th0)
        val = (m0 * (n + 1) / 2.0 + th1) * p[n] + float(np.dot(row, p[n:]))
        p[n - 1] = val / sigma
        res = max(res, abs(val - sigma * p[n - 1]))
        if p[n - 1] > 1e250:
            # only ratios matter; rescale the computed block to avoid overflow
            scale = p[n - 1]
            p[n - 1 :] /= scale
            res /= scale
    total = p.sum()
    return p / total, res / total


def _double_until_stable(
    solve: Callable[[int], tuple],
    K: int,
    tol: float,
    K_cap: int,
    head: Callable[[int], int],
) -> tuple[tuple, int, float]:
    """Solve at K, 2K, 4K, ... until the head of the solution settles.

    solve(K) returns a tuple whose first item is the solution vector; the
    first head(K) entries of the solution at K are compared with those at
    2K.  Returns (result, K, delta) for the first doubling that moves the
    head by delta < tol in sup norm; raises NoConvergence once K would
    pass K_cap.
    """
    prev = solve(K)
    while True:
        h = head(K)
        K *= 2
        if K > K_cap:
            raise NoConvergence(f"truncation cap {K_cap} reached without stabilising")
        cur = solve(K)
        delta = float(np.max(np.abs(cur[0][:h] - prev[0][:h])))
        if delta < tol:
            return cur, K, delta
        prev = cur


def solve_lambda_truncated(
    measure: LambdaMeasure,
    params: ModelParams,
    K: int = 64,
    tol: float = 1e-10,
    K_cap: int = 2**14,
    check_recurrence: bool = True,
) -> StationaryPmf:
    """Stationary pmf of the general block counting chain, truncated at K.

    K doubles until the head of the solution moves by less than tol in
    sup norm; the reported residual combines the in-system equation
    residual with the closure sensitivity of the last doubling.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("the truncated system needs sigma > 0")
    if K < 10:
        raise DomainError("truncation level must be at least 10")
    if check_recurrence:
        rep = is_positive_recurrent(measure, params)
        if not rep:
            warnings.warn(
                f"positive recurrence not established ({rep.clause}); "
                "the truncated solution may not converge",
                stacklevel=2,
            )
    (p, res), K, delta = _double_until_stable(
        lambda k: _solve_prlm(measure, params, k), K, tol, K_cap, head=lambda k: k
    )
    res = max(res, abs(p.sum() - 1.0), delta)
    p = _clip_negative(p, "lambda-truncated")
    return StationaryPmf(p, K, res, "lambda-truncated", extras={"closure_delta": delta})


# ----------------------------------------------------------------------
# Star-shaped model
# ----------------------------------------------------------------------


def solve_star(
    params: ModelParams,
    m1: float,
    K: int = 512,
    p1: float | None = None,
    forward_only: bool = False,
) -> StationaryPmf:
    """Stationary pmf for the star-shaped coalescent (mass m1 at 1).

    theta1 = 0 has closed tails.  For theta1 > 0 the forward recursion
    from a_1 = 1 - p_1 is run in double-double arithmetic and monitored;
    once it leaves the admissible cone (it eventually must, the recursion
    amplifies the dominant solution) the banded two-sided system with
    a_K = 0 takes over.
    """
    if params.sigma <= 0:
        raise PreconditionViolated("star-shaped model needs sigma > 0")
    if m1 <= 0:
        raise DomainError("star-shaped model needs m1 > 0")
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1

    if th1 == 0.0:
        r = sigma / (sigma + th0)
        a = np.empty(K + 1)
        a[0] = 1.0
        for n in range(1, K + 1):
            a[n] = a[n - 1] * n * sigma / (n * (sigma + th0) + m1)
        p = a[:-1] - a[1:]
        return StationaryPmf(
            p, K, 0.0, "star-closed-tails", tail_mass=float(a[K]),
            extras={"ratio": r},
        )

    if p1 is None:
        from .closedform import star_p1

        p1 = star_p1(m1, params)

    theta = params.theta
    # forward attempt, double-double accumulation
    a_dd = [(1.0, 0.0), _dd_two_sum(1.0, -p1)]
    for n in range(1, K):
        # a_{n+1} = ((m1/n + theta + sigma) a_n - sigma a_{n-1}) / theta1
        t1 = _dd_mul_f(a_dd[n], m1 / n + theta + sigma)
        t2 = _dd_mul_f(a_dd[n - 1], -sigma)
        s = _dd_add(t1, t2)
        nxt = _dd_mul_f(s, 1.0 / th1)
        a_dd.append(nxt)
        if nxt[0] < -1e-13 or nxt[0] > a_dd[n][0] + 1e-13:
            if forward_only:
                raise InstabilityDetected(
                    "star forward recursion left the positive decreasing cone"
                )
            a = _solve_star_banded(params, m1, K)
            tag = "star-banded"
            break
    else:
        a = np.array([x[0] for x in a_dd])
        tag = "star-forward-dd"

    p = a[:-1] - a[1:]
    p = _clip_negative(p, tag)
    res = 0.0
    for n in range(1, K):
        res = max(
            res,
            abs((m1 / n + theta + sigma) * a[n] - sigma * a[n - 1] - th1 * a[n + 1]),
        )
    return StationaryPmf(p, K, res, tag, extras={"p1_input": p1})


def _solve_star_banded(params: ModelParams, m1: float, K: int) -> np.ndarray:
    """Tails a_0..a_K from the two-sided tridiagonal system with a_K = 0."""
    sigma, th1, theta = params.sigma, params.theta1, params.theta
    n = np.arange(1, K, dtype=float)  # rows for the unknowns a_1..a_{K-1}
    a_unknown = _solve_three_term(
        np.full(K - 1, sigma), -(m1 / n + theta + sigma), np.full(K - 1, th1), 1.0
    )
    return np.concatenate([[1.0], a_unknown, [0.0]])


# ----------------------------------------------------------------------
# Zero measure: geometric closed form
# ----------------------------------------------------------------------


def crow_kimura_geometric(
    params: ModelParams, K: int | None = None
) -> tuple[float, StationaryPmf]:
    """Geometric stationary law of the zero-measure model.

    Returns (p, pmf) with P(L = n) = (1-p) p^(n-1); requires theta0 > 0 or
    theta1 > sigma.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    if not (th0 > 0 or th1 > sigma):
        raise NotPositiveRecurrent(
            "zero measure needs theta0 > 0 or theta1 > sigma for recurrence"
        )
    theta = params.theta
    if th1 == 0.0:
        p = sigma / (sigma + th0)
    else:
        disc = (sigma - theta) ** 2 + 4.0 * sigma * th0
        p = (sigma + theta - math.sqrt(disc)) / (2.0 * th1)
    if K is None:
        K = 1 if p == 0.0 else min(2**14, max(16, int(math.log(1e-17) / math.log(p)) + 1))
    n = np.arange(1, K + 1)
    probs = (1.0 - p) * p ** (n - 1.0)
    pmf = StationaryPmf(probs, K, 0.0, "crow-kimura-geometric", tail_mass=float(p**K))
    return p, pmf
