"""Reference routes written in the benchmark's own code.

Each function here recomputes a quantity the package computes, by a
route that shares no code with it: closed-form Beta merger coefficients
instead of quadrature, a dense assembly of the duality system from
scipy's log-beta, and the detailed-balance law of a birth-death chain
instead of a Gillespie path.  They are used only by the correctness
checks, outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaln, gammaln


def beta_cnk_table(a: float, b: float, mass: float, K: int) -> np.ndarray:
    """c[n, k] for 1 <= n < k <= K of the Beta(a, b) measure (zero elsewhere).

    c_{n,k} = M/(n B(a,b)) [sum_{l<n} (l+1) B(a, b+l)
                            - sum_{j=n+1}^{k-1} C(j, n-1) B(a+j-n-1, b+n)]
    """
    lb = betaln(a, b)
    c = np.zeros((K + 1, K + 1))
    ls = np.arange(K)
    anchor = np.cumsum((ls + 1.0) * np.exp(betaln(a, b + ls) - lb))  # anchor[n-1]
    for n in range(1, K):
        js = np.arange(n + 1, K)
        inc = np.exp(
            gammaln(js + 1.0) - gammaln(n) - gammaln(js - n + 2.0)
            + betaln(a + js - n - 1.0, b + n) - lb
        )
        row = anchor[n - 1] - np.concatenate([[0.0], np.cumsum(inc)])
        c[n, n + 1 : K + 1] = mass * row / n
    return c


def beta_cnk(a: float, b: float, mass: float, n: int, k: int) -> float:
    return float(beta_cnk_table(a, b, mass, k)[n, k])


def truncated_pmf(c: np.ndarray, m0: float, m1: float, sigma: float,
                  theta0: float, theta1: float) -> np.ndarray:
    """Stationary pmf p_1..p_K of the chain truncated at K = c.shape[0] - 1.

    Back-substitution of
      sigma p_n = (m0 (n+1)/2 + theta1) p_{n+1}
                  + sum_{k>n} (c_{n,k} + m1/n + theta0) p_k,   p_{K+1} = 0.
    """
    K = c.shape[0] - 1
    p = np.zeros(K + 2)
    p[K] = 1.0
    for n in range(K - 1, 0, -1):
        tail = np.dot(c[n, n + 1 : K + 1] + m1 / n + theta0, p[n + 1 : K + 1])
        p[n] = ((m0 * (n + 1) / 2.0 + theta1) * p[n + 1] + tail) / sigma
        if p[n] > 1e250:
            p[n:] /= p[n]
    probs = p[1 : K + 1]
    return probs / probs.sum()


def beta_pmf(a: float, b: float, mass: float, sigma: float, theta0: float,
             theta1: float, tol: float = 1e-10) -> np.ndarray:
    """Truncated Beta(a, b) pmf, K doubled from 32 until the head settles."""
    K, prev = 32, None
    while True:
        p = truncated_pmf(beta_cnk_table(a, b, mass, K), 0.0, 0.0, sigma, theta0, theta1)
        if prev is not None and np.max(np.abs(p[: prev.size] - prev)) < tol:
            return p
        if K >= 512:
            raise ArithmeticError("reference pmf did not settle by K = 512")
        prev, K = p, 2 * K


def merger_rate(kind: str, prm: dict, k: int, j: int) -> float:
    """lambda_{k,j} = int x^(j-2) (1-x)^(k-j) Lambda(dx) for the families used."""
    if kind == "kingman":
        return prm["m0"] if j == 2 else 0.0
    if kind == "uniform":
        return prm["c"] * math.exp(betaln(j - 1.0, k - j + 1.0))
    if kind == "beta":
        a, b = prm["a"], prm["b"]
        return prm["mass"] * math.exp(betaln(a + j - 2.0, b + k - j) - betaln(a, b))
    if kind == "zero":
        return 0.0
    raise ValueError(kind)


def w_moments(kind: str, prm: dict, sigma: float, theta0: float, theta1: float,
              K: int) -> np.ndarray:
    """w_0..w_K of the killed-ASG duality system with closure w_{K+1} = 0.

    Row n: (theta + sigma + g_n) w_n - theta1 w_{n-1} - sigma w_{n+1}
           - sum_{l<n} r_{n,l} w_l / n = 0, where r_{n,l} is the rate of an
    (n-l+1)-merger among n lines and g_n = sum_l r_{n,l} / n.
    """
    theta = theta0 + theta1
    A = np.zeros((K, K))
    rhs = np.zeros(K)
    for n in range(1, K + 1):
        r = np.array([math.comb(n, n - l + 1) * merger_rate(kind, prm, n, n - l + 1)
                      for l in range(1, n)])
        A[n - 1, n - 1] = theta + sigma + (r.sum() / n if n > 1 else 0.0)
        if n >= 2:
            A[n - 1, n - 2] -= theta1
            A[n - 1, : n - 1] -= r / n
        else:
            rhs[0] = theta1
        if n < K:
            A[n - 1, n] -= sigma
    return np.concatenate([[1.0], np.linalg.solve(A, rhs)])


def moran_x_stationary(N: int, s: float, u0: float, u1: float) -> np.ndarray:
    """Detailed-balance law of the Moran type-frequency chain on 0..N."""
    up = [k * (N - k) * (1.0 + s) / N + (N - k) * u0 for k in range(N)]
    down = [k * (N - k) / N + k * u1 for k in range(1, N + 1)]
    pi = np.cumprod(np.concatenate([[1.0], np.array(up) / np.array(down)]))
    return pi / pi.sum()


def zero_measure_w(sigma: float, theta0: float, theta1: float) -> float:
    """Base w of the zero-measure moments w_n = w^n: sigma w^2 - (theta+sigma) w + theta1 = 0."""
    t = theta0 + theta1 + sigma
    return (t - math.sqrt(t * t - 4.0 * sigma * theta1)) / (2.0 * sigma)


def geometric(rho: float, K: int) -> np.ndarray:
    n = np.arange(1, K + 1)
    return (1.0 - rho) * rho ** (n - 1.0)


def sup_distance(p: np.ndarray, q: np.ndarray) -> float:
    k = max(p.size, q.size)
    a = np.zeros(k)
    b = np.zeros(k)
    a[: p.size] = p
    b[: q.size] = q
    return float(np.max(np.abs(a - b)))


def tv(weights: dict, probs: np.ndarray, first_state: int) -> float:
    """Total variation between occupancy weights and a pmf indexed from first_state."""
    total = sum(weights.values())
    states = set(weights) | set(range(first_state, first_state + probs.size))
    out = 0.0
    for s in states:
        i = s - first_state
        ref = probs[i] if 0 <= i < probs.size else 0.0
        out += abs(weights.get(s, 0.0) / total - ref)
    return 0.5 * out
