"""Geometric-law toolkit: Moebius dynamics, the measure operator, and
fixed-point measures.

A stationary block-count law is geometric with parameter 1-rho exactly
when the measure has no endpoint atoms and satisfies a pushforward
identity (cg3a) together with a scalar normalisation (cg3b).  The
involution phi(x) = (1-x)/(1-rho x) transports such measures to fixed
points of the operator S mu = rho y (2 - rho y) mu + (1-rho) mu o phi^-1,
whose discrete fixed points are built here explicitly.

check_geometric integrates every condition as a row of one vector-valued
integral against the measure: cg3a as the difference of its two sides,
cg3b, and the cg1 bracket written as a sum of nonnegative terms, which
keeps its relative accuracy near x = 0, where the bracket vanishes like
x^2, and at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionViolated
from .measures import Atoms, BetaDensity, LambdaMeasure, ModelParams, UniformScaled, Zero
from .specfun import bracketed_root
from .textio import write_csv


def phi_big(rho: float, x):
    """The involution (1-x)/(1-rho x); its own inverse."""
    return (1.0 - x) / (1.0 - rho * x)


def phi_small(rho: float, x):
    """The contraction (1-rho) x / (1-rho x) toward 0."""
    return (1.0 - rho) * x / (1.0 - rho * x)


def phi_iterate(rho: float, x, n: int):
    """n-th iterate of phi_small (negative n gives the inverse iterates)."""
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0,1)")
    if n == 0:
        return x + 0.0
    if n > 0:
        q = (1.0 - rho) ** n
        return q * x / (1.0 - x * (1.0 - q))
    q = (1.0 - rho) ** (-n)
    return x / (q + x * (1.0 - q))


@dataclass(frozen=True)
class MobiusInvolution:
    """phi(x) = (1-x)/(1-rho x) with phi(phi(x)) = x."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (0,1)")

    def __call__(self, x):
        return phi_big(self.rho, x)


# ----------------------------------------------------------------------
# Atomic measures on (0,1)
# ----------------------------------------------------------------------


@dataclass
class AtomicMeasure:
    """Countable atom list on (0,1), ordered by the orbit index k.

    locations[i] = phi_small^(ks[i])(x0); tail_bound covers the mass of
    the omitted |k| > K atoms.
    """

    ks: np.ndarray
    locations: np.ndarray
    masses: np.ndarray
    truncation_index_K: int
    tail_bound: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.masses <= 0):
            raise DomainError("atom masses must be positive")
        if np.any((self.locations <= 0) | (self.locations >= 1)):
            raise DomainError("atom locations must lie in (0,1)")
        order = np.argsort(self.locations)
        diffs = np.diff(self.locations[order])
        if np.any(diffs == 0):
            raise DomainError("atom locations must be distinct")

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def moment(self, j: int) -> float:
        return float(np.dot(self.locations**j, self.masses))

    def to_csv(self, path: str) -> None:
        write_csv(path, ("k", "location", "mass"), (self.ks, self.locations, self.masses))


def build_discrete_fixed_point(
    rho: float, x0: float, m0_mass: float, K: int | None = None
) -> AtomicMeasure:
    """Fixed-point atom family of the measure operator at parameter rho.

    Atoms sit on the phi orbit of x0 with masses
      m_k  = (1-rho)^k (1-rho x0)^2 m0 / (1 - x0 (1-(1-rho)^(k+1)))^2
      m_-k = (1-rho)^(k-2) (1-rho x0)^2 m0 / ((1-rho)^(k-1) + x0 (1-(1-rho)^(k-1)))^2
    which decay geometrically at rate (1-rho) on both sides.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0,1)")
    if not (0.0 < x0 < 1.0 and 0.0 < m0_mass < math.inf):
        raise DomainError("x0 in (0,1) and a finite m0_mass > 0 required")
    if K is None:
        K = max(16, int(math.ceil(math.log(1e-12) / math.log(1.0 - rho))))
    q = 1.0 - rho
    c2 = (1.0 - rho * x0) ** 2 * m0_mass

    def mass_pos(k: int) -> float:
        return q**k * c2 / (1.0 - x0 * (1.0 - q ** (k + 1))) ** 2

    def mass_neg(k: int) -> float:
        return q ** (k - 2) * c2 / (q ** (k - 1) + x0 * (1.0 - q ** (k - 1))) ** 2

    # each side walks the orbit from x0 and then sums its tail bound, which
    # runs on across the sides.  Orbit iterates collapse onto the endpoints
    # once (1-rho)^k falls below the floating-point resolution; such atoms
    # carry mass < 1e-16 m0 and are folded into the tail bound instead of
    # being stored.  Toward 1 the walk also stops before orbit gaps fall
    # under the atom-merge resolution.
    atoms: list[tuple[int, float, float]] = [(0, x0, m0_mass)]
    k_end, tail = 0, 0.0
    for sign, mass, min_gap in ((1, mass_pos, 0.0), (-1, mass_neg, 5e-12)):
        end, prev = K, x0
        for k in range(1, K + 1):
            loc, m = phi_iterate(rho, x0, sign * k), mass(k)
            gap = sign * (prev - loc)
            if not (0.0 < loc < 1.0 and gap > 0.0 and gap >= min_gap) or m < 1e-290:
                end = k - 1
                break
            atoms.append((sign * k, loc, m))
            prev = loc
        for k in range(end + 1, end + 4001):
            t = mass(k)
            tail += t
            if t < 1e-22 * (m0_mass + tail):
                break
        k_end = max(k_end, end)

    ks, locs, masses = (np.array(column) for column in zip(*sorted(atoms)))
    return AtomicMeasure(
        ks, locs, masses, k_end, tail, meta={"rho": rho, "x0": x0, "requested_K": K}
    )


def apply_S(
    mu: AtomicMeasure | Callable[[np.ndarray], np.ndarray], rho: float
):
    """One application of the measure operator.

    S mu(dy) = rho y (2 - rho y) mu(dy) + (1-rho) (mu o phi_small^-1)(dy);
    atoms map to pairs (y, rho y (2-rho y) m) and (phi_small(y), (1-rho) m),
    merged when locations coincide; densities transform with the exact
    change-of-variables Jacobian.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0,1)")
    if callable(mu):
        h = mu

        def s_density(y):
            y = np.asarray(y, dtype=float)
            pre = phi_iterate(rho, y, -1)
            jac = (1.0 - rho) / ((1.0 - rho) + rho * y) ** 2
            return rho * y * (2.0 - rho * y) * h(y) + (1.0 - rho) * h(pre) * jac

        return s_density

    stay_loc = mu.locations
    stay_mass = rho * stay_loc * (2.0 - rho * stay_loc) * mu.masses
    push_loc = phi_small(rho, stay_loc)
    push_mass = (1.0 - rho) * mu.masses
    locs = np.concatenate([stay_loc, push_loc])
    mass = np.concatenate([stay_mass, push_mass])
    ks = np.concatenate([mu.ks, mu.ks + 1])
    order = np.argsort(locs)
    locs, mass, ks = locs[order], mass[order], ks[order]
    out_loc: list[float] = []
    out_mass: list[float] = []
    out_k: list[int] = []
    for x, m, k in zip(locs, mass, ks):
        if out_loc and abs(x - out_loc[-1]) <= 1e-12 * max(abs(x), 1e-300):
            out_mass[-1] += m
        else:
            out_loc.append(float(x))
            out_mass.append(float(m))
            out_k.append(int(k))
    return AtomicMeasure(
        np.array(out_k),
        np.array(out_loc),
        np.array(out_mass),
        mu.truncation_index_K + 1,
        mu.tail_bound,
        meta=dict(mu.meta),
    )


def rho_star(x0: float, m0_mass: float, params: ModelParams) -> float:
    """Unique root in (0,1) of
    m0 (1 - rho x0)^2 - x0 (1-x0) (theta1 rho^2 - (sigma+theta) rho + sigma).

    Requires m0_mass < sigma x0 (1-x0) so the endpoint signs bracket a root.
    """
    sigma, theta, th1 = params.sigma, params.theta, params.theta1
    if not (0.0 < x0 < 1.0 and 0.0 <= m0_mass < math.inf):
        raise DomainError("x0 in (0,1) and a finite m0_mass >= 0 required")
    if m0_mass >= sigma * x0 * (1.0 - x0):
        raise PreconditionViolated(
            "need m0_mass < sigma x0 (1-x0) for a root in (0,1)"
        )

    def r(z: float) -> float:
        return m0_mass * (1.0 - z * x0) ** 2 - x0 * (1.0 - x0) * (
            th1 * z * z - (sigma + theta) * z + sigma
        )

    def dr(z: float) -> float:
        return -2.0 * x0 * m0_mass * (1.0 - z * x0) - x0 * (1.0 - x0) * (
            2.0 * th1 * z - sigma - theta
        )

    return bracketed_root(r, dr, 0.0, 1.0)


def pushforward_to_lambda(mu: AtomicMeasure, rho: float) -> LambdaMeasure:
    """Transport an atomic fixed point through the involution phi_big.

    Atoms (x, m) map to (phi_big(x), m); the result is the coalescence
    measure whose stationary block-count law is Geom(1-rho).
    """
    locs = phi_big(rho, mu.locations)
    return LambdaMeasure.from_atoms(locs, mu.masses)


def fixed_point_sum_identity(mu: AtomicMeasure, rho: float) -> tuple[float, float]:
    """Numeric and closed value of sum_i m_i (1 - rho phi^(i)(x0)) / (1-rho).

    The closed form is m0 (1-rho x0)^2 / (rho (1-rho) x0 (1-x0)).
    """
    x0 = mu.meta.get("x0")
    if x0 is None:
        raise DomainError("measure was not built from an orbit (no x0 recorded)")
    m0 = float(mu.masses[mu.ks == 0][0])
    numeric = float(np.sum(mu.masses * (1.0 - rho * mu.locations) / (1.0 - rho)))
    closed = m0 * (1.0 - rho * x0) ** 2 / (rho * (1.0 - rho) * x0 * (1.0 - x0))
    return numeric, closed


# ----------------------------------------------------------------------
# Geometric-law conditions
# ----------------------------------------------------------------------


def _cg1_integrand(rho: float, x: np.ndarray) -> np.ndarray:
    """[(1-rho)(1-x)^n + rho - phi_big(x)^n] / x^2 on [0,1] (at 0 its limit)
    for n = 1..10, the rows of a (10, x.size) array.

    With y = 1 - rho x, b = 1-x and a = phi_big(x) = b/y, the bracket is
    rho (1-rho) x^2 / y (b S_n / y + G_n), where G_n = sum_{k<n} b^k,
    S_n = sum_{m<n-1} h_m and h_m = sum_{i+j=m} a^i b^j.  Every term is
    nonnegative, so nothing cancels, near x = 0 or anywhere else.
    """
    y = 1.0 - rho * x
    b = 1.0 - x
    a = b / y
    powers = b ** np.arange(10)[:, None]  # b^k, k = 0..9
    h = powers[:9].copy()
    for m in range(1, 9):
        h[m] += a * h[m - 1]  # h_m = a h_{m-1} + b^m
    s = np.zeros_like(powers)
    np.cumsum(h, axis=0, out=s[1:])
    return rho * (1.0 - rho) / y * (b / y * s + np.cumsum(powers, axis=0))


def _dust_free(measure: LambdaMeasure) -> bool | None:
    """Heuristic flag for int x^-1 Lambda_0(dx) = +inf (dust-free component)."""
    interior = measure.interior
    if isinstance(interior, Zero):
        return False
    if isinstance(interior, UniformScaled):
        return True
    if isinstance(interior, BetaDensity):
        return interior.a <= 1.0
    if isinstance(interior, Atoms):
        xs, ms = interior.xs, interior.ms
        if xs.size < 8:
            return False
        terms = (ms / xs)[np.argsort(xs)]
        head = terms[:4].mean()
        mid = terms[xs.size // 3 : xs.size // 3 + 4].mean()
        return bool(head >= 0.25 * mid)
    return None


@dataclass
class GeometricCheck:
    passed: bool
    reasons: list[str]
    rho: float
    cg3a_residuals: np.ndarray
    cg3b_residual: float
    cg1_residuals: np.ndarray
    dust_free: bool | None

    def __bool__(self) -> bool:
        return self.passed


def check_geometric(
    measure: LambdaMeasure,
    rho: float,
    n_max: int = 30,
    tol: float = 1e-8,
    params: ModelParams | None = None,
) -> GeometricCheck:
    """Test whether the stationary block-count law can be Geom(1-rho).

    Verifies the necessary endpoint conditions m0 = m1 = 0, the
    pushforward identities (cg3a) for n = 0..n_max, the scalar balance
    (cg3b) when model parameters are supplied, and (redundantly, the
    conditions are equivalent) the combined identity (cg1) for
    n = 1..10, reported only when the others hold.  All are rows of one
    integral.  The dust-free criterion is reported as a diagnostic flag.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0,1)")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must lie in (0, inf), not {tol}")
    reasons: list[str] = []
    if measure.m0 > 0.0:
        reasons.append("atom at 0 present (m0 > 0)")
    if measure.m1 > 0.0:
        reasons.append("atom at 1 present (m1 > 0)")

    # every condition is a row of one vector-valued integral: cg3a for
    # n = 0..n_max as one difference, then with params cg3b and cg1 for
    # n = 1..10
    ns = np.arange(0, n_max + 1)[:, None]

    def conditions(x):
        y = 1.0 - rho * x
        rows = [(1.0 - x) ** ns - (1.0 - rho) * ((1.0 - x) / y) ** ns / y**2]
        if params is not None:
            rows += [1.0 / y[None], _cg1_integrand(rho, x)]
        return np.concatenate(rows)

    n_rows = ns.size + (0 if params is None else 11)
    values = measure.interior.integrate(conditions) + np.zeros(n_rows)  # Zero gives a scalar 0
    cg3a = np.abs(values[: ns.size])
    if np.max(cg3a) > tol:
        reasons.append(f"cg3a residual {np.max(cg3a):.3e} exceeds {tol:.1e}")

    cg3b = math.nan
    cg1 = np.empty(0)
    if params is not None:
        # the reversed quadratic of the pgf equations at rho
        target = params.theta1 * rho**2 - (params.sigma + params.theta) * rho + params.sigma
        cg3b = abs(values[ns.size] - target / (rho * (1.0 - rho)))
        if cg3b > tol:
            reasons.append(f"cg3b residual {cg3b:.3e} exceeds {tol:.1e}")
        if not reasons:
            cg1 = np.abs(values[ns.size + 1 :] / np.arange(1, 11) - target)
            if np.max(cg1) > 10.0 * tol:
                reasons.append(f"cg1 residual {np.max(cg1):.3e} exceeds {10 * tol:.1e}")

    return GeometricCheck(
        passed=not reasons,
        reasons=reasons,
        rho=rho,
        cg3a_residuals=cg3a,
        cg3b_residual=cg3b,
        cg1_residuals=cg1,
        dust_free=_dust_free(measure),
    )
