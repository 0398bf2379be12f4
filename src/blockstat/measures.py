"""Finite measures on [0,1] driving the block counting models.

A measure is decomposed as m0*delta_0 + m1*delta_1 + interior part, the
interior being zero, a scaled uniform, a beta density, a finite atom list,
or a custom density.  Derived quantities: the multiple-merger rates
lambda_{k,j} and their rows, the critical selection strength
sigma_Lambda, the positive-recurrence test, and the tail coefficients
c_{n,k} of the stationary pmf recursion as partial sums of merger rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import betaln, psi, xlog1py, xlogy, zeta

from .errors import DomainError, IntegrabilityError, PreconditionViolated
from .specfun import adaptive_quad, quad_power_endpoints

ATOM_CAP = 10_000
BLOCK = 256  # rows per block of merger_blocks; atoms per block of Atoms.integrate
MergerBlock = tuple[int, np.ndarray]  # (k_lo, merger rows of k = k_lo..k_hi)
MAX_PANELS = 8192  # quadrature panel cap of the interior integrals


def _nonnegative(*values: float) -> bool:
    """Every value finite and >= 0; NaN fails."""
    return all(math.isfinite(v) and v >= 0 for v in values)


def _positive(*values: float) -> bool:
    """Every value finite and > 0; NaN fails."""
    return all(math.isfinite(v) and v > 0 for v in values)


# ----------------------------------------------------------------------
# Parameter records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Selection and mutation intensities of the infinite-population model."""

    sigma: float
    theta0: float = 0.0
    theta1: float = 0.0

    def __post_init__(self):
        if not _nonnegative(self.sigma, self.theta0, self.theta1):
            raise DomainError("sigma, theta0, theta1 must be finite and nonnegative")

    @property
    def theta(self) -> float:
        return self.theta0 + self.theta1


@dataclass(frozen=True)
class MoranParams:
    """Finite-population Moran model parameters."""

    N: int
    s: float
    u0: float = 0.0
    u1: float = 0.0

    def __post_init__(self):
        if not self.N >= 2:
            raise DomainError("Moran model needs N >= 2")
        if not _positive(self.s):
            raise DomainError("Moran selection s must be finite and positive")
        if not _nonnegative(self.u0, self.u1):
            raise DomainError("mutation rates must be finite and nonnegative")

    @property
    def u(self) -> float:
        return self.u0 + self.u1


# ----------------------------------------------------------------------
# Interior parts
# ----------------------------------------------------------------------


# Each kind has integrate(f, tol): the integral of f against it over (0,1),
# to absolute tolerance tol.  f maps a grid of shape (n,) to shape (n,),
# or to (m, n) for m integrands at once, as in adaptive_quad.
Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Zero:
    def mass(self) -> float:
        return 0.0

    def integrate(self, f: Integrand, tol: float = 1e-12) -> float | np.ndarray:
        return 0.0


@dataclass(frozen=True)
class UniformScaled:
    c: float = 1.0

    def __post_init__(self):
        if not _positive(self.c):
            raise DomainError("uniform interior needs a finite c > 0")

    def mass(self) -> float:
        return self.c

    def integrate(self, f: Integrand, tol: float = 1e-12) -> float | np.ndarray:
        return self.c * adaptive_quad(f, 0.0, 1.0, tol=tol, max_panels=MAX_PANELS)


@dataclass(frozen=True)
class BetaDensity:
    a: float
    b: float
    total_mass: float = 1.0

    def __post_init__(self):
        if not _positive(self.a, self.b, self.total_mass):
            raise DomainError("beta interior needs finite a, b, total_mass > 0")

    def mass(self) -> float:
        return self.total_mass

    def density(self, x: np.ndarray) -> np.ndarray:
        lognorm = math.log(self.total_mass) - betaln(self.a, self.b)
        # 0 log(0) = 0 in xlogy and xlog1py: finite or inf at the endpoints, no warning
        return np.exp(lognorm + xlogy(self.a - 1, x) + xlog1py(self.b - 1, -x))

    def integrate(self, f: Integrand, tol: float = 1e-12) -> float | np.ndarray:
        # the endpoint powers x^(a-1) (1-x)^(b-1) go to quad_power_endpoints,
        # which substitutes a singular one (a < 1 or b < 1) away
        norm = self.total_mass * math.exp(-betaln(self.a, self.b))
        return norm * quad_power_endpoints(f, 0.0, 1.0, self.a - 1.0, self.b - 1.0, tol=tol / norm)


@dataclass(frozen=True)
class Atoms:
    locations: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        xs, ms = self.xs, self.ms
        if xs.size != ms.size:
            raise DomainError("atom locations and masses must align")
        if xs.size > ATOM_CAP:
            raise DomainError(f"atom list exceeds the cap of {ATOM_CAP}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ms))):
            raise DomainError("atom locations and masses must be finite")
        if xs.size and (np.any(xs <= 0) or np.any(xs >= 1)):
            raise DomainError("atom locations must lie strictly inside (0,1)")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("atom locations must be strictly increasing")
        if np.any(ms <= 0):
            raise DomainError("atom masses must be positive")

    def mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def xs(self) -> np.ndarray:
        return np.asarray(self.locations, dtype=float)

    @property
    def ms(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)

    def integrate(self, f: Integrand, tol: float = 1e-12) -> float | np.ndarray:
        # blocks of atoms bound a vector-valued f's table at (m, BLOCK)
        xs, ms = self.xs, self.ms
        return sum(
            (f(xs[i : i + BLOCK]) @ ms[i : i + BLOCK] for i in range(0, xs.size, BLOCK)),
            0.0,
        )


@dataclass(frozen=True)
class CustomDensity:
    """Density handle on (0,1); integrability near the endpoints is probed
    numerically on dyadic shells rather than trusted."""

    density: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def mass(self) -> float:
        return _dyadic_integral(self.density, lambda t: self.density(1.0 - t))

    def integrate(self, f: Integrand, tol: float = 1e-12) -> float | np.ndarray:
        def integrand(x):
            # a node rounded to 1.0 (or a density pole, 0 * inf)
            # gives NaN, which adaptive_quad rejects
            with np.errstate(divide="ignore", invalid="ignore"):
                return f(x) * self.density(x)

        return adaptive_quad(integrand, 0.0, 1.0, tol=tol, max_panels=MAX_PANELS)


InteriorPart = Zero | UniformScaled | BetaDensity | Atoms | CustomDensity


def _dyadic_integral(f: Integrand, g: Integrand, cap: float = 1e12) -> float:
    """Integral of f plus that of g over (0, 1/2], by dyadic shells toward 0.

    An integral over (0,1) passes its right half as g(t) = f(1 - t): the
    endpoint 1 is then approached in t, where doubles still resolve it,
    while nodes x near 1 round to 1.0.  Returns +inf when partial sums
    exceed the divergence cap, or grow linearly: an integrand ~ c/x adds
    c log 2 per shell, and two equal nonzero shells (to 1e-9) show it.
    Past x = 2^-40, never above it, a shell below 1e-15 of the total ends it.
    """
    total = adaptive_quad(f, 0.25, 0.5, tol=1e-13) + adaptive_quad(g, 0.25, 0.5, tol=1e-13)
    lo = 0.25
    prev = math.nan
    for _ in range(200):
        shell = sum(adaptive_quad(h, lo / 2.0, lo, tol=1e-14) for h in (f, g))
        total += shell
        if total > cap:
            return math.inf
        lo /= 2.0
        if lo <= 2.0**-40 and abs(shell) <= 1e-15 * abs(total):
            return total
        if shell != 0.0 and abs(shell - prev) <= 1e-9 * abs(shell):
            return math.inf
        prev = shell
    raise IntegrabilityError("dyadic shell integration did not settle")


# ----------------------------------------------------------------------
# The measure itself
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaMeasure:
    """Finite measure m0*delta_0 + m1*delta_1 + interior on (0,1)."""

    m0: float = 0.0
    m1: float = 0.0
    interior: InteriorPart = field(default_factory=Zero)

    def __post_init__(self):
        if not _nonnegative(self.m0, self.m1):
            raise DomainError("endpoint atom masses must be finite and nonnegative")

    def total_mass(self) -> float:
        return self.m0 + self.m1 + self.interior.mass()

    def is_zero(self) -> bool:
        return self.m0 == 0.0 and self.m1 == 0.0 and isinstance(self.interior, Zero)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def kingman(m0: float = 2.0) -> "LambdaMeasure":
        return LambdaMeasure(m0=m0)

    @staticmethod
    def star(m1: float = 1.0) -> "LambdaMeasure":
        return LambdaMeasure(m1=m1)

    @staticmethod
    def uniform(c: float = 1.0) -> "LambdaMeasure":
        return LambdaMeasure(interior=UniformScaled(c))

    @staticmethod
    def beta(a: float, b: float, total_mass: float = 1.0) -> "LambdaMeasure":
        return LambdaMeasure(interior=BetaDensity(a, b, total_mass))

    @staticmethod
    def beta31(total_mass: float = 1.0) -> "LambdaMeasure":
        """The density 3*x^2 (times total_mass) on (0,1)."""
        return LambdaMeasure(interior=BetaDensity(3.0, 1.0, total_mass))

    @staticmethod
    def crow_kimura() -> "LambdaMeasure":
        return LambdaMeasure()

    @staticmethod
    def from_atoms(
        locations: Sequence[float], masses: Sequence[float]
    ) -> "LambdaMeasure":
        xs = np.asarray(locations, dtype=float)
        ms = np.asarray(masses, dtype=float)
        if xs.shape != ms.shape:
            raise DomainError("atom locations and masses must align")
        order = np.argsort(xs)
        atoms = Atoms(tuple(xs[order].tolist()), tuple(ms[order].tolist()))
        return LambdaMeasure(interior=atoms)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        if isinstance(self.interior, Zero):
            inner = {"type": "zero"}
        elif isinstance(self.interior, UniformScaled):
            inner = {"type": "uniform", "c": self.interior.c}
        elif isinstance(self.interior, BetaDensity):
            inner = {
                "type": "beta",
                "a": self.interior.a,
                "b": self.interior.b,
                "mass": self.interior.total_mass,
            }
        elif isinstance(self.interior, Atoms):
            inner = {
                "type": "atoms",
                "atoms": [
                    [x, m]
                    for x, m in zip(self.interior.locations, self.interior.masses)
                ],
            }
        else:
            raise DomainError("custom densities are not serialisable")
        return {"m0": self.m0, "m1": self.m1, "interior": inner}

    @staticmethod
    def from_dict(d: dict) -> "LambdaMeasure":
        """Inverse of to_dict; a malformed spec raises DomainError."""
        try:
            inner = d.get("interior", {"type": "zero"})
            kind = inner.get("type", "zero")
            if kind == "zero":
                interior: InteriorPart = Zero()
            elif kind == "uniform":
                interior = UniformScaled(float(inner.get("c", 1.0)))
            elif kind == "beta":
                interior = BetaDensity(
                    float(inner["a"]), float(inner["b"]), float(inner.get("mass", 1.0))
                )
            elif kind == "atoms":
                pairs = sorted((float(x), float(m)) for x, m in inner["atoms"])
                interior = Atoms(
                    tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
                )
            else:
                raise DomainError(f"unknown interior type {kind!r}")
            m0, m1 = float(d.get("m0", 0.0)), float(d.get("m1", 0.0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed measure spec: {exc!r}") from exc
        return LambdaMeasure(m0=m0, m1=m1, interior=interior)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "LambdaMeasure":
        return LambdaMeasure.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Merger rates lambda_{k,j} = int x^(j-2) (1-x)^(k-j) Lambda(dx)
# ----------------------------------------------------------------------


def lambda_rate(measure: LambdaMeasure, k: int, j: int) -> float:
    """Rate factor of a j-merger among k blocks, 2 <= j <= k.

    The atom at 0 contributes only to j = 2, the atom at 1 only to j = k;
    beta interiors reduce to a ratio of beta functions.
    """
    if not 2 <= j <= k:
        raise DomainError("lambda_rate needs 2 <= j <= k")
    out = 0.0
    if j == 2:
        out += measure.m0
    if j == k:
        out += measure.m1
    interior = measure.interior
    if isinstance(interior, UniformScaled):
        out += interior.c * math.exp(betaln(j - 1, k - j + 1))
    elif isinstance(interior, BetaDensity):
        a, b = interior.a, interior.b
        out += interior.total_mass * math.exp(
            betaln(a + j - 2, b + k - j) - betaln(a, b)
        )
    else:
        out += interior.integrate(
            lambda x: np.power(x, j - 2) * np.power(1.0 - x, k - j), tol=1e-13
        )
    return out


def merger_rows(measure: LambdaMeasure, k_lo: int, k_hi: int) -> np.ndarray:
    """Merger rows of k = k_lo..k_hi as one zero-padded block.

    rows[k-k_lo, l-1] is the rate binom(k, j) lambda_{k,j} of the jump
    k -> l, l = 1..k-1, by which j = k-l+1 blocks merge into one; entries
    l >= k, and rows k < 2, are zero.  The rows are the blocks of
    merger_blocks(measure, k_hi, k_lo), so atom and custom-density rows
    step down from the one direct row k_hi.
    """
    rows = None
    for lo, block in merger_blocks(measure, k_hi, k_lo if k_lo > 2 else 2):
        if rows is None:  # a first block that spans the range is the table
            rows = block if lo == k_lo else np.zeros((k_hi - k_lo + 1, k_hi - 1))
        if rows is not block:
            rows[lo - k_lo : lo - k_lo + len(block), : block.shape[1]] = block
    return np.zeros((k_hi - k_lo + 1, max(k_hi - 1, 0))) if rows is None else rows


def _uniform_rows(interior: UniformScaled, k_lo: int, k_hi: int, out: np.ndarray) -> None:
    # in place on out and d, so a block needs one temporary of its size
    k = np.arange(float(k_lo), k_hi + 1)[:, None]
    d = k - np.arange(1.0, k_hi)  # k - l
    np.add(d, 1.0, out=out)
    out *= d
    if k_hi > k_lo:
        out[d < 1.0] = np.inf  # the padding l >= k of rows k < k_hi
    np.divide(interior.c * k, out, out=out)


def _beta_rows(interior: BetaDensity, k_lo: int, k_hi: int, out: np.ndarray) -> None:
    a, b = interior.a, interior.b
    i = np.arange(k_hi - 2, dtype=np.longdouble)
    ratio = np.empty(k_hi - 1, dtype=np.longdouble)
    ratio[0] = 1.0
    np.divide(a + i, a + b + i, out=ratio[1:])
    q = np.cumprod(ratio)[k_lo - 2 :]  # B(a+k-2, b) / B(a, b)
    first = interior.total_mass * q
    # the term ratios (d+1)((l-1)+b) / (((d-2)+a) l), d = k - l; integer
    # parts (exact in doubles) are summed before a or b joins them, else
    # (a+k) - l - 2 cancels.  The d-factors depend on k - l alone, so
    # they are Hankel views (rows k = k_hi..k_lo) of vectors over
    # d = k_hi-1, k_hi-2, ...
    m, w = out.shape[0], k_hi - 2
    if w:
        d = np.arange(k_hi - 1.0, k_hi - m - w, -1.0)
        ell = np.arange(1.0, k_hi - 1)
        num = d + 1.0
        if m > 1:
            # a zero ratio at l = k-1 starts the padding of rows k < k_hi,
            # and d >= 2 keeps the denominators beyond it positive
            num[k_hi - 2] = 0.0
            np.maximum(d, 2.0, out=d)
        d -= 2.0
        d += a
        step = (d.itemsize, d.itemsize)
        flipped = out[::-1, 1:]
        np.multiply(np.ndarray((m, w), d.dtype, num, 0, step), (ell - 1.0) + b, out=flipped)
        flipped /= np.multiply(np.ndarray((m, w), d.dtype, d, 0, step), ell)
    out[:, 0] = first
    # from a first rate this small a row could leave the double range, so
    # its product runs in long double; q falls with k, so the last row
    # is the first to need it
    tiny = None
    if q[-1] < 1e-250:
        tiny = q < 1e-250
        small = np.cumprod(np.concatenate((first[tiny, None], out[tiny, 1:]), axis=1), axis=1)
    np.cumprod(out, axis=1, out=out)
    if tiny is not None:
        out[tiny] = small


def _log_space_row(interior: Atoms | CustomDensity, k: int) -> np.ndarray:
    j = k + 1.0 - np.arange(1, k)
    log_binom = -math.log(k + 1.0) - betaln(j + 1.0, k - j + 1.0)

    def table(x):
        """binom(k, j) x^(j-2) (1-x)^(k-j), shape (k-1, x.size)."""
        return np.exp(
            log_binom[:, None]
            + (j[:, None] - 2.0) * np.log(x)
            + (k - j[:, None]) * np.log1p(-x)
        )

    return interior.integrate(table, tol=1e-13)


def merger_row(measure: LambdaMeasure, k: int) -> np.ndarray:
    """Rates of the jumps k -> l for l = 1..k-1: one row of merger_rows."""
    return merger_rows(measure, k, k)[0]


def merger_blocks(measure: LambdaMeasure, k_top: int, k_bottom: int = 2) -> Iterator[MergerBlock]:
    """Merger rows in blocks (k_lo, rows of k = k_lo..k_hi) of at most BLOCK
    rows, zero-padded like merger_rows, from k_top down to k_bottom >= 2.

    A uniform interior gives c k / ((k-l)(k-l+1)).  A Beta(a, b) interior
    gives M binom(k, j) B(a+j-2, b+k-j) / B(a, b): the first rate
    M B(a+k-2, b) / B(a, b) is a product of k-2 ratios in np.longdouble
    (one cumulative product serves every k), the others follow by the
    term ratios r_{l+1} / r_l = (k-l+1) (l-1+b) / (l (k-l-2+a)) in doubles.
    Atoms and custom densities build the row k_top alone, a one-row block,
    with the binomial in log space, -log(k+1) - betaln(j+1, k-j+1), so it
    does not overflow at any k: a table over l reduced with the masses, or
    one vector-valued integral.  Every lower row steps down from it by the
    Pascal recurrence (_pascal_rows), each block from the bottom row of
    the block above.  The atom at 0 adds m0 binom(k, 2) at l = k-1, the
    atom at 1 adds m1 at l = 1, to each row built directly; the
    recurrence carries them down.
    """
    interior = measure.interior
    carry = None
    if k_top > k_bottom and isinstance(interior, (Atoms, CustomDensity)):
        carry = merger_row(measure, k_top)  # the one direct row, a block of its own
    for k_hi in range(k_top, k_bottom - 1, -BLOCK):
        k_lo = k_bottom if k_hi - k_bottom < BLOCK else k_hi + 1 - BLOCK
        if carry is None:
            rows = np.zeros((k_hi - k_lo + 1, k_hi - 1))
            if isinstance(interior, UniformScaled):
                _uniform_rows(interior, k_lo, k_hi, rows)
            elif isinstance(interior, BetaDensity):
                _beta_rows(interior, k_lo, k_hi, rows)
            elif not isinstance(interior, Zero):  # atoms or a custom density, k_lo = k_top
                rows[0] = _log_space_row(interior, k_top)
            # item access beats a strided array operation on the simulators' one-row blocks
            for i in range(len(rows) if measure.m0 else 0):
                rows[i, k_lo + i - 2] += measure.m0 * math.comb(k_lo + i, 2)
            for i in range(len(rows) if measure.m1 else 0):
                rows[i, 0] += measure.m1
        else:
            # carry is row k_top, then the bottom row k_hi + 1 of the block above
            rows = _pascal_rows(carry, k_lo)[: k_hi - k_lo + 1, : k_hi - 1]
            carry = rows[0, : k_lo - 1].copy()
        yield k_lo, rows


def _pascal_rows(row: np.ndarray, k_lo: int) -> np.ndarray:
    """merger_rows(measure, k_lo, k) from row = merger_row(measure, k) alone.

    lambda_{k-1,j} = lambda_{k,j} + lambda_{k,j+1} holds for every measure,
    the atoms at 0 and 1 included, so with r_{k->l} = binom(k, j)
    lambda_{k,j}, j = k-l+1, the rows step down by
        r_{k-1->l} = (l r_{k->l+1} + (k-l+1) r_{k->l}) / k,   l = 1..k-2,
    with two positive weights: the step is subtraction-free and adds a
    few ulp (about 3u) of relative error to the error of the given row,
    so a row m steps below k is within about the given row's error plus
    3u m of the row built directly.  The block is zero-padded like
    merger_rows, with the given row last.
    """
    k = row.size + 1
    rows = np.zeros((k - k_lo + 1, k - 1))
    rows[-1] = row
    ell = np.arange(1.0, k - 1)
    right = np.arange(float(k), 2.0, -1.0)  # k-l+1 at l = 1..k-2 of row k
    tmp = np.empty(k - 2)
    for i in range(k - k_lo, 0, -1):
        kk = k_lo + i  # rows[i] is row kk, rows[i-1] gets row kk-1
        src, dst, t = rows[i, : kk - 1], rows[i - 1, : kk - 2], tmp[: kk - 2]
        np.multiply(ell[: kk - 2], src[1:], out=dst)
        np.multiply(right[k - kk :], src[:-1], out=t)
        dst += t
        dst /= kk
    return rows


# ----------------------------------------------------------------------
# sigma_Lambda = -int log(1-x) x^-2 Lambda(dx)
# ----------------------------------------------------------------------


def sigma_lambda(measure: LambdaMeasure) -> float:
    """Critical selection strength; +inf signals certain positive recurrence.

    The atom at 0 contributes +inf (the integrand behaves like 1/x there),
    as does the atom at 1 (log divergence); interior densities that are
    too heavy near 0 are reported as +inf as well.

    A Beta(a, b) interior of mass M has, for a > 1, the closed form
        sigma_Lambda = M B(a-2, b) (psi(a+b-2) - psi(b)) / B(a, b)
                     = M (a+b-1)/(a-1) * x (psi(x) - psi(b)) / p,
    with p = a-2 and x = a+b-2 = b+p; its limit at a = 2 is
    M b(b+1) psi'(b), and a <= 1 gives +inf.  For |p| < b/10 the divided
    difference (psi(b+p) - psi(b))/p is summed as its Taylor series
    sum_m (-p)^m zeta(m+2, b) (terms fall like 10^-m), which avoids the
    cancellation near a = 2; otherwise x psi(x) is evaluated as
    x psi(x+1) - 1, finite through a + b = 2.  Both agree with a 50-digit
    mpmath evaluation to within 2e-15 relative.
    """
    if measure.m0 > 0 or measure.m1 > 0:
        return math.inf
    interior = measure.interior
    if isinstance(interior, Zero):
        return 0.0
    if isinstance(interior, UniformScaled):
        return math.inf  # integrand ~ c/x near 0
    if isinstance(interior, BetaDensity):
        a, b, mass = interior.a, interior.b, interior.total_mass
        if a <= 1.0:
            return math.inf
        p, x = a - 2.0, a + b - 2.0
        if abs(p) < 0.1 * b:
            xd = x * float(np.polynomial.polynomial.polyval(-p, zeta(np.arange(2.0, 18.0), b)))
        else:
            xd = (x * float(psi(x + 1.0) - psi(b)) - 1.0) / p
        return mass * (a + b - 1.0) / (a - 1.0) * xd

    def f(x):
        return -np.log1p(-x) / x**2

    if isinstance(interior, Atoms):
        return float(interior.integrate(f))
    # -log(1-x) near x = 1 is taken as -log(t) in t = 1 - x
    return _dyadic_integral(
        lambda x: f(x) * interior.density(x),
        lambda t: -np.log(t) / (1.0 - t) ** 2 * interior.density(1.0 - t),
    )


@dataclass(frozen=True)
class RecurrenceReport:
    recurrent: bool
    clause: str
    sigma_lambda: float

    def __bool__(self) -> bool:
        return self.recurrent


def is_positive_recurrent(
    measure: LambdaMeasure, params: ModelParams
) -> RecurrenceReport:
    """Sufficient positive-recurrence test; sharp for the zero measure.

    For Lambda == 0 the criterion is exact: theta0 > 0, or theta0 = 0 and
    theta1 > sigma.  Otherwise theta0 > 0 or sigma < sigma_Lambda + theta1
    is sufficient only, so a False answer means "not established".
    """
    if params.sigma <= 0:
        raise PreconditionViolated("positive recurrence test assumes sigma > 0")
    if measure.is_zero():
        if params.theta0 > 0:
            return RecurrenceReport(True, "theta0 > 0", 0.0)
        if params.theta1 > params.sigma:
            return RecurrenceReport(True, "theta1 > sigma (exact zero-measure criterion)", 0.0)
        return RecurrenceReport(
            False, "zero measure with theta0 = 0 and theta1 <= sigma", 0.0
        )
    if params.theta0 > 0:
        return RecurrenceReport(True, "theta0 > 0", math.nan)
    sl = sigma_lambda(measure)
    if params.sigma < sl + params.theta1:
        return RecurrenceReport(True, "sigma < sigma_Lambda + theta1", sl)
    return RecurrenceReport(
        False, "sufficient condition sigma < sigma_Lambda + theta1 fails", sl
    )


# ----------------------------------------------------------------------
# c_{n,k}: tail coefficients of the pmf recursion
# ----------------------------------------------------------------------


def cnk(measure: LambdaMeasure, n: int, k: int) -> float:
    """Coefficient c_{n,k} (k > n >= 1) of the stationary pmf recursion.

    n c_{n,k} is the rate at which the interior of the measure takes k
    blocks to n or fewer, so c_{n,k} = (1/n) sum_{l<=n} r_{k->l} with
    r_{k->l} the interior part of merger_row(measure, k).  Every term is
    nonnegative.  For Beta(a, b) interiors the error contract is: relative
    error <= 1e-12 wherever c_{n,k} >= 1e-2 c_{n,n+1}, and absolute error
    <= 1e-14 c_{n,n+1} everywhere, checked against a 40-digit 3F2
    evaluation for a in [0.3, 5], b in [0.3, 6], n <= 64, k <= 1024.
    """
    if not k > n >= 1:
        raise DomainError("cnk needs k > n >= 1")
    return float(np.sum(merger_row(LambdaMeasure(interior=measure.interior), k)[:n])) / n
