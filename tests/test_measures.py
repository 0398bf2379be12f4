"""Measures: merger rates, critical selection strength, tail coefficients."""

import json
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln

from blockstat.errors import DomainError, PreconditionViolated, QuadratureFailure
from blockstat.geomfix import build_discrete_fixed_point, pushforward_to_lambda, rho_star
from blockstat.measures import (
    BLOCK,
    Atoms,
    BetaDensity,
    CustomDensity,
    LambdaMeasure,
    ModelParams,
    MoranParams,
    UniformScaled,
    Zero,
    cnk,
    is_positive_recurrent,
    lambda_rate,
    merger_blocks,
    merger_row,
    merger_rows,
    sigma_lambda,
)
from blockstat.recursions import solve_lambda_truncated


def test_lambda_rate_endpoint_atoms():
    king = LambdaMeasure.kingman(1.0)
    assert lambda_rate(king, 5, 2) == 1.0
    assert lambda_rate(king, 5, 3) == 0.0
    star = LambdaMeasure.star(1.0)
    assert lambda_rate(star, 5, 5) == 1.0
    assert lambda_rate(star, 5, 4) == 0.0


def test_lambda_rate_uniform_beta():
    uni = LambdaMeasure.uniform(1.0)
    assert lambda_rate(uni, 4, 3) == pytest.approx(1 / 6, rel=1e-14)
    # beta closed form vs quadrature through a custom density
    a, b, mass = 1.7, 2.4, 0.8
    beta = LambdaMeasure.beta(a, b, mass)
    from blockstat.measures import CustomDensity

    custom = LambdaMeasure(
        interior=CustomDensity(lambda x: beta.interior.density(x))
    )
    for k, j in [(2, 2), (5, 3), (20, 11), (50, 50)]:
        assert lambda_rate(beta, k, j) == pytest.approx(
            lambda_rate(custom, k, j), abs=1e-12
        )


def test_lambda_rate_domain():
    with pytest.raises(DomainError):
        lambda_rate(LambdaMeasure.uniform(), 3, 1)


# int x^p (1-x)^q for (p, q) in 0..3 x 0..3, as one vector-valued integrand
_PQ = np.array([(p, q) for p in range(4) for q in range(4)], dtype=float)


def _moments(x):
    return np.power(x, _PQ[:, :1]) * np.power(1.0 - x, _PQ[:, 1:])


def test_integrate_beta_and_uniform_against_closed_moments():
    rng = np.random.default_rng(2024)
    p, q = _PQ.T

    def check_beta(a, b):
        mass = rng.uniform(0.2, 3.0)
        got = BetaDensity(a, b, mass).integrate(_moments, tol=1e-13)
        exact = mass * np.exp(betaln(a + p, b + q) - betaln(a, b))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13), (a, b)

    for _ in range(6):
        check_beta(*rng.uniform(1.0, 5.0, 2))
    c = rng.uniform(0.2, 3.0)
    powers = UniformScaled(c).integrate(lambda x: np.power(x, np.arange(6.0)[:, None]))
    assert powers == pytest.approx(c / np.arange(1.0, 7.0), rel=1e-13)
    assert Zero().integrate(_moments) == 0.0
    # a or b below 1: the density is singular at that endpoint
    for i in range(12):
        a, b = rng.uniform(0.3, 5.0, 2)
        if i % 2:
            a = rng.uniform(0.3, 1.0)
        else:
            b = rng.uniform(0.3, 1.0)
        check_beta(a, b)


def test_integrate_atoms_sums_every_block():
    rng = np.random.default_rng(2025)
    n = 3 * BLOCK + 17
    atoms = Atoms(tuple(np.sort(rng.uniform(0.0, 1.0, n))), tuple(rng.uniform(0.1, 1.0, n)))
    for p in range(4):
        exact = math.fsum(atoms.ms * atoms.xs**p)
        assert atoms.integrate(lambda x: x**p) == pytest.approx(exact, rel=1e-13)


def test_integrate_custom_density_matches_beta31():
    custom = CustomDensity(lambda x: 3.0 * x**2)
    got = custom.integrate(_moments, tol=1e-13)
    assert got == pytest.approx(BetaDensity(3.0, 1.0).integrate(_moments, tol=1e-13), abs=1e-13)


def test_integrate_vector_valued_equals_stacked_scalar_calls():
    rng = np.random.default_rng(2026)
    xs = np.sort(rng.uniform(0.0, 1.0, BLOCK + 5))
    kinds = [
        UniformScaled(1.3),
        BetaDensity(1.7, 2.4, 0.8),
        Atoms(tuple(xs), tuple(rng.uniform(0.1, 1.0, xs.size))),
        CustomDensity(lambda x: 3.0 * x**2),
    ]
    for kind in kinds:
        stacked = [kind.integrate(lambda x, i=i: _moments(x)[i], tol=1e-13) for i in range(len(_PQ))]
        assert kind.integrate(_moments, tol=1e-13) == pytest.approx(stacked, rel=1e-13, abs=1e-13)


def test_sigma_lambda_cases():
    assert sigma_lambda(LambdaMeasure.crow_kimura()) == 0.0
    assert sigma_lambda(LambdaMeasure.uniform()) == math.inf
    assert sigma_lambda(LambdaMeasure.kingman(2.0)) == math.inf
    assert sigma_lambda(LambdaMeasure.star(1.0)) == math.inf
    atom = LambdaMeasure.from_atoms([0.5], [1.0])
    assert sigma_lambda(atom) == pytest.approx(4 * math.log(2), rel=1e-13)
    assert sigma_lambda(LambdaMeasure.beta31()) == pytest.approx(3.0, abs=1e-9)
    # beta with a <= 1 diverges at 0
    assert sigma_lambda(LambdaMeasure.beta(0.8, 1.0)) == math.inf


@pytest.mark.parametrize(
    "density, expected",
    [
        # positive at 0: each dyadic shell adds about c log 2
        (lambda x: np.ones_like(x), math.inf),
        (LambdaMeasure.beta(1.0, 3.0).interior.density, math.inf),
        (lambda x: 3.0 * x**2, 3.0),
        # e^-25 at 0, past shells that hold almost nothing
        (lambda x: np.exp(-(((x - 0.05) / 0.01) ** 2)), math.inf),
    ],
    ids=["uniform", "beta(1,3)", "3x^2", "gaussian-bump"],
)
def test_sigma_lambda_custom_density(density, expected):
    custom = LambdaMeasure(interior=CustomDensity(density))
    assert sigma_lambda(custom) == pytest.approx(expected, abs=1e-12)
    # theta0 = 0 leaves the answer to sigma < sigma_Lambda + theta1
    rep = is_positive_recurrent(custom, ModelParams(4.0, 0.0, 0.5))
    assert rep.recurrent == math.isinf(expected)


def _bump(x):
    return np.where(np.abs(x - 0.05) < 0.01, (1.0 - ((x - 0.05) / 0.01) ** 2) ** 2, 0.0)


@pytest.mark.parametrize(
    "density",
    [_bump, lambda x: x**2 * np.exp(-(((x - 0.05) / 0.01) ** 2))],
    ids=["compact-bump", "x^2-gaussian"],
)
def test_dyadic_shells_reach_mass_past_empty_shells(density):
    # the shells above 0.0625 hold (almost) nothing; the walk must not stop
    # there, only past x = 2^-40 and relative to the total
    def quad(f):
        return scipy.integrate.quad(
            lambda x: float(f(np.array([x]))[0]), 0.0, 1.0,
            points=[0.04, 0.05, 0.06], epsabs=0.0, epsrel=1e-13, limit=200,
        )[0]

    custom = CustomDensity(density)
    assert custom.mass() == pytest.approx(quad(density), rel=1e-12)
    expected = quad(lambda x: -np.log1p(-x) / x**2 * density(x))
    assert sigma_lambda(LambdaMeasure(interior=custom)) == pytest.approx(expected, rel=1e-12)


def test_positive_recurrence():
    uni = LambdaMeasure.uniform()
    rep = is_positive_recurrent(uni, ModelParams(5.0, 0.1, 0.0))
    assert rep and rep.clause == "theta0 > 0"
    zero = LambdaMeasure.crow_kimura()
    assert not is_positive_recurrent(zero, ModelParams(2.0, 0.0, 1.0))
    assert is_positive_recurrent(zero, ModelParams(2.0, 0.0, 2.5))
    assert is_positive_recurrent(uni, ModelParams(7.0, 0.0, 0.0))  # sigma_L = inf
    b31 = LambdaMeasure.beta31()
    assert is_positive_recurrent(b31, ModelParams(2.0, 0.0, 0.0))  # sigma_L = 3
    assert not is_positive_recurrent(b31, ModelParams(4.0, 0.0, 0.0))
    with pytest.raises(PreconditionViolated):
        is_positive_recurrent(uni, ModelParams(0.0, 1.0, 1.0))


def test_cnk_closed_forms():
    uni = LambdaMeasure.uniform()
    assert cnk(uni, 2, 5) == pytest.approx(1 / 3, rel=1e-14)
    b31 = LambdaMeasure.beta31()
    assert cnk(b31, 1, 4) == pytest.approx(3 / 5, rel=1e-14)
    assert cnk(LambdaMeasure.crow_kimura(), 3, 9) == 0.0


def test_cnk_uniform_matches_quadrature_path():
    # the closed value 1/(k-n) against the generic beta quadrature path
    near_uniform = LambdaMeasure.beta(1.0 + 1e-14, 1.0)
    for n, k in [(1, 2), (2, 5), (5, 17), (20, 60)]:
        assert cnk(near_uniform, n, k) == pytest.approx(1 / (k - n), abs=1e-10)


def _atom_cnk_mpmath(measure, n, k):
    """c_{n,k} of an atom interior at 40 digits from the binomial tail:
        (1/n) sum_atoms m x^-2 P(Bin(k, x) > k-n)."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for x, m in zip(measure.interior.locations, measure.interior.masses):
            x = mpmath.mpf(x)
            tail = mpmath.fsum(
                mpmath.binomial(k, j) * x**j * (1 - x) ** (k - j)
                for j in range(k - n + 1, k + 1)
            )
            total += m * tail / x**2
        return total / n


def _validate_fixed_point_measure():
    """The pushforward measure of `validate --suite full` (about 50 atoms)."""
    rs = rho_star(0.3, 0.05, ModelParams(1.0, 0.2, 0.2))
    return pushforward_to_lambda(build_discrete_fixed_point(rs, 0.3, 0.05), rs)


def test_atom_cnk_matches_binomial_tail_oracle():
    six = LambdaMeasure.from_atoms(
        [1e-8, 1e-3, 0.2, 0.49, 0.51, 0.9], [0.05, 0.1, 0.3, 0.2, 0.2, 0.15]
    )
    for lam in (six, _validate_fixed_point_measure()):
        for n in (1, 2, 6, 40):
            anchor = float(_atom_cnk_mpmath(lam, n, n + 1))
            for kk in (n + 1, n + 2, (n + 1 + 1024) // 2, 1024):
                exact = float(_atom_cnk_mpmath(lam, n, kk))
                got = cnk(lam, n, kk)
                assert abs(got - exact) <= 1e-14 * anchor
                if exact >= 1e-2 * anchor:
                    assert abs(got / exact - 1.0) <= 1e-12


def test_cnk_monotone_and_nonnegative():
    for lam in (LambdaMeasure.uniform(), LambdaMeasure.beta(2.0, 3.0)):
        for n in (1, 4):
            row = np.array([cnk(lam, n, k) for k in range(n + 1, 31)])
            assert np.all(row >= 0)
            assert np.all(np.diff(row) <= 1e-15)


def test_measure_json_round_trip():
    for lam in (
        LambdaMeasure.kingman(2.0),
        LambdaMeasure.star(0.7),
        LambdaMeasure.uniform(1.3),
        LambdaMeasure.beta(2.5, 0.7, 1.1),
        LambdaMeasure.from_atoms([0.2, 0.8], [1.0, 2.0]),
    ):
        back = LambdaMeasure.from_json(lam.to_json())
        assert back == lam
    parsed = LambdaMeasure.from_dict(
        json.loads('{"m0": 0.5, "m1": 0, "interior": {"type": "uniform", "c": 2.0}}')
    )
    assert parsed.m0 == 0.5 and parsed.interior.c == 2.0


def test_atom_validation():
    with pytest.raises(DomainError):
        Atoms((0.5, 0.2), (1.0, 1.0))  # not increasing
    with pytest.raises(DomainError):
        Atoms((0.0,), (1.0,))  # on the boundary
    with pytest.raises(DomainError):
        LambdaMeasure.from_atoms(list(np.linspace(0.001, 0.999, 10_001)), [1.0] * 10_001)


def test_from_atoms_sorts_and_aligns():
    m = LambdaMeasure.from_atoms(np.array([0.7, 0.2, 0.5]), [3.0, 1.0, 2.0])
    assert m.interior.locations == (0.2, 0.5, 0.7)
    assert m.interior.masses == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in m.interior.locations + m.interior.masses)
    with pytest.raises(DomainError):
        LambdaMeasure.from_atoms([0.2, 0.5], [1.0, 2.0, 3.0])


def test_moran_params_validation():
    with pytest.raises(DomainError):
        MoranParams(1, 1.0)
    with pytest.raises(DomainError):
        MoranParams(5, 0.0)
    with pytest.raises(DomainError):
        ModelParams(-1.0)
    assert MoranParams(5, 1.0, 0.25, 0.5).u == 0.75
    assert ModelParams(1.0, 0.25, 0.5).theta == 0.75


# ----------------------------------------------------------------------
# Beta(a, b) coefficients and sigma_Lambda against mpmath
# ----------------------------------------------------------------------


def _beta_cnk_3f2(a, b, n, k, mass=1.0):
    """c_{n,k} of Beta(a, b) at 40 digits:
        M binom(m0+n-1, n-1) B(a+m0-2, b+n) 3F2(m0+n, a+m0-2, 1; m0+1, a+b+m0+n-2; 1)
        / (n B(a, b)),   m0 = k-n+1,
    with the 3F2 at unit argument rewritten by Thomae's relation into
        G(m0+1) G(a+b+m0+n-2) G(b) / (G(m0+n) G(a+b+m0-2) G(b+1))
        * 3F2(1-n, a+b-2, b; a+b+m0-2, b+1; 1),
    a terminating series of n terms (the direct series converges like
    m^-(b+1) and takes seconds per value)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        m0 = k - n + 1
        pref = mpmath.binomial(m0 + n - 1, n - 1) * mpmath.beta(a + m0 - 2, b + n)
        thomae = mpmath.gammaprod(
            [m0 + 1, a + b + m0 + n - 2, b], [m0 + n, a + b + m0 - 2, b + 1]
        )
        f = mpmath.hyp3f2(1 - n, a + b - 2, b, a + b + m0 - 2, b + 1, 1)
        return mass * pref * thomae * f / (n * mpmath.beta(a, b))


def test_beta_cnk_oracle_is_the_unit_argument_3f2():
    for a, b, n, k in [(2.5, 2.5, 3, 10), (3.58, 2.23, 58, 75), (0.4, 0.35, 1, 1000)]:
        with mpmath.workdps(30):
            m0 = k - n + 1
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            direct = (
                mpmath.binomial(m0 + n - 1, n - 1)
                * mpmath.beta(a + m0 - 2, b + n)
                * mpmath.hyp3f2(m0 + n, a + m0 - 2, 1, m0 + 1, a + b + m0 + n - 2, 1)
                / (n * mpmath.beta(a, b))
            )
            assert abs(_beta_cnk_3f2(a, b, n, k) / direct - 1) < 1e-25


@given(
    st.floats(0.3, 5.0),
    st.floats(0.3, 6.0),
    st.floats(0.1, 10.0),
    st.integers(1, 64),
    st.integers(1, 1024),
)
# a row summed in plain doubles from the column increments misses the
# absolute bound (1.5e-14) here
@example(a=4.061646490198856, b=1.4233831334711122, mass=1.0, n=47, k=953)
@settings(max_examples=200, deadline=None)
def test_beta_cnk_row_matches_3f2_oracle(a, b, mass, n, k):
    k = min(n + k, 1024)
    row = np.array([cnk(LambdaMeasure.beta(a, b, mass), n, kk) for kk in range(n + 1, k + 1)])
    anchor = float(_beta_cnk_3f2(a, b, n, n + 1, mass))
    assert np.all(row >= 0.0)
    assert np.all(np.diff(row) <= 0.0)
    for kk in {n + 1, (n + 1 + k) // 2, k}:
        exact = float(_beta_cnk_3f2(a, b, n, kk, mass))
        got = row[kk - n - 1]
        assert abs(got - exact) <= 1e-14 * anchor
        if exact >= 1e-2 * anchor:
            assert abs(got / exact - 1.0) <= 1e-12
    assert cnk(LambdaMeasure.beta(a, b, mass), n, k) == row[-1]


def test_beta_cnk_matches_custom_density_quadrature():
    # the generic quadrature route at its own absolute tolerance (1e-12 / n);
    # b >= 1 keeps the density free of an endpoint singularity at 1
    for a, b in [(2.5, 1.5), (1.5, 2.0), (0.7, 3.0)]:
        beta = LambdaMeasure.beta(a, b, 1.3)
        custom = LambdaMeasure(interior=CustomDensity(beta.interior.density))
        for n, k in [(1, 2), (3, 7), (10, 40), (25, 26)]:
            assert cnk(custom, n, k) == pytest.approx(cnk(beta, n, k), abs=1e-12)


def test_beta_truncated_solve_runtime():
    prm = ModelParams(0.5, 0.5, 0.5)
    start = time.perf_counter()
    pmf = solve_lambda_truncated(LambdaMeasure.beta(2.0, 2.0), prm)
    assert time.perf_counter() - start < 1.0
    assert pmf.residual < 1e-10


def _beta_sigma_mpmath(a, b):
    """M B(a-2, b) (psi(a+b-2) - psi(b)) / B(a, b) at 50 digits; the
    removable singularities a = 2 and a + b = 2 are stepped over by 1e-30."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a == 2 or a + b == 2:
            a += mpmath.mpf(10) ** -30
        return (
            mpmath.beta(a - 2, b)
            * (mpmath.digamma(a + b - 2) - mpmath.digamma(b))
            / mpmath.beta(a, b)
        )


@given(st.floats(1.001, 6.0), st.floats(0.3, 6.0))
@settings(max_examples=200, deadline=None)
def test_beta_sigma_lambda_matches_mpmath(a, b):
    exact = float(_beta_sigma_mpmath(a, b))
    assert sigma_lambda(LambdaMeasure.beta(a, b)) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize(
    "a,b",
    [(2.0, 0.5), (2.0, 3.0), (2.0 + 1e-9, 1.0), (2.0 - 1e-9, 3.0), (2.05, 0.5),
     (2.0501, 0.5), (1.5, 0.5), (1.2, 0.7), (1.01, 0.3), (3.0, 1.0)],
)
def test_beta_sigma_lambda_near_removable_singularities(a, b):
    exact = float(_beta_sigma_mpmath(a, b))
    assert sigma_lambda(LambdaMeasure.beta(a, b, 2.5)) == pytest.approx(
        2.5 * exact, rel=1e-14
    )


def test_beta_density_at_the_endpoints():
    # 0 log 0 at an endpoint: x = 0 for a = 1, x = 1 for b = 1
    ends = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        four = LambdaMeasure.beta(4.0, 1.0).interior.density
        assert four(ends) == pytest.approx([0.0, 4.0])
        assert LambdaMeasure.beta(1.0, 3.0).interior.density(ends) == pytest.approx([3.0, 0.0])
        # 4x^3 has sigma_Lambda = 3; its shells in t = 1 - x reach x = 1.0
        custom = LambdaMeasure(interior=CustomDensity(four))
        assert sigma_lambda(custom) == pytest.approx(3.0, abs=1e-12)


# ----------------------------------------------------------------------
# Merger-rate rows binom(k, j) lambda_{k,j}
# ----------------------------------------------------------------------


def _merger_row_mpmath(measure, k):
    """The row k -> l, l = 1..k-1, at 40 digits.

    Each interior rate binom(k, j) int x^(j-2) (1-x)^(k-j) L0(dx) is built
    upward in j from j = 2 by its term ratio, which is rational in j.
    """
    interior = measure.interior
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        if isinstance(interior, BetaDensity):
            a, b = mpf(interior.a), mpf(interior.b)
            first = interior.total_mass * mpmath.binomial(k, 2) * mpmath.fprod(
                (b + i) / (a + b + i) for i in range(k - 2)
            )
            parts = [(first, lambda j: (a + j - 2) / (b + k - j - 1))]
        elif isinstance(interior, UniformScaled):
            first = mpf(interior.c) * k / 2
            parts = [(first, lambda j: (mpf(j) - 1) / (k - j))]
        else:
            parts = [
                (
                    mpf(m) * mpmath.binomial(k, 2) * (1 - mpf(x)) ** (k - 2),
                    lambda j, x=mpf(x): x / (1 - x),
                )
                for x, m in zip(interior.locations, interior.masses)
            ]
        rates = []  # j = 2..k
        for first, ratio in parts:
            col = [first]
            for j in range(2, k):
                col.append(col[-1] * mpf(k - j) / (j + 1) * ratio(j))
            rates = col if not rates else [r + c for r, c in zip(rates, col)]
        rates[0] += measure.m0 * mpmath.binomial(k, 2)
        rates[-1] += measure.m1
        return [float(r) for r in reversed(rates)]


def _assert_matches_oracle(got, measure, k, beta_bound=True):
    exact = np.array(_merger_row_mpmath(measure, k))
    big = exact >= 1e-300
    assert got[big] == pytest.approx(exact[big], rel=1e-11, abs=0.0)
    assert np.all(got[~big] < 1e-290)
    if beta_bound and isinstance(measure.interior, BetaDensity):
        assert got[big] == pytest.approx(exact[big], rel=5e-13, abs=0.0)


def test_merger_row_matches_mpmath_oracle():
    rng = np.random.default_rng(20261018)
    ks = [2, 3, 17, 130, 1500]
    measures = [
        LambdaMeasure.uniform(1.0),
        LambdaMeasure(m0=0.4, m1=1.3, interior=UniformScaled(2.5)),
        LambdaMeasure.from_atoms([0.01, 0.3, 0.5, 0.97], [0.2, 1.0, 0.7, 3.0]),
        LambdaMeasure(m0=2.0, m1=0.5, interior=Atoms((0.2, 0.75), (1.5, 0.1))),
        # at k = 1500 the first rate, 6e-350, is below the double range
        LambdaMeasure.beta(1.5, 300.0),
    ]
    for _ in range(12):
        a, b = rng.uniform(0.3, 5.0), rng.uniform(0.3, 6.0)
        m0, m1 = rng.choice([0.0, rng.uniform(0.1, 3.0)], size=2)
        measures.append(LambdaMeasure(m0, m1, BetaDensity(a, b, rng.uniform(0.2, 4.0))))
    for measure in measures:
        for k in ks + [int(rng.integers(4, 1500))]:
            _assert_matches_oracle(merger_row(measure, k), measure, k)

    # the same rows read from multi-row blocks: blocks that span several
    # BLOCK-row chunks, Beta(1.5, 300) whose first rates leave the double
    # range from k = 625 on (the long-double path), more than BLOCK atoms,
    # and the atoms at 0 and 1
    many = LambdaMeasure(
        m0=0.3, m1=0.8,
        interior=Atoms(tuple(np.sort(rng.uniform(0.001, 0.999, 300))),
                       tuple(rng.uniform(0.1, 1.0, 300))),
    )
    blocks = [
        (LambdaMeasure.beta(1.5, 300.0), 2, 1500,
         [2, 3, 257, 258, 624, 625, 626, 1000, 1500]),
        (LambdaMeasure(0.4, 1.3, BetaDensity(2.5, 2.45, 1.7)), 1, 600, [2, 3, 4, 300, 599, 600]),
        (LambdaMeasure.beta(0.4, 0.6), 2, 300, [2, 3, 300]),  # a + b = 1
        (LambdaMeasure(0.4, 1.3, UniformScaled(2.5)), 1, 600, [2, 3, 257, 258, 600]),
        (LambdaMeasure(m0=2.0, m1=0.5, interior=Atoms((0.2, 0.75), (1.5, 0.1))), 5, 40, [5, 40]),
        (many, 20, 60, [20, 60]),
        # several BLOCKs stepped down from 1500; 1244 and 1245 straddle a block edge
        (LambdaMeasure.from_atoms([0.01, 0.3, 0.5, 0.97], [0.2, 1.0, 0.7, 3.0]), 600, 1500,
         [600, 1244, 1245, 1500]),
    ]
    for measure, k_lo, k_hi, picks in blocks:
        rows = merger_rows(measure, k_lo, k_hi)
        assert rows.shape == (k_hi - k_lo + 1, k_hi - 1)
        for k in picks:
            assert np.all(rows[k - k_lo, k - 1 :] == 0.0)
            _assert_matches_oracle(rows[k - k_lo, : k - 1], measure, k)
    # a custom density: the rates are quadratures, so only the general bound
    beta = LambdaMeasure(0.7, 0.4, BetaDensity(1.7, 2.4, 1.3))
    custom = LambdaMeasure(0.7, 0.4, CustomDensity(beta.interior.density))
    rows = merger_rows(custom, 2, 40)
    for k in (2, 3, 21, 40):
        assert np.all(rows[k - 2, k - 1 :] == 0.0)
        _assert_matches_oracle(rows[k - 2, : k - 1], beta, k, beta_bound=False)


def test_merger_blocks_match_mpmath_oracle():
    # every row below k_top stepped down from the one direct row k_top
    rng = np.random.default_rng(1024)
    rs = rho_star(0.3, 0.05, ModelParams(1.0, 0.2, 0.2))
    beta = LambdaMeasure(0.7, 0.4, BetaDensity(1.7, 2.4, 1.3))
    many = Atoms(tuple(np.sort(rng.uniform(0.001, 0.999, 300))), tuple(rng.uniform(0.1, 1.0, 300)))
    four = LambdaMeasure.from_atoms([0.01, 0.3, 0.5, 0.97], [0.2, 1.0, 0.7, 3.0])
    cases = [
        (four, four, 1024),
        (four, four, 8192),  # 7192 steps down to k = 1000
        (LambdaMeasure(m0=2.0, m1=0.5, interior=Atoms((0.2, 0.75), (1.5, 0.1))), None, 1024),
        (LambdaMeasure(m0=0.3, m1=0.8, interior=many), None, 1024),  # more than BLOCK atoms
        # the fixed-point measure of `validate --suite full`
        (pushforward_to_lambda(build_discrete_fixed_point(rs, 0.3, 0.05), rs), None, 1024),
        # a custom density against the oracle of its Beta law
        (LambdaMeasure(0.7, 0.4, CustomDensity(beta.interior.density)), beta, 1024),
    ]
    for measure, oracle, k_top in cases:
        got, k_next = {}, k_top
        for k_lo, rows in merger_blocks(measure, k_top):
            assert k_lo + rows.shape[0] - 1 == k_next
            assert rows.shape[1] == k_next - 1
            k_next = k_lo - 1
            for k in {2, 3, 17, 130, 1000} & set(range(k_lo, k_lo + rows.shape[0])):
                got[k] = rows[k - k_lo]
        assert k_next == 1
        for k, row in got.items():
            assert np.all(row[k - 1 :] == 0.0)
            _assert_matches_oracle(row[: k - 1], oracle or measure, k, beta_bound=False)
    # closed kinds come in merger_rows blocks
    for k_lo, rows in merger_blocks(beta, 600):
        assert np.array_equal(rows, merger_rows(beta, k_lo, k_lo + rows.shape[0] - 1))


def test_atom_row_memory_is_bounded():
    # 2000 atoms at k = 1024: a whole (k-1) x n_atoms table peaks at ~31 MB
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.001, 0.999, 2000))
    ms = rng.uniform(0.1, 1.0, 2000)
    measure = LambdaMeasure.from_atoms(xs, ms)
    k = 1024
    tracemalloc.start()
    try:
        row = merger_row(measure, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # reference: the one-table reduction over every atom at once
    j = k + 1.0 - np.arange(1, k)
    log_binom = -math.log(k + 1.0) - betaln(j + 1.0, k - j + 1.0)
    table = np.exp(
        log_binom[:, None] + (j[:, None] - 2.0) * np.log(xs) + (k - j[:, None]) * np.log1p(-xs)
    )
    assert row == pytest.approx(table @ ms, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a,b", [(1.7, 2.4), (2.5, 1.5), (0.6, 3.0)])
def test_custom_density_rows_match_beta_rows(a, b):
    # the quadrature tolerance applies to each rate, not to lambda_{k,j}
    beta = LambdaMeasure.beta(a, b)
    custom = LambdaMeasure(interior=CustomDensity(beta.interior.density))
    for k in (2, 5, 20, 60, 200, 500):
        assert merger_row(custom, k) == pytest.approx(
            merger_row(beta, k), rel=1e-10, abs=0.0
        )


def test_custom_density_with_pole_at_one_raises():
    def density(x):
        with np.errstate(divide="ignore"):
            return x**2.5 * (1.0 - x) ** -0.4

    custom = LambdaMeasure(interior=CustomDensity(density))
    for k in (2, 3, 20):
        with pytest.raises(QuadratureFailure):
            merger_row(custom, k)
    with pytest.raises(QuadratureFailure):
        cnk(custom, 1, 2)
    with pytest.raises(QuadratureFailure):
        solve_lambda_truncated(custom, ModelParams(1.0, 0.5, 0.5))


# ----------------------------------------------------------------------
# Non-finite and malformed input
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_rejected(bad):
    for make in (
        lambda: ModelParams(bad),
        lambda: ModelParams(1.0, bad),
        lambda: ModelParams(1.0, 0.5, bad),
        lambda: MoranParams(10, bad),
        lambda: MoranParams(10, 1.0, bad),
        lambda: MoranParams(10, 1.0, 0.1, bad),
        lambda: UniformScaled(bad),
        lambda: BetaDensity(bad, 2.0),
        lambda: BetaDensity(2.0, bad),
        lambda: BetaDensity(2.0, 2.0, bad),
        lambda: Atoms((0.5,), (bad,)),
        lambda: LambdaMeasure(m0=bad),
        lambda: LambdaMeasure(m1=bad),
    ):
        with pytest.raises(DomainError):
            make()
    with pytest.raises(DomainError):
        Atoms((math.nan,), (1.0,))
    with pytest.raises(DomainError):
        MoranParams(math.nan, 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        {"interior": {"type": "beta"}},
        {"interior": {"type": "beta", "a": "x", "b": 2.0}},
        {"interior": {"type": "atoms"}},
        {"interior": {"type": "atoms", "atoms": [[0.5]]}},
        {"interior": "beta"},
        {"m0": None},
        [1, 2],
    ],
)
def test_malformed_measure_dict_rejected(spec):
    with pytest.raises(DomainError):
        LambdaMeasure.from_dict(spec)
