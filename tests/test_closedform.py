"""Closed-form laws, pgf evaluators, moments, and equation verifiers."""

import math
import warnings

import numpy as np
import pytest

from blockstat.closedform import (
    PgfEvaluator,
    beta31_pgf,
    bs_geometric_pmf,
    bs_rho,
    bs_rho_special,
    cauchy_principal_value,
    moran_closed,
    moran_factorial_moments,
    moran_mean,
    star_closed,
    star_p1,
    verify_master_equation,
    wf_closed,
    wf_factorial_moments,
    wf_mean,
)
from blockstat.errors import DomainError, RootOrderViolation
from blockstat.measures import LambdaMeasure, ModelParams, MoranParams
from blockstat.recursions import (
    solve_lambda_truncated,
    solve_moran,
    solve_moran_nullspace,
    solve_star,
)
from blockstat.specfun import gauss_2f1, kummer_1f1, lambert_w, rising_factorial


def test_moran_closed_binomial_case():
    # u = 0: Binomial(N, s/(1+s)) conditioned positive; N = 2, s = 1
    pmf, pgf = moran_closed(MoranParams(2, 1.0))
    assert pmf.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert pgf.p1 == pytest.approx(2 / 3, abs=1e-15)


def test_moran_closed_u0zero_formula():
    mp = MoranParams(12, 0.7, 0.0, 0.35)
    pmf, _ = moran_closed(mp)
    N, s, u = mp.N, mp.s, mp.u
    raw = np.array(
        [
            rising_factorial(N - 1 - (n - 1) + 1, 0)  # placeholder, built below
            for n in range(1, N + 1)
        ]
    )
    vals = []
    for n in range(1, N + 1):
        fall = 1.0
        for i in range(n - 1):
            fall *= (N - 1) - i
        vals.append(fall * s ** (n - 1) / rising_factorial(N * u + 2, n - 1))
    vals = np.array(vals)
    vals /= gauss_2f1(1.0, 1.0 - N, N * u + 2.0, -s).value
    assert np.max(np.abs(pmf.probs - vals)) < 1e-14


def test_moran_closed_matches_solvers():
    mp = MoranParams(15, 0.8, 0.3, 0.2)
    pmf, _ = moran_closed(mp)
    assert pmf.sup_distance(solve_moran(mp)) < 1e-10
    assert pmf.sup_distance(solve_moran_nullspace(mp)) < 1e-10


def test_moran_pgf_invariants_and_dual_path():
    mp = MoranParams(15, 0.8, 0.3, 0.2)
    pmf, pgf = moran_closed(mp)
    n = np.arange(1, 16)
    zs = np.linspace(0.05, 0.95, 10)
    vals = [pgf.evaluate(z) for z in zs]
    assert all(0 <= v <= 1 for v in vals)
    assert np.all(np.diff(vals) > 0)
    assert pgf.evaluate(0.0) == 0.0
    for z in zs:
        # the (1-z)^(-N rho0) prefactor amplifies quadrature error near 1
        assert pgf.evaluate(z) == pytest.approx(
            float(np.dot(pmf.probs, z**n)), abs=1e-10
        )


def test_moran_mean_examples():
    # N=2, s=1, u=0: mean = (2 + 2/3)/2 = 4/3
    assert moran_mean(MoranParams(2, 1.0)) == pytest.approx(4 / 3, abs=1e-14)
    mp = MoranParams(20, 0.9, 0.4, 0.3)
    pmf, _ = moran_closed(mp)
    assert moran_mean(mp, p1=float(pmf.probs[0])) == pytest.approx(
        solve_moran_nullspace(mp).mean(), abs=1e-10
    )
    assert 1.0 <= moran_mean(mp) <= mp.N


def test_moran_factorial_moment_recursion_and_closed_forms():
    mp = MoranParams(18, 0.8, 0.0, 0.4)  # u0 = 0 branch
    pmf = solve_moran_nullspace(mp)
    fm = moran_factorial_moments(mp, 8, pmf=pmf)
    assert fm[0] == 1.0
    assert fm[1] == pytest.approx(pmf.mean(), rel=1e-12)
    # closed cross-check (u0 = 0): n! (2F1(n+1, n+1-N; Nu+n+2; -s) p_{n+1}
    #                                 + 2F1(n, n-N; Nu+n+1; -s) p_n)
    N, s, u = mp.N, mp.s, mp.u
    for n in range(1, 8):
        closed = math.factorial(n) * (
            gauss_2f1(n + 1.0, n + 1.0 - N, N * u + n + 2.0, -s).value
            * pmf.p(n + 1)
            + gauss_2f1(float(n), n - N + 0.0, N * u + n + 1.0, -s).value * pmf.p(n)
        )
        assert fm[n] == pytest.approx(closed, rel=1e-8)

    mp2 = MoranParams(18, 0.8, 0.4, 0.0)  # u1 = 0 branch
    pmf2 = solve_moran_nullspace(mp2)
    fm2 = moran_factorial_moments(mp2, 8, pmf=pmf2)
    for n in range(1, 9):
        fall = 1.0
        for i in range(n - 1):
            fall *= (mp2.N - 1) - i
        closed = (
            math.factorial(n)
            * fall
            / rising_factorial(2.0 + mp2.N * mp2.u / (1 + mp2.s), n - 1)
            * (mp2.s / (1 + mp2.s)) ** (n - 1)
            * fm2[1]
        )
        assert fm2[n] == pytest.approx(closed, rel=1e-8)


def test_wf_closed_poisson_case():
    pmf, pgf = wf_closed(2.0, ModelParams(1.0, 0.0, 0.0))
    n = np.arange(1, pmf.truncation_K + 1)
    pois = np.exp(-1.0) / (1 - np.exp(-1.0)) / np.array(
        [math.factorial(int(k)) for k in n]
    )
    assert np.max(np.abs(pmf.probs - pois)) < 1e-12


def test_wf_closed_vs_truncated_solver():
    king = LambdaMeasure.kingman(2.0)
    for prm in (ModelParams(1.0, 1.0, 1.0), ModelParams(0.5, 2.0, 0.5), ModelParams(2.0, 0.5, 2.0)):
        pmf, _ = wf_closed(2.0, prm)
        rec = solve_lambda_truncated(king, prm, tol=1e-12)
        assert pmf.sup_distance(rec) < 1e-8


def test_wf_closed_general_m0():
    # distributional reduction: (sigma, theta, m0) ~ (2 sigma/m0, 2 theta/m0, 2)
    prm = ModelParams(1.2, 0.8, 0.6)
    pmf_a, _ = wf_closed(3.0, prm)
    prm_b = ModelParams(2 * 1.2 / 3, 2 * 0.8 / 3, 2 * 0.6 / 3)
    pmf_b, _ = wf_closed(2.0, prm_b)
    assert pmf_a.sup_distance(pmf_b) < 1e-12


def test_wf_mean_theta_zero_identity():
    # E[L] = sigma/(1 - e^-sigma) for the conditioned-Poisson case
    prm = ModelParams(1.0, 0.0, 0.0)
    pmf, _ = wf_closed(2.0, prm)
    lhs = wf_mean(2.0, prm, p1=float(pmf.probs[0]))
    assert lhs == pytest.approx(1.0 / (1 - math.exp(-1.0)), abs=1e-12)


def test_wf_factorial_moments_closed_forms():
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 0.0, 0.7)  # theta0 = 0
    pmf = solve_lambda_truncated(king, prm, tol=1e-12)
    fm = wf_factorial_moments(2.0, prm, 8, pmf=pmf)
    tp = prm.theta
    for k in range(1, 8):
        closed = math.factorial(k) * (
            kummer_1f1(k + 1.0, k + 2.0 + tp, 1.0).value * pmf.p(k + 1)
            + kummer_1f1(float(k), k + 1.0 + tp, 1.0).value * pmf.p(k)
        )
        assert fm[k] == pytest.approx(closed, rel=1e-8)
    prm2 = ModelParams(1.0, 0.7, 0.0)  # theta1 = 0
    pmf2 = solve_lambda_truncated(king, prm2, tol=1e-12)
    fm2 = wf_factorial_moments(2.0, prm2, 8, pmf=pmf2)
    for n in range(1, 9):
        closed = (
            math.factorial(n)
            / rising_factorial(2.0 + prm2.theta, n - 1)
            * prm2.sigma ** (n - 1)
            * fm2[1]
        )
        assert fm2[n] == pytest.approx(closed, rel=1e-8)


def test_star_closed_theta1_zero():
    # p1 = (0 + 1)/(1 + 0 + 1) = 1/2 at theta0 = 0, m1 = 1, sigma = 1
    pmf, pgf = star_closed(1.0, ModelParams(1.0, 0.0, 0.0), K=300)
    assert pgf.p1 == pytest.approx(0.5, abs=1e-14)
    rec = solve_star(ModelParams(1.0, 0.0, 0.0), 1.0, K=300)
    assert pmf.sup_distance(rec) < 1e-14
    zs = np.linspace(0.05, 0.95, 8)
    n = np.arange(1, pmf.truncation_K + 1)
    for z in zs:
        assert pgf.evaluate(z) == pytest.approx(
            float(np.dot(pmf.probs, z**n)) + pmf.tail_mass * 0, abs=2e-4
        )  # heavy tail: compare loosely on truncated sums
    # tighter dual-path check with theta0 > 0 (geometric-type tail)
    pmf2, pgf2 = star_closed(1.0, ModelParams(1.0, 0.8, 0.0), K=400)
    n2 = np.arange(1, pmf2.truncation_K + 1)
    for z in zs:
        assert pgf2.evaluate(z) == pytest.approx(
            float(np.dot(pmf2.probs, z**n2)), abs=1e-11
        )


def test_star_closed_theta1_positive():
    prm = ModelParams(1.0, 0.5, 0.5)
    pmf, pgf = star_closed(1.0, prm, K=400)
    # Vieta for the quadratic roots
    d = math.sqrt((prm.sigma + prm.theta) ** 2 - 4 * prm.sigma * prm.theta1)
    xm = (prm.sigma + prm.theta - d) / (2 * prm.sigma)
    xp = (prm.sigma + prm.theta + d) / (2 * prm.sigma)
    assert xm * xp == pytest.approx(prm.theta1 / prm.sigma, rel=1e-14)
    assert xm + xp == pytest.approx((prm.sigma + prm.theta) / prm.sigma, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = solve_lambda_truncated(LambdaMeasure.star(1.0), prm, tol=1e-11)
    assert pmf.sup_distance(rec) < 1e-10
    n = np.arange(1, pmf.truncation_K + 1)
    for z in np.linspace(0.05, 0.9, 9):
        assert pgf.evaluate(z) == pytest.approx(
            float(np.dot(pmf.probs, z**n)), abs=1e-9
        )
    # smooth across the apparent singularity x-
    near = [pgf.evaluate(xm - 1e-4), pgf.evaluate(xm), pgf.evaluate(xm + 1e-4)]
    assert abs(near[2] - 2 * near[1] + near[0]) < 1e-6


def test_star_root_order_violation():
    with pytest.raises(RootOrderViolation):
        star_p1(1.0, ModelParams(1.0, 0.0, 2.0))  # x- = 1


def test_bs_rho_special_cases():
    # sigma = ln 2, theta = 0: rho = 1/2
    assert bs_rho(ModelParams(math.log(2.0))) == pytest.approx(0.5, abs=1e-14)
    # theta0 = 0, theta1 = 1, sigma = 1: rho = 1 - W(1)
    got = bs_rho(ModelParams(1.0, 0.0, 1.0))
    assert got == pytest.approx(1.0 - lambert_w(1.0), abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = float(rng.uniform(0.1, 3.0))
        th = float(rng.uniform(0.0, 2.0))
        for prm in (ModelParams(sigma, th, 0.0), ModelParams(sigma, 0.0, th), ModelParams(sigma)):
            special = bs_rho_special(prm)
            assert special is not None
            assert bs_rho(prm) == pytest.approx(special, abs=1e-12)


def test_bs_rho_defining_equation():
    prm = ModelParams(1.3, 0.4, 0.9)
    rho = bs_rho(prm)
    r = (prm.sigma + math.log1p(-rho) - prm.theta1 * rho) * (rho - 1.0) + prm.theta0 * rho
    assert abs(r) < 1e-12


def test_beta31_pgf_and_pmf():
    prm = ModelParams(1.0, 0.5, 0.5)
    pgf, pmf = beta31_pgf(prm, K=200)
    assert pgf.evaluate(0.0) == 0.0
    assert pgf.evaluate(1.0) == 1.0
    assert 0 <= pgf.p1 and 0 <= pgf.p2 and pgf.p1 + pgf.p2 <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-11)
    assert pmf.sup_distance(rec) < 1e-10


def test_beta31_theta1_zero():
    prm = ModelParams(1.0, 0.8, 0.0)
    pgf, pmf = beta31_pgf(prm, K=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-11)
    assert pmf.sup_distance(rec) < 1e-10


def test_master_equation_residuals():
    zg = np.linspace(0.05, 0.9, 12)
    mp = MoranParams(12, 0.7, 0.25, 0.15)
    _, pg = moran_closed(mp)
    assert verify_master_equation(pg, None, mp, zg) < 1e-8
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 1.0, 0.5)
    _, pg = wf_closed(2.0, prm)
    assert verify_master_equation(pg, king, prm, zg) < 1e-8
    star = LambdaMeasure.star(1.0)
    prm_s = ModelParams(1.0, 0.5, 0.5)
    _, pg = star_closed(1.0, prm_s)
    assert verify_master_equation(pg, star, prm_s, zg) < 1e-8
    # Crow-Kimura geometric pgf in the algebraic identity
    from blockstat.recursions import crow_kimura_geometric

    prm_ck = ModelParams(1.0, 1.0, 0.0)
    p, _ = crow_kimura_geometric(prm_ck)
    ck_pgf = PgfEvaluator(
        "crow-kimura", {}, lambda z: (1 - p) * z / (1 - p * z), 1 - p
    )
    assert verify_master_equation(ck_pgf, LambdaMeasure.crow_kimura(), prm_ck, zg) < 1e-10


def test_carleman_residual_and_pv():
    prm = ModelParams(1.0, 0.5, 0.5)
    rho, _ = bs_geometric_pmf(prm)
    pgf = PgfEvaluator("bs", {}, lambda z: (1 - rho) * z / (1 - rho * z), 1 - rho)
    zg = np.linspace(0.1, 0.9, 9)
    assert verify_master_equation(pgf, LambdaMeasure.uniform(), prm, zg) < 1e-7
    # principal value against the closed log identity
    x = 0.41
    pv = cauchy_principal_value(lambda t: (1 - rho) / (1 - rho * t), x)
    exact = (1 - rho) / (1 - rho * x) * (
        math.log1p(-x) - math.log(x) - math.log1p(-rho)
    )
    assert pv == pytest.approx(exact, abs=1e-9)


def test_bs_geometric_pmf_vs_solver():
    prm = ModelParams(1.0, 0.5, 0.5)
    rho, geo = bs_geometric_pmf(prm)
    pmf = solve_lambda_truncated(LambdaMeasure.uniform(), prm, tol=1e-12)
    assert pmf.sup_distance(geo) < 1e-10


def test_wf_pgf_limit_at_one():
    prm = ModelParams(1.0, 1.0, 1.0)
    _, pg = wf_closed(2.0, prm)
    eps = 1e-5
    extrap = 2 * pg.evaluate(1 - eps / 2) - pg.evaluate(1 - eps)
    assert abs(extrap - 1.0) < 1e-8


def test_wf_theta0_zero_head_reports_cut_mass_as_tail():
    # sigma' = 100: the conditioned-Poisson mass sits near n = 100, so a
    # good part of it lies beyond n_max = 120
    prm = ModelParams(100.0, 0.0, 0.5)
    pmf, _ = wf_closed(2.0, prm)
    rec = solve_lambda_truncated(LambdaMeasure.kingman(2.0), prm, tol=1e-12)
    assert pmf.truncation_K == 120
    assert np.max(np.abs(pmf.probs - rec.probs[:120])) < 1e-10
    assert pmf.tail_mass > 0.01
    assert pmf.tail_mass == pytest.approx(1.0 - pmf.probs.sum(), abs=1e-12)


def test_moran_pgf_residual_at_N30():
    mp = MoranParams(30, 0.7, 0.25, 0.15)
    _, pg = moran_closed(mp)
    assert verify_master_equation(pg, None, mp, np.linspace(0.04, 0.92, 20)) <= 1e-9


def test_master_equation_unknown_tag():
    pg = PgfEvaluator("no-such-model", {}, lambda z: z, 1.0)
    with pytest.raises(DomainError):
        verify_master_equation(pg, None, ModelParams(1.0), [0.5])


def test_master_equation_nan_residual_is_reported():
    pg = PgfEvaluator("crow-kimura", {}, lambda z: math.nan, 0.5)
    assert math.isnan(verify_master_equation(pg, None, ModelParams(1.0, 1.0, 0.0), [0.5]))


def test_moran_closed_vs_banded_random():
    rng = np.random.default_rng(515)
    handed_over = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            mp = MoranParams(
                int(rng.integers(2, 121)),
                float(rng.uniform(0.05, 2.5)),
                float(rng.uniform(0.02, 1.0)),
                float(rng.uniform(0.0, 1.0)) * (rng.random() > 0.2),
            )
            pmf, _ = moran_closed(mp)
            handed_over += pmf.extras["formula_valid_to"] < pmf.truncation_K
            assert pmf.sup_distance(solve_moran(mp)) <= 1e-9, mp
    # both sides of formula_valid_to are exercised
    assert 0 < handed_over < 200


def test_wf_closed_vs_truncated_random():
    rng = np.random.default_rng(516)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(60):
            m0 = float(rng.uniform(0.5, 4.0))
            prm = ModelParams(
                float(rng.uniform(0.1, 3.0)),
                float(rng.uniform(0.0, 3.0)) * (rng.random() > 0.15),
                float(rng.uniform(0.0, 3.0)) * (rng.random() > 0.2),
            )
            pmf, _ = wf_closed(m0, prm)
            rec = solve_lambda_truncated(LambdaMeasure.kingman(m0), prm, tol=1e-12)
            assert pmf.sup_distance(rec) <= 1e-9, (m0, prm)


def test_product_form_overflow_is_typed():
    # (N-n+1) t_{n-1} overflows a double long before the series ends
    with pytest.raises(DomainError):
        moran_closed(MoranParams(100000, 1.0, 0.0, 0.0), n_max=50)
