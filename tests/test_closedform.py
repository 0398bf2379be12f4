"""Closed-form laws, pgf evaluators, moments, and equation verifiers."""

import itertools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import lambertw

from blockstat import closedform
from blockstat.closedform import (
    PgfEvaluator,
    beta31_pgf,
    bs_geometric_pmf,
    bs_rho,
    bs_rho_special,
    crow_kimura_geometric,
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
from blockstat.errors import (
    BlockstatError,
    DomainError,
    NoConvergence,
    PreconditionViolated,
    RootOrderViolation,
)
from blockstat.geomfix import build_discrete_fixed_point, pushforward_to_lambda, rho_star
from blockstat.measures import (
    Atoms,
    BetaDensity,
    CustomDensity,
    LambdaMeasure,
    ModelParams,
    MoranParams,
    UniformScaled,
)
from blockstat.recursions import (
    DEFAULT_TOL,
    StationaryPmf,
    solve_lambda_truncated,
    solve_moran,
    solve_moran_nullspace,
    solve_star,
)


def test_moran_closed_binomial_case():
    # u = 0: Binomial(N, s/(1+s)) conditioned positive; N = 2, s = 1
    pmf, pgf = moran_closed(MoranParams(2, 1.0))
    assert pmf.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert pgf.p1 == pytest.approx(2 / 3, abs=1e-15)


def test_moran_closed_u0zero_formula():
    mp = MoranParams(12, 0.7, 0.0, 0.35)
    pmf, _ = moran_closed(mp)
    N, s, u = mp.N, mp.s, mp.u
    vals = []
    for n in range(1, N + 1):
        fall = 1.0
        for i in range(n - 1):
            fall *= (N - 1) - i
        vals.append(fall * s ** (n - 1) / float(mpmath.rf(N * u + 2, n - 1)))
    vals = np.array(vals)
    vals /= float(mpmath.hyp2f1(1.0, 1.0 - N, N * u + 2.0, -s))
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
            float(mpmath.hyp2f1(n + 1.0, n + 1.0 - N, N * u + n + 2.0, -s))
            * pmf.p(n + 1)
            + float(mpmath.hyp2f1(float(n), n - N + 0.0, N * u + n + 1.0, -s)) * pmf.p(n)
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
            / float(mpmath.rf(2.0 + mp2.N * mp2.u / (1 + mp2.s), n - 1))
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
            float(mpmath.hyp1f1(k + 1.0, k + 2.0 + tp, 1.0)) * pmf.p(k + 1)
            + float(mpmath.hyp1f1(float(k), k + 1.0 + tp, 1.0)) * pmf.p(k)
        )
        assert fm[k] == pytest.approx(closed, rel=1e-8)
    prm2 = ModelParams(1.0, 0.7, 0.0)  # theta1 = 0
    pmf2 = solve_lambda_truncated(king, prm2, tol=1e-12)
    fm2 = wf_factorial_moments(2.0, prm2, 8, pmf=pmf2)
    for n in range(1, 9):
        closed = (
            math.factorial(n)
            / float(mpmath.rf(2.0 + prm2.theta, n - 1))
            * prm2.sigma ** (n - 1)
            * fm2[1]
        )
        assert fm2[n] == pytest.approx(closed, rel=1e-8)


def test_star_closed_theta1_zero():
    # p1 = (0 + 1)/(1 + 0 + 1) = 1/2 at theta0 = 0, m1 = 1, sigma = 1
    pmf, pgf = star_closed(1.0, ModelParams(1.0, 0.0, 0.0))
    assert pgf.p1 == pytest.approx(0.5, abs=1e-14)
    # the exact law is p_n = 1/(n(n+1)); its 1/n tail defeats every truncated route
    n = np.arange(1, pmf.truncation_K + 1)
    assert np.max(np.abs(pmf.probs - 1.0 / (n * (n + 1.0)))) < 1e-14
    zs = np.linspace(0.05, 0.95, 8)
    for z in zs:
        # the cut at K = 16384 leaves out z^K, far below rounding at z <= 0.95
        assert pgf.evaluate(z) == pytest.approx(float(np.dot(pmf.probs, z**n)), abs=1e-12)
    # and with theta0 > 0 (a geometric-type tail)
    pmf2, pgf2 = star_closed(1.0, ModelParams(1.0, 0.8, 0.0))
    n2 = np.arange(1, pmf2.truncation_K + 1)
    for z in zs:
        assert pgf2.evaluate(z) == pytest.approx(
            float(np.dot(pmf2.probs, z**n2)), abs=1e-11
        )


def test_star_closed_theta1_positive():
    prm = ModelParams(1.0, 0.5, 0.5)
    pmf, pgf = star_closed(1.0, prm)
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
    assert got == pytest.approx(1.0 - lambertw(1.0).real, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = float(rng.uniform(0.1, 3.0))
        th = float(rng.uniform(0.0, 2.0))
        for prm in (ModelParams(sigma, th, 0.0), ModelParams(sigma, 0.0, th), ModelParams(sigma)):
            special = bs_rho_special(prm)
            assert special is not None
            assert bs_rho(prm) == pytest.approx(special, abs=1e-12)


def test_bs_rho_special_keeps_relative_accuracy_for_small_rho():
    # 1 - W(...) alone was 2.2e-5 off at (1e-12, 0, 0) and 8.3e-8 off at
    # (1e-9, 0.5, 0); the reference is the same closed form in 40 digits
    worst = 0.0
    for th0, th1 in ((0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.0), (1.0, 0.0)):
        for sigma in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
            with mpmath.workdps(40):
                s, t0, t1 = mpmath.mpf(sigma), mpmath.mpf(th0), mpmath.mpf(th1)
                if th0 == th1 == 0.0:
                    ref = -mpmath.expm1(-s)
                elif th0 == 0.0:
                    ref = 1 - mpmath.lambertw(t1 * mpmath.exp(t1 - s)).real / t1
                else:
                    ref = 1 - t0 / mpmath.lambertw(t0 * mpmath.exp(t0 + s)).real
                got = bs_rho_special(ModelParams(sigma, th0, th1))
                worst = max(worst, float(abs(got - ref) / ref))
        # sigma = 1e-300: rho = sigma / (1 + theta) to first order
        tiny = bs_rho_special(ModelParams(1e-300, th0, th1))
        assert tiny == pytest.approx(1e-300 / (1.0 + th0 + th1), rel=1e-15)
    assert worst <= 1e-13


def test_bs_rho_defining_equation():
    prm = ModelParams(1.3, 0.4, 0.9)
    rho = bs_rho(prm)
    r = (prm.sigma + math.log1p(-rho) - prm.theta1 * rho) * (rho - 1.0) + prm.theta0 * rho
    assert abs(r) < 1e-12


def test_bs_rho_and_rho_star_roots_to_a_few_ulp():
    # |r| within a few units of what rounding in r and the spacing of the
    # doubles next to the root allow: eps * sum|terms| + |r'| * ulp(root)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2026)
    for _ in range(600):
        sg, th0, th1 = (float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 3)))
        prm = ModelParams(sg, th0, th1)
        x = bs_rho(prm)
        r = (sg + math.log1p(-x) - th1 * x) * (x - 1.0) + th0 * x
        scale = (sg + abs(math.log1p(-x)) + th1 * x) * (1.0 - x) + th0 * x
        dr = 1.0 + th1 * (1.0 - x) + sg + math.log1p(-x) - th1 * x + th0
        assert abs(r) <= 4.0 * (eps * scale + abs(dr) * np.spacing(x)), prm

        x0 = float(rng.uniform(0.01, 0.99))
        m0 = float(rng.uniform(0.0, 1.0)) * sg * x0 * (1.0 - x0)
        z = rho_star(x0, m0, prm)
        assert 0.0 < z < 1.0
        q = th1 * z * z - (sg + prm.theta) * z + sg
        r = m0 * (1.0 - z * x0) ** 2 - x0 * (1.0 - x0) * q
        scale = m0 * (1.0 - z * x0) ** 2 + x0 * (1.0 - x0) * (th1 * z * z + (sg + prm.theta) * z + sg)
        dr = -2.0 * x0 * m0 * (1.0 - z * x0) - x0 * (1.0 - x0) * (2.0 * th1 * z - sg - prm.theta)
        assert abs(r) <= 4.0 * (eps * scale + abs(dr) * np.spacing(z)), (x0, m0, prm)


def test_beta31_pgf_and_pmf():
    prm = ModelParams(1.0, 0.5, 0.5)
    pmf, pgf = beta31_pgf(prm)
    assert pgf.evaluate(0.0) == 0.0
    assert pgf.evaluate(1.0) == 1.0
    p2 = float(pmf.probs[1])
    assert 0 <= pgf.p1 and 0 <= p2 and pgf.p1 + p2 <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-11)
    assert pmf.sup_distance(rec) < 1e-10


def test_beta31_theta1_zero():
    prm = ModelParams(1.0, 0.8, 0.0)
    pmf, pgf = beta31_pgf(prm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-11)
    assert pmf.sup_distance(rec) < 1e-10


@pytest.mark.parametrize("prm, error", [
    (ModelParams(0.5, 0.0, 1.0), None),  # theta1 > sigma puts x- at the root z = 1 of P
    (ModelParams(1.0, 0.0, 0.5), None),
    # p_n falls like n^-2, too slowly for the cut 4 p_K to pass the tol
    # below the cap (solve_lambda_truncated stops there too)
    (ModelParams(2.0, 0.0, 0.5), NoConvergence),
], ids=["x-=1", "x+=1", "no-convergence"])
def test_beta31_theta0_zero(prm, error):
    # theta0 = 0: the condition at z = 1 is the equation itself, R(1) = Q(1);
    # each case returns or raises a typed error within a second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        if error:
            with pytest.raises(error):
                beta31_pgf(prm)
        else:
            pmf, pgf = beta31_pgf(prm)
        assert time.perf_counter() - start < 1.0
        if not error:
            rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-12)
            assert np.max(np.abs(pmf.probs[:2] - rec.probs[:2])) <= 1e-12
            assert pgf.p1 == pmf.probs[0]


def test_beta31_heads_on_wide_draws():
    # sigma, theta0, theta1 log-uniform in 1e-4..30, with theta0 = 0 or
    # theta1 = 0 in some draws, and small theta0 or theta1, where the weight
    # falls within ~theta/3 of its start (a layer the quadrature must not
    # step over): each call returns a head within 1e-12 of the truncated
    # solve or raises a typed error, fast and without a warning
    rng = np.random.default_rng(2707)
    draws = [ModelParams(1.0, 1e-8, 1.0), ModelParams(0.01, 1e-4, 1e-4),
             ModelParams(1.0, 1e-300, 1.0), ModelParams(20.6, 0.0047, 0.144)]
    for i in range(30):
        sigma, th0, th1 = np.exp(rng.uniform(math.log(1e-4), math.log(30.0), 3))
        draws.append(ModelParams(float(sigma), float(th0) * (i % 5 != 0),
                                 float(th1) * (i % 7 != 0)))
    returned = []
    for prm in draws:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            try:
                pmf, _ = beta31_pgf(prm)
            except BlockstatError:
                pmf = None
            assert time.perf_counter() - start < 1.0, prm
        if pmf is not None:
            returned.append(prm)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-13)
            assert np.max(np.abs(pmf.probs[:2] - rec.probs[:2])) <= 1e-12, prm
    assert len(returned) >= 25
    assert any(p.theta0 == 0.0 for p in returned) and any(p.theta1 == 0.0 for p in returned)


def test_beta31_reports_the_cut_as_tail_mass():
    # a fixed K = 400 left 3.8% of this law out and put a 1.7e-6 error near
    # the cut; K now grows until 4 p_K is below the tol, and the head is
    # returned as solved, not scaled up to sum to one
    prm = ModelParams(8.0, 0.05, 0.05)
    pmf, _ = beta31_pgf(prm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-13)
    K = pmf.truncation_K
    assert np.max(np.abs(pmf.probs - rec.probs[:K])) < 1e-13
    assert pmf.extras["closure_bound"] <= pmf.residual < DEFAULT_TOL
    assert pmf.tail_mass == 1.0 - pmf.probs.sum()
    assert pmf.tail_mass == pytest.approx(rec.probs[K:].sum(), abs=1e-11)


# every closed form, its model and the bound its pgf identity is held to
_CLOSED_FORMS = {
    "moran": (lambda: moran_closed(MoranParams(12, 0.7, 0.25, 0.15)),
              None, MoranParams(12, 0.7, 0.25, 0.15), 1e-8),
    "kingman": (lambda: wf_closed(2.0, ModelParams(1.0, 1.0, 0.5)),
                LambdaMeasure.kingman(2.0), ModelParams(1.0, 1.0, 0.5), 1e-8),
    "star": (lambda: star_closed(1.0, ModelParams(1.0, 0.5, 0.5)),
             LambdaMeasure.star(1.0), ModelParams(1.0, 0.5, 0.5), 1e-8),
    "beta31": (lambda: beta31_pgf(ModelParams(1.0, 0.5, 0.5)),
               LambdaMeasure.beta31(), ModelParams(1.0, 0.5, 0.5), 1e-10),
    "uniform": (lambda: bs_geometric_pmf(ModelParams(1.0, 0.5, 0.5)),
                LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), 1e-7),
    "zero": (lambda: crow_kimura_geometric(ModelParams(1.0, 1.0, 0.0)),
             LambdaMeasure.crow_kimura(), ModelParams(1.0, 1.0, 0.0), 1e-10),
}


@pytest.mark.parametrize("name", list(_CLOSED_FORMS))
def test_closed_form_shape_and_identity(name):
    # one shape, (pmf, pgf), whose pgf reads 0 and 1 at the ends and
    # satisfies its own model's identity
    law, measure, params, bound = _CLOSED_FORMS[name]
    pmf, pgf = law()
    assert isinstance(pmf, StationaryPmf) and isinstance(pgf, PgfEvaluator)
    assert pgf(0.0) == 0.0 and pgf(1.0) == 1.0
    zg = np.linspace(0.05, 0.9, 12)
    assert verify_master_equation(pgf, measure, params, zg) < bound


def test_bs_geometric_pmf_vs_solver():
    prm = ModelParams(1.0, 0.5, 0.5)
    geo, _ = bs_geometric_pmf(prm)
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


def test_master_equation_kingman_plus_star_measure():
    # the first-order identity carries both atoms; a pmf from the truncated
    # solve satisfies it, and the same pmf against 10% more mass does not
    mixed = LambdaMeasure(m0=1.0, m1=0.5)
    prm = ModelParams(1.0, 0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf = solve_lambda_truncated(mixed, prm, tol=1e-13)
    pg = PgfEvaluator.of_probs(pmf.probs)
    zg = np.linspace(0.05, 0.9, 12)
    assert verify_master_equation(pg, mixed, prm, zg) <= 1e-10
    assert verify_master_equation(pg, LambdaMeasure(m0=1.1, m1=0.55), prm, zg) >= 1e-4


def test_master_equation_rejects_interior_measure():
    # a measure with an interior part needs the pgf's coefficients
    pg = PgfEvaluator(lambda z: z, 1.0)
    with pytest.raises(DomainError):
        verify_master_equation(pg, LambdaMeasure.uniform(2.0), ModelParams(1.0, 0.5, 0.5), [0.5])
    with pytest.raises(DomainError):
        verify_master_equation(
            pg, LambdaMeasure(m0=1.0, interior=LambdaMeasure.beta31().interior),
            ModelParams(1.0, 0.5, 0.5), [0.5],
        )


@pytest.mark.parametrize("N, z", [(10**4, 0.5), (10**4, 0.2), (10**4, 0.3), (1000, 0.5)])
def test_moran_pgf_large_prefactor_holds_its_digits(N, z):
    # the prefactor exp(log K(z) - alpha log z - beta log(1-z)) passes the
    # double range at N = 10^4, z = 1/2; each z integrates on its side of
    # I_1/I_0 relative to the largest weight there, so the value is right
    mp = MoranParams(N, 0.7, 0.25, 0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, pg = moran_closed(mp, n_max=50)
        value = pg(z)
    assert abs(value - PgfEvaluator.of_probs(solve_moran(mp).probs)(z)) <= 1e-9


def test_master_equation_identity_follows_the_measure():
    # the beta(3,1) pgf satisfies the identity of its own measure and no
    # other model's
    prm = ModelParams(1.0, 0.5, 0.5)
    _, pg = beta31_pgf(prm)
    zg = np.linspace(0.1, 0.9, 9)
    assert verify_master_equation(pg, LambdaMeasure.beta31(), prm, zg) <= 1e-10
    for other in [
        LambdaMeasure.uniform(), LambdaMeasure.kingman(),
        LambdaMeasure.beta31(2.0), LambdaMeasure.beta(2.0, 2.0),
    ]:
        assert verify_master_equation(pg, other, prm, zg) >= 1e-3
    for measure, params in [
        (None, prm),
        (LambdaMeasure.kingman(), MoranParams(12, 0.7, 0.25, 0.15)),
    ]:
        with pytest.raises(DomainError):
            verify_master_equation(pg, measure, params, zg)


def _mass_times(measure, c):
    """The measure with every part's mass multiplied by c."""
    inner = measure.interior
    if isinstance(inner, BetaDensity):
        inner = BetaDensity(inner.a, inner.b, c * inner.total_mass)
    elif isinstance(inner, UniformScaled):
        inner = UniformScaled(c * inner.c)
    elif isinstance(inner, Atoms):
        inner = Atoms(inner.locations, tuple(c * m for m in inner.masses))
    else:
        inner = CustomDensity(lambda x, d=inner.density: c * d(x))
    return LambdaMeasure(c * measure.m0, c * measure.m1, inner)


def test_lambda_pgf_identity_random_measures():
    # the paper's identity holds for truncated pmfs of every interior kind,
    # and the same pmf against 10% more mass fails it by orders
    rng = np.random.default_rng(1805)
    rs = rho_star(0.3, 0.05, ModelParams(1.0, 0.2, 0.2))
    measures = [LambdaMeasure.beta(*rng.uniform(0.3, 5.0, 2)) for _ in range(12)]
    measures += [
        LambdaMeasure.uniform(),
        LambdaMeasure(interior=CustomDensity(lambda x: 3.0 * x**2)),
        LambdaMeasure(*rng.uniform(0.2, 1.0, 2), BetaDensity(*rng.uniform(0.3, 5.0, 2))),
        pushforward_to_lambda(build_discrete_fixed_point(rs, 0.3, 0.05), rs),
    ]
    zg = np.linspace(0.05, 0.9, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in measures:
            prm = ModelParams(rng.uniform(0.2, 2.0), *rng.uniform(0.2, 1.0, 2))
            pmf = solve_lambda_truncated(measure, prm, tol=1e-13)
            pg = PgfEvaluator.of_probs(pmf.probs)
            assert verify_master_equation(pg, measure, prm, zg) <= 1e-10, (measure, prm)
            assert verify_master_equation(pg, _mass_times(measure, 1.1), prm, zg) >= 1e-4, (
                measure, prm,
            )


def test_master_equation_nan_residual_is_reported():
    pg = PgfEvaluator(lambda z: math.nan, 0.5)
    prm = ModelParams(1.0, 1.0, 0.0)
    assert math.isnan(verify_master_equation(pg, LambdaMeasure.crow_kimura(), prm, [0.5]))


@pytest.mark.parametrize("z", [0.0, 1.0, 1.5, -0.5, math.nan])
@pytest.mark.parametrize("interior", [False, True], ids=["first-order", "interior"])
def test_master_equation_refuses_z_outside_the_unit_interval(z, interior):
    # the identity divides by z and by 1 - z; one bad point refuses the grid
    prm = ModelParams(1.0, 0.5, 0.5)
    pmf, _ = bs_geometric_pmf(prm)
    measure = LambdaMeasure.uniform() if interior else LambdaMeasure.crow_kimura()
    with pytest.raises(DomainError):
        verify_master_equation(PgfEvaluator.of_probs(pmf.probs), measure, prm, [0.3, z])


@pytest.mark.parametrize("law, prm, measure", [
    (lambda prm, m: bs_geometric_pmf(prm)[0], ModelParams(6.0, 0.02, 0.02),
     LambdaMeasure.uniform()),
    (lambda prm, m: solve_lambda_truncated(m, prm, tol=1e-12), ModelParams(8.0, 0.05, 0.05),
     LambdaMeasure.beta(1.5, 2.5)),
], ids=["uniform-rho-0.98759", "beta-1.5-2.5"])
def test_master_equation_holds_with_the_pole_near_one(law, prm, measure):
    # p_{n+1}/p_n near 1: the bracket's divided differences hold their
    # digits at every r, where a short Taylor series in r did not
    zg = np.linspace(0.05, 0.9, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pg = PgfEvaluator.of_probs(law(prm, measure).probs)
        assert verify_master_equation(pg, measure, prm, zg) <= 1e-12
        assert verify_master_equation(pg, _mass_times(measure, 1.1), prm, zg) >= 1e-4


def test_lambda_bracket_divided_difference_vs_mpmath():
    # bracket / r^2 = z(1-z) f[(1-r)z, z, z + r(1-z)] against the divided
    # difference of the same three doubles in 40-digit arithmetic
    rng = np.random.default_rng(3434)
    prm = ModelParams(*rng.uniform(0.5, 2.0, 3))
    probs = solve_lambda_truncated(LambdaMeasure.beta(*rng.uniform(0.5, 4.0, 2)), prm).probs
    coef = np.concatenate(([0.0], probs))
    zc = np.sort(rng.uniform(0.0, 1.0, 10))[:, None]
    r = np.logspace(-12.0, 0.0, 60)
    a, c = (1.0 - r) * zc, zc + r * (1.0 - zc)
    got = zc * (1.0 - zc) * closedform._divided_differences(coef, a, zc, c)[2]
    with mpmath.workdps(40):
        poly = [mpmath.mpf(float(x)) for x in coef[::-1]]
        for i, j in itertools.product(range(zc.size), range(r.size)):
            ai, bi, ci = (mpmath.mpf(float(x)) for x in (a[i, j], zc[i, 0], c[i, j]))
            fa, fb, fc = (mpmath.polyval(poly, x) for x in (ai, bi, ci))
            ref = bi * (1 - bi) * ((fc - fb) / (ci - bi) - (fb - fa) / (bi - ai)) / (ci - ai)
            assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (bi, r[j])


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


def test_closed_routes_pick_their_own_truncation_random():
    # star (theta1 > 0 banded, theta1 = 0 exact tails), the beta(3,1) pmf and
    # the Kingman tail fill each size their own K; each agrees with a tighter
    # truncated solve within the default tol, and reports what it cuts
    rng = np.random.default_rng(2022)
    draws = []
    for _ in range(8):
        # theta0 log-uniform down to 0.03: tails that need K up to 2048
        prm = ModelParams(float(rng.uniform(0.5, 6.0)), float(np.exp(rng.uniform(-3.5, 0.0))),
                          float(rng.uniform(0.05, 1.0)))
        m1 = float(rng.uniform(0.5, 2.0))
        draws.append((LambdaMeasure.star(m1), prm, star_closed(m1, prm)[0]))
        prm0 = ModelParams(prm.sigma, prm.theta0, 0.0)
        draws.append((LambdaMeasure.star(m1), prm0, star_closed(m1, prm0)[0]))
        prm = ModelParams(float(rng.uniform(0.5, 8.0)), float(np.exp(rng.uniform(-3.5, 0.0))),
                          float(rng.uniform(0.0, 1.0)) * (rng.random() > 0.25))
        draws.append((LambdaMeasure.beta31(), prm, beta31_pgf(prm)[0]))
        m0 = float(rng.uniform(0.5, 3.0))
        prm = ModelParams(float(rng.uniform(2.0, 12.0)), float(rng.uniform(0.1, 2.0)),
                          float(rng.uniform(0.0, 2.0)))
        pmf = wf_closed(m0, prm)[0]
        if pmf.extras["formula_valid_to"] < pmf.truncation_K:  # handed over
            draws.append((LambdaMeasure.kingman(m0), prm, pmf))
    assert sum(pmf.solver_tag == "wf-closed" for _, _, pmf in draws) >= 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure, prm, pmf in draws:
            rec = solve_lambda_truncated(measure, prm, tol=1e-13)
            # the Kingman formula's own head keeps its 1e-10 cap (_Q_ERR_CAP)
            head = pmf.extras.get("formula_valid_to", 0)
            k = min(pmf.truncation_K, rec.truncation_K)
            assert np.max(np.abs(pmf.probs[head:k] - rec.probs[head:k])) < DEFAULT_TOL
            assert pmf.sup_distance(rec) < (1e-10 if head else DEFAULT_TOL), (measure, prm)
            if pmf.solver_tag == "star-closed-tails":
                assert pmf.tail_mass < 1e-17
            else:
                assert pmf.extras["closure_bound"] < DEFAULT_TOL, (measure, prm)


def test_wf_hand_over_counts_the_weight_integral_error():
    # I_1 = 3.3e-3 here, so the 1e-15 absolute tolerance of the weight
    # integrals is 3e-13 relative; an estimate that left it out kept the
    # formula to n = 13, where p_13 was 3.0e-10 off
    m0, prm = 0.70856, ModelParams(6.51167, 0.415212, 0.0079240)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf, _ = wf_closed(m0, prm)
        rec = solve_lambda_truncated(LambdaMeasure.kingman(m0), prm, tol=1e-13)
    assert pmf.extras["formula_valid_to"] < 13
    assert pmf.sup_distance(rec) < closedform._Q_ERR_CAP


@pytest.mark.parametrize("call, error", [
    (lambda: moran_closed(MoranParams(12, 0.7, 0.25, 0.15), n_max=0), DomainError),
    (lambda: moran_closed(MoranParams(12, 0.7, 0.25, 0.15), n_max=-3), DomainError),
    (lambda: moran_closed(MoranParams(12, 0.7, 0.0, 0.15), n_max=0), DomainError),
    (lambda: wf_closed(2.0, ModelParams(1.0, 0.5, 0.5), n_max=0), PreconditionViolated),
    (lambda: wf_closed(2.0, ModelParams(1.0, 0.0, 0.5), n_max=-1), PreconditionViolated),
    (lambda: moran_factorial_moments(MoranParams(12, 0.7, 0.25, 0.15), -1), DomainError),
    (lambda: wf_factorial_moments(2.0, ModelParams(1.0, 0.5, 0.5), -1), DomainError),
    (lambda: wf_mean(0.0, ModelParams(1.0, 0.0, 0.5), p1=0.5), PreconditionViolated),
    (lambda: wf_mean(-1.0, ModelParams(1.0, 0.5, 0.5), p1=0.5), PreconditionViolated),
    (lambda: solve_star(ModelParams(1.0, 0.5, 0.5), math.nan), DomainError),
    (lambda: solve_star(ModelParams(1.0, 0.5, 0.5), math.inf), DomainError),
    (lambda: star_closed(math.nan, ModelParams(1.0, 0.5, 0.5)), DomainError),
    (lambda: star_closed(math.inf, ModelParams(1.0, 0.5, 0.5)), DomainError),
])
def test_closed_form_sizes_and_rates_are_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_product_form_overflow_is_typed():
    # (N-n+1) t_{n-1} overflows a double long before the series ends
    with pytest.raises(DomainError):
        moran_closed(MoranParams(100000, 1.0, 0.0, 0.0), n_max=50)


class _Captured(Exception):
    pass


def _two_weight_form(call):
    """The _TwoWeightForm that a closed-form call hands to the shared route."""
    seen = []

    def capture(form, *args):
        seen.append(form)
        raise _Captured

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(closedform, "_two_weight_closed", capture)
        with pytest.raises(_Captured):
            call()
    return seen[0]


def _q_oracle(alpha, beta, x, rho, n, i):
    """q_{n,i} as the double sum of terminating 3F2 series, in mpmath."""
    total, r = mpmath.mpf(0), mpmath.mpf(1)
    for m in range(n - i + 1):
        total += r * mpmath.hyp3f2(m + 1, 1 - beta, m - n + i, alpha + m + i + 1, 1, x)
        r *= rho(i, m) / (alpha + i + 1 + m)
    return total


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def test_q_recurrence_matches_3f2_double_sum():
    # the closed form steps q_{n,i} by the cut-balance recurrence; its
    # definition is the 3F2 double sum, evaluated here with 50 digits
    rng = np.random.default_rng(1201)
    cases = []  # (form, s, rho(i, m)) of the 3F2 definition, which has x = 1 + s
    for _ in range(6):
        m0 = float(rng.uniform(0.3, 4.0))
        prm = ModelParams(*(_log_uniform(rng, 0.05, 20.0) for _ in range(3)))
        sp = mpmath.mpf(2 * prm.sigma / m0)
        cases.append((_two_weight_form(lambda: wf_closed(m0, prm)), 0, lambda i, m, sp=sp: sp))
    for _ in range(6):
        N = int(rng.integers(60, 3001))
        mp = MoranParams(N, *(_log_uniform(rng, 0.01, 2.0) for _ in range(3)))
        s = mpmath.mpf(mp.s)
        cases.append((
            _two_weight_form(lambda: moran_closed(mp)), s,
            lambda i, m, N=N, s=s: (N - i + 1 - m) * s,
        ))
    with mpmath.workdps(50):
        for form, s, rho in cases:
            x = 1 + s
            # beta = c / x holds for both models; taking it from the form's
            # c leaves only the rounding of the recurrence to compare
            alpha, beta = mpmath.mpf(form.alpha), mpmath.mpf(form.c) / x
            for n, pair in enumerate(itertools.islice(closedform._q_pairs(form), 59), start=2):
                for i, q in zip((1, 2), pair):
                    num, den = q.as_integer_ratio()
                    exact = _q_oracle(alpha, beta, x, rho, n, i)
                    assert abs(mpmath.mpf(num) / den - exact) <= 1e-15 * abs(exact), (form, n, i)


def _two_weight_oracle(form, log_k, log_K, z):
    """The two-weight pgf at z from the closed form's own I_0, I_1 and scale,
    with its integral taken by 30-digit mpmath on z's side of I_1/I_0: from
    0 to z at or below it and from z to 1 above, each with its endpoint
    power substituted away.  log_k and log_K are the form's, written for
    mpmath."""
    log_w = closedform._log_weight(form)
    scale = float(np.max(log_w(closedform._W_GRID, 1.0 - closedform._W_GRID)))
    i0, i1 = closedform._weight_integrals(log_w, scale, min(form.beta - 1.0, 0.0))
    with mpmath.workdps(30):
        ratio = mpmath.mpf(i1) / i0
        a, b, sc, z = (mpmath.mpf(v) for v in (form.alpha, form.beta, scale, z))
        if z <= ratio:
            def f(t):  # y = t^(1/(alpha+1)) takes out y^alpha
                y = t ** (1 / (a + 1))
                return (ratio - y) * mpmath.exp(log_k(y) - sc) * (1 - y) ** (b - 1) / (a + 1)

            j = mpmath.quad(f, [0, z ** (a + 1)])
        else:
            def f(t):  # y = 1 - t^(1/beta) takes out (1-y)^(beta-1)
                y = 1 - t ** (1 / b)
                return (y - ratio) * mpmath.exp(a * mpmath.log(y) + log_k(y) - sc) / b

            j = mpmath.quad(f, [0, (1 - z) ** b])
        pref = form.c * mpmath.mpf(i0) / (mpmath.mpf(i0) - i1)
        log_pref = log_K(z) - a * mpmath.log(z) - b * mpmath.log1p(-z) + sc
        return float(pref * mpmath.exp(log_pref) * j)


def test_pgfs_evaluate_whole_grids():
    # every closed pgf, and of_probs of its pmf, takes a z array: equal to
    # its pointwise values, of the input's shape, a float for a float, and 0
    # and 1 outside (0, 1); the two-weight pgfs also match a 30-digit oracle
    rng = np.random.default_rng(2501)
    laws = []  # (law, mpmath log k and log K of a two-weight form, or None)
    # beta = N rho0 or theta0' below 1 (a singular (1-y)^(beta-1)) and above
    for beta in rng.uniform([0.1, 0.1, 1.1, 1.1], [0.9, 0.9, 3.0, 3.0]):
        N = int(rng.integers(2, 61))
        s, u1 = rng.uniform(0.1, 3.0, 2) / N
        mp = MoranParams(N, float(s), float(beta * (1.0 + s) / N), float(u1))
        A = (1.0 + mp.u1 + mp.u0 / (1.0 + s)) * N
        laws.append((lambda mp=mp: moran_closed(mp),
                     (lambda y, A=A, s=s: -(A + 1) * mpmath.log1p(s * y),
                      lambda z, A=A, s=s: A * mpmath.log1p(s * z))))
        m0 = float(rng.uniform(0.5, 3.0))
        sigma, th1 = rng.uniform(0.1, 3.0, 2) * m0 / 2
        prm = ModelParams(float(sigma), float(beta * m0 / 2), float(th1))
        sp = 2 * prm.sigma / m0
        laws.append((lambda m0=m0, prm=prm: wf_closed(m0, prm),
                     (lambda y, sp=sp: -sp * y, lambda z, sp=sp: sp * z)))
    for _ in range(2):
        prm = ModelParams(*rng.uniform(0.3, 1.5, 3))
        prm0 = ModelParams(prm.sigma, prm.theta0, 0.0)
        m1 = float(rng.uniform(0.5, 2.0))
        laws += [
            (lambda m1=m1, prm=prm: star_closed(m1, prm), None),
            (lambda m1=m1, prm0=prm0: star_closed(m1, prm0), None),
            (lambda prm=prm: beta31_pgf(prm), None),
            (lambda prm=prm: bs_geometric_pmf(prm), None),
            (lambda prm=prm: crow_kimura_geometric(prm), None),
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law, logs in laws:
            pmf, pgf = law()
            z = np.sort(rng.uniform(0.02, 0.95, 12))
            for pg in (pgf, PgfEvaluator.of_probs(pmf.probs)):
                grid = pg(z)
                assert np.max(np.abs(grid - [pg(float(v)) for v in z])) <= 1e-12
                # the stencil divides evaluate's differences by h ~ 1e-5
                assert np.max(np.abs(pg.d(z) - [pg.d(float(v)) for v in z])) <= 3e-12 / 1e-5
                assert type(pg(0.5)) is float and type(pg.d(0.5)) is float
                assert np.array_equal(pg(z.reshape(3, 4)), grid.reshape(3, 4))
                assert pg.d(z.reshape(3, 4)).shape == (3, 4)
                assert pg(np.array([-1.0, 0.0, 1.0, 2.0])).tolist() == [0.0, 0.0, 1.0, 1.0]
            if logs is not None:
                form = _two_weight_form(law)
                for v in z[[0, 6, 11]]:
                    assert abs(pgf(v) - _two_weight_oracle(form, *logs, v)) <= 1e-12, (form, v)
    # the star pgf is one integral for every theta1 >= 0: against the power
    # series of solve_star's pmf, on grids that come within 1e-4 of x- (0 at
    # theta1 = 0), where the factor x- - z cancels against P(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for th1_zero in (True, False, True, False):
            prm = ModelParams(*rng.uniform(0.3, 1.5, 3))
            if th1_zero:
                prm = ModelParams(prm.sigma, prm.theta0, 0.0)
            m1 = float(rng.uniform(0.5, 2.0))
            xm = closedform._p_roots(prm)[1]
            near = xm + rng.uniform(-1e-4, 1e-4, 4) if xm else rng.uniform(1e-9, 1e-4, 4)
            z = np.sort(np.concatenate([rng.uniform(0.02, 0.95, 12), near, [xm] if xm else []]))
            pmf, pgf = star_closed(m1, prm)
            ref = PgfEvaluator.of_probs(solve_star(prm, m1).probs)
            assert np.max(np.abs(pgf(z) - ref(z))) <= 1e-12, (m1, prm)
            assert abs(pgf.p1 - pmf.probs[0]) <= 1e-13, (m1, prm)
    # a closure that returns a scalar is broadcast over the interior points
    const = PgfEvaluator(lambda z: 0.25, 0.25)
    assert const(np.array([0.0, 0.3, 0.6, 1.0])).tolist() == [0.0, 0.25, 0.25, 1.0]


def _property_draws():
    """Seeded (kind, m0 or n_max, params) draws over Kingman and Moran forms."""
    rng = np.random.default_rng(1202)
    draws = []
    for _ in range(200):
        m0 = float(rng.uniform(0.3, 4.0))
        draws.append(("wf", m0, ModelParams(*(_log_uniform(rng, 0.05, 20.0) for _ in range(3)))))
    for _ in range(200):
        N = int(rng.integers(3, 3001))
        rates = (_log_uniform(rng, 0.01, 2.0) for _ in range(3))
        draws.append(("moran", min(N, 200), MoranParams(N, *rates)))
    for _ in range(50):
        # diffusion scaling: N s, N u0, N u1 of order one
        N = int(_log_uniform(rng, 10, 1e5))
        rates = (_log_uniform(rng, 0.05, 20.0) / N for _ in range(3))
        draws.append(("moran", min(N, 200), MoranParams(N, *rates)))
    return draws


def _head_distance(kind, arg, prm):
    """Sup distance of a closed-form head from the stable solver, or None
    when the closed form refuses with a typed error."""
    try:
        if kind == "wf":
            pmf, _ = wf_closed(arg, prm)
        else:
            pmf, _ = moran_closed(prm, n_max=arg)
    except BlockstatError:
        return None
    if kind == "wf":
        ref = solve_lambda_truncated(LambdaMeasure.kingman(arg), prm, tol=1e-12)
    else:
        ref = solve_moran(prm)
    head = np.zeros(pmf.truncation_K)
    k = min(pmf.truncation_K, ref.truncation_K)
    head[:k] = ref.probs[:k]
    return float(np.max(np.abs(pmf.probs - head)))


def _check_draws(draws):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists = [_head_distance(*draw) for draw in draws]
    for draw, dist in zip(draws, dists):
        assert dist is None or dist <= 1e-9, draw
    # a refusal is allowed, but the route must not refuse wholesale
    assert dists.count(None) <= len(draws) // 50


def test_two_weight_forms_vs_stable_solvers_random():
    _check_draws(_property_draws())


def test_two_weight_forms_in_plain_double(monkeypatch):
    # platforms whose long double is a plain double step q_{n,i} in float64
    monkeypatch.setattr(closedform, "_QDTYPE", np.float64)
    draws = _property_draws()
    pick = np.random.default_rng(1203).choice(len(draws), 100, replace=False)
    _check_draws([draws[j] for j in pick])


def test_two_weight_form_steps_only_to_the_hand_over():
    # N = 10^5: the formula hands over early, so the recurrence must not
    # have run for all N states
    mp = MoranParams(10**5, 1e-5, 5e-6, 5e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf, _ = moran_closed(mp)
    assert pmf.extras["formula_valid_to"] < 200
    assert pmf.sup_distance(solve_moran(mp)) <= 1e-9
    # n_max = 400 took seconds when each q_{n,i} was a 3F2 double sum
    prm = ModelParams(1.0, 1.0, 0.5)
    pmf, _ = wf_closed(2.0, prm, n_max=400)
    rec = solve_lambda_truncated(LambdaMeasure.kingman(2.0), prm, tol=1e-12)
    assert pmf.sup_distance(rec) <= 1e-9


def _large_n_moran_draws():
    # N in 5e4..1e5 with rates of order one, where the weight integrals of
    # the formula's p_1 lose their digits; plus a case that raised
    # QuadratureFailure before the head was compared at the hand-over
    rng = np.random.default_rng(2026)
    draws = []
    for _ in range(10):
        N = int(rng.integers(50_000, 100_001))
        draws.append(MoranParams(N, *(float(v) for v in rng.uniform(0.1, 2.0, 3))))
    return draws + [MoranParams(2703, 1.852, 0.0151, 1.041)]


@pytest.mark.parametrize("mp", _large_n_moran_draws(), ids=lambda mp: f"N{mp.N}")
def test_moran_hand_over_is_right_or_refused(mp):
    # the formula's p_1 is either the banded solve's or the call raises;
    # moran_mean asks for n_max = 1, so it must not skip the check
    ref = solve_moran(mp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pmf, _ = moran_closed(mp, n_max=100)
            assert np.max(np.abs(pmf.probs - ref.probs[:100])) <= 1e-9
        except BlockstatError:
            pass
        try:
            assert moran_mean(mp) == pytest.approx(ref.mean(), rel=1e-9)
        except BlockstatError:
            pass


_SWEEP_Z = np.linspace(0.05, 0.95, 20)


def test_moran_pgf_is_right_or_refused_random():
    # N in 2..10^4 with rates 0.1..2 at mid z, plus three laws whose pgf
    # loses its digits at mid z when integrated on the wrong side of
    # I_1/I_0: every value is the banded pmf's power series, or the call
    # refuses
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(150):
        N = int(_log_uniform(rng, 2, 1e4))
        draws.append(MoranParams(N, *(_log_uniform(rng, 0.1, 2.0) for _ in range(3))))
    draws += [
        MoranParams(62, 0.4886, 0.6376, 0.04176),
        MoranParams(154, 1.0586, 0.9049, 0.5880),
        MoranParams(200, 0.7, 0.25, 0.15),
    ]
    returned = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mp in draws:
            ref = PgfEvaluator.of_probs(solve_moran(mp).probs)(_SWEEP_Z)
            try:
                _, pg = moran_closed(mp, n_max=min(mp.N, 50))
                value = pg(_SWEEP_Z)
            except BlockstatError:
                continue
            returned += 1
            assert np.max(np.abs(value - ref)) <= 1e-9, mp
    assert returned >= 140


def test_kingman_pgf_vs_pmf_series_random():
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(75):
            m0 = float(rng.uniform(0.5, 4.0))
            prm = ModelParams(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)))
            _, pg = wf_closed(m0, prm, n_max=40)
            rec = solve_lambda_truncated(LambdaMeasure.kingman(m0), prm, tol=1e-14)
            ref = PgfEvaluator.of_probs(rec.probs)(_SWEEP_Z)
            assert np.max(np.abs(pg(_SWEEP_Z) - ref)) <= 1e-12, (m0, prm)


@pytest.mark.parametrize("N", [20_000, 100_000])
def test_product_form_residual_is_finite(N):
    # u0 = 0: the residual is the first term left out (none for the
    # terminating Moran sum), not a second evaluation of the series
    mp = MoranParams(N, 0.5, 0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf, _ = moran_closed(mp)
    assert 0.0 <= pmf.residual <= 1e-12
    assert np.max(np.abs(pmf.probs - solve_moran(mp).probs)) <= 1e-12


def test_crow_kimura_rho_from_the_single_discriminant():
    # rho = 2 sigma / (sigma + theta + d) against a high-precision root,
    # down to theta1 = 1e-12, where the reversed quadratic formula cancelled
    def ref(sigma, th0, th1):
        # the root in [0, 1) of theta1 x^2 - (sigma+theta) x + sigma; 700
        # digits outlast the quadratic formula's cancellation down to 1e-300
        with mpmath.workdps(700):
            s, t0, t1 = (mpmath.mpf(v) for v in (sigma, th0, th1))
            if t1 == 0:
                return s / (s + t0)
            return (s + t0 + t1 - mpmath.sqrt((s - t0 - t1) ** 2 + 4 * s * t0)) / (2 * t1)

    rng = np.random.default_rng(2811)
    draws = [(2.0, 0.3, 1e-12), (1.0, 1.0, 1e-10), (0.3, 2.0, 1e-9), (0.0, 1.0, 0.5),
             (0.0, 0.0, 2.0), (1.0, 0.7, 0.0)]
    for _ in range(40):
        sg, th0 = np.exp(rng.uniform(math.log(0.05), math.log(10.0), 2))
        th1 = np.exp(rng.uniform(math.log(1e-12), math.log(10.0)))
        draws.append((float(sg), float(th0), float(th1)))
    for prm in draws:
        rho = crow_kimura_geometric(ModelParams(*prm))[0].extras["rho"]
        want = ref(*prm)
        assert abs(rho - want) <= 1e-15 * want, prm  # rho = 0 at sigma = 0
    # no overflow up to 1e300; a rho that rounds to 1 is refused
    for prm in itertools.product((0.0, 1e-300, 1.0, 1e300), repeat=3):
        if prm[1] > 0 or prm[2] > prm[0]:
            try:
                assert 0.0 <= crow_kimura_geometric(ModelParams(*prm))[0].extras["rho"] < 1.0
            except DomainError:  # only where the true rho rounds to 1
                assert 1.0 - ref(*prm) < 1e-16, prm
    for prm in ((1e300, 1.0, 0.0), (5.0, 1e-300, 0.0)):
        with pytest.raises(DomainError, match="rounds to 1"):
            crow_kimura_geometric(ModelParams(*prm))
