"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one line `[criterion NN] name: value <= tol  PASS` so the
whole gate is auditable from the pytest -s output.  All randomness is
seeded; runtime-limited criteria assert their budget.
"""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import betaln, hyp1f1, hyp2f1, lambertw

import blockstat.closedform as cf
import blockstat.duality as du
import blockstat.geomfix as gf
import blockstat.recursions as rc
import blockstat.simulate as sim
import blockstat.specfun as sf
from blockstat.measures import LambdaMeasure, ModelParams, MoranParams


def _report(num: int, name: str, value: float, tol: float) -> None:
    status = "PASS" if value <= tol else "FAIL"
    print(f"[criterion {num:2d}] {name}: {value:.3e} <= {tol:.1e}  {status}")
    assert value <= tol, f"criterion {num} failed: {name} = {value} > {tol}"


def _moran_grid(seed: int, count: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            MoranParams(
                int(rng.integers(2, 51)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.0, 1.0)) * (rng.random() > 0.25),
                float(rng.uniform(0.0, 1.0)) * (rng.random() > 0.25),
            )
        )
    return out


def test_criterion_01_moran_triple_agreement():
    t0 = time.monotonic()
    worst = 0.0
    for mp in _moran_grid(20260810, 50):
        closed, _ = cf.moran_closed(mp)
        shoot = rc.solve_moran(mp)
        gth = rc.solve_moran_nullspace(mp)
        worst = max(
            worst,
            closed.sup_distance(shoot),
            closed.sup_distance(gth),
            shoot.sup_distance(gth),
        )
    elapsed = time.monotonic() - t0
    _report(1, "Moran triple agreement (50 random sets, N <= 50)", worst, 1e-9)
    _report(1, "Moran triple runtime [s]", elapsed, 5.0)


def test_criterion_02_moran_simulation_tv():
    mp = MoranParams(10, 0.5, 0.1, 0.1)
    t0 = time.monotonic()
    path = sim.simulate_moran_L(mp, 5, 10**6, seed=20260810)
    occ = sim.occupancy(path, 0.2)
    tv = occ.tv_distance(rc.solve_moran(mp).probs)
    elapsed = time.monotonic() - t0
    _report(2, "Moran occupancy vs solver (TV, 1e6 events)", tv, 0.01)
    _report(2, "Moran simulation runtime [s]", elapsed, 10.0)


def test_criterion_03_kingman_closed_vs_solver():
    king = LambdaMeasure.kingman(2.0)
    worst = 0.0
    for s_ in (0.5, 1.0, 2.0):
        for t0_ in (0.5, 1.0, 2.0):
            for t1_ in (0.5, 1.0, 2.0):
                prm = ModelParams(s_, t0_, t1_)
                pmf, _ = cf.wf_closed(2.0, prm)
                rec = rc.solve_lambda_truncated(king, prm, tol=1e-12)
                worst = max(worst, pmf.sup_distance(rec))
    _report(3, "Kingman closed vs recursion (27 parameter sets)", worst, 1e-8)
    pmf0, _ = cf.wf_closed(2.0, ModelParams(1.0, 0.0, 0.0))
    n = np.arange(1, pmf0.truncation_K + 1)
    pois = np.exp(-1.0) / (1 - np.exp(-1.0)) / np.array(
        [math.factorial(int(k)) for k in n]
    )
    _report(
        3,
        "theta = 0 equals conditioned Poisson(sigma)",
        float(np.max(np.abs(pmf0.probs - pois))),
        1e-12,
    )


def test_criterion_04_finite_N_convergence():
    prm = ModelParams(1.0, 0.5, 0.5)
    wf_pmf, _ = cf.wf_closed(2.0, prm)
    sups = []
    for N in (100, 1000, 10000):
        mp = MoranParams(N, 1.0 / N, 0.5 / N, 0.5 / N)
        m_pmf, _ = cf.moran_closed(mp, n_max=80)
        width = max(m_pmf.truncation_K, wf_pmf.truncation_K)
        a = np.zeros(width)
        a[: m_pmf.truncation_K] = m_pmf.probs
        b = np.zeros(width)
        b[: wf_pmf.truncation_K] = wf_pmf.probs
        sups.append(float(np.max(np.abs(a - b))))
    print(f"[criterion  4] sup distances over N in (100, 1000, 10000): {sups}")
    assert sups[0] > sups[1] > sups[2], "convergence not monotone"
    _report(4, "monotone decrease indicator (0 = strict)", 0.0, 0.5)


def test_criterion_05_bolthausen_sznitman_geometry():
    prm = ModelParams(1.0, 0.5, 0.5)
    uni = LambdaMeasure.uniform()
    geo, _ = cf.bs_geometric_pmf(prm)
    rho = geo.extras["rho"]
    rec = rc.solve_lambda_truncated(uni, prm, tol=1e-11)
    _report(5, "uniform recursion vs Geom(1-rho)", rec.sup_distance(geo), 1e-6)
    rep = gf.check_geometric(uni, rho, n_max=50, params=prm)
    _report(
        5,
        "geometric conditions residual (n <= 50)",
        max(float(np.max(rep.cg3a_residuals)), rep.cg3b_residual),
        1e-8,
    )
    worst = 0.0
    for prm_sp in (
        ModelParams(1.0, 0.0, 0.0),
        ModelParams(1.0, 0.0, 0.5),
        ModelParams(1.0, 0.5, 0.0),
    ):
        worst = max(worst, abs(cf.bs_rho(prm_sp) - cf.bs_rho_special(prm_sp)))
    _report(5, "Lambert-W special cases vs general root", worst, 1e-15)


def test_criterion_06_star_shaped():
    prm0 = ModelParams(1.0, 0.4, 0.0)
    closed0, _ = cf.star_closed(1.0, prm0)
    rec0 = rc.solve_lambda_truncated(LambdaMeasure.star(1.0), prm0, tol=1e-11)
    _report(6, "star theta1 = 0 closed vs recursion", closed0.sup_distance(rec0), 1e-12)

    prm = ModelParams(1.0, 0.5, 0.5)
    pmf, pgf = cf.star_closed(1.0, prm)
    n = np.arange(1, pmf.truncation_K + 1)
    worst = max(
        abs(pgf.evaluate(z) - float(np.dot(pmf.probs, z**n)))
        for z in np.linspace(0.05, 0.95, 20)
    )
    _report(6, "star closed pgf vs recursion pmf", worst, 1e-7)
    eps = 1e-5
    extrap = 2 * pgf.evaluate(1 - eps / 2) - pgf.evaluate(1 - eps)
    _report(6, "|g(1) - 1| (Richardson toward 1)", abs(extrap - 1.0), 1e-8)


def test_criterion_07_factorial_moment_recursions():
    worst = 0.0
    for mp in _moran_grid(7, 10):
        pmf = rc.solve_moran_nullspace(mp)
        j = np.arange(1, pmf.truncation_K + 1, dtype=float)
        for n in range(1, min(10, mp.N - 1) + 1):
            en, en1 = pmf.falling_moment(n), pmf.falling_moment(n + 1)
            sh = np.ones_like(j)
            for i in range(n):
                sh *= j - 1 - i
            esh = float(np.dot(sh, pmf.probs))
            lhs = ((n + 1) * (1 + mp.s) + mp.N * mp.u0) * en1
            rhs = (n + 1) * (mp.N - n) * mp.s * en - mp.N * (n + 1) * mp.u1 * esh
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    _report(7, "Moran factorial-moment recursion residual", worst, 1e-8)

    king = LambdaMeasure.kingman(2.0)
    worst = 0.0
    for s_ in (0.5, 1.0, 2.0):
        for t0_ in (0.5, 1.0, 2.0):
            for t1_ in (0.5, 1.0, 2.0):
                prm = ModelParams(s_, t0_, t1_)
                pmf = rc.solve_lambda_truncated(king, prm, tol=1e-12)
                j = np.arange(1, pmf.truncation_K + 1, dtype=float)
                for n in range(1, 11):
                    en, en1 = pmf.falling_moment(n), pmf.falling_moment(n + 1)
                    sh = np.ones_like(j)
                    for i in range(n):
                        sh *= j - 1 - i
                    esh = float(np.dot(sh, pmf.probs))
                    lhs = ((n + 1) * 2.0 + 2 * t0_) * en1
                    rhs = 2 * (n + 1) * s_ * en - 2 * (n + 1) * t1_ * esh
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    _report(7, "Kingman factorial-moment recursion residual", worst, 1e-8)


def test_criterion_08_duality_monte_carlo():
    t0 = time.monotonic()
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 1.0, 1.0)
    ms = du.solve_w_moments(king, prm, tol=1e-10)
    worst_z = 0.0
    for n in range(1, 6):
        freq = sim.simulate_killed_asg(king, prm, n, 10**5, seed=8000 + n)
        se = math.sqrt(ms[n] * (1 - ms[n]) / 1e5)
        worst_z = max(worst_z, abs(freq - ms[n]) / se)
    _report(8, "killed-ASG absorption vs moments (|z|, n <= 5)", worst_z, 3.0)

    zero = LambdaMeasure.crow_kimura()
    ms0 = du.solve_w_moments(zero, ModelParams(1.0, 1.0, 1.0), tol=1e-12)
    w = (3 - math.sqrt(5)) / 2
    worst = max(abs(ms0[n] - w**n) for n in range(0, 13))
    _report(8, "zero-measure moments vs closed power law", worst, 1e-10)
    _report(8, "duality runtime [s]", time.monotonic() - t0, 60.0)


def test_criterion_09_generating_function_taylor_head():
    prm = ModelParams(1.0, 0.5, 0.5)
    uni = LambdaMeasure.uniform()
    ms = du.solve_w_moments(uni, prm, tol=1e-12)
    wg = du.bs_w_generating(prm, n_taylor=10)
    worst = max(abs(wg.taylor[n] - ms[n]) for n in range(1, 11))
    _report(9, "generating-function Taylor head vs moments", worst, 1e-10)


def test_criterion_10_fixed_point_pipeline():
    mu_half = gf.build_discrete_fixed_point(0.5, 0.3, 0.05, K=200)
    smu = gf.apply_S(mu_half, 0.5)
    got = {int(k): m for k, m in zip(smu.ks, smu.masses)}
    worst = max(
        abs(got[int(k)] - m) / m
        for k, m in zip(mu_half.ks, mu_half.masses)
        if mu_half.ks.min() < k < mu_half.ks.max()
    )
    _report(10, "S mu = mu on atoms (rho = 0.5, relative)", worst, 1e-12)

    prm = ModelParams(1.0, 0.2, 0.2)
    rs = gf.rho_star(0.3, 0.05, prm)
    mu = gf.build_discrete_fixed_point(rs, 0.3, 0.05)
    lam = gf.pushforward_to_lambda(mu, rs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pmf = rc.solve_lambda_truncated(lam, prm, tol=1e-10)
    n = np.arange(1, pmf.truncation_K + 1)
    geo = (1 - rs) * rs ** (n - 1.0)
    _report(
        10, "pushforward measure yields Geom(1-rho*)",
        float(np.max(np.abs(pmf.probs - geo))), 1e-6,
    )
    numeric, closed = gf.fixed_point_sum_identity(mu, rs)
    _report(10, "fixed-point sum identity", abs(numeric - closed), 1e-10)


def test_criterion_11_master_equation_residuals():
    zg = np.linspace(0.04, 0.92, 20)
    mp = MoranParams(12, 0.7, 0.25, 0.15)
    _, pg = cf.moran_closed(mp)
    _report(11, "Moran pgf ODE residual", cf.verify_master_equation(pg, None, mp, zg), 1e-6)

    king = LambdaMeasure.kingman(2.0)
    prm_k = ModelParams(1.0, 1.0, 0.5)
    _, pg_k = cf.wf_closed(2.0, prm_k)
    _report(
        11, "Kingman pgf ODE residual",
        cf.verify_master_equation(pg_k, king, prm_k, zg), 1e-6,
    )

    star = LambdaMeasure.star(1.0)
    prm_s = ModelParams(1.0, 0.5, 0.5)
    _, pg_s = cf.star_closed(1.0, prm_s)
    _report(
        11, "star integro-differential residual",
        cf.verify_master_equation(pg_s, star, prm_s, zg), 1e-6,
    )

    prm_b = ModelParams(1.0, 0.5, 0.5)
    _, pg_b = cf.bs_geometric_pmf(prm_b)
    _report(
        11, "uniform pgf identity residual",
        cf.verify_master_equation(pg_b, LambdaMeasure.uniform(), prm_b, zg), 1e-6,
    )


def test_criterion_12_beta31():
    prm = ModelParams(1.0, 0.5, 0.5)
    pmf_ode, _ = cf.beta31_pgf(prm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = rc.solve_lambda_truncated(LambdaMeasure.beta31(), prm, tol=1e-11)
    _report(12, "beta(3,1) ODE pmf vs recursion", pmf_ode.sup_distance(rec), 1e-6)


def _mp_rel(got: float, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


@mpmath.workdps(40)
def test_criterion_13_special_function_identities():
    """The star pgf against its hypergeometric closed forms, the
    scipy.special values the package reads, the product-form pgfs, and the
    Euler integrals of 2F1 and 1F1 through quad_power_endpoints, each on
    the parameter ranges the package uses, against 40-digit mpmath."""
    rng = np.random.default_rng(13)
    # star_closed's pgf, one integral for every theta1 >= 0, against its
    # hypergeometric closed forms: at theta1 = 0, 1 - (1-z) 2F1(1, 1; 1+c; x z)
    # with c = m1/(sigma+theta0), x = sigma/(sigma+theta0) (x = 1 at theta0 = 0)
    worst = 0.0
    for _ in range(40):
        sigma = rng.uniform(0.1, 3.0)
        th0 = rng.uniform(0.0, 3.0) * (rng.random() > 0.25)
        c = rng.uniform(0.01, 10.0)
        z = np.sort(np.concatenate([rng.uniform(0.0, 0.999, 4), [0.99, 0.998]]))
        got = cf.star_closed(c * (sigma + th0), ModelParams(sigma, th0, 0.0))[1](z)
        x = mpmath.mpf(sigma) / (sigma + th0)
        for zi, g in zip(z, got):
            want = 1 - (1 - mpmath.mpf(zi)) * mpmath.hyp2f1(1, 1, 1 + c, x * zi)
            worst = max(worst, _mp_rel(g, want))
    _report(13, "star pgf theta1 = 0 vs mpmath 2F1(1,1;1+c;xz) (relative)", worst, 1e-9)

    # theta1 > 0: z (1 - (1-z) f) with f = d / ((m1+d)(x+ - x-)) 2F1(2, 1; e+2; w),
    # e = m1/d, w = (z - x-)/(x+ - x-), P = sigma (z - x-)(z - x+); z near x- too
    worst = 0.0
    for _ in range(40):
        prm = ModelParams(*rng.uniform(0.1, 3.0, 3))
        s, t0, t1 = (mpmath.mpf(v) for v in (prm.sigma, prm.theta0, prm.theta1))
        d = mpmath.sqrt((s - t0 - t1) ** 2 + 4 * s * t0)
        xp = (s + t0 + t1 + d) / (2 * s)
        xm = t1 / (s * xp)
        e = rng.uniform(0.01, 10.0)
        m1 = float(e * d)
        near = float(xm) + rng.uniform(-1e-3, 1e-3, 2)
        z = np.sort(np.concatenate([rng.uniform(0.0, 0.999, 4), near]))
        got = cf.star_closed(m1, prm)[1](z)
        for zi, g in zip(z, got):
            zm = mpmath.mpf(zi)
            f = d / ((m1 + d) * (xp - xm)) * mpmath.hyp2f1(2, 1, m1 / d + 2, (zm - xm) / (xp - xm))
            worst = max(worst, _mp_rel(g, zm * (1 - (1 - zm) * f)))
    _report(13, "star pgf theta1 > 0 vs mpmath 2F1(2,1;e+2;w) (relative)", worst, 1e-9)

    # bs_rho_special: Lambert W on [1e-8, 1e8]
    worst = 0.0
    for x in 10.0 ** rng.uniform(-8.0, 8.0, 300):
        worst = max(worst, _mp_rel(lambertw(x).real, mpmath.lambertw(x)))
    _report(13, "scipy Lambert W vs mpmath (relative)", worst, 1e-9)

    # product forms: the closed sums their residuals are measured against,
    # and the pgf sum_n p_n z^n over all terms against the hypergeometric pgf
    zs = (0.1, 0.5, 0.9, 0.99)
    worst_sum = worst_pgf = 0.0
    for _ in range(150):
        mp = MoranParams(int(rng.integers(2, 1001)), float(rng.uniform(0.1, 2.0)), 0.0,
                         float(rng.uniform(0.2, 1.0)))
        N, s, u = mp.N, mp.s, mp.u
        pgf = cf.moran_closed(mp, n_max=50)[1]
        denom = mpmath.hyp2f1(1, 1 - N, N * u + 2, -s)
        worst_sum = max(worst_sum, _mp_rel(hyp2f1(1.0, 1.0 - N, N * u + 2.0, -s), denom))
        for z in zs:
            want = z * mpmath.hyp2f1(1, 1 - N, N * u + 2, -s * z) / denom
            worst_pgf = max(worst_pgf, float(abs(pgf(z) - want)))
    _report(13, "scipy Moran terminating 2F1 vs mpmath (relative)", worst_sum, 1e-9)
    _report(13, "Moran u0 = 0 pgf from its terms vs mpmath", worst_pgf, 1e-9)

    worst_sum = worst_pgf = 0.0
    for _ in range(100):
        m0 = float(rng.uniform(0.5, 4.0))
        prm = ModelParams(float(rng.uniform(0.1, 50.0)), 0.0, float(rng.uniform(0.0, 3.0)))
        sp, tp = 2.0 * prm.sigma / m0, 2.0 * prm.theta / m0
        pgf = cf.wf_closed(m0, prm)[1]
        denom = mpmath.hyp1f1(1, 2 + tp, sp)
        worst_sum = max(worst_sum, _mp_rel(hyp1f1(1.0, 2.0 + tp, sp), denom))
        for z in zs:
            want = z * mpmath.hyp1f1(1, 2 + tp, sp * z) / denom
            worst_pgf = max(worst_pgf, float(abs(pgf(z) - want)))
    _report(13, "scipy 1F1(1;2+theta';sigma') vs mpmath (relative)", worst_sum, 1e-9)
    _report(13, "Kingman theta0 = 0 pgf from its terms vs mpmath", worst_pgf, 1e-9)

    # Euler integrals: endpoint exponents b-1, c-b-1 (2F1) and a-1, c-a-1
    # (1F1) in (-1, 2), so both the power substitution and the plain
    # panels of quad_power_endpoints are taken
    worst = 0.0
    for _ in range(100):
        b = rng.uniform(0.1, 3.0)
        c = b + rng.uniform(0.1, 3.0)
        a = rng.uniform(-2.0, 3.0)
        z = rng.uniform(-0.9, 0.9)
        got = math.exp(-betaln(b, c - b)) * sf.quad_power_endpoints(
            lambda t: np.power(1.0 - z * t, -a), 0.0, 1.0, alpha=b - 1.0, beta=c - b - 1.0
        )
        worst = max(worst, float(abs(got - mpmath.hyp2f1(a, b, c, z))))
    _report(13, "2F1 Euler integral (quad_power_endpoints) vs mpmath", worst, 1e-9)

    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 3.0)
        c = a + rng.uniform(0.1, 3.0)
        z = rng.uniform(-10.0, 10.0)
        got = math.exp(-betaln(a, c - a)) * sf.quad_power_endpoints(
            lambda t: np.exp(z * t), 0.0, 1.0, alpha=a - 1.0, beta=c - a - 1.0
        )
        want = mpmath.hyp1f1(a, c, z)
        worst = max(worst, float(abs(got - want) / max(1, abs(want))))
    _report(13, "1F1 Euler integral (quad_power_endpoints) vs mpmath", worst, 1e-9)


def test_criterion_14_absorption_identities():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(60):
        sigma = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(0.0, 1.0))
        rho = 1.0 - math.exp(-sigma)
        worst = max(
            worst, abs(du.bs_absorption(x, sigma) - du.geometric_pgf_absorption(x, rho))
        )
    _report(14, "uniform-measure absorption vs geometric pgf", worst, 1e-13)

    worst = 0.0
    for _ in range(60):
        sigma = float(rng.uniform(0.05, 4.0))
        m0 = float(rng.uniform(0.3, 4.0))
        x = float(rng.uniform(0.0, 1.0))
        worst = max(
            worst,
            abs(du.kimura_fixation(x, sigma, m0) - du.poisson_duality_fixation(x, sigma, m0)),
        )
    _report(14, "Kimura fixation vs conditioned-Poisson duality", worst, 1e-12)

    mp = MoranParams(5, 0.5)
    target = du.moran_fixation(2, 5, 0.5)
    fixed = 0
    n_rep = 10**5
    rng_paths = sim._BlockRng(202614)
    cache: dict = {}
    for _rep in range(n_rep):
        state = 2
        while 0 < state < 5:
            entry = cache.get(state)
            if entry is None:
                entry = sim.moran_X_rates(mp, state)
                cache[state] = entry
            targets, cum, total = entry
            _, u = rng_paths.draw()
            state = int(targets[np.searchsorted(cum, u * total, side="right")])
        fixed += state == 5
    se = math.sqrt(target * (1 - target) / n_rep)
    _report(
        14, "Moran fixation formula vs simulation (|z|)",
        abs(fixed / n_rep - target) / se, 3.0,
    )


def test_criterion_15_negative_controls():
    failures_ok = True
    worst_margin = math.inf
    for name, measure in (
        ("kingman", LambdaMeasure.kingman(2.0)),
        ("star", LambdaMeasure.star(1.0)),
        ("beta(2,1)", LambdaMeasure.beta(2, 1)),
        ("beta(1,2)", LambdaMeasure.beta(1, 2)),
        ("beta(3,1)", LambdaMeasure.beta31()),
    ):
        for rho in np.linspace(0.01, 0.99, 99):
            rep = gf.check_geometric(measure, float(rho), n_max=3)
            if rep.passed:
                failures_ok = False
            if measure.m0 == 0 and measure.m1 == 0:
                worst_margin = min(worst_margin, float(np.max(rep.cg3a_residuals)))
    print(
        f"[criterion 15] negative controls fail everywhere: {failures_ok}; "
        f"smallest beta-family margin {worst_margin:.3e}"
    )
    assert failures_ok
    assert worst_margin > 1e-6
