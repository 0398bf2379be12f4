"""Moment duality: stationary moments, generating function, fixation laws."""

import math
import time

import numpy as np
import pytest

import blockstat.duality
import blockstat.measures
from blockstat.closedform import bs_rho, crow_kimura_geometric
from blockstat.duality import (
    _extend_w_system,
    ancestral_type_h,
    ancestral_type_h_from_tails,
    bs_absorption,
    bs_w_generating,
    complete_monotonicity_defect,
    geometric_pgf_absorption,
    kimura_fixation,
    moran_fixation,
    poisson_duality_fixation,
    solve_w_moments,
)
from blockstat.errors import DomainError, PreconditionViolated
from blockstat.measures import (
    BetaDensity,
    CustomDensity,
    LambdaMeasure,
    ModelParams,
    lambda_rate,
    merger_row,
    merger_rows,
)


def test_w_moments_zero_measure_power_law():
    zero = LambdaMeasure.crow_kimura()
    ms = solve_w_moments(zero, ModelParams(1.0, 1.0, 1.0), tol=1e-12)
    w = (3 - math.sqrt(5)) / 2
    for n in range(12):
        assert ms[n] == pytest.approx(w**n, abs=1e-12)
    assert ms[0] == 1.0
    assert np.all(np.diff(ms.w[:40]) <= 0)
    assert ms.monotonicity_defect <= 1e-10


def test_w_moments_requires_two_way_mutation():
    with pytest.raises(PreconditionViolated):
        solve_w_moments(LambdaMeasure.uniform(), ModelParams(1.0, 1.0, 0.0))


def test_complete_monotonicity_detector():
    geom = 0.5 ** np.arange(12)
    assert complete_monotonicity_defect(geom) == 0.0
    assert math.copysign(1.0, complete_monotonicity_defect(geom)) == 1.0  # +0.0, not -0.0
    assert complete_monotonicity_defect(np.array([1.0, 0.1, 0.5])) > 0


def test_bs_s2_is_root():
    prm = ModelParams(1.0, 0.5, 0.5)
    s2 = bs_w_generating(prm).s2
    assert s2 == bs_rho(prm)
    h = (
        prm.theta * s2
        - prm.theta1 * s2**2
        - prm.sigma * (1 - s2)
        - (1 - s2) * math.log1p(-s2)
    )
    assert abs(h) < 1e-12


def test_bs_w_generating_against_moments():
    uni = LambdaMeasure.uniform()
    for prm in (ModelParams(1.0, 0.5, 0.5), ModelParams(1.0, 1.0, 1.0), ModelParams(0.5, 2.0, 0.3)):
        ms = solve_w_moments(uni, prm, tol=1e-12)
        wg = bs_w_generating(prm, n_taylor=12)
        for n in range(1, 13):
            assert wg.taylor[n] == pytest.approx(ms[n], abs=1e-10)
        assert wg.circle_closure < 1e-10
        # values: w(0) = 0, increasing, convex; matches the moment series
        grid = np.linspace(1e-3, wg.s2 * 0.98, 25)
        vals = wg.values(grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) > -1e-10)
        nn = np.arange(1, ms.truncation_K + 1)
        for s in grid[::6]:
            series = float(np.dot(ms.w[1:], s**nn))
            assert wg.value(float(s)) == pytest.approx(series, abs=1e-9)


def test_bs_w_domain_error_beyond_s2():
    wg = bs_w_generating(ModelParams(1.0, 0.5, 0.5))
    with pytest.raises(DomainError):
        wg.value(wg.s2 + 0.01)
    with pytest.raises(DomainError):
        wg.stieltjes(1.0 / wg.s2 - 0.1)


def test_bs_w_kernel_generating_function_value():
    # sum s^k/(k(k+1)) at s = 1/2 equals 1 - ln 2
    val = sum(0.5**k / (k * (k + 1)) for k in range(1, 400))
    assert val == pytest.approx(1 - math.log(2), abs=1e-14)


def test_stieltjes_transform_asymptotics():
    wg = bs_w_generating(ModelParams(1.0, 0.5, 0.5))
    t = 50.0
    # E[1/(t-Y)] ~ 1/t + E[Y]/t^2 for large t
    approx = 1 / t + wg.taylor[1] / t**2
    assert wg.stieltjes(t) == pytest.approx(approx, abs=1e-4 / t)


def test_bs_absorption_examples_and_identity():
    assert bs_absorption(0.0, 1.0) == 1.0
    assert bs_absorption(1.0, 1.0) == 0.0
    assert bs_absorption(0.5, math.log(2)) == pytest.approx(1 / 3, abs=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(30):
        sigma = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(0, 1))
        rho = 1.0 - math.exp(-sigma)
        assert bs_absorption(x, sigma) == pytest.approx(
            geometric_pgf_absorption(x, rho), abs=1e-13
        )
    # and rho agrees with the general root at theta = 0
    assert bs_rho(ModelParams(1.7)) == pytest.approx(1 - math.exp(-1.7), abs=1e-13)


def test_kimura_fixation_examples_and_duality():
    assert kimura_fixation(1.0, 1.0, 2.0) == 1.0
    assert kimura_fixation(0.0, 1.0, 2.0) == 0.0
    got = kimura_fixation(0.5, 1.0, 2.0)
    assert got == pytest.approx(
        (1 - math.exp(-0.5)) / (1 - math.exp(-1.0)), abs=1e-15
    )
    rng = np.random.default_rng(12)
    for _ in range(30):
        sigma = float(rng.uniform(0.05, 4.0))
        m0 = float(rng.uniform(0.3, 4.0))
        x = float(rng.uniform(0, 1))
        assert kimura_fixation(x, sigma, m0) == pytest.approx(
            poisson_duality_fixation(x, sigma, m0), abs=1e-12
        )


def test_moran_fixation_examples():
    assert moran_fixation(2, 2, 1.0) == 1.0
    assert moran_fixation(1, 2, 1.0) == pytest.approx(2 / 3, abs=1e-15)
    # large-N stability in log space
    val = moran_fixation(5, 10**6, 1e-3)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(-math.expm1(-5 * math.log1p(1e-3)), rel=1e-10)


def test_ancestral_type_dual_paths():
    # Crow-Kimura sigma = 1, theta0 = 1, theta1 = 0: p = 1/2 geometric
    prm = ModelParams(1.0, 1.0, 0.0)
    pmf, pgf = crow_kimura_geometric(prm)
    assert ancestral_type_h(pgf, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert ancestral_type_h(pgf, 0.0) == pytest.approx(0.0, abs=1e-14)
    for x in np.linspace(0.05, 0.95, 10):
        a = ancestral_type_h(pgf, float(x))
        b = ancestral_type_h_from_tails(pmf, float(x))
        assert a == pytest.approx(b, abs=1e-12)


def test_w1_matches_moran_frequency_surrogate():
    # weak-convergence sanity check: w_1 = E[1 - X_inf] for the diffusion,
    # with X surrogated by the N = 200 Moran frequency chain.  The exact
    # birth-death stationary law carries the mathematical content at the
    # 0.01 tolerance; a single seeded occupancy run ties the simulator to
    # that law at its own Monte Carlo accuracy (frequency-chain mixing is
    # slow, so the run-length budget only supports a loose bound).
    from blockstat.measures import MoranParams
    from blockstat.simulate import occupancy, simulate_moran_X

    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 1.0, 1.0)
    ms = solve_w_moments(king, prm, tol=1e-10)
    N = 200
    mp = MoranParams(N, prm.sigma / N, prm.theta0 / N, prm.theta1 / N)
    lam = lambda k: k * (N - k) * (1 + mp.s) / N + (N - k) * mp.u0
    mu = lambda k: k * (N - k) / N + k * mp.u1
    pi = [1.0]
    for k in range(1, N + 1):
        pi.append(pi[-1] * lam(k - 1) / mu(k))
    pi = np.array(pi) / sum(pi)
    exact_mean = float(np.dot(np.arange(N + 1), pi)) / N
    assert ms[1] == pytest.approx(1.0 - exact_mean, abs=0.01)

    path = simulate_moran_X(mp, N // 2, 4 * 10**5, seed=31)
    occ = occupancy(path, 0.2)
    mc_mean = sum(k * w for k, w in occ.distribution().items()) / N
    assert mc_mean == pytest.approx(exact_mean, abs=0.06)


def test_beta_merger_rows_match_scalar_rates():
    # the vectorised Beta rows of the w-system against per-entry lambda_rate
    for lam in (
        LambdaMeasure.beta(2.5, 2.4),
        LambdaMeasure(m0=0.3, m1=0.2, interior=BetaDensity(0.7, 1.3, 2.0)),
    ):
        for n in range(1, 150):
            ref = [
                math.comb(n, n - ell + 1) * lambda_rate(lam, n, n - ell + 1)
                for ell in range(1, n)
            ]
            assert merger_row(lam, n) == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_w_moments_build_each_row_once(monkeypatch):
    # the rows of n <= K carry over when K doubles, and the new rows
    # K+1..2K step down from the one direct row 2K
    built, direct = [], []
    log_space_row = blockstat.measures._log_space_row

    def counting(measure, k_lo, k_hi):
        built.extend(range(k_lo, k_hi + 1))
        return merger_rows(measure, k_lo, k_hi)

    def counting_direct(interior, k):
        direct.append(k)
        return log_space_row(interior, k)

    monkeypatch.setattr(blockstat.duality, "merger_rows", counting)
    monkeypatch.setattr(blockstat.measures, "_log_space_row", counting_direct)
    custom = LambdaMeasure(interior=CustomDensity(lambda x: 3.0 * x**2))
    w = solve_w_moments(custom, ModelParams(0.5, 0.5, 0.5), K=8)
    assert w.truncation_K > 8
    assert built == list(range(1, w.truncation_K + 1))
    # one per solve: K = 8, 16, ..., truncation_K
    assert direct == [8 << i for i in range(len(direct))]
    assert direct[-1] == w.truncation_K


@pytest.mark.parametrize("K", [-4, 0, 1, 3])
def test_w_moments_bad_truncation_level_raises(K):
    with pytest.raises(DomainError):
        solve_w_moments(LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), K=K)


def test_w_moments_above_cap_raises_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved above the cap")

    monkeypatch.setattr(blockstat.duality, "merger_rows", no_solve)
    with pytest.raises(DomainError):
        solve_w_moments(LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), K=65, K_cap=64)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_w_moments_bad_tol_raises_before_solving(monkeypatch, tol):
    def no_solve(*args):
        raise AssertionError("solved with a bad tol")

    monkeypatch.setattr(blockstat.duality, "merger_rows", no_solve)
    with pytest.raises(DomainError, match="tol"):
        solve_w_moments(LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), tol=tol)


def test_w_system_star_beyond_float_binomials():
    # binom(2048, 1024) overflows a double; the rows never form it
    w, _ = _extend_w_system(merger_rows(LambdaMeasure.star(), 1, 2048),
                            ModelParams(1.0, 0.5, 0.5))
    assert np.all(np.isfinite(w)) and np.all((w > 0.0) & (w <= 1.0))


def test_w_system_star_runtime():
    start = time.perf_counter()
    _extend_w_system(merger_rows(LambdaMeasure.star(), 1, 1024), ModelParams(1.0, 0.5, 0.5))
    assert time.perf_counter() - start < 1.0


def test_bs_w_generating_on_seeded_draws():
    # the collocation from s2 carries the panels: the Taylor head matches
    # the w-system, the contour closes, and w(s) next to s2 matches the
    # moment series
    rng = np.random.default_rng(2808)
    uni = LambdaMeasure.uniform()
    for _ in range(40):
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(10.0))))
        th0, th1 = (float(v) for v in rng.uniform(0.01, 5.0, 2))
        prm = ModelParams(sigma, th0, th1)
        ms = solve_w_moments(uni, prm, tol=1e-13)
        wg = bs_w_generating(prm, n_taylor=12)
        assert np.max(np.abs(wg.taylor[1:] - ms.w[1:13])) <= 1e-10, prm
        assert wg.circle_closure < 1e-10, prm
        nn = np.arange(1, ms.truncation_K + 1)
        for s in wg.s2 * np.array([1.0 - 5e-8, 1.0 - 2e-7, 0.5]):
            if s**ms.truncation_K < 1e-13:
                series = float(np.dot(ms.w[1:], s**nn))
                assert wg.value(float(s)) == pytest.approx(series, abs=1e-9)


@pytest.mark.parametrize(
    "prm",
    [ModelParams(10.0, 0.05, 0.2), ModelParams(5.0, 0.01, 1.0),
     ModelParams(0.05, 5.0, 5.0), ModelParams(0.01, 3.0, 0.02)],
    ids=["s2-0.990", "s2-0.974", "s2-0.0045", "s2-0.0025"],
)
def test_bs_w_generating_with_s2_near_0_or_1(prm):
    # s2 near 1 grades the real panels toward the singular point 1 and
    # leaves the contour inside s2; s2 near 0 grades them toward 0
    ms = solve_w_moments(LambdaMeasure.uniform(), prm, tol=1e-11)
    wg = bs_w_generating(prm, n_taylor=12)
    assert wg.s2 > 0.97 or wg.s2 < 0.01
    assert np.max(np.abs(wg.taylor[1:] - ms.w[1:13])) <= 1e-10
    assert wg.circle_closure < 1e-10
    grid = wg.s2 * np.array([0.0, 0.1, 0.5, 0.9, 0.99, 1.0 - 2e-7])
    nn = np.arange(1, ms.truncation_K + 1)
    kept = grid**ms.truncation_K < 1e-13  # where K terms carry the series
    assert kept.sum() >= 5
    series = [float(np.dot(ms.w[1:], s**nn)) for s in grid[kept]]
    assert np.max(np.abs(wg.values(grid[kept]) - series)) <= 1e-9


@pytest.mark.parametrize("prm", [ModelParams(1.0, 0.5, 0.5), ModelParams(10.0, 0.05, 0.2)])
def test_bs_w_values_is_value_on_a_grid(prm):
    # s2 below and above the contour radius; the grid holds the real
    # panels' ends below s2, where one panel hands over to the next
    wg = bs_w_generating(prm)
    ends = wg._ends[wg._ends < wg.s2]
    grid = np.concatenate((np.linspace(0.0, wg.s2, 200, endpoint=False), ends))
    vals = wg.values(grid)
    assert np.max(np.abs(vals - [wg.value(float(s)) for s in grid])) <= 1e-15
