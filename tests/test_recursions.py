"""Linear solvers: Moran shooting/banded, GTH oracle, truncated systems."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import blockstat.duality
import blockstat.recursions
from blockstat.closedform import (
    beta31_pgf,
    bs_geometric_pmf,
    bs_rho,
    crow_kimura_geometric,
    star_closed,
    wf_closed,
)
from blockstat.duality import _extend_w_system, solve_w_moments
from blockstat.errors import (
    DomainError,
    NegativeMass,
    NoConvergence,
    NotPositiveRecurrent,
    PreconditionViolated,
)
from blockstat.geomfix import build_discrete_fixed_point, pushforward_to_lambda, rho_star
from blockstat.measures import (
    BetaDensity,
    CustomDensity,
    LambdaMeasure,
    ModelParams,
    MoranParams,
    cnk,
    is_positive_recurrent,
    merger_row,
    merger_rows,
    sigma_lambda,
)
from blockstat.recursions import (
    DEFAULT_TOL,
    K_CAP,
    PMF_CLOSURE,
    _solve_moran_banded,
    _solve_prlm,
    clip_negative,
    double_until_closed,
    moran_rate_matrix,
    solve_lambda_truncated,
    solve_moran,
    solve_moran_nullspace,
    solve_star,
    stationary_from_generator,
)


def test_moran_two_state_balance():
    pmf = solve_moran(MoranParams(2, 1.0))
    assert pmf.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert pmf.residual < 1e-14


def test_moran_vs_nullspace_grid():
    rng = np.random.default_rng(17)
    for _ in range(25):
        N = int(rng.integers(2, 61))
        mp = MoranParams(
            N,
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0, 1.0)) * (rng.random() > 0.3),
            float(rng.uniform(0, 1.0)) * (rng.random() > 0.3),
        )
        a = solve_moran(mp)
        b = solve_moran_nullspace(mp)
        assert a.sup_distance(b) < 1e-10, mp


def test_moran_large_N_banded_path():
    mp = MoranParams(400, 1.1, 0.4, 0.2)
    a = solve_moran(mp)
    b = solve_moran_nullspace(mp)
    assert a.sup_distance(b) < 1e-11
    assert a.solver_tag == "moran-banded"


def test_nullspace_is_stationary():
    mp = MoranParams(30, 0.9, 0.3, 0.1)
    Q = moran_rate_matrix(mp)
    pi = stationary_from_generator(Q)
    assert np.max(np.abs(pi @ Q)) < 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_tails_monotone_and_normalised():
    pmf = solve_moran(MoranParams(25, 0.6, 0.2, 0.4))
    a = pmf.tails()
    assert a[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(a) <= 1e-15)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_tails_keep_relative_accuracy_below_rounding():
    # a_0 - cumsum(p) loses every tail below about 1e-16; summed from the
    # top they match the banded solve's own a_n and the geometric rho^n
    mp = MoranParams(2000, 0.5, 0.1, 0.1)
    a, _ = _solve_moran_banded(mp)
    got = solve_moran(mp).tails()
    pos = a > 0
    assert a[pos].min() < 1e-300
    assert np.max(np.abs(got[:-1][pos] - a[pos]) / a[pos]) < 1e-15
    geo, _ = bs_geometric_pmf(ModelParams(1.0, 0.5, 0.5))
    exact = geo.extras["rho"] ** np.arange(geo.truncation_K + 1.0)
    assert np.max(np.abs(geo.tails() - exact) / exact) < 1e-15


def test_crow_kimura_parameter_cases():
    def rho(prm):
        return crow_kimura_geometric(prm)[0].extras["rho"]

    assert rho(ModelParams(1.0, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)
    assert rho(ModelParams(1.0, 0.0, 2.0)) == pytest.approx(0.5, abs=1e-15)  # sigma/theta1
    assert rho(ModelParams(1.0, 1.0, 1.0)) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-15)
    with pytest.raises(NotPositiveRecurrent):
        crow_kimura_geometric(ModelParams(2.0, 0.0, 1.0))


def test_lambda_truncated_zero_measure_geometric():
    zero = LambdaMeasure.crow_kimura()
    for prm in (ModelParams(1.0, 1.0, 0.0), ModelParams(1.0, 1.0, 1.0), ModelParams(1.0, 0.3, 1.8)):
        pmf = solve_lambda_truncated(zero, prm, tol=1e-12)
        geo, _ = crow_kimura_geometric(prm)
        assert pmf.sup_distance(geo) < 1e-10


def test_lambda_truncated_doubling_invariance():
    uni = LambdaMeasure.uniform()
    prm = ModelParams(1.0, 0.0, 0.0)
    pmf = solve_lambda_truncated(uni, prm, K=16, tol=1e-10)
    rho = 1 - math.exp(-1.0)
    n = np.arange(1, pmf.truncation_K + 1)
    assert np.max(np.abs(pmf.probs - (1 - rho) * rho ** (n - 1))) < 1e-12
    # the accepted K is invariant under one more doubling at the tol scale
    p2, _ = _solve_prlm(uni, prm, 2 * pmf.truncation_K)
    assert np.max(np.abs(p2[: pmf.truncation_K] - pmf.probs)) < 1e-10


def test_lambda_truncated_warns_outside_recurrence():
    from blockstat.errors import NoConvergence

    b31 = LambdaMeasure.beta31()
    # sigma = 5 > sigma_Lambda + theta1 = 3: warn, then the doubling cannot
    # stabilise a distribution that does not exist
    with pytest.warns(UserWarning):
        with pytest.raises(NoConvergence):
            solve_lambda_truncated(
                b31, ModelParams(5.0, 0.0, 0.0), K=32, tol=1e-6, K_cap=256
            )


def test_lambda_truncated_needs_sigma():
    with pytest.raises(PreconditionViolated):
        solve_lambda_truncated(LambdaMeasure.uniform(), ModelParams(0.0, 1.0, 1.0))


def test_lambda_truncated_above_cap_raises_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved above the cap")

    monkeypatch.setattr(blockstat.recursions, "_solve_prlm", no_solve)
    with pytest.raises(DomainError):
        solve_lambda_truncated(
            LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), K=65, K_cap=64
        )


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_lambda_truncated_bad_tol_raises_before_solving(monkeypatch, tol):
    # without the check no bound is below 0, -1 or NaN, so the doubling
    # would run to K_cap, and every bound is below inf
    def no_solve(*args):
        raise AssertionError("solved with a bad tol")

    monkeypatch.setattr(blockstat.recursions, "_solve_prlm", no_solve)
    with pytest.raises(DomainError, match="tol"):
        solve_lambda_truncated(LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), tol=tol)
    with pytest.raises(DomainError, match="tol"):
        double_until_closed(no_solve, tol=tol)


_SIGMA_ZERO = ModelParams(0.0, 0.5, 0.5)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: wf_closed(2.0, _SIGMA_ZERO), PreconditionViolated,
                     id="wf_closed-sigma0"),
        pytest.param(lambda: star_closed(1.0, _SIGMA_ZERO), PreconditionViolated,
                     id="star_closed-sigma0"),
        pytest.param(lambda: solve_star(_SIGMA_ZERO, 1.0), PreconditionViolated,
                     id="solve_star-sigma0"),
        pytest.param(lambda: beta31_pgf(_SIGMA_ZERO), PreconditionViolated,
                     id="beta31_pgf-sigma0"),
        pytest.param(lambda: bs_rho(_SIGMA_ZERO), PreconditionViolated, id="bs_rho-sigma0"),
        pytest.param(lambda: is_positive_recurrent(LambdaMeasure.uniform(), _SIGMA_ZERO),
                     PreconditionViolated, id="is_positive_recurrent-sigma0"),
        pytest.param(lambda: crow_kimura_geometric(ModelParams(1.0, 0.0, 1.0)),
                     NotPositiveRecurrent, id="zero-measure-theta1-equals-sigma"),
        pytest.param(lambda: clip_negative(np.array([0.5, -1e-12, 0.5]), "edge"), None,
                     id="clip-accepts-tolerance"),
        pytest.param(lambda: clip_negative(np.array([0.5, -1.0000001e-12, 0.5]), "edge"),
                     NegativeMass, id="clip-rejects-below-tolerance"),
    ],
)
def test_boundary_regime_exception_types(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


def test_star_closed_tails_theta1_zero():
    # theta0 = 0, m1 = 1, sigma = 1: a_n = 1/(n+1), p_n = 1/(n(n+1)); the
    # exact tail never falls below 1e-17, so the pmf stops at the cap
    pmf = solve_star(ModelParams(1.0, 0.0, 0.0), 1.0)
    assert pmf.truncation_K == K_CAP
    n = np.arange(1, K_CAP + 1)
    assert np.max(np.abs(pmf.probs - 1.0 / (n * (n + 1)))) < 1e-15
    a = pmf.tails()
    assert a[0] == pytest.approx(1.0, abs=1e-14)
    assert pmf.tail_mass == pytest.approx(1 / (K_CAP + 1), rel=1e-12)


def test_star_theta1_positive_vs_lambda_solver():
    prm = ModelParams(1.0, 0.5, 0.5)
    star_pmf = solve_star(prm, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam_pmf = solve_lambda_truncated(LambdaMeasure.star(1.0), prm, tol=1e-11)
    assert star_pmf.sup_distance(lam_pmf) < 1e-11
    assert star_pmf.extras["closure_bound"] < DEFAULT_TOL


def test_star_theta1_positive_reports_the_cut_in_residual():
    # a_K = 0 folds the mass beyond K into p_K: at K = 512 that was 8.4% of
    # this law, so K grows to the cap, where 4 p_K is below the tol
    pmf = solve_star(ModelParams(5.0, 0.01, 0.2), 1.0)
    assert pmf.truncation_K == K_CAP
    bound = pmf.extras["closure_bound"]
    assert bound == PMF_CLOSURE * pmf.probs[-1] < DEFAULT_TOL
    assert bound <= pmf.residual < 1e-15
    # a law that does not close by the cap is refused
    with pytest.raises(NoConvergence):
        solve_star(ModelParams(5.0, 0.001, 0.2), 1.0)


def test_kingman_reduction_vs_wf():
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 0.0, 0.5)
    pmf = solve_lambda_truncated(king, prm, tol=1e-12)
    # theta0 = 0 closed form: p_n proportional to sigma'^(n-1)/(2+theta')_(n-1)
    t = [1.0]
    for n in range(2, pmf.truncation_K + 1):
        t.append(t[-1] * 1.0 / (0.5 + n))
    t = np.array(t) / sum(t)
    assert np.max(np.abs(pmf.probs - t)) < 1e-13


# ----------------------------------------------------------------------
# One banded kernel: accuracy, warnings, and the loop assembly it replaced
# ----------------------------------------------------------------------


def _random_moran(rng, N):
    return MoranParams(
        N,
        float(rng.uniform(0.05, 3.0)),
        float(rng.uniform(0, 1.0)) * (rng.random() > 0.3),
        float(rng.uniform(0, 1.0)) * (rng.random() > 0.3),
    )


def test_moran_banded_vs_gth_random():
    rng = np.random.default_rng(2024)
    sizes = [2, 2, 3] + [int(n) for n in rng.integers(2, 121, size=60)]
    for N in sizes:
        mp = _random_moran(rng, N)
        a = solve_moran(mp)
        assert a.solver_tag == "moran-banded"
        assert a.sup_distance(solve_moran_nullspace(mp)) < 1e-13, mp
        assert a.residual < 1e-13, mp


def test_moran_large_N_raises_no_runtime_warning():
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            mp = MoranParams(2000, float(rng.uniform(0.5, 1.5)),
                             float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)))
            pmf = solve_moran(mp)
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)


def _moran_banded_loop(params):
    """Reference: the row-by-row assembly of the Moran tail system."""
    import scipy.linalg

    from blockstat.recursions import _moran_coeffs

    N = params.N
    ab = np.zeros((3, N - 1))
    rhs = np.zeros(N - 1)
    for r in range(N - 2):
        A, B, C = _moran_coeffs(params, r + 2)
        if r - 1 >= 0:
            ab[2, r - 1] = C
        else:
            rhs[r] = -C
        ab[1, r] = -B
        ab[0, r + 1] = A
    r = N - 2
    if r - 1 >= 0:
        ab[2, r - 1] = -params.s / N
    else:
        rhs[r] = params.s / N
    ab[1, r] = 1.0 + params.u + params.s / N
    return np.concatenate([[1.0], scipy.linalg.solve_banded((1, 1), ab, rhs)])


def _star_banded_loop(params, m1, K):
    """Reference: the row-by-row assembly of the star tail system."""
    import scipy.linalg

    sigma, th1, theta = params.sigma, params.theta1, params.theta
    ab = np.zeros((3, K - 1))
    rhs = np.zeros(K - 1)
    for r in range(K - 1):
        n = r + 1
        ab[1, r] = -(m1 / n + theta + sigma)
        if r - 1 >= 0:
            ab[2, r - 1] = sigma
        else:
            rhs[r] = -sigma
        if r + 1 < K - 1:
            ab[0, r + 1] = th1
    a = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return np.concatenate([[1.0], a, [0.0]])


def _beta31_tail_loop(params, p1, K):
    """Reference: the row-by-row assembly of the beta(3,1) pmf tail."""
    import scipy.linalg

    sigma, th1, theta = params.sigma, params.theta1, params.theta
    Pp0, Q00 = -(sigma + theta), -sigma - theta - 3.0
    ab = np.zeros((3, K - 1))
    rhs = np.zeros(K - 1)
    for r in range(K - 1):
        n = r + 2
        ab[1, r] = n * Pp0 + Q00
        if r - 1 >= 0:
            ab[2, r - 1] = sigma * (n + 1)
        else:
            rhs[r] = -sigma * (n + 1) * p1
        if r + 1 < K - 1:
            ab[0, r + 1] = th1 * (n + 1)
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def test_banded_helper_callers_match_loop_assembly():
    from blockstat.closedform import beta31_pgf
    from blockstat.recursions import _solve_star_banded

    rng = np.random.default_rng(99)
    for N in [2, 3, 4] + [int(n) for n in rng.integers(5, 400, size=20)]:
        mp = _random_moran(rng, N)
        assert _solve_moran_banded(mp)[0].tobytes() == _moran_banded_loop(mp).tobytes()
    for _ in range(20):
        prm = ModelParams(float(rng.uniform(0.1, 3)), float(rng.uniform(0, 2)),
                          float(rng.uniform(0.05, 2)))
        m1, K = float(rng.uniform(0.1, 3)), int(rng.integers(2, 700))
        got, _ = _solve_star_banded(prm, m1, K)
        assert got.tobytes() == _star_banded_loop(prm, m1, K).tobytes()
    for prm in [ModelParams(1.0, 0.5, 0.5), ModelParams(2.0, 0.3, 1.2),
                ModelParams(0.4, 1.5, 0.1), ModelParams(8.0, 0.05, 0.05)]:
        pmf, pgf = beta31_pgf(prm)
        ref = np.concatenate([[pgf.p1], _beta31_tail_loop(prm, pgf.p1, pmf.truncation_K)])
        assert pmf.probs.tobytes() == clip_negative(ref, "beta31").tobytes()


def _prlm_resweep_residual(measure, params, p):
    """Reference: the residual of a pmf in the truncated equations, re-swept."""
    K = p.size
    res = 0.0
    for n in range(1, K):
        row = np.array([cnk(measure, n, k) for k in range(n + 1, K + 1)])
        row += measure.m1 / n + params.theta0
        lhs = (measure.m0 * (n + 1) / 2.0 + params.theta1) * p[n] + float(np.dot(row, p[n:]))
        res = max(res, abs(lhs - params.sigma * p[n - 1]))
    return res


@pytest.mark.parametrize(
    "measure, prm, K",
    [
        (LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5), 64),
        (LambdaMeasure.kingman(2.0), ModelParams(1.0, 0.3, 0.7), 128),
        (LambdaMeasure.beta(2.5, 2.45), ModelParams(0.3, 0.7, 0.6), 20),
        (LambdaMeasure.star(1.0), ModelParams(1.0, 0.5, 0.5), 64),
        # p_1 / p_K passes 1e250, so the sweep rescales its block
        (LambdaMeasure.kingman(2.0), ModelParams(0.7, 0.2, 0.5), 200),
    ],
)
def test_prlm_sweep_residual_matches_resweep(measure, prm, K):
    p, res = _solve_prlm(measure, prm, K)
    ref = _prlm_resweep_residual(measure, prm, p)
    ulp = np.finfo(float).eps * prm.sigma * float(p.max())
    assert res <= 4 * ulp and ref <= 4 * ulp
    assert abs(res - ref) <= 4 * ulp
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pmf = solve_lambda_truncated(measure, prm, K=K, tol=1e-9)
    p_final, _ = _solve_prlm(measure, prm, pmf.truncation_K)
    expected = max(_prlm_resweep_residual(measure, prm, p_final),
                   abs(p_final.sum() - 1.0), pmf.extras["closure_bound"])
    assert pmf.residual == pytest.approx(expected, rel=1e-12, abs=4 * ulp)


def _geometric_distance(pmf, rho):
    n = np.arange(1, pmf.truncation_K + 1)
    return float(np.max(np.abs(pmf.probs - (1 - rho) * rho ** (n - 1.0))))


def _random_model_params(rng):
    return ModelParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5)),
                       float(rng.uniform(0.05, 0.5)))


def test_truncated_matches_geometric_on_random_pushforward_measures():
    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            prm = _random_model_params(rng)
            x0 = float(rng.uniform(0.1, 0.6))
            m0 = float(rng.uniform(0.05, 0.95)) * prm.sigma * x0 * (1 - x0)
            rs = rho_star(x0, m0, prm)
            lam = pushforward_to_lambda(build_discrete_fixed_point(rs, x0, m0), rs)
            pmf = solve_lambda_truncated(lam, prm)
            assert _geometric_distance(pmf, rs) < 1e-9, (prm, x0, m0)


def test_truncated_matches_geometric_on_random_uniform_params():
    rng = np.random.default_rng(32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            prm = _random_model_params(rng)
            pmf = solve_lambda_truncated(LambdaMeasure.uniform(), prm)
            assert _geometric_distance(pmf, bs_rho(prm)) < 1e-9, prm


def test_custom_density_theta0_zero_matches_beta31():
    # sigma_Lambda of 3x^2 reaches x = 1 in t = 1 - x, where doubles resolve it
    custom = LambdaMeasure(interior=CustomDensity(lambda x: 3.0 * x**2))
    prm = ModelParams(1.0, 0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigma_lambda(custom) == pytest.approx(sigma_lambda(LambdaMeasure.beta31()), abs=1e-12)
        assert is_positive_recurrent(custom, prm)
        pmf = solve_lambda_truncated(custom, prm)
        assert pmf.sup_distance(solve_lambda_truncated(LambdaMeasure.beta31(), prm)) < 1e-10


def test_custom_density_solve_matches_beta31():
    # 3x^2 through the quadrature rows against the closed Beta(3, 1) rows
    prm = ModelParams(0.5, 0.5, 0.5)
    custom = LambdaMeasure(interior=CustomDensity(lambda x: 3.0 * x**2))
    start = time.perf_counter()
    pmf = solve_lambda_truncated(custom, prm)
    assert time.perf_counter() - start < 2.0
    assert pmf.sup_distance(solve_lambda_truncated(LambdaMeasure.beta31(), prm)) < 1e-12


# ----------------------------------------------------------------------
# Block-built merger rows against the row-by-row assembly
# ----------------------------------------------------------------------


def _prlm_row_by_row(measure, prm, K):
    """The truncated sweep with one merger_row call per state."""
    sigma, th0, th1 = prm.sigma, prm.theta0, prm.theta1
    p = np.zeros(K)
    p[K - 1] = 1.0
    tail = 0.0
    down = np.zeros(K - 1)
    for n in range(K - 1, 0, -1):
        tail += p[n]
        down[:n] += p[n] * merger_row(measure, n + 1)
        p[n - 1] = (th1 * p[n] + th0 * tail + float(down[:n].sum()) / n) / sigma
        if p[n - 1] > 1e250:
            scale = p[n - 1]
            p[n - 1 :] /= scale
            down /= scale
            tail /= scale
    return p / p.sum()


def _w_system_row_by_row(measure, prm, K):
    """The duality system assembled one merger_row per equation."""
    A = np.zeros((K, K))
    rhs = np.zeros(K)
    for n in range(1, K + 1):
        r = n - 1
        coefs = merger_row(measure, n)
        A[r, r] = prm.theta + prm.sigma + coefs.sum() / n
        if n >= 2:
            A[r, n - 2] -= prm.theta1
        else:
            rhs[r] += prm.theta1
        if n < K:
            A[r, n] -= prm.sigma
        A[r, : n - 1] -= coefs / n
    return A, rhs


def _w_row_by_row(measure, prm, K):
    return np.linalg.solve(*_w_system_row_by_row(measure, prm, K))


def _closed_prlm_row_by_row(measure, prm, K):
    p = _prlm_row_by_row(measure, prm, K)
    return p, PMF_CLOSURE * p[-1]


def _closed_w_row_by_row(measure, prm, K):
    """w_1..w_K and the head's closure bound, with y = A^-1 e_K from the
    dense system."""
    A, rhs = _w_system_row_by_row(measure, prm, K)
    w, y = np.linalg.solve(A, np.column_stack((rhs, np.eye(K)[-1]))).T
    gain = prm.sigma * y[-1]
    if gain >= 1.0:
        return w, math.inf
    return w, prm.sigma * w[-1] / (1.0 - gain) * y[: K // 4].max()


def test_block_solvers_match_row_by_row_assembly():
    rng = np.random.default_rng(1313)
    rs = rho_star(0.3, 0.05, ModelParams(1.0, 0.2, 0.2))
    measures = [
        LambdaMeasure.uniform(rng.uniform(0.5, 2.0)),
        LambdaMeasure.kingman(rng.uniform(0.5, 3.0)),
        # the fixed-point measure of `validate --suite full`, about 50 atoms
        pushforward_to_lambda(build_discrete_fixed_point(rs, 0.3, 0.05), rs),
    ]
    for _ in range(6):
        measures.append(LambdaMeasure.beta(*rng.uniform(0.3, 5.0, size=2)))
    for _ in range(3):
        m0, m1, a, b = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), *rng.uniform(0.3, 5.0, 2)
        measures.append(LambdaMeasure(m0, m1, BetaDensity(a, b, rng.uniform(0.5, 2.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in measures:
            prm = ModelParams(*rng.uniform(0.2, 1.5, size=3))
            pmf = solve_lambda_truncated(measure, prm, K=16)
            ref, K, _ = double_until_closed(
                lambda k: _closed_prlm_row_by_row(measure, prm, k), 16, 1e-10, 2**14
            )
            assert pmf.truncation_K == K, measure
            assert pmf.probs == pytest.approx(ref, rel=1e-13, abs=0.0), measure
            w = solve_w_moments(measure, prm)
            ref, K, _ = double_until_closed(
                lambda k: _closed_w_row_by_row(measure, prm, k), 64, 1e-10, 2**12
            )
            assert w.truncation_K == K, measure
            assert w.w[1:] == pytest.approx(ref, rel=1e-13, abs=0.0), measure


def _random_closure_case(rng, i):
    """(measure, params, tol): Beta, uniform, atoms and custom densities in
    turn, with sigma up to 8, theta down to 0.03 and tol 1e-11..1e-6."""
    kind = i % 4
    if kind == 0:
        measure = LambdaMeasure.beta(*rng.uniform(0.3, 5.0, 2))
    elif kind == 1:
        measure = LambdaMeasure.uniform(rng.uniform(0.3, 2.0))
    elif kind == 2:
        n = int(rng.integers(5, 61))
        xs, ms = np.sort(rng.uniform(0.01, 0.99, n)), rng.uniform(0.1, 1.0, n)
        measure = LambdaMeasure.from_atoms(xs, ms / ms.sum())
    else:
        a, b = rng.uniform(1.2, 4.0, 2)
        measure = LambdaMeasure(interior=CustomDensity(LambdaMeasure.beta(a, b).interior.density))
    # custom-density rows are quadratures: keep their K, hence their cost, small
    sigma = rng.uniform(0.2, 3.0 if kind == 3 else 8.0)
    return measure, ModelParams(sigma, *rng.uniform(0.03, 1.0, 2)), 10.0 ** rng.uniform(-11, -6)


def test_closure_bounds_hold_on_random_measures():
    # each solve stops at the first K its own bound accepts: the pmf is
    # within tol of a solve at 4K, and the w head's true error (against a
    # solve at 4K) is within the reported bound and tol; 1e-15 allows for
    # the rounding of w_n <= 1, which the bound leaves out
    rng = np.random.default_rng(2121)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(24):
            measure, prm, tol = _random_closure_case(rng, i)
            pmf = solve_lambda_truncated(measure, prm, K=16, tol=tol)
            K = pmf.truncation_K
            ref, _ = _solve_prlm(measure, prm, 4 * K)
            err = np.max(np.abs(ref - np.pad(pmf.probs, (0, 3 * K))))
            assert err < tol, (measure, prm, tol, K)
            w = solve_w_moments(measure, prm, K=16, tol=tol)
            K = w.truncation_K
            # the reference repeats the solve's doublings up to 4K: rows
            # 1..K are the same, down to rounding, and only the closure moves
            ref, y = (1.0,), (0.0,)
            for k in (16 << j for j in range(int(math.log2(K // 16)) + 3)):
                ref, y = _extend_w_system(merger_rows(measure, len(ref), k), prm, ref, y)
            head = K // 4 + 1
            err = np.max(np.abs(ref[:head] - w.w[:head]))
            assert err <= w.residual + 1e-15, (measure, prm, tol, K)
            assert w.residual == w.extras["closure_bound"] < tol, (measure, prm, tol, K)


def test_closed_first_truncation_level_runs_one_sweep(monkeypatch):
    # a K0 that already meets tol is accepted without a confirming sweep
    sweeps = []
    solve_prlm, extend = blockstat.recursions._solve_prlm, blockstat.duality._extend_w_system

    def prlm_spy(measure, params, K):
        sweeps.append(("pmf", K))
        return solve_prlm(measure, params, K)

    def extend_spy(rows, *args):
        sweeps.append(("w", rows.shape[0]))
        return extend(rows, *args)

    monkeypatch.setattr(blockstat.recursions, "_solve_prlm", prlm_spy)
    monkeypatch.setattr(blockstat.duality, "_extend_w_system", extend_spy)
    uni, prm = LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5)
    assert solve_lambda_truncated(uni, prm, K=128).truncation_K == 128
    assert solve_w_moments(uni, prm, K=128).truncation_K == 128
    assert sweeps == [("pmf", 128), ("w", 128)]


def test_prlm_block_memory_is_bounded():
    # one full table of the merger rows at K = 4096 takes 128 MB
    uni, prm = LambdaMeasure.uniform(), ModelParams(0.5, 0.5, 0.5)
    tracemalloc.start()
    try:
        p, res = _solve_prlm(uni, prm, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert res < 1e-14
    # sixteen blocks of rows, against one merger_row per state
    assert p == pytest.approx(_prlm_row_by_row(uni, prm, 4096), rel=1e-13, abs=0.0)


def test_heavy_tailed_atom_and_custom_solves():
    # strong selection against weak mutation: tails that settle only at
    # K >= 256, each sweep reading every row below K by the recurrence
    rng = np.random.default_rng(2020)
    tol = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(6):
            if i < 4:
                n = int(rng.integers(5, 80))
                xs, ms = np.sort(rng.uniform(0.01, 0.99, n)), rng.uniform(0.1, 1.0, n)
                measure = ref_measure = LambdaMeasure.from_atoms(xs, ms / ms.sum())
            else:
                ref_measure = LambdaMeasure.beta(*rng.uniform(1.2, 4.0, 2))
                measure = LambdaMeasure(interior=CustomDensity(ref_measure.interior.density))
            prm = ModelParams(rng.uniform(3.0, 5.0), *rng.uniform(0.05, 0.2, 2))
            pmf = solve_lambda_truncated(measure, prm, tol=tol)
            K = pmf.truncation_K
            assert K >= 256, (measure, prm)
            ref, _ = _solve_prlm(ref_measure, prm, 4 * K)
            assert np.max(np.abs(ref - np.pad(pmf.probs, (0, 3 * K)))) < tol, (measure, prm)
            if i < 4:
                # against one direct merger_row per state, across blocks
                ref = _prlm_row_by_row(measure, prm, K)
                assert np.max(np.abs(ref - pmf.probs)) < 1e-12, (measure, prm)


def test_heavy_tailed_atom_and_custom_w_solves():
    # the same regime for the duality moments: each doubling's new rows
    # K+1..2K step down from the one direct row 2K
    rng = np.random.default_rng(2021)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(6):
            if i < 4:
                n = int(rng.integers(5, 80))
                xs, ms = np.sort(rng.uniform(0.01, 0.99, n)), rng.uniform(0.1, 1.0, n)
                measure = LambdaMeasure.from_atoms(xs, ms / ms.sum())
            else:
                ref_measure = LambdaMeasure.beta(*rng.uniform(1.2, 4.0, 2))
                measure = LambdaMeasure(interior=CustomDensity(ref_measure.interior.density))
            prm = ModelParams(rng.uniform(3.0, 5.0), *rng.uniform(0.05, 0.2, 2))
            w = solve_w_moments(measure, prm)
            K = w.truncation_K
            assert K >= 256, (measure, prm)
            if i < 4:
                # against one direct merger_row per equation
                ref = _w_row_by_row(measure, prm, K)
                assert np.max(np.abs(ref - w.w[1:])) < 1e-12, (measure, prm)
            else:
                ref = solve_w_moments(ref_measure, prm)
                assert ref.truncation_K == K, (measure, prm)
                assert np.max(np.abs(ref.w - w.w)) < 1e-10, (measure, prm)


def test_w_moments_schur_steps_match_dense_row_by_row(monkeypatch):
    # each doubling solves only its new rows; the whole dense system at
    # every K is the reference
    sizes = []
    dense_solve = np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape)
        return dense_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    rng = np.random.default_rng(1515)
    rs = rho_star(0.3, 0.05, ModelParams(1.0, 0.2, 0.2))
    cases = [
        (LambdaMeasure(*rng.uniform(0.1, 2.0, 2)), None),
        (pushforward_to_lambda(build_discrete_fixed_point(rs, 0.3, 0.05), rs), None),
        (LambdaMeasure(interior=CustomDensity(lambda x: 3.0 * x**2)), ModelParams(0.5, 0.5, 0.5)),
        # settles at K = 512
        (LambdaMeasure.beta(1.5, 2.5), ModelParams(8.0, 0.05, 0.05)),
    ]
    for _ in range(3):
        cases.append((LambdaMeasure.beta(rng.uniform(0.2, 0.95), rng.uniform(0.5, 5.0)), None))
    for _ in range(2):
        m0, m1, a, b = *rng.uniform(0.1, 2.0, 2), *rng.uniform(0.3, 5.0, 2)
        cases.append((LambdaMeasure(m0, m1, BetaDensity(a, b, rng.uniform(0.5, 2.0))), None))
    Ks = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure, prm in cases:
            prm = prm or ModelParams(*rng.uniform(0.2, 1.5, size=3))
            sizes.clear()
            w = solve_w_moments(measure, prm)
            K = w.truncation_K
            Ks.append(K)
            # one 64 x 64 solve at K = 64, then the new rows of each doubling
            steps = [64] + [64 << i for i in range(int(math.log2(K // 64)))]
            assert sizes == [(m, m) for m in steps], (measure, sizes)
            ref, K_ref, _ = double_until_closed(
                lambda k: _closed_w_row_by_row(measure, prm, k), 64, 1e-10, 2**12
            )
            assert K == K_ref, measure
            assert w.w[0] == 1.0
            assert w.w[1:] == pytest.approx(ref, rel=1e-13, abs=0.0), measure
    assert max(Ks) == 512


def test_w_moments_memory_is_bounded():
    # a dense solve at K = 512 holds the rows, the matrix and its factors:
    # 6.3 MB
    prm = ModelParams(8.0, 0.05, 0.05)
    tracemalloc.start()
    try:
        w = solve_w_moments(LambdaMeasure.beta(1.5, 2.5), prm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.truncation_K == 512
    assert peak < 4e6
