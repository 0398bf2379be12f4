"""Linear solvers: Moran shooting/banded, GTH oracle, truncated systems."""

import math
import warnings

import numpy as np
import pytest

from blockstat.errors import NotPositiveRecurrent, PreconditionViolated
from blockstat.measures import LambdaMeasure, ModelParams, MoranParams
from blockstat.recursions import (
    crow_kimura_geometric,
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


def test_crow_kimura_parameter_cases():
    p, _ = crow_kimura_geometric(ModelParams(1.0, 1.0, 0.0))
    assert p == pytest.approx(0.5, abs=1e-15)
    p, _ = crow_kimura_geometric(ModelParams(1.0, 0.0, 2.0))
    assert p == pytest.approx(0.5, abs=1e-15)  # sigma/theta1
    p, _ = crow_kimura_geometric(ModelParams(1.0, 1.0, 1.0))
    assert p == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-15)
    with pytest.raises(NotPositiveRecurrent):
        crow_kimura_geometric(ModelParams(2.0, 0.0, 1.0))


def test_lambda_truncated_zero_measure_geometric():
    zero = LambdaMeasure.crow_kimura()
    for prm in (ModelParams(1.0, 1.0, 0.0), ModelParams(1.0, 1.0, 1.0), ModelParams(1.0, 0.3, 1.8)):
        pmf = solve_lambda_truncated(zero, prm, tol=1e-12)
        p, geo = crow_kimura_geometric(prm)
        assert pmf.sup_distance(geo) < 1e-10


def test_lambda_truncated_doubling_invariance():
    uni = LambdaMeasure.uniform()
    prm = ModelParams(1.0, 0.0, 0.0)
    pmf = solve_lambda_truncated(uni, prm, K=16, tol=1e-10)
    rho = 1 - math.exp(-1.0)
    n = np.arange(1, pmf.truncation_K + 1)
    assert np.max(np.abs(pmf.probs - (1 - rho) * rho ** (n - 1))) < 1e-12
    # the accepted K is invariant under one more doubling at the tol scale
    from blockstat.recursions import _solve_prlm

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


def test_star_closed_tails_theta1_zero():
    # theta0 = 0, m1 = 1, sigma = 1: a_n = 1/(n+1), p_n = 1/(n(n+1))
    pmf = solve_star(ModelParams(1.0, 0.0, 0.0), 1.0, K=2000)
    n = np.arange(1, 2001)
    assert np.max(np.abs(pmf.probs - 1.0 / (n * (n + 1)))) < 1e-15
    a = pmf.tails()
    assert a[0] == pytest.approx(1.0, abs=1e-14)
    assert pmf.tail_mass == pytest.approx(1 / 2001, rel=1e-12)


def test_star_theta1_positive_vs_lambda_solver():
    prm = ModelParams(1.0, 0.5, 0.5)
    star_pmf = solve_star(prm, 1.0, K=256)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam_pmf = solve_lambda_truncated(LambdaMeasure.star(1.0), prm, tol=1e-11)
    assert star_pmf.sup_distance(lam_pmf) < 1e-11


def test_star_forward_instability_detected():
    from blockstat.errors import InstabilityDetected

    prm = ModelParams(1.0, 0.5, 0.5)
    with pytest.raises(InstabilityDetected):
        solve_star(prm, 1.0, K=256, forward_only=True)


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
    from blockstat.recursions import _clip_negative, _solve_moran_banded, _solve_star_banded

    rng = np.random.default_rng(99)
    for N in [2, 3, 4] + [int(n) for n in rng.integers(5, 400, size=20)]:
        mp = _random_moran(rng, N)
        assert _solve_moran_banded(mp).tobytes() == _moran_banded_loop(mp).tobytes()
    for _ in range(20):
        prm = ModelParams(float(rng.uniform(0.1, 3)), float(rng.uniform(0, 2)),
                          float(rng.uniform(0.05, 2)))
        m1, K = float(rng.uniform(0.1, 3)), int(rng.integers(2, 700))
        got = _solve_star_banded(prm, m1, K)
        assert got.tobytes() == _star_banded_loop(prm, m1, K).tobytes()
    for prm, K in [(ModelParams(1.0, 0.5, 0.5), 400), (ModelParams(2.0, 0.3, 1.2), 57),
                   (ModelParams(0.4, 1.5, 0.1), 2)]:
        pgf, pmf = beta31_pgf(prm, K=K)
        ref = np.concatenate([[pgf.p1], _beta31_tail_loop(prm, pgf.p1, K)])
        assert pmf.probs.tobytes() == _clip_negative(ref, "beta31").tobytes()


def _prlm_resweep_residual(measure, params, p):
    """Reference: the residual of a pmf in the truncated equations, re-swept."""
    from blockstat.measures import cnk_row

    K = p.size
    res = 0.0
    for n in range(1, K):
        row = cnk_row(measure, n, K) + (measure.m1 / n + params.theta0)
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
    from blockstat.recursions import _solve_prlm

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
                   abs(p_final.sum() - 1.0), pmf.extras["closure_delta"])
    assert pmf.residual == pytest.approx(expected, rel=1e-12, abs=4 * ulp)
