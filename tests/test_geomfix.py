"""Moebius dynamics, the measure operator, and geometric-law conditions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockstat.closedform import bs_rho
from blockstat.errors import DomainError, PreconditionViolated
from blockstat.geomfix import (
    MobiusInvolution,
    apply_S,
    build_discrete_fixed_point,
    check_geometric,
    fixed_point_sum_identity,
    phi_big,
    phi_iterate,
    phi_small,
    pushforward_to_lambda,
    rho_star,
)
from blockstat.measures import BetaDensity, LambdaMeasure, ModelParams, UniformScaled
from blockstat.closedform import crow_kimura_geometric


def test_phi_iterate_examples():
    assert phi_iterate(0.5, 0.37, 0) == 0.37
    assert phi_iterate(0.5, 0.5, 1) == pytest.approx(1 / 3, rel=1e-15)


@given(
    st.floats(0.05, 0.95),
    st.floats(0.01, 0.99),
    st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_phi_inverse_composition(rho, x, n):
    back = phi_iterate(rho, phi_iterate(rho, x, n), -n)
    assert back == pytest.approx(x, abs=1e-13)


@given(st.floats(0.05, 0.95), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_involution(rho, x):
    mob = MobiusInvolution(rho)
    assert mob(mob(x)) == pytest.approx(x, abs=1e-14)


def test_phi_iteration_identity_from_proofs():
    # 1 - rho phi^(i)(x0) = (1 - x0(1-(1-rho)^(i+1))) / (1 - x0(1-(1-rho)^i))
    rho, x0 = 0.6, 0.3
    q = 1 - rho
    for i in range(0, 12):
        lhs = 1 - rho * phi_iterate(rho, x0, i)
        rhs = (1 - x0 * (1 - q ** (i + 1))) / (1 - x0 * (1 - q**i))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_fixed_point_masses_satisfy_local_recursions():
    rho, x0, m0 = 0.55, 0.35, 0.07
    mu = build_discrete_fixed_point(rho, x0, m0, K=60)
    by_k = {int(k): m for k, m in zip(mu.ks, mu.masses)}
    for k in range(0, 40):
        # masses going down the orbit: m_{k+1} = (1-rho) m_k / (1-rho phi^(k+1))^2
        if k + 1 in by_k:
            pred = (1 - rho) * by_k[k] / (1 - rho * phi_iterate(rho, x0, k + 1)) ** 2
            assert by_k[k + 1] == pytest.approx(pred, rel=1e-14)
    for k in range(0, 20):
        if -(k + 1) in by_k:
            pred = by_k[-k] * (1 - rho * phi_iterate(rho, x0, -k)) ** 2 / (1 - rho)
            assert by_k[-(k + 1)] == pytest.approx(pred, rel=1e-14)
    assert by_k[0] == m0


def test_apply_S_fixed_point_on_atoms():
    mu = build_discrete_fixed_point(0.5, 0.3, 0.05, K=200)
    smu = apply_S(mu, 0.5)
    got = {int(k): m for k, m in zip(smu.ks, smu.masses)}
    for k, m in zip(mu.ks, mu.masses):
        if mu.ks.min() < k < mu.ks.max():
            assert got[int(k)] == pytest.approx(m, rel=1e-12)
    assert mu.tail_bound < 1e-10


def test_apply_S_zero_and_single_atom():
    import numpy as np

    from blockstat.geomfix import AtomicMeasure

    single = AtomicMeasure(np.array([0]), np.array([0.4]), np.array([1.0]), 0, 0.0)
    out = apply_S(single, 0.5)
    assert out.locations.tolist() == pytest.approx([phi_small(0.5, 0.4), 0.4])
    assert out.masses.tolist() == pytest.approx([0.5, 0.5 * 0.4 * (2 - 0.5 * 0.4)])


def test_apply_S_density_fixed_point():
    rho = 0.42
    h = lambda y: (1 - rho) / (1 - rho * y) ** 2
    sh = apply_S(h, rho)
    grid = np.linspace(1e-3, 1 - 1e-3, 101)
    assert np.max(np.abs(sh(grid) - h(grid))) < 1e-12


def test_rho_star_root_and_endpoints():
    prm = ModelParams(1.0, 0.0, 0.0)
    x0, m0 = 0.5, 0.1
    rs = rho_star(x0, m0, prm)
    r = m0 * (1 - rs * x0) ** 2 - x0 * (1 - x0) * (
        prm.theta1 * rs**2 - (prm.sigma + prm.theta) * rs + prm.sigma
    )
    assert abs(r) < 1e-14
    with pytest.raises(PreconditionViolated):
        rho_star(0.5, 0.25 * 1.0, prm)  # m0 = sigma x0 (1-x0)


PRM_FP = ModelParams(1.0, 0.2, 0.2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: rho_star(math.nan, 0.05, PRM_FP),
        lambda: rho_star(math.inf, 0.05, PRM_FP),
        lambda: rho_star(1.5, 0.05, PRM_FP),
        lambda: rho_star(0.3, math.nan, PRM_FP),
        lambda: rho_star(0.3, -0.01, PRM_FP),
        lambda: build_discrete_fixed_point(0.5, 0.3, math.nan),
        lambda: build_discrete_fixed_point(0.5, 0.3, math.inf),
    ],
    ids=["rho-star-nan-x0", "rho-star-inf-x0", "rho-star-x0-above-1", "rho-star-nan-mass",
         "rho-star-negative-mass", "fixed-point-nan-mass", "fixed-point-inf-mass"],
)
def test_fixed_point_inputs_outside_their_domain_are_refused(build):
    # NaN failed every comparison: rho_star returned a bracket end and the
    # fixed point atoms with NaN masses
    with pytest.raises(DomainError):
        build()


def test_rho_star_small_mass_limit():
    # m0 -> 0: the root approaches the zero-measure geometric parameter
    prm = ModelParams(1.0, 0.4, 0.9)
    rs = rho_star(0.5, 1e-10, prm)
    assert rs == pytest.approx(crow_kimura_geometric(prm)[0].extras["rho"], abs=1e-8)


def test_pushforward_involution_and_sum_identity():
    prm = ModelParams(1.0, 0.2, 0.2)
    rs = rho_star(0.3, 0.05, prm)
    mu = build_discrete_fixed_point(rs, 0.3, 0.05)
    lam = pushforward_to_lambda(mu, rs)
    # pushing the atom locations twice returns them
    locs = np.array(lam.interior.locations)
    twice = np.sort(phi_big(rs, locs))
    assert np.max(np.abs(twice - np.sort(mu.locations))) < 1e-12
    numeric, closed = fixed_point_sum_identity(mu, rs)
    assert numeric == pytest.approx(closed, abs=1e-10)


def test_check_geometric_uniform_passes_only_at_rho():
    prm = ModelParams(1.0, 0.5, 0.5)
    rho = bs_rho(prm)
    uni = LambdaMeasure.uniform()
    rep = check_geometric(uni, rho, n_max=50, params=prm)
    assert rep.passed
    assert np.max(rep.cg3a_residuals) < 1e-8
    assert rep.cg3b_residual < 1e-8
    assert np.max(rep.cg1_residuals) < 1e-7
    assert rep.dust_free is True
    # a wrong rho fails through (cg3b) by a detectable margin
    for off in (1e-3, -1e-3, 0.1):
        bad = check_geometric(uni, rho + off, n_max=5, params=prm)
        assert not bad.passed
        assert bad.cg3b_residual > 1e-4


def test_check_geometric_negative_controls():
    for measure in (
        LambdaMeasure.kingman(2.0),
        LambdaMeasure.star(1.0),
        LambdaMeasure.beta(2, 1),
        LambdaMeasure.beta(1, 2),
        LambdaMeasure.beta31(),
    ):
        for rho in (0.1, 0.5, 0.9):
            assert not check_geometric(measure, rho, n_max=6).passed


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_check_geometric_bad_tol_raises_before_integrating(monkeypatch, tol):
    # a NaN tol passed beta(3,1), which is non-geometric by design: every
    # `residual > tol` is False for it
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated with a bad tol")

    monkeypatch.setattr(BetaDensity, "integrate", no_integral)
    with pytest.raises(DomainError, match="tol"):
        check_geometric(LambdaMeasure.beta31(), 0.5, tol=tol)


def test_check_geometric_pushforward_passes():
    prm = ModelParams(1.0, 0.2, 0.2)
    rs = rho_star(0.3, 0.05, prm)
    mu = build_discrete_fixed_point(rs, 0.3, 0.05)
    lam = pushforward_to_lambda(mu, rs)
    rep = check_geometric(lam, rs, n_max=25, params=prm)
    assert rep.passed
    assert rep.dust_free is True


def test_apply_S_preserves_fixed_point_mass():
    mu = build_discrete_fixed_point(0.55, 0.4, 0.03, K=150)
    smu = apply_S(mu, 0.55)
    assert smu.total_mass() == pytest.approx(
        mu.total_mass(), abs=10 * mu.tail_bound + 1e-13
    )


def test_cg1_integrand_matches_mpmath():
    # relative to 40 digits, across the bracket's x^2 zero at 0 and x = 1
    import mpmath as mp

    from blockstat.geomfix import _cg1_integrand

    x = np.logspace(-12, 0, 60)
    x[-1] = 1.0
    mp.mp.dps = 40
    for rho in np.random.default_rng(33).uniform(0.02, 0.98, 12):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cg1_integrand(rho, x)
        r = mp.mpf(rho)
        for j, xj in enumerate(map(mp.mpf, x)):
            for n in range(1, 11):
                ref = ((1 - r) * (1 - xj) ** n + r - ((1 - xj) / (1 - r * xj)) ** n) / xj**2
                assert abs(got[n - 1, j] - ref) <= 1e-13 * abs(ref), (rho, x[j], n)


@pytest.mark.parametrize("with_params", [True, False])
def test_check_geometric_integrates_once(monkeypatch, with_params):
    calls = []
    integrate = UniformScaled.integrate

    def counted(self, f, *args, **kwargs):
        calls.append(f)
        return integrate(self, f, *args, **kwargs)

    monkeypatch.setattr(UniformScaled, "integrate", counted)
    prm = ModelParams(1.0, 0.5, 0.5)
    rep = check_geometric(LambdaMeasure.uniform(), bs_rho(prm), params=prm if with_params else None)
    assert rep.passed
    assert len(calls) == 1
    assert rep.cg1_residuals.size == (10 if with_params else 0)
