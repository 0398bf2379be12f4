"""Quadrature kernel, and the special-function values it stands beside.

The package reads its hypergeometric and Lambert-W values from
scipy.special; the tests below pin those values at frozen examples and
check them against the Euler integrals evaluated by quad_power_endpoints,
which keeps the endpoint-singular paths of the kernel covered.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, hyp1f1, hyp2f1, lambertw

from blockstat import specfun as sf
from blockstat.errors import QuadratureFailure


def _euler_1f1(a, c, z):
    """1F1(a; c; z) = int_0^1 t^(a-1) (1-t)^(c-a-1) e^(zt) dt / B(a, c-a)."""
    return math.exp(-betaln(a, c - a)) * sf.quad_power_endpoints(
        lambda t: np.exp(z * t), 0.0, 1.0, alpha=a - 1.0, beta=c - a - 1.0
    )


def _euler_f1(a, b, c, d, z, w):
    """Appell F1(a; b, c; d; z, w) by its one-dimensional Euler integral."""
    return math.exp(-betaln(a, d - a)) * sf.quad_power_endpoints(
        lambda t: np.power(1.0 - z * t, -b) * np.power(1.0 - w * t, -c),
        0.0, 1.0, alpha=a - 1.0, beta=d - a - 1.0, tol=1e-15,
    )


def _euler_2f1(a, b, c, z):
    """2F1(a, b; c; z) = F1(b; a, 0; c; z, 0)."""
    return _euler_f1(b, a, 0.0, c, z, 0.0)


def test_gauss_2f1_examples():
    assert hyp2f1(0.3, -1.2, 2.2, 0.0) == 1.0
    # finite 3-term sum 1 - 2/3 + 1/6 = 0.5
    assert hyp2f1(1, -2, 3, 1) == pytest.approx(0.5, abs=1e-15)
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert hyp2f1(1, 1, 2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-14)


def test_kummer_1f1_examples():
    assert hyp1f1(0.7, 1.9, 0.0) == 1.0
    assert hyp1f1(1, 1, 1) == pytest.approx(math.e, rel=1e-15)
    assert hyp1f1(1, 2, 1) == pytest.approx(math.e - 1, rel=1e-15)


def test_hyper_3f2_examples():
    # the terminating 3F2(a1, b, -m; d, 1; z) that defines q_{n,i} in the
    # two-weight closed form; its oracle in test_closedform is mpmath.hyp3f2
    assert float(mpmath.hyp3f2(1, 1, -1, 2, 1, 1)) == pytest.approx(0.5, abs=1e-15)
    # hand sum 1 - 4/3 + 1/2 = 1/6
    assert float(mpmath.hyp3f2(2, 1, -2, 3, 1, 1)) == pytest.approx(1 / 6, abs=1e-15)


def test_appell_f1_examples():
    # w = 0 collapses F1 to 2F1(a, b; d; z)
    assert _euler_f1(0.5, 0.6, 0.7, 1.8, 0.4, 0.0) == pytest.approx(
        hyp2f1(0.5, 0.6, 1.8, 0.4), rel=1e-14
    )
    # independent quadrature oracle for F1(1;1,1;3;0.3,0.5): the Euler
    # integral with Gamma(3)/(Gamma(1)Gamma(2)) = 2 and t^(a-1)(1-t)^(d-a-1)
    import scipy.integrate

    oracle, _ = scipy.integrate.quad(
        lambda t: 2.0 * (1 - t) / ((1 - 0.3 * t) * (1 - 0.5 * t)), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert _euler_f1(1, 1, 1, 3, 0.3, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_lambert_w_examples():
    assert lambertw(0.0).real == 0.0
    assert lambertw(math.e).real == pytest.approx(1.0, rel=1e-15)
    assert lambertw(2 * math.exp(2)).real == pytest.approx(2.0, rel=1e-15)


@given(st.floats(0, 1e6))
@settings(max_examples=80, deadline=None)
def test_lambert_w_defining_identity(x):
    w = lambertw(x).real
    assert w * math.exp(w) == pytest.approx(x, rel=1e-13, abs=1e-300)


def test_integral_I_examples():
    # the family int_0^z y^alpha (1-y)^beta (y+nu)^(-gamma) dy at alpha =
    # beta = gamma = nu = 1: antiderivative 2y - y^2/2 - 2 log(1+y), so
    # 3/2 - 2 log 2 over (0, 1)
    def f(y):
        return y * (1.0 - y) / (y + 1.0)

    assert sf.adaptive_quad(f, 0.0, 1.0) == pytest.approx(1.5 - 2 * math.log(2), abs=1e-12)
    assert sf.adaptive_quad(f, 0.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


def test_integral_I_gauss_form_example():
    # int_0^1 y^al (1-y)^be (y+nu)^-ga dy
    #   = nu^(1+al-ga) (1+nu)^(-1-al) B(1+al, 1+be) 2F1(2+al+be-ga, 1+al; 2+al+be; 1/(1+nu))
    al, be, ga, nu = 2.0, 3.0, 1.5, 0.7
    got = sf.adaptive_quad(lambda y: y**al * (1 - y) ** be * (y + nu) ** -ga, 0.0, 1.0)
    closed = math.exp(
        (1 + al - ga) * math.log(nu) - (1 + al) * math.log1p(nu) + betaln(1 + al, 1 + be)
    ) * hyp2f1(2 + al + be - ga, 1 + al, 2 + al + be, 1 / (1 + nu))
    assert got == pytest.approx(closed, abs=1e-9)


def test_2f1_series_vs_integral_grid():
    rng = np.random.default_rng(42)
    for _ in range(40):
        b = rng.uniform(0.1, 3.0)
        c = b + rng.uniform(0.1, 3.0)
        a = rng.uniform(-2.0, 3.0)
        z = rng.uniform(-0.9, 0.9)
        assert hyp2f1(a, b, c, z) == pytest.approx(_euler_2f1(a, b, c, z), abs=1e-10), (a, b, c, z)


def test_1f1_series_vs_integral_grid():
    rng = np.random.default_rng(43)
    for _ in range(40):
        a = rng.uniform(0.1, 3.0)
        c = a + rng.uniform(0.1, 3.0)
        z = rng.uniform(-10, 10)
        assert hyp1f1(a, c, z) == pytest.approx(_euler_1f1(a, c, z), rel=1e-10, abs=1e-10)


def test_appell_equal_arguments_dual_path():
    # F1(a; b, c; d; z, z) = 2F1(a, b+c; d; z)
    rng = np.random.default_rng(44)
    for _ in range(25):
        a = rng.uniform(0.2, 2.0)
        d = a + rng.uniform(0.2, 2.0)
        b, cc = rng.uniform(0.1, 1.5, size=2)
        z = rng.uniform(-0.8, 0.8)
        assert _euler_f1(a, b, cc, d, z, z) == pytest.approx(hyp2f1(a, b + cc, d, z), abs=1e-10)


def test_quadrature_endpoint_singularities():
    # int_0^1 x^(-1/2) (1-x)^(-1/2) dx = pi
    val = sf.quad_power_endpoints(lambda x: np.ones_like(x), 0, 1, -0.5, -0.5)
    assert val == pytest.approx(math.pi, abs=1e-12)


def _adaptive_quad_scalar_reference(f, a, b, tol=1e-12, max_panels=4096):
    """Reference: the scalar-only Gauss-Kronrod heap loop."""
    import heapq

    def gk15(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        fx = np.asarray(f(mid + half * sf._XGK), dtype=float)
        k15 = half * float(np.dot(sf._WGK, fx))
        return k15, abs(k15 - half * float(np.dot(sf._WG, fx[1::2])))

    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    val, err = gk15(a, b)
    heap = [(-err, a, b, val)]
    total_val, total_err, n_panels = val, err, 1
    while total_err > tol and total_err > 50.0 * sf._EPS * abs(total_val):
        assert n_panels < max_panels
        neg_err, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            total_err += neg_err
            heapq.heappush(heap, (0.0, lo, hi, old_val))
            continue
        v1, e1 = gk15(lo, mid)
        v2, e2 = gk15(mid, hi)
        total_val += v1 + v2 - old_val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1
    return sign * math.fsum(item[3] for item in heap)


_QUAD_CASES = [
    (lambda x: np.sin(3 * x), 0.0, 1.0, 1e-12),
    (lambda x: np.exp(-x * x), 2.0, -1.0, 1e-14),
    (lambda x: np.sqrt(np.abs(x)), -1.0, 2.0, 1e-10),
    (lambda x: 1.0 / (1e-3 + x * x), 0.0, 1.0, 1e-12),
    (lambda x: np.log1p(x * x) * np.cos(40 * x), 0.0, 0.3, 1e-15),
]


@pytest.mark.parametrize("f, a, b, tol", _QUAD_CASES)
def test_scalar_quadrature_matches_reference_loop(f, a, b, tol):
    assert sf.adaptive_quad(f, a, b, tol=tol) == _adaptive_quad_scalar_reference(f, a, b, tol)


def test_vector_quadrature_matches_stacked_scalars():
    fs = [case[0] for case in _QUAD_CASES]
    for a, b, tol in [(0.0, 1.0, 1e-12), (1.0, -0.5, 1e-13)]:
        got = sf.adaptive_quad(lambda x: np.stack([f(x) for f in fs]), a, b, tol=tol)
        assert got.shape == (len(fs),)
        for f, g in zip(fs, got):
            assert g == pytest.approx(sf.adaptive_quad(f, a, b, tol=tol), abs=tol)


def test_vector_quadrature_raises_at_panel_cap():
    def f(x):
        return np.stack([np.ones_like(x), np.abs(x - 1.0 / 3.0) ** -0.5])

    with pytest.raises(QuadratureFailure, match="after 16 panels"):
        sf.adaptive_quad(f, 0.0, 1.0, tol=1e-14, max_panels=16)
    with pytest.raises(QuadratureFailure, match="after 16 panels"):
        sf.adaptive_quad(lambda x: f(x)[1], 0.0, 1.0, tol=1e-14, max_panels=16)
    with pytest.raises(QuadratureFailure):
        sf.adaptive_quad(lambda x: np.ones((2, 3)), 0.0, 1.0)
