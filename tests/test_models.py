"""Model catalog oracles: frozen constants against independent quadrature."""

import functools
import math

import numpy as np
import pytest
from scipy.special import roots_hermite, roots_legendre

from nestmc import _constants as C
from nestmc.estimators import collapsed_estimate, nmc_estimate
from nestmc.models import (CATALOG, MODEL_TAGS, bias_quadratic_expected_value,
                           gamma_kernel_exact, make_bias_quadratic,
                           make_constant, make_gauss_log, make_linear_gauss)
from nestmc.rng import make_root


def _phi(y, z):
    return math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (y - z) ** 2)


@functools.lru_cache(maxsize=None)
def _hermite(n=400):
    # Gauss-Hermite nodes and weights, computed once per n (~3 ms each).
    return roots_hermite(n)


def _gamma_by_hermite(y, n=400):
    # E_z[phi(y,z)] for z ~ N(0,1), via Gauss-Hermite with z = sqrt(2) x.
    x, w = _hermite(n)
    return float(np.sum(w * _phi(y, math.sqrt(2.0) * x)) / math.sqrt(math.pi))


def _outer_average(fn, n=2000):
    # E_y[fn(y)] for y ~ Uniform(-1,1), via Gauss-Legendre.
    x, w = roots_legendre(n)
    return float(np.sum(w * np.array([fn(t) for t in x])) / 2.0)


def test_catalog_names():
    assert set(CATALOG) == {"gauss-log", "bias-quad-pos", "bias-quad-neg",
                            "linear-gauss", "constant"}
    assert set(MODEL_TAGS) == set(CATALOG)


def test_phi_at_mode():
    p = make_gauss_log()
    assert p.phi(0.0, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
    assert abs(p.phi(0.0, 0.0) - 0.797885) < 1e-6


def test_gamma_exact_closed_form():
    # gamma(y) = Normal-pdf(y; 0, 5/4), i.e. exp(-0.4 y^2)/sqrt(2.5 pi).
    for y in (-1.0, -0.3, 0.0, 0.7, 1.0):
        expect = math.exp(-0.4 * y * y) / math.sqrt(2.5 * math.pi)
        assert gamma_kernel_exact(y) == pytest.approx(expect, abs=1e-15)


def test_gamma_exact_matches_independent_quadrature():
    for y in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert abs(gamma_kernel_exact(y) - _gamma_by_hermite(y)) < 1e-8


def test_frozen_gamma_probe_values():
    # exact: 1/sqrt(2.5*pi) = 0.3568248...; quoted figures carry only
    # transcription precision
    assert C.GAMMA_AT_0 == pytest.approx(1.0 / math.sqrt(2.5 * math.pi), rel=1e-12)
    assert abs(C.GAMMA_AT_0 - 0.356822) < 5e-6
    assert abs(C.GAMMA_AT_1 - 0.239187) < 5e-6
    assert C.GAMMA_AT_1 == pytest.approx(C.GAMMA_AT_0 * math.exp(-0.4), rel=1e-12)


def test_gauss_log_truth_closed_form_and_quadrature():
    closed = -0.5 * math.log(5.0 * math.pi / 2.0) - 2.0 / 15.0
    assert C.GAUSS_LOG_TRUTH == pytest.approx(closed, abs=1e-12)
    assert abs(C.GAUSS_LOG_TRUTH - (-1.163844)) < 1e-6
    quad = _outer_average(lambda y: math.log(gamma_kernel_exact(y)))
    assert abs(C.GAUSS_LOG_TRUTH - quad) < 1e-8
    assert make_gauss_log().truth == C.GAUSS_LOG_TRUTH


def test_bias_quadratic_c_matches_independent_quadrature():
    def var_phi_given(y):
        x, w = _hermite(400)
        z = math.sqrt(2.0) * x
        second = float(np.sum(w * _phi(y, z) ** 2) / math.sqrt(math.pi))
        return second - _gamma_by_hermite(y) ** 2

    c = _outer_average(var_phi_given)
    assert abs(C.BIAS_QUAD_C - c) < 1e-8


def test_linear_gauss_truth_matches_independent_quadrature():
    quad = _outer_average(lambda y: (1.0 + y * y) * gamma_kernel_exact(y))
    assert abs(C.LINEAR_GAUSS_TRUTH - quad) < 1e-8
    assert make_linear_gauss().truth == C.LINEAR_GAUSS_TRUTH


def test_bias_pair_defining_identities():
    pos = make_bias_quadratic(+1)
    assert pos.truth == 0.0
    # f vanishes exactly at the true inner expectation.
    for y in (-0.8, 0.0, 0.4):
        assert pos.f(y, gamma_kernel_exact(y)) == 0.0
    assert pos.f(0.0, 0.0) == pytest.approx(gamma_kernel_exact(0.0) ** 2, rel=1e-12)
    assert abs(pos.f(0.0, 0.0) - 0.127322) < 5e-6
    neg = make_bias_quadratic(-1)
    assert neg.f(0.3, 0.1) == -pos.f(0.3, 0.1)


def test_bias_quadratic_expected_value_scaling():
    assert bias_quadratic_expected_value(1) == pytest.approx(
        10 * bias_quadratic_expected_value(10), rel=1e-14)
    for M in (1, 2, 7, 100):
        assert bias_quadratic_expected_value(M) > 0
        assert (bias_quadratic_expected_value(M, sign=-1)
                == -bias_quadratic_expected_value(M))
    with pytest.raises(ValueError):
        bias_quadratic_expected_value(0)
    with pytest.raises(ValueError):
        make_bias_quadratic(2)


def test_bias_models_expose_expected_value():
    pos = CATALOG["bias-quad-pos"]()
    neg = CATALOG["bias-quad-neg"]()
    assert pos.expected_nmc_value(4) == bias_quadratic_expected_value(4)
    assert neg.expected_nmc_value(4) == -pos.expected_nmc_value(4)
    assert CATALOG["gauss-log"]().expected_nmc_value is None


@pytest.mark.parametrize("N,M", [(1, 1), (3, 2), (10, 7)])
def test_constant_model_exact_everywhere(N, M):
    p = make_constant(2.5)
    s = make_root(0)
    assert nmc_estimate(p, N, M, s).value == 2.5
    assert collapsed_estimate(p, N, s).value == 2.5
    assert p.truth == 2.5


def test_replication_mean_matches_bias_law():
    # At N=1000 the estimator expectation is exactly c/M for the quadratic
    # bias model; the replication mean must sit within 3 SEs of it.
    p = CATALOG["bias-quad-pos"]()
    s = make_root(17)
    R = 300
    for row, M in enumerate((2, 8, 32)):
        row_stream = s.split(row)
        vals = np.array([nmc_estimate(p, 1000, M, row_stream.split(r)).value
                         for r in range(R)])
        se = np.std(vals, ddof=1) / math.sqrt(R)
        predicted = bias_quadratic_expected_value(M)
        assert abs(vals.mean() - predicted) <= 3 * se


def test_sign_antisymmetry_is_exact():
    pos = CATALOG["bias-quad-pos"]()
    neg = CATALOG["bias-quad-neg"]()
    s = make_root(23)
    for r, (N, M) in enumerate([(1, 1), (7, 3), (64, 32), (500, 5)]):
        a = nmc_estimate(pos, N, M, s.split(r))
        b = nmc_estimate(neg, N, M, s.split(r))
        assert b.value == -a.value  # bit-exact negation, not approximate
        assert (b.n_outer, b.n_inner, b.total_draws) == (a.n_outer, a.n_inner,
                                                         a.total_draws)


def test_gauss_log_marginal_inner_kind():
    p = make_gauss_log()
    # z ~ N(0,1) ignores y entirely.
    z1 = p.inner_sampler(make_root(1), -0.9)
    z2 = p.inner_sampler(make_root(1), 0.9)
    assert z1 == z2
