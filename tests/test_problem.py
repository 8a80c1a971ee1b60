"""Problem validation and the quadrature oracle for the inner expectation."""

import math

import pytest

from nestmc.models import CATALOG
from nestmc.problem import NestedProblem, gamma_quadrature, validate


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_models_validate_clean(name):
    assert validate(CATALOG[name]()) == []


def _identity_linear_problem(f, linear_g):
    base = CATALOG["linear-gauss"]()
    return NestedProblem(
        outer_sampler=base.outer_sampler,
        inner_sampler=base.inner_sampler,
        phi=base.phi,
        f=f,
        name="probe",
        linear_g=linear_g,
    )


def test_identity_map_passes_linearity_check():
    p = _identity_linear_problem(f=lambda y, w: w, linear_g=lambda y: 1.0)
    assert validate(p) == []


def test_quadratic_f_fails_linearity_check():
    p = _identity_linear_problem(f=lambda y, w: w**2, linear_g=lambda y: 1.0)
    report = validate(p)
    assert report and any("linear" in entry for entry in report)


def test_wrong_gamma_exact_is_reported():
    base = CATALOG["gauss-log"]()
    import dataclasses
    bad = dataclasses.replace(base, gamma_exact=lambda y: 0.0 * y + 0.25)
    report = validate(bad)
    assert any("gamma_exact" in entry for entry in report)


def test_gamma_quadrature_pinned_values():
    # Binding check is the closed form 1/sqrt(2.5*pi) * exp(-0.4 y^2); the
    # 6-digit figures are quoted at transcription precision only.
    p = CATALOG["gauss-log"]()
    q0 = gamma_quadrature(p, 0.0, 2000)
    q1 = gamma_quadrature(p, 1.0, 2000)
    assert abs(q0 - 1.0 / math.sqrt(2.5 * math.pi)) < 1e-10
    assert abs(q1 - math.exp(-0.4) / math.sqrt(2.5 * math.pi)) < 1e-10
    assert abs(q0 - 0.356822) < 5e-6
    assert abs(q1 - 0.239187) < 5e-6


def test_gamma_quadrature_constant_model_exact():
    p = CATALOG["constant"]()
    for y in (-1.0, 0.0, 0.3):
        assert gamma_quadrature(p, y, 50) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_gamma_quadrature_converged_at_2000_nodes(name):
    p = CATALOG[name]()
    if p.inner_quad is None:
        pytest.skip("no quadrature support declared")
    for y in (-1.0, -0.5, 0.0, 0.5, 1.0):
        a = gamma_quadrature(p, y, 2000)
        b = gamma_quadrature(p, y, 4000)
        assert abs(a - b) < 1e-8


def test_gamma_quadrature_even_in_y_for_shared_kernel():
    # phi depends on (y-z)^2 with z ~ N(0,1), so gamma(y) = gamma(-y).
    p = CATALOG["gauss-log"]()
    for y in (0.25, 0.5, 1.0):
        assert abs(gamma_quadrature(p, y, 500)
                   - gamma_quadrature(p, -y, 500)) < 1e-12


def test_gamma_quadrature_faults():
    p = CATALOG["gauss-log"]()
    with pytest.raises(ValueError):
        gamma_quadrature(p, 0.0, 1)
    import dataclasses
    noquad = dataclasses.replace(p, inner_quad=None)
    with pytest.raises(ValueError):
        gamma_quadrature(noquad, 0.0, 100)
