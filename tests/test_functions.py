"""Holomorphic wrappers, pole placement, and growth estimation."""

import numpy as np
import pytest

from holobc.errors import PoleInsideError
from holobc.functions import (HolomorphicFunction, boundary_poles,
                              check_holomorphic, estimate_growth, pole_status,
                              rational_function)


def test_rational_function_carries_poles():
    f = rational_function("1/z^2", 1)
    assert len(f.pole_locus) == 1
    p = f.pole_locus[0]
    assert (p.var, p.location, p.order) == (0, 0j, 2)


def test_evaluation_matches_formula():
    f = rational_function("(z^2 - 1)/(z + 3)", 1)
    z = np.array([0.5 + 0.5j])
    assert np.allclose(f(z), (z[0] ** 2 - 1) / (z[0] + 3))


def test_check_holomorphic_accepts_rational(square_domain):
    f = rational_function("(z^3 + 2)/(z + 5)", 1)
    assert check_holomorphic(f, square_domain) < 1e-4


def test_check_holomorphic_flags_conjugate_dependence(square_domain):
    g = HolomorphicFunction(1, lambda z: np.conj(z[:, 0]), label="zbar")
    assert check_holomorphic(g, square_domain) > 0.1


def test_pole_status_partition(square_domain):
    f = rational_function("1/(z-1-i)", 1)
    assert pole_status(square_domain, f.pole_locus[0]) == "inside"
    f = rational_function("1/z", 1)
    assert pole_status(square_domain, f.pole_locus[0]) == "boundary"
    f = rational_function("1/(z-1)", 1)
    assert pole_status(square_domain, f.pole_locus[0]) == "boundary"
    f = rational_function("1/(z-5)", 1)
    assert pole_status(square_domain, f.pole_locus[0]) == "outside"


def test_interior_pole_rejected(square_domain):
    f = rational_function("1/(z-1-i)", 1)
    with pytest.raises(PoleInsideError):
        boundary_poles(square_domain, f)


def test_outside_pole_ignored(square_domain):
    f = rational_function("1/(z-5)", 1)
    assert boundary_poles(square_domain, f) == ()


def test_growth_exponent_double_pole(square_domain):
    est = estimate_growth(rational_function("1/z^2", 1), square_domain)
    assert abs(est.k_hat - 2.0) < 0.2
    assert est.r2 >= 0.98


def test_growth_exponent_simple_edge_pole(square_domain):
    est = estimate_growth(rational_function("1/(z-1)", 1), square_domain)
    assert abs(est.k_hat - 1.0) < 0.2
    assert est.r2 >= 0.98


def test_growth_exponent_bounded_function(square_domain):
    est = estimate_growth(rational_function("1", 1), square_domain)
    assert est.k_hat < 0.05


def test_growth_scales_with_prefactor(square_domain):
    # 10*f changes the level constant, not the exponent
    a = estimate_growth(rational_function("1/z^2", 1), square_domain)
    b = estimate_growth(rational_function("10/z^2", 1), square_domain)
    assert abs(a.k_hat - b.k_hat) < 0.05
    assert b.C_hat > 5 * a.C_hat
