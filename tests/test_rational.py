"""Expression parsing, conjugate calculus, and pole extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobc.errors import ScenarioError
from holobc.rational import (compile_node, conj_derivative, find_poles,
                             parse_expression)


def evaluate(text, z, dim=1, conjugates=False):
    fn = compile_node(parse_expression(text, dim, allow_conjugates=conjugates), dim)
    return fn(np.atleast_2d(np.asarray(z, dtype=np.complex128)))


def test_arithmetic_matches_direct_formula():
    z = np.array([[0.3 + 0.7j], [2.5 - 1.0j], [-1.0 + 0.0j]])
    got = evaluate("(z^2 + 1)/(z - 2) - 3*z", z)
    want = ((z[:, 0] ** 2 + 1) / (z[:, 0] - 2) - 3 * z[:, 0])
    assert np.allclose(got, want)


def test_imaginary_unit_and_numeric_suffix():
    z = np.array([[1.0 + 0.0j]])
    assert np.allclose(evaluate("2i + i*z", z), 2j + 1j)
    assert np.allclose(evaluate("1.5e-2", z), 0.015)
    assert np.allclose(evaluate("3i*z^2", np.array([[2.0 + 0.0j]])), 12j)


def test_unary_minus_and_precedence():
    z = np.array([[2.0 + 0.0j]])
    assert np.allclose(evaluate("-z^2", z), -4.0)
    assert np.allclose(evaluate("2*z + 3*z^2 / z", z), 10.0)


def test_real_part_sugar_one_variable():
    z = np.array([[0.25 + 0.75j]])
    assert np.allclose(evaluate("x", z, conjugates=True), 0.25)
    assert np.allclose(evaluate("y", z, conjugates=True), 0.75)
    assert np.allclose(evaluate("x + i*y", z, conjugates=True), z[0, 0])


def test_real_part_sugar_two_variables():
    z = np.array([[1.0 + 2.0j, 3.0 + 4.0j]])
    assert np.allclose(evaluate("x1 + 2*y2", z, dim=2, conjugates=True), 9.0)
    assert np.allclose(evaluate("y1 * x2", z, dim=2, conjugates=True), 6.0)


def test_conjugate_variable():
    z = np.array([[0.5 + 0.5j]])
    assert np.allclose(evaluate("zbar", z, conjugates=True), 0.5 - 0.5j)
    z2 = np.array([[1.0 + 1.0j, 2.0 - 1.0j]])
    assert np.allclose(evaluate("zbar1*zbar2", z2, dim=2, conjugates=True),
                       (1 - 1j) * (2 + 1j))


def test_conjugates_rejected_without_flag():
    with pytest.raises(ScenarioError):
        parse_expression("zbar", 1)
    with pytest.raises(ScenarioError):
        parse_expression("x", 1)


def test_unknown_identifier_rejected():
    with pytest.raises(ScenarioError):
        parse_expression("w + 1", 1, allow_conjugates=True)
    with pytest.raises(ScenarioError):
        parse_expression("z2", 1)


def test_malformed_expressions_rejected():
    for bad in ("1 +", "(z", "z ** 2", "1 @ 2", ""):
        with pytest.raises(ScenarioError):
            parse_expression(bad, 1)


def test_conj_derivative_of_holomorphic_vanishes():
    node = parse_expression("(z^3 - 2*z + 1)/(z - 5)", 1)
    d = compile_node(conj_derivative(node, 0), 1)
    z = np.array([[0.3 + 0.1j], [1.0 - 2.0j]])
    assert np.allclose(d(z), 0.0)


def test_conj_derivative_of_zbar_is_one():
    node = parse_expression("zbar", 1, allow_conjugates=True)
    d = compile_node(conj_derivative(node, 0), 1)
    assert np.allclose(d(np.array([[0.7 + 0.2j]])), 1.0)


def test_conj_derivative_mixed_two_variables():
    # d/dzbar2 of z1*zbar2^2 = 2*z1*zbar2
    node = parse_expression("z1*zbar2^2", 2, allow_conjugates=True)
    d = compile_node(conj_derivative(node, 1), 2)
    z = np.array([[2.0 + 0.0j, 1.0 + 1.0j]])
    assert np.allclose(d(z), 2 * 2.0 * (1.0 - 1.0j))


def test_find_poles_with_orders():
    poles = find_poles(parse_expression("1/z^2", 1), 1)
    assert len(poles) == 1
    assert poles[0].var == 0
    assert poles[0].value == 0
    assert poles[0].order == 2

    poles = find_poles(parse_expression("1/((z-1)*(z-1))", 1), 1)
    assert poles[0].value == 1 and poles[0].order == 2

    poles = find_poles(parse_expression("1/(z1*(z2-1))", 2), 2)
    got = {(p.var, complex(p.value), p.order) for p in poles}
    assert got == {(0, 0j, 1), (1, 1 + 0j, 1)}


def test_polynomials_have_no_poles():
    assert find_poles(parse_expression("z^5 - 3*z + 2", 1), 1) == ()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_parsed_polynomial_matches_horner(coeffs, z0):
    text = " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))
    got = evaluate(text, np.array([[z0]]))
    want = sum(c * z0 ** k for k, c in enumerate(coeffs))
    assert np.allclose(got, want, atol=1e-9)
