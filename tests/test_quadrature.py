"""Adaptive panel integration: exactness, budgets, determinism."""

import numpy as np
import pytest

from holobc.errors import NonFiniteIntegrandError
from holobc.quadrature import (WG_EMBEDDED, WGK, IntegralResult,
                               QuadratureSpec, SpecialPoint, _contract,
                               _presplit, adaptive_integrate, combine_results,
                               integrate_boundary, integrate_face,
                               integrate_volume)
from holobc.scenario import build_domain, load_scenario

TIGHT = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=40_000)


def test_polynomial_over_unit_interval():
    result = adaptive_integrate(lambda p: p[:, 0] ** 3 + 0.0j,
                                ((0.0, 1.0),), TIGHT)
    assert result.converged
    assert abs(result.value - 0.25) < 1e-12


def test_product_over_unit_square():
    result = adaptive_integrate(
        lambda p: p[:, 0].real * p[:, 1].real + 0.0j,
        ((0.0, 1.0), (0.0, 1.0)), TIGHT)
    assert abs(result.value - 0.25) < 1e-11


def test_oscillatory_integrand():
    # int_0^pi sin = 2
    result = adaptive_integrate(lambda p: np.sin(p[:, 0].real) + 0.0j,
                                ((0.0, np.pi),), TIGHT)
    assert abs(result.value - 2.0) < 1e-10


def test_error_estimate_covers_true_error():
    result = adaptive_integrate(lambda p: np.exp(p[:, 0].real) + 0.0j,
                                ((0.0, 1.0),), TIGHT)
    true_err = abs(result.value - (np.e - 1.0))
    assert true_err <= max(result.err_est * 10, 1e-13)


def test_special_point_presplit_tames_near_singularity():
    eps = 1e-5

    def steep(p):
        x = p[:, 0].real
        return 1.0 / np.sqrt(x + eps) + 0.0j

    exact = 2.0 * (np.sqrt(1 + eps) - np.sqrt(eps))
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=20_000)
    steered = adaptive_integrate(steep, ((0.0, 1.0),), spec,
                                 [SpecialPoint(np.array([0.0 + 0.0j]), 10 * eps)])
    assert steered.converged
    assert abs(steered.value - exact) < 1e-8 * exact


def presplit_per_cell(box, specials, phys_map, depth):
    """The presplit with one phys_map call per cell, as the reference."""
    cells, idx = [(box, 0)], 1
    locs = np.stack([s.location for s in specials])
    radii = np.array([s.radius for s in specials])
    for round_no in range(48):
        refined, changed = [], False
        for cell, index in cells:
            corners = np.array(np.meshgrid(*cell, indexing="ij"))
            corners = corners.reshape(len(cell), -1).T
            center = np.array([[0.5 * (lo + hi) for lo, hi in cell]])
            pts = phys_map(np.concatenate([center, corners], axis=0))
            c = pts[0]
            cover = float(np.max(np.sqrt(np.sum(np.abs(pts[1:] - c) ** 2, axis=-1))))
            dists = np.sqrt(np.sum(np.abs(locs - c) ** 2, axis=-1))
            touching = dists <= cover + radii + 1e-15
            finite = radii[touching & (radii > 0)]
            if touching.any() and (round_no < depth or (
                    finite.size and 2.0 * cover > finite.min())):
                axis = int(np.argmax([hi - lo for lo, hi in cell]))
                lo, hi = cell[axis]
                mid = 0.5 * (lo + hi)
                halves = [list(cell), list(cell)]
                halves[0][axis], halves[1][axis] = (lo, mid), (mid, hi)
                refined += [(tuple(halves[0]), idx), (tuple(halves[1]), idx + 1)]
                idx += 2
                changed = True
            else:
                refined.append((cell, index))
        cells = refined
        if not changed:
            return cells, idx
    return cells, idx


@pytest.mark.parametrize("name, piece, specials, depth", [
    # the square's side y = 0: a shifted pole near it and a corner
    ("square", 2, [SpecialPoint(np.array([1.0 + 1e-3j]), 1e-2),
                   SpecialPoint(np.array([0.0j]), 0.0)], 6),
    # a bidisc face z1 on the circle: a point of the distinguished boundary
    ("bidisc", 0, [SpecialPoint(np.array([1.0 + 0j, 1.0 + 0j]), 0.0)], 3),
])
def test_presplit_maps_a_round_at_once_as_cell_by_cell(name, piece, specials,
                                                       depth):
    patch = build_domain(load_scenario(name)).pieces[piece].patches[0]
    calls = []

    def phys_map(params):
        calls.append(len(params))
        return patch.param_map(params)

    cells, idx = _presplit(patch.param_box, specials, phys_map, depth, 0)
    want, want_idx = presplit_per_cell(patch.param_box, specials,
                                       patch.param_map, depth)
    assert [(c.box, c.index) for c in cells] == want
    assert idx == want_idx
    assert len(cells) > depth
    # one call per round, each mapping the centre and corners of every cell
    assert len(calls) <= 48
    assert calls[0] == 1 + 2 ** len(patch.param_box)


def test_budget_exhaustion_reported_not_hidden():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=4)

    def wiggly(p):
        x = p[:, 0].real
        return np.sin(50 * x) / (x + 1e-3) + 0.0j

    result = adaptive_integrate(wiggly, ((0.0, 1.0),), spec)
    assert not result.converged
    assert result.cells_used <= 4 + 1


def test_repeat_runs_bitwise_identical():
    def f(p):
        x = p[:, 0].real
        return np.cos(7 * x) / (1 + x * x) + 0.0j

    a = adaptive_integrate(f, ((0.0, 2.0),), TIGHT)
    b = adaptive_integrate(f, ((0.0, 2.0),), TIGHT)
    assert a.value == b.value
    assert a.cells_used == b.cells_used


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_rule_contraction_matches_axis_by_axis_tensordot(dim):
    values = np.random.default_rng(dim).normal(size=(3,) + (15,) * dim)

    def reference(gauss_axes):
        out = values
        for a in range(dim):
            out = np.tensordot(out, WG_EMBEDDED if a in gauss_axes else WGK,
                               axes=(1, 0))
        return out

    rules = _contract(values.reshape(3, -1, 1), dim)[:, :, 0]
    assert np.allclose(rules[:, 0], reference(()), rtol=1e-13, atol=0)
    assert np.allclose(rules[:, -1], reference(range(dim)), rtol=1e-13, atol=0)
    for a in range(dim):
        assert np.allclose(rules[:, 2 ** (dim - 1 - a)], reference((a,)),
                           rtol=1e-13, atol=0)


def _three(p):
    x = p[:, 0].real
    return np.stack([1.0 / np.sqrt(x + 1e-3), np.cos(20.0 * x),
                     np.exp(x) * 1j], axis=-1)


def test_vector_integrand_matches_scalar_runs():
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12, max_subdivisions=20_000)
    box = ((0.0, 1.0),)
    vector = adaptive_integrate(_three, box, spec)
    assert vector.converged
    assert vector.value.shape == vector.err_est.shape == (3,)
    for k in range(3):
        scalar = adaptive_integrate(lambda p, k=k: _three(p)[:, k], box, spec)
        assert scalar.converged
        gap = abs(vector.value[k] - scalar.value)
        assert gap <= vector.err_est[k] + scalar.err_est


def test_one_component_vector_is_the_scalar_rule():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=20_000)
    box = ((0.0, 1.0), (0.0, 2.0))

    def f(p):
        return np.exp(p[:, 0] * p[:, 1]) / (p[:, 0] + 0.05) + 0.0j

    scalar = adaptive_integrate(f, box, spec)
    vector = adaptive_integrate(lambda p: f(p)[:, None], box, spec)
    assert vector.value.shape == (1,)
    assert vector.value[0] == scalar.value
    assert vector.err_est[0] == scalar.err_est
    assert (vector.cells_used, vector.converged) == (scalar.cells_used,
                                                     scalar.converged)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_raises_naming_the_box(bad):
    def f(p):
        x = p[:, 0].real
        return np.where(x > 0.7, bad, 1.0) + 0.0j

    with pytest.raises(NonFiniteIntegrandError, match=r"\(\(0\.0, 2\.0\),\)"):
        adaptive_integrate(f, ((0.0, 2.0),), TIGHT)


def test_combine_results_sums_fields():
    parts = [IntegralResult(1.0 + 2.0j, 1e-10, 3, True),
             IntegralResult(0.5 - 1.0j, 2e-10, 4, True)]
    total = combine_results(parts)
    assert total.value == 1.5 + 1.0j
    assert total.cells_used == 7
    assert total.converged


def test_combine_results_propagates_failure():
    parts = [IntegralResult(1.0, 1e-10, 3, True),
             IntegralResult(0.5, 2e-10, 4, False)]
    assert not combine_results(parts).converged


def test_square_perimeter_and_area(square_domain, fast_spec):
    # arc length density |gamma'|; orientation signs cancel per face
    def speed(z, frame):
        return np.abs(frame[:, 0, 0]) + 0.0j

    length = 0.0
    for piece in square_domain.pieces:
        for patch in piece.patches:
            length += abs(integrate_face(patch, speed, fast_spec).value)
    assert abs(length - 8.0) < 1e-9

    area = integrate_volume(
        square_domain, lambda z: np.ones(len(z), dtype=np.complex128),
        fast_spec)
    assert abs(area.value - 4.0) < 1e-8


def test_signed_boundary_integral_of_closed_loop_vanishes(square_domain, fast_spec):
    # with orientation signs applied, the constant parameter density over a
    # closed boundary cancels: equal and opposite runs along opposite edges
    total = integrate_boundary(
        square_domain, lambda z, frame: np.ones(len(z), dtype=np.complex128),
        fast_spec)
    assert abs(total.value) < 1e-10


def test_face_moment_on_bottom_edge(square_domain, fast_spec):
    # bottom edge of the square is x from 0 to 2 at y = 0: int x ds = 2
    def density(z, frame):
        return z[:, 0].real + 0.0j

    values = []
    for piece in square_domain.pieces:
        for patch in piece.patches:
            (lo, hi), = patch.param_box
            mid = patch.param_map(np.array([[(lo + hi) / 2]]))[0, 0]
            if abs(mid.imag) < 1e-9 and 0.0 < mid.real < 2.0:
                values.append(abs(integrate_face(patch, density, fast_spec).value))
    assert len(values) == 1
    assert abs(values[0] - 2.0) < 1e-9


def test_bidisc_volume(bidisc_domain, fast_spec):
    ones = lambda z: np.ones(len(z), dtype=np.complex128)
    vol = integrate_volume(bidisc_domain, ones, fast_spec)
    assert abs(vol.value - np.pi ** 2) < 1e-6 * np.pi ** 2
