"""Domains, corner strata, genericity verdicts, and chart covers."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from holobc import geometry
from holobc.errors import GeometryError, NoOutwardVectorError, ScenarioError
from holobc.geometry import (CornerStratum, SmoothPiece, StratumVerdict,
                             SupportBall, _dedupe, _gauss_newton_step,
                             build_chart_cover, classify_stratum,
                             domain_from_pieces, locate_strata,
                             nearest_boundary_gap, validate_domain)
from holobc.scenario import build_domain, load_scenario

SQUARE_PIECES = [
    {"kind": "box-side", "axis": "x", "side": "min", "value": 0.0},
    {"kind": "box-side", "axis": "x", "side": "max", "value": 2.0},
    {"kind": "box-side", "axis": "y", "side": "min", "value": 0.0},
    {"kind": "box-side", "axis": "y", "side": "max", "value": 2.0},
]


def rescaled(domain, factor):
    """A clone with every defining function multiplied by a constant."""
    pieces = tuple(
        SmoothPiece(rho=(lambda z, p=p: factor * p.rho(z)),
                    grad_rho=(lambda z, p=p: factor * p.grad_rho(z)),
                    dbar_rho=(lambda z, p=p: factor * p.dbar_rho(z)),
                    patches=p.patches, label=p.label)
        for p in domain.pieces)
    return dataclasses.replace(domain, pieces=pieces)


def active_verdicts(domain, resolution=None):
    out = {}
    for stratum in locate_strata(domain, grid_resolution=resolution):
        done = classify_stratum(domain, stratum)
        if done.verdict.value != "EMPTY":
            out[done.subset] = done.verdict.value
    return out


def test_square_membership(square_domain):
    inside = np.array([[1.0 + 1.0j], [0.1 + 1.9j]])
    outside = np.array([[-0.1 + 1.0j], [1.0 + 2.2j], [3.0 + 1.0j]])
    assert np.all(square_domain.contains(inside))
    assert not np.any(square_domain.contains(outside))


def test_square_and_bidisc_validate(square_domain, bidisc_domain):
    validate_domain(square_domain)
    validate_domain(bidisc_domain)


def test_empty_interior_rejected():
    pieces = [dict(p) for p in SQUARE_PIECES]
    pieces[0]["value"], pieces[1]["value"] = 2.0, 0.0  # x in (2, 0): empty
    domain = domain_from_pieces(pieces, 1)
    with pytest.raises(GeometryError):
        validate_domain(domain)


def test_unknown_piece_kind_rejected():
    with pytest.raises(GeometryError):
        domain_from_pieces([{"kind": "pentagon"}], 1,
                           bounding_box=np.array([[0.0, 2.0], [0.0, 2.0]]))


def test_square_corners_fail_cardinality(square_strata):
    active = {st.subset: st.verdict.value for st in square_strata
              if st.verdict.value != "EMPTY"}
    assert len(active) == 4
    assert set(active.values()) == {"NON_GENERIC_CARDINALITY"}


def test_square_corner_locations(square_strata):
    corners = set()
    for st in square_strata:
        usable = st.samples[st.in_closure] if len(st.samples) else st.samples
        for w in usable:
            corners.add((round(float(w[0].real), 6), round(float(w[0].imag), 6)))
    assert corners == {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)}


def test_square_corners_are_exact(square_strata):
    # a biased Newton step would shift the corners, and the corner charts
    # centred on them, by a few ulps
    corners = [complex(w[0]) for st in square_strata
               for w in st.samples[st.in_closure]]
    assert sorted(corners, key=lambda w: (w.real, w.imag)) == [0, 2j, 2, 2 + 2j]


def test_bidisc_distinguished_boundary_generic(bidisc_domain):
    verdicts = active_verdicts(bidisc_domain, resolution=6)
    assert verdicts == {(0, 1): "GENERIC"}


def test_product_with_flat_factor_degenerates_in_rank():
    domain = build_domain(load_scenario("square-cross-plane"))
    verdicts = active_verdicts(domain, resolution=6)
    corner_lines = {s: v for s, v in verdicts.items()
                    if v == "NON_GENERIC_COMPLEX_RANK"}
    assert len(corner_lines) == 4


def test_verdicts_stable_under_rescaling(square_domain):
    base = active_verdicts(square_domain)
    scaled = active_verdicts(rescaled(square_domain, 3.0))
    assert base == scaled


def solve_every_subset(domain, res):
    """Each subset's stratum from its own grid seeds, solved whatever its
    smaller subsets found, and the raw Newton roots behind it."""
    axes = [np.linspace(lo, hi, res) for lo, hi in domain.bounding_box]
    cell_diag = float(np.linalg.norm(
        [(hi - lo) / (res - 1) for lo, hi in domain.bounding_box]))
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    zgrid = grid[:, 0::2] + 1j * grid[:, 1::2]
    rho = domain.rho_all(zgrid)
    grad_scale = [np.maximum(np.linalg.norm(p.grad_rho(zgrid), axis=-1), 1e-9)
                  for p in domain.pieces]
    out = {}
    m = len(domain.pieces)
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(m), k) for k in range(2, m + 1)):
        near = np.all([np.abs(rho[j]) / grad_scale[j] < 1.8 * cell_diag
                       for j in subset], axis=0)
        seeds = grid[near]
        roots = geometry._newton_solve(domain, subset, seeds) if len(seeds) \
            else np.zeros((0, domain.ambient_dim), dtype=np.complex128)
        samples = _dedupe(roots, 1.2 * cell_diag, geometry._MAX_STRATUM_SAMPLES)
        in_closure = np.array([bool(np.all(domain.rho_all(w[None, :]) <= 1e-7))
                               for w in samples], dtype=bool)
        raw = CornerStratum(subset, samples, in_closure, StratumVerdict.EMPTY)
        out[subset] = (classify_stratum(domain, raw), roots)
    return out


@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_strata_skip_only_subsets_without_roots(monkeypatch, factor):
    domain = build_domain(load_scenario("square-cross-plane"))
    if factor != 1.0:
        domain = rescaled(domain, factor)
    reference = solve_every_subset(domain, 10)
    assert len(reference) == 26

    solved = []
    newton_solve = geometry._newton_solve

    def counting(domain, subset, seeds):
        solved.append(tuple(subset))
        return newton_solve(domain, subset, seeds)

    monkeypatch.setattr(geometry, "_newton_solve", counting)
    strata = locate_strata(domain)
    assert len(solved) == 14
    # a skipped subset would have found no root from its own seeds
    for subset, (_, roots) in reference.items():
        if subset not in solved:
            assert len(roots) == 0, subset
    # and every stratum is the one its own solve gives, bit for bit
    assert [st.subset for st in strata] == list(reference)
    for st in strata:
        want = reference[st.subset][0]
        assert st.verdict == want.verdict
        assert st.samples.shape == want.samples.shape
        assert st.samples.tobytes() == want.samples.tobytes()
        assert st.in_closure.tobytes() == want.in_closure.tobytes()
        assert st.rank_data == want.rank_data


def full_grid_interior_point(domain):
    """The 39^(2n) grid of ``interior_point`` held at once, one argmin."""
    axes = [np.linspace(lo, hi, 41)[1:-1] for lo, hi in domain.bounding_box]
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    z = grid[:, 0::2] + 1j * grid[:, 1::2]
    return z[int(np.argmin(np.max(domain.rho_all(z), axis=0)))]


@pytest.mark.parametrize("name", ["square", "bidisc", "square-cross-plane"])
def test_interior_point_matches_the_full_grid(name):
    domain = build_domain(load_scenario(name))
    assert domain.interior_point().tobytes() == \
        full_grid_interior_point(domain).tobytes()


def test_interior_point_holds_one_slab_at_a_time():
    domain = build_domain(load_scenario("square-cross-plane"))
    tracemalloc.start()
    try:
        domain.interior_point()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 39^4 grid with its copies took about 318 MiB
    assert peak < 32 * 2 ** 20


def _jacobian_batch(rng, m, rows, cols, parallel=0):
    """m well-conditioned (rows, cols) Jacobians of random magnitude, with
    ``parallel`` extra rows that are multiples of the first row."""
    q = min(rows, cols)
    U = np.linalg.qr(rng.normal(size=(m, rows, q)))[0]
    V = np.linalg.qr(rng.normal(size=(m, cols, q)))[0]
    s = rng.uniform(0.5, 2.0, size=(m, 1, q))
    J = (U * s) @ np.swapaxes(V, 1, 2)
    copies = rng.uniform(-3.0, 3.0, size=(m, parallel, 1)) * J[:, :1, :]
    J = np.concatenate([J, copies], axis=1)
    return J * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1, 1))


@pytest.mark.parametrize("rows, cols, parallel", [
    (2, 4, 0), (3, 4, 0), (2, 2, 0),      # wide and square, full rank
    (3, 2, 0), (5, 4, 0), (4, 2, 0),      # tall, full rank
    (1, 2, 1), (1, 4, 1), (2, 4, 1),      # rank-deficient: parallel rows
    (1, 2, 2),
])
def test_gauss_newton_step_is_the_pinv_step(rows, cols, parallel):
    rng = np.random.default_rng(rows * 100 + cols * 10 + parallel)
    J = _jacobian_batch(rng, 200, rows, cols, parallel)
    r = rng.normal(size=J.shape[:2]) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    expected = -np.einsum("mij,mj->mi", np.linalg.pinv(J), r)
    step = _gauss_newton_step(J, r)
    scale = np.linalg.norm(expected, axis=-1)
    assert np.all(np.linalg.norm(step - expected, axis=-1) <= 1e-10 * scale)
    # the step of the rescaled system (3 rho) is the same step
    scaled = _gauss_newton_step(3.0 * J, 3.0 * r)
    assert np.all(np.linalg.norm(scaled - step, axis=-1) <= 1e-10 * scale)


def test_nearest_boundary_gap_square(square_domain):
    assert abs(nearest_boundary_gap(square_domain, np.array([1.0 + 1.0j])) - 1.0) < 1e-6
    assert abs(nearest_boundary_gap(square_domain, np.array([0.5 + 1.0j])) - 0.5) < 1e-6
    assert nearest_boundary_gap(square_domain, np.array([0.0 + 1.0j])) < 1e-7


def test_cover_is_a_partition_of_unity(square_domain, square_cover):
    pts, _ = square_domain.boundary_samples(per_axis=64)
    total = np.zeros(len(pts))
    for i in range(len(square_cover.charts)):
        total += square_cover.partition_weight(i, pts)
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_cover_margins_strictly_positive(square_cover):
    for chart in square_cover.charts:
        assert chart.margin is None or chart.margin > 0.0


def test_corner_chart_directions_point_outward(square_domain, square_cover):
    # v is the outward average; the pairing translates by -eps*v, inward
    eps = 1e-3
    for chart in square_cover.charts:
        if not chart.label.startswith("corner"):
            continue
        center = chart.region.center
        assert not np.any(square_domain.contains(
            np.atleast_2d(center + eps * chart.v)))
        assert np.all(square_domain.contains(
            np.atleast_2d(center - eps * chart.v)))


def test_inward_translation_enters_the_domain_on_support(square_domain,
                                                         square_cover):
    pts, _ = square_domain.boundary_samples(per_axis=48)
    eps = 1e-4
    for i, chart in enumerate(square_cover.charts):
        w = square_cover.partition_weight(i, pts)
        hot = pts[w > 1e-6]
        if len(hot) == 0:
            continue
        assert np.all(square_domain.contains(hot - eps * chart.v, tol=1e-12))


def test_reversed_corner_directions_caught(square_domain):
    with pytest.raises(NoOutwardVectorError):
        build_chart_cover(square_domain, corner_v_rotation=math.pi)


def test_two_valid_covers_differ(square_domain, square_cover):
    other = build_chart_cover(square_domain, radius=0.24,
                              corner_v_rotation=math.pi / 12)
    assert len(other.charts) >= 4
    key = lambda w: (round(w.real, 9), round(w.imag, 9))
    v_base = sorted((complex(c.v[0]) for c in square_cover.charts
                     if c.label.startswith("corner")), key=key)
    v_other = sorted((complex(c.v[0]) for c in other.charts
                      if c.label.startswith("corner")), key=key)
    assert not np.allclose(v_base, v_other)


def test_support_ball_overlap_predicate():
    ball = SupportBall(center=np.array([0.0 + 0.0j]), radius=1.0)
    assert ball.might_contain(np.array([1.5 + 0.0j]), 0.6)
    assert not ball.might_contain(np.array([3.0 + 0.0j]), 0.5)


def test_bidisc_cover_tiles_both_factors(bidisc_domain, bidisc_cover):
    pts, _ = bidisc_domain.boundary_samples(per_axis=12)
    total = np.zeros(len(pts))
    for i in range(len(bidisc_cover.charts)):
        total += bidisc_cover.partition_weight(i, pts)
    assert np.max(np.abs(total - 1.0)) < 1e-10


@pytest.fixture(scope="module")
def bidisc_cover(bidisc_domain):
    return build_chart_cover(bidisc_domain)


@pytest.mark.parametrize("name", ["bidisc", "square-cross-plane"])
def test_product_cover_locates_no_strata(monkeypatch, name):
    # a product cover is built from its factors' tiles; corner strata are
    # never read, so they are never located
    domain = build_domain(load_scenario(name))

    def refuse(*args, **kwargs):
        raise AssertionError("a product cover located strata")

    monkeypatch.setattr(geometry, "locate_strata", refuse)
    cover = build_chart_cover(domain)
    assert all(chart.margin > 0.0 for chart in cover.charts)


@pytest.mark.parametrize("which", ["square", "bidisc"])
def test_chart_margins_come_from_the_cover_weights(request, which):
    domain = request.getfixturevalue(f"{which}_domain")
    cover = request.getfixturevalue(f"{which}_cover")
    pts, owners = geometry._fine_boundary_grid(domain)
    for chart, w in zip(cover.charts, cover.raw_weights(pts)):
        assert chart.margin == geometry.chart_margin(domain, chart.v, w, pts,
                                                     owners)


def test_arc_strip_weights_are_continuous_across_the_seam():
    # a lone circle is cut into arcs with no corner; the first arc's support
    # starts below the seam at theta = 0, the last one ends above it
    disc = domain_from_pieces([{"kind": "disc", "center": [0.0, 0.0],
                                "radius": 1.0}], 1)
    cover = build_chart_cover(disc)
    z = np.exp(1j * np.array([-1e-6, 1e-6]))[:, None]
    weights = cover.partition_weight(range(len(cover.charts)), z)
    assert np.max(weights[0]) > 0.4
    assert np.allclose(weights[0], weights[1], atol=1e-4)


def near_boundary_points(domain, per_axis, offset):
    """Boundary samples and copies pushed out and in along the unit normal."""
    pts, owners = domain.boundary_samples(per_axis=per_axis)
    layers = [pts]
    for off in (offset, -offset):
        moved = pts.copy()
        for j, piece in enumerate(domain.pieces):
            mine = owners == j
            g = piece.grad_rho(pts[mine])
            g = g / np.linalg.norm(g, axis=-1, keepdims=True)
            moved[mine] += off * (g[:, 0::2] + 1j * g[:, 1::2])
        layers.append(moved)
    return np.concatenate(layers)


@pytest.mark.parametrize("which", ["square", "bidisc"])
def test_shared_factor_weights_match_per_chart_evaluation(request, which):
    domain = request.getfixturevalue(f"{which}_domain")
    cover = request.getfixturevalue(f"{which}_cover")
    z = near_boundary_points(domain, 96 if which == "square" else 512,
                             0.035)

    def chart_weight(i, pts):
        """Chart i's raw weight: its factor product, evaluated on its own."""
        indices = cover.chart_factors[i]
        product = cover.factors[indices[0]](pts)
        for k in indices[1:]:
            product = product * cover.factors[k](pts)
        return product

    charts = range(len(cover.charts))
    weights = [chart_weight(i, z) for i in charts]
    assert np.array_equal(cover.raw_weights(z), np.stack(weights))
    for i in charts:
        hot = weights[i] > 0.0
        total = np.zeros(np.count_nonzero(hot))
        for other in charts:
            total += chart_weight(other, z[hot])
        expected = np.zeros(len(z))
        expected[hot] = weights[i][hot] / total
        assert np.array_equal(cover.partition_weight(i, z), expected)

    # a sequence of indices gives one column per chart, in the order asked
    order = list(range(len(cover.charts)))[::-1]
    columns = cover.partition_weight(order, z)
    assert columns.shape == (len(z), len(order))
    for k, i in enumerate(order):
        assert np.array_equal(columns[:, k], cover.partition_weight(i, z))


def test_bidisc_chart_weights_are_tile_products(bidisc_domain, bidisc_cover):
    # each product chart is (tile or interior of z1) x (tile or interior of
    # z2), in the order the cover lists them
    f0, f1 = bidisc_domain.product_factors
    tiles0 = f0.boundary_tiles(0.3, 0.2, 6)
    tiles1 = f1.boundary_tiles(0.3, 0.2, 6)
    int0 = f0.interior_profile(0.3)[0]
    int1 = f1.interior_profile(0.3)[0]
    pairs = ([(t.profile, int1) for t in tiles0]
             + [(int0, t.profile) for t in tiles1]
             + [(a.profile, b.profile) for a in tiles0 for b in tiles1])
    assert len(bidisc_cover.charts) == len(pairs) == 48
    assert len(bidisc_cover.factors) == 14
    z = near_boundary_points(bidisc_domain, 512, 0.035)
    for w, (p0, p1) in zip(bidisc_cover.raw_weights(z), pairs):
        assert np.array_equal(w, p0(z[:, 0]) * p1(z[:, 1]))
