"""Chart pairings, test forms, oracles, and the orthogonality test."""

import numpy as np
import pytest

from holobc import pairing
from holobc.errors import (BudgetExceededError, FormNotClosedError,
                           NotL1Error, PoleOnBoundaryError, ScenarioError)
from holobc.functions import rational_function
from holobc.geometry import (ChartCover, SupportBall, TranslationChart,
                             build_chart_cover, chart_margin,
                             domain_from_pieces)
from holobc.pairing import (FaceDistribution, PairingSchedule,
                            calibrate_stokes_sign, check_form,
                            face_distribution_pairing, face_restrictions,
                            form_from_expressions, integrability_scale,
                            pairing_at_epsilon, pairing_sequence,
                            plateau_cutoff, stokes_oracle, weinstock_test)
from holobc.quadrature import QuadratureSpec
from holobc.scenario import (build_cover, build_domain, build_forms,
                             build_function, build_quadrature, load_scenario)


def test_plateau_cutoff_shape():
    chi = plateau_cutoff(np.array([1.0 + 1.0j]), 1.6, 2.2)
    z = np.array([[1.0 + 1.0j], [1.0 + 2.9j], [1.0 + 3.5j]])
    vals = chi(z)
    assert vals[0] == 1.0
    assert 0.0 < vals[1] < 1.0
    assert vals[2] == 0.0


def test_form_dbar_audit_small(square_domain, x_form):
    assert check_form(x_form, square_domain) < 1e-4


def test_face_density_cofactors_match_linalg_det():
    rng = np.random.default_rng(5)
    m = 400
    frame = rng.normal(size=(m, 2, 3)) + 1j * rng.normal(size=(m, 2, 3))
    z = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    g = [lambda z: z[:, 0] ** 2, lambda z: 1.0 / (z[:, 1] + 3.0)]
    form = pairing.TestForm(degree=(2, 1), coefficients=tuple(g),
                            dbar_coefficients=(lambda z: np.zeros(len(z)),))
    expected = sum(g[k](z) * np.linalg.det(np.stack(
        [frame[:, 0, :], frame[:, 1, :], np.conj(frame[:, k, :])], axis=1))
        for k in range(2))
    got = form.face_density(z, frame)
    assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


def test_schedule_epsilons_geometric():
    sched = PairingSchedule(eps0=0.1, ratio=0.5, steps=4)
    assert np.allclose(sched.epsilons(), [0.1, 0.05, 0.025, 0.0125])
    with pytest.raises(ScenarioError):
        PairingSchedule(eps0=-1.0, ratio=0.5, steps=4)
    with pytest.raises(ScenarioError):
        PairingSchedule(eps0=0.1, ratio=1.5, steps=4)


def test_outward_defect_zero_on_flat_faces(square_domain, square_cover):
    # grad(rho) . v is constant on a flat face: 1 along a strip's normal,
    # 1/sqrt(2) on both faces of a corner for its diagonal direction
    pts, owners = square_domain.boundary_samples(per_axis=512)
    for chart, w in zip(square_cover.charts, square_cover.raw_weights(pts)):
        expected = 0.5 ** 0.5 if chart.label.startswith("corner") else 1.0
        assert chart.margin == pytest.approx(expected, abs=1e-12)
        assert chart_margin(square_domain, chart.v, w, pts, owners) == \
            pytest.approx(expected, abs=1e-12)


def test_constant_function_pairs_to_4i(square_domain, square_cover, x_form,
                                       fast_spec):
    f = rational_function("1", 1)
    sample = pairing_at_epsilon(square_domain, f, x_form, square_cover, 0.05,
                                fast_spec)
    assert abs(sample.value - 4j) < 1e-8


def halfplane(a, b, c):
    return {"kind": "halfplane", "a": a, "b": b, "c": c}


def test_lens_pairs_to_i_times_its_area():
    # domains of the general one-variable path, with clipped lines and
    # circles, activity masks and Newton-located corners; for f = 1 the
    # pairing with x dz is i * area
    unit_disc = {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0}
    cases = {
        # two unit discs centred at 0 and 1: area 2 pi / 3 - sqrt(3) / 2
        "lens": ([unit_disc, {"kind": "disc", "center": [1.0, 0.0],
                              "radius": 1.0}], None,
                 2.0 * np.pi / 3.0 - np.sqrt(3.0) / 2.0),
        # {y >= 0} in the unit disc, bounding box inferred from the disc
        "half-disc": ([halfplane(0.0, -1.0, 0.0), unit_disc], None,
                      np.pi / 2.0),
        # the square (0, 2)^2 as four halfplanes
        "square": ([halfplane(-1.0, 0.0, 0.0), halfplane(1.0, 0.0, -2.0),
                    halfplane(0.0, -1.0, 0.0), halfplane(0.0, 1.0, -2.0)],
                   np.array([[0.0, 2.0], [0.0, 2.0]]), 4.0),
    }
    psi = form_from_expressions("x", 1)
    for name, (pieces, box, area) in cases.items():
        domain = domain_from_pieces(pieces, 1, bounding_box=box)
        assert domain.product_factors is None, name
        cover = build_chart_cover(domain)
        sample = pairing_at_epsilon(domain, rational_function("1", 1), psi,
                                    cover, 0.05, QuadratureSpec())
        assert abs(sample.value - 1j * area) <= sample.err_est, name


def test_stokes_oracle_refuses_an_unconverged_volume_integral():
    # the lens has no volume patches, so the membership-clipped volume route
    # spends its whole budget; its value must not pass as the oracle
    discs = [{"kind": "disc", "center": [c, 0.0], "radius": 1.0}
             for c in (0.0, 1.0)]
    domain = domain_from_pieces(discs, 1)
    with pytest.raises(BudgetExceededError, match="Stokes volume integral"):
        stokes_oracle(domain, rational_function("1", 1),
                      form_from_expressions("x", 1),
                      QuadratureSpec(max_subdivisions=50))


def test_stokes_oracle_constant_function(square_domain, x_form, fast_spec):
    f = rational_function("1", 1)
    oracle = stokes_oracle(square_domain, f, x_form, fast_spec)
    assert abs(oracle - 4j) < 1e-9


def test_stokes_sign_calibration(square_domain, fast_spec):
    assert calibrate_stokes_sign(square_domain, spec=fast_spec) == 1


def test_face_route_matches_translated_route(square_domain, square_cover,
                                             x_form, fast_spec):
    f = rational_function("z^2", 1)
    dists = face_restrictions(square_domain, f)
    face_value = face_distribution_pairing(square_domain, dists, x_form,
                                           fast_spec)
    gaps = [abs(face_value
                - pairing_at_epsilon(square_domain, f, x_form, square_cover,
                                     eps, fast_spec).value)
            for eps in (2e-3, 1e-3)]
    # the translation error is O(eps): small and shrinking
    assert gaps[0] < 2e-2
    assert gaps[1] < 0.75 * gaps[0]


def test_weinstock_face_route_checks_face_indices(square_domain):
    dz = form_from_expressions("1", 1, label="dz")

    def ones(z):
        return np.ones(len(z), dtype=np.complex128)

    faces = range(len(square_domain.pieces))
    report = weinstock_test(square_domain,
                            [FaceDistribution(j, ones) for j in faces], [dz])
    assert report.passed
    assert report.entries[0].route == "faces"
    for bad in (-1, len(square_domain.pieces)):
        with pytest.raises(ScenarioError):
            weinstock_test(square_domain, [FaceDistribution(bad, ones)], [dz])


def test_integrability_scale_splits_orders(square_domain, fast_spec):
    assert integrability_scale(square_domain,
                               rational_function("1", 1), fast_spec) >= 1.0
    assert integrability_scale(square_domain,
                               rational_function("1/z", 1), fast_spec) >= 1.0
    with pytest.raises(NotL1Error):
        integrability_scale(square_domain, rational_function("1/z^2", 1),
                            fast_spec)


def test_budget_error_carries_partial_prefix(square_domain, square_cover,
                                             x_form):
    f = rational_function("1/z", 1)
    tiny = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=40)
    sched = PairingSchedule(eps0=0.1, ratio=0.5, steps=5)
    with pytest.raises(BudgetExceededError) as info:
        pairing_sequence(square_domain, f, x_form, square_cover, sched, tiny)
    assert hasattr(info.value, "partial")
    assert len(info.value.partial) < 5


def test_translated_pole_landing_on_live_boundary_rejected(square_domain,
                                                           x_form, fast_spec):
    # a tangential chart direction slides the edge pole along the edge
    f = rational_function("1/(z-1)", 1)
    chart = TranslationChart(
        region=SupportBall(center=np.array([1.0 + 0.0j]), radius=3.5),
        v=np.array([1.0 + 0.0j]),
        label="tangential")
    cover = ChartCover(charts=(chart,),
                       factors=(lambda z: np.ones((1, z.shape[0])),),
                       chart_factors=((0,),))
    with pytest.raises(PoleOnBoundaryError):
        pairing_at_epsilon(square_domain, f, x_form, cover, 0.25, fast_spec)


def test_pole_under_dead_chart_is_harmless(square_domain, square_cover,
                                           fast_spec):
    # support the form far from the bottom edge pole; only far charts fire
    f = rational_function("1/(z-1)", 1)
    psi = form_from_expressions(
        "x", 1, cutoff=plateau_cutoff(np.array([1.0 + 2.0j]), 0.4, 0.8),
        label="top cap")
    sample = pairing_at_epsilon(square_domain, f, psi, square_cover, 0.05,
                                fast_spec)
    assert np.isfinite(sample.value.real) and np.isfinite(sample.value.imag)


def test_weinstock_monomials_orthogonal(square_domain, fast_spec):
    # 1/z is integrable and takes the Stokes route; 1/z^2 is not and takes
    # the translated-epsilon route
    family = [form_from_expressions("z^%d" % k if k else "1", 1,
                                    label=f"z^{k} dz")
              for k in range(3)]
    for expression, route in (("1/z", "stokes"), ("1/z^2", "epsilon")):
        f = rational_function(expression, 1)
        report = weinstock_test(square_domain, f, family, spec=fast_spec)
        assert report.passed, expression
        for entry in report.entries:
            assert entry.route == route
            assert entry.closed
            assert abs(entry.value) < 1e-6 * report.scale, expression


def test_weinstock_rejects_open_form(square_domain, fast_spec):
    f = rational_function("1", 1)
    bad = form_from_expressions("zbar", 1, label="zbar dz")
    with pytest.raises(FormNotClosedError):
        weinstock_test(square_domain, f, [bad], spec=fast_spec)


def test_weinstock_forced_route_reports_volume_oracle(square_domain,
                                                      fast_spec):
    f = rational_function("1", 1)
    bad = form_from_expressions("zbar", 1, label="zbar dz")
    report = weinstock_test(square_domain, f, [bad], spec=fast_spec,
                            force=True)
    entry = report.entries[0]
    assert not entry.closed
    assert entry.oracle_value is not None
    # dbar(zbar dz) has constant volume density; the pairing is the signed
    # area integral, which must match the Stokes-route oracle closely
    assert abs(entry.value - entry.oracle_value) <= 1e-4 * abs(entry.oracle_value)
    assert abs(entry.oracle_value) > 1.0


def test_bidisc_closed_forms_orthogonal(bidisc_domain):
    f = rational_function("z1*z2 + 2", 2)
    cutoff = plateau_cutoff(np.array([0.0 + 0.0j, 0.0 + 0.0j]), 1.7, 2.3)
    forms = [
        form_from_expressions(("zbar1", "0"), 2, cutoff=cutoff, label="w1"),
        form_from_expressions(("z2*zbar1", "zbar2"), 2, cutoff=cutoff,
                              label="w2"),
    ]
    report = weinstock_test(bidisc_domain, f, forms)
    assert report.passed
    assert report.cells_used <= 1_000_000
    for entry in report.entries:
        assert abs(entry.value) < 1e-4 * report.scale


@pytest.fixture(scope="module")
def bidisc_translated_case():
    sc = load_scenario("bidisc")
    domain = build_domain(sc)
    cut = sc.forms[0]["cutoff"]
    cutoff = plateau_cutoff([complex(*c) for c in cut["center"]],
                            cut["plateau"], cut["support"])
    psi = form_from_expressions(("0", "zbar1"), 2, cutoff)
    return sc, domain, build_cover(sc, domain), psi


@pytest.mark.parametrize("rel_tol", [1e-2, 5e-3])
def test_bidisc_translated_sample_meets_its_error_estimate(
        bidisc_translated_case, rel_tol):
    # f = 1: the translated pairing is int_bdry psi = 4 pi^2 for every eps
    sc, domain, cover, psi = bidisc_translated_case
    f = rational_function("1", 2)
    sample = pairing_at_epsilon(domain, f, psi, cover, 0.1,
                                build_quadrature(sc, rel_tol=rel_tol))
    assert abs(sample.value - 4.0 * np.pi ** 2) <= sample.err_est
    assert len(sample.per_chart) == len(cover.charts)
    assert abs(sum(c.value for c in sample.per_chart) - sample.value) < 1e-12
    assert max(c.cells_used for c in sample.per_chart) <= sample.cells_used


def _sequence_case(name):
    """(domain, f, psi, cover, schedule, spec) of a short epsilon schedule."""
    if name == "lens":
        # the general one-variable path: clipped circles with activity masks
        discs = [{"kind": "disc", "center": [c, 0.0], "radius": 1.0}
                 for c in (0.0, 1.0)]
        domain = domain_from_pieces(discs, 1)
        return (domain, rational_function("1/(z-1)", 1),
                form_from_expressions("x", 1), build_chart_cover(domain),
                PairingSchedule(eps0=0.05, ratio=0.5, steps=3),
                QuadratureSpec())
    sc = load_scenario(name)
    domain = build_domain(sc)
    cover = build_cover(sc, domain)
    if name == "bidisc":
        cut = sc.forms[0]["cutoff"]
        cutoff = plateau_cutoff([complex(*c) for c in cut["center"]],
                                cut["plateau"], cut["support"])
        return (domain, rational_function("1", 2),
                form_from_expressions(("0", "zbar1"), 2, cutoff), cover,
                PairingSchedule(eps0=0.1, ratio=0.5, steps=2),
                build_quadrature(sc, rel_tol=1e-1))
    return (domain, build_function(sc), build_forms(sc)[0], cover,
            PairingSchedule(eps0=0.1, ratio=0.5, steps=4), build_quadrature(sc))


def _sample_bits(sample):
    return (sample.epsilon, sample.value, sample.err_est, sample.cells_used,
            sample.per_chart)


@pytest.mark.parametrize("name", ["square_f=1/z", "square_f=1/(z-1)", "lens",
                                  "bidisc"])
def test_sequence_samples_equal_separate_calls(name):
    # the sequence reads each cell's weights back from its tables; a lone
    # call computes them all, so the two must agree bit for bit
    domain, f, psi, cover, schedule, spec = _sequence_case(name)
    sequence = pairing_sequence(domain, f, psi, cover, schedule, spec)
    alone = [pairing_at_epsilon(domain, f, psi, cover, eps, spec)
             for eps in schedule.epsilons()]
    # == on floats would let -0.0 pass for 0.0; repr tells them apart
    assert [repr(_sample_bits(s)) for s in sequence] == \
        [repr(_sample_bits(s)) for s in alone]


def test_no_weight_outlives_a_sequence(monkeypatch):
    domain, f, psi, cover, schedule, spec = _sequence_case("square_f=1/z")
    points = [0]
    partition_weight = ChartCover.partition_weight

    def counting(self, index, z):
        points[0] += len(z)
        return partition_weight(self, index, z)

    monkeypatch.setattr(ChartCover, "partition_weight", counting)

    def count(run):
        points[0] = 0
        run()
        return points[0]

    def sequence():
        pairing_sequence(domain, f, psi, cover, schedule, spec)

    def separate():
        for eps in schedule.epsilons():
            pairing_at_epsilon(domain, f, psi, cover, eps, spec)

    first, second = count(sequence), count(sequence)
    assert first == second
    assert first < count(separate)
