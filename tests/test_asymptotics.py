"""Model fitting, divergence verdicts, and the closed-form audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobc.asymptotics import (CONVERGENT, EXISTS_NUMERICALLY,
                                FAILS_NUMERICALLY, I_PLUS_LOG_LIMIT,
                                II_LIMIT_CLAIMED, II_LIMIT_DERIVED,
                                LOG_DIVERGENT, POWER_DIVERGENT, UNDETERMINED,
                                classify_bc_existence, closed_form_I,
                                closed_form_II, closed_form_segment,
                                fit_models, integrand_I, integrand_II,
                                richardson_limit, verify_antiderivatives)
from holobc.quadrature import QuadratureSpec, SpecialPoint, adaptive_integrate

EPS = [0.1 * 0.5 ** k for k in range(12)]


def synth(fn):
    return [(e, fn(e)) for e in EPS]


def test_fit_recovers_constant():
    fit = fit_models(synth(lambda e: 3.0 - 1.0j * 0))
    assert fit.classification == CONVERGENT
    assert abs(fit.limit - 3.0) < 1e-12


def test_fit_recovers_log_divergence():
    fit = fit_models(synth(lambda e: 2.0 - 1.0 * np.log(e)))
    assert fit.channels["re"].classification == LOG_DIVERGENT
    assert abs(fit.channels["re"].b + 1.0) < 1e-9
    assert fit.limit is None


def test_fit_recovers_power_correction():
    fit = fit_models(synth(lambda e: 5.0 + 2.0 * e))
    assert fit.classification == CONVERGENT
    assert abs(fit.limit - 5.0) < 1e-9


def test_fit_separates_channels():
    fit = fit_models(synth(lambda e: (4.0 + 0.5 * np.log(e)) + 1j * 7.0))
    assert fit.channels["re"].classification == LOG_DIVERGENT
    assert fit.channels["im"].classification == CONVERGENT


def test_verdict_invariant_under_amplitude():
    base = synth(lambda e: 1.0 - np.log(e))
    big = [(e, 10.0 * v) for e, v in base]
    assert fit_models(base).classification == fit_models(big).classification


def test_noise_is_undetermined():
    rng = np.random.default_rng(3)
    data = [(e, float(rng.uniform(-1, 1))) for e in EPS]
    fit = fit_models(data)
    assert fit.classification == UNDETERMINED


@pytest.mark.parametrize("a", [1e-6, 3.27])
def test_channel_vanishing_like_eps_is_judged_against_max_abs_f(a):
    # Im F -> 0 like a*eps: the constant fit of Im misses by far more than
    # 5% of max|Im F|, yet by far less than 5% of max|F|
    c = 3.46402834844
    fit = fit_models(synth(lambda e: c + 1j * a * e))
    assert fit.channels["im"].model == "CONST"
    assert fit.channels["im"].classification == CONVERGENT
    assert fit.classification == CONVERGENT
    assert classify_bc_existence([fit]) == EXISTS_NUMERICALLY
    assert abs(fit.limit - c) < 1e-12 * c


def test_existence_summary():
    good = fit_models(synth(lambda e: 2.0 + e))
    bad = fit_models(synth(lambda e: np.log(e)))
    assert classify_bc_existence([good]) == EXISTS_NUMERICALLY
    assert classify_bc_existence([good, bad]) == FAILS_NUMERICALLY


def test_richardson_kills_geometric_error():
    limit = 4.0
    values = [limit + 3.0 * 0.5 ** k for k in range(4)]
    assert abs(richardson_limit(values, 0.5) - limit) < 1e-10


def test_fit_accepts_plain_tuples_and_sample_objects():
    class S:
        def __init__(self, e, v):
            self.epsilon = e
            self.value = v

    tup = fit_models([(e, 1.0 + 2.0 * e) for e in EPS])
    obj = fit_models([S(e, 1.0 + 2.0 * e) for e in EPS])
    assert abs(tup.limit - obj.limit) < 1e-14


def test_first_closed_form_values():
    # frozen from the verified antiderivative evaluation
    assert abs(closed_form_I(0.1) - 0.7479275928080034) < 1e-12
    drift = closed_form_I(1e-4) + np.log(1e-4) - I_PLUS_LOG_LIMIT
    assert abs(drift) < 1e-3


def test_second_closed_form_limit_constants():
    assert abs(II_LIMIT_DERIVED - (np.pi / 2 - 1.0)) < 1e-15
    assert abs(II_LIMIT_CLAIMED - np.pi / 2) < 1e-15
    assert abs(closed_form_II(1e-5) - II_LIMIT_DERIVED) < 1e-3


def test_segment_real_part_is_the_sum_of_integrals():
    for eps in (0.1, 0.01, 1e-3, 1e-4):
        seg = closed_form_segment(eps)
        assert abs(seg.real - (closed_form_I(eps) + closed_form_II(eps))) < 1e-10


def test_segment_frozen_value():
    seg = closed_form_segment(0.1)
    assert abs(seg - (1.1537975878243607 - 0.6127710630819491j)) < 1e-12


def test_integrands_positive_on_unit_interval():
    x = np.linspace(1e-3, 1.0, 50)
    assert np.all(integrand_I(x, 0.01) > 0)
    assert np.all(integrand_II(x, 0.01) > 0)


def test_quadrature_agrees_with_closed_forms():
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=40_000)
    for eps in (1e-1, 1e-3):
        for integrand, closed in ((integrand_I, closed_form_I),
                                  (lambda x, e: 2 * e * integrand_II(x, e),
                                   closed_form_II)):
            def fn(p, integrand=integrand, eps=eps):
                return integrand(p[:, 0].real, eps) + 0.0j

            got = adaptive_integrate(
                fn, ((0.0, 1.0),), spec,
                [SpecialPoint(np.array([0.0 + 0.0j]), 10 * eps)])
            assert abs(got.value.real - closed(eps)) < 1e-8 * abs(closed(eps))


def test_antiderivative_audit_flags_the_bad_transcription():
    report = verify_antiderivatives()
    by_key = {(c.integral, c.source): c for c in report.checks}
    assert by_key[("I", "derived")].passed
    assert by_key[("I", "transcribed")].passed  # display is correct for I
    assert by_key[("II", "derived")].passed
    assert not by_key[("II", "transcribed")].passed
    assert report.oracle_conflicts
    assert abs(report.limit_arbitration["arbitrated_limit"]
               - II_LIMIT_DERIVED) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_log_coefficient_always_recovered(b_mag, a):
    data = [(e, a + b_mag * np.log(1.0 / e)) for e in EPS]
    fit = fit_models(data)
    assert fit.channels["re"].classification == LOG_DIVERGENT
    assert abs(fit.channels["re"].b + b_mag) < 1e-6 * max(1.0, b_mag)
