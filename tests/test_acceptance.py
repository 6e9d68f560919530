"""Top-level acceptance gate.

Each test exercises one advertised guarantee end to end and prints a single
verdict line; run with ``python3 -m pytest tests/test_acceptance.py -v -s``
to see the lines as they pass.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from holobc.asymptotics import (CONVERGENT, I_PLUS_LOG_LIMIT, LOG_DIVERGENT,
                                closed_form_I, closed_form_II,
                                closed_form_segment, fit_models, integrand_I,
                                integrand_II, richardson_limit,
                                verify_antiderivatives)
from holobc.cli import main
from holobc.errors import FormNotClosedError
from holobc.functions import estimate_growth, rational_function
from holobc.geometry import (SmoothPiece, build_chart_cover, classify_stratum,
                             locate_strata)
from holobc.pairing import (PairingSchedule, face_distribution_pairing,
                            face_restrictions, form_from_expressions,
                            pairing_at_epsilon, pairing_sequence,
                            stokes_oracle, weinstock_test)
from holobc.quadrature import QuadratureSpec, SpecialPoint, adaptive_integrate
from holobc.scenario import (build_domain, build_forms, build_function,
                             load_scenario)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def rescaled(domain, factor):
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


def test_criterion_01_log_divergence_of_double_pole(square_domain,
                                                    square_cover, x_form,
                                                    fast_spec):
    t0 = time.perf_counter()
    f = rational_function("1/z^2", 1)
    seq = pairing_sequence(square_domain, f, x_form, square_cover,
                           PairingSchedule(0.1, 0.5, 14), fast_spec)
    fit = fit_models(seq)
    re = [s.value.real for s in seq]
    diffs = [re[k + 1] - re[k] for k in range(len(re) - 1)]
    off = max(abs(d / math.log(2.0) - 1.0) for d in diffs[-4:])
    elapsed = time.perf_counter() - t0
    ok = (fit.channels["re"].classification == LOG_DIVERGENT
          and off < 0.05 and elapsed < 30.0)
    verdict(1, ok, f"re channel {fit.channels['re'].classification}, "
                   f"step diffs within {off:.2%} of ln 2, {elapsed:.1f}s")


def test_criterion_02_quadrature_matches_audited_antiderivatives():
    t0 = time.perf_counter()
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13,
                          max_subdivisions=40_000)
    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        for integrand, closed in ((integrand_I, closed_form_I),
                                  (lambda x, e: 2 * e * integrand_II(x, e),
                                   closed_form_II)):
            def fn(p, integrand=integrand, eps=eps):
                return integrand(p[:, 0].real, eps) + 0.0j

            got = adaptive_integrate(
                fn, ((0.0, 1.0),), spec,
                [SpecialPoint(np.array([0.0 + 0.0j]), 10 * eps)])
            worst = max(worst, abs(got.value.real - closed(eps))
                        / abs(closed(eps)))
    audit = verify_antiderivatives()
    by_key = {(c.integral, c.source): c for c in audit.checks}
    flagged = (not by_key[("II", "transcribed")].passed
               and by_key[("II", "derived")].passed
               and by_key[("I", "derived")].passed)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and flagged and elapsed < 5.0
    verdict(2, ok, f"worst rel error {worst:.2e}, transcribed second "
                   f"antiderivative flagged, {elapsed:.1f}s")


def test_criterion_03_closed_form_limit_and_segment_identity():
    drift = abs(closed_form_I(1e-4) + math.log(1e-4) - I_PLUS_LOG_LIMIT)
    resid = max(abs(closed_form_segment(e).real
                    - (closed_form_I(e) + closed_form_II(e)))
                for e in (1e-1, 1e-2, 1e-3, 1e-4))
    ok = drift < 1e-3 and resid < 1e-10
    verdict(3, ok, f"limit drift {drift:.2e} at eps=1e-4, "
                   f"segment identity residual {resid:.2e}")


def test_criterion_04_simple_pole_converges_to_stokes_value(
        square_domain, square_cover, x_form, fast_spec):
    f = rational_function("1/z", 1)
    seq = pairing_sequence(square_domain, f, x_form, square_cover,
                           PairingSchedule(0.1, 0.5, 14), fast_spec)
    fit = fit_models(seq)
    rich = richardson_limit([s.value for s in seq[-4:]], 0.5)
    oracle = stokes_oracle(square_domain, f, x_form, fast_spec)
    gap = abs(rich - oracle)
    ok = fit.classification == CONVERGENT and gap <= 1e-4
    verdict(4, ok, f"{fit.classification}, extrapolated limit within "
                   f"{gap:.2e} of the volume value")


def test_criterion_05_continuous_functions_recover_face_pairing(
        square_domain, square_cover, x_form, fast_spec):
    details = []
    ok = True
    for name in ("1", "z", "z^2"):
        f = rational_function(name, 1)
        face = face_distribution_pairing(
            square_domain, face_restrictions(square_domain, f), x_form,
            fast_spec)
        eps_list = [2e-2 * 0.5 ** k for k in range(6)]
        samples = [pairing_at_epsilon(square_domain, f, x_form, square_cover,
                                      e, fast_spec) for e in eps_list]
        errs = [abs(s.value - face) for s in samples]
        if max(errs) < 1e-10:
            details.append(f"{name}: exact to {max(errs):.1e}")
        else:
            order = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
            ok = ok and order >= 0.9
            details.append(f"{name}: order {order:.2f}")
        if name == "1":
            ok = ok and all(abs(s.value - 4.0j) < 1e-8 for s in samples)
    verdict(5, ok, "; ".join(details) + "; constant pairs to 4i")


def test_criterion_06_corner_classification_is_scale_stable(square_domain,
                                                            bidisc_domain):
    t0 = time.perf_counter()
    cross = build_domain(load_scenario("square-cross-plane"))
    cases = [(square_domain, None), (bidisc_domain, 6), (cross, 6)]
    verdicts = [active_verdicts(dom, res) for dom, res in cases]
    stable = all(active_verdicts(rescaled(dom, 3.0), res) == seen
                 for (dom, res), seen in zip(cases, verdicts))
    square_ok = (len(verdicts[0]) == 4 and
                 set(verdicts[0].values()) == {"NON_GENERIC_CARDINALITY"})
    bidisc_ok = set(verdicts[1].values()) == {"GENERIC"}
    rank_count = sum(v == "NON_GENERIC_COMPLEX_RANK"
                     for v in verdicts[2].values())
    elapsed = time.perf_counter() - t0
    ok = square_ok and bidisc_ok and rank_count == 4 and stable and elapsed < 5.0
    verdict(6, ok, f"square 4x cardinality, product generic, plane factor "
                   f"{rank_count}x complex rank, stable under 3x, "
                   f"{elapsed:.1f}s")


def test_criterion_07_cover_independence(square_domain, square_cover, x_form,
                                         fast_spec):
    f = rational_function("1/z", 1)
    other = build_chart_cover(square_domain, radius=0.24,
                              corner_v_rotation=math.pi / 12)
    limits = []
    for cover in (square_cover, other):
        seq = pairing_sequence(square_domain, f, x_form, cover,
                               PairingSchedule(0.1, 0.5, 10), fast_spec)
        assert fit_models(seq).classification == CONVERGENT
        limits.append(richardson_limit([s.value for s in seq[-4:]], 0.5))
    gap = abs(limits[0] - limits[1])
    ok = gap <= 1e-4
    verdict(7, ok, f"two covers agree to {gap:.2e}")


def test_criterion_08_closed_forms_pair_to_zero(square_domain, fast_spec):
    t0 = time.perf_counter()
    wsc = load_scenario("square-weinstock")
    mono = weinstock_test(build_domain(wsc), build_function(wsc),
                          build_forms(wsc), spec=fast_spec)
    mono_ok = mono.passed and all(abs(e.value) < 1e-6 for e in mono.entries)

    bsc = load_scenario("bidisc")
    pair = weinstock_test(build_domain(bsc), build_function(bsc),
                          build_forms(bsc))
    pair_ok = (pair.passed and pair.cells_used <= 1_000_000
               and all(abs(e.value) < 1e-4 for e in pair.entries))

    control = form_from_expressions("zbar", 1, label="zbar dz")
    f = rational_function("1", 1)
    with pytest.raises(FormNotClosedError):
        weinstock_test(square_domain, f, [control], spec=fast_spec)
    forced = weinstock_test(square_domain, f, [control], spec=fast_spec,
                            force=True).entries[0]
    control_ok = (forced.oracle_value is not None
                  and abs(forced.oracle_value) > 1.0
                  and abs(forced.value - forced.oracle_value)
                  <= 1e-4 * abs(forced.oracle_value))
    elapsed = time.perf_counter() - t0
    ok = mono_ok and pair_ok and control_ok and elapsed < 180.0
    verdict(8, ok, f"6 monomial forms and 2 product forms annihilated "
                   f"({pair.cells_used} cells), open control rejected then "
                   f"matched to its volume value, {elapsed:.1f}s")


def test_criterion_09_growth_exponents(square_domain):
    expected = {"1/z^2": 2.0, "1/(z-1)": 1.0, "1": 0.0}
    details = []
    ok = True
    for name, k in expected.items():
        est = estimate_growth(rational_function(name, 1), square_domain)
        ok = ok and abs(est.k_hat - k) <= 0.2 and est.r2 >= 0.98
        details.append(f"{name}: k_hat {est.k_hat:.2f} r2 {est.r2:.3f}")
    verdict(9, ok, "; ".join(details))


def test_criterion_10_reproduction_is_deterministic(tmp_path, capsys):
    outs = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        rc = main(["reproduce-paper", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        outs.append(out)

    def bodies(path):
        names = sorted(p.name for p in path.glob("*.csv"))
        return {n: "\n".join(line for line
                             in (path / n).read_text().splitlines()
                             if not line.startswith("#"))
                for n in names}

    first = bodies(outs[0])
    same = all(bodies(o) == first for o in outs[1:])
    ok = same and len(first) >= 2
    verdict(10, ok, f"{len(first)} CSV bodies byte-identical across reruns")
