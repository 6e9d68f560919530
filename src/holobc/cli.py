"""Scenario-driven command line: classify corners, run pairings, emit reports.

Commands read a scenario (shipped name or JSON path), run the library, and
print one JSON report with stable key order to stdout.  CSV files and report
copies land in --out.  Exit codes: 0 success, 2 scenario config error
(including a pole inside the domain), 3 geometry validation error, 4 no
admissible translation direction, 5 quadrature budget exhausted (partial
CSV still written), 6 orthogonality test failed or a test form was not
closed, 7 growth estimation failed, 8 an integrand returned a NaN or an
infinity.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (I_PLUS_LOG_LIMIT, II_LIMIT_CLAIMED, II_LIMIT_DERIVED,
                          MIN_FIT_SAMPLES, classify_bc_existence, closed_form_I,
                          closed_form_II, closed_form_segment, fit_as_dict,
                          fit_models, richardson_limit, verify_antiderivatives)
from .errors import (BudgetExceededError, FormNotClosedError, GeometryError,
                     HolobcError, NonFiniteIntegrandError, NoOutwardVectorError,
                     NotL1Error, PoleInsideError, PoleOnBoundaryError,
                     ScenarioError, TooFewSamplesError)
from .functions import boundary_poles, estimate_growth
from .geometry import locate_strata, validate_domain
from .pairing import pairing_sequence, stokes_oracle, weinstock_test
from .scenario import (Scenario, build_cover, build_domain, build_forms,
                       build_function, build_quadrature, build_schedule,
                       load_scenario, scenario_to_dict)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_NO_OUTWARD = 4
EXIT_BUDGET = 5
EXIT_WEINSTOCK = 6
EXIT_GROWTH = 7
EXIT_NON_FINITE = 8


class CommandFailure(HolobcError):
    """Carries a documented exit code out of a subcommand."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _stamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _c2(value: complex | None) -> list[float] | None:
    if value is None:
        return None
    value = complex(value)
    return [value.real, value.imag]


def _emit_report(report: dict, out_dir: Path | None, filename: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, encoding="utf-8")


def pairing_csv_text(samples, scenario_name: str, form_label: str) -> str:
    """CSV with one commented header line; body is timestamp-free.

    Lines starting with '#' are excluded from determinism comparisons.
    """
    lines = [f"# holobc {__version__} scenario={scenario_name} "
             f"form={form_label} generated={_stamp()}",
             "epsilon,re,im,err_est"]
    for s in samples:
        lines.append(f"{s.epsilon:.17g},{s.value.real:.17g},"
                     f"{s.value.imag:.17g},{s.err_est:.17g}")
    return "\n".join(lines) + "\n"


def read_pairing_csv(path: Path) -> list[tuple[float, complex, float]]:
    """Rows of a pairing CSV; a file that cannot be read or parsed raises
    ScenarioError."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read CSV {str(path)!r}: {err}") from err
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("epsilon"):
            continue
        try:
            eps, re, im, err = (float(tok) for tok in line.split(","))
        except ValueError as exc:
            raise ScenarioError(
                f"CSV {str(path)!r} has a malformed row {line!r}") from exc
        rows.append((eps, complex(re, im), err))
    return rows


def _load(args) -> Scenario:
    if not getattr(args, "scenario", None):
        raise ScenarioError("this command needs --scenario NAME_OR_PATH")
    return load_scenario(args.scenario)


def _prepared_domain(scenario: Scenario):
    domain = build_domain(scenario)
    validate_domain(domain)
    return domain


def _require_function(scenario: Scenario):
    f = build_function(scenario)
    if f is None:
        raise ScenarioError(f"scenario {scenario.name!r} declares no function")
    return f


def _require_forms(scenario: Scenario):
    forms = build_forms(scenario)
    if not forms:
        raise ScenarioError(f"scenario {scenario.name!r} declares no test forms")
    return forms


# -- classify -----------------------------------------------------------------

def _stratum_rows(domain, resolution) -> list[dict]:
    rows = []
    for done in locate_strata(domain, grid_resolution=resolution):
        usable = done.samples[done.in_closure] if len(done.samples) else done.samples
        rep = _c2(None)
        if len(usable):
            rep = [[w.real, w.imag] for w in np.atleast_1d(usable[0])]
        rows.append({
            "subset": list(done.subset),
            "verdict": done.verdict.value,
            "samples": int(len(done.samples)),
            "in_closure": int(np.count_nonzero(done.in_closure)),
            "representative": rep,
        })
    return rows


def cmd_classify(args) -> int:
    if args.resolution is not None and args.resolution < 1:
        raise ScenarioError(
            f"--resolution must be at least 1, got {args.resolution}")
    scenario = _load(args)
    domain = _prepared_domain(scenario)
    rows = _stratum_rows(domain, args.resolution)
    active = [r for r in rows if r["verdict"] != "EMPTY"]
    generic = all(r["verdict"] == "GENERIC" for r in active)
    report = {
        "command": "classify",
        "version": __version__,
        "config": scenario_to_dict(scenario),
        "strata": rows,
        "active_strata": len(active),
        "domain_verdict": "generic corners" if generic else "non-generic corners",
    }
    _emit_report(report, args.out, f"{scenario.output_stem}_classify.json")
    return EXIT_OK


# -- pair / asymptotics -------------------------------------------------------

def _run_sequences(scenario, args, write_csv: bool):
    schedule = build_schedule(scenario, eps0=args.eps0, ratio=args.ratio,
                              steps=args.steps)
    if schedule.steps < MIN_FIT_SAMPLES:
        raise ScenarioError(f"the fit needs at least {MIN_FIT_SAMPLES} "
                            f"schedule steps, got {schedule.steps}")
    spec = build_quadrature(scenario, rel_tol=args.tol)
    domain = _prepared_domain(scenario)
    f = _require_function(scenario)
    # a pole inside the domain raises here, before any pairing runs
    boundary_poles(domain, f)
    forms = _require_forms(scenario)
    cover = build_cover(scenario, domain)

    out_dir = args.out
    results = []
    for k, psi in enumerate(forms):
        csv_name = f"{scenario.output_stem}_pairing_{k}.csv"
        try:
            samples = pairing_sequence(domain, f, psi, cover, schedule, spec)
        except BudgetExceededError as err:
            partial = getattr(err, "partial", []) or []
            if write_csv and out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / csv_name).write_text(
                    pairing_csv_text(partial, scenario.name, psi.label),
                    encoding="utf-8")
            raise CommandFailure(
                EXIT_BUDGET,
                f"quadrature budget exhausted on form {psi.label!r} after "
                f"{len(partial)} samples; partial CSV written") from err
        if write_csv and out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / csv_name).write_text(
                pairing_csv_text(samples, scenario.name, psi.label),
                encoding="utf-8")

        fit = fit_models(samples)
        try:
            oracle = stokes_oracle(domain, f, psi, spec)
        except (NotL1Error, BudgetExceededError) as err:
            # f is not integrable, or its volume integral did not settle, so
            # the pairing has no Stokes oracle
            print(f"holobc: no Stokes oracle for form {psi.label!r}: {err}",
                  file=sys.stderr)
            oracle = None
        entry = {
            "label": psi.label,
            "csv": csv_name if (write_csv and out_dir is not None) else None,
            "samples": len(samples),
            "cells_used": int(sum(s.cells_used for s in samples)),
            "fit": fit_as_dict(fit),
            "existence": classify_bc_existence([fit]),
            "limit": _c2(fit.limit),
            "stokes_oracle": _c2(oracle),
            "limit_vs_oracle": (abs(fit.limit - oracle)
                                if fit.limit is not None and oracle is not None
                                else None),
        }
        if args.diagnostics:
            entry["per_chart"] = [
                [{"label": c.label, "value": _c2(c.value),
                  "err_est": c.err_est, "cells_used": c.cells_used}
                 for c in s.per_chart]
                for s in samples]
        results.append((entry, fit))
    return domain, results


def cmd_pair(args) -> int:
    scenario = _load(args)
    _, results = _run_sequences(scenario, args, write_csv=True)
    report = {
        "command": "pair",
        "version": __version__,
        "config": scenario_to_dict(scenario),
        "forms": [entry for entry, _ in results],
        "existence": classify_bc_existence([fit for _, fit in results]),
    }
    _emit_report(report, args.out, f"{scenario.output_stem}_pair.json")
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    if args.csv is not None:
        rows = read_pairing_csv(Path(args.csv))
        if len(rows) < MIN_FIT_SAMPLES:
            raise ScenarioError(f"CSV {args.csv!r} holds {len(rows)} samples; "
                                f"need at least {MIN_FIT_SAMPLES} to fit")
        fit = fit_models([(eps, val) for eps, val, _ in rows])
        report = {
            "command": "asymptotics",
            "version": __version__,
            "source": str(args.csv),
            "fit": fit_as_dict(fit),
            "existence": classify_bc_existence([fit]),
            "limit": _c2(fit.limit),
        }
        _emit_report(report, args.out, "asymptotics.json")
        return EXIT_OK
    scenario = _load(args)
    _, results = _run_sequences(scenario, args, write_csv=False)
    report = {
        "command": "asymptotics",
        "version": __version__,
        "config": scenario_to_dict(scenario),
        "forms": [entry for entry, _ in results],
        "existence": classify_bc_existence([fit for _, fit in results]),
    }
    _emit_report(report, args.out, f"{scenario.output_stem}_asymptotics.json")
    return EXIT_OK


# -- weinstock / growth -------------------------------------------------------

def cmd_weinstock(args) -> int:
    scenario = _load(args)
    domain = _prepared_domain(scenario)
    f = _require_function(scenario)
    forms = _require_forms(scenario)
    closedness_tol = args.tol if args.tol is not None else 1e-8
    try:
        result = weinstock_test(domain, f, forms, force=args.force,
                                closedness_tol=closedness_tol,
                                make_cover=lambda: build_cover(scenario, domain))
    except FormNotClosedError as err:
        raise CommandFailure(EXIT_WEINSTOCK, str(err)) from err
    report = {
        "command": "weinstock",
        "version": __version__,
        "config": scenario_to_dict(scenario),
        "passed": result.passed,
        "scale": result.scale,
        "tolerance": result.tolerance,
        "cells_used": result.cells_used,
        "entries": [{
            "label": e.label,
            "closed": e.closed,
            "closedness_residual": e.closedness_residual,
            "value": _c2(e.value),
            "route": e.route,
            "err_est": e.err_est,
            "cells_used": e.cells_used,
            "oracle_value": _c2(e.oracle_value),
        } for e in result.entries],
    }
    _emit_report(report, args.out, f"{scenario.output_stem}_weinstock.json")
    if not result.passed:
        raise CommandFailure(EXIT_WEINSTOCK,
                             "orthogonality test failed; see report entries")
    return EXIT_OK


def cmd_growth(args) -> int:
    scenario = _load(args)
    domain = _prepared_domain(scenario)
    f = _require_function(scenario)
    try:
        est = estimate_growth(f, domain, n_rays=scenario.growth["n_rays"])
    except HolobcError as err:
        raise CommandFailure(EXIT_GROWTH, f"growth estimation failed: {err}") from err
    target = None
    if est.target is not None:
        target = {"location": [[w.real, w.imag]
                               for w in np.atleast_1d(est.target.location)],
                  "order": est.target.order}
    report = {
        "command": "growth",
        "version": __version__,
        "config": scenario_to_dict(scenario),
        "k_hat": est.k_hat,
        "C_hat": est.C_hat,
        "r2": est.r2,
        "samples_used": est.samples_used,
        "target": target,
    }
    _emit_report(report, args.out, f"{scenario.output_stem}_growth.json")
    return EXIT_OK


# -- reproduce-paper ----------------------------------------------------------

def cmd_reproduce_paper(args) -> int:
    """End-to-end rerun: corner classification, antiderivative audit,
    closed-form tables, the divergent pairing, and the product-domain
    rank check, with every oracle cross-check enforced."""
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    checks: list[dict] = []
    lines: list[str] = [f"holobc {__version__} full verification run", ""]

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(ok), "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    # 1. corner classification of the square
    square = load_scenario("square")
    dom = _prepared_domain(square)
    rows = _stratum_rows(dom, None)
    active = [r for r in rows if r["verdict"] != "EMPTY"]
    ok = (len(active) == 4
          and all(r["verdict"] == "NON_GENERIC_CARDINALITY" for r in active))
    check("square corner classification", ok,
          f"{len(active)} active strata, verdicts "
          f"{sorted({r['verdict'] for r in active})}")

    # 2. antiderivative audit
    audit = verify_antiderivatives()
    derived_ok = all(c.passed for c in audit.checks if c.source == "derived")
    transcribed_II = next((c for c in audit.checks
                           if c.integral == "II" and c.source == "transcribed"),
                          None)
    flagged = transcribed_II is not None and not transcribed_II.passed
    check("re-derived antiderivatives differentiate to the integrands",
          derived_ok,
          f"max relative FD error {max(c.max_rel_error for c in audit.checks if c.source == 'derived'):.2e}")
    check("transcribed second antiderivative flagged as inconsistent", flagged,
          "FD mismatch detected" if flagged else "conflict not detected")
    arb = audit.limit_arbitration
    check("second-integral limit arbitration",
          abs(arb["arbitrated_limit"] - II_LIMIT_DERIVED) < 1e-12,
          f"quadrature {arb['quadrature_value']:.6f} sides with re-derived "
          f"{II_LIMIT_DERIVED:.6f} over transcribed {II_LIMIT_CLAIMED:.6f}")

    # 3. closed-form tables over eps = 1e-1 .. 1e-5
    eps_grid = [10.0 ** (-k) for k in range(1, 6)]
    table_lines = ["# holobc closed-form table generated=" + _stamp(),
                   "epsilon,I,II,I_plus_log,re_segment,segment_minus_I_plus_II"]
    seg_residual = 0.0
    for eps in eps_grid:
        I = closed_form_I(eps)
        II = closed_form_II(eps)
        seg = closed_form_segment(eps)
        seg_residual = max(seg_residual, abs(seg.real - (I + II)))
        table_lines.append(
            f"{eps:.17g},{I:.17g},{II:.17g},{I + np.log(eps):.17g},"
            f"{seg.real:.17g},{seg.real - (I + II):.3g}")
    (out_dir / "closed_form_table.csv").write_text(
        "\n".join(table_lines) + "\n", encoding="utf-8")
    drift = abs(closed_form_I(1e-4) + np.log(1e-4) - I_PLUS_LOG_LIMIT)
    check("I(eps) + ln eps near its limit at eps = 1e-4", drift < 1e-3,
          f"|I + ln eps - ({I_PLUS_LOG_LIMIT:.5f})| = {drift:.2e}")
    check("real part of the segment closed form equals I + II",
          seg_residual < 1e-10, f"max residual {seg_residual:.2e}")

    # 4. divergent pairing for the corner double pole
    scen = load_scenario("square_f=1/z^2")
    pair_args = argparse.Namespace(
        scenario=None, eps0=None, ratio=None, steps=None, tol=None,
        out=out_dir, diagnostics=False)
    _, results = _run_sequences(scen, pair_args, write_csv=True)
    entry, fit = results[0]
    re_channel = fit.channels["re"]
    check("real channel of the pairing is LOG_DIVERGENT",
          re_channel.classification == "LOG_DIVERGENT",
          f"classified {re_channel.classification}")
    slope = re_channel.b
    check("fitted log slope of the real channel within 5% of -1",
          abs(slope + 1.0) < 0.05, f"slope {slope:.4f}")
    check("combined verdict: no boundary current",
          entry["existence"] == "FAILS_NUMERICALLY", entry["existence"])

    # 5. Richardson limit of II against the audit's direct quadrature
    seq = [closed_form_II(0.1 * 0.5 ** k) for k in range(11)]
    limit = float(np.real(richardson_limit(seq[-4:], 0.5)))
    q = float(arb["quadrature_value"])
    check("II quadrature at eps = 1e-4 near its Richardson limit",
          abs(q - limit) < 1e-3,
          f"quadrature {q:.6f}, limit {limit:.6f}, transcribed "
          f"{II_LIMIT_CLAIMED:.6f}, arbitrated {II_LIMIT_DERIVED:.6f}")

    # 6. product-domain rank degeneracy at coarse resolution
    cross = load_scenario("square-cross-plane")
    cross_dom = _prepared_domain(cross)
    cross_rows = _stratum_rows(cross_dom, 6)
    corner_rows = [r for r in cross_rows
                   if r["verdict"] == "NON_GENERIC_COMPLEX_RANK"]
    check("product domain shows complex-rank degenerate corner strata",
          len(corner_rows) == 4,
          f"{len(corner_rows)} strata with NON_GENERIC_COMPLEX_RANK")

    passed = all(c["passed"] for c in checks)
    lines += ["", f"{sum(c['passed'] for c in checks)}/{len(checks)} checks passed"]
    (out_dir / "reproduce_report.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    report = {
        "command": "reproduce-paper",
        "version": __version__,
        "checks": checks,
        "passed": passed,
        "pairing": entry,
        "csv_files": ["closed_form_table.csv", entry["csv"]],
    }
    _emit_report(report, out_dir, "reproduce_report.json")
    return EXIT_OK if passed else 1


# -- argument plumbing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobc",
        description="Boundary-current pairings on piecewise-smooth domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", metavar="PATH",
                           help="scenario JSON path or shipped scenario name")
        p.add_argument("--out", type=Path, metavar="DIR", default=None,
                       help="directory for CSV files and report copies")
        p.add_argument("--diagnostics", action="store_true",
                       help="include per-chart contributions in reports")

    def schedule_flags(p):
        p.add_argument("--eps0", type=float, default=None, metavar="R",
                       help="override the first translation distance")
        p.add_argument("--ratio", type=float, default=None, metavar="R",
                       help="override the geometric step ratio")
        p.add_argument("--steps", type=int, default=None, metavar="N",
                       help="override the number of schedule steps")
        p.add_argument("--tol", type=float, default=None, metavar="R",
                       help="override the quadrature relative tolerance")

    p = sub.add_parser("classify", help="locate and classify corner strata")
    common(p)
    p.add_argument("--resolution", type=int, default=None, metavar="N",
                   help="seed grid resolution for stratum location")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pair", help="run the pairing sequence and fit models")
    common(p)
    schedule_flags(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("asymptotics",
                       help="fit decay models to a pairing CSV or scenario")
    common(p)
    schedule_flags(p)
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="fit an existing pairing CSV instead of re-running")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("weinstock",
                       help="test orthogonality against closed test forms")
    common(p)
    p.add_argument("--tol", type=float, default=None, metavar="R",
                   help="closedness residual tolerance")
    p.add_argument("--force", action="store_true",
                   help="pair non-closed forms anyway and report the oracle")
    p.set_defaults(func=cmd_weinstock)

    p = sub.add_parser("growth", help="estimate the polynomial growth exponent")
    common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("reproduce-paper",
                       help="rerun the full verification pipeline end-to-end")
    common(p, scenario=False)
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


# exit code and message prefix of each library error a command lets through;
# a fit or an oracle whose precondition the scenario does not meet is a
# configuration error
_ERROR_EXITS = (
    (ScenarioError, EXIT_CONFIG, "scenario error"),
    ((PoleOnBoundaryError, PoleInsideError, TooFewSamplesError, NotL1Error),
     EXIT_CONFIG, "configuration error"),
    (NoOutwardVectorError, EXIT_NO_OUTWARD, "no admissible translation direction"),
    (GeometryError, EXIT_GEOMETRY, "geometry validation failed"),
    (BudgetExceededError, EXIT_BUDGET, "quadrature budget exhausted"),
    (FormNotClosedError, EXIT_WEINSTOCK, "test form is not closed"),
    (NonFiniteIntegrandError, EXIT_NON_FINITE, "non-finite integrand"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandFailure as err:
        print(f"holobc: {err}", file=sys.stderr)
        return err.exit_code
    except HolobcError as err:
        for kinds, code, what in _ERROR_EXITS:
            if isinstance(err, kinds):
                print(f"holobc: {what}: {err}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
