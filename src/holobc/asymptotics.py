"""Convergence classification of pairing sequences and segment closed forms.

Two jobs live here.  First, least-squares fits of F(eps) samples against
small bases {1, ln eps, 1/eps} decide whether the eps -> 0 limit exists and
how it fails when it does not.  Second, the closed-form values of the corner
segment integrals used as independent oracles: every antiderivative is
re-derived and audited by finite differences before its evaluation is
trusted, and transcription conflicts are reported rather than patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ScenarioError, TooFewSamplesError

MODEL_CONST = "CONST"
MODEL_LOG = "CONST+LOG"
MODEL_POW1 = "CONST+POW1"
MODEL_LOG_POW1 = "CONST+LOG+POW1"

CONVERGENT = "CONVERGENT"
LOG_DIVERGENT = "LOG_DIVERGENT"
POWER_DIVERGENT = "POWER_DIVERGENT"
UNDETERMINED = "UNDETERMINED"

EXISTS_NUMERICALLY = "EXISTS_NUMERICALLY"
FAILS_NUMERICALLY = "FAILS_NUMERICALLY"

# basis membership per model: (constant, ln eps, 1/eps)
_MODEL_BASES = {
    MODEL_CONST: (True, False, False),
    MODEL_LOG: (True, True, False),
    MODEL_POW1: (True, False, True),
    MODEL_LOG_POW1: (True, True, True),
}

# noise floor under which a fitted divergence coefficient is never believed,
# regardless of the relative threshold; keeps pure quadrature noise from
# being classified as divergence
_COEFF_FLOOR = 1e-12

MIN_FIT_SAMPLES = 6     # fewest samples fit_models classifies
_FIT_WINDOW = 8         # trailing samples each channel is fitted over

_MISFIT_CEILING = 0.05   # fraction of max|F| above which no model is trusted


@dataclass(frozen=True)
class ChannelFit:
    """Best penalized fit of one real data channel."""

    model: str
    a: float
    b: float
    c: float
    residual: float
    classification: str


@dataclass(frozen=True)
class AsymptoticFit:
    """Joint verdict over the real and imaginary channels of F(eps)."""

    model: str
    coefficients: dict
    residual: float
    classification: str
    limit: complex | None
    channels: dict = field(default_factory=dict)
    epsilons: tuple = ()


def _sample_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    eps = []
    vals = []
    for s in samples:
        if hasattr(s, "epsilon"):
            eps.append(float(s.epsilon))
            vals.append(complex(s.value))
        else:
            e, v = s
            eps.append(float(e))
            vals.append(complex(v))
    order = np.argsort(eps)[::-1]  # decreasing epsilon
    return np.array(eps)[order], np.array(vals)[order]


def _fit_channel(eps: np.ndarray, y: np.ndarray, joint_scale: float) -> ChannelFit:
    """Fit one channel; ``joint_scale`` is max|F| over the window.

    The divergence coefficients are judged against the channel's own scale,
    the misfit against the joint one: a channel that tends to 0 like O(eps)
    next to a nonzero other channel is converging, not undetermined.
    """
    scale = float(np.max(np.abs(y)))
    eps_min = float(np.min(eps))
    columns = {
        "const": np.ones_like(eps),
        "log": np.log(eps),
        "pow": 1.0 / eps,
    }
    best = None
    for model, (_, use_log, use_pow) in _MODEL_BASES.items():
        cols = [columns["const"]]
        if use_log:
            cols.append(columns["log"])
        if use_pow:
            cols.append(columns["pow"])
        design = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rms = float(np.sqrt(np.mean(resid ** 2)))
        score = rms * 10.0 ** (len(cols) - 1)
        a = float(coef[0])
        b = float(coef[1]) if use_log else 0.0
        c = float(coef[-1]) if use_pow else 0.0
        if best is None or score < best[0] - 1e-300:
            best = (score, model, a, b, c, rms)
    _, model, a, b, c, rms = best

    _, use_log, use_pow = _MODEL_BASES[model]
    pow_sig = use_pow and abs(c) > max(1e-3 * scale * eps_min, _COEFF_FLOOR)
    log_sig = use_log and abs(b) > max(1e-3 * scale, _COEFF_FLOOR)
    if pow_sig:
        verdict = POWER_DIVERGENT
    elif log_sig:
        verdict = LOG_DIVERGENT
    elif rms > _MISFIT_CEILING * max(joint_scale, _COEFF_FLOOR):
        verdict = UNDETERMINED
    else:
        verdict = CONVERGENT
    return ChannelFit(model, a, b, c, rms, verdict)


def _combine_models(re_fit: ChannelFit, im_fit: ChannelFit) -> str:
    logs = (_MODEL_BASES[re_fit.model][1] or _MODEL_BASES[im_fit.model][1])
    pows = (_MODEL_BASES[re_fit.model][2] or _MODEL_BASES[im_fit.model][2])
    for model, (_, use_log, use_pow) in _MODEL_BASES.items():
        if use_log == logs and use_pow == pows:
            return model
    return MODEL_LOG_POW1


def fit_models(samples) -> AsymptoticFit:
    """Fit the tail of a pairing sequence and classify its limit behavior.

    The real and imaginary channels are fitted separately over the last
    ``_FIT_WINDOW`` samples; the joint classification is the most severe of
    the two (POWER > LOG > UNDETERMINED > CONVERGENT).  When the verdict is
    CONVERGENT the limit is the Richardson extrapolation of the last four
    samples, which removes the leading O(eps) tail exactly on geometric
    schedules.
    """
    eps, vals = _sample_arrays(samples)
    if len(eps) < MIN_FIT_SAMPLES:
        raise TooFewSamplesError(
            f"need at least {MIN_FIT_SAMPLES} samples to classify, got {len(eps)}")
    eps_w = eps[-_FIT_WINDOW:]
    vals_w = vals[-_FIT_WINDOW:]

    joint_scale = float(np.max(np.abs(vals_w)))
    re_fit = _fit_channel(eps_w, vals_w.real, joint_scale)
    im_fit = _fit_channel(eps_w, vals_w.imag, joint_scale)

    severity = {POWER_DIVERGENT: 3, LOG_DIVERGENT: 2, UNDETERMINED: 1,
                CONVERGENT: 0}
    verdict = max((re_fit.classification, im_fit.classification),
                  key=lambda v: severity[v])
    residual = math.hypot(re_fit.residual, im_fit.residual)

    limit = None
    if verdict == CONVERGENT:
        ratios = eps[1:] / eps[:-1]
        use = min(4, len(eps))
        ratio = float(np.median(ratios)) if len(ratios) else 0.5
        limit = richardson_limit(list(vals[-use:]), ratio)

    return AsymptoticFit(
        model=_combine_models(re_fit, im_fit),
        coefficients={"re": (re_fit.a, re_fit.b, re_fit.c),
                      "im": (im_fit.a, im_fit.b, im_fit.c)},
        residual=residual,
        classification=verdict,
        limit=limit,
        channels={"re": re_fit, "im": im_fit},
        epsilons=tuple(float(e) for e in eps_w),
    )


def classify_bc_existence(fits: Sequence[AsymptoticFit]) -> str:
    """Existence verdict over the fits of a spanning family of test forms."""
    fits = list(fits)
    if not fits:
        raise ScenarioError("no fits supplied")
    kinds = {f.classification for f in fits}
    if kinds & {LOG_DIVERGENT, POWER_DIVERGENT}:
        return FAILS_NUMERICALLY
    if kinds == {CONVERGENT}:
        return EXISTS_NUMERICALLY
    return UNDETERMINED


def richardson_limit(values: Sequence[complex], ratio: float) -> complex:
    """Accelerate a geometric-schedule sequence toward its eps -> 0 limit.

    Assumes errors of the form sum c_k eps^k; each Richardson column removes
    one power.  ``values`` are ordered from the largest epsilon down.
    """
    if not (0.0 < ratio < 1.0):
        raise ScenarioError(f"ratio must be in (0, 1), got {ratio}")
    table = [complex(v) for v in values]
    if not table:
        raise ScenarioError("no values to extrapolate")
    m = len(table)
    for j in range(1, m):
        rj = ratio ** j
        table = [(table[i] - rj * table[i - 1]) / (1.0 - rj)
                 for i in range(1, len(table))]
    return table[0]


def fit_as_dict(fit: AsymptoticFit) -> dict:
    out = {
        "model": fit.model,
        "coefficients": {ch: {"a": abc[0], "b": abc[1], "c": abc[2]}
                         for ch, abc in sorted(fit.coefficients.items())},
        "residual": fit.residual,
        "classification": fit.classification,
        "limit": None,
    }
    if fit.limit is not None:
        out["limit"] = {"re": fit.limit.real, "im": fit.limit.imag}
    return out


# ---------------------------------------------------------------------------
# Closed forms for the corner segment integrals
#
# All four antiderivatives below were obtained by hand from partial fractions
# in the factorization D = (x+eps)^2 + eps^2 and are audited against their
# integrands by verify_antiderivatives; closed_form_I / closed_form_II only
# ever evaluate the audited "derived" forms.


def _denom(x, eps):
    return x * x + 2.0 * eps * x + 2.0 * eps * eps


def integrand_I(x, eps):
    """x^3 / ((x+eps)^2 + eps^2)^2, the real-part numerator without the
    2*eps correction term."""
    return x ** 3 / _denom(x, eps) ** 2


def integrand_II(x, eps):
    """x^2 / ((x+eps)^2 + eps^2)^2; the segment's second real integral is
    2*eps times its definite value."""
    return x * x / _denom(x, eps) ** 2


def antiderivative_I_derived(x, eps):
    d = _denom(x, eps)
    return (0.5 * np.log(d) - 2.0 * np.arctan((x + eps) / eps)
            + eps * x / d)


def antiderivative_I_transcribed(x, eps):
    # the source display for the x^3 integral, kept verbatim for the audit
    d = _denom(x, eps)
    return (0.5 * np.log(d) - 2.0 * np.arctan((x + eps) / eps)
            + eps * x / d)


def antiderivative_II_derived(x, eps):
    d = _denom(x, eps)
    return np.arctan((x + eps) / eps) / eps + eps / d


def antiderivative_II_transcribed(x, eps):
    # the source display for the x^2 integral, kept verbatim for the audit;
    # its second term carries eps^2 where differentiation requires eps
    d = _denom(x, eps)
    return np.arctan((x + eps) / eps) / eps + eps * eps / d


def closed_form_I(eps: float) -> float:
    """I(eps) = int_0^1 x^3 dx / ((x+eps)^2 + eps^2)^2, from the audited
    antiderivative.  Diverges like -ln(eps): I + ln(eps) -> -(ln 2)/2 - pi/2.
    """
    if eps <= 0:
        raise ScenarioError(f"eps must be positive, got {eps}")
    return float(antiderivative_I_derived(1.0, eps)
                 - antiderivative_I_derived(0.0, eps))


def closed_form_II(eps: float) -> float:
    """II(eps) = 2 eps int_0^1 x^2 dx / ((x+eps)^2 + eps^2)^2.

    Converges to pi/2 - 1 as eps -> 0.  (The source text states the limit
    pi/2, which follows from its misprinted antiderivative; the quadrature
    arbitration lives in verify_antiderivatives.)
    """
    if eps <= 0:
        raise ScenarioError(f"eps must be positive, got {eps}")
    return float(2.0 * eps * (antiderivative_II_derived(1.0, eps)
                              - antiderivative_II_derived(0.0, eps)))


def closed_form_segment(eps: float) -> complex:
    """int_0^1 x dx / (x + c)^2 with c = eps (1 + i).

    Equals ln((1+c)/c) + c/(1+c) - 1 from the antiderivative
    ln(x+c) + c/(x+c); its real part reproduces I + II exactly.
    """
    if eps <= 0:
        raise ScenarioError(f"eps must be positive, got {eps}")
    c = eps * (1.0 + 1.0j)
    return complex(np.log((1.0 + c) / c) + c / (1.0 + c) - 1.0)


I_PLUS_LOG_LIMIT = -(0.5 * math.log(2.0) + 0.5 * math.pi)
II_LIMIT_DERIVED = 0.5 * math.pi - 1.0
II_LIMIT_CLAIMED = 0.5 * math.pi
SEGMENT_IM_LIMIT = -0.25 * math.pi


# ---------------------------------------------------------------------------
# Antiderivative audit


@dataclass(frozen=True)
class AntiderivativeCheck:
    label: str
    integral: str        # "I" or "II"
    source: str          # "transcribed" or "derived"
    max_rel_error: float
    passed: bool


@dataclass(frozen=True)
class AntiderivativeReport:
    checks: tuple[AntiderivativeCheck, ...]
    oracle_conflicts: tuple[dict, ...]
    limit_arbitration: dict


_CANDIDATES = (
    ("I antiderivative, transcribed display", "I", "transcribed",
     antiderivative_I_transcribed, integrand_I),
    ("I antiderivative, re-derived", "I", "derived",
     antiderivative_I_derived, integrand_I),
    ("II antiderivative, transcribed display", "II", "transcribed",
     antiderivative_II_transcribed, integrand_II),
    ("II antiderivative, re-derived", "II", "derived",
     antiderivative_II_derived, integrand_II),
)


def _fd_max_rel_error(F, g, eps_values, n_x: int) -> float:
    worst = 0.0
    for eps in eps_values:
        lo = max(1e-3, eps)  # constraint: stay clear of the x=0 underflow zone
        x = np.geomspace(lo, 1.0, n_x)
        h = 1e-5 * np.maximum(x, 10.0 * eps)
        fd = (F(x + h, eps) - F(x - h, eps)) / (2.0 * h)
        target = g(x, eps)
        rel = np.abs(fd - target) / np.maximum(np.abs(target), 1e-300)
        worst = max(worst, float(np.max(rel)))
    return worst


def verify_antiderivatives(eps_values: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
                           n_x: int = 40,
                           fail_above: float = 1e-5) -> AntiderivativeReport:
    """Finite-difference audit of every closed-form candidate.

    Each candidate antiderivative is differentiated numerically on a grid
    x in [max(1e-3, eps), 1] and compared with its target integrand; the
    verdict per candidate is the max relative mismatch.  Candidates sharing
    an integral but disagreeing in verdict are surfaced as oracle conflicts,
    together with a direct-quadrature arbitration of the II limit.
    """
    checks = []
    for label, integral, source, F, g in _CANDIDATES:
        err = _fd_max_rel_error(F, g, eps_values, n_x)
        checks.append(AntiderivativeCheck(label, integral, source, err,
                                          err <= fail_above))

    conflicts = []
    for integral in ("I", "II"):
        mine = [c for c in checks if c.integral == integral]
        transcribed = [c for c in mine if c.source == "transcribed"]
        derived = [c for c in mine if c.source == "derived"]
        if any(not c.passed for c in transcribed) and all(c.passed for c in derived):
            conflicts.append({
                "topic": f"{integral} antiderivative",
                "transcribed": "FAIL",
                "derived": "PASS",
                "note": "the printed display does not differentiate to the "
                        "integrand; the re-derived form does",
            })

    # quadrature arbitration of the II limit claim
    from .quadrature import QuadratureSpec, SpecialPoint, adaptive_integrate
    arb_eps = 1e-4
    qspec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=40_000)

    def iint(params):
        x = params[:, 0].real
        return 2.0 * arb_eps * integrand_II(x, arb_eps) + 0.0j

    quad = adaptive_integrate(iint, ((0.0, 1.0),), qspec,
                              [SpecialPoint(np.array([0.0 + 0.0j]), 10 * arb_eps)])
    arbitration = {
        "epsilon": arb_eps,
        "claimed_limit": II_LIMIT_CLAIMED,
        "derived_limit": II_LIMIT_DERIVED,
        "derived_value": closed_form_II(arb_eps),
        "quadrature_value": quad.value.real,
        "quadrature_err": quad.err_est,
        "arbitrated_limit": II_LIMIT_DERIVED
        if abs(quad.value.real - II_LIMIT_DERIVED) < abs(quad.value.real - II_LIMIT_CLAIMED)
        else II_LIMIT_CLAIMED,
    }
    if abs(arbitration["arbitrated_limit"] - II_LIMIT_CLAIMED) > 1e-6:
        conflicts.append({
            "topic": "II limit",
            "transcribed": II_LIMIT_CLAIMED,
            "derived": II_LIMIT_DERIVED,
            "arbiter": arbitration["quadrature_value"],
            "note": "direct quadrature sides with the re-derived "
                    "antiderivative",
        })

    # the evaluated display for I also disagrees with its own antiderivative
    eval_eps = 1e-2
    transcribed_I_eval = (0.5 * math.log(0.5 / eval_eps ** 2 + 1.0 / eval_eps + 1.0)
                          - 2.0 * math.atan(1.0 / eval_eps + 1.0) + 0.25 * math.pi
                          + eval_eps / (1.0 + 2.0 * eval_eps + eval_eps ** 2))
    if abs(transcribed_I_eval - closed_form_I(eval_eps)) > 1e-6:
        conflicts.append({
            "topic": "I evaluated display",
            "transcribed": transcribed_I_eval,
            "derived": closed_form_I(eval_eps),
            "note": "evaluating the audited I antiderivative at the limits "
                    "gives +pi/2 and denominator 1+2e+2e^2, not the printed "
                    "+pi/4 and 1+2e+e^2 (checked at eps = 1e-2)",
        })

    return AntiderivativeReport(tuple(checks), tuple(conflicts), arbitration)
