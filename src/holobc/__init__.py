"""Boundary-current pairings of holomorphic functions on piecewise-smooth
domains in one and two complex variables.

The package verifies, numerically and against closed forms, when the
translated boundary pairing lim ∫_{∂Ω} f(z - εv)ψ stabilizes: corner
stratum classification, partition-of-unity chart covers, adaptive
boundary quadrature, asymptotic model fitting, and an orthogonality
test against ∂̄-closed test forms.
"""

from .asymptotics import (AsymptoticFit, ChannelFit, classify_bc_existence,
                          closed_form_I, closed_form_II, closed_form_segment,
                          fit_models, richardson_limit, verify_antiderivatives)
from .errors import (BudgetExceededError, FormNotClosedError, GeometryError,
                     HolobcError, NoOutwardVectorError, NonFiniteIntegrandError,
                     NotL1Error, PoleInsideError, PoleOnBoundaryError,
                     ScenarioError, TooFewSamplesError)
from .functions import (GrowthEstimate, HolomorphicFunction, check_holomorphic,
                        estimate_growth, pole_status, rational_function)
from .geometry import (ChartCover, CornerStratum, PiecewiseDomain, SmoothPiece,
                       StratumVerdict, TranslationChart, build_chart_cover,
                       classify_stratum, domain_from_pieces, locate_strata,
                       validate_domain)
from .pairing import (FaceDistribution, PairingSample, PairingSchedule,
                      RadialCutoff, TestForm, WeinstockReport, check_form,
                      face_distribution_pairing, face_restrictions,
                      form_from_expressions, integrability_scale,
                      pairing_at_epsilon, pairing_sequence, plateau_cutoff,
                      stokes_oracle, weinstock_test)
from .quadrature import IntegralResult, QuadratureSpec, SpecialPoint
from .scenario import Scenario, load_scenario, parse_scenario, scenario_to_json

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit", "BudgetExceededError", "ChannelFit", "ChartCover",
    "CornerStratum", "FaceDistribution", "FormNotClosedError", "GeometryError",
    "GrowthEstimate", "HolobcError", "HolomorphicFunction", "IntegralResult",
    "NoOutwardVectorError", "NonFiniteIntegrandError", "NotL1Error",
    "PairingSample", "PairingSchedule", "PiecewiseDomain",
    "PoleInsideError", "PoleOnBoundaryError", "QuadratureSpec", "RadialCutoff",
    "Scenario", "ScenarioError", "SmoothPiece", "SpecialPoint", "StratumVerdict",
    "TestForm", "TooFewSamplesError", "TranslationChart", "WeinstockReport",
    "__version__", "build_chart_cover", "check_form", "check_holomorphic",
    "classify_bc_existence", "classify_stratum", "closed_form_I",
    "closed_form_II", "closed_form_segment", "domain_from_pieces",
    "estimate_growth", "face_distribution_pairing", "face_restrictions",
    "fit_models", "form_from_expressions", "integrability_scale",
    "load_scenario", "locate_strata", "pairing_at_epsilon", "pairing_sequence",
    "parse_scenario", "plateau_cutoff", "pole_status", "rational_function",
    "richardson_limit", "scenario_to_json", "stokes_oracle", "validate_domain",
    "verify_antiderivatives", "weinstock_test",
]
