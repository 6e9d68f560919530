"""Shared error types.

Every error that maps to a CLI exit code carries a stable ``code`` string so
reports and tests can match on it without parsing messages.
"""
from __future__ import annotations


class HolobcError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class ScenarioError(HolobcError):
    """Scenario file could not be parsed or validated."""

    code = "SCENARIO_INVALID"


class GeometryError(HolobcError):
    """Domain failed a structural validation (empty, degenerate gradient, ...)."""

    code = "GEOMETRY_INVALID"


class NoOutwardVectorError(HolobcError):
    """No admissible translation direction exists for a chart region."""

    code = "NO_OUTWARD_VECTOR"


class PoleInsideError(HolobcError):
    """A pole of the function lies in the interior of the domain."""

    code = "POLE_INSIDE"


class PoleOnBoundaryError(HolobcError):
    """A translated pole landed on the integration locus."""

    code = "POLE_ON_BOUNDARY"


class NotL1Error(HolobcError):
    """The function is not absolutely integrable on the domain."""

    code = "NOT_L1"


class FormNotClosedError(HolobcError):
    """A test form required to be dbar-closed near the closed domain is not."""

    code = "FORM_NOT_CLOSED"


class TooFewSamplesError(HolobcError):
    """Not enough sequence samples to run an asymptotic fit."""

    code = "TOO_FEW_SAMPLES"


class BudgetExceededError(HolobcError):
    """A computation exhausted its cell budget before converging."""

    code = "BUDGET_EXCEEDED"


class NonFiniteIntegrandError(HolobcError):
    """An integrand returned a NaN or an infinity inside an integration box."""

    code = "NON_FINITE_INTEGRAND"
