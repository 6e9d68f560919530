"""Shared error types.

The CLI maps each class to a documented exit code (``cli._ERROR_EXITS``).
"""
from __future__ import annotations


class HolobcError(Exception):
    """Base class for all library errors."""


class ScenarioError(HolobcError):
    """Scenario file could not be parsed or validated."""


class GeometryError(HolobcError):
    """Domain failed a structural validation (empty, degenerate gradient, ...)."""


class NoOutwardVectorError(HolobcError):
    """No admissible translation direction exists for a chart region."""


class PoleInsideError(HolobcError):
    """A pole of the function lies in the interior of the domain."""


class PoleOnBoundaryError(HolobcError):
    """A translated pole landed on the integration locus."""


class NotL1Error(HolobcError):
    """The function is not absolutely integrable on the domain."""


class FormNotClosedError(HolobcError):
    """A test form required to be dbar-closed near the closed domain is not."""


class TooFewSamplesError(HolobcError):
    """Not enough sequence samples to run an asymptotic fit."""


class BudgetExceededError(HolobcError):
    """A computation exhausted its cell budget before converging."""


class NonFiniteIntegrandError(HolobcError):
    """An integrand returned a NaN or an infinity inside an integration box."""
