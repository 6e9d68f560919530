"""Declarative run descriptions: domain, function, test forms, schedule.

A scenario is a JSON document that pins every knob of a run so results
can be reproduced byte for byte.  Parsing materializes all defaults,
which makes serialize(parse(text)) a fixed point: the canonical dict is
what round-trips, compares, and lands in reports.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ScenarioError
from .functions import HolomorphicFunction, rational_function
from .geometry import (ChartCover, PiecewiseDomain, build_chart_cover,
                       domain_from_pieces)
from .pairing import PairingSchedule, TestForm, form_from_expressions, plateau_cutoff
from .quadrature import QuadratureSpec

_SCHEDULE_DEFAULTS = {"eps0": 0.1, "ratio": 0.5, "steps": 14}
_QUADRATURE_DEFAULTS = {"rel_tol": 1e-10, "abs_tol": 1e-12,
                        "max_subdivisions": 200_000, "corner_refine_depth": 6}
_COVER_DEFAULTS = {"radius": 0.3, "strip_overlap": 0.2,
                   "arcs_per_circle": 6, "corner_v_rotation": 0.0}
_GROWTH_DEFAULTS = {"n_rays": 5}

_PIECE_KINDS = {"halfplane", "box-side", "disc", "polydisc-factor"}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description.

    Every field mirrors one JSON key; nested dicts are stored already
    canonicalized (defaults filled in, keys validated) so two scenarios
    compare equal exactly when their serializations match.
    """

    name: str
    ambient_dim: int
    domain: dict[str, Any]
    function: str | None = None
    forms: tuple[dict[str, Any], ...] = ()
    schedule: dict[str, Any] = field(default_factory=lambda: dict(_SCHEDULE_DEFAULTS))
    quadrature: dict[str, Any] = field(default_factory=lambda: dict(_QUADRATURE_DEFAULTS))
    cover: dict[str, Any] = field(default_factory=lambda: dict(_COVER_DEFAULTS))
    growth: dict[str, Any] = field(default_factory=lambda: dict(_GROWTH_DEFAULTS))
    label: str = ""

    @property
    def output_stem(self) -> str:
        """Filesystem-safe base name for CSV and report files."""
        return re.sub(r"[^A-Za-z0-9._-]+", "_", self.name).strip("_") or "scenario"


def _require(data: dict, key: str, kind: type, context: str):
    if key not in data:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ScenarioError(f"{context}: key {key!r} must be {kind.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _check_keys(data: dict, allowed: set[str], context: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ScenarioError(f"{context}: unknown keys {sorted(extra)}")


def _merge_defaults(data: Any, defaults: dict, context: str) -> dict:
    if data is None:
        return dict(defaults)
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object, got {type(data).__name__}")
    _check_keys(data, set(defaults), context)
    merged = dict(defaults)
    for key, value in data.items():
        want = type(defaults[key])
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, want):
            raise ScenarioError(f"{context}: key {key!r} must be {want.__name__}")
        merged[key] = value
    return merged


def _canonical_piece(piece: Any, ambient_dim: int, index: int) -> dict:
    context = f"domain.pieces[{index}]"
    if not isinstance(piece, dict):
        raise ScenarioError(f"{context}: expected an object")
    kind = _require(piece, "kind", str, context)
    if kind not in _PIECE_KINDS:
        raise ScenarioError(f"{context}: unknown kind {kind!r}; "
                            f"expected one of {sorted(_PIECE_KINDS)}")
    out: dict[str, Any] = {"kind": kind}
    allowed: set[str] = {"kind"}
    if ambient_dim == 2:
        allowed.add("var")
        var = piece.get("var", 0)
        if var not in (0, 1):
            raise ScenarioError(f"{context}: var must be 0 or 1")
        out["var"] = var
    if kind == "halfplane":
        for key in ("a", "b", "c"):
            out[key] = float(_require(piece, key, (int, float), context))
        allowed |= {"a", "b", "c"}
    elif kind == "box-side":
        axis = _require(piece, "axis", str, context)
        side = _require(piece, "side", str, context)
        if axis not in ("x", "y"):
            raise ScenarioError(f"{context}: axis must be 'x' or 'y'")
        if side not in ("min", "max"):
            raise ScenarioError(f"{context}: side must be 'min' or 'max'")
        out["axis"] = axis
        out["side"] = side
        out["value"] = float(_require(piece, "value", (int, float), context))
        allowed |= {"axis", "side", "value"}
    else:  # disc / polydisc-factor
        center = piece.get("center", 0.0)
        if isinstance(center, (int, float)):
            center = [float(center), 0.0]
        if not (isinstance(center, list) and len(center) == 2
                and all(isinstance(c, (int, float)) for c in center)):
            raise ScenarioError(f"{context}: center must be a number or [re, im]")
        out["center"] = [float(center[0]), float(center[1])]
        out["radius"] = float(_require(piece, "radius", (int, float), context))
        if out["radius"] <= 0:
            raise ScenarioError(f"{context}: radius must be positive")
        allowed |= {"center", "radius"}
    _check_keys(piece, allowed, context)
    return out


def _canonical_domain(data: Any, ambient_dim: int) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError("domain: expected an object")
    _check_keys(data, {"pieces", "bounding_box", "label"}, "domain")
    pieces = _require(data, "pieces", list, "domain")
    if not pieces:
        raise ScenarioError("domain: pieces must be non-empty")
    out: dict[str, Any] = {
        "pieces": [_canonical_piece(p, ambient_dim, i) for i, p in enumerate(pieces)],
        "label": str(data.get("label", "")),
    }
    box = data.get("bounding_box")
    if box is not None:
        rows = np.asarray(box, dtype=float)
        if rows.shape != (2 * ambient_dim, 2):
            raise ScenarioError("domain.bounding_box must be a "
                                f"{2 * ambient_dim}x2 array of [lo, hi] rows")
        out["bounding_box"] = rows.tolist()
    else:
        out["bounding_box"] = None
    return out


def _canonical_point(value: Any, ambient_dim: int, context: str) -> list[list[float]]:
    # stored as [[re, im]] * ambient_dim regardless of input sugar
    if ambient_dim == 1 and isinstance(value, (int, float)):
        return [[float(value), 0.0]]
    if not isinstance(value, list):
        raise ScenarioError(f"{context}: expected a point")
    entries = value
    if ambient_dim == 1 and len(value) == 2 and all(
            isinstance(c, (int, float)) for c in value):
        entries = [value]
    if len(entries) != ambient_dim:
        raise ScenarioError(f"{context}: point needs {ambient_dim} component(s)")
    out = []
    for entry in entries:
        if isinstance(entry, (int, float)):
            out.append([float(entry), 0.0])
        elif (isinstance(entry, list) and len(entry) == 2
              and all(isinstance(c, (int, float)) for c in entry)):
            out.append([float(entry[0]), float(entry[1])])
        else:
            raise ScenarioError(f"{context}: component must be a number or [re, im]")
    return out


def _point_array(canonical: list[list[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in canonical])


def _canonical_form(data: Any, ambient_dim: int, index: int) -> dict:
    context = f"forms[{index}]"
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object")
    _check_keys(data, {"coefficients", "cutoff", "label"}, context)
    coeffs = data.get("coefficients")
    if isinstance(coeffs, str):
        coeffs = [coeffs]
    if not (isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs)):
        raise ScenarioError(f"{context}: coefficients must be a string or list of strings")
    expected = 1 if ambient_dim == 1 else 2
    if len(coeffs) != expected:
        raise ScenarioError(f"{context}: need {expected} coefficient expression(s) "
                            f"in {ambient_dim} variable(s), got {len(coeffs)}")
    out: dict[str, Any] = {"coefficients": list(coeffs),
                           "label": str(data.get("label", f"form{index}"))}
    cutoff = data.get("cutoff")
    if cutoff is None:
        out["cutoff"] = None
    else:
        if not isinstance(cutoff, dict):
            raise ScenarioError(f"{context}.cutoff: expected an object")
        _check_keys(cutoff, {"center", "plateau", "support"}, f"{context}.cutoff")
        plateau = float(_require(cutoff, "plateau", (int, float), f"{context}.cutoff"))
        support = float(_require(cutoff, "support", (int, float), f"{context}.cutoff"))
        if not 0.0 < plateau < support:
            raise ScenarioError(f"{context}.cutoff: need 0 < plateau < support")
        out["cutoff"] = {
            "center": _canonical_point(cutoff.get("center"), ambient_dim,
                                       f"{context}.cutoff.center"),
            "plateau": plateau,
            "support": support,
        }
    return out


def parse_scenario(data: Any) -> Scenario:
    """Canonicalize a decoded JSON document into a Scenario."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be an object")
    _check_keys(data, {"name", "ambient_dim", "domain", "function", "forms",
                       "schedule", "quadrature", "cover", "growth", "label"},
                "scenario")
    name = _require(data, "name", str, "scenario")
    ambient_dim = _require(data, "ambient_dim", int, "scenario")
    if ambient_dim not in (1, 2):
        raise ScenarioError("scenario: ambient_dim must be 1 or 2")
    function = data.get("function")
    if function is not None and not isinstance(function, str):
        raise ScenarioError("scenario: function must be a string or null")
    forms_raw = data.get("forms", [])
    if not isinstance(forms_raw, list):
        raise ScenarioError("scenario: forms must be a list")
    schedule = _merge_defaults(data.get("schedule"), _SCHEDULE_DEFAULTS, "schedule")
    if schedule["steps"] < 1:
        raise ScenarioError("schedule: steps must be at least 1")
    if not 0.0 < schedule["ratio"] < 1.0:
        raise ScenarioError("schedule: ratio must lie in (0, 1)")
    if schedule["eps0"] <= 0.0:
        raise ScenarioError("schedule: eps0 must be positive")
    cover = _merge_defaults(data.get("cover"), _COVER_DEFAULTS, "cover")
    if not (math.isfinite(cover["radius"]) and cover["radius"] > 0.0):
        raise ScenarioError("cover.radius must be positive and finite, got "
                            f"{cover['radius']}")
    return Scenario(
        name=name,
        ambient_dim=ambient_dim,
        domain=_canonical_domain(_require(data, "domain", dict, "scenario"), ambient_dim),
        function=function,
        forms=tuple(_canonical_form(f, ambient_dim, i) for i, f in enumerate(forms_raw)),
        schedule=schedule,
        quadrature=_merge_defaults(data.get("quadrature"), _QUADRATURE_DEFAULTS,
                                   "quadrature"),
        cover=cover,
        growth=_merge_defaults(data.get("growth"), _GROWTH_DEFAULTS, "growth"),
        label=str(data.get("label", "")),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready dict; parse_scenario(scenario_to_dict(s)) == s."""
    return {
        "name": scenario.name,
        "ambient_dim": scenario.ambient_dim,
        "label": scenario.label,
        "domain": {
            "pieces": [dict(p) for p in scenario.domain["pieces"]],
            "label": scenario.domain["label"],
            "bounding_box": scenario.domain["bounding_box"],
        },
        "function": scenario.function,
        "forms": [
            {"coefficients": list(f["coefficients"]),
             "cutoff": None if f["cutoff"] is None else {
                 "center": [list(c) for c in f["cutoff"]["center"]],
                 "plateau": f["cutoff"]["plateau"],
                 "support": f["cutoff"]["support"]},
             "label": f["label"]}
            for f in scenario.forms
        ],
        "schedule": dict(scenario.schedule),
        "quadrature": dict(scenario.quadrature),
        "cover": dict(scenario.cover),
        "growth": dict(scenario.growth),
    }


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def parse_scenario_text(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"invalid JSON: {err}") from None
    return parse_scenario(data)


def shipped_scenarios() -> dict[str, str]:
    """Map scenario name -> JSON text for every file shipped with the package."""
    out: dict[str, str] = {}
    root = resources.files(__package__).joinpath("scenarios")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        text = entry.read_text(encoding="utf-8")
        try:
            name = json.loads(text).get("name", entry.name)
        except json.JSONDecodeError:
            continue
        out[name] = text
    return out


def load_scenario(ref: str) -> Scenario:
    """Resolve a path or a shipped scenario name."""
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise ScenarioError(f"cannot read scenario file {ref!r}: {err}") from None
        return parse_scenario_text(text)
    shipped = shipped_scenarios()
    if ref in shipped:
        return parse_scenario_text(shipped[ref])
    raise ScenarioError(f"unknown scenario {ref!r}; not a file and not one of "
                        f"{sorted(shipped)}")


# -- builders -----------------------------------------------------------------

def build_domain(scenario: Scenario) -> PiecewiseDomain:
    """The scenario's domain.  ``domain.bounding_box`` is read only by the
    general one-variable path (halfplanes, several discs); a box, a disc or a
    product of them carries its own box, so a bounding box given for one is
    refused rather than ignored."""
    box = scenario.domain["bounding_box"]
    domain = domain_from_pieces(
        scenario.domain["pieces"], scenario.ambient_dim,
        bounding_box=None if box is None else np.asarray(box, dtype=float),
        label=scenario.domain["label"] or scenario.name)
    if box is not None and domain.product_factors is not None:
        raise ScenarioError(
            "domain.bounding_box is read only for halfplanes or several discs; "
            "a box, a disc or a product of them has its own box, so remove "
            "the key")
    return domain


def build_function(scenario: Scenario) -> HolomorphicFunction | None:
    if scenario.function is None:
        return None
    return rational_function(scenario.function, scenario.ambient_dim)


def build_forms(scenario: Scenario) -> list[TestForm]:
    forms = []
    for spec in scenario.forms:
        cutoff = None
        if spec["cutoff"] is not None:
            cutoff = plateau_cutoff(_point_array(spec["cutoff"]["center"]),
                                    spec["cutoff"]["plateau"],
                                    spec["cutoff"]["support"])
        coeffs = spec["coefficients"]
        expressions = coeffs[0] if scenario.ambient_dim == 1 else tuple(coeffs)
        forms.append(form_from_expressions(expressions, scenario.ambient_dim,
                                           cutoff=cutoff, label=spec["label"]))
    return forms


def build_schedule(scenario: Scenario, eps0: float | None = None,
                   ratio: float | None = None,
                   steps: int | None = None) -> PairingSchedule:
    sched = scenario.schedule
    return PairingSchedule(
        eps0=sched["eps0"] if eps0 is None else eps0,
        ratio=sched["ratio"] if ratio is None else ratio,
        steps=sched["steps"] if steps is None else steps)


def build_quadrature(scenario: Scenario,
                     rel_tol: float | None = None) -> QuadratureSpec:
    quad = scenario.quadrature
    try:
        return QuadratureSpec(
            rel_tol=quad["rel_tol"] if rel_tol is None else rel_tol,
            abs_tol=quad["abs_tol"],
            max_subdivisions=quad["max_subdivisions"],
            corner_refine_depth=quad["corner_refine_depth"])
    except ValueError as err:
        raise ScenarioError(f"quadrature: {err}") from err


def build_cover(scenario: Scenario, domain: PiecewiseDomain) -> ChartCover:
    cov = scenario.cover
    return build_chart_cover(domain, radius=cov["radius"],
                             strip_overlap=cov["strip_overlap"],
                             arcs_per_circle=cov["arcs_per_circle"],
                             corner_v_rotation=cov["corner_v_rotation"])
