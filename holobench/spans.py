"""Spans around holobc's public functions, installed from the benchmark.

``Tracer.install`` rebinds each traced function wherever a holobc module
holds it (``from .geometry import locate_strata`` makes a second binding),
and ``uninstall`` puts the originals back, so untraced passes run the
program as shipped.  A span is ``[name, start, end, parent, phase, attrs]``;
spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import holobc.asymptotics
import holobc.functions
import holobc.geometry
import holobc.pairing
import holobc.quadrature
import holobc.scenario

DIMS = (1, 2, 3)
NODES_PER_AXIS = 15  # the Kronrod rule: a cell of dimension d has 15**d nodes


def _points(args, out):
    z = args[-1]
    return {"points": len(z) if getattr(z, "ndim", 1) > 1 else 1}


# (span name, function, attrs from (args, result)); adaptive_integrate has a
# wrapper of its own (Tracer._engine).
_FUNCTIONS = [
    ("geometry.locate_strata", holobc.geometry.locate_strata,
     lambda args, out: {"subsets": len(out),
                        "samples": sum(len(s.samples) for s in out)}),
    ("geometry.classify_stratum", holobc.geometry.classify_stratum, None),
    ("geometry.build_chart_cover", holobc.geometry.build_chart_cover,
     lambda args, out: {"charts": len(out.charts)}),
    ("geometry.validate_domain", holobc.geometry.validate_domain, None),
    ("geometry.nearest_boundary_gap", holobc.geometry.nearest_boundary_gap, None),
    ("pairing.pairing_at_epsilon", holobc.pairing.pairing_at_epsilon, None),
    ("pairing.stokes_oracle", holobc.pairing.stokes_oracle, None),
    ("pairing.integrability_scale", holobc.pairing.integrability_scale, None),
    ("asymptotics.fit_models", holobc.asymptotics.fit_models, None),
    ("scenario.load", holobc.scenario.load_scenario, None),
    ("scenario.build_cover", holobc.scenario.build_cover, None),
]
_METHODS = [
    ("geometry.partition_weight", holobc.geometry.ChartCover, "partition_weight",
     _points),
    ("functions.eval", holobc.functions.HolomorphicFunction, "__call__", _points),
]


SPAN_NAMES = ({name for name, *_ in _FUNCTIONS + _METHODS}
              | {"quadrature.adaptive_integrate", "quadrature.integrand"}
              | {f"quadrature.d{dim}" for dim in DIMS})


def row_mismatches(spans) -> int:
    """Engine calls whose integrand rows differ from 15**d x cells_used."""
    return sum(1 for name, *_, attrs in spans
               if name == "quadrature.adaptive_integrate"
               and attrs["rows"] != NODES_PER_AXIS ** attrs["dim"] * attrs["cells"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, out)
            return out

        return traced

    def _engine(self, original):
        """adaptive_integrate with its eval_fn wrapped: a span per call and a
        count of the parameter rows the integrand actually received."""

        def adaptive_integrate(eval_fn, box, *args, **kwargs):
            dim, rows = len(box), [0]

            def counted(params):
                rows[0] += len(params)
                return eval_fn(params)

            integrand = self._wrap("quadrature.integrand", counted,
                                   lambda a, out: {"dim": dim})
            outer = self._wrap("quadrature.adaptive_integrate", original,
                               lambda a, out: {"dim": dim, "rows": rows[0],
                                               "cells": out.cells_used,
                                               "converged": bool(out.converged)})
            return outer(integrand, box, *args, **kwargs)

        return adaptive_integrate

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, phase: str) -> None:
        self.phase = phase
        modules = [m for n, m in list(sys.modules.items())
                   if n == "holobc" or n.startswith("holobc.")]
        engine = holobc.quadrature.adaptive_integrate
        for fn, new in [(engine, self._engine(engine))] + [
                (fn, self._wrap(name, fn, attrs)) for name, fn, attrs in _FUNCTIONS]:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, new)
        for name, cls, attr, attrs in _METHODS:
            self._rebind(cls, attr, self._wrap(name, getattr(cls, attr), attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, passes: int, derived: dict[str, float],
                      names) -> dict[str, float]:
        """The per-layer metrics in ``names``, for one set-up plus one pass
        (the pass spans are averaged over ``passes``), with ``derived`` (the
        caller's own figures) added.  A name is ``<span>.<total>``: ``s``,
        ``self_s`` (the span's duration minus its children's), ``calls`` or
        an attribute; a name whose span is not traced is left out."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, phase, attrs in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        tot: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, phase, attrs) in enumerate(self.spans):
            w = 1.0 if phase == "setup" else 1.0 / passes
            tot[name + ".s"] += w * (t1 - t0)
            tot[name + ".self_s"] += w * (t1 - t0 - child[i])
            tot[name + ".calls"] += w
            attrs = attrs or {}
            if name.startswith("quadrature."):
                d = f"quadrature.d{attrs['dim']}"
                tot[d + (".s" if name.endswith("adaptive_integrate")
                         else ".integrand_s")] += w * (t1 - t0)
            for key, value in attrs.items():
                if key != "dim":
                    tot[f"{name}.{key}"] += w * value
            if name == "quadrature.adaptive_integrate":
                tot[f"quadrature.d{attrs['dim']}.cells"] += w * attrs["cells"]
                tot[f"quadrature.d{attrs['dim']}.points"] += w * attrs["rows"]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        engine, pw = "quadrature.adaptive_integrate", "geometry.partition_weight"
        derived = {**derived,
                   "quadrature.calls": tot[f"{engine}.calls"],
                   "quadrature.unconverged": (tot[f"{engine}.calls"]
                                              - tot[f"{engine}.converged"]),
                   f"{pw}.points_per_s": rate(tot[f"{pw}.points"], tot[f"{pw}.s"]),
                   "geometry.charts": tot["geometry.build_chart_cover.charts"]}
        for dim in DIMS:
            d = f"quadrature.d{dim}"
            derived[f"{d}.engine_s"] = tot[f"{d}.s"] - tot[f"{d}.integrand_s"]
            derived[f"{d}.cells_per_s"] = rate(tot[f"{d}.cells"], tot[f"{d}.s"])
        return {n: derived[n] if n in derived else tot[n] for n in names
                if n in derived or n.rsplit(".", 1)[0] in SPAN_NAMES}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, phase, attrs."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
