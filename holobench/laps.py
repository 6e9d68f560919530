"""Lap marks: cut each timed operation into segments at fixed program calls.

``Laps.install`` rebinds each function in ``CUTS`` wherever a holobc module
holds it, with a wrapper that only reads the clock on entry and on exit, so
an operation's clock readings split it into the same ordered segments on
every pass.  It wraps whatever is bound at install time, so it can sit on
top of the tracer's wrappers.  ``uninstall`` puts back what was there.
"""

from __future__ import annotations

import functools
import sys
import time

import holobc.pairing

# Public calls that a pair-1d verdict makes in a fixed order: each F(eps)
# sample, the integrability scale and the Stokes oracle.  They cut a verdict
# into segments of up to 0.3 s, far shorter than the slow spells of a shared
# host.  strata makes none of these calls, and pair-2d has one pass a run,
# so their operations are timed whole.  The engine calls are not cut: a
# change that batches them would otherwise change the segments, and so the
# figure.
CUTS = [(holobc.pairing, "pairing_at_epsilon"),
        (holobc.pairing, "integrability_scale"),
        (holobc.pairing, "stokes_oracle")]


class Laps:
    def __init__(self):
        self.marks: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _marked(self, fn):
        marks = self.marks

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(time.perf_counter())

        return marked

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "holobc" or n.startswith("holobc.")]
        for owner, attr in CUTS:
            fn = getattr(owner, attr)
            new = self._marked(fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, name, value))
                        setattr(module, name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def time(self, call):
        """``call()`` and the durations of its segments, in order."""
        self.marks.clear()
        self.marks.append(time.perf_counter())
        out = call()
        self.marks.append(time.perf_counter())
        return out, [b - a for a, b in zip(self.marks, self.marks[1:])]
