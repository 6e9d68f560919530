"""The three workloads: set-up, one pass, checks, and the perturbation self-check.

``operations`` gives one pass as ``(key, call)`` pairs in the pass's seeded
order; the runner times each call on its own and collects the results in a
dict by key.  A pass calls holobc only through module attributes looked up
at call time, so the tracer's rebinding reaches the benchmark's own calls as
well as the program's internal ones.  ``check`` returns one ``(operation, failures)``
pair per operation of a pass; ``selfcheck`` returns the perturbations of a
pass's results that its checks failed to reject.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import struct

import numpy as np

import holobc.asymptotics as asymptotics
import holobc.functions as functions
import holobc.geometry as geometry
import holobc.pairing as pairing
import holobc.scenario as scenario
from holobc.errors import BudgetExceededError, HolobcError, NotL1Error

import checks


def _flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


class Pair1D:
    """Four `holobc pair` verdicts on the square, in a seeded order."""

    SCENARIOS = ("square_f=1", "square_f=1/z", "square_f=1/z^2", "square_f=1/(z-1)")
    # _fit_channel judges Im F -> 0 against its own tiny scale and returns
    # UNDETERMINED with no limit; the samples' own limit is still checked.
    KNOWN_FAULTS = {("square_f=1/(z-1)", "undetermined")}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.first_bits: dict[str, bytes] = {}

    def setup(self) -> None:
        self.cases = {}
        for name in self.SCENARIOS:
            sc = scenario.load_scenario(name)
            domain = scenario.build_domain(sc)
            geometry.validate_domain(domain)
            self.cases[name] = (domain, scenario.build_function(sc),
                                scenario.build_forms(sc)[0],
                                scenario.build_cover(sc, domain),
                                scenario.build_schedule(sc),
                                scenario.build_quadrature(sc))

    def _verdict(self, name: str) -> dict:
        """One verdict the way `holobc pair` makes it."""
        domain, f, psi, cover, schedule, spec = self.cases[name]
        try:
            oracle_scale = pairing.integrability_scale(domain, f, spec)
        except (NotL1Error, BudgetExceededError):
            oracle_scale = None
        samples = pairing.pairing_sequence(domain, f, psi, cover, schedule, spec)
        fit = asymptotics.fit_models(samples)
        oracle = None
        if oracle_scale is not None:
            try:
                oracle = pairing.stokes_oracle(domain, f, psi, spec)
            except HolobcError:
                oracle = None
        return {"epsilons": [s.epsilon for s in samples],
                "values": [s.value for s in samples],
                "errs": [s.err_est for s in samples],
                "existence": asymptotics.classify_bc_existence([fit]),
                "limit": fit.limit, "oracle": oracle}

    def operations(self):
        order = list(self.SCENARIOS)
        self.rng.shuffle(order)
        return [(name, functools.partial(self._verdict, name)) for name in order]

    def _bits(self, outcome: dict) -> bytes:
        return checks.sample_bits(zip(outcome["epsilons"], outcome["values"],
                                      outcome["errs"]))

    def check(self, results: dict):
        out = []
        for name in self.SCENARIOS:
            outcome = results[name]
            bits = self._bits(outcome)
            first = self.first_bits.setdefault(name, bits)
            out.append((name, checks.check_verdict(name, outcome)
                        + checks.check_bits(name, first, bits)))
        return out

    def _rejected(self, name: str, outcome: dict) -> bool:
        """Whether the checks fail ``outcome`` beyond the known fault."""
        return any((name, check) not in self.KNOWN_FAULTS
                   for check, _ in checks.check_verdict(name, outcome))

    def selfcheck(self, results: dict) -> list[str]:
        missed = []
        one, inv_z, log, pole = (results[n] for n in self.SCENARIOS)
        shift = 10.0 * checks.richardson_tolerance(inv_z["epsilons"])
        if not self._rejected("square_f=1/z",
                              {**inv_z, "limit": checks.REF_INV_Z + shift}):
            missed.append("shifted limit")
        if not self._rejected("square_f=1", {**one, "existence": checks.FAILS}):
            missed.append("wrong verdict")
        tilted = [v + 0.1 * math.log(e) for e, v in zip(log["epsilons"], log["values"])]
        if not self._rejected("square_f=1/z^2", {**log, "values": tilted}):
            missed.append("tilted log slope")
        if not self._rejected("square_f=1/(z-1)", {**pole, "existence": checks.FAILS}):
            missed.append("wrong verdict on square_f=1/(z-1)")
        shifted = {**pole, "values": [v + shift for v in pole["values"]],
                   "limit": None if pole["limit"] is None else pole["limit"] + shift}
        if not self._rejected("square_f=1/(z-1)", shifted):
            missed.append("shifted limit on square_f=1/(z-1)")
        values = list(inv_z["values"])
        values[-1] = complex(_flip_last_bit(values[-1].real), values[-1].imag)
        if not checks.check_bits("square_f=1/z", self._bits(inv_z),
                                 self._bits({**inv_z, "values": values})):
            missed.append("changed sample bit")
        return missed


class Pair2D:
    """One translated sample F(0.1) on the bidisc, f = 1, form ("0", "zbar1"),
    at rel_tol 3e-3.  A pass is one operation, so the seed changes nothing."""

    EPSILON = 0.1
    REL_TOL = 3e-3
    COEFFICIENTS = ("0", "zbar1")
    KNOWN_FAULTS: set = set()

    def __init__(self, seed: int):
        self.first_bits = None

    def setup(self) -> None:
        sc = scenario.load_scenario("bidisc")
        self.domain = scenario.build_domain(sc)
        geometry.validate_domain(self.domain)
        self.cover = scenario.build_cover(sc, self.domain)
        cut = sc.forms[0]["cutoff"]
        cutoff = pairing.plateau_cutoff([complex(*c) for c in cut["center"]],
                                        cut["plateau"], cut["support"])
        self.f = functions.rational_function("1", 2)
        self.psi = pairing.form_from_expressions(self.COEFFICIENTS, 2, cutoff)
        self.spec = scenario.build_quadrature(sc, rel_tol=self.REL_TOL)

    def _sample(self):
        return pairing.pairing_at_epsilon(self.domain, self.f, self.psi, self.cover,
                                          self.EPSILON, self.spec)

    def operations(self):
        return [("bidisc", self._sample)]

    def check(self, results: dict):
        sample = results["bidisc"]
        bits = checks.sample_bits([(sample.epsilon, sample.value, sample.err_est)])
        if self.first_bits is None:
            self.first_bits = bits
        return [("bidisc", checks.check_sample_2d(sample.value, sample.err_est)
                 + checks.check_bits("bidisc", self.first_bits, bits))]

    def selfcheck(self, results: dict) -> list[str]:
        sample = results["bidisc"]
        missed = []
        if not checks.check_sample_2d(sample.value + 2.0 * sample.err_est,
                                      sample.err_est):
            missed.append("shifted limit")
        bits = checks.sample_bits([(sample.epsilon, sample.value, sample.err_est)])
        flipped = checks.sample_bits([(sample.epsilon, sample.value,
                                       _flip_last_bit(sample.err_est))])
        if not checks.check_bits("bidisc", bits, flipped):
            missed.append("changed sample bit")
        return missed


def rescaled(domain, factor: float):
    """The domain with every defining function multiplied by ``factor``."""
    pieces = tuple(
        geometry.SmoothPiece(rho=(lambda z, p=p: factor * p.rho(z)),
                             grad_rho=(lambda z, p=p: factor * p.grad_rho(z)),
                             dbar_rho=(lambda z, p=p: factor * p.dbar_rho(z)),
                             patches=p.patches, label=p.label)
        for p in domain.pieces)
    return dataclasses.replace(domain, pieces=pieces)


class Strata:
    """locate_strata + classify_stratum on three domains, each also scaled by 3."""

    SCENARIOS = ("square", "bidisc", "square-cross-plane")
    SCALES = (1.0, 3.0)
    KNOWN_FAULTS: set = set()

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.cases = {}
        for name in self.SCENARIOS:
            sc = scenario.load_scenario(name)
            domain = scenario.build_domain(sc)
            geometry.validate_domain(domain)
            for scale in self.SCALES:
                self.cases[name, scale] = (
                    domain if scale == 1.0 else rescaled(domain, scale),
                    sc.domain["pieces"], sc.ambient_dim)

    def _classify(self, key):
        domain = self.cases[key][0]
        return [geometry.classify_stratum(domain, s)
                for s in geometry.locate_strata(domain)]

    def operations(self):
        order = list(self.cases)
        self.rng.shuffle(order)
        return [(key, functools.partial(self._classify, key)) for key in order]

    @staticmethod
    def _rows(strata):
        return [(s.subset, s.verdict.value, s.samples, s.in_closure) for s in strata]

    def check(self, results: dict, rows=None):
        rows = rows or {key: self._rows(strata) for key, strata in results.items()}
        out = []
        for (name, scale), (_, pieces, dim) in self.cases.items():
            baseline = rows[name, 1.0] if scale != 1.0 else None
            out.append((f"{name} x{scale:g}",
                        checks.check_strata(name, pieces, dim, rows[name, scale],
                                            baseline)))
        return out

    def selfcheck(self, results: dict) -> list[str]:
        rows = {key: self._rows(strata) for key, strata in results.items()}
        missed = []
        key = ("square-cross-plane", 3.0)

        def rejected(changed) -> bool:
            return any(f for _, f in self.check(results, {**rows, key: changed}))

        moved = list(rows[key])
        k = next(i for i, r in enumerate(moved) if r[1] != "EMPTY")
        subset, verdict, samples, in_closure = moved[k]
        off = samples.copy()
        off[np.flatnonzero(in_closure)[0], 0] += 1e-8
        moved[k] = (subset, verdict, off, in_closure)
        if not rejected(moved):
            missed.append("sample moved off its stratum")
        wrong = list(rows[key])
        wrong[k] = (subset, "GENERIC" if verdict != "GENERIC" else "EMPTY",
                    samples, in_closure)
        if not rejected(wrong):
            missed.append("wrong verdict")
        return missed


WORKLOADS = {"pair-1d": Pair1D, "pair-2d": Pair2D, "strata": Strata}
