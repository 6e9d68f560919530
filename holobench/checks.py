"""References computed apart from holobc, and the checks that compare to them.

Every check returns a list of failures, each a ``(check, message)`` pair; an
empty list means the result passed.  Nothing here calls into holobc: the
references are closed forms, the strata theory is read off the piece
definitions of the scenario JSON, and the fits are plain least squares.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# i * area of the square [0, 2]^2: F(eps) = int_bdry x dz = i * area for f = 1.
REF_F1 = 4j
# i * int_square dA / z.  With I = int_0^2 int_0^2 x / (x^2 + y^2) dy dx
# = int_0^2 arctan(2 / x) dx = pi / 2 + ln 2, int dA / z = I (1 - i).
REF_INV_Z = (math.pi / 2 + math.log(2.0)) * (1 + 1j)
# i * int_square dA / (z - 1) = int_0^1 ln((u^2 + 4) / u^2) du = ln 5 + 4 atan(1/2);
# the real part of int dA / (z - 1) cancels between u and -u.
REF_INV_Z_MINUS_1 = complex(math.log(5.0) + 4.0 * math.atan(0.5), 0.0)
# With f = 1 the translated pairing is int_bdry psi = int_Omega dbar psi for
# every eps; on the bidisc dbar psi = 4 dV (the cutoff is 1 there), so 4 pi^2.
REF_BIDISC = 4.0 * math.pi ** 2

# Absolute tolerance on exact closed forms reached by Richardson on exact data
# or by the 1e-10 volume route (the Stokes oracle).
EXACT_TOL = 1e-8
# Relative tolerance on the log-divergence slope of 1/z^2 (theory: -1).
SLOPE_TOL = 0.05
# A closure sample must satisfy its subset's defining equations to this.
STRATUM_TOL = 1e-10

EXISTS = "EXISTS_NUMERICALLY"
FAILS = "FAILS_NUMERICALLY"
UNDETERMINED = "UNDETERMINED"


def richardson_weights(ratio: float, count: int) -> np.ndarray:
    """Weights w with sum_k w_k F(eps_k) = the Richardson limit of ``count``
    samples on a geometric schedule, largest eps first (removes eps^1..^(count-1))."""
    table = [np.eye(count)[k] for k in range(count)]
    for j in range(1, count):
        rj = ratio ** j
        table = [(table[i] - rj * table[i - 1]) / (1.0 - rj)
                 for i in range(1, len(table))]
    return table[0]


def richardson_tolerance(epsilons) -> float:
    """Per-channel tolerance on a Richardson limit of the last four samples.

    A pole at a corner leaves F(eps) = L + b eps ln eps + O(eps); Richardson
    removes the powers of eps but not the eps ln eps term, which leaves
    b * R[eps ln eps].  The tolerance admits |b| up to 2 (README).
    """
    eps = np.asarray(epsilons[-4:], dtype=float)
    ratio = float(eps[1] / eps[0])
    residual = float(richardson_weights(ratio, 4) @ (eps * np.log(eps)))
    return 2.0 * abs(residual)


def samples_limit(epsilons, values) -> complex:
    """The four-point Richardson limit of the last four samples."""
    eps = np.asarray(epsilons[-4:], dtype=float)
    weights = richardson_weights(float(eps[1] / eps[0]), 4)
    return complex(weights @ np.asarray(values[-4:], dtype=complex))


def _close(value, ref, tol) -> bool:
    d = complex(value) - complex(ref)
    return abs(d.real) <= tol and abs(d.imag) <= tol


def log_slope(epsilons, values, window: int = 8) -> float:
    """Least-squares slope of Re F against ln eps over the last ``window``."""
    x = np.log(np.asarray(epsilons[-window:], dtype=float))
    y = np.real(np.asarray(values[-window:], dtype=complex))
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[1])


def check_verdict(name: str, outcome: dict) -> list[tuple[str, str]]:
    """One pair-1d verdict: existence, limit and the Stokes oracle.

    An UNDETERMINED verdict without a limit fails as ``undetermined``, and the
    samples' own Richardson limit is checked in place of the program's.
    """
    eps = outcome["epsilons"]
    verdict, limit, oracle = outcome["existence"], outcome["limit"], outcome["oracle"]
    out = []
    if name == "square_f=1/z^2":
        if verdict != FAILS:
            out.append(("verdict", f"{name}: {verdict}, theory says {FAILS}"))
        slope = log_slope(eps, outcome["values"])
        if abs(slope + 1.0) > SLOPE_TOL:
            out.append(("slope", f"{name}: Re F ~ {slope:.4f} ln eps, theory -1"))
        return out
    ref = {"square_f=1": REF_F1, "square_f=1/z": REF_INV_Z,
           "square_f=1/(z-1)": REF_INV_Z_MINUS_1}[name]
    tol = EXACT_TOL if name == "square_f=1" else richardson_tolerance(eps)
    if verdict == UNDETERMINED and limit is None:
        # The program gives no limit, so the samples' own one is checked.
        out.append(("undetermined", f"{name}: {verdict}, theory says {EXISTS}"))
        own = samples_limit(eps, outcome["values"])
        if not _close(own, ref, tol):
            out.append(("samples", f"{name}: Richardson limit of the samples "
                                   f"{own} vs {ref} (tol {tol:.2e})"))
    else:
        if verdict != EXISTS:
            out.append(("verdict", f"{name}: {verdict}, theory says {EXISTS}"))
        if limit is None or not _close(limit, ref, tol):
            out.append(("limit", f"{name}: limit {limit} vs {ref} (tol {tol:.2e})"))
    if oracle is None or not _close(oracle, ref, EXACT_TOL):
        out.append(("oracle", f"{name}: Stokes oracle {oracle} vs {ref}"))
    return out


def sample_bits(values) -> bytes:
    """The exact bytes of a sequence of (eps, value, err) samples."""
    flat = []
    for eps, value, err in values:
        flat.extend([eps, complex(value).real, complex(value).imag, err])
    return struct.pack(f"<{len(flat)}d", *flat)


def check_bits(name: str, first: bytes, now: bytes) -> list[tuple[str, str]]:
    if first != now:
        return [("bits", f"{name}: samples differ from the first pass")]
    return []


def check_sample_2d(value: complex, err_est: float) -> list[tuple[str, str]]:
    gap = abs(complex(value) - REF_BIDISC)
    if not gap <= err_est:
        return [("limit", f"bidisc F(0.1) = {value}: |F - 4 pi^2| = {gap:.3e} "
                          f"exceeds its error estimate {err_est:.3e}")]
    return []


# -- strata --------------------------------------------------------------------

def _piece_equation(piece: dict):
    """The defining equation of one scenario piece, from its JSON fields."""
    var = piece.get("var", 0)
    if piece["kind"] == "box-side":
        part = np.real if piece["axis"] == "x" else np.imag
        return lambda z: part(z[..., var]) - piece["value"]
    center = complex(*piece["center"])
    return lambda z: np.abs(z[..., var] - center) ** 2 - piece["radius"] ** 2


def _parallel(a: dict, b: dict) -> bool:
    return (a["kind"] == b["kind"] == "box-side" and a.get("var", 0) == b.get("var", 0)
            and a["axis"] == b["axis"] and a["value"] != b["value"])


def theory_verdict(pieces: list[dict], subset, ambient_dim: int) -> str:
    """Verdict of B_S for box sides and disc factors, from the definitions.

    Two parallel sides never meet; more faces than variables is a
    cardinality defect; two faces in one complex variable have dbar rho's of
    complex rank one; otherwise the stratum is generic.
    """
    chosen = [pieces[j] for j in subset]
    if any(_parallel(a, b) for k, a in enumerate(chosen) for b in chosen[k + 1:]):
        return "EMPTY"
    if len(subset) > ambient_dim:
        return "NON_GENERIC_CARDINALITY"
    if len({p.get("var", 0) for p in chosen}) < len(chosen):
        return "NON_GENERIC_COMPLEX_RANK"
    return "GENERIC"


# Active-verdict counts stated for the shipped scenarios; a guard on
# theory_verdict itself.
EXPECTED_COUNTS = {
    "square": {"NON_GENERIC_CARDINALITY": 4},
    "bidisc": {"GENERIC": 1},
    "square-cross-plane": {"NON_GENERIC_COMPLEX_RANK": 4, "GENERIC": 4,
                           "NON_GENERIC_CARDINALITY": 4},
}


def check_strata(name: str, pieces: list[dict], ambient_dim: int,
                 strata, baseline=None) -> list[tuple[str, str]]:
    """Verdicts against theory, closure samples on their equations, the
    square's corners exactly where its sides cross and, given the unscaled
    strata as ``baseline``, verdicts unchanged by the scaling.

    ``strata`` is a list of (subset, verdict, samples, in_closure).
    """
    out = []
    counts: dict[str, int] = {}
    for subset, verdict, samples, in_closure in strata:
        want = theory_verdict(pieces, subset, ambient_dim)
        if verdict != want:
            out.append(("verdict", f"{name} {subset}: {verdict}, theory says {want}"))
        if verdict != "EMPTY":
            counts[verdict] = counts.get(verdict, 0) + 1
        closure = np.atleast_2d(samples[in_closure]) if len(samples) else samples
        for j in subset:
            if len(closure):
                worst = float(np.max(np.abs(_piece_equation(pieces[j])(closure))))
                if not worst <= STRATUM_TOL:
                    out.append(("stratum", f"{name} {subset}: a sample is "
                                           f"{worst:.2e} off piece {j}"))
        if name == "square" and verdict != "EMPTY":
            side = {pieces[j]["axis"]: pieces[j]["value"] for j in subset}
            want = {complex(side["x"], side["y"])}
            got = {complex(z[0]) for z in closure}
            if got != want:
                out.append(("stratum", f"square {subset}: samples {got}, "
                                       f"the corner is exactly {want}"))
    if counts != EXPECTED_COUNTS[name]:
        out.append(("verdict", f"{name}: active verdicts {counts}, expected "
                               f"{EXPECTED_COUNTS[name]}"))
    if baseline is not None:
        if [(s[0], s[1]) for s in strata] != [(s[0], s[1]) for s in baseline]:
            out.append(("scaling", f"{name}: verdicts change under x3 scaling"))
    return out
