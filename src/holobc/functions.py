"""Holomorphic functions with declared singularities.

Functions are vectorized maps (m, n) complex -> (m,) complex built either
from expression text (rational functions, poles extracted symbolically) or
from a raw callable with user-declared poles.  The module also provides the
two runtime checks the pairing relies on: a Cauchy-Riemann finite-difference
test and a boundary growth estimator that recovers the pole order from the
blow-up envelope along inward rays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PoleInsideError, ScenarioError
from .geometry import PiecewiseDomain, nearest_boundary_gap
from .rational import AffinePole, compile_node, find_poles, parse_expression

__all__ = [
    "PoleDescriptor",
    "HolomorphicFunction",
    "rational_function",
    "check_holomorphic",
    "pole_status",
    "GrowthEstimate",
    "estimate_growth",
]


@dataclass(frozen=True)
class PoleDescriptor:
    """An affine singular set {z_var = location} of the given order."""

    var: int
    location: complex
    order: int

    @staticmethod
    def from_affine(p: AffinePole) -> "PoleDescriptor":
        return PoleDescriptor(p.var, complex(p.value), int(p.order))


@dataclass(frozen=True)
class HolomorphicFunction:
    ambient_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    pole_locus: tuple[PoleDescriptor, ...] = ()
    label: str = ""

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        squeeze = z.ndim == 1
        if squeeze:
            z = z[None, :]
        out = self.evaluator(z)
        return out[0] if squeeze else out


def rational_function(text: str, ambient_dim: int) -> HolomorphicFunction:
    """Parse expression text in z (or z1, z2) into a function with poles."""
    node = parse_expression(text, ambient_dim)
    fn = compile_node(node, ambient_dim)
    poles = tuple(PoleDescriptor.from_affine(p)
                  for p in find_poles(node, ambient_dim))
    return HolomorphicFunction(ambient_dim, fn, poles, label=text)


# ---------------------------------------------------------------------------
# Cauchy-Riemann check


def check_holomorphic(f: HolomorphicFunction, domain: PiecewiseDomain,
                      samples: int = 64, step: float = 1e-5) -> float:
    """Max relative Wirtinger dbar residual over interior sample points.

    Central differences per variable; points within 1e3*step of a declared
    pole set are skipped so the difference quotient stays well-conditioned.
    """
    scale = domain.diameter()
    h = step * scale
    pts = domain.interior_points(4 * samples, margin=0.02 * scale, seed=7)
    keep = np.ones(len(pts), dtype=bool)
    for p in f.pole_locus:
        keep &= np.abs(pts[:, p.var] - p.location) > 1e3 * h
    pts = pts[keep][:samples]
    if len(pts) == 0:
        raise ScenarioError("no usable interior points for the holomorphy check")
    worst = 0.0
    for var in range(f.ambient_dim):
        e = np.zeros(f.ambient_dim, dtype=np.complex128)
        e[var] = 1.0
        fx = (f(pts + h * e) - f(pts - h * e)) / (2.0 * h)
        fy = (f(pts + 1j * h * e) - f(pts - 1j * h * e)) / (2.0 * h)
        dbar = 0.5 * (fx + 1j * fy)
        dz = 0.5 * (fx - 1j * fy)
        local = np.maximum(np.abs(dz), np.abs(f(pts)) / scale) + 1.0 / scale
        worst = max(worst, float(np.max(np.abs(dbar) / local)))
    return worst


# ---------------------------------------------------------------------------
# Pole location relative to the closed domain


def pole_status(domain: PiecewiseDomain, pole: PoleDescriptor,
                tol: float = 1e-7) -> str:
    """'inside' | 'boundary' | 'outside' for the singular set of the pole.

    In one variable the set is a point.  In two variables it is the
    hyperplane {z_var = location}, whose position is judged against the
    matching product factor.
    """
    if domain.ambient_dim == 1:
        z0 = np.array([pole.location])
        d = nearest_boundary_gap(domain, z0)
        if d <= tol * (1.0 + domain.diameter()):
            return "boundary"
        return "inside" if bool(domain.contains(z0[None, :])[0]) else "outside"
    if domain.product_factors is None:
        raise ScenarioError("pole location tests in two variables require a "
                            "product domain")
    factor = domain.product_factors[pole.var]
    return _factor_status(factor, pole.location, tol)


def _factor_status(factor, w0: complex, tol: float) -> str:
    from .geometry import BoxFactor, DiscFactor
    if isinstance(factor, DiscFactor):
        gap = abs(w0 - factor.center) - factor.radius_disc
        if abs(gap) <= tol * (1.0 + factor.radius_disc):
            return "boundary"
        return "inside" if gap < 0 else "outside"
    assert isinstance(factor, BoxFactor)
    (x0, x1), (y0, y1) = factor.x_range, factor.y_range
    dx = max(x0 - w0.real, 0.0, w0.real - x1)
    dy = max(y0 - w0.imag, 0.0, w0.imag - y1)
    gap = float(np.hypot(dx, dy))
    edge = min(w0.real - x0, x1 - w0.real, w0.imag - y0, y1 - w0.imag)
    if gap <= tol and abs(edge) <= tol:
        return "boundary"
    return "inside" if gap == 0.0 else "outside"


def boundary_poles(domain: PiecewiseDomain,
                   f: HolomorphicFunction) -> tuple[PoleDescriptor, ...]:
    """Poles sitting on the boundary; raises when one is strictly inside."""
    out = []
    for p in f.pole_locus:
        status = pole_status(domain, p)
        if status == "inside":
            raise PoleInsideError(
                f"singular set z{p.var + 1} = {p.location} lies inside the domain")
        if status == "boundary":
            out.append(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# Growth estimation


@dataclass(frozen=True)
class GrowthEstimate:
    k_hat: float                  # estimated growth exponent, clamped >= 0
    C_hat: float
    r2: float
    samples_used: int
    target: PoleDescriptor | None = None


def _inward_direction(domain: PiecewiseDomain, z0: np.ndarray) -> np.ndarray:
    """Unit inward vector at a boundary point: minus the summed normals."""
    zb = z0[None, :]
    total = np.zeros(2 * domain.ambient_dim)
    scale = 1.0 + float(np.max(np.abs(z0)))
    for piece in domain.pieces:
        if abs(float(piece.rho(zb)[0])) < 1e-7 * scale:
            g = piece.grad_rho(zb)[0]
            nrm = np.linalg.norm(g)
            if nrm > 1e-12:
                total += g / nrm
    nrm = np.linalg.norm(total)
    if nrm < 1e-10:
        raise ScenarioError(f"cannot find an inward direction at {z0}")
    total /= -nrm
    return total[0::2] + 1j * total[1::2]


def _growth_anchor(domain: PiecewiseDomain, pole: PoleDescriptor) -> np.ndarray:
    """A boundary point on the pole's singular set to approach from inside."""
    if domain.ambient_dim == 1:
        return np.array([pole.location])
    other = domain.product_factors[1 - pole.var]
    sb, solid_map, _ = other.solid()
    # anchor at the center of the other factor's solid parameter box
    mid = np.array([[0.5 * (lo + hi) for lo, hi in sb]])
    w_other = solid_map(mid)[0]
    out = np.empty(2, dtype=np.complex128)
    out[pole.var] = pole.location
    out[1 - pole.var] = w_other
    return out


def estimate_growth(f: HolomorphicFunction, domain: PiecewiseDomain,
                    n_rays: int = 5) -> GrowthEstimate:
    """Fit the blow-up order of |f| along inward rays toward a boundary point.

    The point is on the singular set of the first boundary pole, or any
    boundary point when f has none.  Samples sup |f| over a fan of n_rays
    rays at dyadic distances d = scale * 2^-m, m = 3..12, and regresses
    log sup against log(1/d); the slope, clamped at zero, estimates the
    growth exponent k_hat.
    """
    bps = boundary_poles(domain, f)
    target = bps[0] if bps else None
    if target is not None:
        anchor = _growth_anchor(domain, target)
    else:
        # nothing blows up; any boundary point certifies exponent zero
        pts, _ = domain.boundary_samples(per_axis=8)
        anchor = pts[0]
    u = _inward_direction(domain, anchor)
    scale = min(1.0, domain.diameter() / 4.0)
    angles = np.linspace(-0.45, 0.45, max(n_rays, 1))
    distances = np.array([scale * 2.0 ** (-m) for m in range(3, 13)])
    sups = np.empty(len(distances))
    used = 0
    for i, d in enumerate(distances):
        probes = []
        for a in angles:
            dir_rot = u * np.exp(1j * a) if domain.ambient_dim == 1 else u
            probes.append(anchor + d * dir_rot)
        if domain.ambient_dim == 2 and target is not None:
            # fan across the other variable instead of rotating the ray
            other = 1 - target.var
            base = anchor + d * u
            for t in np.linspace(-0.2, 0.2, max(n_rays, 1)):
                q = base.copy()
                q[other] = q[other] + t * scale
                probes.append(q)
        probes = np.stack(probes)
        inside = domain.contains(probes, tol=1e-12)
        if not np.any(inside):
            probes = anchor[None, :] + d * u[None, :]
            inside = np.ones(1, dtype=bool)
        used += int(np.count_nonzero(inside))
        sups[i] = float(np.max(np.abs(f(probes[inside]))))
    good = sups > 0
    if np.count_nonzero(good) < 3:
        return GrowthEstimate(0.0, 1.0, 1.0, used, target)
    x = np.log(1.0 / distances[good])
    y = np.log(sups[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    var = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if var < 1e-30 else max(0.0, 1.0 - float(np.sum(resid**2)) / var)
    if var < 1e-30:
        slope = 0.0
    return GrowthEstimate(float(max(slope, 0.0)), float(np.exp(intercept)),
                          r2, used, target)
