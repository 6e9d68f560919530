"""Piecewise-smooth domains in C^n (n = 1, 2) and their boundary structure.

A domain is an intersection of smooth pieces, each cut out by a defining
function rho_j that is negative inside.  The module provides

* exact boundary and volume parametrizations for boxes, discs and their
  two-variable products, with orientation signs fixed automatically against
  the outward normal so that Stokes' theorem holds with the standard
  orientation of C^n;
* corner strata (intersections of several boundary hypersurfaces) located by
  damped Gauss-Newton from grid seeds, and their genericity classification
  through real and complex rank tests;
* translation chart covers with smooth partitions of unity, one outward
  vector per chart, sized so that every chart's weight vanishes identically
  near any boundary feature where its vector would stop being admissible.

Points are numpy arrays of shape (m, n) complex; real gradients use the
interleaved layout (x1, y1, x2, y2).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .bumps import AngularProfile, IntervalProfile, RadialProfile
from .errors import GeometryError, NoOutwardVectorError

__all__ = [
    "FacePatch",
    "VolumePatch",
    "SmoothPiece",
    "PiecewiseDomain",
    "StratumVerdict",
    "CornerStratum",
    "SupportBall",
    "TranslationChart",
    "ChartCover",
    "chart_margin",
    "nearest_boundary_gap",
    "product_domain",
    "domain_from_pieces",
    "validate_domain",
    "BoxFactor",
    "DiscFactor",
    "locate_strata",
    "classify_stratum",
    "build_chart_cover",
    "RANK_TOLERANCE",
]

RANK_TOLERANCE = 1e-8  # relative singular-value threshold for all rank tests
# relative eigenvalue cut for the Gram matrix of the Newton step: a squared
# singular-value ratio, kept well above the eigensolver's roundoff
_GRAM_RANK_TOLERANCE = 1e-12
_NEWTON_SWEEPS = 50          # Gauss-Newton sweeps per stratum subset
_MAX_STRATUM_SAMPLES = 48    # samples kept per stratum after deduplication


# ---------------------------------------------------------------------------
# Core containers


@dataclass(frozen=True)
class FacePatch:
    """One parametrized piece of a boundary hypersurface.

    ``param_map`` sends parameter batches (m, d) to ambient points (m, n);
    ``jacobian`` returns the complex tangent frame (m, n, d).  For n = 1 the
    patch is a curve (d = 1), for n = 2 a hypersurface (d = 3).
    """

    owner: int
    param_box: tuple[tuple[float, float], ...]
    param_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    orientation_sign: int
    active_mask: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    corner_params: tuple[float, ...] = ()
    periodic: bool = False


@dataclass(frozen=True)
class VolumePatch:
    """Exact parametrization of (part of) the solid domain."""

    param_box: tuple[tuple[float, float], ...]
    param_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class SmoothPiece:
    """A single defining inequality rho < 0 with its boundary patches."""

    rho: Callable[[np.ndarray], np.ndarray]
    grad_rho: Callable[[np.ndarray], np.ndarray]
    dbar_rho: Callable[[np.ndarray], np.ndarray]
    patches: tuple[FacePatch, ...]
    label: str = ""


@dataclass(frozen=True)
class PiecewiseDomain:
    ambient_dim: int
    pieces: tuple[SmoothPiece, ...]
    bounding_box: tuple[tuple[float, float], ...]
    volume_patches: tuple[VolumePatch, ...] = ()
    product_factors: tuple | None = None  # (factor0, factor1) metadata for n = 2
    label: str = ""

    def rho_all(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
        return np.stack([p.rho(z) for p in self.pieces])

    def contains(self, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        return np.all(self.rho_all(z) <= tol, axis=0)

    def diameter(self) -> float:
        return float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.bounding_box)))

    def boundary_samples(self, per_axis: int = 48) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic active boundary points and their owner piece index."""
        pts = []
        owners = []
        for j, piece in enumerate(self.pieces):
            for patch in piece.patches:
                d = len(patch.param_box)
                k = per_axis if d == 1 else max(6, int(round(per_axis ** (1.0 / d))))
                axes = [np.linspace(lo, hi, k + 2)[1:-1] for lo, hi in patch.param_box]
                grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
                z = patch.param_map(grid)
                if patch.active_mask is not None:
                    z = z[patch.active_mask(z)]
                pts.append(z)
                owners.append(np.full(len(z), j))
        if not pts:
            return np.zeros((0, self.ambient_dim), dtype=np.complex128), np.zeros(0, dtype=int)
        return np.concatenate(pts), np.concatenate(owners)

    def interior_point(self) -> np.ndarray:
        """A point well inside the domain, found on a deterministic grid.

        The grid is scanned one slab of its first axis at a time, so a 2-D
        domain never holds all 39^4 points at once.  The strict comparison
        across slabs keeps the first minimum in C order, the point a single
        argmin over the whole grid picks.
        """
        axes = [np.linspace(lo, hi, 41)[1:-1] for lo, hi in self.bounding_box]
        rest = np.stack([g.reshape(-1) for g in np.meshgrid(*axes[1:], indexing="ij")],
                        axis=-1)
        best_depth, best_z = np.inf, None
        for x0 in axes[0]:
            grid = np.concatenate([np.full((len(rest), 1), x0), rest], axis=1)
            z = grid[:, 0::2] + 1j * grid[:, 1::2]
            depth = np.max(self.rho_all(z), axis=0)
            i = int(np.argmin(depth))
            if depth[i] < best_depth:
                best_depth, best_z = depth[i], z[i]
        if best_depth >= 0:
            raise GeometryError("domain has empty interior")
        return best_z

    def interior_points(self, count: int, margin: float = 0.0, seed: int = 0) -> np.ndarray:
        """Deterministic pseudo-random interior sample, rho <= -margin."""
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.bounding_box])
        hi = np.array([b for _, b in self.bounding_box])
        out = []
        for _ in range(200):
            u = rng.uniform(lo, hi, size=(max(4 * count, 64), len(lo)))
            z = u[:, 0::2] + 1j * u[:, 1::2]
            keep = np.max(self.rho_all(z), axis=0) <= -margin
            out.append(z[keep])
            if sum(len(a) for a in out) >= count:
                break
        pts = np.concatenate(out) if out else np.zeros((0, self.ambient_dim), complex)
        if len(pts) < count:
            raise GeometryError(f"could not draw {count} interior points at margin {margin}")
        return pts[:count]


def validate_domain(domain: PiecewiseDomain) -> None:
    """Structural checks: nonempty interior, clean gradients, patches on faces."""
    domain.interior_point()  # raises when empty
    pts, owners = domain.boundary_samples(per_axis=24)
    if len(pts) == 0:
        raise GeometryError("domain has no boundary patches")
    for j, piece in enumerate(domain.pieces):
        mine = pts[owners == j]
        if len(mine) == 0:
            continue
        residual = np.max(np.abs(piece.rho(mine)))
        if residual > 1e-8 * (1.0 + domain.diameter()):
            raise GeometryError(f"patch points leave the zero set of piece {j} ({residual:.2e})")
        grad_norm = np.min(np.linalg.norm(piece.grad_rho(mine), axis=-1))
        if grad_norm < 1e-8:
            raise GeometryError(f"defining gradient of piece {j} vanishes on its face")
        # dbar must be the Wirtinger combination of the real gradient
        g = piece.grad_rho(mine)
        expected = 0.5 * (g[:, 0::2] - 1j * g[:, 1::2])
        if np.max(np.abs(expected - piece.dbar_rho(mine))) > 1e-9 * (1.0 + np.max(np.abs(g))):
            raise GeometryError(f"dbar_rho of piece {j} is inconsistent with grad_rho")


# ---------------------------------------------------------------------------
# Orientation: the sign making [outward normal | tangent frame] positively
# oriented in the interleaved real coordinates, checked at several samples.


def _complex_frame_to_real(frame: np.ndarray) -> np.ndarray:
    m, n, d = frame.shape
    out = np.empty((m, 2 * n, d))
    out[:, 0::2, :] = frame.real
    out[:, 1::2, :] = frame.imag
    return out


def _orientation_sign(grad_rho, chart_map, frame_fn, param_box) -> int:
    axes = [np.linspace(lo, hi, 4)[1:-1] for lo, hi in param_box]
    params = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    z = chart_map(params)
    g = grad_rho(z)
    g = g / np.linalg.norm(g, axis=-1, keepdims=True)
    T = _complex_frame_to_real(frame_fn(params))
    M = np.concatenate([g[:, :, None], T], axis=2)
    dets = np.linalg.det(M)
    if np.any(np.abs(dets) < 1e-12):
        raise GeometryError("degenerate tangent frame while orienting a patch")
    signs = np.sign(dets)
    if np.any(signs != signs[0]):
        raise GeometryError("inconsistent orientation across a patch")
    return int(signs[0])


# ---------------------------------------------------------------------------
# One-variable factors (box / disc) with exact curves, solids and cover tiles


@dataclass(frozen=True)
class _Curve:
    """A boundary curve of a factor, in the factor's own complex plane."""

    t_range: tuple[float, float]
    point: Callable[[np.ndarray], np.ndarray]       # (m,) -> (m,) complex
    velocity: Callable[[np.ndarray], np.ndarray]    # (m,) -> (m,) complex
    label: str
    periodic: bool = False


@dataclass(frozen=True)
class _Tile:
    """A cover tile on a factor: weight profile plus one outward direction."""

    profile: Callable[[np.ndarray], np.ndarray]  # (m,) complex in factor plane -> (m,) float
    v: complex
    center: complex
    radius: float
    label: str
    kind: str  # "corner" | "strip"


@dataclass(frozen=True)
class BoxFactor:
    x_range: tuple[float, float]
    y_range: tuple[float, float]

    def piece_defs(self):
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        return [("x", "min", x0), ("x", "max", x1), ("y", "min", y0), ("y", "max", y1)]

    def curves(self) -> list[_Curve]:
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        return [
            _Curve((x0, x1), lambda t, y0=y0: t + 1j * y0, lambda t: np.ones_like(t) + 0j, "x-edge-low"),
            _Curve((x0, x1), lambda t, y1=y1: t + 1j * y1, lambda t: np.ones_like(t) + 0j, "x-edge-high"),
            _Curve((y0, y1), lambda t, x0=x0: x0 + 1j * t, lambda t: 1j * np.ones_like(t), "y-edge-low"),
            _Curve((y0, y1), lambda t, x1=x1: x1 + 1j * t, lambda t: 1j * np.ones_like(t), "y-edge-high"),
        ]

    def curve_owner(self, idx: int) -> int:
        # order of piece_defs: x-min, x-max, y-min, y-max; curves listed
        # bottom, top, left, right
        return [2, 3, 0, 1][idx]

    def corners(self) -> list[complex]:
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]

    def solid(self):
        box = (self.x_range, self.y_range)
        return box, (lambda u: u[:, 0] + 1j * u[:, 1]), (lambda u: np.ones(len(u)))

    def solid_frame(self):
        # d z / d u for the two solid parameters
        return lambda u: np.stack([np.ones(len(u), complex), 1j * np.ones(len(u), complex)], axis=-1)

    def interior_profile(self, radius: float):
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        r1, r2 = radius / 3.0, 2.0 * radius / 3.0
        px = IntervalProfile(x0 + r1, x0 + r2, x1 - r2, x1 - r1)
        py = IntervalProfile(y0 + r1, y0 + r2, y1 - r2, y1 - r1)
        center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        rad = float(np.hypot(x1 - x0, y1 - y0)) / 2.0
        return (lambda w: px(w.real) * py(w.imag)), center, rad

    def boundary_tiles(self, radius: float, overlap: float, arcs: int,
                       v_rotation: float = 0.0) -> list[_Tile]:
        rot = np.exp(1j * v_rotation)
        tiles: list[_Tile] = []
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        normals = {"b": -1j, "t": 1j, "l": -1.0, "r": 1.0}
        corner_normals = {
            complex(x0, y0): (-1 - 1j), complex(x1, y0): (1 - 1j),
            complex(x1, y1): (1 + 1j), complex(x0, y1): (-1 + 1j),
        }
        for c, nsum in corner_normals.items():
            v = nsum / abs(nsum) * rot
            prof = RadialProfile(radius / 2.0, radius)
            tiles.append(_Tile(lambda w, c=c, prof=prof: prof(np.abs(w - c)),
                               v, c, radius, f"corner({c.real:g},{c.imag:g})", "corner"))
        dead, plat = radius / 3.0, radius * (0.5 + 0.5 * min(max(overlap, 0.05), 0.45))
        transverse = RadialProfile(radius / 3.0, 2.0 * radius / 3.0)
        sides = [
            ("b", x0, x1, lambda w: w.real, lambda w: np.abs(w.imag - y0)),
            ("t", x0, x1, lambda w: w.real, lambda w: np.abs(w.imag - y1)),
            ("l", y0, y1, lambda w: w.imag, lambda w: np.abs(w.real - x0)),
            ("r", y0, y1, lambda w: w.imag, lambda w: np.abs(w.real - x1)),
        ]
        for name, s0, s1, along, across in sides:
            if s1 - s0 <= 2.2 * plat:
                continue  # corner plateaus already cover a short side
            prof_s = IntervalProfile(s0 + dead, s0 + plat, s1 - plat, s1 - dead)
            v = normals[name] * rot
            mid = 0.5 * (s0 + s1)
            center = {"b": complex(mid, y0), "t": complex(mid, y1),
                      "l": complex(x0, mid), "r": complex(x1, mid)}[name]
            tiles.append(_Tile(
                lambda w, prof_s=prof_s, along=along, across=across:
                    prof_s(along(w)) * transverse(across(w)),
                v, center, 0.5 * (s1 - s0) + radius, f"strip-{name}", "strip"))
        return tiles


@dataclass(frozen=True)
class DiscFactor:
    center: complex
    radius_disc: float

    def piece_defs(self):
        return [("disc", self.center, self.radius_disc)]

    def curves(self) -> list[_Curve]:
        c, R = self.center, self.radius_disc
        return [_Curve((0.0, 2.0 * np.pi),
                       lambda t: c + R * np.exp(1j * t),
                       lambda t: 1j * R * np.exp(1j * t),
                       "circle", periodic=True)]

    def curve_owner(self, idx: int) -> int:
        return 0

    def corners(self) -> list[complex]:
        return []

    def solid(self):
        c, R = self.center, self.radius_disc
        box = ((0.0, R), (0.0, 2.0 * np.pi))
        return box, (lambda u, c=c: c + u[:, 0] * np.exp(1j * u[:, 1])), (lambda u: u[:, 0].copy())

    def solid_frame(self):
        return lambda u: np.stack([np.exp(1j * u[:, 1]),
                                   1j * u[:, 0] * np.exp(1j * u[:, 1])], axis=-1)

    def interior_profile(self, radius: float):
        c, R = self.center, self.radius_disc
        prof = RadialProfile(max(R - 2.0 * radius / 3.0, R * 0.3),
                             max(R - radius / 3.0, R * 0.55))
        return (lambda w: prof(np.abs(w - c))), c, R

    def boundary_tiles(self, radius: float, overlap: float, arcs: int,
                       v_rotation: float = 0.0) -> list[_Tile]:
        c, R = self.center, self.radius_disc
        arcs = max(int(arcs), 4)
        half = np.pi / arcs
        radial = RadialProfile(radius / 3.0, 2.0 * radius / 3.0)
        tiles = []
        for k in range(arcs):
            theta = 2.0 * np.pi * k / arcs
            ang = AngularProfile(theta, half * 1.15, min(half * 1.6, np.pi * 0.9))
            v = np.exp(1j * (theta + v_rotation))
            tiles.append(_Tile(
                lambda w, ang=ang, radial=radial, c=c, R=R:
                    ang(np.angle(w - c)) * radial(np.abs(np.abs(w - c) - R)),
                v, c + R * np.exp(1j * theta), R * half * 2.0 + radius,
                f"arc{k}", "strip"))
        return tiles


def _factor_pieces(factor, var: int, ambient_dim: int) -> list[tuple]:
    """(rho, grad, dbar, label) callables for each defining inequality."""
    out = []
    for defn in factor.piece_defs():
        if defn[0] in ("x", "y"):
            axis, side, value = defn
            sign = -1.0 if side == "min" else 1.0
            comp = (lambda z, var=var: z[..., var].real) if axis == "x" else \
                   (lambda z, var=var: z[..., var].imag)
            slot = 2 * var + (0 if axis == "x" else 1)

            def rho(z, comp=comp, sign=sign, value=value):
                return sign * (comp(z) - value)

            def grad(z, slot=slot, sign=sign, ambient_dim=ambient_dim):
                g = np.zeros(z.shape[:-1] + (2 * ambient_dim,))
                g[..., slot] = sign
                return g

            wirt = 0.5 * sign if axis == "x" else -0.5j * sign

            def dbar(z, var=var, wirt=wirt, ambient_dim=ambient_dim):
                g = np.zeros(z.shape[:-1] + (ambient_dim,), dtype=np.complex128)
                g[..., var] = wirt
                return g

            out.append((rho, grad, dbar, f"{axis}-{side}({value:g})"))
        else:
            _, c, R = defn

            def rho(z, var=var, c=c, R=R):
                return np.abs(z[..., var] - c) ** 2 - R * R

            def grad(z, var=var, c=c, ambient_dim=ambient_dim):
                g = np.zeros(z.shape[:-1] + (2 * ambient_dim,))
                w = z[..., var] - c
                g[..., 2 * var] = 2.0 * w.real
                g[..., 2 * var + 1] = 2.0 * w.imag
                return g

            def dbar(z, var=var, c=c, ambient_dim=ambient_dim):
                g = np.zeros(z.shape[:-1] + (ambient_dim,), dtype=np.complex128)
                g[..., var] = np.conj(z[..., var] - c)
                return g

            out.append((rho, grad, dbar, f"disc({c:g},{R:g})"))
    return out


def _factor_bbox(factor) -> tuple[tuple[float, float], tuple[float, float]]:
    if isinstance(factor, BoxFactor):
        return factor.x_range, factor.y_range
    c, R = factor.center, factor.radius_disc
    return (c.real - R, c.real + R), (c.imag - R, c.imag + R)


# ---------------------------------------------------------------------------
# Domain builders


def _embed_curve_1d(curve: _Curve, owner: int, grad_rho, corner_ts) -> FacePatch:
    def chart_map(params: np.ndarray) -> np.ndarray:
        return curve.point(params[:, 0])[:, None]

    def frame(params: np.ndarray) -> np.ndarray:
        return curve.velocity(params[:, 0])[:, None, None]

    sign = _orientation_sign(grad_rho, chart_map, frame, (curve.t_range,))
    return FacePatch(owner, (curve.t_range,), chart_map, frame, sign,
                     label=curve.label, corner_params=tuple(corner_ts),
                     periodic=curve.periodic)


def _single_factor_domain(factor, label: str) -> PiecewiseDomain:
    defs = _factor_pieces(factor, 0, 1)
    curves = factor.curves()
    corner_pts = factor.corners()
    pieces = []
    for j, (rho, grad, dbar, plabel) in enumerate(defs):
        patches = []
        for idx, curve in enumerate(curves):
            if factor.curve_owner(idx) != j:
                continue
            ts = [t for c in corner_pts
                  if (t := _param_on_curve(curve.point, curve.t_range, c)) is not None]
            patches.append(_embed_curve_1d(curve, j, grad, sorted(ts)))
        pieces.append(SmoothPiece(rho, grad, dbar, tuple(patches), plabel))
    solid_box, solid_map, solid_jac = factor.solid()
    vol = VolumePatch(solid_box,
                      lambda u, m=solid_map: m(u)[:, None],
                      solid_jac, label="solid")
    bx, by = _factor_bbox(factor)
    return PiecewiseDomain(1, tuple(pieces), (bx, by), (vol,),
                           product_factors=(factor,), label=label)


def _param_on_curve(point_at: Callable[[np.ndarray], np.ndarray],
                    t_range: tuple[float, float], point: complex) -> float | None:
    """The parameter t in ``t_range`` with point_at(t) within 1e-7 of
    ``point``, or None; ``point_at`` maps (m,) parameters to (m,) points."""
    ts = np.linspace(t_range[0], t_range[1], 513)
    d = np.abs(point_at(ts) - point)
    k = int(np.argmin(d))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    for _ in range(60):
        mids = np.linspace(lo, hi, 9)
        dm = np.abs(point_at(mids) - point)
        k = int(np.argmin(dm))
        lo, hi = mids[max(k - 1, 0)], mids[min(k + 1, 8)]
    t = 0.5 * (lo + hi)
    if abs(complex(point_at(np.array([t]))[0]) - point) < 1e-7:
        return float(t)
    return None


def product_domain(factor0, factor1, label: str = "") -> PiecewiseDomain:
    """Product of two one-variable factors inside C^2."""
    defs0 = _factor_pieces(factor0, 0, 2)
    defs1 = _factor_pieces(factor1, 1, 2)
    factors = (factor0, factor1)
    all_defs = [(0, d) for d in defs0] + [(1, d) for d in defs1]

    pieces = []
    piece_idx = 0
    for var, (rho, grad, dbar, plabel) in all_defs:
        factor = factors[var]
        other = factors[1 - var]
        patches = _product_patches(factor, other, var, piece_idx, len(defs0), grad)
        pieces.append(SmoothPiece(rho, grad, dbar, tuple(patches), f"z{var + 1}:{plabel}"))
        piece_idx += 1

    sb0, sm0, sj0 = factor0.solid()
    sb1, sm1, sj1 = factor1.solid()

    def vol_map(u):
        return np.stack([sm0(u[:, 0:2]), sm1(u[:, 2:4])], axis=-1)

    def vol_jac(u):
        return sj0(u[:, 0:2]) * sj1(u[:, 2:4])

    vol = VolumePatch(tuple(sb0) + tuple(sb1), vol_map, vol_jac, "solid-product")
    b0x, b0y = _factor_bbox(factor0)
    b1x, b1y = _factor_bbox(factor1)
    return PiecewiseDomain(2, tuple(pieces), (b0x, b0y, b1x, b1y), (vol,),
                           product_factors=factors, label=label or "product")


def _product_patches(factor, other, var: int, owner: int, n_defs0: int, grad_rho):
    """Faces of one piece of a product domain: factor curve x other solid."""
    local_defs = factor.piece_defs()
    local_owner = owner if var == 0 else owner - n_defs0
    solid_box, solid_map, _ = other.solid()
    solid_frame = other.solid_frame()
    patches = []
    for idx, curve in enumerate(factor.curves()):
        if factor.curve_owner(idx) != local_owner:
            continue

        def chart_map(params, curve=curve):
            w = curve.point(params[:, 0])
            s = solid_map(params[:, 1:3])
            cols = [w, s] if var == 0 else [s, w]
            return np.stack(cols, axis=-1)

        def frame(params, curve=curve):
            m = len(params)
            vel = curve.velocity(params[:, 0])
            sf = solid_frame(params[:, 1:3])  # (m, 2) complex per solid param
            out = np.zeros((m, 2, 3), dtype=np.complex128)
            out[:, var, 0] = vel
            out[:, 1 - var, 1] = sf[:, 0]
            out[:, 1 - var, 2] = sf[:, 1]
            return out

        box = (curve.t_range,) + tuple(solid_box)
        sign = _orientation_sign(grad_rho, chart_map, frame, box)
        ts = [t for c in factor.corners()
              if (t := _param_on_curve(curve.point, curve.t_range, c)) is not None]
        patches.append(FacePatch(owner, box, chart_map, frame, sign,
                                 label=f"z{var + 1}-{curve.label}",
                                 corner_params=tuple(sorted(ts)),
                                 periodic=curve.periodic))
    return patches


def domain_from_pieces(piece_specs: Sequence[dict], ambient_dim: int,
                       bounding_box=None, label: str = "") -> PiecewiseDomain:
    """Build a domain from scenario piece descriptions.

    Box-side and disc pieces that assemble into a box, a disc, or a product
    of such factors get exact parametrizations.  Any other one-variable
    combination (general halfplanes, several discs) falls back to
    bounding-box-clipped curves with activity masks.  Unsupported
    two-variable combinations raise GeometryError.
    """
    if ambient_dim == 1:
        factor = _recognize_factor(piece_specs, var=0)
        if factor is not None:
            return _single_factor_domain(factor, label or "factor")
        return _generic_domain_1d(piece_specs, bounding_box, label)
    by_var: dict[int, list[dict]] = {0: [], 1: []}
    for ps in piece_specs:
        var = int(ps.get("var", 1 if ps.get("kind") == "polydisc-factor" else 0))
        if var not in (0, 1):
            raise GeometryError(f"piece var must be 0 or 1, got {var}")
        by_var[var].append(ps)
    f0 = _recognize_factor(by_var[0], var=0)
    f1 = _recognize_factor(by_var[1], var=1)
    if f0 is None or f1 is None:
        raise GeometryError("two-variable domains must be products of a box or "
                            "disc in each variable")
    return product_domain(f0, f1, label=label or "product")


def _recognize_factor(piece_specs: Sequence[dict], var: int):
    kinds = [ps["kind"] for ps in piece_specs]
    if len(piece_specs) == 1 and kinds[0] in ("disc", "polydisc-factor"):
        ps = piece_specs[0]
        return DiscFactor(_as_complex(ps["center"]), float(ps["radius"]))
    if len(piece_specs) == 4 and all(k == "box-side" for k in kinds):
        found = {}
        for ps in piece_specs:
            found[(ps["axis"], ps["side"])] = float(ps["value"])
        need = {("x", "min"), ("x", "max"), ("y", "min"), ("y", "max")}
        if set(found) == need and found[("x", "min")] < found[("x", "max")] \
                and found[("y", "min")] < found[("y", "max")]:
            return BoxFactor((found[("x", "min")], found[("x", "max")]),
                             (found[("y", "min")], found[("y", "max")]))
    return None


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        from .rational import compile_node, parse_expression
        node = parse_expression(value, 1)
        return complex(compile_node(node, 1)(np.zeros((1, 1), complex))[0])
    return complex(value)


def _generic_domain_1d(piece_specs, bounding_box, label) -> PiecewiseDomain:
    if bounding_box is None:
        bounding_box = _infer_bbox_1d(piece_specs)
    pieces_raw = []
    for ps in piece_specs:
        kind = ps["kind"]
        if kind == "halfplane":
            a, b, c = float(ps["a"]), float(ps["b"]), float(ps["c"])
            pieces_raw.append(_halfplane_callables(a, b, c))
        elif kind == "box-side":
            sign = -1.0 if ps["side"] == "min" else 1.0
            if ps["axis"] == "x":
                pieces_raw.append(_halfplane_callables(sign, 0.0, -sign * float(ps["value"])))
            else:
                pieces_raw.append(_halfplane_callables(0.0, sign, -sign * float(ps["value"])))
        elif kind in ("disc", "polydisc-factor"):
            c, R = _as_complex(ps["center"]), float(ps["radius"])
            pieces_raw.append(_factor_pieces(DiscFactor(c, R), 0, 1)[0])
        else:
            raise GeometryError(f"unknown piece kind {kind!r}")

    def others_mask(exclude: int):
        def mask(z, exclude=exclude):
            ok = np.ones(len(z), dtype=bool)
            for j, (rho, _, _, _) in enumerate(pieces_raw):
                if j == exclude:
                    continue
                ok &= rho(z) <= 1e-9
            return ok
        return mask

    pieces = []
    for j, (rho, grad, dbar, plabel) in enumerate(pieces_raw):
        curve = _zero_curve_1d(piece_specs[j], bounding_box)
        patches = ()
        if curve is not None:
            def chart_map(params, curve=curve):
                return curve.point(params[:, 0])[:, None]

            def frame(params, curve=curve):
                return curve.velocity(params[:, 0])[:, None, None]

            sign = _orientation_sign(grad, chart_map, frame, (curve.t_range,))
            patches = (FacePatch(j, (curve.t_range,), chart_map, frame, sign,
                                 active_mask=others_mask(j), label=curve.label,
                                 periodic=curve.periodic),)
        pieces.append(SmoothPiece(rho, grad, dbar, patches, plabel))
    return PiecewiseDomain(1, tuple(pieces), bounding_box, (),
                           product_factors=None, label=label or "generic")


def _halfplane_callables(a: float, b: float, c: float):
    def rho(z):
        return a * z[..., 0].real + b * z[..., 0].imag + c

    def grad(z):
        g = np.zeros(z.shape[:-1] + (2,))
        g[..., 0] = a
        g[..., 1] = b
        return g

    def dbar(z):
        g = np.zeros(z.shape[:-1] + (1,), dtype=np.complex128)
        g[..., 0] = 0.5 * (a - 1j * b)
        return g

    return rho, grad, dbar, f"halfplane({a:g},{b:g},{c:g})"


def _zero_curve_1d(ps: dict, bounding_box) -> _Curve | None:
    (x0, x1), (y0, y1) = bounding_box
    kind = ps["kind"]
    if kind in ("disc", "polydisc-factor"):
        c, R = _as_complex(ps["center"]), float(ps["radius"])
        return _Curve((0.0, 2.0 * np.pi), lambda t: c + R * np.exp(1j * t),
                      lambda t: 1j * R * np.exp(1j * t), "circle", periodic=True)
    if kind == "box-side":
        sign = -1.0 if ps["side"] == "min" else 1.0
        if ps["axis"] == "x":
            a, b, c = sign, 0.0, -sign * float(ps["value"])
        else:
            a, b, c = 0.0, sign, -sign * float(ps["value"])
    else:
        a, b, c = float(ps["a"]), float(ps["b"]), float(ps["c"])
    nrm = float(np.hypot(a, b))
    if nrm < 1e-14:
        raise GeometryError("halfplane with zero normal")
    p0 = np.array([-a * c, -b * c]) / nrm**2
    u = np.array([-b, a]) / nrm
    # clip the line p0 + t u to the bounding box
    t_lo, t_hi = -np.inf, np.inf
    for k, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        if abs(u[k]) < 1e-15:
            if not (lo - 1e-12 <= p0[k] <= hi + 1e-12):
                return None
            continue
        ta = (lo - p0[k]) / u[k]
        tb = (hi - p0[k]) / u[k]
        t_lo = max(t_lo, min(ta, tb))
        t_hi = min(t_hi, max(ta, tb))
    if not (t_lo < t_hi):
        return None
    z0 = complex(p0[0], p0[1])
    w = complex(u[0], u[1])
    return _Curve((float(t_lo), float(t_hi)),
                  lambda t, z0=z0, w=w: z0 + t * w,
                  lambda t, w=w: np.full_like(t, w, dtype=np.complex128),
                  "line")


def _infer_bbox_1d(piece_specs) -> tuple[tuple[float, float], tuple[float, float]]:
    xs, ys = [], []
    for ps in piece_specs:
        if ps["kind"] in ("disc", "polydisc-factor"):
            c, R = _as_complex(ps["center"]), float(ps["radius"])
            xs += [c.real - R, c.real + R]
            ys += [c.imag - R, c.imag + R]
        elif ps["kind"] == "box-side":
            (xs if ps["axis"] == "x" else ys).append(float(ps["value"]))
    if len(xs) < 2 or len(ys) < 2:
        raise GeometryError("cannot infer a bounding box; supply one explicitly")
    pad = 0.0
    return ((min(xs) - pad, max(xs) + pad), (min(ys) - pad, max(ys) + pad))


# ---------------------------------------------------------------------------
# Corner strata


class StratumVerdict(str, Enum):
    GENERIC = "GENERIC"
    NON_GENERIC_COMPLEX_RANK = "NON_GENERIC_COMPLEX_RANK"
    NON_GENERIC_CARDINALITY = "NON_GENERIC_CARDINALITY"
    NOT_TRANSVERSAL = "NOT_TRANSVERSAL"
    EMPTY = "EMPTY"


@dataclass(frozen=True)
class CornerStratum:
    subset: tuple[int, ...]
    samples: np.ndarray           # (k, n) complex, may be empty
    in_closure: np.ndarray        # (k,) bool
    verdict: StratumVerdict
    rank_data: tuple[dict, ...] = ()


def _rank(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, sv
    return int(np.sum(sv > RANK_TOLERANCE * sv[0])), sv


def classify_stratum(domain: PiecewiseDomain,
                     stratum: CornerStratum) -> CornerStratum:
    """Return the stratum with its verdict and per-sample rank data filled in.

    Cardinality is checked first, then the real rank of the gradients
    (transversality), then the complex rank of the (1,0) parts.  Only samples
    lying in the closed domain count; solutions outside it are not boundary
    points.
    """
    usable = stratum.samples[stratum.in_closure] if len(stratum.samples) else \
        stratum.samples
    verdict, data = _classify_samples(domain, stratum.subset, usable)
    return CornerStratum(stratum.subset, stratum.samples, stratum.in_closure,
                         verdict, data)


def _classify_samples(domain: PiecewiseDomain, pieces: Sequence[int],
                      samples: np.ndarray) -> tuple[StratumVerdict, tuple[dict, ...]]:
    subset = tuple(int(j) for j in pieces)
    n = domain.ambient_dim
    if len(samples) == 0:
        return StratumVerdict.EMPTY, ()
    if len(subset) > n:
        return StratumVerdict.NON_GENERIC_CARDINALITY, ()
    reports = []
    worst = StratumVerdict.GENERIC
    order = {StratumVerdict.GENERIC: 0, StratumVerdict.NON_GENERIC_COMPLEX_RANK: 1,
             StratumVerdict.NOT_TRANSVERSAL: 2}
    for z in np.atleast_2d(samples):
        zb = z[None, :]
        greal = np.concatenate([domain.pieces[j].grad_rho(zb) for j in subset])
        dbar = np.concatenate([domain.pieces[j].dbar_rho(zb) for j in subset])
        r_real, sv_real = _rank(greal)
        r_cplx, sv_cplx = _rank(dbar)
        if r_real < len(subset):
            verdict = StratumVerdict.NOT_TRANSVERSAL
        elif r_cplx < len(subset):
            verdict = StratumVerdict.NON_GENERIC_COMPLEX_RANK
        else:
            verdict = StratumVerdict.GENERIC
        reports.append({
            "point": [complex(w) for w in z],
            "real_rank": r_real,
            "complex_rank": r_cplx,
            "sv_real": [float(s) for s in sv_real],
            "sv_complex": [float(s) for s in sv_cplx],
            "verdict": verdict.value,
        })
        if order[verdict] > order[worst]:
            worst = verdict
    return worst, tuple(reports)


def locate_strata(domain: PiecewiseDomain, grid_resolution: int | None = None
                  ) -> tuple[CornerStratum, ...]:
    """Find and classify every stratum B_S = intersection of two or more
    boundary pieces.

    Seeds come from a bounding-box grid; each seed runs a damped Gauss-Newton
    on the defining functions of the subset, whose step is the minimum-norm
    least-squares step -pinv(J) r (see ``_gauss_newton_step``), so subsets
    with parallel faces settle at a least-squares point instead of failing.
    Samples are deduplicated on the grid scale and capped at
    ``_MAX_STRATUM_SAMPLES`` per stratum, deterministically.

    Subsets run in increasing size, and a subset containing a smaller one
    that found no samples is not solved: B_S lies in B_T for T inside S, its
    seeds are among T's, and every root of S's equations is a root of T's.
    It gets the stratum an empty solve gives.
    """
    n = domain.ambient_dim
    res = (28 if n == 1 else 10) if grid_resolution is None else grid_resolution
    axes = [np.linspace(lo, hi, res) for lo, hi in domain.bounding_box]
    cell = np.array([(hi - lo) / max(res - 1, 1) for lo, hi in domain.bounding_box])
    cell_diag = float(np.linalg.norm(cell))
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    zgrid = grid[:, 0::2] + 1j * grid[:, 1::2]
    rho_grid = domain.rho_all(zgrid)          # (N, m)
    grad_scale = np.stack([np.maximum(np.linalg.norm(p.grad_rho(zgrid), axis=-1), 1e-9)
                           for p in domain.pieces])

    strata = []
    empty: set[tuple[int, ...]] = set()   # subsets that found no samples
    npieces = len(domain.pieces)
    for size in range(2, npieces + 1):
        for subset in itertools.combinations(range(npieces), size):
            samples = np.zeros((0, n), dtype=np.complex128)
            if not any(subset[:k] + subset[k + 1:] in empty for k in range(size)):
                near = np.ones(len(zgrid), dtype=bool)
                for j in subset:
                    near &= np.abs(rho_grid[j]) / grad_scale[j] < 1.8 * cell_diag
                seeds = grid[near]
                if len(seeds):
                    samples = _dedupe(_newton_solve(domain, subset, seeds),
                                      1.2 * cell_diag, _MAX_STRATUM_SAMPLES)
            if len(samples) == 0:
                empty.add(subset)
            in_closure = np.array(
                [bool(np.all(domain.rho_all(s[None, :]) <= 1e-7)) for s in samples],
                dtype=bool) if len(samples) else np.zeros(0, dtype=bool)
            raw = CornerStratum(subset, samples, in_closure, StratumVerdict.EMPTY)
            strata.append(classify_stratum(domain, raw))
    return tuple(strata)


def _newton_solve(domain: PiecewiseDomain, subset, seeds: np.ndarray) -> np.ndarray:
    lo = np.array([a for a, _ in domain.bounding_box])
    hi = np.array([b for _, b in domain.bounding_box])
    x = np.array(seeds, dtype=float)

    def residual(xr):
        z = xr[:, 0::2] + 1j * xr[:, 1::2]
        return np.stack([domain.pieces[j].rho(z) for j in subset], axis=-1)

    def jac(xr):
        z = xr[:, 0::2] + 1j * xr[:, 1::2]
        return np.stack([domain.pieces[j].grad_rho(z) for j in subset], axis=1)

    r = residual(x)
    rnorm = np.linalg.norm(r, axis=-1)
    for _ in range(_NEWTON_SWEEPS):
        step = _gauss_newton_step(jac(x), r)
        scale = np.ones(len(x))
        for _ in range(8):  # halve the step until the residual stops growing
            trial = np.clip(x + scale[:, None] * step, lo, hi)
            rt = residual(trial)
            rtn = np.linalg.norm(rt, axis=-1)
            worse = rtn > rnorm * (1.0 + 1e-12)
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        x_next = np.clip(x + scale[:, None] * step, lo, hi)
        if x_next.tobytes() == x.tobytes():
            break  # a fixed point: every further sweep would repeat this one
        x = x_next
        r = residual(x)
        rnorm = np.linalg.norm(r, axis=-1)
        if np.all((rnorm <= 1e-12) | (rnorm > 1e3)):
            break
    good = rnorm <= 1e-10 * (1.0 + np.linalg.norm(x, axis=-1))
    z = x[good, 0::2] + 1j * x[good, 1::2]
    return z


def _gauss_newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The minimum-norm Gauss-Newton step -pinv(J) r for a batch (m, k, d).

    Works on the smaller Gram matrix G: J^T G^+ r with G = J J^T when J has no
    more rows than columns, G^+ J^T r with G = J^T J otherwise.  G^+ comes from
    the eigendecomposition of G with eigenvalues below _GRAM_RANK_TOLERANCE
    times the largest dropped, a cut unchanged by scaling J, so subsets with
    parallel faces get the exact pinv step.  A ridge term in place of the cut
    would bias the step: far beyond roundoff on rank-deficient seeds, and on
    full-rank ones enough to move the square's exact corners.
    """
    Jt = np.swapaxes(J, 1, 2)
    wide = J.shape[1] <= J.shape[2]
    G = J @ Jt if wide else Jt @ J
    rhs = r[..., None] if wide else Jt @ r[..., None]
    w, V = np.linalg.eigh(G)
    keep = w > _GRAM_RANK_TOLERANCE * w[:, -1:]
    w_inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    y = V @ (w_inv[..., None] * (np.swapaxes(V, 1, 2) @ rhs))
    return -(Jt @ y if wide else y)[..., 0]


def _dedupe(samples: np.ndarray, radius: float, cap: int) -> np.ndarray:
    if len(samples) == 0:
        return samples
    flat = np.concatenate([samples.real, samples.imag], axis=1)
    order = np.lexsort(np.round(flat, 9).T[::-1])
    free = np.ones(len(flat), dtype=bool)
    chosen: list[int] = []
    for idx in order:
        if free[idx]:  # farther than radius from every point chosen so far
            chosen.append(idx)
            free &= np.linalg.norm(flat - flat[idx], axis=1) > radius
    if len(chosen) > cap:
        stride = np.linspace(0, len(chosen) - 1, cap).round().astype(int)
        chosen = [chosen[i] for i in np.unique(stride)]
    return samples[np.array(chosen, dtype=int)]


# ---------------------------------------------------------------------------
# Distance to the boundary


def nearest_boundary_gap(domain: PiecewiseDomain, point: np.ndarray) -> float:
    """Distance from a point, inside the domain or not, to the active boundary."""
    p = np.atleast_1d(np.asarray(point, dtype=np.complex128))
    best = np.inf
    best_patch = None
    best_param = None
    for piece in domain.pieces:
        for patch in piece.patches:
            d = len(patch.param_box)
            k = 192 if d == 1 else 14
            axes = [np.linspace(lo, hi, k) for lo, hi in patch.param_box]
            grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
            z = patch.param_map(grid)
            dist = np.sqrt(np.sum(np.abs(z - p) ** 2, axis=-1))
            if patch.active_mask is not None:
                dist = np.where(patch.active_mask(z), dist, np.inf)
            i = int(np.argmin(dist))
            if dist[i] < best:
                best = float(dist[i])
                best_patch = patch
                best_param = grid[i]
    if best_patch is None:
        raise GeometryError("domain has no boundary patches")
    # local refinement around the best parameter
    widths = np.array([hi - lo for lo, hi in best_patch.param_box]) / 8.0
    param = np.array(best_param, dtype=float)
    for _ in range(48):
        axes = [np.linspace(c - w, c + w, 7) for c, w in zip(param, widths)]
        grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        for k, (lo, hi) in enumerate(best_patch.param_box):
            grid[:, k] = np.clip(grid[:, k], lo, hi)
        z = best_patch.param_map(grid)
        dist = np.sqrt(np.sum(np.abs(z - p) ** 2, axis=-1))
        if best_patch.active_mask is not None:
            dist = np.where(best_patch.active_mask(z), dist, np.inf)
        i = int(np.argmin(dist))
        if dist[i] < best:
            best = float(dist[i])
            param = grid[i]
        widths *= 0.45
    return best


# ---------------------------------------------------------------------------
# Translation charts and covers


@dataclass(frozen=True)
class SupportBall:
    """Ball in C^n bounding a chart's support."""

    center: np.ndarray            # (n,) complex
    radius: float

    def might_contain(self, other_center: np.ndarray, other_radius: float) -> bool:
        gap = float(np.sqrt(np.sum(np.abs(self.center - other_center) ** 2)))
        return gap <= self.radius + other_radius


@dataclass
class TranslationChart:
    """A chart region with one constant translation direction.

    The chart's raw (unnormalized) bump lives in its cover's factors.  The
    margin (minimal outward derivative over the supported boundary) is filled
    in by validation.
    """

    region: SupportBall
    v: np.ndarray                 # (n,) complex
    label: str
    margin: float | None = None


@dataclass(frozen=True)
class ChartCover:
    """Translation charts whose raw bumps, normalized pointwise, sum to one.

    Each chart's raw weight is a product of shared weight factors:
    ``chart_factors[i]`` lists the indices into ``factors`` whose product, in
    that order, is chart i's raw weight.  A one-variable chart has one
    factor, its own bump.  A product chart has two, the profiles of z1 and
    z2, and most of them recur across charts (the 48 charts of a bidisc share
    14 factors).  ``chart_weights``, ``raw_weights`` and ``partition_weight``
    evaluate every factor once per call and form the chart products in chart
    order; no other route evaluates a chart's weight.
    """

    charts: tuple[TranslationChart, ...]
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...]
    chart_factors: tuple[tuple[int, ...], ...]

    def chart_weights(self, z: np.ndarray):
        """Every chart's raw weight at z in chart order, one (m,) array at a
        time, each factor evaluated once."""
        values = [factor(z) for factor in self.factors]
        for indices in self.chart_factors:
            w = values[indices[0]]
            for k in indices[1:]:
                w = w * values[k]
            yield w

    def raw_weights(self, z: np.ndarray) -> np.ndarray:
        return np.stack(list(self.chart_weights(z)))

    def partition_weight(self, index, z: np.ndarray) -> np.ndarray:
        """Normalized partition weights, zero off each chart's support.

        ``index`` is one chart index, giving (m,) weights, or a sequence of
        chart indices, giving (m, len(index)) weights in that order.
        """
        indices = np.atleast_1d(np.asarray(index, dtype=int))
        own = np.empty((len(indices), len(z)))   # chart-major: rows are contiguous
        total = np.zeros(len(z))
        for i, w in enumerate(self.chart_weights(z)):
            total += w
            own[indices == i] = w
        # own is 0 wherever total is, so those points keep weight 0
        np.divide(own, np.where(total > 0.0, total, 1.0), out=own)
        return own[0] if np.ndim(index) == 0 else own.T


def _fine_boundary_grid(domain: PiecewiseDomain) -> tuple[np.ndarray, np.ndarray]:
    """Dense deterministic boundary sample with owners, for cover validation."""
    per_axis = 4096 if domain.ambient_dim == 1 else 27_000  # 30^3 per 3d patch
    return domain.boundary_samples(per_axis=per_axis)


def chart_margin(domain: PiecewiseDomain, v: np.ndarray, weights: np.ndarray,
                 pts: np.ndarray, owners: np.ndarray) -> float:
    """Min directional derivative along v of every rho active in a support.

    ``pts``/``owners`` is a dense boundary sample and ``weights`` the chart's
    raw weight there (its row of ``ChartCover.raw_weights(pts)``); a piece
    counts as active when the weight is positive at one of its face points.
    A chart positive at fewer than 20 of the points has no margin (inf).
    """
    keep = weights > 0.0
    if int(np.count_nonzero(keep)) < 20:
        return np.inf  # support misses the boundary (interior-plateau charts)
    pts = pts[keep]
    owners = owners[keep]
    vreal = np.empty(2 * domain.ambient_dim)
    vreal[0::2] = v.real
    vreal[1::2] = v.imag
    margin = np.inf
    for j, piece in enumerate(domain.pieces):
        mine = pts[owners == j]
        if len(mine) == 0:
            continue
        deriv = piece.grad_rho(mine) @ vreal
        margin = min(margin, float(np.min(deriv)))
    return margin


def build_chart_cover(domain: PiecewiseDomain, radius: float = 0.3,
                      strip_overlap: float = 0.2, arcs_per_circle: int = 6,
                      corner_v_rotation: float = 0.0) -> ChartCover:
    """Cover the boundary with corner balls and face strips.

    One-variable domains get a ball around every in-closure corner sample of
    ``locate_strata(domain)`` (v = normalized sum of the active outward
    normals, optionally rotated) and trapezoid strips along each face that
    die off before reaching any corner; each chart's bump is its own weight
    factor.  Product domains in two variables locate no strata: their charts
    are boundary tiles of each factor crossed with an interior plateau of
    the other factor, plus tiles for the pairwise corner strata with the
    averaged direction, weighted by products of shared factor profiles.  The
    cover is validated (coverage, partition of unity, outward margins)
    before it is returned.
    """
    if domain.ambient_dim == 2:
        cover = _cover_product(domain, radius, strip_overlap, arcs_per_circle,
                               corner_v_rotation)
    else:
        cover = _cover_1d(domain, radius, strip_overlap, arcs_per_circle,
                          corner_v_rotation)
    _check_cover(domain, cover, radius)
    return cover


def _corner_direction(domain: PiecewiseDomain, subset, point: np.ndarray,
                      rotation: float) -> np.ndarray:
    zb = point[None, :]
    total = np.zeros(2 * domain.ambient_dim)
    for j in subset:
        g = domain.pieces[j].grad_rho(zb)[0]
        nrm = np.linalg.norm(g)
        if nrm < 1e-12:
            raise NoOutwardVectorError(f"vanishing gradient at corner of pieces {subset}")
        total += g / nrm
    nrm = np.linalg.norm(total)
    if nrm < 1e-8:
        raise NoOutwardVectorError(
            f"outward normals of pieces {subset} cancel; no admissible direction")
    total /= nrm
    v = total[0::2] + 1j * total[1::2]
    if rotation:
        v = v * np.exp(1j * rotation)
    return v


def _cover_1d(domain, radius, strip_overlap, arcs_per_circle,
              rotation) -> ChartCover:
    charts: list[TranslationChart] = []
    bumps: list[Callable[[np.ndarray], np.ndarray]] = []
    corner_pts: list[complex] = []
    # one chart per corner location; the largest piece subset there wins
    by_size = sorted((st for st in locate_strata(domain) if len(st.samples)),
                     key=lambda st: -len(st.subset))
    for st in by_size:
        for s, ok in zip(st.samples, st.in_closure):
            if not ok:
                continue
            c = complex(s[0])
            if any(abs(c - prev) < 1e-7 for prev in corner_pts):
                continue
            v = _corner_direction(domain, st.subset, s, rotation)
            corner_pts.append(c)
            prof = RadialProfile(radius / 2.0, radius)
            charts.append(TranslationChart(
                SupportBall(np.array([c]), radius), v,
                f"corner({c.real:.3g},{c.imag:.3g})"))
            bumps.append(lambda z, c=c, prof=prof: prof(np.abs(z[..., 0] - c)))

    transverse = RadialProfile(radius / 3.0, 2.0 * radius / 3.0)
    dead = radius / 3.0
    plat = radius * (0.5 + 0.5 * min(max(strip_overlap, 0.05), 0.45))
    for piece_idx, piece in enumerate(domain.pieces):
        for patch in piece.patches:
            for chart, bump in _strips_for_curve_patch(
                    domain, piece_idx, patch, corner_pts, radius, dead, plat,
                    transverse, arcs_per_circle, rotation):
                charts.append(chart)
                bumps.append(bump)
    if not charts:
        raise GeometryError("empty chart cover")
    return ChartCover(tuple(charts), tuple(bumps),
                      tuple((i,) for i in range(len(charts))))


def _strips_for_curve_patch(domain, piece_idx, patch, corner_pts, radius,
                            dead, plat, transverse, arcs_per_circle, rotation):
    piece = domain.pieces[piece_idx]
    t0, t1 = patch.param_box[0]
    ts = np.linspace(t0, t1, 257)
    z = patch.param_map(ts[:, None])
    speed = np.abs(patch.jacobian(ts[:, None])[:, 0, 0])
    if np.ptp(speed) > 1e-9 * np.max(speed):
        raise GeometryError("strip construction expects constant-speed curves")
    sp = float(speed[0])

    # corner locations on this patch, in parameter units
    def point_at(t):
        return patch.param_map(t[:, None])[:, 0]

    corner_ts = sorted(set(
        [t for c in corner_pts
         if (t := _param_on_curve(point_at, (t0, t1), c)) is not None]
        + list(patch.corner_params)))
    corner_ts = _merge_close(corner_ts, (dead / 2.0) / sp)

    period = t1 - t0
    segments = []  # (support_a, support_b, plateau_a, plateau_b) in param units
    if patch.periodic and not corner_ts:
        m = max(int(arcs_per_circle), 4)
        half = period / (2 * m)
        for k in range(m):
            center = t0 + (2 * k + 1) * half
            segments.append((center - half * 1.6, center + half * 1.6,
                             center - half * 1.15, center + half * 1.15))
    else:
        if patch.periodic:
            cuts = corner_ts + [corner_ts[0] + period]
            corner_set = set(cuts)
        else:
            cuts = [t0] + corner_ts + [t1]
            corner_set = set(corner_ts)
        for a, b in zip(cuts[:-1], cuts[1:]):
            is_corner_a = any(abs(a - c) < 1e-9 for c in corner_set)
            is_corner_b = any(abs(b - c) < 1e-9 for c in corner_set)
            da = (dead / sp) if is_corner_a else 0.0
            db = (dead / sp) if is_corner_b else 0.0
            pa = (plat / sp) if is_corner_a else 0.0
            pb = (plat / sp) if is_corner_b else 0.0
            if b - a <= pa + pb + 0.2 * radius / sp:
                continue  # corner plateaus cover short gaps
            segments.append((a + da, b - db, a + pa, b - pb))

    out = []
    for (sa, sb, pa, pb) in segments:
        prof = IntervalProfile(sa, pa, pb, sb)
        mid = 0.5 * (sa + sb)
        zmid = patch.param_map(np.array([[_wrap(mid, t0, t1, patch.periodic)]]))[0]
        g = piece.grad_rho(zmid[None, :])[0]
        g = g / np.linalg.norm(g)
        v = (g[0::2] + 1j * g[1::2]) * np.exp(1j * rotation)

        def bump(zpts, prof=prof, patch=patch, t0=t0, t1=t1, sa=sa, sb=sb):
            t = _curve_param_of(patch, zpts[..., 0], t0, t1)
            if patch.periodic:
                # move t across the seam when the segment extends past t1
                # or starts below t0; a segment is shorter than the period
                up = (t + period >= sa) & (t + period <= sb)
                down = (t - period >= sa) & (t - period <= sb)
                t = np.where(up, t + period, np.where(down, t - period, t))
            on_curve = patch.param_map(
                _wrap(t, t0, t1, patch.periodic)[:, None])[:, 0]
            d = np.abs(on_curve - zpts[..., 0])
            return prof(t) * transverse(d)

        half_len = 0.5 * (sb - sa) * sp
        out.append((TranslationChart(
            SupportBall(zmid, float(np.hypot(half_len, radius)) + 1e-9),
            v, f"strip[{patch.label}:{mid:.3g}]"), bump))
    return out


def _wrap(t, t0, t1, periodic):
    if not periodic:
        return t
    period = t1 - t0
    return t0 + (t - t0) % period


def _merge_close(values, tol):
    out = []
    for v in values:
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def _curve_param_of(patch: FacePatch, zpts: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """Approximate inverse of a line or circle parametrization."""
    a = patch.param_map(np.array([[t0]]))[0, 0]
    b = patch.param_map(np.array([[t1]]))[0, 0]
    if abs(b - a) > 1e-12 and not patch.periodic:
        # straight segment: project on the chord
        u = (b - a) / (t1 - t0)
        t = ((zpts - a) / u).real + t0
        return np.clip(t, t0, t1)
    # circle: recover the angle around the circumcenter of three points
    p1, p2, p3 = (patch.param_map(np.array([[t0 + f * (t1 - t0)]]))[0, 0]
                  for f in (0.0, 1.0 / 3.0, 2.0 / 3.0))
    center = _circumcenter(p1, p2, p3)
    ang0 = np.angle(p1 - center)
    t = t0 + (np.angle(zpts - center) - ang0) % (2.0 * np.pi) / (2.0 * np.pi) * (t1 - t0)
    return t


def _circumcenter(p1: complex, p2: complex, p3: complex) -> complex:
    ax, ay = p1.real, p1.imag
    bx, by = p2.real, p2.imag
    cx, cy = p3.real, p3.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    return complex(ux, uy)


def _cover_product(domain, radius, strip_overlap, arcs_per_circle,
                   rotation) -> ChartCover:
    f0, f1 = domain.product_factors
    tiles0 = f0.boundary_tiles(radius, strip_overlap, arcs_per_circle, rotation)
    tiles1 = f1.boundary_tiles(radius, strip_overlap, arcs_per_circle, rotation)
    int0, c0, r0 = f0.interior_profile(radius)
    int1, c1, r1 = f1.interior_profile(radius)
    # shared weight factors on C^2: tiles and interior profile of each variable
    factors = ([lambda z, p=t.profile: p(z[..., 0]) for t in tiles0]
               + [lambda z: int0(z[..., 0])]
               + [lambda z, p=t.profile: p(z[..., 1]) for t in tiles1]
               + [lambda z: int1(z[..., 1])])
    i_int0 = len(tiles0)
    i_tiles1 = i_int0 + 1
    i_int1 = i_tiles1 + len(tiles1)
    charts: list[TranslationChart] = []
    chart_factors: list[tuple[int, int]] = []

    def add(region, v, a, b, label):
        charts.append(TranslationChart(region, v, label))
        chart_factors.append((a, b))

    for i, t in enumerate(tiles0):  # factor-0 boundary x factor-1 interior
        add(SupportBall(np.array([t.center, c1]), float(np.hypot(t.radius, r1)) + 1e-9),
            np.array([t.v, 0.0], complex), i, i_int1, f"f0:{t.label}")
    for j, t in enumerate(tiles1):
        add(SupportBall(np.array([c0, t.center]), float(np.hypot(r0, t.radius)) + 1e-9),
            np.array([0.0, t.v], complex), i_int0, i_tiles1 + j, f"f1:{t.label}")
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i, ta in enumerate(tiles0):
        for j, tb in enumerate(tiles1):
            add(SupportBall(np.array([ta.center, tb.center]),
                              float(np.hypot(ta.radius, tb.radius)) + 1e-9),
                np.array([ta.v * inv_sqrt2, tb.v * inv_sqrt2], complex),
                i, i_tiles1 + j, f"edge:{ta.label}x{tb.label}")
    return ChartCover(tuple(charts), tuple(factors), tuple(chart_factors))


def _check_cover(domain: PiecewiseDomain, cover: ChartCover, radius: float) -> None:
    """Coverage and partition checks near the boundary, plus margins."""
    pts, owners = domain.boundary_samples(per_axis=96 if domain.ambient_dim == 1 else 3375)
    if len(pts) == 0:
        raise GeometryError("no boundary to cover")
    # offset samples into a genuine neighborhood of the boundary
    offsets = [0.0, 0.35 * radius / 3.0, -0.35 * radius / 3.0]
    all_pts = []
    for off in offsets:
        if off == 0.0:
            all_pts.append(pts)
            continue
        moved = pts.copy()
        for j, piece in enumerate(domain.pieces):
            mine = owners == j
            if not np.any(mine):
                continue
            g = piece.grad_rho(pts[mine])
            g = g / np.linalg.norm(g, axis=-1, keepdims=True)
            moved[mine] += off * (g[:, 0::2] + 1j * g[:, 1::2])
        all_pts.append(moved)
    probe = np.concatenate(all_pts)
    raw = cover.raw_weights(probe)
    total = raw.sum(axis=0)
    floor = float(np.min(total))
    if floor <= 1e-9:
        raise GeometryError(f"chart cover leaves the boundary uncovered (floor {floor:.2e})")
    # exercise the normalized-weight path the pairing uses
    partition = cover.partition_weight(range(len(cover.charts)), probe).sum(axis=1)
    defect = float(np.max(np.abs(partition - 1.0)))
    if defect > 1e-10:
        raise GeometryError(f"partition of unity defect {defect:.2e}")
    fine_pts, fine_owners = _fine_boundary_grid(domain)
    for chart, w in zip(cover.charts, cover.chart_weights(fine_pts)):
        chart.margin = chart_margin(domain, chart.v, w, fine_pts, fine_owners)
        if chart.margin <= 0.0:
            raise NoOutwardVectorError(
                f"chart {chart.label} has non-positive outward margin {chart.margin:.3g}")
