"""Adaptive tensor-product Gauss-Kronrod quadrature over parameter boxes.

The same engine drives 1d boundary integrals (curves in C), 3d boundary
integrals (hypersurface patches in C^2) and 2d/4d volume integrals.  Each
cell is evaluated with the 15-point Kronrod rule per axis; the embedded
7-point Gauss rule provides the error estimate and per-axis mixed
contractions pick the split axis at no extra integrand cost.  An integrand
may return a vector of values per point; its components then share one
subdivision (vector-valued adaptive cubature in the manner of Genz & Malik
1980 and DCUHRE).  A NaN or infinite integrand value raises
NonFiniteIntegrandError instead of being dropped.

Determinism: cells carry a creation index used to break priority ties, the
refinement loop is single-threaded, and the final value is a sum over leaf
cells in a fixed lexicographic order.  Two runs with identical inputs give
bit-identical results.
"""
from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GeometryError, NonFiniteIntegrandError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "SpecialPoint",
    "adaptive_integrate",
    "integrate_face",
    "integrate_boundary",
    "integrate_volume",
    "integrate_volume_clipped",
    "combine_results",
]

# 15-point Kronrod nodes (ascending) with the embedded 7-point Gauss rule
# sitting at every second node.
_XGK_POS = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK_POS = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_POS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

XGK = np.concatenate([-_XGK_POS[:-1], _XGK_POS[::-1]])          # 15 ascending
WGK = np.concatenate([_WGK_POS[:-1], _WGK_POS[::-1]])
WG_EMBEDDED = np.zeros(15)
WG_EMBEDDED[1:14:2] = np.concatenate([_WG_POS[:-1], _WG_POS[::-1]])

_BATCH_BY_DIM = {1: 64, 2: 32, 3: 8, 4: 2}


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by every integration routine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200_000
    corner_refine_depth: int = 6

    def __post_init__(self):
        if not (1e-13 <= self.rel_tol <= 1e-1):
            raise ValueError(f"rel_tol out of range: {self.rel_tol}")
        if not (0.0 <= self.abs_tol <= 1e-1):
            raise ValueError(f"abs_tol out of range: {self.abs_tol}")
        if not (1 <= self.max_subdivisions <= 10_000_000):
            raise ValueError(f"max_subdivisions out of range: {self.max_subdivisions}")
        if not (0 <= self.corner_refine_depth <= 48):
            raise ValueError(f"corner_refine_depth out of range: {self.corner_refine_depth}")


@dataclass(frozen=True)
class IntegralResult:
    """Result of one adaptive integration.

    For a scalar integrand ``value`` is complex and ``err_est`` a float; for
    a vector integrand with K components both are (K,) arrays, one entry per
    component, and ``cells_used`` counts the cells of the shared subdivision.
    """

    value: complex | np.ndarray
    err_est: float | np.ndarray
    cells_used: int
    converged: bool


@dataclass(frozen=True)
class SpecialPoint:
    """A physical location the initial mesh must resolve.

    ``radius`` is the length scale of the feature (10 * eps for a shifted
    pole); zero means a geometric corner that just needs the fixed number of
    pre-split rounds.
    """

    location: np.ndarray  # (n,) complex
    radius: float = 0.0


@dataclass(slots=True)
class _Cell:
    box: tuple[tuple[float, float], ...]
    index: int
    err: float = 0.0      # error estimate, summed over components
    axis: int = 0         # split axis
    batch: int = 0        # the integrand batch that evaluated the cell,
    row: int = 0          # and the cell's row in it


_KRONROD_GAUSS = np.stack([WGK, WG_EMBEDDED])   # (2, 15)


@functools.cache
def _reference_nodes(dim: int) -> np.ndarray:
    """Tensor Kronrod nodes (15**d, d) on [-1, 1]^d in meshgrid "ij" order,
    shared by every call."""
    grids = np.meshgrid(*[XGK] * dim, indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    nodes.flags.writeable = False
    return nodes


def _contract(values: np.ndarray, dim: int) -> np.ndarray:
    """Every tensor product of the Kronrod and Gauss rules, one axis at a
    time: (N, 15**d, C) -> (N, 2**d, C).  Bit d-1-a of the middle index
    selects the Gauss rule on axis a, so 0 is the tensor Kronrod rule and
    2**d - 1 the tensor Gauss rule.  Each step reduces over just 15 nodes,
    which keeps the result independent of the BLAS thread count; one matmul
    reducing over all 15**d nodes at once is not."""
    n = len(values)
    out = values.reshape(n, 15, -1)
    for a in range(dim):
        out = np.matmul(_KRONROD_GAUSS, out)              # (M, 2, rest)
        if a < dim - 1:
            out = out.reshape(-1, 15, out.shape[-1] // 15)
    return out.reshape(n, 2 ** dim, -1)


def _evaluate_cells(cells: list[_Cell], dim: int,
                    eval_fn: Callable[[np.ndarray], np.ndarray],
                    box: tuple[tuple[float, float], ...],
                    batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of cells with one integrand call and fill each
    cell's err / axis / batch / row.  Returns the cells' Kronrod values and
    per-component error estimates, (N,) for a scalar integrand and (N, K)
    for a vector one.  Raises NonFiniteIntegrandError, naming ``box`` and
    the cell, when the integrand returns a NaN or an infinity."""
    nodes = _reference_nodes(dim)
    bounds = np.array([c.box for c in cells])            # (N, d, 2)
    lo, hi = bounds[..., 0], bounds[..., 1]
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    params = (center[:, None, :] + half[:, None, :] * nodes).reshape(-1, dim)
    raw = np.ascontiguousarray(eval_fn(params), dtype=np.complex128)
    values = raw.reshape(len(cells), len(nodes), -1)     # (N, 15**d, K)
    # real and imaginary parts are contracted side by side
    with np.errstate(invalid="ignore", over="ignore"):   # checked just below
        rules = _contract(values.view(np.float64), dim).view(np.complex128)
        rules *= np.prod(half, axis=1)[:, None, None]    # (N, 2**d, K)
    kron = rules[:, 0]
    # every node has a positive Kronrod weight, so a NaN or an infinity
    # anywhere in a cell makes that cell's Kronrod sum non-finite
    finite = np.isfinite(kron).all(axis=1)
    if not finite.all():
        bad = cells[int(np.argmin(finite))]
        raise NonFiniteIntegrandError(
            f"integrand is not finite in cell {bad.box} of the integration "
            f"box {box}")
    # Gauss on one axis a, Kronrod on the others
    one_gauss = [2 ** (dim - 1 - a) for a in range(dim)]
    mixed = np.abs(kron[:, None] - rules[:, one_gauss])  # (N, d, K)
    comp_err = np.maximum(np.abs(kron - rules[:, -1]), mixed.max(axis=1))
    errs = comp_err.sum(axis=1).tolist()
    axes = mixed.sum(axis=2).argmax(axis=1).tolist()
    for i, cell in enumerate(cells):
        cell.err = errs[i]
        cell.axis = axes[i]
        cell.batch = batch
        cell.row = i
    shape = (len(cells),) + raw.shape[1:]
    # a copy, so the batch's other rule sums are freed
    return kron.reshape(shape).copy(), comp_err.reshape(shape)


def _split(cell: _Cell, axis: int, next_index: int) -> tuple[_Cell, _Cell]:
    lo, hi = cell.box[axis]
    mid = 0.5 * (lo + hi)
    left = list(cell.box)
    right = list(cell.box)
    left[axis] = (lo, mid)
    right[axis] = (mid, hi)
    return _Cell(tuple(left), next_index), _Cell(tuple(right), next_index + 1)


def _cell_phys_extent(cell: _Cell, phys_map) -> tuple[np.ndarray, float]:
    """Physical center and covering radius of a cell, by mapping its corners."""
    d = len(cell.box)
    corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in cell.box],
                                   indexing="ij")).reshape(d, -1).T
    center = np.array([[0.5 * (lo + hi) for lo, hi in cell.box]])
    pts = phys_map(np.concatenate([center, corners], axis=0))
    c = pts[0]
    radius = float(np.max(np.sqrt(np.sum(np.abs(pts[1:] - c) ** 2, axis=-1))))
    return c, radius


def _presplit(box: tuple[tuple[float, float], ...], specials: Sequence[SpecialPoint],
              phys_map, depth: int, index_start: int) -> tuple[list[_Cell], int]:
    cells = [_Cell(box, index_start)]
    idx = index_start + 1
    if not specials or phys_map is None:
        return cells, idx
    locs = np.stack([np.atleast_1d(np.asarray(s.location, dtype=np.complex128))
                     for s in specials])
    radii = np.array([s.radius for s in specials])
    for round_no in range(48):
        refined: list[_Cell] = []
        changed = False
        for cell in cells:
            center, cover = _cell_phys_extent(cell, phys_map)
            dists = np.sqrt(np.sum(np.abs(locs - center) ** 2, axis=-1))
            touching = dists <= cover + radii + 1e-15
            # corners (radius 0) get exactly `depth` rounds; pole features keep
            # splitting until the cell is at the feature scale
            needs = False
            if np.any(touching):
                if round_no < depth:
                    needs = True
                else:
                    tr = radii[touching]
                    finite = tr[tr > 0]
                    if finite.size and 2.0 * cover > float(np.min(finite)):
                        needs = True
            if needs:
                widths = [hi - lo for lo, hi in cell.box]
                axis = int(np.argmax(widths))
                a, b = _split(cell, axis, idx)
                idx += 2
                refined.extend([a, b])
                changed = True
            else:
                refined.append(cell)
        cells = refined
        if not changed:
            break
    return cells, idx


def adaptive_integrate(eval_fn: Callable[[np.ndarray], np.ndarray],
                       box: Sequence[tuple[float, float]],
                       spec: QuadratureSpec,
                       specials: Sequence[SpecialPoint] = (),
                       phys_map=None) -> IntegralResult:
    """Integrate a vectorized parameter-space integrand over a box.

    ``eval_fn`` maps parameter batches (m, d) to complex values (m,), or to
    a vector of K values per point, (m, K).  Every component shares one
    subdivision: a cell's error is the sum of its components' errors, the
    split axis is the one whose mixed-rule differences sum largest, and the
    integration has converged when the summed error is at most
    max(abs_tol, rel_tol * sum_k |value_k|).  With K = 1 these are the
    scalar rules.  ``phys_map`` translates parameters to ambient points so
    that ``specials`` can steer the pre-splitting; without it the specials
    are interpreted directly in parameter space.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    dim = len(box)
    if dim not in (1, 2, 3, 4):
        raise GeometryError(f"unsupported integration dimension {dim}")
    if any(hi <= lo for lo, hi in box):
        raise GeometryError(f"degenerate integration box {box}")

    if phys_map is None and specials:
        def phys_map(p):  # parameters as points on the real axes of C^d
            return p.astype(np.complex128)

    cells, next_index = _presplit(box, specials, phys_map, spec.corner_refine_depth, 0)

    values: list[np.ndarray] = []   # per batch: each cell's Kronrod value
    errors: list[np.ndarray] = []   # per batch: each cell's error per component

    def evaluate(batch_cells: list[_Cell]):
        kron, comp_err = _evaluate_cells(batch_cells, dim, eval_fn, box,
                                         len(values))
        values.append(kron)
        errors.append(comp_err)
        return kron.sum(axis=0)

    batch = _BATCH_BY_DIM[dim]
    total_value = sum(evaluate(cells[start:start + max(batch, 8)])
                      for start in range(0, len(cells), max(batch, 8)))

    heap: list[tuple[float, int, _Cell]] = []
    for cell in cells:
        heapq.heappush(heap, (-cell.err, cell.index, cell))
    leaves = {cell.index: cell for cell in cells}
    used = len(cells)
    total_err = sum(c.err for c in cells)
    while heap:
        tol = max(spec.abs_tol, spec.rel_tol * float(np.sum(np.abs(total_value))))
        if total_err <= tol:
            break
        if used >= spec.max_subdivisions:
            break
        n_pop = min(batch, len(heap), max(1, (spec.max_subdivisions - used) // 2))
        popped = []
        for _ in range(n_pop):
            err_neg, _, cell = heapq.heappop(heap)
            if -err_neg <= 0.0:
                heapq.heappush(heap, (err_neg, cell.index, cell))
                break
            popped.append(cell)
        if not popped:
            break
        children: list[_Cell] = []
        for cell in popped:
            del leaves[cell.index]
            total_err -= cell.err
            a, b = _split(cell, cell.axis, next_index)
            next_index += 2
            children.extend([a, b])
        total_value = (total_value - sum(values[c.batch][c.row] for c in popped)
                       + evaluate(children))
        used += len(children)
        for child in children:
            leaves[child.index] = child
            total_err += child.err
            heapq.heappush(heap, (-child.err, child.index, child))

    # fixed final summation order: lexicographic by cell lower corner, then size
    ordered = sorted(leaves.values(),
                     key=lambda c: tuple(lo for lo, _ in c.box) + tuple(hi for _, hi in c.box))
    starts = np.cumsum([0] + [len(v) for v in values])
    slots = [starts[c.batch] + c.row for c in ordered]
    value = np.concatenate(values)[slots].sum(axis=0)
    comp_err = np.concatenate(errors)[slots].sum(axis=0)
    total_err = float(np.sum(comp_err))
    converged = total_err <= max(spec.abs_tol,
                                 spec.rel_tol * float(np.sum(np.abs(value))))
    if np.ndim(value) == 0:
        return IntegralResult(complex(value), total_err, used, converged)
    return IntegralResult(value, comp_err, used, converged)


def combine_results(results: Iterable[IntegralResult]) -> IntegralResult:
    value = 0.0 + 0.0j
    err = 0.0
    cells = 0
    converged = True
    for r in results:
        value += r.value
        err += r.err_est
        cells += r.cells_used
        converged = converged and r.converged
    return IntegralResult(complex(value), float(err), cells, converged)


# ---------------------------------------------------------------------------
# Domain-facing drivers.  These only rely on the duck-typed attributes of the
# geometry types (param_map / jacobian / param_box / orientation_sign / ...),
# so the geometry module can import them without a cycle.


def integrate_face(patch, density, spec: QuadratureSpec,
                   specials: Sequence[SpecialPoint] = ()) -> IntegralResult:
    """Integrate a pulled-back density over one boundary patch.

    ``density(z, frame)`` receives ambient points (m, n) and the complex
    tangent frame (m, n, d) and returns (m,) values, or (m, K) for K
    densities integrated on one shared subdivision.  The patch orientation
    sign is applied here; masked points contribute zero.
    """
    mask = patch.active_mask

    def eval_fn(params: np.ndarray) -> np.ndarray:
        z = patch.param_map(params)
        vals = np.asarray(density(z, patch.jacobian(params)), dtype=np.complex128)
        if mask is not None:
            keep = mask(z)
            vals = np.where(keep if vals.ndim == 1 else keep[:, None], vals, 0.0)
        return vals

    result = adaptive_integrate(eval_fn, patch.param_box, spec, specials,
                                phys_map=patch.param_map)
    return IntegralResult(patch.orientation_sign * result.value, result.err_est,
                          result.cells_used, result.converged)


def integrate_boundary(domain, density, spec: QuadratureSpec) -> IntegralResult:
    """Sum of integrate_face over every patch of every piece, in fixed order."""
    return combine_results(integrate_face(patch, density, spec)
                           for piece in domain.pieces for patch in piece.patches)


def integrate_volume(domain, integrand, spec: QuadratureSpec,
                     specials: Sequence[SpecialPoint] = ()) -> IntegralResult:
    """Integrate integrand(z) dV over the domain.

    Uses the domain's exact volume parametrizations when present (every
    shipped domain provides them); otherwise falls back to membership-clipped
    subdivision of the bounding box, which carries a much weaker error
    estimate.
    """
    if not getattr(domain, "volume_patches", ()):
        return integrate_volume_clipped(domain, integrand, spec)
    parts = []
    for vp in domain.volume_patches:
        def eval_fn(params: np.ndarray, vp=vp) -> np.ndarray:
            z = vp.param_map(params)
            return np.asarray(integrand(z), dtype=np.complex128) * vp.jacobian(params)
        parts.append(adaptive_integrate(eval_fn, vp.param_box, spec, specials,
                                        phys_map=vp.param_map))
    return combine_results(parts)


def integrate_volume_clipped(domain, integrand, spec: QuadratureSpec) -> IntegralResult:
    """Volume integral by clipping the bounding box with membership tests.

    Cells straddling the boundary keep large error estimates, so this
    converges slowly; it exists as an independent cross-check oracle and as
    the fallback for domains without exact volume parametrizations.
    """
    box = domain.bounding_box  # 2n real intervals, interleaved (x1, y1, ...)

    def eval_fn(params: np.ndarray) -> np.ndarray:
        z = params[:, 0::2] + 1j * params[:, 1::2]
        vals = np.asarray(integrand(z), dtype=np.complex128)
        return np.where(domain.contains(z, tol=0.0), vals, 0.0)

    return adaptive_integrate(eval_fn, box, spec)
