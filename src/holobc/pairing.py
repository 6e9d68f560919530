"""Boundary pairing of translated holomorphic functions against test forms.

The central object is F(eps) = sum_i int_{bdry} f(z - eps*v_i) chi_i psi,
where the chi_i are partition-of-unity weights subordinate to a chart cover
and each v_i points outward along every face met by chart i.  The module
also carries the two independent routes used to cross-check F: the volume
(Stokes) route for integrable f and the face-restriction route for f
continuous up to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bumps import RadialProfile
from .errors import (BudgetExceededError, FormNotClosedError, NotL1Error,
                     PoleOnBoundaryError, ScenarioError)
from .functions import HolomorphicFunction, boundary_poles
from .geometry import (ChartCover, PiecewiseDomain, SupportBall,
                       TranslationChart, build_chart_cover,
                       nearest_boundary_gap)
from .quadrature import (XGK, IntegralResult, QuadratureSpec, SpecialPoint,
                         combine_results, integrate_face, integrate_volume)
from .rational import compile_node, conj_derivative, parse_expression

# Volume (Stokes) route sign, calibrated once on f = 1 against the boundary
# route and frozen; calibrate_stokes_sign re-derives it for the test suite.
STOKES_SIGN = 1


# ---------------------------------------------------------------------------
# Cutoffs and test forms


@dataclass(frozen=True)
class RadialCutoff:
    """Smooth radial plateau cutoff chi(z) = profile(|z - center|).

    The conjugate Wirtinger derivative is analytic:
    d(chi)/d(zbar_j) = profile'(r) * (z_j - c_j) / (2 r).
    """

    center: np.ndarray
    profile: RadialProfile

    def __call__(self, z: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(z) - self.center
        r = np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))
        return self.profile(r)

    def dbar(self, z: np.ndarray, var: int) -> np.ndarray:
        w = np.atleast_2d(z) - self.center
        r = np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))
        safe = np.where(r > 0, r, 1.0)
        out = self.profile.derivative(r) * w[:, var] / (2.0 * safe)
        return np.where(r > 0, out, 0.0)

    def support_ball(self) -> SupportBall:
        return SupportBall(np.asarray(self.center, dtype=np.complex128),
                           float(self.profile.support))


def plateau_cutoff(center, plateau: float, support: float) -> RadialCutoff:
    c = np.atleast_1d(np.asarray(center, dtype=np.complex128))
    return RadialCutoff(c, RadialProfile(plateau, support))


@dataclass(frozen=True)
class TestForm:
    """Compactly supported smooth (n, n-1) test form.

    For n = 1 the single coefficient g gives psi = g dz.  For n = 2 the two
    coefficients give psi = g1 dz1^dz2^dzbar1 + g2 dz1^dz2^dzbar2.
    ``dbar_coefficients`` holds the one coefficient of dbar(psi) against the
    canonical top form (dzbar^dz for n = 1, dz1^dz2^dzbar1^dzbar2 for n = 2).
    """

    degree: tuple[int, int]
    coefficients: tuple[Callable[[np.ndarray], np.ndarray], ...]
    dbar_coefficients: tuple[Callable[[np.ndarray], np.ndarray], ...]
    support: SupportBall | None = None
    label: str = ""

    @property
    def ambient_dim(self) -> int:
        return self.degree[0]

    def face_density(self, z: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Pullback density of the form along a boundary patch frame.

        For n = 2 the coefficient g_k multiplies the 3x3 determinant with
        rows dz1, dz2 and conj(dz_k) of the frame, expanded by cofactors
        along its last row: det = conj(dz_k) . (dz1 x dz2).
        """
        if self.ambient_dim == 1:
            return self.coefficients[0](z) * frame[:, 0, 0]
        a, b = frame[:, 0, :], frame[:, 1, :]
        cofactors = (a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                     a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                     a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        total = np.zeros(len(z), dtype=np.complex128)
        for k, g in enumerate(self.coefficients):
            row = np.conj(frame[:, k, :])
            total += g(z) * (row[:, 0] * cofactors[0] + row[:, 1] * cofactors[1]
                             + row[:, 2] * cofactors[2])
        return total

    def dbar_volume_density(self, z: np.ndarray) -> np.ndarray:
        """Lebesgue density of dbar(psi): the canonical top forms carry the
        volume factors dzbar^dz = 2i dV and dz1^dz2^dzbar1^dzbar2 = 4 dV."""
        factor = 2.0j if self.ambient_dim == 1 else 4.0
        return factor * self.dbar_coefficients[0](z)


def form_from_expressions(expressions, ambient_dim: int,
                          cutoff: RadialCutoff | None = None,
                          label: str = "") -> TestForm:
    """Build a TestForm from coefficient expressions times an optional cutoff.

    Expressions may use z / zbar / x / y (and the indexed variants in two
    variables); the dbar coefficient is assembled from symbolic Wirtinger
    derivatives plus the cutoff's analytic derivative, so no finite
    differences enter the returned form.
    """
    if isinstance(expressions, str):
        expressions = (expressions,)
    if len(expressions) != ambient_dim:
        raise ScenarioError(
            f"need {ambient_dim} coefficient(s), got {len(expressions)}")
    nodes = [parse_expression(text, ambient_dim, allow_conjugates=True)
             for text in expressions]
    raw = [compile_node(node, ambient_dim) for node in nodes]
    partials = [[compile_node(conj_derivative(node, var), ambient_dim)
                 for var in range(ambient_dim)] for node in nodes]

    def coefficient(k):
        hk = raw[k]
        if cutoff is None:
            return lambda z: np.asarray(hk(np.atleast_2d(z)),
                                        dtype=np.complex128)
        return lambda z: (np.asarray(hk(np.atleast_2d(z)), dtype=np.complex128)
                          * cutoff(z))

    if ambient_dim == 1:
        def dbar_c(z):
            z2 = np.atleast_2d(z)
            val = np.asarray(partials[0][0](z2), dtype=np.complex128)
            if cutoff is not None:
                val = val * cutoff(z2) + (np.asarray(raw[0](z2), dtype=np.complex128)
                                          * cutoff.dbar(z2, 0))
            return val
    else:
        # dbar(psi) = (d g2/d zbar1 - d g1/d zbar2) * dz1^dz2^dzbar1^dzbar2
        def dbar_c(z):
            z2 = np.atleast_2d(z)
            val = (np.asarray(partials[1][0](z2), dtype=np.complex128)
                   - np.asarray(partials[0][1](z2), dtype=np.complex128))
            if cutoff is not None:
                val = val * cutoff(z2)
                val += (np.asarray(raw[1](z2), dtype=np.complex128)
                        * cutoff.dbar(z2, 0))
                val -= (np.asarray(raw[0](z2), dtype=np.complex128)
                        * cutoff.dbar(z2, 1))
            return val

    support = cutoff.support_ball() if cutoff is not None else None
    return TestForm(degree=(ambient_dim, ambient_dim - 1),
                    coefficients=tuple(coefficient(k) for k in range(ambient_dim)),
                    dbar_coefficients=(dbar_c,),
                    support=support,
                    label=label or " , ".join(expressions))


def check_form(form: TestForm, domain: PiecewiseDomain,
               points: int = 50, step: float = 1e-5, seed: int = 0) -> float:
    """Finite-difference audit of a form's dbar coefficient.

    Returns the maximum absolute mismatch between the stored dbar
    coefficient and central-difference Wirtinger derivatives of the stored
    coefficients at random points around the domain; the TestForm invariant
    requires this to stay below 1e-5.
    """
    rng = np.random.default_rng(seed)
    n = form.ambient_dim
    if form.support is not None:
        c, rad = form.support.center, form.support.radius
        offs = rng.uniform(-0.9 * rad, 0.9 * rad, size=(points, 2 * n))
        z = c[None, :] + offs[:, 0::2] + 1j * offs[:, 1::2]
    else:
        box = domain.bounding_box
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        pad = 0.25 * (hi - lo)
        u = rng.uniform(lo - pad, hi + pad, size=(points, 2 * n))
        z = u[:, 0::2] + 1j * u[:, 1::2]

    def wirtinger_bar(g, z, var):
        ex = np.zeros(n, dtype=np.complex128)
        ex[var] = step
        ey = np.zeros(n, dtype=np.complex128)
        ey[var] = 1j * step
        dx = (g(z + ex) - g(z - ex)) / (2 * step)
        dy = (g(z + ey) - g(z - ey)) / (2 * step)
        return 0.5 * (dx + 1j * dy)

    if n == 1:
        fd = wirtinger_bar(form.coefficients[0], z, 0)
    else:
        fd = (wirtinger_bar(form.coefficients[1], z, 0)
              - wirtinger_bar(form.coefficients[0], z, 1))
    stored = form.dbar_coefficients[0](z)
    worst = float(np.max(np.abs(stored - fd)))

    if form.support is not None:
        # coefficients must vanish strictly outside the support ball
        c, rad = form.support.center, form.support.radius
        dirs = rng.normal(size=(points, 2 * n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        w = dirs[:, 0::2] + 1j * dirs[:, 1::2]
        outside = c[None, :] + (1.01 + rng.uniform(0, 1, (points, 1))) * rad * w
        for g in form.coefficients:
            worst = max(worst, float(np.max(np.abs(g(outside)))))
    return worst


# ---------------------------------------------------------------------------
# The pairing at one epsilon


@dataclass(frozen=True)
class ChartContribution:
    label: str
    value: complex
    err_est: float
    cells_used: int


@dataclass(frozen=True)
class PairingSample:
    """One evaluation F(eps) with its per-chart breakdown."""

    epsilon: float
    value: complex
    err_est: float
    per_chart: tuple[ChartContribution, ...]
    cells_used: int = 0


def _patch_extent(patch) -> tuple[np.ndarray, float]:
    # coarse covering ball of a patch, for support-overlap skipping
    axes = [np.linspace(lo, hi, 5) for lo, hi in patch.param_box]
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    z = patch.param_map(grid)
    center = np.mean(z, axis=0)
    radius = float(np.max(np.sqrt(np.sum(np.abs(z - center) ** 2, axis=-1))))
    # the coarse grid undershoots curved patches; pad by one grid cell
    return center, radius * 1.25 + 1e-12


def _boundary_patches(domain: PiecewiseDomain):
    for piece in domain.pieces:
        for patch in piece.patches:
            yield patch


def _translated_pole_guard(domain: PiecewiseDomain, f: HolomorphicFunction,
                           cover: ChartCover, eps: float,
                           guard_pts: np.ndarray | None) -> None:
    """Raise PoleOnBoundaryError only when a shifted pole meets supp(chi_i)
    on the boundary, for some chart i.

    A pole landing on a face where a chart's weight vanishes is harmless:
    the weight-first masking keeps the integrand finite there.  In one
    variable each chart's weight at its own shifted pole is tested first: it
    is zero for most charts and far cheaper than the boundary gap; the cover
    is evaluated once per pole, at every chart's shifted pole.  In two
    variables it is evaluated once, at ``guard_pts``.
    """
    tol = 1e-9
    charts = cover.charts
    if domain.ambient_dim == 1:
        for pole in f.pole_locus:
            q = pole.location + eps * np.array([chart.v[0] for chart in charts])
            for i, w in enumerate(cover.chart_weights(q[:, None])):
                if w[i] > 0.0 and nearest_boundary_gap(domain, q[i:i + 1]) <= tol:
                    raise PoleOnBoundaryError(
                        f"chart {charts[i].label!r}: pole of {f.label or 'f'} "
                        f"shifted to {q[i]:.3e} lies on the supported boundary "
                        f"at eps={eps:.3e}")
        return
    if guard_pts is None or len(guard_pts) == 0 or not f.pole_locus:
        return
    for chart, w in zip(charts, cover.chart_weights(guard_pts)):
        hot = w > 0.0
        if not np.any(hot):
            continue
        for pole in f.pole_locus:
            q_var = pole.location + eps * complex(chart.v[pole.var])
            gaps = np.abs(guard_pts[hot][:, pole.var] - q_var)
            if float(np.min(gaps)) <= tol:
                raise PoleOnBoundaryError(
                    f"chart {chart.label!r}: pole plane z_{pole.var + 1} = "
                    f"{q_var:.3e} meets the supported boundary at eps={eps:.3e}")


def _chart_specials(f: HolomorphicFunction, chart: TranslationChart,
                    eps: float, ambient_dim: int) -> list[SpecialPoint]:
    specials = []
    if ambient_dim == 1:
        for pole in f.pole_locus:
            q = pole.location + eps * complex(chart.v[0])
            specials.append(SpecialPoint(np.array([q]), 10.0 * eps))
    return specials


def _grown(a: np.ndarray, need: int) -> np.ndarray:
    if need <= len(a):
        return a
    out = np.empty(max(need, 2 * len(a)), dtype=a.dtype)
    out[:len(a)] = a
    return out


class _WeightTable:
    """The positive partition weights of every cell that one patch's
    translated density has evaluated, kept across the samples of one epsilon
    schedule: the weights do not depend on epsilon.

    The engine hands the density whole cells, each a consecutive block of
    ``nodes`` points (``adaptive_integrate``).  A patch map is one-to-one
    inside its parameter box, so a cell's first and last points, which fix
    its box, name it.  The new cells of a batch get their weights from one
    ``ChartCover.partition_weight`` call, whose positive (point, column)
    entries, in row-major order, the table keeps as they come.  Each entry
    takes 14 bytes: its node within the cell (int32), its column (int16)
    and its weight (float64), in arrays that double when full.  Cell k's
    entries are ``start[k]:start[k + 1]``.
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.cell_of: dict[bytes, int] = {}
        self.start = np.zeros(1, dtype=np.int64)
        self.node = np.empty(0, dtype=np.int32)
        self.col = np.empty(0, dtype=np.int16)
        self.weight = np.empty(0)

    def positive_weights(self, cover: ChartCover, charts: Sequence[int],
                         z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``cover.partition_weight(charts, z)``, computing only the cells
        not yet in the table."""
        m = self.nodes
        blocks = z.reshape(-1, m, z.shape[-1])
        raw = blocks[:, [0, m - 1]].tobytes()
        size = len(raw) // len(blocks)
        keys = [raw[k:k + size] for k in range(0, len(raw), size)]
        new = [k for k, key in enumerate(keys) if key not in self.cell_of]
        if new:
            self._add([keys[k] for k in new], *cover.partition_weight(
                charts, blocks[new].reshape(-1, z.shape[-1])))
        cells = np.fromiter((self.cell_of[key] for key in keys), dtype=np.int64,
                            count=len(keys))
        lo = self.start[cells]
        counts = self.start[cells + 1] - lo
        out_start = np.cumsum(counts) - counts
        # every cell's entries in turn, as one index into the table
        entries = np.arange(counts.sum()) + np.repeat(lo - out_start, counts)
        pts = self.node[entries] + m * np.repeat(np.arange(len(keys)), counts)
        return pts, self.col[entries], self.weight[entries]

    def _add(self, keys, pts, cols, w) -> None:
        first = len(self.cell_of)
        cell, node = np.divmod(pts, self.nodes)
        self.start = _grown(self.start, first + len(keys) + 1)
        base = self.start[first]
        self.start[first + 1:first + len(keys) + 1] = base + np.cumsum(
            np.bincount(cell, minlength=len(keys)))
        stop = base + len(pts)
        self.node = _grown(self.node, stop)
        self.col = _grown(self.col, stop)
        self.weight = _grown(self.weight, stop)
        self.node[base:stop] = node
        self.col[base:stop] = cols
        self.weight[base:stop] = w
        self.cell_of.update(zip(keys, range(first, first + len(keys))))


def _translated_density(cover: ChartCover, charts: Sequence[int],
                        f: HolomorphicFunction, psi: TestForm,
                        shifts: np.ndarray, table: _WeightTable | None = None):
    """Face density (m, K) of the translated pairing, one column per chart:
    chi_i(z) f(z - shift_i) times the pullback of psi.  With ``table`` the
    weights chi_i come from it, which computes each cell's weights once."""

    def density(z, frame):
        if table is None:
            pts, cols, w = cover.partition_weight(charts, z)
        else:
            pts, cols, w = table.positive_weights(cover, charts, z)
        out = np.zeros((len(z), len(charts)), dtype=np.complex128)
        # f is evaluated only at (point, chart) pairs of positive weight, so
        # a (possibly singular) f never blows up where a weight vanishes
        if len(pts) == 0:
            return out
        first = np.empty(len(pts), dtype=bool)
        first[0] = True
        np.not_equal(pts[1:], pts[:-1], out=first[1:])
        rows = pts[first]                    # points with a positive weight
        face = psi.face_density(z[rows], frame[rows])
        out[pts, cols] = (w * f(z[pts] - shifts[cols])
                          * face[np.cumsum(first) - 1])
        return out

    return density


def pairing_at_epsilon(domain: PiecewiseDomain, f: HolomorphicFunction,
                       psi: TestForm, cover: ChartCover, eps: float,
                       spec: QuadratureSpec | None = None,
                       guard_pts: np.ndarray | None = None,
                       weight_tables: Sequence[_WeightTable] | None = None
                       ) -> PairingSample:
    """Evaluate F(eps) = sum_i int_bdry f(z - eps v_i) chi_i psi.

    Each boundary patch whose extent meets the form support is integrated
    once, with one integrand component per chart whose region meets the
    patch; the components share one adaptive subdivision, and each batch
    evaluates the cover, the frame and the pullback of psi once per point
    and f once per (point, chart) pair of positive weight.  A chart's
    contribution is its component summed over patches in a fixed order, so
    repeated runs agree bitwise; its ``cells_used`` counts the cells of the
    patch subdivisions it took part in, and the sample's ``cells_used``
    counts every patch subdivision once.

    ``weight_tables``, one per boundary patch in ``domain.pieces`` order, is
    how ``pairing_sequence`` shares the epsilon-free weights chi_i between
    its samples: a cell whose weights a table holds skips
    ``ChartCover.partition_weight``, and a cell that it does not hold is
    added to it.  Without tables every weight is computed and nothing is
    kept.  Either way the sample is the same, bit for bit.
    """
    if spec is None:
        spec = QuadratureSpec()
    if eps <= 0:
        raise ScenarioError(f"epsilon must be positive, got {eps}")
    if psi.ambient_dim != domain.ambient_dim:
        raise ScenarioError("form and domain dimensions differ")
    if guard_pts is None and domain.ambient_dim == 2 and f.pole_locus:
        guard_pts, _ = domain.boundary_samples(per_axis=4_000)

    charts = cover.charts
    for chart in charts:
        if chart.margin is not None and chart.margin <= 0:
            raise ScenarioError(f"chart {chart.label!r} has nonpositive margin")
    _translated_pole_guard(domain, f, cover, eps, guard_pts)
    shifts = eps * np.array([chart.v for chart in charts])
    values = np.zeros(len(charts), dtype=np.complex128)
    errs = np.zeros(len(charts))
    chart_cells = np.zeros(len(charts), dtype=int)
    cells = 0
    for k, patch in enumerate(_boundary_patches(domain)):
        center, radius = _patch_extent(patch)
        if psi.support is not None and not psi.support.might_contain(center, radius):
            continue
        meet = [i for i, chart in enumerate(charts)
                if chart.region.might_contain(center, radius)]
        if not meet:
            continue
        specials = [s for i in meet
                    for s in _chart_specials(f, charts[i], eps, domain.ambient_dim)]
        table = None if weight_tables is None else weight_tables[k]
        result = integrate_face(
            patch, _translated_density(cover, meet, f, psi, shifts[meet], table),
            spec, specials)
        if not result.converged:
            raise BudgetExceededError(
                f"patch {patch.label!r} of piece {patch.owner} quadrature did "
                f"not converge at eps={eps:.3e} (err "
                f"{float(np.sum(result.err_est)):.2e}, {result.cells_used} cells)")
        values[meet] += result.value
        errs[meet] += result.err_est
        chart_cells[meet] += result.cells_used
        cells += result.cells_used

    contributions = tuple(
        ChartContribution(chart.label, complex(values[i]), float(errs[i]),
                          int(chart_cells[i]))
        for i, chart in enumerate(charts))
    value = complex(math.fsum(values.real), math.fsum(values.imag))
    return PairingSample(float(eps), value, float(math.fsum(errs)),
                         contributions, cells)


# ---------------------------------------------------------------------------
# The epsilon schedule


@dataclass(frozen=True)
class PairingSchedule:
    eps0: float = 0.1
    ratio: float = 0.5
    steps: int = 14

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ScenarioError(f"ratio must be in (0, 1), got {self.ratio}")
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise ScenarioError(f"eps0 must be positive and finite, got {self.eps0}")
        if self.steps < 1:
            raise ScenarioError(f"steps must be >= 1, got {self.steps}")

    def epsilons(self) -> list[float]:
        return [self.eps0 * self.ratio ** k for k in range(self.steps)]


def pairing_sequence(domain: PiecewiseDomain, f: HolomorphicFunction,
                     psi: TestForm, cover: ChartCover,
                     schedule: PairingSchedule | None = None,
                     spec: QuadratureSpec | None = None) -> list[PairingSample]:
    """Evaluate the pairing along a geometric epsilon schedule.

    Only f(z - eps v_i) changes along the schedule.  Each sample is one
    ``pairing_at_epsilon`` call, and the calls share one weight table per
    boundary patch: each cell's positive partition weights are computed the
    first time a sample's quadrature reaches that cell and read back by the
    later samples.  The tables hold about 14 bytes per positive (point,
    chart) pair and are dropped when this call returns.  The samples are
    bit for bit those of separate ``pairing_at_epsilon`` calls.

    On a budget failure the exception carries the completed prefix in
    ``partial``.
    """
    if schedule is None:
        schedule = PairingSchedule()
    if schedule.eps0 > 0.1 * domain.diameter() + 1e-12:
        raise ScenarioError(
            f"eps0={schedule.eps0} exceeds a tenth of the domain diameter "
            f"{domain.diameter():.3g}")
    guard_pts = None
    if domain.ambient_dim == 2 and f.pole_locus:
        guard_pts, _ = domain.boundary_samples(per_axis=4_000)
    tables = [_WeightTable(len(XGK) ** len(patch.param_box))
              for patch in _boundary_patches(domain)]
    samples: list[PairingSample] = []
    for eps in schedule.epsilons():
        try:
            samples.append(pairing_at_epsilon(domain, f, psi, cover, eps, spec,
                                              guard_pts=guard_pts,
                                              weight_tables=tables))
        except BudgetExceededError as err:
            err.partial = samples
            raise
    return samples


# ---------------------------------------------------------------------------
# Volume (Stokes) route


def integrability_scale(domain: PiecewiseDomain, f: HolomorphicFunction,
                        spec: QuadratureSpec | None = None) -> float:
    """Budgeted int_Omega |f| dV; raises NotL1Error when f is not integrable.

    Boundary poles of order >= 2 are screened out first: near a pole of
    order k the radial profile int r^(1-k) dr diverges for k >= 2, in one
    variable at a boundary point and in two variables along the pole plane.
    """
    for pole in boundary_poles(domain, f):
        if pole.order >= 2:
            raise NotL1Error(
                f"{f.label or 'f'} has an order-{pole.order} boundary pole at "
                f"z_{pole.var + 1} = {pole.location:.3g}; |f| is not integrable")
    if spec is None:
        spec = QuadratureSpec(rel_tol=3e-5, abs_tol=1e-9,
                              max_subdivisions=40_000, corner_refine_depth=10)
    specials = [SpecialPoint(_pole_point(domain, p), 0.0)
                for p in f.pole_locus if p.var is not None]
    result = integrate_volume(domain, lambda z: np.abs(f(z)), spec, specials)
    value = abs(result.value)
    if not math.isfinite(value) or value > 1e8 or \
            (not result.converged and result.err_est > 0.2 * max(value, 1.0)):
        raise NotL1Error(
            f"budgeted integral of |{f.label or 'f'}| did not settle "
            f"(value {value:.3g}, err {result.err_est:.3g})")
    return float(value)


def _pole_point(domain: PiecewiseDomain, pole) -> np.ndarray:
    if domain.ambient_dim == 1:
        return np.array([pole.location])
    anchor = domain.interior_point()
    q = np.array(anchor, dtype=np.complex128)
    q[pole.var] = pole.location
    return q


def stokes_oracle(domain: PiecewiseDomain, f: HolomorphicFunction,
                  psi: TestForm, spec: QuadratureSpec | None = None) -> complex:
    """Volume route sigma * int_Omega f * density(dbar psi) for integrable f.

    Raises BudgetExceededError when the volume integral does not converge
    within the budget of ``spec``.
    """
    integrability_scale(domain, f)
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12,
                              max_subdivisions=400_000, corner_refine_depth=8)
    result = _stokes_volume(domain, f, psi, spec)
    if not result.converged:
        raise BudgetExceededError(
            f"the Stokes volume integral of f = {f.label or '?'} against "
            f"{psi.label or 'the test form'!r} did not converge (err "
            f"{result.err_est:.2e}, {result.cells_used} cells)")
    return STOKES_SIGN * result.value


def _stokes_volume(domain: PiecewiseDomain, f: HolomorphicFunction,
                   psi: TestForm, spec: QuadratureSpec) -> IntegralResult:
    """int_Omega f * density(dbar psi) dV, presplit at the poles of f; the
    caller has already screened f with integrability_scale."""
    specials = [SpecialPoint(_pole_point(domain, p), 0.0) for p in f.pole_locus]
    return integrate_volume(
        domain, lambda z: f(z) * psi.dbar_volume_density(z), spec, specials)


def calibrate_stokes_sign(domain: PiecewiseDomain,
                          spec: QuadratureSpec | None = None) -> int:
    """Re-derive the frozen volume-route sign by matching f = 1 both ways,
    paired with a probe form whose cutoff plateau covers the domain."""
    psi = _probe_form(domain)
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-10,
                              max_subdivisions=100_000)
    vol = integrate_volume(domain, psi.dbar_volume_density, spec).value
    ones = [FaceDistribution(j, lambda z: np.ones(len(z), dtype=np.complex128))
            for j in range(len(domain.pieces))]
    bdry = face_distribution_pairing(domain, ones, psi, spec)
    if abs(vol - bdry) <= abs(-vol - bdry):
        return 1
    return -1


def _probe_form(domain: PiecewiseDomain) -> TestForm:
    box = domain.bounding_box
    center = np.array([0.5 * (box[2 * k][0] + box[2 * k][1])
                       + 0.5j * (box[2 * k + 1][0] + box[2 * k + 1][1])
                       for k in range(domain.ambient_dim)])
    half_diag = 0.5 * domain.diameter()
    cutoff = plateau_cutoff(center, 1.2 * half_diag + 0.2, 1.8 * half_diag + 0.5)
    if domain.ambient_dim == 1:
        return form_from_expressions("x", 1, cutoff, label="x dz probe")
    return form_from_expressions(("0", "zbar1"), 2, cutoff, label="probe")


# ---------------------------------------------------------------------------
# Face-restriction route


@dataclass(frozen=True)
class FaceDistribution:
    """A density on one smooth boundary piece, masked to its active part."""

    face_index: int
    density: Callable[[np.ndarray], np.ndarray]


def face_restrictions(domain: PiecewiseDomain,
                      f: HolomorphicFunction) -> list[FaceDistribution]:
    """alpha_j = f restricted to each face, for f continuous on the closure."""
    return [FaceDistribution(j, lambda z: np.asarray(f(z), dtype=np.complex128))
            for j in range(len(domain.pieces))]


def face_distribution_pairing(domain: PiecewiseDomain,
                              distributions: Sequence[FaceDistribution],
                              psi: TestForm,
                              spec: QuadratureSpec | None = None) -> complex:
    """Sum over faces of int alpha_j * (pullback of psi) on the active part."""
    if spec is None:
        spec = QuadratureSpec()
    return _face_pairing(domain, distributions, psi, spec).value


def _face_pairing(domain: PiecewiseDomain,
                  distributions: Sequence[FaceDistribution], psi: TestForm,
                  spec: QuadratureSpec) -> IntegralResult:
    parts = []
    for dist in distributions:
        if not (0 <= dist.face_index < len(domain.pieces)):
            raise ScenarioError(f"face index {dist.face_index} out of range")
        piece = domain.pieces[dist.face_index]
        for patch in piece.patches:

            def density(z, frame, dist=dist):
                return (np.asarray(dist.density(z), dtype=np.complex128)
                        * psi.face_density(z, frame))

            parts.append(integrate_face(patch, density, spec))
    return combine_results(parts)


# ---------------------------------------------------------------------------
# Weinstock tests


@dataclass(frozen=True)
class WeinstockEntry:
    label: str
    closed: bool
    closedness_residual: float
    value: complex | None
    route: str
    err_est: float = 0.0
    cells_used: int = 0
    oracle_value: complex | None = None


@dataclass(frozen=True)
class WeinstockReport:
    entries: tuple[WeinstockEntry, ...]
    passed: bool
    scale: float
    tolerance: float
    cells_used: int


def _closedness_residual(domain: PiecewiseDomain, form: TestForm,
                         offset: float) -> float:
    """Max |dbar psi| sampled over a one-sided neighborhood of the closure."""
    pts = [domain.interior_points(count=160, margin=0.0, seed=3)]
    bpts, _ = domain.boundary_samples(per_axis=64 if domain.ambient_dim == 1 else 800)
    pts.append(bpts)
    # push boundary samples slightly outward through the bounding-box center
    box = domain.bounding_box
    center = np.array([0.5 * (box[2 * k][0] + box[2 * k][1])
                       + 0.5j * (box[2 * k + 1][0] + box[2 * k + 1][1])
                       for k in range(domain.ambient_dim)])
    rel = bpts - center
    norm = np.sqrt(np.sum(np.abs(rel) ** 2, axis=-1, keepdims=True))
    rel = np.where(norm > 0, rel / np.maximum(norm, 1e-300), 0.0)
    pts.append(bpts + offset * rel)
    allpts = np.concatenate(pts, axis=0)
    return float(np.max(np.abs(form.dbar_volume_density(allpts))))


def weinstock_test(domain: PiecewiseDomain, f, form_family: Sequence[TestForm],
                   spec: QuadratureSpec | None = None,
                   force: bool = False,
                   closedness_tol: float = 1e-8,
                   make_cover: Callable[[], ChartCover] | None = None
                   ) -> WeinstockReport:
    """Check that dbar-closed forms pair to zero against the boundary current.

    ``f`` is a HolomorphicFunction or a list of FaceDistribution.  The route
    per form: face restrictions when f extends continuously, the volume
    (Stokes) route when f is merely integrable, the translated-epsilon route
    otherwise.  Forms failing the dbar = 0 precondition raise
    FormNotClosedError unless ``force`` is set, in which case their pairing
    is computed anyway and reported next to the volume oracle
    int_Omega dbar(psi)-density.
    Closedness is sampled up to 1% of the diameter outside the closure.
    ``make_cover`` builds the chart cover of the translated-epsilon route
    (default: ``build_chart_cover`` with its default settings); it is called
    once, and only when that route is taken.
    """
    neighborhood = 0.01 * domain.diameter()
    dists = None
    func = None
    if isinstance(f, HolomorphicFunction):
        func = f
    else:
        dists = list(f)

    residuals = [_closedness_residual(domain, form, neighborhood)
                 for form in form_family]
    bad = [form.label or f"form {k}" for k, form in enumerate(form_family)
           if residuals[k] > closedness_tol]
    if bad and not force:
        raise FormNotClosedError(
            "dbar does not vanish near the closure for: " + ", ".join(bad))

    if func is not None:
        bpoles = boundary_poles(domain, func)
        if not bpoles:
            route = "faces"
            dists = face_restrictions(domain, func)
            scale_val = _boundary_sup(domain, func)
        else:
            try:
                scale_val = integrability_scale(domain, func)
                route = "stokes"
            except NotL1Error:
                route = "epsilon"
                scale_val = 1.0
    else:
        route = "faces"
        scale_val = 1.0
    scale = max(1.0, scale_val)

    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=3e-8,
                              max_subdivisions=60_000, corner_refine_depth=5)

    if route == "epsilon":
        cover = make_cover() if make_cover is not None else \
            build_chart_cover(domain)
    entries = []
    total_cells = 0
    for k, form in enumerate(form_family):
        closed = residuals[k] <= closedness_tol
        label = form.label or f"form {k}"
        oracle = None
        if not closed:
            # forced pairing must reproduce the volume integral of dbar(psi)
            vol_spec = replace(spec, abs_tol=max(spec.abs_tol, 1e-9))
            fdens = (lambda z: form.dbar_volume_density(z)) if func is None \
                else (lambda z: func(z) * form.dbar_volume_density(z))
            oracle = integrate_volume(domain, fdens, vol_spec).value
        if route == "faces":
            res = _face_pairing(domain, dists, form, spec)
            value, err, cells = res.value, res.err_est, res.cells_used
        elif route == "stokes":
            res = _stokes_volume(domain, func, form, spec)
            value, err, cells = res.value, res.err_est, res.cells_used
        else:
            value, err, cells = _weinstock_epsilon_value(domain, func, form,
                                                         cover, spec)
        total_cells += cells
        entries.append(WeinstockEntry(label, closed, residuals[k], value,
                                      route, err, cells, oracle))

    tol = 1e-6 * scale
    passed = all(e.closed and abs(e.value) < tol for e in entries)
    return WeinstockReport(tuple(entries), passed, scale, tol, total_cells)


def _boundary_sup(domain: PiecewiseDomain, func: HolomorphicFunction) -> float:
    pts, _ = domain.boundary_samples(per_axis=48 if domain.ambient_dim == 1 else 400)
    return float(np.max(np.abs(func(pts))))


def _weinstock_epsilon_value(domain, func, form, cover, spec):
    samples = pairing_sequence(domain, func, form, cover,
                               PairingSchedule(steps=10), spec)
    from .asymptotics import richardson_limit
    value = richardson_limit([s.value for s in samples[-4:]], 0.5)
    err = sum(s.err_est for s in samples[-4:])
    cells = sum(s.cells_used for s in samples)
    return value, err, cells
