"""Cheeger constants: upper bounds from cuts, lower bounds from flow fields.

The horizontal perimeter of a polyline cut integrates
rho(p) * || ( <X_i(p), nu(p)> )_i ||_2 along the segments, where nu is the
chart-Euclidean unit normal; this is the integrand for which the coarea
identity and the dual characterization by unit-coefficient vector fields
hold, and it degenerates exactly where the generating family does.
Upper bounds come from explicit cut families and from level sets of grid
functions (marching squares), chosen per boundary flavor by upper_bound;
lower bounds come from divergence certificates: a horizontal field V with
|V| <= 1 and div V >= h witnesses h as a Cheeger lower bound (for the
Neumann flavor V must in addition point inward along the boundary).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .discretization import Grid2D
from .geometry import CCStructure, HorizontalField, divergence

_KINDS = ("dirichlet", "neumann", "mixed")

# horizontal_perimeter halves its midpoint rule until two successive rules
# agree to this relative tolerance, at most this many times.
PERIMETER_REL_TOL = 1e-6
PERIMETER_MAX_REFINE = 16


@dataclass(frozen=True)
class Cut:
    """A candidate cut: straight segments with its perimeter and side volumes.

    ``segments`` is an (S, 2, 2) float array of segment endpoints.
    """

    kind: str
    segments: np.ndarray
    sigma: float
    vol1: float
    vol2: float

    @property
    def ratio(self) -> float:
        """sigma / min(vol1, vol2); infinite when one side is empty."""
        smaller = min(self.vol1, self.vol2)
        return self.sigma / smaller if smaller > 0.0 else float("inf")


def _segments_array(segments) -> np.ndarray:
    segs = np.asarray(segments, dtype=float)
    if segs.size == 0:
        return np.zeros((0, 2, 2))
    if segs.ndim != 3 or segs.shape[1:] != (2, 2):
        raise ValueError(f"segments must have shape (S, 2, 2), got {segs.shape}")
    return segs


def _validate_in_chart(structure: CCStructure, segs: np.ndarray) -> None:
    chart = structure.chart
    if segs.size == 0:
        return
    for axis, (lo, hi), length in ((0, chart.x_range, chart.x_length),
                                   (1, chart.y_range, chart.y_length)):
        values, tol = segs[..., axis], 1e-9 * length
        if values.min() < lo - tol or values.max() > hi + tol:
            raise ValueError(f"segment endpoint outside the chart in {'xy'[axis]}")


def horizontal_perimeter(structure: CCStructure, segments) -> float:
    """Horizontal perimeter of a polyline: adaptive midpoint quadrature of
    rho * ||(<X_i, nu>)_i||_2, refined until successive composite rules agree
    to PERIMETER_REL_TOL, else raises ValueError after PERIMETER_MAX_REFINE
    halvings (an integrable singularity on the cut slows the rule down).
    Zero-length segments contribute nothing.
    """
    segs = _segments_array(segments)
    _validate_in_chart(structure, segs)
    p0 = segs[:, 0, :]
    p1 = segs[:, 1, :]
    d = p1 - p0
    lengths = np.hypot(d[:, 0], d[:, 1])
    keep = lengths > 0.0
    if not np.any(keep):
        return 0.0
    p0, d, lengths = p0[keep], d[keep], lengths[keep]
    nu = np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]
    total_prev = np.inf
    for level in range(PERIMETER_MAX_REFINE + 1):
        npts = 2 ** level
        tpar = (np.arange(npts) + 0.5) / npts
        px = p0[:, 0:1] + np.outer(d[:, 0], tpar)
        py = p0[:, 1:2] + np.outer(d[:, 1], tpar)
        coeffs = structure.coefficients_at(px, py)          # (m, 2, S, npts)
        pairing = (coeffs[:, 0] * nu[None, :, 0, None]
                   + coeffs[:, 1] * nu[None, :, 1, None])
        integrand = structure.density_at(px, py) * np.sqrt(np.sum(pairing**2, axis=0))
        total = float(np.sum(lengths * integrand.mean(axis=1)))
        if abs(total - total_prev) <= PERIMETER_REL_TOL * max(abs(total), 1e-300):
            return total
        total_prev = total
    raise ValueError(f"perimeter quadrature did not reach rel_tol={PERIMETER_REL_TOL} "
                     f"after {PERIMETER_MAX_REFINE} refinements")


def region_volume(structure: CCStructure, grid: Grid2D, cell_mask: np.ndarray) -> float:
    """omega-volume of a union of grid cells (midpoint quadrature of rho)."""
    cell_mask = np.asarray(cell_mask, dtype=bool)
    shape = (grid.n_cells_x, grid.n_cells_y)
    if cell_mask.shape != shape:
        raise ValueError(f"cell mask must have shape {shape}, got {cell_mask.shape}")
    rho = structure.density_at(*grid.cell_meshes(0.5))
    return float(np.sum(rho[cell_mask]) * grid.hx * grid.hy)


# Marching squares: corner bits are BL=1, BR=2, TR=4, TL=8.  Rows are
# (case, above, edge pairs) in emission order; each pair joins the crossing
# points on two of the cell's edges b, r, t, l.  Saddle cases 5 and 10 split
# on whether the corner average lies above the level (above=None: either).
_MS_ORDER = (
    (1, None, ("lb",)), (14, None, ("lb",)), (2, None, ("br",)), (13, None, ("br",)),
    (4, None, ("rt",)), (11, None, ("rt",)), (8, None, ("tl",)), (7, None, ("tl",)),
    (3, None, ("lr",)), (12, None, ("lr",)), (6, None, ("bt",)), (9, None, ("bt",)),
    (5, True, ("br", "tl")), (5, False, ("lb", "rt")),
    (10, True, ("lb", "rt")), (10, False, ("br", "tl")),
)


class _LevelSweep:
    """The level-independent part of the level sets of one grid function:
    cell corner values (BL, BR, TR, TL), their sum, average (which side of
    {u = t} a cell is on) and extremes (which cells a level crosses), cell
    origins and, on first use, cell-centre densities.  Each level then
    marches only the cells it crosses (_level_segments) and sums cached
    densities (cut_from_level_set)."""

    def __init__(self, structure: CCStructure | None, grid: Grid2D, values2d: np.ndarray):
        self.structure, self.grid = structure, grid
        ix = np.arange(grid.n_cells_x)
        iy = np.arange(grid.n_cells_y)
        ixp = (ix + 1) % grid.nx
        iyp = (iy + 1) % grid.ny
        self.corners = (values2d[np.ix_(ix, iy)], values2d[np.ix_(ixp, iy)],
                        values2d[np.ix_(ixp, iyp)], values2d[np.ix_(ix, iyp)])
        w00, w10, w11, w01 = self.corners
        self.corner_sum = w00 + w10 + w01 + w11
        self.center = self.corner_sum / 4.0
        self.low = np.minimum(np.minimum(w00, w10), np.minimum(w11, w01))
        self.high = np.maximum(np.maximum(w00, w10), np.maximum(w11, w01))
        self.origins = grid.cell_meshes(0.0)

    @cached_property
    def rho(self) -> np.ndarray:
        """Density at the cell centres (midpoint quadrature of side volumes)."""
        return self.structure.density_at(*self.grid.cell_meshes(0.5))


def _level_segments(grid: Grid2D, values2d: np.ndarray, t: float,
                    sweep: _LevelSweep | None = None) -> np.ndarray:
    """Marching-squares contour of {u = t}; shape (S, 2, 2).

    Crossing points are linearly interpolated on cell edges; saddle cells
    are disambiguated by the sign of the corner average.  Cells wrap on
    periodic axes, so contours close across the seam.  Segments come out
    grouped by case in table order, row-major within a case.  ``sweep`` is
    the _LevelSweep of values2d when the caller sweeps several levels.
    """
    if sweep is None:
        sweep = _LevelSweep(None, grid, values2d)
    cells = np.flatnonzero((sweep.low <= t) & (sweep.high > t))  # case not 0 or 15
    w00, w10, w11, w01 = (w.ravel()[cells] for w in sweep.corners)
    case = ((w00 > t).astype(int) + 2 * (w10 > t) + 4 * (w11 > t) + 8 * (w01 > t))

    X0, Y0 = (o.ravel()[cells] for o in sweep.origins)
    with np.errstate(divide="ignore", invalid="ignore"):
        sb = np.clip((t - w00) / (w10 - w00), 0.0, 1.0)
        sr = np.clip((t - w10) / (w11 - w10), 0.0, 1.0)
        st = np.clip((t - w01) / (w11 - w01), 0.0, 1.0)
        sl = np.clip((t - w00) / (w01 - w00), 0.0, 1.0)
    points = {
        "b": np.stack([X0 + sb * grid.hx, Y0], axis=-1),
        "r": np.stack([X0 + grid.hx, Y0 + sr * grid.hy], axis=-1),
        "t": np.stack([X0 + st * grid.hx, Y0 + grid.hy], axis=-1),
        "l": np.stack([X0, Y0 + sl * grid.hy], axis=-1),
    }
    above = sweep.corner_sum.ravel()[cells] > 4.0 * t
    out = []
    for k, side, pairs in _MS_ORDER:
        sel = case == k if side is None else (case == k) & (above == side)
        if np.any(sel):
            out.extend(np.stack([points[a][sel], points[b][sel]], axis=1) for a, b in pairs)
    if not out:
        return np.zeros((0, 2, 2))
    segs = np.concatenate(out, axis=0)
    lengths = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    return segs[lengths > 0.0]


def _node_values(grid: Grid2D, u) -> np.ndarray:
    values = np.asarray(u, dtype=float).ravel()
    if values.size != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} node values, got {values.size}")
    return values.reshape(grid.nx, grid.ny)


def cut_from_level_set(structure: CCStructure, grid: Grid2D, u, t: float,
                       sweep: _LevelSweep | None = None) -> Cut:
    """Cut along the level set {u = t}; vol1 is the omega-volume of {u > t}.

    Side volumes are summed over cells classified by their corner average,
    so vol1 + vol2 equals the total volume exactly.  ``sweep`` is the
    _LevelSweep of u when the caller cuts several levels of it.
    """
    values2d = _node_values(grid, u)
    umin, umax = values2d.min(), values2d.max()
    if not umin < t < umax:
        raise ValueError(f"level t={t} outside the open range ({umin}, {umax}) of u")
    if sweep is None:
        sweep = _LevelSweep(structure, grid, values2d)
    segments = _level_segments(grid, values2d, t, sweep)
    sigma = horizontal_perimeter(structure, segments)
    mask = sweep.center > t
    vol1 = float(np.sum(sweep.rho[mask]) * grid.hx * grid.hy)
    vol2 = float(np.sum(sweep.rho[~mask]) * grid.hx * grid.hy)
    return Cut(kind="level_set", segments=segments, sigma=sigma, vol1=vol1, vol2=vol2)


def _level_cuts(structure: CCStructure, grid: Grid2D, values2d: np.ndarray,
                levels: np.ndarray) -> list[Cut]:
    """Cuts along {u = t} for each distinct t of ``levels`` inside the open
    range of u, in ascending t, all marched on one _LevelSweep."""
    umin, umax = values2d.min(), values2d.max()
    sweep = _LevelSweep(structure, grid, values2d)
    return [cut_from_level_set(structure, grid, values2d, float(t), sweep)
            for t in np.unique(levels) if umin < t < umax]


def sweep_level_sets(structure: CCStructure, grid: Grid2D, u, n_levels: int = 40) -> Cut:
    """Best (smallest-ratio) level-set cut over n_levels quantiles of u."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be positive, got {n_levels}")
    values2d = _node_values(grid, u)
    if values2d.max() - values2d.min() <= 1e-300:
        raise ValueError("cannot sweep level sets of a constant function")
    qs = (np.arange(n_levels) + 1.0) / (n_levels + 1.0)
    cuts = [c for c in _level_cuts(structure, grid, values2d, np.quantile(values2d, qs))
            if np.isfinite(c.ratio)]
    if not cuts:
        raise ValueError("no level produced a two-sided cut")
    return min(cuts, key=lambda c: c.ratio)


def candidate_cuts_grushin(structure: CCStructure, grid: Grid2D,
                           n_circles: int = 31, n_line_pairs: int = 16) -> list[Cut]:
    """Closed-form cut families for the Grushin cylinder.

    Vertical circles {h} x S^1 for h on an interior grid of (0,1), and
    pairs of horizontal lines {y0, y0 + pi} x (0,1) for y0 in [0, pi).
    Perimeters come from the quadrature (exact for these integrands) and
    volumes from the closed forms h*2*pi resp. pi on each side.
    """
    if structure.name != "grushin-cylinder":
        raise ValueError("candidate cut families require the Grushin cylinder structure")
    chart = structure.chart
    y_lo, y_hi = chart.y_range
    cuts: list[Cut] = []
    for h in np.linspace(0.0, 1.0, n_circles + 2)[1:-1]:
        segments = np.array([[[h, y_lo], [h, y_hi]]])
        sigma = horizontal_perimeter(structure, segments)
        vol1 = float(h) * chart.y_length
        cuts.append(Cut(kind="vertical_circle", segments=segments, sigma=sigma,
                        vol1=vol1, vol2=chart.y_length - vol1))
    half = chart.y_length / 2.0
    for y0 in y_lo + half * np.arange(n_line_pairs) / n_line_pairs:
        segments = np.array([[[0.0, y0], [1.0, y0]],
                             [[0.0, y0 + half], [1.0, y0 + half]]])
        sigma = horizontal_perimeter(structure, segments)
        cuts.append(Cut(kind="line_pair", segments=segments, sigma=sigma,
                        vol1=half, vol2=half))
    return cuts


def superlevel_cuts(structure: CCStructure, grid: Grid2D, u, n_levels: int = 40) -> list[Cut]:
    """Cuts along {u = t} at the (i + 1/2) / n_levels quantiles t of the
    positive values of u (negated first if its largest magnitude is
    negative) inside its open range; vol1 is the volume of {u > t}.
    One-sided cuts are kept: dirichlet_cheeger_upper reads vol1 alone."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be positive, got {n_levels}")
    values2d = _node_values(grid, u)
    if -values2d.min() > values2d.max():
        values2d = -values2d
    positives = values2d[values2d > 0.0]
    if positives.size == 0:
        raise ValueError("u has no positive part to sweep")
    qs = (np.arange(n_levels) + 0.5) / n_levels
    return _level_cuts(structure, grid, values2d, np.quantile(positives, qs))


def _dirichlet_ratio(cut: Cut) -> float:
    """sigma / vol1, the ratio a superlevel cut bounds h_dirichlet by;
    infinite without a level set or a region."""
    return cut.sigma / cut.vol1 if len(cut.segments) and cut.vol1 > 0.0 else float("inf")


def dirichlet_cheeger_upper(structure: CCStructure, grid: Grid2D, u, cuts) -> float:
    """Upper bound for the Dirichlet Cheeger constant from super-level sets.

    u must vanish on the non-periodic boundary (e.g. a Dirichlet
    eigenfunction expanded to the full grid); its super-level sets then
    stay away from the boundary and sigma(boundary of {u > t}) / vol({u > t})
    bounds the constant from above for every admissible t.  The bound is
    the least such ratio over ``cuts``, the superlevel_cuts of u, that
    have a non-empty level set and region.
    """
    values2d = _node_values(grid, u)
    vmax = np.abs(values2d).max()
    if vmax == 0.0:
        raise ValueError("u is identically zero")
    if np.abs(values2d[grid.boundary_mask()]).max(initial=0.0) > 1e-10 * vmax:
        raise ValueError("u does not vanish on the boundary")
    h = min(map(_dirichlet_ratio, cuts), default=float("inf"))
    if h == float("inf"):
        raise ValueError("no positive level produced a non-empty region")
    return h


def upper_bound(structure: CCStructure, grid: Grid2D, flavor: str, u,
                n_levels: int) -> tuple[list[Cut], Cut, float]:
    """The cuts a run lists for h_flavor, the cut that sets the upper bound,
    and that bound.

    u is lambda_2's eigenfunction for neumann, else lambda_1's, on the full
    grid.  Neumann: the Grushin cylinder's closed-form families (for that
    structure) and the best quantile level cut of u.  Dirichlet and mixed:
    the two-sided superlevel_cuts of u.  The bound is the least Cut.ratio,
    except for dirichlet: dirichlet_cheeger_upper reads every superlevel
    cut, one-sided ones included, by sigma / vol1.  Raises ValueError when
    the grid is too coarse for any admissible cut.
    """
    if flavor not in _KINDS:
        raise ValueError(f"flavor must be one of {_KINDS}, got {flavor!r}")
    if flavor == "neumann":
        cuts = (candidate_cuts_grushin(structure, grid)
                if structure.name == "grushin-cylinder" else [])
        cuts.append(sweep_level_sets(structure, grid, u, n_levels=n_levels))
    else:
        level_cuts = superlevel_cuts(structure, grid, u, n_levels=n_levels)
        cuts = [c for c in level_cuts if np.isfinite(c.ratio)]
        if flavor == "dirichlet":
            h_upper = dirichlet_cheeger_upper(structure, grid, u, level_cuts)
            return cuts, min(level_cuts, key=_dirichlet_ratio), h_upper
        if not cuts:
            raise ValueError("no level produced a two-sided cut")
    best = min(cuts, key=lambda c: c.ratio)
    return cuts, best, best.ratio


@dataclass(frozen=True)
class FlowCertificate:
    """Divergence lower-bound certificate carried by a horizontal field.

    Valid means: the coefficient norm never exceeds 1 (up to tol) and, in
    neumann mode, the field points inward along the non-periodic boundary.
    h_certified is the least divergence sampled on the interior nodes (away
    from non-periodic boundaries, where the stencils are centered): a node
    sample, not a proof, which to_dict records as "sampling": "nodes".
    boundary_inward_min is None on a chart without a non-periodic boundary.
    """

    mode: str
    h_certified: float
    max_coeff_norm: float
    min_divergence: float
    boundary_inward_min: float | None
    valid: bool
    tol: float

    @property
    def supplies_h_lower(self) -> bool:
        """Whether h_certified may serve as a lower bound for h.

        Not in neumann mode: a field pointing inward on the whole boundary
        has no outward flux, so the integral of rho div V is <= 0 and so is
        min div V.  Such a field can certify only h >= (something <= 0); a
        positive h_certified there is an artifact of sampling nodes.
        """
        return self.mode != "neumann"

    def h_lower_for(self, flavor: str) -> float | None:
        """h_certified as a lower bound for h_flavor, or None when this
        certificate gives none: it must be valid, supply h_lower and have
        been checked in the mode of that flavor."""
        usable = self.valid and self.supplies_h_lower and self.mode == flavor
        return self.h_certified if usable else None

    def to_dict(self) -> dict:
        return {**asdict(self), "supplies_h_lower": self.supplies_h_lower, "sampling": "nodes"}


def mfmc_certify(structure: CCStructure, grid: Grid2D, V: HorizontalField,
                 mode: str, tol: float = 1e-9) -> FlowCertificate:
    """Evaluate a candidate flow field as a Cheeger lower-bound certificate.

    For any cut, the perimeter dominates the flux of a unit-coefficient
    field through it, and the flux equals the divergence integral over the
    enclosed region; hence min div bounds the Cheeger constant from below.
    In neumann mode the flux argument also needs <V, inward normal> >= 0 on
    the boundary, which is checked on every non-periodic boundary node.
    """
    if mode not in ("dirichlet", "neumann"):
        raise ValueError(f"mode must be 'dirichlet' or 'neumann', got {mode!r}")
    if V.grid != grid:
        raise ValueError("field and grid do not match")
    div2d = divergence(structure, V)
    interior = div2d[~grid.boundary_mask()]
    if interior.size == 0:
        raise ValueError("grid has no interior nodes")
    min_div = float(interior.min())
    max_norm = float(np.sqrt(V.squared_length().max()))
    components = V.chart_components(structure)
    # inward on an edge is the component along its axis, negated on layer -1
    inward = [np.take(components[axis], layer, axis=axis) * (1.0 if layer == 0 else -1.0)
              for axis, layer in grid.edges()]
    inward_min = float(np.concatenate(inward).min()) if inward else None
    valid = max_norm <= 1.0 + tol
    if mode == "neumann" and inward_min is not None:
        valid = valid and (inward_min >= -tol)
    return FlowCertificate(mode=mode, h_certified=min_div,
                           max_coeff_norm=max_norm, min_divergence=min_div,
                           boundary_inward_min=inward_min, valid=bool(valid), tol=tol)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of checking lambda >= h^2 / 4."""

    kind: str
    lambda_value: float
    h_lower: float
    lower_bound: float
    slack: float
    satisfied: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["lambda"] = doc.pop("lambda_value")
        return doc


def verify_inequality(lambda_value: float, h_lower: float, kind: str,
                      tol: float = 1e-12) -> InequalityReport:
    """Check the Cheeger inequality lambda >= h^2/4 for a certified h.

    kind is dirichlet (lambda_1), neumann (lambda_2) or mixed (lambda_1 of
    the mixed problem).  FlowCertificate.h_lower_for says when a
    certificate's h_certified may serve as h_lower.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    h = float(h_lower)
    bound = 0.25 * h * h
    slack = float(lambda_value) - bound
    return InequalityReport(kind=kind, lambda_value=float(lambda_value), h_lower=h,
                            lower_bound=bound, slack=slack, satisfied=slack >= -tol)


@dataclass(frozen=True)
class CoareaReport:
    lhs: float
    rhs: float
    rel_gap: float
    n_levels: int


def coarea_check(structure: CCStructure, grid: Grid2D, u,
                 n_levels: int = 200) -> CoareaReport:
    """Compare integral of |grad_H u| d omega with the integral over t of
    the perimeter of {u = t}.

    The left side uses cell-center sampling of the bilinear gradient; the
    right side integrates marching-squares perimeters over equally spaced
    levels by the trapezoid rule (the perimeter vanishes at the extremes).
    """
    values2d = _node_values(grid, u)
    umin, umax = float(values2d.min()), float(values2d.max())
    if umax - umin <= 1e-300:
        raise ValueError("coarea check needs a non-constant function")
    sweep = _LevelSweep(structure, grid, values2d)
    w00, w10, w11, w01 = sweep.corners
    gx = ((w10 - w00) + (w11 - w01)) / (2.0 * grid.hx)
    gy = ((w01 - w00) + (w11 - w10)) / (2.0 * grid.hy)
    coeffs = structure.coefficients_at(*grid.cell_meshes(0.5))
    grad_norm = np.sqrt(np.sum((coeffs[:, 0] * gx + coeffs[:, 1] * gy) ** 2, axis=0))
    lhs = float(np.sum(sweep.rho * grad_norm) * grid.hx * grid.hy)

    ts = np.linspace(umin, umax, n_levels + 2)[1:-1]
    perims = [horizontal_perimeter(structure, _level_segments(grid, values2d, float(t), sweep))
              for t in ts]
    t_ext = np.concatenate(([umin], ts, [umax]))
    p_ext = np.concatenate(([0.0], perims, [0.0]))
    rhs = float(np.trapezoid(p_ext, t_ext))
    rel_gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return CoareaReport(lhs=lhs, rhs=rhs, rel_gap=rel_gap, n_levels=n_levels)

