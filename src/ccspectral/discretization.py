"""Variational finite-difference discretization of the sub-Laplacian.

The energy form A[u,v] = sum over cells of quadrature samples of
rho * sum_i (X_i u)(X_i v) is assembled from bilinear node interpolation
on each grid cell, sampled at the 2x2 Gauss points (a single center
sample would leave a spurious checkerboard zero-energy mode).  The mass
form is the lumped diagonal rho(node) * hx * hy with half weights on
non-periodic edges and quarter weights at corners.  Dirichlet conditions
are imposed by eliminating boundary nodes; Neumann conditions are
natural (no boundary term).

Each chart edge is a node layer: ``_EDGES`` maps its name to (axis, layer),
x_max to layer -1 along axis 0, and a periodic axis has none.  Every part
that asks which nodes lie on an edge asks this table, via Grid2D.edges().

A couples each node only to its eight neighbours, so it is assembled as a
nine-point stencil, one offset (dx, dy) at a time, straight from the 4x4
cell matrices, and compressed to CSR.  The stencil is kept with the forms:
it is what the FFT inverse of the eigensolver reads.

Summation-order contract: an entry of A sums the contributions of the (up
to four) cells that hold both of its nodes in ascending flat cell index,
in the order np.add.reduceat sums a group, v0 + ((v1 + v2) + v3); a single
contribution is used as is, signed zero included.  Cell matrices are
mirrored bitwise across the diagonal and the cells shared by nodes r and c
are the same for (r, c) and (c, r), so A is exactly symmetric, and the
same bits come out for the same grid on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import CCStructure, Chart2D, _check_compatible

__all__ = [
    "Grid2D",
    "build_grid",
    "BCSegment",
    "BoundarySpec",
    "AssembledForms",
    "assemble",
    "rayleigh_quotient",
    "write_matrix_market",
]

_EDGES = {"x_min": (0, 0), "x_max": (0, -1), "y_min": (1, 0), "y_max": (1, -1)}
_CONDITIONS = ("dirichlet", "neumann")


def _edge_names(chart: Chart2D) -> list[str]:
    """The edges the chart has, in _EDGES order: none on a periodic axis."""
    periodic = (chart.periodic_x, chart.periodic_y)
    return [name for name, (axis, _) in _EDGES.items() if not periodic[axis]]


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product node grid on a chart; nodes are flattened x-major.

    Along a non-periodic axis the n nodes include both endpoints and the
    spacing is length/(n-1); along a periodic axis the last node stops one
    spacing short of the far end (which is identified with the near end)
    and the spacing is length/n.
    """

    chart: Chart2D
    nx: int
    ny: int
    hx: float
    hy: float

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @cached_property
    def xs(self) -> np.ndarray:
        return self.chart.x_range[0] + self.hx * np.arange(self.nx)

    @cached_property
    def ys(self) -> np.ndarray:
        return self.chart.y_range[0] + self.hy * np.arange(self.ny)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def node_index(self, ix, iy):
        return np.asarray(ix) * self.ny + np.asarray(iy)

    @property
    def n_cells_x(self) -> int:
        return self.nx if self.chart.periodic_x else self.nx - 1

    @property
    def n_cells_y(self) -> int:
        return self.ny if self.chart.periodic_y else self.ny - 1

    def edges(self) -> list[tuple[int, int]]:
        """(axis, node layer) of each edge the chart has, in _EDGES order."""
        return [_EDGES[name] for name in _edge_names(self.chart)]

    def boundary_mask(self) -> np.ndarray:
        """Boolean (nx, ny) array marking the nodes on an edge."""
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        for axis, layer in self.edges():
            np.moveaxis(mask, axis, 0)[layer] = True
        return mask

    def cell_meshes(self, offset: float) -> tuple[np.ndarray, np.ndarray]:
        """Cell points lo + h * (i + offset): offset 0.0 the origins, 0.5 the centres."""
        xs = self.chart.x_range[0] + self.hx * (np.arange(self.n_cells_x) + offset)
        ys = self.chart.y_range[0] + self.hy * (np.arange(self.n_cells_y) + offset)
        return np.meshgrid(xs, ys, indexing="ij")


def build_grid(chart: Chart2D, nx: int, ny: int) -> Grid2D:
    """Grid with nx x ny nodes; both counts must be at least 3."""
    if nx < 3 or ny < 3:
        raise ValueError(f"grid needs at least 3 nodes per axis, got {nx} x {ny}")
    hx = chart.x_length / (nx if chart.periodic_x else nx - 1)
    hy = chart.y_length / (ny if chart.periodic_y else ny - 1)
    return Grid2D(chart=chart, nx=int(nx), ny=int(ny), hx=hx, hy=hy)


@dataclass(frozen=True)
class BCSegment:
    """One boundary condition on a parameter interval of a chart edge.

    ``edge`` is one of x_min, x_max (parameterized by y) or y_min, y_max
    (parameterized by x).  ``lo``/``hi`` bound the parameter; None means
    the full edge.
    """

    edge: str
    condition: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.edge not in _EDGES:
            raise ValueError(f"unknown edge {self.edge!r}, expected one of {tuple(_EDGES)}")
        if self.condition not in _CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}, expected one of {_CONDITIONS}")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary conditions; any uncovered non-periodic boundary is Neumann."""

    segments: tuple[BCSegment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def all_neumann(cls) -> "BoundarySpec":
        return cls(segments=())

    @classmethod
    def all_dirichlet(cls, chart: Chart2D) -> "BoundarySpec":
        return cls(segments=tuple(BCSegment(name, "dirichlet") for name in _edge_names(chart)))

    def dirichlet_mask(self, grid: Grid2D) -> np.ndarray:
        """Boolean (nx, ny) array marking eliminated nodes.

        A node is Dirichlet when it lies on a closed segment of that kind;
        Dirichlet wins over Neumann wherever segments overlap.
        """
        chart = grid.chart
        mask = np.zeros((grid.nx, grid.ny), dtype=bool)
        for seg in self.segments:
            if seg.edge not in _edge_names(chart):
                raise ValueError(f"edge {seg.edge!r} does not exist: that axis is periodic")
            axis, layer = _EDGES[seg.edge]
            # the edge is parameterized by the other axis
            param, prange = ((grid.xs, chart.x_range), (grid.ys, chart.y_range))[1 - axis]
            lo = prange[0] if seg.lo is None else float(seg.lo)
            hi = prange[1] if seg.hi is None else float(seg.hi)
            tol = 1e-12 * (prange[1] - prange[0])
            if lo > hi:
                raise ValueError(f"segment on {seg.edge!r} has lo > hi")
            if lo < prange[0] - tol or hi > prange[1] + tol:
                raise ValueError(f"segment on {seg.edge!r} leaves the chart range {prange}")
            if seg.condition != "dirichlet":
                continue
            covered = (param >= lo - tol) & (param <= hi + tol)
            np.moveaxis(mask, axis, 0)[layer, covered] = True
        return mask


@dataclass(frozen=True)
class AssembledForms:
    """Stiffness matrix A, lumped mass diagonal, the active-node map, the
    stencil of A and the flavor of the boundary conditions.

    stencil has shape (nx, ny, 3, 3): stencil[i, j, 1 + dx, 1 + dy] is the
    entry of A coupling node (i, j) to node (i + dx, j + dy), indices wrapping
    on periodic axes, and 0.0 where A stores none (every coupling of an
    eliminated node included).

    flavor is "neumann" when no node is Dirichlet, "dirichlet" when every
    boundary node is, and "mixed" otherwise.
    """

    A: sp.csr_matrix
    mass: np.ndarray
    active_nodes: np.ndarray
    grid: Grid2D
    flavor: str
    stencil: np.ndarray

    @property
    def n_active(self) -> int:
        return self.active_nodes.size

    def expand(self, u_active: np.ndarray) -> np.ndarray:
        """Scatter active-node values to the full grid, zero on Dirichlet nodes."""
        u_active = np.asarray(u_active, dtype=float)
        if u_active.shape[0] != self.n_active:
            raise ValueError(f"expected {self.n_active} active values, got {u_active.shape[0]}")
        if u_active.ndim == 1:
            full = np.zeros(self.grid.n_nodes)
        else:
            full = np.zeros((self.grid.n_nodes,) + u_active.shape[1:])
        full[self.active_nodes] = u_active
        return full

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        """Gather full-grid values on the active nodes."""
        u_full = np.asarray(u_full, dtype=float)
        if u_full.shape[0] != self.grid.n_nodes:
            raise ValueError(f"expected {self.grid.n_nodes} node values, got {u_full.shape[0]}")
        return u_full[self.active_nodes]


# 2x2 Gauss points in unit cell coordinates.
_GAUSS_1D = ((1.0 - 1.0 / np.sqrt(3.0)) / 2.0, (1.0 + 1.0 / np.sqrt(3.0)) / 2.0)
_GAUSS_2D = tuple((gx, gy) for gx in _GAUSS_1D for gy in _GAUSS_1D)


def _local_cell_matrices(structure: CCStructure, grid: Grid2D) -> np.ndarray:
    """Per-cell 4x4 energy contributions L[p, q], each of shape (cells_x,
    cells_y); bitwise symmetric in (p, q).

    Corner p = px + 2 py of the cell with origin node (i, j) is node
    (i + px, j + py).
    """
    X0, Y0 = grid.cell_meshes(0.0)
    x0 = X0.ravel()
    y0 = Y0.ravel()
    L = np.zeros((4, 4, x0.size))
    for gx, gy in _GAUSS_2D:
        # bilinear gradient at the Gauss point, as vectors over the corners
        vx = np.array([-(1.0 - gy), (1.0 - gy), -gy, gy]) / grid.hx
        vy = np.array([-(1.0 - gx), -gx, (1.0 - gx), gx]) / grid.hy
        px = x0 + gx * grid.hx
        py = y0 + gy * grid.hy
        coeffs = structure.coefficients_at(px, py)  # (m, 2, C)
        rho = structure.density_at(px, py)
        w = rho * (grid.hx * grid.hy / 4.0)
        wa = w * np.sum(coeffs[:, 0] ** 2, axis=0)
        wb = w * np.sum(coeffs[:, 0] * coeffs[:, 1], axis=0)
        wg = w * np.sum(coeffs[:, 1] ** 2, axis=0)
        for p in range(4):
            for q in range(p, 4):
                L[p, q] += ((wa * (vx[p] * vx[q]) + wb * (vx[p] * vy[q] + vy[p] * vx[q]))
                            + wg * (vy[p] * vy[q]))
    # mirror the strict upper triangle so symmetry is bitwise, not just nominal
    for p in range(4):
        for q in range(p + 1, 4):
            L[q, p] = L[p, q]
    return L.reshape(4, 4, *X0.shape)


def _reduceat_sum(terms: list[np.ndarray]) -> np.ndarray:
    """t0 + ((t1 + t2) + t3): the order in which np.add.reduceat sums a group."""
    total = terms[0]
    if len(terms) > 1:
        rest = terms[1]
        for t in terms[2:]:
            rest = rest + t
        total = total + rest
    return total


def _stencil(L: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The nine-point stencil of A on the full grid; shape (nx, ny, 3, 3).

    Entry (a, b, 1 + dx, 1 + dy) sums L[p, q] over the cells in which node
    (a, b) is corner p and node (a + dx, b + dy) is corner q, in ascending
    flat cell index.  A missing cell (beyond a non-periodic edge) adds -0.0,
    which leaves every sum unchanged as long as it is not the first term;
    it never is, because missing cells sort last in ascending index, as do
    the wrapped cells of the first node row and column.  Entries with no
    cell at all are -0.0 here.
    """
    nx, ny = grid.nx, grid.ny
    ncx, ncy = grid.n_cells_x, grid.n_cells_y
    S = np.empty((nx, ny, 3, 3))
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            # corners (px, py) of the cells that also hold the neighbour
            corners = [(px, py) for px in (0, 1) if 0 <= px + dx <= 1
                       for py in (0, 1) if 0 <= py + dy <= 1]
            terms = {}
            for px, py in corners:
                padded = np.full((nx, ny), -0.0)
                padded[:ncx, :ncy] = L[px + 2 * py, px + dx + 2 * (py + dy)]
                # terms[a, b] = value of the cell (a - px, b - py)
                terms[px, py] = np.roll(padded, (px, py), axis=(0, 1))
            # Cell a - px ascends with -px, except in node row 0, where px = 1
            # is the wrapped last cell or a missing one; likewise for columns.
            for first_row in (False, True):
                rows = slice(0, 1) if first_row else slice(1, None)
                for first_col in (False, True):
                    cols = slice(0, 1) if first_col else slice(1, None)
                    order = sorted(corners, key=lambda c: (c[0] if first_row else -c[0],
                                                           c[1] if first_col else -c[1]))
                    S[rows, cols, 1 + dx, 1 + dy] = _reduceat_sum(
                        [terms[c][rows, cols] for c in order])
    return S


def _stencil_matrix(S: np.ndarray, grid: Grid2D, active: np.ndarray) -> sp.csr_matrix:
    """A on the active nodes (boolean (nx, ny) mask) in CSR with sorted indices.

    Zeroes S wherever A stores no entry: across a non-periodic edge and at
    every coupling of an eliminated node.
    """
    n_active = int(np.count_nonzero(active))
    number = np.full(active.shape, -1, dtype=np.int32)  # active index, -1 if eliminated
    number[active] = np.arange(n_active, dtype=np.int32)
    # Pad with the wrapped neighbours, or with -1 beyond a non-periodic edge;
    # cols[a, b, 1 + dx, 1 + dy] is then the active index of (a + dx, b + dy).
    padded = np.pad(number, 1, mode="wrap")
    for axis, layer in grid.edges():
        np.moveaxis(padded, axis, 0)[layer] = -1
    cols = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    keep = active[:, :, None, None] & (cols >= 0)
    S[~keep] = 0.0
    row_nnz = np.count_nonzero(keep, axis=(2, 3))[active]
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    A = sp.csr_matrix((S[keep], cols[keep], indptr), shape=(n_active, n_active))
    A.sort_indices()
    return A


def _lumped_mass(structure: CCStructure, grid: Grid2D) -> np.ndarray:
    rho = structure.density_at(*grid.meshes())
    wx = np.ones(grid.nx)
    wy = np.ones(grid.ny)
    for axis, layer in grid.edges():
        (wx, wy)[axis][layer] = 0.5
    mass = rho * (grid.hx * grid.hy) * wx[:, None] * wy[None, :]
    return mass.ravel()


def assemble(structure: CCStructure, grid: Grid2D, bc: BoundarySpec) -> AssembledForms:
    """Assemble the energy and mass forms, with Dirichlet nodes eliminated."""
    _check_compatible(structure, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # solve_smallest rejects a non-finite A
        S = _stencil(_local_cell_matrices(structure, grid), grid)
    mass_full = _lumped_mass(structure, grid)
    dirichlet = bc.dirichlet_mask(grid)
    active = ~dirichlet
    if not active.any():
        raise ValueError("boundary conditions eliminate every node")
    if not dirichlet.any():
        flavor = "neumann"
    elif np.array_equal(dirichlet, grid.boundary_mask()):
        flavor = "dirichlet"
    else:
        flavor = "mixed"
    A = _stencil_matrix(S, grid, active)
    return AssembledForms(A=A, mass=mass_full[active.ravel()],
                          active_nodes=np.flatnonzero(active), grid=grid, flavor=flavor,
                          stencil=S)


def rayleigh_quotient(forms: AssembledForms, u: np.ndarray) -> float:
    """A[u,u] / M[u,u] for a vector on the active nodes."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != forms.n_active:
        raise ValueError(f"expected {forms.n_active} active values, got {u.size}")
    den = float(u @ (forms.mass * u))
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    return float(u @ (forms.A @ u)) / den


def write_matrix_market(matrix: sp.spmatrix, path, comment: str = "") -> None:
    """Write a sparse matrix in real Matrix Market coordinate format.

    Values are printed with shortest round-trip decimals, so reading the
    file back reproduces the stored doubles exactly.  Symmetric matrices
    are detected and written in symmetric storage (lower triangle).
    """
    import scipy.io  # only this writer needs it

    matrix = sp.csr_matrix(matrix, dtype=float)
    symmetric = matrix.shape[0] == matrix.shape[1] and (matrix != matrix.T).nnz == 0
    with open(path, "wb") as fh:  # given a path, mmwrite would append .mtx
        scipy.io.mmwrite(fh, matrix, comment=str(comment),
                         symmetry="symmetric" if symmetric else "general")
