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
nine-point stencil straight from the 4x4 cell matrices.  Assembly also
decides, once, whether K = A + eps M is invariant under y-translation, and
keeps only the one y-row block of the stencil that the eigensolver's FFT
inverse reads; the full stencil is dropped before assemble returns.  One
compressor turns stencil rows into CSR: assemble runs it on the full stencil
when K is not y-invariant, and otherwise the first read of forms.A runs it
on the kept block repeated along y, which gives the same matrix bit for bit.
Shift-invert Lanczos on the FFT path never applies A, so it runs before A
exists.

Assembly contract: A is symmetric by construction.  Only the centre and the
four forward offsets (0, 1), (1, 0), (1, 1), (-1, 1) are summed, each over
its cells in one fixed corner order, so every node row sums in the same
order; each backward offset is its forward partner read from the
neighbour.  A single contribution is kept as is, signed zero included, and
the same bits come out for the same grid on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .geometry import CCStructure, Chart2D, _check_compatible

if TYPE_CHECKING:  # scipy.sparse is imported where a matrix is built
    import scipy.sparse as sp

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
    flavor of the boundary conditions and whether K = A + eps M is
    invariant under y-translation.

    flavor is "neumann" when no node is Dirichlet, "dirichlet" when every
    boundary node is, and "mixed" otherwise.

    y_stencil is the y-independent stencil of A when K is y-invariant (for
    every eps > 0), else None; y_reason says which, in words.  It has shape
    (rows, 3, 3) over the active x-rows: y_stencil[i, 1 + dx, 1 + dy] couples
    node (i, j) of those rows to node (i + dx, j + dy mod ny), bitwise the
    same for every j, and is 0.0 where A stores no entry.  It is a copy, so
    the forms hold no full-grid stencil.

    csr is A once compressed.  assemble compresses A for every form without
    a y_stencil; a y-invariant form is fully described by its y_stencil, so
    A is compressed from it, the block repeated along y, on the first read
    of A and kept.  diagonal() reads the y_stencil and never builds A.
    """

    mass: np.ndarray
    active_nodes: np.ndarray
    grid: Grid2D
    flavor: str
    y_stencil: np.ndarray | None
    y_reason: str
    csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.csr is None and self.y_stencil is None:
            raise ValueError("the forms need A (csr) or a y_stencil to build it from")

    @property
    def A(self) -> sp.csr_matrix:
        """The stiffness matrix on the active nodes, in CSR with sorted indices."""
        if self.csr is None:
            nx, ny = self.grid.nx, self.grid.ny
            first, rows = self.active_nodes[0] // ny, self.y_stencil.shape[0]
            block = np.zeros((nx, 1, 9))  # every x-row, zero where eliminated
            block[first:first + rows, 0] = self.y_stencil.reshape(rows, 9)
            values = np.broadcast_to(block, (nx, ny, 9))
            object.__setattr__(self, "csr", _compress(values, self.grid, self.active_nodes))
        return self.csr

    def diagonal(self) -> np.ndarray:
        """The diagonal of A, bitwise A.diagonal(); from the y_stencil's
        centre, repeated along y, where there is one, so A is not built."""
        if self.y_stencil is None:
            return self.A.diagonal()
        return np.repeat(self.y_stencil[:, 1, 1], self.grid.ny)

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
    cells_y); only the upper triangle p <= q is filled, the rest is zero.

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
    return L.reshape(4, 4, *X0.shape)


def _stencil(L: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The nine-point stencil of A on the full grid; shape (nx, ny, 3, 3).

    A forward entry (a, b, 1 + dx, 1 + dy), (dx, dy) one of (0, 0), (0, 1),
    (1, 0), (1, 1), (-1, 1), sums L[p, q] over the cells in which node (a, b)
    is corner p and node (a + dx, b + dy) is corner q >= p, in ascending p,
    starting from -0.0; a missing cell (beyond a
    non-periodic edge) adds -0.0, which changes no sum.  The backward entry
    S[a, b, 1 - dx, 1 - dy] is S[a - dx, b - dy, 1 + dx, 1 + dy], indices
    wrapping, so A is bitwise symmetric.  Entries with no cell hold -0.0 or
    a wrapped value; _compress drops them.
    """
    nx, ny = grid.nx, grid.ny
    S = np.empty((nx, ny, 3, 3))
    padded = np.full((nx, ny), -0.0)
    for dx, dy in ((0, 0), (0, 1), (1, 0), (1, 1), (-1, 1)):
        total = np.full((nx, ny), -0.0)
        for p in range(4):
            px, py = p % 2, p // 2
            if 0 <= px + dx <= 1 and 0 <= py + dy <= 1:
                padded[:grid.n_cells_x, :grid.n_cells_y] = L[p, p + dx + 2 * dy]
                # value of the cell (a - px, b - py) at node (a, b)
                total += np.roll(padded, (px, py), axis=(0, 1))
        S[:, :, 1 + dx, 1 + dy] = total
        S[:, :, 1 - dx, 1 - dy] = np.roll(total, (dx, dy), axis=(0, 1))
    return S


def _columns(grid: Grid2D, active_nodes: np.ndarray) -> np.ndarray:
    """The columns of A for every node, shape (n_nodes, 9): entry
    3 (1 + dx) + 1 + dy of node (a, b) is the active index of node
    (a + dx, b + dy), indices wrapping, or -1 where A stores no entry: across
    a non-periodic edge, at a coupling to an eliminated node and in the whole
    row of one."""
    number = np.full(grid.n_nodes, -1, dtype=np.int32)  # active index, -1 if eliminated
    number[active_nodes] = np.arange(active_nodes.size, dtype=np.int32)
    padded = np.pad(number.reshape(grid.nx, grid.ny), 1, mode="wrap")
    for axis, layer in grid.edges():
        np.moveaxis(padded, axis, 0)[layer] = -1
    cols = np.lib.stride_tricks.sliding_window_view(padded, (3, 3)).reshape(grid.n_nodes, 9)
    cols[number < 0] = -1
    return cols


def _compress(values: np.ndarray, grid: Grid2D, active_nodes: np.ndarray) -> sp.csr_matrix:
    """A in CSR with sorted indices from the stencil values of every node,
    in node order with the 9 offsets last (any view, a broadcast one too);
    the entries that A does not store (_columns -1) are dropped."""
    import scipy.sparse as sp

    cols = _columns(grid, active_nodes)
    keep = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1)[active_nodes])))
    indices = cols[keep]
    del cols  # freed before the values are gathered, to lower the peak
    n = active_nodes.size
    A = sp.csr_matrix((values[keep.reshape(values.shape)], indices, indptr), shape=(n, n))
    A.sort_indices()
    return A


def _y_stencil(S: np.ndarray, grid: Grid2D, active_nodes: np.ndarray,
               mass: np.ndarray) -> tuple[np.ndarray | None, str]:
    """A copy of the y-independent stencil block of the active x-rows, or None
    and why A + eps M is not y-invariant; S is the full-grid stencil, and the
    block is AssembledForms.y_stencil.

    The O(1) and O(n) tests run first, so a partial boundary segment or a
    y-dependent density is rejected before any stencil row is compared.
    """
    ny = grid.ny
    if not grid.chart.periodic_y:
        return None, "chart not periodic in y"
    if grid.chart.periodic_x:
        return None, "chart periodic in x"
    n = active_nodes.size
    if n % ny or active_nodes[0] % ny or active_nodes[-1] - active_nodes[0] != n - 1:
        return None, "active nodes are not full y-rows"
    mass = mass.reshape(-1, ny)
    if np.any(mass != mass[:, :1]):
        return None, "mass varies along y"
    rows = S[active_nodes[0] // ny:active_nodes[-1] // ny + 1]
    if np.any(rows != rows[:, :1]):
        return None, "A varies along y"
    block = rows[:, 0].copy()  # a view would keep all of S alive with the forms
    # A stores no coupling across the x-rows next to the block: they are
    # eliminated or lie beyond an x-edge.  The row test above also compares
    # those couplings, which can reject a form but never accept one.
    block[0, 0] = block[-1, 2] = 0.0
    return block, "A + eps M is invariant under y-translation"


def _lumped_mass(structure: CCStructure, grid: Grid2D) -> np.ndarray:
    rho = structure.density_at(*grid.meshes())
    wx = np.ones(grid.nx)
    wy = np.ones(grid.ny)
    for axis, layer in grid.edges():
        (wx, wy)[axis][layer] = 0.5
    mass = rho * (grid.hx * grid.hy) * wx[:, None] * wy[None, :]
    return mass.ravel()


def assemble(structure: CCStructure, grid: Grid2D, bc: BoundarySpec) -> AssembledForms:
    """Assemble the energy and mass forms, with Dirichlet nodes eliminated,
    and decide whether K = A + eps M is invariant under y-translation; A is
    compressed here unless the y-invariant stencil block describes it."""
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
    mass = mass_full[active.ravel()]
    active_nodes = np.flatnonzero(active)
    y_stencil, y_reason = _y_stencil(S, grid, active_nodes, mass)
    csr = None if y_stencil is not None else _compress(S.reshape(grid.n_nodes, 9), grid,
                                                        active_nodes)
    return AssembledForms(mass=mass, active_nodes=active_nodes, grid=grid, flavor=flavor,
                          y_stencil=y_stencil, y_reason=y_reason, csr=csr)
