"""Stencil-native assembly against the triplet assembly it replaced.

The oracle below is the former assembly: broadcast 4x4 cell matrices, one
(row, col, value) triplet per cell entry, a stable lexsort and
np.add.reduceat over duplicate keys, COO to CSR, then Dirichlet elimination
by fancy indexing.  The stencil assembly must reproduce its CSR arrays
bitwise (data, indices and indptr, dtypes included), and the stencil it
keeps must hold exactly the entries of A.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import ccspectral as cc
from ccspectral import discretization


def _oracle_cell_matrices(structure, grid):
    X0, Y0 = grid.cell_meshes(0.0)
    x0 = X0.ravel()
    y0 = Y0.ravel()
    L = np.zeros((x0.size, 4, 4))
    for gx, gy in discretization._GAUSS_2D:
        vx = np.array([-(1.0 - gy), (1.0 - gy), -gy, gy]) / grid.hx
        vy = np.array([-(1.0 - gx), -gx, (1.0 - gx), gx]) / grid.hy
        px = x0 + gx * grid.hx
        py = y0 + gy * grid.hy
        coeffs = structure.coefficients_at(px, py)
        w = structure.density_at(px, py) * (grid.hx * grid.hy / 4.0)
        alpha = np.sum(coeffs[:, 0] ** 2, axis=0)
        beta = np.sum(coeffs[:, 0] * coeffs[:, 1], axis=0)
        gamma = np.sum(coeffs[:, 1] ** 2, axis=0)
        L += ((w * alpha)[:, None, None] * np.outer(vx, vx)
              + (w * beta)[:, None, None] * (np.outer(vx, vy) + np.outer(vy, vx))
              + (w * gamma)[:, None, None] * np.outer(vy, vy))
    for p in range(4):
        for q in range(p + 1, 4):
            L[:, q, p] = L[:, p, q]
    return L


def _oracle_corners(grid):
    ix = np.arange(grid.n_cells_x)
    iy = np.arange(grid.n_cells_y)
    IX, IY = np.meshgrid(ix, iy, indexing="ij")
    IXp, IYp = np.meshgrid((ix + 1) % grid.nx, (iy + 1) % grid.ny, indexing="ij")
    corners = np.stack([grid.node_index(IX, IY), grid.node_index(IXp, IY),
                        grid.node_index(IX, IYp), grid.node_index(IXp, IYp)], axis=-1)
    return corners.reshape(-1, 4)


def triplet_stiffness(structure, grid):
    """The full-grid A by triplets, lexsort and reduceat."""
    corners = _oracle_corners(grid)
    L = _oracle_cell_matrices(structure, grid)
    rows = np.repeat(corners, 4, axis=1).ravel()
    cols = np.tile(corners, (1, 4)).ravel()
    vals = L.ravel()
    n = grid.n_nodes
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keys = rows.astype(np.int64) * n + cols
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    sums = np.add.reduceat(vals, starts)
    return sp.coo_matrix((sums, (rows[starts], cols[starts])), shape=(n, n)).tocsr()


def eliminate(A_full, active):
    A = A_full[active][:, active].tocsr()
    A.sort_indices()
    return A


def assert_csr_bitwise(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _custom_y_dependent():
    grushin = cc.builtin_grushin_cylinder()
    one, zero = cc.constant_coefficient(1.0), cc.constant_coefficient(0.0)
    return cc.CCStructure(
        chart=grushin.chart,
        field_coeffs=((one, zero), (zero, lambda x, y: x * (1.0 + 0.25 * np.sin(y)))),
        density=lambda x, y: 1.0 + 0.5 * np.cos(y) ** 2)


def _custom_xy_dependent(periodic):
    """Cell matrices that vary along both axes, so the order in which the
    wrapped cells of the first node row and column are summed shows."""
    one = cc.constant_coefficient(1.0)
    return cc.CCStructure(
        chart=cc.Chart2D((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi),
                         periodic_x=periodic[0], periodic_y=periodic[1]),
        field_coeffs=((lambda x, y: 1.0 + 0.3 * np.cos(y), lambda x, y: 0.2 * np.sin(x)),
                      (cc.constant_coefficient(0.0), lambda x, y: 1.0 + 0.25 * np.sin(x + y)),
                      (one, one)),
        density=lambda x, y: 1.0 + 0.5 * np.cos(x) ** 2)


# The Grushin, y-dependent custom and Euclidean grids, then a structure that
# depends on x and y under every periodicity.
GRIDS = ([("grushin", (nx, ny), (False, True))
          for nx, ny in ((256, 512), (128, 256), (31, 64), (5, 3), (3, 3))]
         + [("custom", (128, 256), (False, True))]
         + [("euclidean", size, periodic) for size in ((40, 40), (3, 4), (7, 3))
            for periodic in ((False, False), (True, False), (False, True), (True, True))]
         + [("custom-xy", size, periodic) for size in ((24, 20), (3, 3))
            for periodic in ((False, False), (True, False), (False, True), (True, True))])


def _structure(kind, periodic):
    if kind == "grushin":
        return cc.builtin_grushin_cylinder()
    if kind == "custom":
        return _custom_y_dependent()
    if kind == "custom-xy":
        return _custom_xy_dependent(periodic)
    return cc.builtin_euclidean(periodic_x=periodic[0], periodic_y=periodic[1])


def _boundary_specs(chart):
    """Neumann, all-Dirichlet, one Dirichlet edge and a partial segment."""
    specs = {"neumann": cc.BoundarySpec.all_neumann()}
    if chart.periodic_x and chart.periodic_y:
        return specs
    specs["dirichlet"] = cc.BoundarySpec.all_dirichlet(chart)
    edge, (lo, hi) = (("y_max", chart.x_range) if chart.periodic_x
                      else ("x_max", chart.y_range))
    specs["mixed"] = cc.BoundarySpec((cc.BCSegment(edge, "dirichlet"),))
    mid, quarter = (lo + hi) / 2.0, (hi - lo) / 4.0
    specs["partial"] = cc.BoundarySpec((cc.BCSegment(edge.replace("max", "min"), "dirichlet",
                                                     mid - quarter, mid + quarter),))
    return specs


@pytest.mark.parametrize("kind, size, periodic", GRIDS,
                         ids=[f"{k}-{s[0]}x{s[1]}-p{int(p[0])}{int(p[1])}" for k, s, p in GRIDS])
def test_stencil_assembly_matches_triplet_oracle(kind, size, periodic):
    structure = _structure(kind, periodic)
    grid = cc.build_grid(structure.chart, *size)
    A_full = triplet_stiffness(structure, grid)
    for name, bc in _boundary_specs(structure.chart).items():
        active = np.flatnonzero(~bc.dirichlet_mask(grid).ravel())
        forms = cc.assemble(structure, grid, bc)
        assert np.array_equal(forms.active_nodes, active), name
        assert_csr_bitwise(forms.A, eliminate(A_full, active))
        assert forms.A.has_sorted_indices


@pytest.mark.parametrize("kind, size, periodic",
                         [g for g in GRIDS if g[1][0] * g[1][1] <= 64 * 64])
def test_stencil_holds_exactly_the_entries_of_A(kind, size, periodic):
    structure = _structure(kind, periodic)
    grid = cc.build_grid(structure.chart, *size)
    nx, ny = grid.nx, grid.ny
    for name, bc in _boundary_specs(structure.chart).items():
        forms = cc.assemble(structure, grid, bc)
        assert forms.stencil.shape == (nx, ny, 3, 3)
        number = np.full(grid.n_nodes, -1)
        number[forms.active_nodes] = np.arange(forms.n_active)
        dense = forms.A.toarray()
        want = np.zeros((nx, ny, 3, 3))
        for a in range(nx):
            for b in range(ny):
                r = number[a * ny + b]
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        i, j = a + dx, b + dy
                        if grid.chart.periodic_x:
                            i %= nx
                        if grid.chart.periodic_y:
                            j %= ny
                        if r < 0 or not (0 <= i < nx and 0 <= j < ny):
                            continue
                        c = number[i * ny + j]
                        if c >= 0:
                            want[a, b, 1 + dx, 1 + dy] = dense[r, c]
        assert want.tobytes() == forms.stencil.tobytes(), name
        # every stored entry of A appears in the stencil
        assert np.count_nonzero(want) == np.count_nonzero(forms.A.data), name
