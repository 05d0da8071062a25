"""Stencil-native assembly against the triplet assembly it replaced.

The oracle below is the former assembly: broadcast 4x4 cell matrices, one
(row, col, value) triplet per cell entry, a stable lexsort and
np.add.reduceat over duplicate keys, COO to CSR, then Dirichlet elimination
by fancy indexing.  The stencil assembly must reproduce its CSR structure
bitwise (indices and indptr, dtypes included) and every off-diagonal entry
bitwise: each sums at most two cell terms, which no summation order
changes.  A diagonal entry sums up to four terms in another order than the
oracle's, so it is held to 2 ulps.  The stencil rows of the active nodes,
zeroed where A stores no entry, must hold exactly the entries of A, and the
compressor must give bitwise the CSR that the strided-window gathers it
replaced (``primitive_oracle._stencil_matrix``) gave.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import ccspectral as cc
import primitive_oracle as oracle
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


def assert_matches_oracle(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        if name != "data":
            assert a.tobytes() == b.tobytes(), name
    diagonal = got.indices == np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    assert got.data[~diagonal].tobytes() == want.data[~diagonal].tobytes()
    ulps = 2.0 * np.abs(np.spacing(want.data[diagonal]))
    assert np.all(np.abs(got.data[diagonal] - want.data[diagonal]) <= ulps)


def _custom_y_dependent():
    grushin = cc.builtin_grushin_cylinder()
    one, zero = cc.constant_coefficient(1.0), cc.constant_coefficient(0.0)
    return cc.CCStructure(
        chart=grushin.chart,
        field_coeffs=((one, zero), (zero, lambda x, y: x * (1.0 + 0.25 * np.sin(y)))),
        density=lambda x, y: 1.0 + 0.5 * np.cos(y) ** 2)


def _custom_xy_dependent(periodic):
    """Cell matrices that vary along both axes, so a cell summed into the
    wrong entry, wrapped cells of the first node row and column included, shows."""
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
        assert_matches_oracle(forms.A, eliminate(A_full, active))
        assert forms.A.has_sorted_indices


@pytest.mark.parametrize("kind, size, periodic", GRIDS,
                         ids=[f"{k}-{s[0]}x{s[1]}-p{int(p[0])}{int(p[1])}" for k, s, p in GRIDS])
def test_compressor_matches_the_window_gathers(kind, size, periodic):
    # forms.A, compressed by assemble or on first read from the y_stencil,
    # against the gathers over the strided 3x3 window of the full stencil
    structure = _structure(kind, periodic)
    grid = cc.build_grid(structure.chart, *size)
    S = discretization._stencil(discretization._local_cell_matrices(structure, grid), grid)
    for name, bc in _boundary_specs(structure.chart).items():
        forms = cc.assemble(structure, grid, bc)
        want = oracle._stencil_matrix(S.copy(), grid, ~bc.dirichlet_mask(grid))
        for part in ("data", "indices", "indptr"):
            got = getattr(forms.A, part)
            assert got.dtype == getattr(want, part).dtype, (name, part)
            assert got.tobytes() == getattr(want, part).tobytes(), (name, part)


@pytest.mark.parametrize("kind, size, periodic",
                         [g for g in GRIDS if g[1][0] * g[1][1] <= 64 * 64])
def test_stencil_holds_exactly_the_entries_of_A(kind, size, periodic):
    structure = _structure(kind, periodic)
    grid = cc.build_grid(structure.chart, *size)
    nx, ny = grid.nx, grid.ny
    for name, bc in _boundary_specs(structure.chart).items():
        forms = cc.assemble(structure, grid, bc)
        # the stencil, compressed as assemble does, then its rows of the
        # active nodes zeroed where A stores no entry
        S = discretization._stencil(discretization._local_cell_matrices(structure, grid), grid)
        A = discretization._compress(S.reshape(nx * ny, 9), grid, forms.active_nodes)
        rows = S.reshape(nx * ny, 9)[forms.active_nodes]
        rows[discretization._columns(grid, forms.active_nodes)[forms.active_nodes] < 0] = 0.0
        for part in ("data", "indices", "indptr"):
            assert getattr(A, part).tobytes() == getattr(forms.A, part).tobytes(), name
        dense = forms.A.toarray()
        want = np.zeros((forms.n_active, 3, 3))
        for r, node in enumerate(forms.active_nodes):
            a, b = divmod(int(node), ny)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    i, j = a + dx, b + dy
                    if grid.chart.periodic_x:
                        i %= nx
                    if grid.chart.periodic_y:
                        j %= ny
                    if not (0 <= i < nx and 0 <= j < ny):
                        continue
                    c = np.searchsorted(forms.active_nodes, i * ny + j)
                    if c < forms.n_active and forms.active_nodes[c] == i * ny + j:
                        want[r, 1 + dx, 1 + dy] = dense[r, c]
        assert want.tobytes() == rows.tobytes(), name
        # every stored entry of A appears in the stencil rows
        assert np.count_nonzero(want) == np.count_nonzero(forms.A.data), name


def _expression_structure(fields, density, periodic=(False, True)):
    from ccspectral.cli import ChartConfig, StructureConfig, build_structure
    chart = ChartConfig(x_range=(0.0, 1.0), y_range=(0.0, 2.0 * np.pi),
                        periodic_x=periodic[0], periodic_y=periodic[1])
    return build_structure(StructureConfig(kind="custom", chart=chart, fields=fields,
                                           density=density))


Y_FREE = (("1", "0"), ("0", "exp(x)*sin(3*x)")), "1+0.5*cos(x)^2"


# The grids above whose structure does not read y, and y-free expressions.
Y_FREE_GRIDS = ([g for g in GRIDS if g[0] in ("grushin", "euclidean")]
                + [("expressions", (31, 64), periodic) for periodic in
                   ((False, False), (True, False), (False, True), (True, True))])


def _unmarked(fn):
    """``fn`` behind a plain function, which counts as reading y."""
    return lambda x, y: fn(x, y)


@pytest.mark.parametrize("kind, size, periodic", Y_FREE_GRIDS,
                         ids=[f"{k}-{s[0]}x{s[1]}-p{int(p[0])}{int(p[1])}"
                              for k, s, p in Y_FREE_GRIDS])
def test_one_row_assembly_is_bitwise_the_full_grid_one(kind, size, periodic):
    # a structure that does not read y is sampled on one cell row; the same
    # callables behind plain functions take the full-grid sampling and the
    # full row comparison, and every form must come out bit for bit the same
    structure = (_expression_structure(*Y_FREE, periodic) if kind == "expressions"
                 else _structure(kind, periodic))
    assert not structure.reads_y
    full = dataclasses.replace(
        structure, density=_unmarked(structure.density),
        field_coeffs=tuple(tuple(map(_unmarked, pair)) for pair in structure.field_coeffs))
    assert full.reads_y
    grid = cc.build_grid(structure.chart, *size)
    for name, bc in _boundary_specs(structure.chart).items():
        got, want = cc.assemble(structure, grid, bc), cc.assemble(full, grid, bc)
        assert (got.y_reason, got.flavor) == (want.y_reason, want.flavor), name
        assert (got.y_stencil is None) == (want.y_stencil is None), name
        pairs = [(got.mass, want.mass), (got.active_nodes, want.active_nodes)]
        if got.y_stencil is not None:
            pairs.append((got.y_stencil, want.y_stencil))
        pairs += [(getattr(got.A, part), getattr(want.A, part))
                  for part in ("data", "indices", "indptr")]
        for a, b in pairs:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_the_callables_decide_reads_y():
    assert not _expression_structure(*Y_FREE).reads_y
    assert _expression_structure((("1", "0"), ("0", "x")), "1+0*y").reads_y
    grushin = cc.builtin_grushin_cylinder()
    assert not grushin.reads_y and not cc.builtin_euclidean().reads_y
    one, x = cc.constant_coefficient(1.0), cc.compile_expression("x")
    chart = cc.Chart2D((0, 1), (0, 1))
    # a structure built in Python from expressions and constants
    assert not cc.CCStructure(chart=chart, field_coeffs=((one, x),), density=one).reads_y
    # any other callable may read y, and a replaced one is read afresh
    assert cc.CCStructure(chart=chart, field_coeffs=((one, x),),
                          density=lambda x, y: 1.0).reads_y
    assert dataclasses.replace(grushin, density=cc.compile_expression("2+sin(y)")).reads_y


def test_x_plus_zero_y_keeps_the_row_comparison_and_fft_y():
    structure = _expression_structure((("1", "0"), ("0", "x+0*y")), "1")
    assert structure.reads_y
    grid = cc.build_grid(structure.chart, 16, 32)
    forms = cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    assert forms.y_reason == "A + eps M is invariant under y-translation"
    want = cc.assemble(cc.builtin_grushin_cylinder(), grid, cc.BoundarySpec.all_neumann())
    assert forms.y_stencil.tobytes() == want.y_stencil.tobytes()


def test_a_y_free_structure_is_sampled_on_one_row():
    sampled = []

    def recorded(fn):
        def sample(x, y):
            sampled.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return fn(x, y)
        sample.reads_y = fn.reads_y
        return sample

    grushin = cc.builtin_grushin_cylinder()
    structure = dataclasses.replace(
        grushin, density=recorded(grushin.density),
        field_coeffs=tuple(tuple(map(recorded, pair)) for pair in grushin.field_coeffs))
    grid = cc.build_grid(structure.chart, 33, 64)
    cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    cells, nodes = (grid.n_cells_x,), (grid.nx, 1)
    # the four field components and the density at each of the 4 Gauss
    # points, then the density on the first node row
    assert sampled == [cells] * 20 + [nodes]
