"""Grids, boundary masks and the assembled energy/mass forms."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate

import ccspectral as cc


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_spacing_nonperiodic():
    grid = cc.build_grid(cc.Chart2D((0.0, 1.0), (0.0, 2.0)), 5, 9)
    assert grid.hx == pytest.approx(0.25, abs=0)
    assert grid.hy == pytest.approx(0.25, abs=0)
    assert grid.xs[0] == 0.0 and grid.xs[-1] == 1.0
    assert grid.n_nodes == 45


def test_grid_spacing_periodic_axis(grushin):
    grid = cc.build_grid(grushin.chart, 5, 8)
    # periodic axis: ny cells cover the full circle, last node is not repeated
    assert grid.hy == pytest.approx(2.0 * np.pi / 8.0, abs=0)
    assert grid.ys[-1] == pytest.approx(2.0 * np.pi - grid.hy, rel=1e-15)
    assert grid.n_cells_y == 8
    assert grid.n_cells_x == 4


def test_grid_rejects_tiny_axes(grushin):
    with pytest.raises(ValueError):
        cc.build_grid(grushin.chart, 2, 8)


def test_node_index_layout(grushin_grid):
    assert grushin_grid.node_index(0, 0) == 0
    assert grushin_grid.node_index(1, 0) == grushin_grid.ny
    assert grushin_grid.node_index(0, 1) == 1


# ---------------------------------------------------------------------------
# boundary specifications
# ---------------------------------------------------------------------------

def test_all_dirichlet_skips_periodic_edges(grushin):
    bc = cc.BoundarySpec.all_dirichlet(grushin.chart)
    edges = sorted(seg.edge for seg in bc.segments)
    assert edges == ["x_max", "x_min"]


@pytest.mark.parametrize("periodic_x, periodic_y",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_boundary_mask_is_the_all_dirichlet_mask(periodic_x, periodic_y):
    chart = cc.Chart2D((0.0, 1.0), (0.0, 2.0), periodic_x, periodic_y)
    grid = cc.build_grid(chart, 5, 6)
    mask = grid.boundary_mask()
    assert mask.shape == (5, 6) and mask.dtype == bool
    assert np.array_equal(mask, cc.BoundarySpec.all_dirichlet(chart).dirichlet_mask(grid))
    assert len(grid.edges()) == 2 * (2 - periodic_x - periodic_y)


def test_dirichlet_mask_full_edges():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    grid = cc.build_grid(chart, 5, 5)
    bc = cc.BoundarySpec.all_dirichlet(chart)
    mask = bc.dirichlet_mask(grid).reshape(5, 5)
    assert mask[0, :].all() and mask[-1, :].all()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[1:-1, 1:-1].any()


def test_dirichlet_mask_partial_range_closed():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    grid = cc.build_grid(chart, 5, 5)
    bc = cc.BoundarySpec((cc.BCSegment("y_min", "dirichlet", 0.25, 0.75),))
    mask = bc.dirichlet_mask(grid).reshape(5, 5)
    # closed interval: x = 0.25, 0.5, 0.75 are in, the corners are not
    assert list(mask[:, 0]) == [False, True, True, True, False]
    assert not mask[:, 1:].any()


def test_dirichlet_wins_overlap():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    grid = cc.build_grid(chart, 5, 5)
    bc = cc.BoundarySpec((cc.BCSegment("x_min", "neumann"),
                          cc.BCSegment("x_min", "dirichlet", 0.5, 1.0)))
    mask = bc.dirichlet_mask(grid).reshape(5, 5)
    assert list(mask[0, :]) == [False, False, True, True, True]


def test_bc_on_periodic_edge_rejected(grushin):
    grid = cc.build_grid(grushin.chart, 5, 8)
    bc = cc.BoundarySpec((cc.BCSegment("y_min", "dirichlet"),))
    with pytest.raises(ValueError):
        bc.dirichlet_mask(grid)


def test_bc_range_validation():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    grid = cc.build_grid(chart, 5, 5)
    with pytest.raises(ValueError):
        cc.BoundarySpec((cc.BCSegment("x_min", "dirichlet", 0.8, 0.2),)).dirichlet_mask(grid)
    with pytest.raises(ValueError):
        cc.BoundarySpec((cc.BCSegment("x_min", "dirichlet", -0.5, 0.5),)).dirichlet_mask(grid)


def test_unknown_edge_and_condition_rejected():
    with pytest.raises(ValueError):
        cc.BCSegment("north", "dirichlet")
    with pytest.raises(ValueError):
        cc.BCSegment("x_min", "robin")


# ---------------------------------------------------------------------------
# assembled forms: structural invariants
# ---------------------------------------------------------------------------

def test_stiffness_exactly_symmetric(grushin_neumann_forms):
    A = grushin_neumann_forms.A
    assert abs(A - A.T).max() == 0.0


def test_stiffness_positive_semidefinite(grushin_neumann_forms):
    A = grushin_neumann_forms.A
    n = A.shape[0]
    rng = np.random.default_rng(7)
    scale = abs(A).max()
    for _ in range(100):
        u = rng.standard_normal(n)
        q = float(u @ (A @ u))
        assert q >= -1e-12 * scale * float(u @ u)


def test_neumann_constant_in_kernel(grushin_neumann_forms):
    A = grushin_neumann_forms.A
    ones = np.ones(A.shape[0])
    assert np.abs(A @ ones).max() <= 1e-12 * abs(A).max()


def test_mass_positive_and_sums_to_volume(grushin_neumann_forms, grushin_grid):
    mass = grushin_neumann_forms.mass
    assert (mass > 0.0).all()
    volume = grushin_grid.chart.x_length * grushin_grid.chart.y_length
    assert mass.sum() == pytest.approx(volume, rel=1e-12)


def test_dirichlet_elimination_counts(grushin, grushin_grid):
    forms = cc.assemble(grushin, grushin_grid, cc.BoundarySpec.all_dirichlet(grushin.chart))
    assert forms.n_active == (grushin_grid.nx - 2) * grushin_grid.ny


def test_expand_restrict_roundtrip(grushin, grushin_grid):
    forms = cc.assemble(grushin, grushin_grid, cc.BoundarySpec.all_dirichlet(grushin.chart))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(forms.n_active)
    full = forms.expand(u)
    assert full.size == grushin_grid.n_nodes
    assert np.array_equal(forms.restrict(full), u)
    # eliminated nodes are zero
    mask = cc.BoundarySpec.all_dirichlet(grushin.chart).dirichlet_mask(grushin_grid)
    assert np.all(full[mask.ravel()] == 0.0)


def test_assemble_rejects_everything_eliminated():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    grid = cc.build_grid(chart, 3, 3)
    s = cc.builtin_euclidean()
    bc = cc.BoundarySpec.all_dirichlet(chart)
    forms = cc.assemble(s, grid, bc)
    assert forms.n_active == 1  # only the center survives on 3x3


def test_forms_keep_no_full_grid_stencil(grushin):
    # Past the mass, the active-node map and the one y-row block of the
    # stencil, a y-invariant form keeps nothing that grows with n: A is not
    # built until it is read, the full (nx, ny, 3, 3) stencil, 9 n doubles,
    # is dropped, and a view of it in place of the copied block would keep
    # all of it.
    grid = cc.build_grid(grushin.chart, 128, 256)
    bc = cc.BoundarySpec.all_neumann()
    cc.assemble(grushin, grid, bc).A  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        forms = cc.assemble(grushin, grid, bc)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forms.y_stencil.shape == (grid.nx, 3, 3) and forms.csr is None
    kept = sum(a.nbytes for a in (forms.mass, forms.active_nodes, forms.y_stencil))
    assert retained <= kept + 64 * 1024, (retained - kept) / (forms.n_active * 8)


# ---------------------------------------------------------------------------
# energy consistency against an independent quadrature oracle
# ---------------------------------------------------------------------------

def grushin_energy_oracle():
    # integral of |grad_H u|^2 over the cylinder for u = sin(pi x) sin(y),
    # evaluated by scipy's adaptive quadrature
    def integrand(y, x):
        gx = np.pi * np.cos(np.pi * x) * np.sin(y)
        gy = np.sin(np.pi * x) * np.cos(y)
        return gx**2 + (x * gy) ** 2

    val, err = scipy.integrate.dblquad(integrand, 0.0, 1.0, 0.0, 2.0 * np.pi,
                                       epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


def test_energy_consistency_rate(grushin):
    exact = grushin_energy_oracle()
    errors = []
    for nx, ny in ((17, 32), (33, 64), (65, 128)):
        grid = cc.build_grid(grushin.chart, nx, ny)
        forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
        X, Y = grid.meshes()
        u = (np.sin(np.pi * X) * np.sin(Y)).ravel()
        energy = float(u @ (forms.A @ u))
        errors.append(abs(energy - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.7)
    assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.7)


def test_rayleigh_quotient_bounds_lowest_mode(euclidean):
    grid = cc.build_grid(euclidean.chart, 33, 33)
    bc = cc.BoundarySpec.all_dirichlet(euclidean.chart)
    forms = cc.assemble(euclidean, grid, bc)
    X, Y = grid.meshes()
    u = forms.restrict((np.sin(np.pi * X) * np.sin(np.pi * Y)).ravel())
    q = float(u @ (forms.A @ u)) / float(u @ (forms.mass * u))
    assert q == pytest.approx(2.0 * np.pi**2, rel=5e-3)
    pairs = cc.solve_smallest(forms, k=1)
    assert q >= pairs.lambdas[0] - 1e-12
