"""Cluster bounds and label gray levels from numpy primitives, cell points
and certificate boundary values from the grid's edge table, the one-pass
unit-ball volume table, and the replayed bisection of the mode roots,
against the code they replaced (``primitive_oracle``): equal on every
input."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import ccspectral as cc
import primitive_oracle as oracle
from ccspectral import grushin
from ccspectral.geometry import divergence, field_components
from ccspectral.nodal import _cluster_bounds
from ccspectral.pgm import labels_to_gray

TOLS = [0.0, 1e-12, 1e-6, 1e-3, 0.5]


@st.composite
def spectra(draw):
    """A sorted eigenvalue array and a gap tolerance.  Consecutive gaps are
    exact ties, gaps exactly at the tolerance, just inside or outside it,
    or free; the first value may be a slightly negative zero mode."""
    tol = draw(st.sampled_from(TOLS))
    lam = [draw(st.sampled_from([0.0, -1e-14, 0.5, 1.0, 3.0]) | st.floats(-1e-10, 1e3))]
    for _ in range(draw(st.integers(0, 12))):
        at = tol * max(1.0, abs(lam[-1]))
        gap = draw(st.one_of(st.sampled_from([0.0, at, at * (1 - 1e-12), at * (1 + 1e-12),
                                              np.nextafter(at, np.inf)]),
                             st.floats(0.0, 10.0)))
        lam.append(lam[-1] + gap)
    return np.array(lam), tol


@given(spectra())
def test_cluster_bounds_match_the_loop(case):
    lambdas, tol = case
    got = _cluster_bounds(lambdas, tol)
    assert got == oracle._cluster_bounds(lambdas, tol)
    assert all(type(b) is int for b in got)  # they go into nodal_report.json


LABELS = hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.integers(-40, 40) | st.integers(-300, 300))


@given(LABELS, st.booleans())
def test_labels_to_gray_matches_the_loop(labels, drop_zero):
    if drop_zero:  # no zero band: every node in some domain
        labels = np.where(labels == 0, 7, labels)
    got = labels_to_gray(labels)
    want = oracle.labels_to_gray(labels)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


PERIODICITIES = [(False, False), (True, False), (False, True), (True, True)]


@given(st.sampled_from(PERIODICITIES),
       st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
       st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
       st.integers(3, 12), st.integers(3, 12))
def test_cell_meshes_match_the_formulas(periodic, x, y, nx, ny):
    chart = cc.Chart2D((x[0], x[0] + x[1]), (y[0], y[0] + y[1]), *periodic)
    grid = cc.build_grid(chart, nx, ny)
    for offset, formula in ((0.0, oracle._cell_origin_meshes),
                            (0.5, oracle._cell_center_meshes)):
        for got, want in zip(grid.cell_meshes(offset), formula(grid)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("periodic", PERIODICITIES)
def test_certificate_boundary_values_match_the_slicing(periodic):
    structure = cc.CCStructure(
        chart=cc.Chart2D((0.0, 1.0), (-1.0, 2.0), *periodic),
        field_coeffs=((lambda x, y: 1.0 + 0.0 * x, lambda x, y: 0.3 * y),
                      (lambda x, y: 0.0 * x, lambda x, y: 1.0 + x * x)),
        density=lambda x, y: 1.0 + 0.25 * np.sin(3.0 * x + y))
    grid = cc.build_grid(structure.chart, 9, 11)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rng.uniform(-1.0, 1.0, (2, grid.n_nodes))
        cert = cc.mfmc_certify(structure, grid, phi, mode="neumann")
        vx, vy = field_components(structure, grid, phi)
        want = oracle.certificate_boundary_values(grid, divergence(structure, grid, vx, vy),
                                                  vx, vy)
        got = (cert.min_divergence, cert.boundary_inward_min)
        assert repr(got) == repr(want)


def test_unit_ball_volume_table_matches_the_loop():
    # every omega_a that carnot.json lists for n <= 50
    table = cc.unit_ball_volumes(102)
    assert len(table) == 102
    for a, omega in enumerate(table):
        want = oracle.unit_ball_volume(a)
        assert omega.hex() == want.hex()
        assert cc.unit_ball_volume(a).hex() == want.hex()


# The rows of build_table(12, 5) at tol 1e-8 that differ by one final
# bisection step (5.96e-9) from a bisection with RK45 at ODE_TOL deciding
# every sign, as (n, m) per bc
MOVED_ROWS = {"neumann": [(1, 4), (4, 3), (4, 5), (10, 4), (11, 4)],
              "dirichlet": [(3, 1), (4, 5), (5, 5)]}
# with them, the lowest roots of low modes at another tolerance
REFERENCE_ROWS = {bc: [(n, m, 1e-8) for n, m in rows]
                  + [(n, m, 1e-7) for n in (0, 1, 3) for m in range(3)]
                  for bc, rows in MOVED_ROWS.items()}


@pytest.mark.parametrize("bc", list(REFERENCE_ROWS))
def test_roots_are_the_plain_bisection_of_a_tight_reference_root(bc):
    # each is the oracle's plain bisection of its grid cell with a DOP853
    # mismatch at rtol 1e-13 deciding every sign; on the moved rows the
    # RK45 sign put the last step on the wrong side of the root
    grid = grushin.SCAN_STEP * np.arange(8000)
    tight = oracle.tight_shoot
    for n, m, tol in REFERENCE_ROWS[bc]:
        problem = cc.ModeProblem(n=n, bc=bc)
        lam = grushin.find_eigenvalues(problem, 6, tol=tol)[m]  # as build_table(12, 5) finds it
        k = np.searchsorted(grid, lam, side="right") - 1
        a, b = float(grid[k]), float(grid[k + 1])
        want = oracle._bisect(problem, a, tight(problem, a), b, tight(problem, b), tol,
                              mismatch=tight)
        assert lam.hex() == want.hex(), (n, m, tol)
