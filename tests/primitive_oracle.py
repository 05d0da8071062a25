"""Code that the library replaced, kept verbatim as test-only oracles for
``test_primitive_equivalence.py``: the hand-written loops that
``nodal._cluster_bounds`` and ``pgm.labels_to_gray`` replaced by numpy
primitives, the cell-point formulas that ``Grid2D.cell_meshes`` replaced,
the per-axis boundary slicing of ``mfmc_certify`` that the grid's edge
table replaced, the per-dimension loop of ``unit_ball_volume`` that
the one-pass table ``unit_ball_volumes`` replaced, the plain
bisection whose digits ``grushin._quantize`` takes from each collocation
root (driven by ``tight_shoot``, it gives reference digits), and the
boolean gathers over the strided 3x3 window that compressed the stencil
to CSR before ``discretization._compress`` gathered from (n_active, 9) arrays.
``mode_zero_crossings`` is a reference implementation the library never
had a caller for: it counts the Sturm oscillations of a shooting mode.
"""

from __future__ import annotations

import numpy as np

from ccspectral.grushin import _INITIAL_STATE, ODE_TOL, ModeProblem, shoot
from ccspectral.pgm import _to_image_axes


def _cluster_bounds(lambdas: np.ndarray, gap_rel_tol: float) -> list[int]:
    """For each index, the 1-based top index of its near-equal cluster.

    Clusters chain eigenvalues whose consecutive gaps stay below
    gap_rel_tol * max(1, |lambda|); the bound of the cluster is the index
    of its last member, which is the sharp Courant allowance for any
    eigenfunction chosen inside a degenerate eigenspace.
    """
    k = lambdas.size
    bounds = [0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and abs(lambdas[j + 1] - lambdas[j]) <= gap_rel_tol * max(1.0, abs(lambdas[j])):
            j += 1
        for idx in range(i, j + 1):
            bounds[idx] = j + 1
        i = j + 1
    return bounds


def labels_to_gray(labels2d: np.ndarray) -> np.ndarray:
    """Map integer labels to distinct gray levels; label 0 stays black."""
    labels2d = np.asarray(labels2d)
    uniq = np.unique(labels2d[labels2d != 0])
    gray = np.zeros(labels2d.shape, dtype=np.uint8)
    if uniq.size:
        levels = np.linspace(60, 255, uniq.size).astype(np.uint8)
        for lab, lev in zip(uniq, levels):
            gray[labels2d == lab] = lev
    return _to_image_axes(gray)


def _cell_origin_meshes(grid) -> tuple[np.ndarray, np.ndarray]:
    x0 = grid.chart.x_range[0] + grid.hx * np.arange(grid.n_cells_x)
    y0 = grid.chart.y_range[0] + grid.hy * np.arange(grid.n_cells_y)
    return np.meshgrid(x0, y0, indexing="ij")


def _cell_center_meshes(grid) -> tuple[np.ndarray, np.ndarray]:
    xc = grid.chart.x_range[0] + grid.hx * (np.arange(grid.n_cells_x) + 0.5)
    yc = grid.chart.y_range[0] + grid.hy * (np.arange(grid.n_cells_y) + 0.5)
    return np.meshgrid(xc, yc, indexing="ij")


def certificate_boundary_values(grid, div2d, vx, vy) -> tuple[float, float | None]:
    """mfmc_certify's min_divergence and boundary_inward_min, from the
    divergence and the chart components of the field on the nodes."""
    sx = slice(None) if grid.chart.periodic_x else slice(1, -1)
    sy = slice(None) if grid.chart.periodic_y else slice(1, -1)
    interior = div2d[sx, sy]
    min_div = float(interior.min())
    inward = ([] if grid.chart.periodic_x else [vx[0, :], -vx[-1, :]]) \
        + ([] if grid.chart.periodic_y else [vy[:, 0], -vy[:, -1]])
    inward_min = float(np.concatenate(inward).min()) if inward else None
    return min_div, inward_min


def unit_ball_volume(a: int) -> float:
    """omega_a by the two-step recurrence, walked from omega_0 or omega_1."""
    omega = 2.0 if a % 2 else 1.0
    for b in range(2 + a % 2, a + 1, 2):
        omega = omega / b * 2.0 * np.pi
    return float(omega)


def _bisect(problem: ModeProblem, a: float, fa: float, b: float, fb: float,
            tol: float, mismatch=shoot) -> float:
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise RuntimeError("bisection bracket lost its sign change")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent doubles: tol is below their spacing
            break
        fm = mismatch(problem, mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _rhs(problem: ModeProblem, lam: float):
    """(v, v')' of v'' + (lambda - n^2 x^2) v = 0, as ``shoot`` integrates it."""
    n2 = float(problem.n) ** 2
    lam = float(lam)
    return lambda x, y: (y[1], (n2 * x * x - lam) * y[0])


def tight_shoot(problem: ModeProblem, lam: float) -> float:
    """``shoot`` by scipy's DOP853 pair at rtol 1e-13: its root lies far
    closer to the eigenvalue than the RK45 run at ODE_TOL puts its own."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_rhs(problem, lam), (0.0, 1.0), _INITIAL_STATE[problem.bc], method="DOP853",
                    rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    v, dv = sol.y[:, -1]
    return float(dv if problem.bc == "neumann" else v)


def mode_zero_crossings(problem: ModeProblem, lam: float, n_points: int = 2001) -> int:
    """Number of interior sign changes of v on (0, 1) at the given lambda,
    sampled from the dense output of the RK45 run that ``shoot`` steps."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_rhs(problem, lam), (0.0, 1.0), _INITIAL_STATE[problem.bc],
                    t_eval=np.linspace(0.0, 1.0, n_points), rtol=ODE_TOL, atol=ODE_TOL * 1e-2)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    v = sol.y[0]
    signs = np.sign(v[np.abs(v) > 1e-13 * np.abs(v).max()])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _stencil_matrix(S: np.ndarray, grid, active: np.ndarray):
    """A on the active nodes (boolean (nx, ny) mask) in CSR with sorted indices.

    Zeroes S wherever A stores no entry: across a non-periodic edge and at
    every coupling of an eliminated node.
    """
    import scipy.sparse as sp

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
