"""Code that the library replaced, kept verbatim as test-only oracles for
``test_primitive_equivalence.py``: the hand-written loops that
``nodal._cluster_bounds`` and ``pgm.labels_to_gray`` replaced by numpy
primitives, the cell-point formulas that ``Grid2D.cell_meshes`` replaced,
and the per-axis boundary slicing of ``mfmc_certify`` that the grid's edge
table replaced.
"""

from __future__ import annotations

import numpy as np

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
