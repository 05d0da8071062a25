"""Nodal domains of grid functions and the Courant bound check.

A nodal domain is a connected component (4-neighbor adjacency, wrapping
across periodic axes) of the set where the function is strictly positive
or strictly negative outside a near-zero band.  The components are the
connected components of the graph of same-sign grid edges
(scipy.sparse.csgraph).  The Courant check compares the number of
nodal domains of the i-th eigenfunction against i, crediting clusters of
numerically equal eigenvalues with the top index of the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .discretization import AssembledForms, Grid2D
from .eigensolver import Eigenpairs
from .pgm import labels_to_gray, write_pgm

__all__ = [
    "NodalDecomposition",
    "nodal_domains",
    "CourantEntry",
    "CourantReport",
    "check_courant",
    "write_labels_pgm",
]


@dataclass(frozen=True)
class NodalDecomposition:
    """Signed component labels per node: 0 marks the near-zero band,
    positive components get 1, 2, ... and negative ones -1, -2, ...
    in order of first appearance."""

    labels: np.ndarray
    n_domains: int
    n_positive: int
    n_negative: int
    rel_threshold: float


def nodal_domains(grid: Grid2D, u, rel_threshold: float = 1e-6) -> NodalDecomposition:
    """Label the nodal domains of u (values on all grid nodes).

    Nodes with |u| <= rel_threshold * max|u| form the zero band (label 0)
    and separate domains.  rel_threshold must lie in [0, 0.1].
    """
    if not 0.0 <= rel_threshold <= 0.1:
        raise ValueError(f"rel_threshold must be in [0, 0.1], got {rel_threshold}")
    values = np.asarray(u, dtype=float).ravel()
    if values.size != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} node values, got {values.size}")
    vmax = np.abs(values).max()
    sign = np.sign(values)
    sign[np.abs(values) <= rel_threshold * vmax] = 0
    # Same-sign 4-neighbour edges: each node against its successor along
    # each axis, the last layer against the first only where the axis wraps.
    sign2d = sign.reshape(grid.nx, grid.ny)
    node = np.arange(grid.n_nodes).reshape(sign2d.shape)
    i, j = [], []
    for axis, periodic in ((0, grid.chart.periodic_x), (1, grid.chart.periodic_y)):
        same = (sign2d == np.roll(sign2d, -1, axis)) & (sign2d != 0)
        if not periodic:
            np.moveaxis(same, axis, 0)[-1] = False
        i.append(node[same])
        j.append(np.roll(node, -1, axis)[same])
    i, j = np.concatenate(i), np.concatenate(j)
    graph = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(grid.n_nodes, grid.n_nodes))
    _, component = connected_components(graph, directed=False)
    # Number the components by their first nonzero node: positives 1, 2, ...
    # and negatives -1, -2, ..., each in order of first appearance.
    nonzero = np.flatnonzero(sign)
    _, first, inverse = np.unique(component[nonzero], return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    signs = sign[nonzero[first[order]]]
    number = np.empty(first.size, dtype=int)
    number[order] = np.where(signs > 0, np.cumsum(signs > 0), -np.cumsum(signs < 0))
    labels = np.zeros(grid.n_nodes, dtype=int)
    labels[nonzero] = number[inverse]
    n_pos = int(np.count_nonzero(signs > 0))
    return NodalDecomposition(labels=labels, n_domains=first.size,
                              n_positive=n_pos, n_negative=first.size - n_pos,
                              rel_threshold=rel_threshold)


@dataclass(frozen=True)
class CourantEntry:
    index: int          # 1-based eigenvalue index
    eigenvalue: float
    n_domains: int
    bound: int          # top index of the numerically equal cluster
    ok: bool
    decomposition: NodalDecomposition  # the labels n_domains was counted on


@dataclass(frozen=True)
class CourantReport:
    entries: tuple[CourantEntry, ...]
    ok: bool

    @property
    def violations(self) -> tuple[CourantEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


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


def check_courant(pairs: Eigenpairs, forms: AssembledForms,
                  rel_threshold: float = 1e-6,
                  gap_rel_tol: float = 1e-6) -> CourantReport:
    """Count nodal domains of each eigenfunction and compare to its index.

    Violations are reported, never raised: on coarse grids the zero band
    can merge or split domains, and that is a diagnostic, not a bug.
    """
    bounds = _cluster_bounds(pairs.lambdas, gap_rel_tol)
    entries = []
    for i in range(pairs.k):
        full = forms.expand(pairs.vectors[:, i])
        decomp = nodal_domains(forms.grid, full, rel_threshold)
        ok = decomp.n_domains <= bounds[i]
        entries.append(CourantEntry(index=i + 1, eigenvalue=float(pairs.lambdas[i]),
                                    n_domains=decomp.n_domains, bound=bounds[i], ok=ok,
                                    decomposition=decomp))
    return CourantReport(entries=tuple(entries), ok=all(e.ok for e in entries))


def write_labels_pgm(grid: Grid2D, decomp: NodalDecomposition, path) -> None:
    """Export the label array as an 8-bit PGM image (band black)."""
    labels2d = decomp.labels.reshape(grid.nx, grid.ny)
    write_pgm(labels_to_gray(labels2d), path)
