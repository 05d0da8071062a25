"""Nodal domains of grid functions and the Courant bound check.

A nodal domain is a connected component (4-neighbor adjacency, wrapping
across periodic axes) of the set where the function is strictly positive
or strictly negative outside a near-zero band.  The components are the
connected components of the graph of same-sign grid edges
(scipy.sparse.csgraph), built as one CSR row per node from int8 signs and
int32 node ids and freed before the components are numbered, so a call
allocates about 60 bytes a node at its peak.  The Courant check compares
the number of nodal domains of the i-th eigenfunction against i, crediting
clusters of numerically equal eigenvalues with the top index of the cluster.  The
labels are computed here; ``cli`` writes them as images (``labels_to_gray``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .discretization import AssembledForms, Grid2D
from .eigensolver import Eigenpairs


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
    and separate domains.  rel_threshold must lie in [0, 0.1], and u must be
    finite.
    """
    if not 0.0 <= rel_threshold <= 0.1:
        raise ValueError(f"rel_threshold must be in [0, 0.1], got {rel_threshold}")
    values = np.asarray(u, dtype=float).ravel()
    n = grid.n_nodes
    if values.size != n:
        raise ValueError(f"expected {n} node values, got {values.size}")
    vmax = max(values.max(), -values.min())
    if not np.isfinite(vmax):
        raise ValueError(f"u must be finite, got max |u| = {vmax}")
    cut = rel_threshold * vmax
    sign = (values > cut).view(np.int8) - (values < -cut).view(np.int8)
    # Same-sign 4-neighbour edges, one graph row per node: its successor
    # along x, then along y, the last layer against the first only where
    # the axis wraps.
    sign2d = sign.reshape(grid.nx, grid.ny)
    node = np.arange(n, dtype=np.int32).reshape(sign2d.shape)
    successor = np.empty((grid.nx, grid.ny, 2), dtype=np.int32)
    linked = np.empty((grid.nx, grid.ny, 2), dtype=bool)
    for axis, periodic in ((0, grid.chart.periodic_x), (1, grid.chart.periodic_y)):
        successor[..., axis] = np.roll(node, -1, axis)
        linked[..., axis] = (sign2d == np.roll(sign2d, -1, axis)) & (sign2d != 0)
        if not periodic:
            np.moveaxis(linked[..., axis], axis, 0)[-1] = False
    del node
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(linked.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    indices = successor[linked]
    del successor, linked
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    n_components, component = connected_components(graph, directed=False)
    del graph, indices, indptr
    # Number the components by their first node: positives 1, 2, ... and
    # negatives -1, -2, ..., each in order of first appearance; the zero
    # band, one component per node, gets 0.
    first = np.full(n_components, n, dtype=np.int32)
    np.minimum.at(first, component, np.arange(n, dtype=np.int32))
    order = np.argsort(first)
    signs = sign[first[order]]
    number = np.empty(n_components, dtype=int)
    number[order] = np.where(signs > 0, np.cumsum(signs > 0),
                             np.where(signs < 0, -np.cumsum(signs < 0), 0))
    n_pos = int(np.count_nonzero(signs > 0))
    n_neg = int(np.count_nonzero(signs < 0))
    return NodalDecomposition(labels=number[component], n_domains=n_pos + n_neg,
                              n_positive=n_pos, n_negative=n_neg,
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
    split = ~(np.abs(np.diff(lambdas)) <= gap_rel_tol * np.maximum(1.0, np.abs(lambdas[:-1])))
    last = np.append(np.flatnonzero(split), lambdas.size - 1)  # 0-based, per cluster
    cluster = np.concatenate(([0], np.cumsum(split)))
    return (last[cluster] + 1).tolist()


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
