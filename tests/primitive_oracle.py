"""The hand-written loops that ``nodal._cluster_bounds`` and
``pgm.labels_to_gray`` replaced by numpy primitives, kept verbatim as
test-only oracles for ``test_primitive_equivalence.py``.
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
