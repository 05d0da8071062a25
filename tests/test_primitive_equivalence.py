"""Cluster bounds and label gray levels from numpy primitives against the
loops they replaced (``primitive_oracle``): equal on every input."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import primitive_oracle as oracle
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
