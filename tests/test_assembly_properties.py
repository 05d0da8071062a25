"""Properties of the assembled forms on random small grids.

Grids have 3-12 nodes per axis and any periodicity; the structure is the
Grushin, the Euclidean or a y-dependent custom one; the boundary is
Neumann, Dirichlet or one Dirichlet segment.  On every draw A is bitwise
symmetric, restricting after expanding is the identity on active-node
vectors, and under Neumann conditions A kills constants.
"""

import dataclasses

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import assume, given
from hypothesis import strategies as st

import ccspectral as cc

KINDS = ("grushin", "euclidean", "custom")
EDGES = {"x_min": 0, "x_max": 0, "y_min": 1, "y_max": 1}  # edge -> axis it sits on


def _structure(kind, periodic_x, periodic_y):
    chart = cc.Chart2D((0.0, 1.0), (0.0, 2.0 * np.pi),
                       periodic_x=periodic_x, periodic_y=periodic_y)
    if kind == "grushin":
        return dataclasses.replace(cc.builtin_grushin_cylinder(), chart=chart)
    if kind == "euclidean":
        return cc.builtin_euclidean(chart.x_range, chart.y_range, periodic_x, periodic_y)
    expr = cc.compile_expression
    return cc.CCStructure(chart=chart,
                          field_coeffs=((expr("1"), expr("0")),
                                        (expr("0"), expr("x*(1+0.25*sin(y))"))),
                          density=expr("1+0.5*cos(y)^2"))


@st.composite
def problems(draw, bcs=("neumann", "dirichlet", "segment")):
    """(structure, grid, boundary spec) on a random small grid."""
    periodic = draw(st.tuples(st.booleans(), st.booleans()))
    structure = _structure(draw(st.sampled_from(KINDS)), *periodic)
    chart = structure.chart
    grid = cc.build_grid(chart, draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    bc = draw(st.sampled_from(bcs))
    if bc == "neumann":
        return structure, grid, cc.BoundarySpec.all_neumann()
    if bc == "dirichlet":
        return structure, grid, cc.BoundarySpec.all_dirichlet(chart)
    edges = [e for e, axis in EDGES.items() if not periodic[axis]]
    assume(edges)
    edge = draw(st.sampled_from(edges))
    lo, hi = chart.y_range if EDGES[edge] == 0 else chart.x_range
    a, b = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    segment = cc.BCSegment(edge, "dirichlet", lo + a * (hi - lo), lo + b * (hi - lo))
    return structure, grid, cc.BoundarySpec((segment,))


@given(problems())
def test_stiffness_is_bitwise_symmetric(problem):
    A = cc.assemble(*problem).A
    assert (A != A.T).nnz == 0


@given(problems(bcs=("neumann",)))
def test_neumann_stiffness_kills_constants(problem):
    A = cc.assemble(*problem).A
    assert np.abs(A @ np.ones(A.shape[0])).max() <= 1e-12 * spla.norm(A, np.inf)


@given(problems(), st.integers(0, 2**32 - 1))
def test_restrict_inverts_expand(problem, seed):
    forms = cc.assemble(*problem)
    rng = np.random.default_rng(seed)
    for shape in ((forms.n_active,), (forms.n_active, 3)):
        u = rng.standard_normal(shape)
        assert np.array_equal(forms.restrict(forms.expand(u)), u)
