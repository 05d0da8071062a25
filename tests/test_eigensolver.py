"""Generalized eigenvalue solves: accuracy, path agreement, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp

import ccspectral as cc
from ccspectral import eigensolver


def test_validation():
    s = cc.builtin_euclidean()
    grid = cc.build_grid(s.chart, 9, 9)
    forms = cc.assemble(s, grid, cc.BoundarySpec.all_neumann())
    with pytest.raises(ValueError):
        cc.solve_smallest(forms, k=0)
    with pytest.raises(ValueError):
        cc.solve_smallest(forms, k=forms.n_active + 1)


def test_convergence_error_is_runtime_error():
    assert issubclass(cc.ConvergenceError, RuntimeError)


def test_residuals_and_orthonormality(grushin_neumann_forms, grushin_neumann_pairs):
    pairs = grushin_neumann_pairs
    assert pairs.k == 8
    assert np.all(pairs.residuals <= 1e-8)
    assert np.all(np.diff(pairs.lambdas) >= -1e-12)
    M = grushin_neumann_forms.mass
    gram = pairs.vectors.T @ (M[:, None] * pairs.vectors)
    assert np.abs(gram - np.eye(pairs.k)).max() <= 1e-8


def test_neumann_ground_state_is_constant(grushin_neumann_pairs):
    lam = grushin_neumann_pairs.lambdas
    assert abs(lam[0]) <= 1e-9
    v0 = grushin_neumann_pairs.vectors[:, 0]
    assert v0.std() <= 1e-7 * abs(v0.mean())


def test_grushin_doublets(grushin_neumann_pairs):
    lam = grushin_neumann_pairs.lambdas
    # angular modes n >= 1 come in cos/sin pairs
    assert lam[2] - lam[1] <= 1e-8 * lam[1]
    assert lam[4] - lam[3] <= 1e-8 * lam[3]
    # and the pairs are genuinely distinct levels
    assert lam[3] > 1.5 * lam[1]


@pytest.mark.parametrize("nx, ny", [(32, 64), (24, 48)])
def test_lanczos_keeps_both_members_of_each_doublet(grushin, nx, ny):
    # Single-vector Lanczos sees the second member of an exactly degenerate
    # pair only through roundoff; at a looser eigsh tolerance than 0 it can
    # converge without it while every residual still passes.
    forms = cc.assemble(grushin, cc.build_grid(grushin.chart, nx, ny),
                        cc.BoundarySpec.all_dirichlet(grushin.chart))
    for seed in range(20):
        lam = cc.solve_smallest(forms, k=5, seed=seed).lambdas
        assert abs(lam[2] - lam[1]) <= 1e-10 * lam[1], seed
        assert abs(lam[4] - lam[3]) <= 1e-10 * lam[3], seed


def test_dense_and_shift_invert_agree(grushin):
    grid = cc.build_grid(grushin.chart, 32, 64)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    dense_lambdas, dense_vectors = eigensolver._solve_dense(forms, 6)
    si = cc.solve_smallest(forms, k=6)
    assert si.info["path"] == "shift-invert"
    scale = np.maximum(1.0, np.abs(dense_lambdas))
    assert np.all(np.abs(dense_lambdas - si.lambdas) <= 1e-8 * scale)
    # eigenspaces agree: principal angles of the first doublet span are ~0
    M = forms.mass
    overlap = dense_vectors[:, 1:3].T @ (M[:, None] * si.vectors[:, 1:3])
    sv = np.linalg.svd(overlap, compute_uv=False)
    assert np.abs(sv - 1.0).max() <= 1e-7


@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 12)])
def test_dense_exactly_when_k_near_n(euclidean, nx, ny):
    # Lanczos needs k < n_active; every smaller k takes it, however small
    # the grid.
    grid = cc.build_grid(euclidean.chart, nx, ny)
    forms = cc.assemble(euclidean, grid, cc.BoundarySpec.all_neumann())
    n = forms.n_active
    full = cc.solve_smallest(forms, k=n)
    for k in (n - 1, n):
        pairs = cc.solve_smallest(forms, k=k)
        assert pairs.info["path"] == "dense"
        assert pairs.info["reason"] == f"k = {k} >= n_active - 1 = {n - 1}"
        assert np.array_equal(pairs.lambdas, full.lambdas[:k])
    pairs = cc.solve_smallest(forms, k=n - 2)
    assert pairs.info["path"] == "shift-invert"
    assert pairs.info["reason"] == f"k = {n - 2} < n_active - 1 = {n - 1}"
    scale = np.maximum(1.0, np.abs(full.lambdas[:n - 2]))
    assert np.all(np.abs(pairs.lambdas - full.lambdas[:n - 2]) <= 1e-8 * scale)


def _custom(fields, density=lambda x, y: np.ones(np.shape(x))):
    """A structure on the Grushin cylinder's chart."""
    return cc.CCStructure(chart=cc.builtin_grushin_cylinder().chart,
                          field_coeffs=tuple(fields), density=density)


ONE = cc.constant_coefficient(1.0)
ZERO = cc.constant_coefficient(0.0)


def _y_dependent_structure():
    """The cheeger benchmark's structure: y-dependent field and density."""
    return _custom(((ONE, ZERO), (ZERO, lambda x, y: x * (1.0 + 0.25 * np.sin(y)))),
                   density=lambda x, y: 1.0 + 0.5 * np.cos(y) ** 2)


@pytest.fixture
def count_gstrf(monkeypatch):
    """List of the fills of every SuperLU factorization made while it is active."""
    import scipy.sparse.linalg._dsolve.linsolve as linsolve

    gstrf = linsolve._superlu.gstrf
    fills = []

    def counting_gstrf(*args, **kwargs):
        lu = gstrf(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(linsolve._superlu, "gstrf", counting_gstrf)
    return fills


def test_shift_invert_factorizes_once(count_gstrf):
    structure = _y_dependent_structure()
    grid = cc.build_grid(structure.chart, 32, 64)
    forms = cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=6)
    assert len(count_gstrf) == 1
    info = pairs.info
    assert info["path"] == "shift-invert" and info["reason"] == "k = 6 < n_active - 1 = 2047"
    assert info["inverse"] == "splu" and info["inverse_reason"] == "mass varies along y"
    assert info["factor_nnz"] == count_gstrf[0]
    assert info["opinv_applies"] > 0
    assert 0 <= info["polish_passes"] <= 3
    assert 0.0 <= info["gram_defect"] <= 1e-8


def _shifted(forms):
    eps = 1e-8 * float(forms.A.diagonal().sum()) / float(forms.mass.sum())
    return forms.A + sp.diags(eps * forms.mass), eps


CROSS_TERM = ((ONE, lambda x, y: np.asarray(x, dtype=float)), (ZERO, ONE))


@pytest.mark.parametrize("structure, nx, ny", [
    ("grushin", 24, 48), ("grushin", 17, 33), ("grushin", 5, 3), ("cross", 20, 31)])
def test_fft_inverse_backward_error(grushin, structure, nx, ny):
    structure = grushin if structure == "grushin" else _custom(CROSS_TERM)
    grid = cc.build_grid(structure.chart, nx, ny)
    forms = cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    K, eps = _shifted(forms)
    solve, info = eigensolver._shifted_inverse(forms, eps)
    assert info["inverse"] == "fft-y" and "factor_nnz" not in info
    rng = np.random.default_rng(7)
    scale = abs(K).sum(axis=1).max()
    for x in (rng.standard_normal(forms.n_active), rng.standard_normal((forms.n_active, 3))):
        y = solve(x)
        assert y.shape == x.shape and y.dtype == np.float64
        # normwise backward error; y itself is only as good as cond(K) ~ 1e8 allows
        assert np.abs(K @ y - x).max() <= 1e-14 * scale * np.abs(y).max()


def test_cross_term_symbol_is_complex():
    structure = _custom(CROSS_TERM)
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 12, 16),
                        cc.BoundarySpec.all_neumann())
    stencil, _ = eigensolver._y_stencil(forms)
    # diagonal neighbours (i+1, j+1) and (i+1, j-1) couple differently,
    # so the sub-diagonal of the y-frequency symbol has an imaginary part
    assert np.abs(stencil[:-1, 2, 2] - stencil[:-1, 2, 0]).max() > 1e-3 * np.abs(stencil).max()


MIXED_X_MAX = cc.BoundarySpec((cc.BCSegment("x_max", "dirichlet"),))


@pytest.mark.parametrize("ny", [32, 33])
@pytest.mark.parametrize("structure, bc", [
    ("grushin", "neumann"), ("grushin", "dirichlet"), ("grushin", "mixed"),
    ("cross", "neumann")])
def test_fft_inverse_matches_splu(grushin, monkeypatch, count_gstrf, structure, bc, ny):
    structure = grushin if structure == "grushin" else _custom(CROSS_TERM)
    bc = {"neumann": cc.BoundarySpec.all_neumann(),
          "dirichlet": cc.BoundarySpec.all_dirichlet(structure.chart),
          "mixed": MIXED_X_MAX}[bc]
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 20, ny), bc)
    fft = cc.solve_smallest(forms, k=6)
    assert fft.info["inverse"] == "fft-y" and not count_gstrf
    monkeypatch.setattr(eigensolver, "_y_stencil", lambda forms: (None, "disabled"))
    lu = cc.solve_smallest(forms, k=6)
    assert lu.info["inverse"] == "splu" and len(count_gstrf) == 1
    assert np.all(np.abs(fft.lambdas - lu.lambdas) <= 1e-12 * np.maximum(1.0, np.abs(lu.lambdas)))
    assert fft.info["opinv_applies"] > 0


def _fallback_cases():
    grushin = cc.builtin_grushin_cylinder()
    return {
        "y-dependent field": (
            _custom(((ONE, ZERO), (ZERO, lambda x, y: x * (1.0 + 0.25 * np.sin(y))))),
            cc.BoundarySpec.all_neumann(), "A varies along y"),
        "y-dependent density": (
            _custom(grushin.field_coeffs, density=lambda x, y: 1.0 + 0.5 * np.cos(y) ** 2),
            cc.BoundarySpec.all_neumann(), "mass varies along y"),
        "partial x_max segment": (
            grushin, cc.BoundarySpec((cc.BCSegment("x_max", "dirichlet", lo=1.0, hi=3.0),)),
            "active nodes are not full y-rows"),
        "non-periodic y": (
            cc.builtin_euclidean(), cc.BoundarySpec.all_neumann(), "chart not periodic in y"),
        "periodic x": (
            cc.builtin_euclidean(periodic_x=True, periodic_y=True),
            cc.BoundarySpec.all_neumann(), "chart periodic in x"),
    }


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_y_dependent_operators_fall_back_to_splu(count_gstrf, case):
    structure, bc, reason = _fallback_cases()[case]
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 12, 16), bc)
    pairs = cc.solve_smallest(forms, k=3)
    assert len(count_gstrf) == 1
    assert pairs.info["inverse"] == "splu" and pairs.info["inverse_reason"] == reason
    assert pairs.info["factor_nnz"] == count_gstrf[0]


def test_deterministic_across_runs(grushin_neumann_forms):
    a = cc.solve_smallest(grushin_neumann_forms, k=5, seed=3)
    b = cc.solve_smallest(grushin_neumann_forms, k=5, seed=3)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.residuals, b.residuals)


def test_sign_convention(grushin_neumann_pairs):
    V = grushin_neumann_pairs.vectors
    idx = np.argmax(np.abs(V), axis=0)
    assert np.all(V[idx, np.arange(V.shape[1])] > 0.0)


def test_euclidean_square_neumann(euclidean):
    grid = cc.build_grid(euclidean.chart, 33, 33)
    forms = cc.assemble(euclidean, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=3)
    assert abs(pairs.lambdas[0]) <= 1e-9
    assert pairs.lambdas[1] == pytest.approx(np.pi**2, rel=5e-3)
    assert pairs.lambdas[2] == pytest.approx(np.pi**2, rel=5e-3)


def test_euclidean_square_dirichlet(euclidean):
    grid = cc.build_grid(euclidean.chart, 33, 33)
    bc = cc.BoundarySpec.all_dirichlet(euclidean.chart)
    forms = cc.assemble(euclidean, grid, bc)
    pairs = cc.solve_smallest(forms, k=3)
    assert pairs.lambdas[0] == pytest.approx(2.0 * np.pi**2, rel=5e-3)
    assert pairs.lambdas[1] == pytest.approx(5.0 * np.pi**2, rel=1e-2)
    assert pairs.lambdas[0] >= -1e-12


def test_minmax_characterization(grushin_neumann_forms, grushin_neumann_pairs):
    report = cc.check_minmax(grushin_neumann_forms, grushin_neumann_pairs,
                             n_samples=40, seed=1)
    assert report.ok
    assert np.abs(report.rayleigh_errors).max() <= 1e-8
    assert np.all(report.random_margins >= -1e-8)


def test_minmax_flags_wrong_pairs(grushin_neumann_forms, grushin_neumann_pairs):
    fake = cc.Eigenpairs(lambdas=grushin_neumann_pairs.lambdas * 1.5,
                         vectors=grushin_neumann_pairs.vectors,
                         residuals=grushin_neumann_pairs.residuals)
    report = cc.check_minmax(grushin_neumann_forms, fake, n_samples=10, seed=1)
    assert not report.ok
