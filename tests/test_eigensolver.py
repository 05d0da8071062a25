"""Generalized eigenvalue solves: accuracy, method agreement, determinism."""

import numpy as np
import pytest

import ccspectral as cc


def test_validation():
    s = cc.builtin_euclidean()
    grid = cc.build_grid(s.chart, 9, 9)
    forms = cc.assemble(s, grid, cc.BoundarySpec.all_neumann())
    with pytest.raises(ValueError):
        cc.solve_smallest(forms, k=0)
    with pytest.raises(ValueError):
        cc.solve_smallest(forms, k=forms.n_active + 1)
    with pytest.raises(ValueError):
        cc.solve_smallest(forms, k=2, method="qr")


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


def test_dense_and_shift_invert_agree(grushin):
    grid = cc.build_grid(grushin.chart, 32, 64)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    dense = cc.solve_smallest(forms, k=6, method="dense")
    si = cc.solve_smallest(forms, k=6, method="shift-invert")
    scale = np.maximum(1.0, np.abs(dense.lambdas))
    assert np.all(np.abs(dense.lambdas - si.lambdas) <= 1e-8 * scale)
    # eigenspaces agree: principal angles of the first doublet span are ~0
    M = forms.mass
    overlap = dense.vectors[:, 1:3].T @ (M[:, None] * si.vectors[:, 1:3])
    sv = np.linalg.svd(overlap, compute_uv=False)
    assert np.abs(sv - 1.0).max() <= 1e-7


def test_auto_matches_forced_paths(grushin):
    grid = cc.build_grid(grushin.chart, 16, 24)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    # n_active = 384 is above the default crossover, so pin the threshold
    # to check that auto below it is exactly the dense path.
    auto_small = cc.solve_smallest(forms, k=4, dense_threshold=400)
    dense = cc.solve_smallest(forms, k=4, method="dense")
    assert np.array_equal(auto_small.lambdas, dense.lambdas)
    assert auto_small.info["path"] == "dense"
    auto_big = cc.solve_smallest(forms, k=4, dense_threshold=10)
    assert np.abs(auto_big.lambdas - dense.lambdas).max() <= 1e-8
    assert auto_big.info["path"] == "shift-invert"
    assert cc.solve_smallest(forms, k=4).info["path"] == "shift-invert"


def test_auto_takes_dense_when_k_near_n(euclidean):
    grid = cc.build_grid(euclidean.chart, 4, 4)
    forms = cc.assemble(euclidean, grid, cc.BoundarySpec.all_neumann())
    n = forms.n_active
    dense = cc.solve_smallest(forms, k=n, method="dense")
    for k in (n - 1, n):
        auto = cc.solve_smallest(forms, k=k, dense_threshold=0)
        assert auto.info["path"] == "dense"
        assert "n_active - 1" in auto.info["reason"]
        assert np.array_equal(auto.lambdas, dense.lambdas[:k])
    with pytest.raises(ValueError, match="shift-invert"):
        cc.solve_smallest(forms, k=n, method="shift-invert")


def test_shift_invert_factorizes_once(grushin, monkeypatch):
    import scipy.sparse.linalg._dsolve.linsolve as linsolve

    gstrf = linsolve._superlu.gstrf
    fills = []

    def counting_gstrf(*args, **kwargs):
        lu = gstrf(*args, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(linsolve._superlu, "gstrf", counting_gstrf)
    grid = cc.build_grid(grushin.chart, 32, 64)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=6, method="shift-invert")
    assert len(fills) == 1
    info = pairs.info
    assert info["path"] == "shift-invert" and info["reason"] == "forced"
    assert info["factor_nnz"] == fills[0]
    assert info["opinv_applies"] > 0
    assert 0 <= info["polish_passes"] <= 3
    assert 0.0 <= info["gram_defect"] <= 1e-8


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
