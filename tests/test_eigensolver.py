"""Generalized eigenvalue solves: accuracy, path agreement, determinism."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ccspectral as cc
from ccspectral import discretization, eigensolver


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


@pytest.mark.parametrize("case, nx, ny, k, inverse", [
    ("grushin neumann", 32, 64, 7, "fft-y"),
    ("grushin dirichlet", 24, 48, 7, "fft-y"),
    ("y-dependent neumann", 24, 48, 6, "splu")])
def test_dense_and_shift_invert_agree(grushin, case, nx, ny, k, inverse):
    # The single Rayleigh-Ritz projection after Lanczos must take eps out of
    # the eigenvalues and keep the eigenspaces, on either inverse of K.
    structure = _y_dependent_structure() if case.startswith("y-dependent") else grushin
    bc = (cc.BoundarySpec.all_dirichlet(structure.chart) if case.endswith("dirichlet")
          else cc.BoundarySpec.all_neumann())
    forms = cc.assemble(structure, cc.build_grid(structure.chart, nx, ny), bc)
    dense_lambdas, dense_vectors = eigensolver._solve_dense(forms, k + 1)
    # k ends at a gap, so every eigenvalue cluster is whole
    assert dense_lambdas[k] - dense_lambdas[k - 1] > 1e-3 * dense_lambdas[k]
    dense_lambdas, dense_vectors = dense_lambdas[:k], dense_vectors[:, :k]
    si = cc.solve_smallest(forms, k=k)
    assert si.info["path"] == "shift-invert" and si.info["inverse"] == inverse
    scale = np.maximum(1.0, np.abs(dense_lambdas))
    assert np.all(np.abs(dense_lambdas - si.lambdas) <= 1e-10 * scale)
    # eigenspaces agree: each cluster (a cos/sin doublet or a single level)
    # spans the same space, principal angles taken in the M inner product
    root_mass = np.sqrt(forms.mass)[:, None]
    splits = np.flatnonzero(np.diff(dense_lambdas) > 1e-8 * scale[1:]) + 1
    for cluster in np.split(np.arange(k), splits):
        angles = la.subspace_angles(root_mass * dense_vectors[:, cluster],
                                    root_mass * si.vectors[:, cluster])
        assert angles.max() <= 1e-9, (cluster, angles)


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


@pytest.mark.parametrize("name, nx, ny, dirichlet", [
    ("grushin", 6, 8, False), ("grushin", 7, 5, True),
    ("euclidean", 4, 4, False), ("euclidean", 9, 6, True),
])
def test_dense_solve_matches_the_scaled_standard_problem(name, nx, ny, dirichlet):
    # (A, M) with diagonal M is M^(-1/2) A M^(-1/2) w = lambda w, v = M^(-1/2) w
    s = cc.builtin_grushin_cylinder() if name == "grushin" else cc.builtin_euclidean()
    grid = cc.build_grid(s.chart, nx, ny)
    bc = cc.BoundarySpec.all_dirichlet(s.chart) if dirichlet else cc.BoundarySpec.all_neumann()
    forms = cc.assemble(s, grid, bc)
    pairs = cc.solve_smallest(forms, k=forms.n_active)
    d = 1.0 / np.sqrt(forms.mass)
    expected = la.eigvalsh(forms.A.toarray() * d[None, :] * d[:, None])
    scale = np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(pairs.lambdas - expected) <= 1e-12 * scale)


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


def test_signs_do_not_depend_on_the_start_vector():
    # The benchmark's custom structure, mixed condition: its modes 2, 4 and 6
    # are antisymmetric under a grid mirror, so each has two largest entries
    # equal up to roundoff, and the sign rule must not choose between them
    # by which one roundoff made larger.
    structure = _y_dependent_structure()
    grid = cc.build_grid(structure.chart, 40, 40)
    forms = cc.assemble(structure, grid, cc.BoundarySpec((cc.BCSegment("x_max", "dirichlet"),)))
    first = cc.solve_smallest(forms, k=6, seed=0).vectors
    for seed in range(1, 10):
        vectors = cc.solve_smallest(forms, k=6, seed=seed).vectors
        assert np.abs(vectors - first).max() <= 1e-8, seed


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


@pytest.fixture
def arpack_ncv(monkeypatch):
    """List of the Lanczos basis sizes ARPACK builds while it is active."""
    arpack = sys.modules[spla.eigsh.__module__]
    params = arpack._SymmetricArpackParams
    sizes = []

    class Recording(params):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sizes.append(self.ncv)

    monkeypatch.setattr(arpack, "_SymmetricArpackParams", Recording)
    return sizes


def test_shift_invert_factorizes_once(count_gstrf, arpack_ncv):
    structure = _y_dependent_structure()
    grid = cc.build_grid(structure.chart, 32, 64)
    forms = cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=6)
    assert len(count_gstrf) == 1
    info = pairs.info
    assert info["path"] == "shift-invert" and info["reason"] == "k = 6 < n_active - 1 = 2047"
    assert info["inverse"] == "splu" and info["inverse_reason"] == "mass varies along y"
    assert info["factor_nnz"] == count_gstrf[0]
    # ARPACK's own basis size, and the one it really built
    assert info["ncv"] == min(forms.n_active, max(2 * 6 + 1, 20)) == 20
    assert arpack_ncv == [info["ncv"]]
    assert info["opinv_applies"] > 0
    assert 0.0 <= info["gram_defect"] <= 1e-8


@pytest.mark.parametrize("bc", ["dirichlet", "mixed", "partial x_min"])
def test_shifted_matrix_is_bitwise_the_sum(bc):
    # K reuses A's index arrays and adds eps M to a copy of A's values; it is
    # the matrix scipy's sparse addition gives, bit for bit.
    structure = _y_dependent_structure()
    partial = cc.BoundarySpec((cc.BCSegment("x_min", "dirichlet", lo=1.0, hi=3.0),))
    bc = {"dirichlet": cc.BoundarySpec.all_dirichlet(structure.chart), "mixed": MIXED_X_MAX,
          "partial x_min": partial}[bc]
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 32, 64), bc)
    assert forms.y_stencil is None
    reference, eps = _shifted(forms)
    K = eigensolver._shifted_matrix(forms.A, forms.mass, eps)
    assert K.format == "csc"
    for name in ("indices", "indptr"):
        assert np.shares_memory(getattr(K, name), getattr(forms.A, name)), name
    for name in ("data", "indices", "indptr"):
        assert getattr(K, name).tobytes() == getattr(reference, name).tobytes(), name


def test_splu_leaves_A_unchanged():
    # K shares A's index arrays, so any edit of K in place would corrupt A
    structure = _y_dependent_structure()
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 32, 64), MIXED_X_MAX)
    before = {name: getattr(forms.A, name).tobytes() for name in ("data", "indices", "indptr")}
    pairs = cc.solve_smallest(forms, k=3)
    assert pairs.info["inverse"] == "splu"
    for name, data in before.items():
        assert getattr(forms.A, name).tobytes() == data, name


def test_panel_width_leaves_the_fill(count_gstrf):
    # The narrow panel changes SuperLU's workspace, not the factor.
    structure = _y_dependent_structure()
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 32, 64),
                        cc.BoundarySpec.all_dirichlet(structure.chart))
    pairs = cc.solve_smallest(forms, k=1)
    K, _ = _shifted(forms)
    spla.splu(K.T, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    assert eigensolver.PANEL_SIZE < 20  # scipy's default width
    assert count_gstrf == [pairs.info["factor_nnz"]] * 2


def test_shift_invert_working_set(grushin):
    # At its peak the solve allocates ARPACK's basis twice (the Lanczos
    # vectors and the n x ncv array its Ritz vectors are extracted into) and
    # a few n x k blocks; nothing else may grow with n.  tracemalloc counts
    # the second basis in full, but it is zero-filled on demand and only its
    # first k columns are written, so resident memory grows by less.  A is
    # compressed inside the measured solve, after Lanczos, and stays below it.
    grid, bc = cc.build_grid(grushin.chart, 128, 256), cc.BoundarySpec.all_neumann()
    k = 6
    ncv = max(2 * k + 1, 20)
    cc.solve_smallest(cc.assemble(grushin, grid, bc), k=k)  # lazy imports outside
    forms = cc.assemble(grushin, grid, bc)
    n = forms.n_active
    assert forms.csr is None
    tracemalloc.start()
    try:
        pairs = cc.solve_smallest(forms, k=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 * ncv + 3 * k) * n * 8, peak / (n * 8)
    assert pairs.info["inverse"] == "fft-y" and pairs.info["ncv"] == ncv
    assert forms.csr is not None


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


def test_fft_inverse_reuses_its_work_arrays(grushin):
    # After one warm-up apply, an apply into a supplied output array
    # allocates no array of n doubles or more; without out, every apply
    # returns a new array, so a caller may keep its results.
    forms = cc.assemble(grushin, cc.build_grid(grushin.chart, 64, 128),
                        cc.BoundarySpec.all_neumann())
    solve, _ = eigensolver._shifted_inverse(forms, 1e-3)
    n = forms.n_active
    x, out = np.random.default_rng(2).standard_normal(n), np.empty(n)
    first, second = solve(x), solve(x)
    assert first is not second and first.tobytes() == second.tobytes()
    assert solve(x, out) is out
    tracemalloc.start()
    try:
        solve(x, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8, peak / (n * 8)
    assert out.tobytes() == first.tobytes()


def test_fft_inverse_reads_the_array_pttrs_returns(grushin, monkeypatch):
    # pttrs solves the work array in place when f2py can hand it over as
    # is; where f2py copies it instead, the solve must read the copy
    forms = cc.assemble(grushin, cc.build_grid(grushin.chart, 16, 32),
                        cc.BoundarySpec.all_neumann())
    x = np.random.default_rng(3).standard_normal((forms.n_active, 2))
    want = eigensolver._shifted_inverse(forms, 1e-3)[0](x)
    zpttrs = eigensolver.lapack.zpttrs
    monkeypatch.setattr(eigensolver.lapack, "zpttrs",
                        lambda d, e, b, **kw: zpttrs(d, e, np.array(b, order="C"), **kw))
    got = eigensolver._shifted_inverse(forms, 1e-3)[0](x)
    assert got.tobytes() == want.tobytes()


def test_cross_term_symbol_is_complex():
    structure = _custom(CROSS_TERM)
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 12, 16),
                        cc.BoundarySpec.all_neumann())
    stencil = forms.y_stencil
    # diagonal neighbours (i+1, j+1) and (i+1, j-1) couple differently,
    # so the sub-diagonal of the y-frequency symbol has an imaginary part
    assert np.abs(stencil[:-1, 2, 2] - stencil[:-1, 2, 0]).max() > 1e-3 * np.abs(stencil).max()


MIXED_X_MAX = cc.BoundarySpec((cc.BCSegment("x_max", "dirichlet"),))


def _bc(name, chart):
    return {"neumann": cc.BoundarySpec.all_neumann(),
            "dirichlet": cc.BoundarySpec.all_dirichlet(chart), "mixed": MIXED_X_MAX}[name]


@pytest.mark.parametrize("nx, ny", [(31, 64), (5, 3)])
@pytest.mark.parametrize("structure, bc", [
    ("grushin", "neumann"), ("grushin", "dirichlet"), ("grushin", "mixed"),
    ("cross", "neumann"), ("cross", "dirichlet")])
def test_y_free_stencil_is_bitwise_y_invariant(grushin, structure, bc, nx, ny):
    # every node row sums in the same order, so no roundoff varies along y
    structure = grushin if structure == "grushin" else _custom(CROSS_TERM)
    grid = cc.build_grid(structure.chart, nx, ny)
    forms = cc.assemble(structure, grid, _bc(bc, structure.chart))
    assert forms.y_reason == "A + eps M is invariant under y-translation"
    assert forms.y_stencil.flags.owndata  # a copy, not a view of the full stencil
    # the kept block is already 0.0 wherever A stores no entry
    cols = discretization._columns(grid, forms.active_nodes)[forms.active_nodes]
    repeated = np.repeat(forms.y_stencil.reshape(-1, 9), ny, axis=0)
    assert not repeated[cols < 0].any()
    # A, compressed on first read from the block repeated along y on the
    # active x-rows, is bit for bit the compression of the full stencil
    S = discretization._stencil(discretization._local_cell_matrices(structure, grid), grid)
    eager = discretization._compress(S.reshape(nx * ny, 9), grid, forms.active_nodes)
    assert forms.csr is None
    for name in ("data", "indices", "indptr"):
        assert getattr(forms.A, name).tobytes() == getattr(eager, name).tobytes(), name
    assert forms.csr is forms.A  # compressed once, then kept


@pytest.mark.parametrize("structure, bc", [
    ("grushin", "neumann"), ("grushin", "dirichlet"), ("cross", "mixed"),
    ("y-dependent", "neumann")])
def test_diagonal_is_bitwise_the_diagonal_of_A(grushin, structure, bc):
    structure = {"grushin": grushin, "cross": _custom(CROSS_TERM),
                 "y-dependent": _y_dependent_structure()}[structure]
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 17, 24),
                        _bc(bc, structure.chart))
    diagonal = forms.diagonal()
    assert forms.csr is None or forms.y_stencil is None  # read without building A
    assert diagonal.dtype == np.float64 and diagonal.tobytes() == forms.A.diagonal().tobytes()


def test_forms_need_A_or_a_y_stencil(grushin):
    forms = cc.assemble(grushin, cc.build_grid(grushin.chart, 8, 16),
                        cc.BoundarySpec.all_neumann())
    with pytest.raises(ValueError, match="csr"):
        dataclasses.replace(forms, y_stencil=None, y_reason="disabled")


def test_lanczos_runs_before_A_is_compressed(grushin, monkeypatch):
    # On the fft-y path eigsh gets A's shape only, and returns before the
    # Rayleigh-Ritz step compresses A from the y_stencil.
    forms = cc.assemble(grushin, cc.build_grid(grushin.chart, 24, 48),
                        cc.BoundarySpec.all_neumann())
    seen = []
    eigsh = eigensolver.spla.eigsh

    def wrapped(A, *args, **kwargs):
        result = eigsh(A, *args, **kwargs)
        seen.append(forms.csr)
        with pytest.raises(RuntimeError, match="applied A"):
            A.matvec(np.ones(A.shape[1]))
        return result

    monkeypatch.setattr(eigensolver.spla, "eigsh", wrapped)
    pairs = cc.solve_smallest(forms, k=6)
    assert seen == [None] and pairs.info["inverse"] == "fft-y"
    assert forms.csr is not None


@pytest.mark.parametrize("bc", ["neumann", "dirichlet", "mixed"])
def test_lazy_and_eager_A_give_bitwise_equal_pairs(grushin, bc):
    grid = cc.build_grid(grushin.chart, 20, 33)
    lazy = cc.assemble(grushin, grid, _bc(bc, grushin.chart))
    eager = cc.assemble(grushin, grid, _bc(bc, grushin.chart))
    eager.A  # compressed before the solve
    a, b = cc.solve_smallest(lazy, k=6, seed=4), cc.solve_smallest(eager, k=6, seed=4)
    for name in ("lambdas", "vectors", "residuals"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.info == b.info


@pytest.mark.parametrize("ny", [32, 33])
@pytest.mark.parametrize("structure, bc", [
    ("grushin", "neumann"), ("grushin", "dirichlet"), ("grushin", "mixed"),
    ("cross", "neumann")])
def test_fft_inverse_matches_splu(grushin, count_gstrf, structure, bc, ny):
    structure = grushin if structure == "grushin" else _custom(CROSS_TERM)
    forms = cc.assemble(structure, cc.build_grid(structure.chart, 20, ny),
                        _bc(bc, structure.chart))
    fft = cc.solve_smallest(forms, k=6)
    assert fft.info["inverse"] == "fft-y" and not count_gstrf
    # without the y_stencil the forms need A itself, so it is passed along
    lu = cc.solve_smallest(dataclasses.replace(forms, csr=forms.A, y_stencil=None,
                                               y_reason="disabled"), k=6)
    assert lu.info["inverse"] == "splu" and len(count_gstrf) == 1
    assert np.all(np.abs(fft.lambdas - lu.lambdas) <= 1e-12 * np.maximum(1.0, np.abs(lu.lambdas)))
    assert fft.info["opinv_applies"] > 0


def _fallback_cases():
    grushin = cc.builtin_grushin_cylinder()
    return {
        "y-dependent field": (
            _custom(((ONE, ZERO), (ZERO, lambda x, y: x * (1.0 + 0.25 * np.sin(y))))),
            cc.BoundarySpec.all_neumann(), "A varies along y"),
        # A varies along y by less than 1e-14 max|A|: only an exact row comparison sees it
        "field varying at 1e-15": (
            _custom(((ONE, ZERO), (ZERO, lambda x, y: x + 1e-15 * np.sin(y)))),
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
    assert forms.y_stencil is None and forms.y_reason == reason
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
    # the first node whose |v| is within a relative 1e-8 of max |v| is positive
    V = grushin_neumann_pairs.vectors
    magnitude = np.abs(V)
    idx = np.argmax(magnitude >= (1.0 - 1e-8) * magnitude.max(axis=0), axis=0)
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
