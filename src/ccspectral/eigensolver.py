"""Smallest eigenpairs of the generalized problem A u = lambda M u.

A is the assembled energy matrix (symmetric positive semidefinite) and M
the lumped mass diagonal.  The input alone picks the path: one dense
generalized solve of (A, diag(M)) when k >= n - 1, which leaves Lanczos
nothing to reduce (ARPACK needs k < n), and otherwise shift-invert Lanczos
on the regularized pencil (A + eps M, M), which is positive definite even
when constants span the kernel of A.  The shifted matrix K = A + eps M is
inverted once, and Lanczos works in ARPACK's own basis of
max(2k + 1, 20) vectors.
When K is invariant under y-translation (a y-periodic chart whose mass and
nearest-neighbour stencil do not vary along y, such as the Grushin
cylinder), an FFT along y turns K into one Hermitian tridiagonal system per
frequency, which is factorized directly (the fast direct solver of Hockney
1965 and Buzbee-Golub-Nielson 1970); any other K gets a sparse LU.  That
K is a copy of A's values with eps M added on the diagonal, on A's own index
arrays, dropped once SuperLU has factored it.  SuperLU's supernode-panel
factorization (Demmel, Eisenstat, Gilbert, Li and Liu, 1999) keeps a panel
of dense columns of length n, and index arrays of that shape, as workspace
beside the growing factor.  At scipy's default width of 20 that workspace
sets the peak of the solve, so a narrow panel (PANEL_SIZE) lowers it; the
fill does not change.  The assembly decides which inverse K gets and keeps
the one stencil block the FFT path needs (forms.y_stencil, forms.y_reason),
so this module never reads the grid.  The shift eps reads the trace from
forms.diagonal(), and Lanczos is handed A's shape alone, so on the FFT path
forms.A is first read, and so compressed, after Lanczos returns.  The
shift eps M moves eigenvalues, not eigenvectors, so both paths finish with
one Rayleigh-Ritz projection against the unshifted pencil, which takes the
regularization out of the results.  Residuals and M-orthonormality are
checked once, on either path.  The Ritz, residual, Gram and sign steps work
one column at a time and hold no n-sized block besides the vectors they
return.  Runs are deterministic: the iterative start vector is drawn from a
seeded generator, and signs do not depend on it (see solve_smallest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import AssembledForms

# Lanczos iteration budget per requested mode.
MAXITER_PER_MODE = 50

# SuperLU's panel width.  The factorization keeps PANEL_SIZE dense columns
# of length n, and index arrays of that shape, as workspace beside the
# factor; the width changes that workspace, not the fill.  Peak RSS of
# cheeger runs on a y-dependent custom structure (2-vCPU VM), 128x256 and
# 256x512: 107.9 and 264 MB at scipy's default 20, 100.9 and 236 MB at 8,
# 101.3 and 233 MB at 4, within 0.2 MB of widths 2 to 5 on both grids.  The
# 256x512 factor takes 0.65 s at 4 and 0.72 s at 20.
PANEL_SIZE = 4


class ConvergenceError(RuntimeError):
    """The iterative eigensolver missed the requested residual tolerance."""


@dataclass(frozen=True)
class Eigenpairs:
    """Ascending eigenvalues, M-orthonormal vectors (columns), residuals.

    residuals[i] = ||A v_i - lambda_i M v_i||_2 with ||v_i||_M = 1.  info says
    how they were found: path and reason; for shift-invert the inverse used
    ("fft-y" or "splu") and why, the LU fill (splu only), the Lanczos basis
    size ncv and the count of inverse-operator applies; the M-orthonormality
    defect.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    info: Mapping[str, Any] = field(default_factory=dict, compare=False)

    @property
    def k(self) -> int:
        return self.lambdas.size


def _project(V: np.ndarray, op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The k x k matrix V^T op(V), applying op to one column of V at a time."""
    return np.array([V.T @ op(v) for v in V.T])


def _residuals(A: sp.csr_matrix, mass: np.ndarray, lambdas: np.ndarray,
               V: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(A @ v - (mass * v) * lam) for lam, v in zip(lambdas, V.T)])


def _rayleigh_ritz(A: sp.csr_matrix, mass: np.ndarray,
                   V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (A, M) onto span(V) and solve the small dense pencil."""
    Ah = _project(V, lambda v: A @ v)
    G = _project(V, lambda v: mass * v)
    w, Z = la.eigh((Ah + Ah.T) / 2.0, (G + G.T) / 2.0)
    return w, V @ Z


def _solve_dense(forms: AssembledForms, k: int) -> tuple[np.ndarray, np.ndarray]:
    # The full spectrum, sliced, so that k = n - 1 and k = n agree bitwise.
    w, V = la.eigh(forms.A.toarray(), np.diag(forms.mass))
    return w[:k], V[:, :k]


def _fft_y_inverse(stencil: np.ndarray, mass_row: np.ndarray, eps: float,
                   ny: int) -> Callable[[np.ndarray], np.ndarray]:
    """Exact solver for the y-invariant K = A + eps M with that stencil.

    An rfft along y takes K to the Hermitian positive-definite tridiagonal
    symbols K_m = sum_s C_s e^{i theta_m s}, theta_m = 2 pi m / ny, one per
    frequency; the symbols are laid end to end as one tridiagonal matrix with
    zero couplings between blocks, LDL^H-factorized once (LAPACK pttrf) and
    solved for all frequencies and right-hand sides in one pttrs call.
    """
    rows = stencil.shape[0]
    phase = np.exp(2j * np.pi * np.arange(ny // 2 + 1) / ny)[:, None]
    # diagonal: C_0 + eps m + C_1 e^{i theta} + C_{-1} e^{-i theta}, real as K is symmetric
    diag = (stencil[:, 1, 1] + eps * mass_row) + phase.real * (stencil[:, 1, 0] + stencil[:, 1, 2])
    sub = np.zeros((phase.size, rows), dtype=complex)
    sub[:, :-1] = (stencil[1:, 0, 1] + phase * stencil[1:, 0, 2]
                   + phase.conj() * stencil[1:, 0, 0])
    d, e, info = lapack.zpttrf(diag.ravel(), sub.ravel()[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(f"y-frequency symbol not positive definite (pttrf info {info})")

    def solve(x: np.ndarray) -> np.ndarray:
        X = np.fft.rfft(x.reshape(rows, ny, -1), axis=1)
        B = X.transpose(1, 0, 2).reshape(d.size, -1)
        Y, _ = lapack.zpttrs(d, e, B, lower=1)
        Y = Y.reshape(phase.size, rows, -1).transpose(1, 0, 2)
        return np.fft.irfft(Y, n=ny, axis=1).reshape(x.shape)

    return solve


def _shifted_matrix(A: sp.csr_matrix, mass: np.ndarray, eps: float) -> sp.csc_matrix:
    """K = A + eps M in CSC form, on A's own index arrays: A is bitwise
    symmetric, so its CSR arrays read as CSC are A.  Only the values are
    copied, where scipy's sum allocates nnz + n entries and then a pruned
    copy.  Every active node stores its own diagonal entry, so K is bitwise
    that sum wherever A stores no zero (a stored zero stays stored here).
    K shares A's indices: nothing may sort or prune it in place."""
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    data = A.data.copy()
    data[A.indices == rows] += eps * mass
    return sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)


def _shifted_inverse(forms: AssembledForms,
                     eps: float) -> tuple[Callable[[np.ndarray], np.ndarray], dict]:
    """A solver for K = A + eps M and how it was built: FFT in y where the
    assembly kept a y-invariant stencil, else sparse LU."""
    stencil, reason = forms.y_stencil, forms.y_reason
    if stencil is not None:
        mass_rows = forms.mass.reshape(stencil.shape[0], -1)
        solve = _fft_y_inverse(stencil, mass_rows[:, 0], eps, mass_rows.shape[1])
        return solve, {"inverse": "fft-y", "inverse_reason": reason}
    # K is symmetric, so order on A + A^T and let SuperLU prefer diagonal
    # pivots.  K is sorted and has no duplicates, so splu leaves it as it is,
    # and it is freed on return: the factor keeps no reference to it.
    K = _shifted_matrix(forms.A, forms.mass, eps)
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", panel_size=PANEL_SIZE,
                   options={"SymmetricMode": True})
    return lu.solve, {"inverse": "splu", "inverse_reason": reason, "factor_nnz": int(lu.nnz)}


def _never_applied(x: np.ndarray) -> np.ndarray:
    raise RuntimeError("shift-invert Lanczos applied A itself")


def _solve_iterative(forms: AssembledForms, k: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    mass = forms.mass
    n = forms.n_active
    # Eigenvalue-scale shift keeps the pencil positive definite without
    # drowning in roundoff; the final Rayleigh-Ritz projection removes it.
    eps = 1e-8 * float(forms.diagonal().sum()) / float(mass.sum())
    solve, stats = _shifted_inverse(forms, eps)
    applies = 0

    def apply_inverse(x):
        nonlocal applies
        applies += 1
        return solve(x)

    OPinv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    M = spla.LinearOperator((n, n), matvec=lambda x: mass * x, dtype=float)
    shape_of_A = spla.LinearOperator((n, n), matvec=_never_applied, dtype=float)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    # The basis eigsh builds when it is given no ncv (ARPACK's own default).
    ncv = min(n, max(2 * k + 1, 20))
    # Shift-invert mode applies only OPinv and M, never its first argument,
    # so it gets A's shape alone: a y-invariant form has no A until here.
    # tol=0 (machine precision) is load-bearing: single-vector Lanczos finds
    # the second member of each exactly degenerate pair (the cos/sin y-modes)
    # only through roundoff, and at a looser tolerance it can converge with
    # a partner missing while every residual passes (Lehoucq, Sorensen and
    # Yang, ARPACK Users' Guide, 1998).
    try:
        _, V = spla.eigsh(shape_of_A, k=k, M=M, sigma=0.0, which="LM", v0=v0, OPinv=OPinv,
                          maxiter=MAXITER_PER_MODE * k, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"shift-invert Lanczos converged {len(exc.eigenvalues)} of {k} modes "
            f"within {MAXITER_PER_MODE * k} iterations") from exc
    # The Ritz vectors of (K, M) span the wanted eigenspaces of (A, M);
    # projecting onto the unshifted pencil removes eps and sorts the values.
    w, V = _rayleigh_ritz(forms.A, mass, V)
    return w, V, {**stats, "opinv_applies": applies, "ncv": ncv}


def solve_smallest(forms: AssembledForms, k: int, tol: float = 1e-8,
                   seed: int = 0) -> Eigenpairs:
    """Compute the k smallest eigenpairs of (A, M).

    Args:
        forms: assembled energy and mass forms.
        k: number of eigenpairs, 1 <= k <= n_active.  k >= n_active - 1
            solves densely; any smaller k by shift-invert Lanczos.
            A zero, subnormal or non-finite trace of A is a ValueError.
        tol: admissible residual ||A v - lambda M v||_2 per pair.
        seed: seed for the iterative start vector (determinism).

    Returns Eigenpairs with ascending eigenvalues, M-orthonormal vectors and
    residuals; raises ConvergenceError if any residual exceeds tol.
    """
    n = forms.n_active
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    # A is positive semidefinite, so its trace is 0 only when A is; with a
    # subnormal or infinite trace the shift eps cannot make A + eps M regular.
    with np.errstate(over="ignore"):
        trace = float(forms.diagonal().sum())
    if not np.finfo(float).tiny <= trace < np.inf:
        raise ValueError(f"the energy form is zero or not finite (trace {trace!r}): "
                         f"the fields or the density vanish, underflow or overflow")
    if k >= n - 1:
        info: dict[str, Any] = {"path": "dense", "reason": f"k = {k} >= n_active - 1 = {n - 1}"}
        w, V = _solve_dense(forms, k)
    else:
        info = {"path": "shift-invert", "reason": f"k = {k} < n_active - 1 = {n - 1}"}
        w, V, stats = _solve_iterative(forms, k, seed)
        info.update(stats)
    res = _residuals(forms.A, forms.mass, w, V)
    if not np.all(res <= tol):
        raise ConvergenceError(f"residuals {res} exceed tol={tol}")
    gram_err = np.abs(_project(V, lambda v: forms.mass * v) - np.eye(k)).max()
    if gram_err > 1e-8:
        raise ConvergenceError(f"M-orthonormality defect {gram_err:.3e} exceeds 1e-8")
    info["gram_defect"] = float(gram_err)
    # Fix signs: the first node whose |v| is within a relative 1e-8 of max |v|
    # is positive.  The largest entry itself would let roundoff choose between
    # the two mirror nodes of a mode antisymmetric under a grid symmetry.
    for v in V.T:
        magnitude = np.abs(v)
        if v[np.argmax(magnitude >= (1.0 - 1e-8) * magnitude.max())] < 0.0:
            v *= -1.0
    return Eigenpairs(lambdas=w.copy(), vectors=V, residuals=res, info=info)


@dataclass(frozen=True)
class MinMaxReport:
    """Outcome of the variational consistency check."""

    rayleigh_errors: np.ndarray
    random_margins: np.ndarray
    ok: bool


def check_minmax(forms: AssembledForms, pairs: Eigenpairs, n_samples: int = 50,
                 tol: float = 1e-8, seed: int = 0) -> MinMaxReport:
    """Check the min-max characterization of the computed eigenpairs.

    Verifies R[v_i] = lambda_i to tolerance, and that random vectors made
    M-orthogonal to v_1..v_{i-1} never push the Rayleigh quotient below
    lambda_i (up to tol on the scale of lambda_i).
    """
    A, mass, V, lams = forms.A, forms.mass, pairs.vectors, pairs.lambdas
    k = pairs.k
    r_err = np.empty(k)
    margins = np.empty(k)
    rng = np.random.default_rng(seed)
    for i in range(k):
        v = V[:, i]
        R = float(v @ (A @ v)) / float(v @ (mass * v))
        r_err[i] = abs(R - lams[i])
        worst = np.inf
        for _ in range(n_samples):
            z = rng.standard_normal(forms.n_active)
            if i > 0:
                z = z - V[:, :i] @ (V[:, :i].T @ (mass * z))
            denom = float(z @ (mass * z))
            if denom <= 0.0:
                continue
            worst = min(worst, float(z @ (A @ z)) / denom)
        margins[i] = worst - lams[i]
    scale = np.maximum(1.0, np.abs(lams))
    ok = bool(np.all(r_err <= tol * scale) and np.all(margins >= -tol * scale))
    return MinMaxReport(rayleigh_errors=r_err, random_margins=margins, ok=ok)
