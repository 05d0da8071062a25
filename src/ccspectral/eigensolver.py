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
1965 and Buzbee-Golub-Nielson 1970); any other K gets a sparse LU.  The
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

__all__ = ["Eigenpairs", "ConvergenceError", "solve_smallest", "check_minmax", "MinMaxReport"]


# Lanczos iteration budget per requested mode.
MAXITER_PER_MODE = 50


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


def _y_stencil(forms: AssembledForms) -> tuple[np.ndarray | None, str]:
    """The y-independent stencil of A, or None and why A + eps M is not y-invariant.

    The stencil S has shape (rows, 3, 3): S[i, 1 + dx, 1 + dy] couples node
    (i, j) of the active x-rows to node (i + dx, j + dy mod ny), the same for
    every j to within 1e-14 max|A|.  It is read from the stencil the assembly
    kept; the O(1) and O(n) tests run first, so a partial boundary segment or
    a y-dependent density is rejected before any stencil row is compared.
    """
    grid = forms.grid
    ny = grid.ny
    if not grid.chart.periodic_y:
        return None, "chart not periodic in y"
    if grid.chart.periodic_x:
        return None, "chart periodic in x"
    active = forms.active_nodes
    n = active.size
    if n % ny or active[0] % ny or active[-1] - active[0] != n - 1:
        return None, "active nodes are not full y-rows"
    mass = forms.mass.reshape(-1, ny)
    if np.any(mass != mass[:, :1]):
        return None, "mass varies along y"
    S = forms.stencil[active[0] // ny:active[-1] // ny + 1]
    stencil = S[:, ny // 2]  # an interior row: the wrap row sums in another order
    deviation = S - stencil[:, None]
    if max(deviation.max(), -deviation.min()) > 1e-14 * max(S.max(), -S.min()):
        return None, "A varies along y"
    return stencil, "A + eps M is invariant under y-translation"


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


def _shifted_inverse(forms: AssembledForms,
                     eps: float) -> tuple[Callable[[np.ndarray], np.ndarray], dict]:
    """A solver for K = A + eps M and how it was built: FFT in y, else sparse LU."""
    stencil, reason = _y_stencil(forms)
    if stencil is not None:
        mass_row = forms.mass.reshape(stencil.shape[0], -1)[:, 0]
        solve = _fft_y_inverse(stencil, mass_row, eps, forms.grid.ny)
        return solve, {"inverse": "fft-y", "inverse_reason": reason}
    # K is symmetric, so order on A + A^T and let SuperLU prefer diagonal pivots.
    # It is bitwise symmetric too, so the transpose of its CSR form is K in
    # CSC form, holding the same arrays, without a copy.
    K = forms.A + sp.diags(eps * forms.mass)
    lu = spla.splu(K.T, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return lu.solve, {"inverse": "splu", "inverse_reason": reason, "factor_nnz": int(lu.nnz)}


def _solve_iterative(forms: AssembledForms, k: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    A = forms.A
    mass = forms.mass
    n = forms.n_active
    # Eigenvalue-scale shift keeps the pencil positive definite without
    # drowning in roundoff; the final Rayleigh-Ritz projection removes it.
    eps = 1e-8 * float(A.diagonal().sum()) / float(mass.sum())
    solve, stats = _shifted_inverse(forms, eps)
    applies = 0

    def apply_inverse(x):
        nonlocal applies
        applies += 1
        return solve(x)

    OPinv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    M = spla.LinearOperator((n, n), matvec=lambda x: mass * x, dtype=float)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    # The basis eigsh builds when it is given no ncv (ARPACK's own default).
    ncv = min(n, max(2 * k + 1, 20))
    # Shift-invert mode applies only OPinv and M, never its first argument.
    # tol=0 (machine precision) is load-bearing: single-vector Lanczos finds
    # the second member of each exactly degenerate pair (the cos/sin y-modes)
    # only through roundoff, and at a looser tolerance it can converge with
    # a partner missing while every residual passes (Lehoucq, Sorensen and
    # Yang, ARPACK Users' Guide, 1998).
    try:
        _, V = spla.eigsh(A, k=k, M=M, sigma=0.0, which="LM", v0=v0, OPinv=OPinv,
                          maxiter=MAXITER_PER_MODE * k, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"shift-invert Lanczos converged {len(exc.eigenvalues)} of {k} modes "
            f"within {MAXITER_PER_MODE * k} iterations") from exc
    # The Ritz vectors of (K, M) span the wanted eigenspaces of (A, M);
    # projecting onto the unshifted pencil removes eps and sorts the values.
    w, V = _rayleigh_ritz(A, mass, V)
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
        trace = float(forms.A.diagonal().sum())
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
