"""Separated radial modes of the Grushin cylinder.

Writing an eigenfunction as v(x) e^{i n y} reduces the cylinder problem
to the ODE v'' + (lambda - n^2 x^2) v = 0 on (0, 1), with the same
condition at both ends: v'(0) = v'(1) = 0 (neumann; the x = 0 side
carries no boundary term) or v(0) = v(1) = 0 (dirichlet).  Chebyshev
collocation (Trefethen, Spectral Methods in MATLAB, 2000) places the
lowest roots of a mode in one dense eigensolve and gives their digits:
the plain bisection of the grid cell that holds each root.  The shooting
mismatch ``shoot`` confirms each root by a sign change close to it.
Every n >= 1 eigenvalue of the cylinder is a doublet (e^{+-iny}); n = 0
modes are simple.  The table is computed here and written by ``cli``.

On (0, 1) the potential satisfies 0 <= n^2 x^2 <= n^2, so by the min-max
principle (Courant-Hilbert, Methods of Mathematical Physics I, ch. VI)
lambda_{n,m} lies in [((m+s) pi)^2, ((m+s) pi)^2 + n^2], with s = 0 for
neumann and s = 1 for dirichlet.  That interval, padded by one grid cell
for the integration noise in the sign of ``shoot`` (it has zero width at
n = 0), bounds the confirmation of each root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvergenceError

_BCS = ("neumann", "dirichlet")

ODE_TOL = 1e-10  # relative local tolerance of every integration; atol is 1e-2 of it
SCAN_STEP = 0.05  # width of the lambda grid cells whose plain bisection gives each root

# The most roots of one mode.  Its collocation matrices have 2047 rows at
# 1000 roots: 0.9 s and 166 MB of peak RSS on a 2-vCPU VM.  A larger count
# is refused before anything of its size is allocated.
_MAX_COUNT = 1000
_LOW_COUNT = 64  # past this many roots, the lowest come from a grid sized for them alone


@dataclass(frozen=True)
class ModeProblem:
    """One angular mode: frequency n, boundary condition at x = 0 and 1."""

    n: int
    bc: str = "neumann"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"mode frequency must be non-negative, got {self.n}")
        if self.bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}, got {self.bc!r}")


# (v, v') at x = 0, which carries the same condition as x = 1: v'(0) = 0
# for neumann, v(0) = 0 for dirichlet.  Unit size keeps the solution O(1).
_INITIAL_STATE = {"neumann": (1.0, 0.0), "dirichlet": (0.0, 1.0)}


def shoot(problem: ModeProblem, lam: float) -> float:
    """Boundary mismatch at x = 1: v'(1) for neumann, v(1) for dirichlet.

    Integrates with scipy's RK45 pair at local tolerance ODE_TOL, stepped
    directly so that no step history is kept.  The mismatch is a smooth
    function of lambda whose zeros are the mode eigenvalues.
    """
    from scipy.integrate import RK45  # deferred: keeps `import ccspectral` light

    n2 = float(problem.n) ** 2
    lam = float(lam)

    def rhs(x, y):
        return (y[1], (n2 * x * x - lam) * y[0])

    solver = RK45(rhs, 0.0, _INITIAL_STATE[problem.bc], 1.0, rtol=ODE_TOL, atol=ODE_TOL * 1e-2)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ConvergenceError(f"mode integration failed: {message}")
    v, dv = solver.y
    return float(dv if problem.bc == "neumann" else v)


def _collocation_roots(problem: ModeProblem, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of -v'' + n^2 x^2 v on the N + 1
    Chebyshev points of [0, 1] (``cheb.m`` mapped by x = (1 + t) / 2),
    ascending.  Dirichlet deletes the end rows and columns; neumann
    eliminates the end values through the rows v'(0) = v'(1) = 0."""
    # About the lowest N / 2 roots are accurate.  Below lambda = n^2 the
    # modes crowd towards x = 0, and the points that the first `count` of
    # them need to 1e-9 relative grow like 3 sqrt(n) + (n count^3)^(1/4)
    # (measured for n <= 1001, count <= 200; the factor 1.3 is the margin)
    N = max(2 * count + 46,
            3 * math.ceil(math.sqrt(problem.n)) + math.ceil(1.3 * (problem.n * count ** 3) ** 0.25))
    t = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.where(np.arange(N + 1) % 2, -1.0, 1.0)
    c[[0, N]] *= 2.0
    D = np.outer(c, 1.0 / c) / (t[:, None] - t + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    D *= 2.0  # d/dx = 2 d/dt
    A = -D @ D
    A[np.diag_indices(N + 1)] += float(problem.n) ** 2 * (0.5 * (1.0 + t)) ** 2
    ends, inner = [0, N], slice(1, N)
    K = A[inner, inner]
    if problem.bc == "neumann":
        K = K - A[inner, ends] @ np.linalg.solve(D[np.ix_(ends, ends)], D[ends, inner])
    roots = np.sort(np.linalg.eigvals(K).real)[:count]
    if count > _LOW_COUNT:  # rounding grows like N^3: 3e-8 on the low roots at N = 2046
        roots[:_LOW_COUNT] = _collocation_roots(problem, _LOW_COUNT)
    return roots


def _cell(lam: float) -> int:
    """The k with SCAN_STEP * k <= lam < SCAN_STEP * (k + 1)."""
    k = math.floor(lam / SCAN_STEP)  # the quotient may round across a grid point
    return k - (SCAN_STEP * k > lam) + (SCAN_STEP * (k + 1) <= lam)


def _quantize(problem: ModeProblem, r: float, tol: float) -> float:
    """The digits of root r: plain bisection, to width tol, of the SCAN_STEP
    grid cell that holds r, each side decided by where r lies.  The n = 0
    neumann ground state is the constant mode, whose eigenvalue is 0.0."""
    if problem == ModeProblem(n=0) and r < SCAN_STEP:
        return 0.0
    k = _cell(r)
    a, b = SCAN_STEP * k, SCAN_STEP * (k + 1)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent doubles: tol is below their spacing
            break
        if mid < r:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _confirm(problem: ModeProblem, m: int, r: float, tol: float) -> None:
    """Check that a root of the mismatch lies close to the collocation
    value r of root m: ``shoot`` changes sign on [r - h, r + h], clipped to
    the root's padded min-max interval (module docstring), with
    h = min(max(tol / 4, 4 ulps of r), SCAN_STEP / 4) widened 16-fold up
    to the cap max(tol, 1e-8 max(1, |r|)), the shooting's accuracy, which
    it tries last.  A root that no such bracket confirms is a ConvergenceError."""
    least = ((m + (0 if problem.bc == "neumann" else 1)) * math.pi) ** 2
    low, high = least - SCAN_STEP, least + problem.n ** 2 + SCAN_STEP
    h = min(max(0.25 * tol, 4.0 * math.ulp(r)), 0.25 * SCAN_STEP)
    cap = max(tol, 1e-8 * max(1.0, abs(r)))  # h starts at or below it
    while True:
        lo, hi = max(r - h, low), min(r + h, high)
        if not lo < hi:  # r lies outside [low, high]
            break
        if shoot(problem, lo) * shoot(problem, hi) <= 0.0:
            return
        if h == cap:
            break
        h = min(16.0 * h, cap)
    raise ConvergenceError(f"mode n={problem.n} ({problem.bc}): no sign change of the mismatch "
                           f"within {cap:.3g} of {r!r} confirms root m={m} within {SCAN_STEP} "
                           f"of its min-max interval [{least:.9g}, {least + problem.n ** 2:.9g}]")


def find_eigenvalues(problem: ModeProblem, count: int, tol: float = 1e-8) -> np.ndarray:
    """The first ``count`` eigenvalues of the mode, ascending, each to
    |dlambda| <= tol above the collocation error (under 1e-10 max(1, lambda)
    for n <= 1001, count <= _MAX_COUNT): collocation places each root and
    gives its digits (``_quantize``), once ``_confirm`` has checked every
    root by shooting."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > _MAX_COUNT:  # the count itself is not echoed: it may be huge
        raise ValueError(f"at most {_MAX_COUNT} eigenvalues per mode, m < {_MAX_COUNT}")
    roots = _collocation_roots(problem, count).tolist()
    for m, r in enumerate(roots):
        _confirm(problem, m, r, tol)
    return np.array([_quantize(problem, r, tol) for r in roots])


@dataclass(frozen=True)
class ModeEntry:
    n: int
    m: int
    lam: float
    multiplicity: int


@dataclass(frozen=True)
class ModeTable:
    """Eigenvalues lambda_{n,m} for n = 0..max_n, m = 0..max_m."""

    entries: tuple[ModeEntry, ...]
    bc: str
    max_n: int
    max_m: int

    def lam(self, n: int, m: int) -> float:
        for e in self.entries:
            if e.n == n and e.m == m:
                return e.lam
        raise KeyError(f"no entry (n={n}, m={m})")

    def expanded(self) -> list[ModeEntry]:
        """Entries repeated by multiplicity, ascending in lambda."""
        return sorted((e for e in self.entries for _ in range(e.multiplicity)),
                      key=lambda e: (e.lam, e.n, e.m))


def build_table(max_n: int, max_m: int, bc: str = "neumann",
                tol: float = 1e-8) -> ModeTable:
    """Mode eigenvalue table; per-mode sequences are strictly increasing."""
    if max_n < 0 or max_m < 0:
        raise ValueError("max_n and max_m must be non-negative")
    entries = []
    for n in range(max_n + 1):
        problem = ModeProblem(n=n, bc=bc)
        roots = find_eigenvalues(problem, max_m + 1, tol=tol)
        if np.any(np.diff(roots) <= 0):
            raise ConvergenceError(f"mode n={n} produced non-increasing eigenvalues {roots}")
        for m, lam in enumerate(roots):
            entries.append(ModeEntry(n=n, m=m, lam=float(lam),
                                     multiplicity=1 if n == 0 else 2))
    return ModeTable(entries=tuple(entries), bc=bc, max_n=max_n, max_m=max_m)


def complete_below(table: ModeTable, tol: float = 1e-8) -> float:
    """Largest lambda below which the expanded table lists every eigenvalue.

    Each listed mode n covers its spectrum up to its last entry, and modes
    beyond max_n only contribute above the first eigenvalue of mode
    max_n + 1 (the lowest eigenvalue grows with the angular frequency),
    which is found to ``tol``.
    """
    per_mode_last = min(max(e.lam for e in table.entries if e.n == n)
                        for n in range(table.max_n + 1))
    next_first = find_eigenvalues(ModeProblem(n=table.max_n + 1, bc=table.bc), 1, tol=tol)[0]
    return min(per_mode_last, float(next_first))


def cross_validate(table: ModeTable, lambdas_2d: np.ndarray) -> dict[tuple[int, int], float]:
    """The largest relative error per mode (n, m) of the 2D eigenvalues,
    matched in order against the multiplicity-expanded table.

    Errors are relative to the mode value, absolute for the zero mode.
    Raises if the table does not cover all 2D eigenvalues handed in.
    """
    lambdas_2d = np.asarray(lambdas_2d, dtype=float)
    expanded = table.expanded()
    if len(expanded) < lambdas_2d.size:
        raise ValueError(f"mode table covers {len(expanded)} eigenvalues, "
                         f"{lambdas_2d.size} requested; enlarge max_n/max_m")
    errors: dict[tuple[int, int], float] = {}
    for lam2d, e in zip(lambdas_2d, expanded):
        ref = abs(e.lam)
        err = float(abs(lam2d - e.lam) / (ref if ref > 1e-9 else 1.0))
        errors[e.n, e.m] = max(errors.get((e.n, e.m), 0.0), err)
    return errors
