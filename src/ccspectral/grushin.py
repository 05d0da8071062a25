"""Separated radial modes of the Grushin cylinder by shooting.

Writing an eigenfunction as v(x) e^{i n y} reduces the cylinder problem
to the ODE v'' + (lambda - n^2 x^2) v = 0 on (0, 1) with v'(0) = 0 (the
x = 0 side carries no boundary term) and v'(1) = 0 (neumann) or
v(1) = 0 (dirichlet).  Eigenvalues are located by scanning the mismatch
at x = 1 over a lambda window with a vectorized fixed-step integrator,
then refined by bisection on an adaptive high-accuracy integration.
Every n >= 1 eigenvalue of the cylinder is a doublet (e^{+-iny}); n = 0
modes are simple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeProblem",
    "WindowExhaustedError",
    "shoot",
    "mode_zero_crossings",
    "find_eigenvalues",
    "ModeEntry",
    "ModeTable",
    "build_table",
    "CrossValidationReport",
    "cross_validate",
    "write_table_csv",
]

_BCS = ("neumann", "dirichlet")


class WindowExhaustedError(RuntimeError):
    """The lambda window ended before the requested number of roots."""

    def __init__(self, message: str, found: np.ndarray):
        super().__init__(message)
        self.found = found


@dataclass(frozen=True)
class ModeProblem:
    """One angular mode: frequency n, boundary condition at x = 0 and 1."""

    n: int
    bc: str = "neumann"
    lambda_window: tuple[float, float] = (0.0, 120.0)
    ode_tol: float = 1e-10
    scan_step: float = 0.05

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"mode frequency must be non-negative, got {self.n}")
        if self.bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}, got {self.bc!r}")
        lo, hi = self.lambda_window
        if not lo < hi:
            raise ValueError(f"empty lambda window {self.lambda_window}")
        if self.ode_tol <= 0 or self.scan_step <= 0:
            raise ValueError("ode_tol and scan_step must be positive")


def _initial_state(problem: ModeProblem) -> tuple[float, float]:
    # The x = 0 end carries the same condition as x = 1: v'(0) = 0 for
    # neumann, v(0) = 0 for dirichlet.  Unit size keeps the solution O(1).
    if problem.bc == "neumann":
        return (1.0, 0.0)
    return (0.0, 1.0)


def shoot(problem: ModeProblem, lam: float) -> float:
    """Boundary mismatch at x = 1: v'(1) for neumann, v(1) for dirichlet.

    Integrates with an adaptive embedded Runge-Kutta pair at local
    tolerance ode_tol; the mismatch is a smooth function of lambda whose
    zeros are the mode eigenvalues.
    """
    from scipy.integrate import solve_ivp  # deferred: keeps `import ccspectral` light

    n2 = float(problem.n) ** 2
    lam = float(lam)

    def rhs(x, y):
        return (y[1], (n2 * x * x - lam) * y[0])

    sol = solve_ivp(rhs, (0.0, 1.0), _initial_state(problem), method="RK45",
                    rtol=problem.ode_tol, atol=problem.ode_tol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    v, dv = sol.y[0, -1], sol.y[1, -1]
    return float(dv if problem.bc == "neumann" else v)


def mode_zero_crossings(problem: ModeProblem, lam: float, n_points: int = 2001) -> int:
    """Number of interior sign changes of v on (0, 1) at the given lambda."""
    from scipy.integrate import solve_ivp

    n2 = float(problem.n) ** 2
    lam = float(lam)

    def rhs(x, y):
        return (y[1], (n2 * x * x - lam) * y[0])

    xs = np.linspace(0.0, 1.0, n_points)
    sol = solve_ivp(rhs, (0.0, 1.0), _initial_state(problem), method="RK45",
                    rtol=problem.ode_tol, atol=problem.ode_tol * 1e-2, t_eval=xs)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    v = sol.y[0]
    signs = np.sign(v[np.abs(v) > 1e-13 * np.abs(v).max()])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _scan_mismatch(problem: ModeProblem, lams: np.ndarray, n_steps: int = 2048) -> np.ndarray:
    """Mismatch at x = 1 for a batch of lambdas, fixed-step RK4."""
    n2 = float(problem.n) ** 2
    h = 1.0 / n_steps
    v0, w0 = _initial_state(problem)
    v = np.full_like(lams, v0)
    w = np.full_like(lams, w0)

    def acc(x, vv):
        return (n2 * x * x - lams) * vv

    x = 0.0
    for _ in range(n_steps):
        k1v = w
        k1w = acc(x, v)
        k2v = w + 0.5 * h * k1w
        k2w = acc(x + 0.5 * h, v + 0.5 * h * k1v)
        k3v = w + 0.5 * h * k2w
        k3w = acc(x + 0.5 * h, v + 0.5 * h * k2v)
        k4v = w + h * k3w
        k4w = acc(x + h, v + h * k3v)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        x += h
    return w if problem.bc == "neumann" else v


def _bisect(problem: ModeProblem, a: float, fa: float, b: float, fb: float,
            tol: float) -> float:
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise RuntimeError("bisection bracket lost its sign change")
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = shoot(problem, mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def find_eigenvalues(problem: ModeProblem, count: int, tol: float = 1e-8) -> np.ndarray:
    """The first ``count`` eigenvalues of the mode, ascending.

    Scans the window in chunks for sign changes of the mismatch, confirms
    each bracket with the adaptive integrator, and bisects to |dlambda|
    <= tol.  Raises WindowExhaustedError (carrying the roots found) if the
    window ends early.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    lo, hi = problem.lambda_window
    step = problem.scan_step
    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    roots: list[float] = []
    chunk = 512
    prev_lam = None
    prev_f = None
    for start in range(0, grid.size, chunk):
        lams = grid[start:start + chunk]
        F = _scan_mismatch(problem, lams)
        if prev_lam is not None:
            lams = np.concatenate(([prev_lam], lams))
            F = np.concatenate(([prev_f], F))
        for i in range(lams.size - 1):
            if len(roots) >= count:
                break
            fa, fb = F[i], F[i + 1]
            if fa == 0.0:
                lam = float(lams[i])
                if not roots or lam > roots[-1] + tol:
                    roots.append(lam)
                continue
            if fa * fb >= 0.0:
                continue
            a, b = float(lams[i]), float(lams[i + 1])
            ga, gb = shoot(problem, a), shoot(problem, b)
            if ga == 0.0:
                roots.append(a)
                continue
            if ga * gb > 0.0:
                # near-tangent pair: rescan the cell with the accurate mismatch
                sub = np.linspace(a, b, 21)
                gs = [shoot(problem, s) for s in sub]
                placed = False
                for j in range(20):
                    if gs[j] == 0.0:
                        roots.append(float(sub[j]))
                        placed = True
                        break
                    if gs[j] * gs[j + 1] < 0.0:
                        roots.append(_bisect(problem, float(sub[j]), gs[j],
                                             float(sub[j + 1]), gs[j + 1], tol))
                        placed = True
                        break
                if not placed:
                    continue
            else:
                roots.append(_bisect(problem, a, ga, b, gb, tol))
        if len(roots) >= count:
            return np.array(roots[:count])
        prev_lam = float(lams[-1])
        prev_f = float(F[-1])
    raise WindowExhaustedError(
        f"window {problem.lambda_window} holds {len(roots)} roots, {count} requested",
        found=np.array(roots))


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
        out: list[ModeEntry] = []
        for e in self.entries:
            out.extend([e] * e.multiplicity)
        return sorted(out, key=lambda e: (e.lam, e.n, e.m))


def build_table(max_n: int, max_m: int, bc: str = "neumann",
                lambda_window: tuple[float, float] = (0.0, 120.0),
                tol: float = 1e-8) -> ModeTable:
    """Mode eigenvalue table; per-mode sequences are strictly increasing."""
    if max_n < 0 or max_m < 0:
        raise ValueError("max_n and max_m must be non-negative")
    entries = []
    for n in range(max_n + 1):
        problem = ModeProblem(n=n, bc=bc, lambda_window=lambda_window)
        roots = find_eigenvalues(problem, max_m + 1, tol=tol)
        if np.any(np.diff(roots) <= 0):
            raise RuntimeError(f"mode n={n} produced non-increasing eigenvalues {roots}")
        for m, lam in enumerate(roots):
            entries.append(ModeEntry(n=n, m=m, lam=float(lam),
                                     multiplicity=1 if n == 0 else 2))
    return ModeTable(entries=tuple(entries), bc=bc, max_n=max_n, max_m=max_m)


def write_table_csv(table: ModeTable, path) -> None:
    """CSV with header n,m,lambda,multiplicity, shortest round-trip decimals."""
    lines = ["n,m,lambda,multiplicity"]
    for e in table.entries:
        lines.append(f"{e.n},{e.m},{repr(e.lam)},{e.multiplicity}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class CrossValidationReport:
    """Pairing of 2D eigenvalues with mode-table values, with relative errors."""

    pairs: tuple[tuple[float, float, int, int, float], ...]  # (lambda_2d, lambda_mode, n, m, rel_err)
    max_rel_error: float


def cross_validate(table: ModeTable, lambdas_2d: np.ndarray) -> CrossValidationReport:
    """Match 2D eigenvalues, in order, against the multiplicity-expanded table.

    Relative errors use the mode value as reference; for the zero mode the
    absolute error is reported instead.  Raises if the table does not cover
    all 2D eigenvalues handed in.
    """
    lambdas_2d = np.asarray(getattr(lambdas_2d, "lambdas", lambdas_2d), dtype=float)
    expanded = table.expanded()
    if len(expanded) < lambdas_2d.size:
        raise ValueError(f"mode table covers {len(expanded)} eigenvalues, "
                         f"{lambdas_2d.size} requested; enlarge max_n/max_m")
    pairs = []
    worst = 0.0
    for lam2d, entry in zip(lambdas_2d, expanded):
        ref = abs(entry.lam)
        err = float(abs(lam2d - entry.lam) / (ref if ref > 1e-9 else 1.0))
        worst = max(worst, err)
        pairs.append((float(lam2d), entry.lam, entry.n, entry.m, err))
    return CrossValidationReport(pairs=tuple(pairs), max_rel_error=worst)
