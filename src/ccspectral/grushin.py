"""Separated radial modes of the Grushin cylinder by shooting.

Writing an eigenfunction as v(x) e^{i n y} reduces the cylinder problem
to the ODE v'' + (lambda - n^2 x^2) v = 0 on (0, 1), with the same
condition at both ends: v'(0) = v'(1) = 0 (neumann; the x = 0 side
carries no boundary term) or v(0) = v(1) = 0 (dirichlet).  Eigenvalues
are located by scanning the mismatch at x = 1 over a lambda grid in one
batched integration, then refined by bisection on single integrations.
Every n >= 1 eigenvalue of the cylinder is a doublet (e^{+-iny}); n = 0
modes are simple.

The scan needs no search window.  On (0, 1) the potential satisfies
0 <= n^2 x^2 <= n^2, so by the min-max principle (Courant-Hilbert,
Methods of Mathematical Physics I, ch. VI) lambda_{n,m} lies in
[((m+s) pi)^2, ((m+s) pi)^2 + n^2], with s = 0 for neumann and s = 1 for
dirichlet; the scan stops one grid step past the upper end for the last
requested m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeProblem",
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

ODE_TOL = 1e-10  # relative local tolerance of every integration; atol is 1e-2 of it
SCAN_STEP = 0.05  # spacing of the lambda grid scanned for sign changes


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


def _integrate(rhs, y0, xs: np.ndarray | None = None) -> np.ndarray:
    """Integrate y' = rhs(x, y) from x = 0 to 1 by scipy's RK45 at ODE_TOL.

    The solver is stepped directly, so no step history is kept.  Returns the
    state at x = 1, or, given ascending ``xs`` in [0, 1], the dense output
    at those points, one column each.
    """
    from scipy.integrate import RK45  # deferred: keeps `import ccspectral` light

    solver = RK45(rhs, 0.0, y0, 1.0, rtol=ODE_TOL, atol=ODE_TOL * 1e-2)
    columns, done = [], 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"mode integration failed: {message}")
        if xs is not None:
            upto = np.searchsorted(xs, solver.t, side="right")
            if upto > done:
                columns.append(solver.dense_output()(xs[done:upto]))
                done = upto
    return solver.y if xs is None else np.hstack(columns)


def _mode(problem: ModeProblem, lam: float, xs: np.ndarray | None = None) -> np.ndarray:
    """(v, v') of the mode at one lambda: at x = 1, or at the points ``xs``."""
    n2 = float(problem.n) ** 2
    lam = float(lam)

    def rhs(x, y):
        return (y[1], (n2 * x * x - lam) * y[0])

    return _integrate(rhs, _INITIAL_STATE[problem.bc], xs)


def shoot(problem: ModeProblem, lam: float) -> float:
    """Boundary mismatch at x = 1: v'(1) for neumann, v(1) for dirichlet.

    Integrates with an adaptive embedded Runge-Kutta pair at local
    tolerance ODE_TOL; the mismatch is a smooth function of lambda whose
    zeros are the mode eigenvalues.
    """
    v, dv = _mode(problem, lam)
    return float(dv if problem.bc == "neumann" else v)


def mode_zero_crossings(problem: ModeProblem, lam: float, n_points: int = 2001) -> int:
    """Number of interior sign changes of v on (0, 1) at the given lambda."""
    v = _mode(problem, lam, np.linspace(0.0, 1.0, n_points))[0]
    signs = np.sign(v[np.abs(v) > 1e-13 * np.abs(v).max()])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _scan(problem: ModeProblem, lams: np.ndarray) -> np.ndarray:
    """The mismatch at x = 1 for every lambda in ``lams``, integrated as one
    system [v..., v'...]."""
    n2 = float(problem.n) ** 2
    size = lams.size

    def rhs(x, y):
        return np.concatenate((y[size:], (n2 * x * x - lams) * y[:size]))

    end = _integrate(rhs, np.repeat(_INITIAL_STATE[problem.bc], size))
    return end[size:] if problem.bc == "neumann" else end[:size]


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

    Scans the grid k * SCAN_STEP up to the min-max bound of the last
    requested eigenvalue (module docstring) for sign changes of the
    mismatch, confirms each bracket with ``shoot``, and bisects to
    |dlambda| <= tol.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    shift = 0 if problem.bc == "neumann" else 1
    bound = ((count - 1 + shift) * np.pi) ** 2 + problem.n ** 2
    lams = SCAN_STEP * np.arange(int(bound / SCAN_STEP) + 2)
    F = _scan(problem, lams)
    roots: list[float] = []
    for i in range(lams.size - 1):
        if len(roots) >= count:
            break
        a, b = float(lams[i]), float(lams[i + 1])
        if F[i] == 0.0:
            if not roots or a > roots[-1] + tol:
                roots.append(a)
            continue
        if F[i] * F[i + 1] >= 0.0:
            continue
        ga, gb = shoot(problem, a), shoot(problem, b)
        if ga * gb > 0.0:
            # near-tangent pair: rescan the cell with the accurate mismatch
            # and bisect its first sub-cell that holds a zero
            sub = np.linspace(a, b, 21)
            gs = [shoot(problem, s) for s in sub]
            hits = [j for j in range(20) if gs[j] == 0.0 or gs[j] * gs[j + 1] < 0.0]
            if not hits:
                continue
            j = hits[0]
            a, ga, b, gb = float(sub[j]), gs[j], float(sub[j + 1]), gs[j + 1]
        # _bisect returns a bracket end where the mismatch is exactly zero
        roots.append(_bisect(problem, a, ga, b, gb, tol))
    if len(roots) < count:
        raise RuntimeError(f"mode n={problem.n} has {len(roots)} eigenvalues below "
                           f"its min-max bound {bound:.9g}, {count} expected")
    return np.array(roots[:count])


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
                tol: float = 1e-8) -> ModeTable:
    """Mode eigenvalue table; per-mode sequences are strictly increasing."""
    if max_n < 0 or max_m < 0:
        raise ValueError("max_n and max_m must be non-negative")
    entries = []
    for n in range(max_n + 1):
        problem = ModeProblem(n=n, bc=bc)
        roots = find_eigenvalues(problem, max_m + 1, tol=tol)
        if np.any(np.diff(roots) <= 0):
            raise RuntimeError(f"mode n={n} produced non-increasing eigenvalues {roots}")
        for m, lam in enumerate(roots):
            entries.append(ModeEntry(n=n, m=m, lam=float(lam),
                                     multiplicity=1 if n == 0 else 2))
    return ModeTable(entries=tuple(entries), bc=bc, max_n=max_n, max_m=max_m)


def write_table_csv(table: ModeTable, path, errors=None) -> None:
    """CSV with header n,m,lambda,multiplicity, shortest round-trip decimals.

    ``errors`` maps (n, m) to the relative error of a 2D cross-check and adds
    a rel_error_2d column, left empty for the modes it does not cover.
    """
    lines = ["n,m,lambda,multiplicity" + ("" if errors is None else ",rel_error_2d")]
    for e in table.entries:
        row = f"{e.n},{e.m},{repr(e.lam)},{e.multiplicity}"
        if errors is not None:
            err = errors.get((e.n, e.m))
            row += "," + ("" if err is None else repr(float(err)))
        lines.append(row)
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
