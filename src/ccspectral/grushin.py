"""Separated radial modes of the Grushin cylinder by shooting.

Writing an eigenfunction as v(x) e^{i n y} reduces the cylinder problem
to the ODE v'' + (lambda - n^2 x^2) v = 0 on (0, 1), with the same
condition at both ends: v'(0) = v'(1) = 0 (neumann; the x = 0 side
carries no boundary term) or v(0) = v(1) = 0 (dirichlet).  Eigenvalues
are located by scanning the mismatch at x = 1 over a lambda grid in one
batched integration, then refined on single integrations in two phases:
Illinois steps narrow each sign change, and plain bisection is replayed
with only the midpoints inside the narrowed bracket integrated, so the
digits are those of plain bisection from about a quarter of the work.
Every n >= 1 eigenvalue of the cylinder is a doublet (e^{+-iny}); n = 0
modes are simple.  The table is computed here and written by ``cli``.

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


def _integrate(rhs, y0) -> np.ndarray:
    """The state at x = 1 of y' = rhs(x, y), y(0) = y0, by scipy's RK45 at
    ODE_TOL.  The solver is stepped directly, so no step history is kept."""
    from scipy.integrate import RK45  # deferred: keeps `import ccspectral` light

    solver = RK45(rhs, 0.0, y0, 1.0, rtol=ODE_TOL, atol=ODE_TOL * 1e-2)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"mode integration failed: {message}")
    return solver.y


def shoot(problem: ModeProblem, lam: float) -> float:
    """Boundary mismatch at x = 1: v'(1) for neumann, v(1) for dirichlet.

    Integrates with an adaptive embedded Runge-Kutta pair at local
    tolerance ODE_TOL; the mismatch is a smooth function of lambda whose
    zeros are the mode eigenvalues.
    """
    n2 = float(problem.n) ** 2
    lam = float(lam)

    def rhs(x, y):
        return (y[1], (n2 * x * x - lam) * y[0])

    v, dv = _integrate(rhs, _INITIAL_STATE[problem.bc])
    return float(dv if problem.bc == "neumann" else v)


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
    """Plain bisection of the sign-change bracket [a, b] to width tol, in
    two phases: narrow, then replay.

    Narrow: Illinois steps (regula falsi that halves the weight of an end
    kept twice; Dowell and Jarratt, BIT 11, 1971), each at least tol / 2
    inside the bracket, shrink a sign-change bracket [lo, hi] inside
    [a, b] to width tol.  Replay: the bisection loop runs unchanged, but a
    midpoint below lo takes the side of a and one above hi the side of b
    without an integration; only midpoints in [lo, hi] call ``shoot``.
    The result carries the digits of plain bisection whenever the mismatch
    keeps the sign of fa on [a, lo] and that of fb on [hi, b], as it does
    with one simple root in the cell and tol above the integration noise
    near the root (at ODE_TOL a tol of 1e-14 can move the last bits).
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise RuntimeError("bisection bracket lost its sign change")
    # narrow; wlo and whi are the Illinois weights, kept the end kept last
    lo, hi, wlo, whi, kept = a, b, fa, fb, 0
    while hi - lo > tol:
        if not lo < 0.5 * (lo + hi) < hi:  # adjacent doubles, as below
            break
        x = min(max(lo - wlo * (hi - lo) / (whi - wlo), lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = shoot(problem, x)
        if fx == 0.0:
            lo = hi = x
            break
        if fa * fx > 0.0:
            lo, wlo, whi, kept = x, fx, whi * (0.5 if kept < 0 else 1.0), -1
        else:
            hi, whi, wlo, kept = x, fx, wlo * (0.5 if kept > 0 else 1.0), 1
    # replay
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent doubles: tol is below their spacing
            break
        fm = fa if mid < lo else fb if mid > hi else shoot(problem, mid)
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
    mismatch, confirms each bracket with ``shoot`` (or moves it to the
    neighbouring cell that holds the root), and bisects to |dlambda| <= tol.
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
            # shoot contradicts the scan sample at a or b, which is then within
            # integration noise of a root just outside the cell (one mode's
            # roots are many cells apart): bisect the neighbouring cell there
            j = i - 1 if ga * F[i] < 0.0 else i + 1
            a, b = SCAN_STEP * j, SCAN_STEP * (j + 1)
            ga, gb = shoot(problem, a), shoot(problem, b)
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
            raise RuntimeError(f"mode n={n} produced non-increasing eigenvalues {roots}")
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
