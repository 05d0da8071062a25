"""Separated angular modes of the Grushin cylinder: shooting and tables."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ccspectral as cc
from ccspectral import grushin
import primitive_oracle as oracle
from primitive_oracle import mode_zero_crossings

# reference low Neumann eigenvalues lambda_{n,m} with matching tolerances
NEUMANN_REFERENCE = {
    (0, 0): (0.0, 1e-9),
    (0, 1): (np.pi**2, 5e-3),
    (0, 2): (4.0 * np.pi**2, 5e-3),
    (1, 0): (0.325, 5e-3),
    (1, 1): (10.26, 1e-2),
    (1, 2): (39.825, 1e-2),
    (2, 0): (1.203, 5e-3),
    (2, 1): (11.504, 1e-2),
    (2, 2): (40.877, 1e-2),
}


@pytest.fixture(scope="module")
def neumann_table():
    return cc.build_table(2, 2, bc="neumann")


def test_neumann_table_matches_reference(neumann_table):
    for (n, m), (ref, atol) in NEUMANN_REFERENCE.items():
        assert neumann_table.lam(n, m) == pytest.approx(ref, abs=atol), (n, m)


def test_zero_mode_is_exactly_flat_laplacian(neumann_table):
    # n = 0 decouples from the y direction: lambda = (m pi)^2
    for m in range(3):
        assert neumann_table.lam(0, m) == pytest.approx((m * np.pi) ** 2, abs=1e-7)


def test_dirichlet_zero_mode():
    lams = cc.find_eigenvalues(cc.ModeProblem(n=0, bc="dirichlet"), 3)
    assert np.allclose(lams, [np.pi**2, 4.0 * np.pi**2, 9.0 * np.pi**2], atol=1e-6)


def test_eigenvalues_increase_with_frequency(neumann_table):
    for m in range(3):
        col = [neumann_table.lam(n, m) for n in range(3)]
        assert col[0] < col[1] < col[2]


def test_multiplicities(neumann_table):
    for e in neumann_table.entries:
        assert e.multiplicity == (1 if e.n == 0 else 2)


def test_expanded_is_sorted_with_doublets(neumann_table):
    expanded = neumann_table.expanded()
    lams = [e.lam for e in expanded]
    assert lams == sorted(lams)
    assert len(expanded) == 3 * 1 + 2 * 3 * 2
    # the two smallest nonzero entries are the n=1 doublet
    assert expanded[1].n == 1 and expanded[2].n == 1
    assert expanded[1].lam == expanded[2].lam


def test_sturm_oscillation_counts():
    # the m-th eigenfunction has exactly m interior zeros
    problem = cc.ModeProblem(n=1, bc="neumann")
    lams = cc.find_eigenvalues(problem, 4)
    for m, lam in enumerate(lams):
        assert mode_zero_crossings(problem, lam) == m


def test_shoot_changes_sign_across_eigenvalue():
    problem = cc.ModeProblem(n=1, bc="neumann")
    lam = cc.find_eigenvalues(problem, 1)[0]
    assert cc.shoot(problem, lam - 0.01) * cc.shoot(problem, lam + 0.01) < 0.0
    assert abs(cc.shoot(problem, lam)) <= 1e-6


def test_tolerance_tightens_roots():
    problem = cc.ModeProblem(n=1, bc="neumann")
    loose = cc.find_eigenvalues(problem, 1, tol=1e-4)[0]
    tight = cc.find_eigenvalues(problem, 1, tol=1e-10)[0]
    assert abs(loose - tight) <= 2e-4
    assert abs(cc.shoot(problem, tight)) <= abs(cc.shoot(problem, loose)) + 1e-12


def count_shoot_calls(monkeypatch, budget):
    """Patch ``grushin.shoot`` to count its calls; a call past ``budget``
    fails the test at once, so a root finder that never stops cannot hang."""
    calls, shoot = [], grushin.shoot

    def counted(problem, lam):
        calls.append(lam)
        assert len(calls) <= budget, f"more than {budget} shoot calls"
        return shoot(problem, lam)

    monkeypatch.setattr(grushin, "shoot", counted)
    return calls


def test_tolerance_below_the_double_spacing_terminates(monkeypatch):
    # Doubles near pi^2 are 1.8e-15 apart, so no bracket gets as narrow as
    # 1e-17: the bisection stops once its bracket ends are adjacent doubles.
    tight = cc.build_table(0, 1, tol=1e-17)
    default = cc.build_table(0, 1)
    assert [(e.n, e.m) for e in tight.entries] == [(e.n, e.m) for e in default.entries]
    for a, b in zip(tight.entries, default.entries):
        assert a.lam == pytest.approx(b.lam, abs=1e-8)
    # Dirichlet doublets, with a call budget: plain bisection of the cells
    # integrates 92 times here, the scan with Illinois narrowing that
    # collocation replaced 61 times, and a bisection replayed with shoot
    # deciding its signs 47 times.  A confirmation bracket of tol / 4 is
    # below one double's spacing here; it starts at 4 of them instead and
    # widens 16-fold to the integration noise: 16 integrations.
    problem = cc.ModeProblem(n=2, bc="dirichlet")
    default = cc.find_eigenvalues(problem, 2)
    calls = count_shoot_calls(monkeypatch, budget=16)
    tight = cc.find_eigenvalues(problem, 2, tol=1e-17)
    assert calls
    assert np.allclose(tight, default, rtol=0.0, atol=1e-8)


def test_dirichlet_table_shoot_budget(monkeypatch):
    # The benchmark's Dirichlet table job: plain bisection integrates 250
    # times, the scan with Illinois narrowing 64 times, a bracket around
    # each collocation root with shoot deciding the replayed bisection 28
    # times, and the bracket alone 20 times, 2 for each of the 10 roots.
    calls = count_shoot_calls(monkeypatch, budget=20)
    cc.complete_below(cc.build_table(2, 2, "dirichlet"))
    assert len(calls) == 20


def test_one_root_of_a_high_frequency_costs_no_more_than_its_own_bracket(monkeypatch):
    # The scan that collocation replaced integrated every grid lambda up to
    # the min-max bound n^2 at once: n = 80 took 8.6 s at 117 MB.
    count_shoot_calls(monkeypatch, budget=2)
    tracemalloc.start()
    try:
        (lam,) = cc.find_eigenvalues(cc.ModeProblem(n=80), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    assert lam == pytest.approx(80.0, rel=1e-3)  # the half-line oscillator's n


def test_three_roots_at_n_800_take_at_most_10_integrations(monkeypatch):
    # Collocation on 3 ceil(sqrt(800)) + ceil(1.3 (800 * 27)^(1/4)) = 103
    # points, not the 2 * 3 + 46 = 52 that three roots get at low n,
    # resolves the mode's e^{-n x^2 / 2} decay: its roots lie within 1e-9
    # relative of those on over twice the points (64 roots take 244).  On
    # 52 points they were 5e-5 off, and a bisection replayed with shoot
    # deciding its signs made 86 integrations; now the confirming brackets
    # alone make at most 10.
    problem = cc.ModeProblem(n=800)
    calls = count_shoot_calls(monkeypatch, budget=10)
    lams = cc.find_eigenvalues(problem, 3)
    assert len(calls) <= 10
    fine = grushin._collocation_roots(problem, 64)[:3]
    assert np.all(np.abs(lams - fine) <= 1e-9 * fine)
    assert lams == pytest.approx([800.0, 4000.0, 7200.0], rel=1e-9)  # n (4m + 1)


@pytest.mark.parametrize("n", [400, 1001])
@pytest.mark.parametrize("bc, s", [("neumann", 0), ("dirichlet", 1)])
def test_high_frequency_roots_are_the_half_line_oscillator(n, bc, s):
    # Below lambda = n^2 / 2 a mode is a Hermite function, negligible at
    # x = 1, so lambda_{n,m} = n (4m + 1 + 2s) to rounding.  On 3 ceil(sqrt(n))
    # or 2 count + 46 points, whichever is more, root 59 of n = 1000 was 3%
    # off; mode 1001 is the one that complete_below solves past max_n = 1000.
    count = n // 10
    roots = grushin._collocation_roots(cc.ModeProblem(n=n, bc=bc), count)
    assert roots == pytest.approx(n * (4 * np.arange(count) + 1 + 2 * s), rel=1e-10)


@pytest.mark.parametrize("bc, s", [("neumann", 0), ("dirichlet", 1)])
def test_the_most_roots_of_a_mode_are_placed_to_their_exact_values(bc, s):
    # The n = 0 roots are ((m + s) pi)^2.  The rounding of the 2047-row grid
    # that _MAX_COUNT roots take, about eps N^3, put the lowest up to 3e-8
    # off, past the 1e-8 cap that confirms the neumann ground state; the
    # lowest _LOW_COUNT roots come from a grid sized for them alone.
    problem = cc.ModeProblem(n=0, bc=bc)
    roots = grushin._collocation_roots(problem, grushin._MAX_COUNT)
    exact = ((np.arange(grushin._MAX_COUNT) + s) * np.pi) ** 2
    assert np.all(np.abs(roots - exact) <= 1e-10 * np.maximum(1.0, exact))
    for m in range(3):
        for tol in (1e-8, 1e-12):
            grushin._confirm(problem, m, float(roots[m]), tol)


def moved_roots(monkeypatch, move):
    """Patch the collocation roots of every mode to ``move(m, root)``."""
    roots = grushin._collocation_roots

    def moved(problem, count):
        return np.array([move(m, r) for m, r in enumerate(roots(problem, count))])

    monkeypatch.setattr(grushin, "_collocation_roots", moved)


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("n, bc", [(0, "neumann"), (1, "neumann"), (0, "dirichlet"),
                                   (2, "dirichlet")])
def test_collocation_root_moved_onto_a_grid_point_is_an_error(monkeypatch, n, bc, side):
    # Collocation gives the digits, so a root moved onto the grid point just
    # below or above it, 0.01-0.05 off, must not become one: at tol 1e-7 a
    # bracket of half-width 2.5e-8 is tried, then one at the cap
    # max(tol, 1e-8 max(1, |r|)) <= 4e-7.  Each root confirmed before the
    # first moved one (only 0 of n = 0 neumann, a grid point itself) costs
    # 2 integrations.
    problem = cc.ModeProblem(n=n, bc=bc)
    step = grushin.SCAN_STEP
    roots = grushin._collocation_roots(problem, 3)
    moved = step * (np.floor(roots / step) + (side == "above"))
    m = int(np.flatnonzero(np.abs(moved - roots) > 1e-7)[0])
    moved_roots(monkeypatch, lambda k, r: step * (np.floor(r / step) + (side == "above")))
    calls = count_shoot_calls(monkeypatch, budget=2 * m + 4)
    with pytest.raises(cc.ConvergenceError, match=rf"^mode n={n} \({bc}\): .* root m={m} "):
        cc.find_eigenvalues(problem, 3, tol=1e-7)
    assert len(calls) == 2 * m + 4


@pytest.mark.parametrize("n, bc", [(0, "neumann"), (1, "neumann"), (3, "dirichlet")])
def test_collocation_root_outside_its_min_max_interval_is_an_error(monkeypatch, n, bc):
    # lambda_{n,m} lies in [((m+s) pi)^2, ((m+s) pi)^2 + n^2]; the bracket
    # may reach one grid cell past it, so a root 0.2 above it is refused
    # before any integration
    moved_roots(monkeypatch, lambda m, r: r + n ** 2 + 0.2)
    count_shoot_calls(monkeypatch, budget=0)
    with pytest.raises(cc.ConvergenceError,
                       match=f"mode n={n} .*root m=0 within 0.05 of its min-max"):
        cc.find_eigenvalues(cc.ModeProblem(n=n, bc=bc), 3)


@pytest.mark.parametrize("n, bc, m", [(0, "neumann", 0), (1, "neumann", 0),
                                      (2, "dirichlet", 1), (12, "neumann", 1)])
def test_a_collocation_root_off_by_1e_6_is_an_error(monkeypatch, n, bc, m):
    # Root m, moved 1e-6 up, lies farther from the mismatch's root than the
    # confirmation may widen: max(tol, 1e-8 max(1, |r|)) is below 1e-6 for
    # every root here.  Each root below it is confirmed by one bracket of
    # half-width tol / 4; around root m brackets of 2.5e-9, 4e-8 and the
    # cap are tried, fewer where the cap comes first, 2 integrations each,
    # and no digits are returned.
    moved_roots(monkeypatch, lambda k, r: r + 1e-6 * (k == m))
    calls = count_shoot_calls(monkeypatch, budget=2 * m + 6)
    with pytest.raises(cc.ConvergenceError, match=rf"^mode n={n} \({bc}\): .* root m={m} "):
        cc.find_eigenvalues(cc.ModeProblem(n=n, bc=bc), m + 2)
    assert len(calls) >= 2 * m + 2


def test_a_mismatch_without_sign_change_stops_at_the_cap(monkeypatch):
    # No bracket confirms root m = 0 of n = 1 (0.325): one of half-width
    # tol / 4 = 2.5e-9 is tried, and the next, 4e-8, passes the cap
    # max(tol, 1e-8 max(1, |r|)) = 1e-8, so the cap is tried in its place.
    calls = []

    def constant(problem, lam):
        calls.append(lam)
        return 1.0

    monkeypatch.setattr(grushin, "shoot", constant)
    with pytest.raises(cc.ConvergenceError,
                       match=r"^mode n=1 \(neumann\): .* within 1e-08 of .* root m=0 .*\[0, 1\]$"):
        cc.find_eigenvalues(cc.ModeProblem(n=1), 2)
    assert len(calls) == 4
    r = grushin._collocation_roots(cc.ModeProblem(n=1), 2)[0]
    assert max(abs(lam - r) for lam in calls) == pytest.approx(1e-8, rel=1e-6)


def test_a_failed_integration_is_a_convergence_error():
    # at n = 3000 the solution overflows long before x = 1, and RK45 stops
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cc.ConvergenceError, match="^mode integration failed: "):
            cc.shoot(cc.ModeProblem(n=3000), 3000.0)


def test_non_increasing_roots_are_a_convergence_error(monkeypatch):
    # both roots of mode 4 moved to 12, inside the min-max intervals of
    # m = 0 and m = 1 there, and each confirmed by a mismatch that is zero
    roots = grushin._collocation_roots
    monkeypatch.setattr(grushin, "_collocation_roots", lambda problem, count: (
        np.full(count, 12.0) if problem.n == 4 else roots(problem, count)))
    monkeypatch.setattr(grushin, "shoot", lambda problem, lam: 0.0)
    with pytest.raises(cc.ConvergenceError, match=r"^mode n=4 produced non-increasing"):
        cc.build_table(4, 1)


def test_cell_of_every_grid_point_and_its_neighbours():
    grid = grushin.SCAN_STEP * np.arange(400)
    for lam in np.concatenate([grid[1:-1], np.nextafter(grid[1:-1], 0.0),
                               np.nextafter(grid[1:-1], np.inf)]):
        assert grushin._cell(float(lam)) == np.searchsorted(grid, lam, side="right") - 1


def plain_bisection(r, tol):
    """The oracle's plain bisection, to width tol, of the grid cell that
    holds r, for a mismatch whose sign changes at r."""
    grid = grushin.SCAN_STEP * np.arange(200)
    k = np.searchsorted(grid, r, side="right") - 1
    step = lambda problem, lam: -1.0 if lam < r else 1.0  # noqa: E731
    return oracle._bisect(None, float(grid[k]), -1.0, float(grid[k + 1]), 1.0, tol,
                          mismatch=step)


def test_quantize_is_plain_bisection_of_the_cell_around_rounded_grid_points(monkeypatch):
    # 0.05 * 43 is the double nearest 2.15, but 2.15 / 0.05 rounds below 43,
    # as at 4.05, 4.3, 4.55 and 8.1, ..., 9.35: the digits of a root on,
    # just below or just above such a point come from the cell that holds it
    step = grushin.SCAN_STEP
    rounded = [k for k in range(200) if math.floor(step * k / step) < k]
    assert [round(step * k, 2) for k in rounded] == [
        2.15, 4.05, 4.3, 4.55, 8.1, 8.35, 8.6, 8.85, 9.1, 9.35]
    count_shoot_calls(monkeypatch, budget=0)
    problem = cc.ModeProblem(n=1)
    for k in rounded:
        point = step * k
        for r in (point, np.nextafter(point, 0.0), np.nextafter(point, np.inf),
                  point - 1e-9, point + 1e-9, point + 0.02):
            for tol in (1e-8, 1e-11, 0.1):
                got = grushin._quantize(problem, float(r), tol)
                assert got.hex() == plain_bisection(float(r), tol).hex(), (r, tol)
    # tol past the grid step leaves no bisection step: the cell's midpoint
    assert grushin._quantize(problem, step * 43, 0.1) == 0.5 * (step * 43 + step * 44)


def test_quantize_gives_the_constant_mode_exactly_zero(monkeypatch):
    # the n = 0 neumann ground state is the constant: its collocation value
    # is about -1e-12, and its eigenvalue is 0.0, with no integration
    count_shoot_calls(monkeypatch, budget=0)
    for r in (-1.4e-12, 0.0, 1e-12):
        assert grushin._quantize(cc.ModeProblem(n=0), r, 1e-8).hex() == "0x0.0p+0"
    # any other mode takes the digits of its cell, whose lowest is [0, 0.05]
    for problem in (cc.ModeProblem(n=1), cc.ModeProblem(n=0, bc="dirichlet")):
        for r in (0.0, 1e-12):
            assert grushin._quantize(problem, r, 1e-8) == plain_bisection(r, 1e-8) > 0.0


def test_a_tolerance_past_the_grid_step_gives_the_midpoint_of_the_cell(monkeypatch):
    # tol > SCAN_STEP leaves no bisection step: each root is the middle of
    # its grid cell.  The bracket that confirms it is SCAN_STEP / 2 wide,
    # two integrations per root, whatever the tol.  The lowest root of
    # n = 3, 2.39, lies 0.24 above 0.05 * 43, whose quotient rounds down.
    grid = grushin.SCAN_STEP * np.arange(2000)
    for n in (1, 3):
        problem = cc.ModeProblem(n=n)
        k = np.searchsorted(grid, cc.find_eigenvalues(problem, 3), side="right") - 1
        want = [(0.5 * (grid[i] + grid[i + 1])).hex() for i in k]
        for tol in (0.1, 1.0, 40.0):
            calls = count_shoot_calls(monkeypatch, budget=6)
            assert [lam.hex() for lam in cc.find_eigenvalues(problem, 3, tol=tol)] == want
            monkeypatch.undo()
            assert calls


def test_mode_problem_validation():
    with pytest.raises(ValueError):
        cc.ModeProblem(n=-1)
    with pytest.raises(ValueError):
        cc.ModeProblem(n=0, bc="robin")
    with pytest.raises(ValueError):
        cc.find_eigenvalues(cc.ModeProblem(n=0), 0)


def test_cross_validate_against_2d_solver(grushin, neumann_table):
    grid = cc.build_grid(grushin.chart, 32, 64)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=5)
    errors = cc.cross_validate(neumann_table, pairs.lambdas)
    # the five values are lambda_{0,0} and the n = 1 and n = 2 doublets
    assert list(errors) == [(0, 0), (1, 0), (2, 0)]
    assert max(errors.values()) <= 5e-3


def test_complete_below_stops_at_the_first_missing_eigenvalue(neumann_table):
    # max_n = 1, max_m = 1: lambda_{2,0} ~ 1.20 lies below the last entries
    # pi^2 and lambda_{1,1}, so the listed spectrum is complete only below it
    small = cc.build_table(1, 1, bc="neumann")
    next_first = cc.find_eigenvalues(cc.ModeProblem(n=2), 1)[0]
    assert cc.complete_below(small) == next_first
    # max_n = 2: lambda_{3,0} < 9 still lies below every mode's last entry
    assert cc.complete_below(neumann_table) == cc.find_eigenvalues(cc.ModeProblem(n=3), 1)[0]
    # a table with one entry per mode is complete only below the n = 0 entry 0
    assert cc.complete_below(cc.build_table(1, 0)) == neumann_table.lam(0, 0)


def test_cross_validate_rejects_too_many_values(neumann_table):
    with pytest.raises(ValueError):
        cc.cross_validate(neumann_table, np.zeros(16))
    # a wild eigenvalue is reported, not silently matched
    errors = cc.cross_validate(neumann_table, np.array([0.0, 1e6]))
    assert errors[0, 0] == 0.0 and errors[1, 0] > 1.0


def test_table_csv_roundtrip(tmp_path, neumann_table):
    # the default table config is the fixture's table
    assert cc.main(["grushin-table", "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "grushin_table.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m,lambda,multiplicity"
    assert len(lines) == 10
    assert "np.float64" not in path.read_text()
    n, m, lam, mult = lines[1].split(",")
    assert (int(n), int(m), int(mult)) == (0, 0, 1)
    assert float(lam) == neumann_table.lam(0, 0)


def test_dirichlet_table_dominates_neumann(neumann_table):
    dirichlet = cc.build_table(1, 1, bc="dirichlet")
    for e in dirichlet.entries:
        assert e.lam > neumann_table.lam(e.n, e.m)


def test_import_does_not_load_scipy_integrate():
    # RK45 is imported where the shooting needs it, not with the package
    src = str(Path(cc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, ccspectral; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# Every row of build_table, as float.hex, for tables inside the lambda range
# [0, 120] that earlier versions searched, keyed by (max_n, max_m, bc, tol).
# Collocation gives the digits, and shooting confirms each root, so these
# digits pin the collocation roots to within their bisection steps.
TABLE_DIGITS = {
    (2, 2, "neumann", 1e-08): [
        "0x0.0p+0", "0x1.3bd3cc9b33334p+3", "0x1.3bd3cc9b9999ap+5",
        "0x1.4cbd7dccccccfp-2", "0x1.4852785b33330p+3", "0x1.3e9a481b9999cp+5",
        "0x1.341ab70cccccep+0", "0x1.7022f464cccccp+3", "0x1.4704dc0acccccp+5"],
    (1, 1, "dirichlet", 1e-08): [
        "0x1.3bd3cc9b33334p+3", "0x1.3bd3cc9b9999ap+5",
        "0x1.44d655f19999ap+3", "0x1.3e65282866666p+5"],
    (0, 3, "neumann", 1e-08): [
        "0x0.0p+0", "0x1.3bd3cc9b33334p+3", "0x1.3bd3cc9b9999ap+5", "0x1.634e462f66668p+6"],
    (3, 0, "dirichlet", 1e-10): [
        "0x1.3bd3cc9be0002p+3", "0x1.44d655f2e0000p+3",
        "0x1.5f7197e37999ap+3", "0x1.8a68f634f9998p+3"],
    (4, 1, "neumann", 1e-06): [
        "0x0.0p+0", "0x1.3bd3cc0000001p+3", "0x1.4cbd800000002p-2", "0x1.485278ccccccbp+3",
        "0x1.341ab9999999ap+0", "0x1.7022f40000000p+3", "0x1.3200299999999p+1",
        "0x1.b8c7c40000000p+3", "0x1.d11ffcccccccdp+1", "0x1.13124eccccccep+4"],
    (0, 2, "dirichlet", 1e-09): [
        "0x1.3bd3cc9bccccep+3", "0x1.3bd3cc9bd999bp+5", "0x1.634e462f60002p+6"],
    (5, 0, "neumann", 1e-07): [
        "0x0.0p+0", "0x1.4cbd7cccccccfp-2", "0x1.341ab73333334p+0",
        "0x1.32002acccccccp+1", "0x1.d11ffaccccccep+1", "0x1.33cc4c3333334p+2"],
}

# shoot(ModeProblem(n, bc), lam) as float.hex, keyed by (n, bc, lam)
SHOOT_DIGITS = {
    (0, "neumann", 3.7): "-0x1.ce1b4d2c7d7abp+0",
    (1, "neumann", 10.0): "-0x1.0942c939c9439p-3",
    (3, "dirichlet", 50.5): "0x1.5c52f2f574122p-4",
    (2, "dirichlet", 0.0): "0x1.361e5382ace97p+0",
    (5, "neumann", 119.0): "0x1.22ccd167c3561p+3",
    (4, "dirichlet", 200.0): "0x1.22af8bcaab896p-4",
}

# primitive_oracle.mode_zero_crossings(ModeProblem(n, bc), lam), keyed by (n, bc, lam)
CROSSINGS = {(1, "neumann", 45.0): 2, (2, "dirichlet", 60.0): 2,
             (0, "neumann", 100.0): 3, (3, "dirichlet", 150.0): 3}


@pytest.mark.parametrize("key", list(TABLE_DIGITS), ids=str)
def test_table_digits_are_pinned(key, neumann_table):
    max_n, max_m, bc, tol = key
    table = neumann_table if key == (2, 2, "neumann", 1e-08) else \
        cc.build_table(max_n, max_m, bc=bc, tol=tol)
    assert [e.lam.hex() for e in table.entries] == TABLE_DIGITS[key]


def test_shoot_and_crossings_are_pinned():
    for (n, bc, lam), digits in SHOOT_DIGITS.items():
        assert cc.shoot(cc.ModeProblem(n=n, bc=bc), lam).hex() == digits, (n, bc, lam)
    for (n, bc, lam), count in CROSSINGS.items():
        assert mode_zero_crossings(cc.ModeProblem(n=n, bc=bc), lam) == count, (n, bc, lam)


def test_table_keeps_no_step_history():
    # shoot steps RK45 itself; keeping the solver's steps (as solve_ivp does)
    # would hold megabytes
    tracemalloc.start()
    try:
        cc.build_table(2, 2, "dirichlet")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
