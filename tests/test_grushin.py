"""Separated angular modes of the Grushin cylinder: shooting and tables."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccspectral as cc

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
        assert cc.mode_zero_crossings(problem, lam) == m


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


def test_window_exhaustion_carries_partial_roots():
    problem = cc.ModeProblem(n=0, bc="neumann", lambda_window=(0.0, 15.0))
    with pytest.raises(cc.WindowExhaustedError) as exc_info:
        cc.find_eigenvalues(problem, 5)
    found = exc_info.value.found
    assert found.size == 2  # 0 and pi^2 lie below 15
    assert found[1] == pytest.approx(np.pi**2, abs=1e-6)


def test_mode_problem_validation():
    with pytest.raises(ValueError):
        cc.ModeProblem(n=-1)
    with pytest.raises(ValueError):
        cc.ModeProblem(n=0, bc="robin")
    with pytest.raises(ValueError):
        cc.ModeProblem(n=0, lambda_window=(3.0, 1.0))
    with pytest.raises(ValueError):
        cc.find_eigenvalues(cc.ModeProblem(n=0), 0)


def test_cross_validate_against_2d_solver(grushin, neumann_table):
    grid = cc.build_grid(grushin.chart, 32, 64)
    forms = cc.assemble(grushin, grid, cc.BoundarySpec.all_neumann())
    pairs = cc.solve_smallest(forms, k=5)
    report = cc.cross_validate(neumann_table, pairs.lambdas)
    assert report.max_rel_error <= 5e-3
    ns = [p[2] for p in report.pairs]
    assert ns == [0, 1, 1, 2, 2]


def test_cross_validate_rejects_too_many_values(neumann_table):
    with pytest.raises(ValueError):
        cc.cross_validate(neumann_table, np.zeros(16))
    # a wild eigenvalue is reported, not silently matched
    report = cc.cross_validate(neumann_table, np.array([0.0, 1e6]))
    assert report.max_rel_error > 1.0


def test_table_csv_roundtrip(tmp_path, neumann_table):
    path = tmp_path / "table.csv"
    cc.write_table_csv(neumann_table, path)
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
    # solve_ivp is imported where the shooting needs it, not with the package
    src = str(Path(cc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, ccspectral; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
