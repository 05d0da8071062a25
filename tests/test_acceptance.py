"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS/FAIL` line on the live terminal
(bypassing capture) before asserting, so a full run always shows the
per-criterion scoreboard.
"""

import time

import numpy as np
import pytest

import ccspectral as cc

DOUBLET_REL = 1e-6


def report(capsys, cid, passed, detail):
    with capsys.disabled():
        print(f"[criterion {cid}] {'PASS' if passed else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mode_table():
    t0 = time.perf_counter()
    table = cc.build_table(2, 2, bc="neumann")
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def wide_table():
    return cc.build_table(3, 2, bc="neumann")


@pytest.fixture(scope="module")
def grushin_structure():
    return cc.builtin_grushin_cylinder()


@pytest.fixture(scope="module")
def neumann_sweep(grushin_structure):
    """k=6 Neumann eigenpairs on three nested grids, with forms and timing."""
    t0 = time.perf_counter()
    out = {}
    for nx, ny in ((64, 128), (128, 256), (256, 512)):
        grid = cc.build_grid(grushin_structure.chart, nx, ny)
        forms = cc.assemble(grushin_structure, grid, cc.BoundarySpec.all_neumann())
        out[(nx, ny)] = (grid, forms, cc.solve_smallest(forms, k=6))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dirichlet_solution(grushin_structure):
    grid = cc.build_grid(grushin_structure.chart, 128, 256)
    bc = cc.BoundarySpec.all_dirichlet(grushin_structure.chart)
    forms = cc.assemble(grushin_structure, grid, bc)
    return grid, forms, cc.solve_smallest(forms, k=1)


# ---------------------------------------------------------------------------
# 1. separated-mode eigenvalue table
# ---------------------------------------------------------------------------

def test_criterion_1_mode_table(mode_table, capsys):
    table, elapsed = mode_table
    reference = {
        (0, 0): (0.0, 0.005), (0, 1): (np.pi**2, 0.005), (0, 2): (4 * np.pi**2, 0.005),
        (1, 0): (0.325, 0.005), (1, 1): (10.26, 0.01), (1, 2): (39.825, 0.01),
        (2, 0): (1.203, 0.005), (2, 1): (11.504, 0.01), (2, 2): (40.877, 0.01),
    }
    worst = max(abs(table.lam(n, m) - ref) - atol
                for (n, m), (ref, atol) in reference.items())
    passed = worst <= 0.0 and elapsed < 10.0
    report(capsys, 1, passed,
           f"9 table values within tolerance (margin {-worst:.2e}), "
           f"built in {elapsed:.2f}s")
    for (n, m), (ref, atol) in reference.items():
        assert table.lam(n, m) == pytest.approx(ref, abs=atol), (n, m)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. 2D solver accuracy and convergence order
# ---------------------------------------------------------------------------

def test_criterion_2_accuracy_and_order(neumann_sweep, wide_table, capsys):
    solves, elapsed = neumann_sweep
    exact = np.array([e.lam for e in wide_table.expanded()[:6]])
    errs = {}
    for key, (_grid, _forms, pairs) in solves.items():
        lam = pairs.lambdas
        # doublets
        assert lam[2] - lam[1] <= DOUBLET_REL * max(1.0, lam[1])
        assert lam[4] - lam[3] <= DOUBLET_REL * max(1.0, lam[3])
        errs[key] = np.abs(lam[1:] - exact[1:]) / exact[1:]
    mid = errs[(128, 256)]
    rate1 = np.log2(errs[(64, 128)] / errs[(128, 256)])
    rate2 = np.log2(errs[(128, 256)] / errs[(256, 512)])
    min_rate = float(min(rate1.min(), rate2.min()))
    passed = mid.max() <= 0.01 and min_rate >= 1.8 and elapsed < 180.0
    report(capsys, 2, passed,
           f"128x256 max rel err {mid.max():.2e} (<= 1%), doublets paired, "
           f"min observed order {min_rate:.2f} (>= 1.8), {elapsed:.1f}s (< 180s)")
    assert mid.max() <= 0.01
    assert min_rate >= 1.8
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 3. Dirichlet ground state
# ---------------------------------------------------------------------------

def test_criterion_3_dirichlet_ground_state(dirichlet_solution, capsys):
    grid, forms, pairs = dirichlet_solution
    lam1 = float(pairs.lambdas[0])
    rel = abs(lam1 - np.pi**2) / np.pi**2
    X, _ = grid.meshes()
    profile = forms.restrict(np.sin(np.pi * X).ravel())
    v = pairs.vectors[:, 0]
    corr = abs(float(profile @ v)) / (np.linalg.norm(profile) * np.linalg.norm(v))
    passed = rel <= 0.005 and corr >= 0.999
    report(capsys, 3, passed,
           f"lambda_1 = {lam1:.6f} vs pi^2 (rel err {rel:.2e} <= 0.5%), "
           f"profile correlation {corr:.6f} >= 0.999")
    assert rel <= 0.005
    assert corr >= 0.999


# ---------------------------------------------------------------------------
# 4. flow certificate of the model field
# ---------------------------------------------------------------------------

def test_criterion_4_model_certificate(grushin_structure, capsys):
    grid = cc.build_grid(grushin_structure.chart, 64, 128)
    X, _ = grid.meshes()
    phi = np.stack([X.ravel(), np.zeros(grid.n_nodes)])
    cert_d = cc.mfmc_certify(grushin_structure, grid, phi, mode="dirichlet")
    cert_n = cc.mfmc_certify(grushin_structure, grid, phi, mode="neumann")
    passed = cert_d.valid and abs(cert_d.h_certified - 1.0) <= 1e-9 and not cert_n.valid
    report(capsys, 4, passed,
           f"dirichlet certificate valid with h = {cert_d.h_certified:.12f} "
           f"(|h-1| <= 1e-9); neumann variant rejected "
           f"(boundary pairing {cert_n.boundary_inward_min:+.2f})")
    assert cert_d.valid
    assert abs(cert_d.h_certified - 1.0) <= 1e-9
    assert not cert_n.valid


# ---------------------------------------------------------------------------
# 5. candidate cuts: closed-form family and eigenfunction sweep
# ---------------------------------------------------------------------------

def test_criterion_5a_line_pair_ratio(grushin_structure, capsys):
    grid = cc.build_grid(grushin_structure.chart, 128, 256)
    cuts = cc.candidate_cuts_grushin(grushin_structure, grid)
    best = min(c.ratio for c in cuts if c.kind == "line_pair")
    # Each line y = c has perimeter int_0^1 x dx = 1/2 under X_2 = x d/dy, so
    # the pair has sigma = 1 and cuts the cylinder into two halves of volume pi.
    target = 1.0 / np.pi
    passed = abs(best - target) <= 1e-6
    report(capsys, "5a", passed,
           f"best line-pair ratio {best:.9f} vs 1/pi = {target:.9f} "
           f"(|diff| = {abs(best - target):.3e}, required <= 1e-6)")
    assert abs(best - target) <= 1e-6


def test_criterion_5b_eigenfunction_sweep(neumann_sweep, capsys):
    solves, _ = neumann_sweep
    grid, forms, pairs = solves[(128, 256)]
    v2 = forms.expand(pairs.vectors[:, 1])
    s = cc.builtin_grushin_cylinder()
    cuts, _, _ = cc.upper_bound(s, grid, "neumann", v2, 40)
    best = cuts[-1]  # the best level cut comes after the closed-form families
    bound = 1.0 / np.pi + 0.05
    passed = best.ratio <= bound
    report(capsys, "5b", passed,
           f"best level-set ratio of v_2 is {best.ratio:.6f} "
           f"<= 1/pi + 0.05 = {bound:.6f}")
    assert best.ratio <= bound


# ---------------------------------------------------------------------------
# 6. Cheeger inequalities with the model constants
# ---------------------------------------------------------------------------

def test_criterion_6_inequalities(mode_table, capsys):
    table, _ = mode_table
    # 1/pi is the closed-form line-pair ratio of criterion 5a, taken as the
    # model constant; it is an upper bound on h, not a certified lower bound.
    neumann = cc.verify_inequality(table.lam(1, 0), 1.0 / np.pi, "neumann")
    dirichlet = cc.verify_inequality(table.lam(0, 1), 1.0, "dirichlet")
    passed = (neumann.satisfied and neumann.slack > 0
              and dirichlet.satisfied and dirichlet.slack > 0)
    report(capsys, 6, passed,
           f"lambda_2 = {neumann.lambda_value:.6f} >= (1/pi)^2/4 = "
           f"{neumann.lower_bound:.6f} (slack {neumann.slack:+.4f}); "
           f"lambda_1 = {dirichlet.lambda_value:.6f} >= 1/4 "
           f"(slack {dirichlet.slack:+.4f})")
    assert neumann.satisfied and neumann.slack > 0
    assert dirichlet.satisfied and dirichlet.slack > 0


# ---------------------------------------------------------------------------
# 7. Courant nodal bounds
# ---------------------------------------------------------------------------

def test_criterion_7_courant(neumann_sweep, capsys):
    solves, _ = neumann_sweep
    _grid, forms, pairs = solves[(128, 256)]
    rep = cc.check_courant(pairs, forms)
    counts = [e.n_domains for e in rep.entries]
    passed = rep.ok and counts[0] == 1 and counts[1] == 2
    report(capsys, 7, passed,
           f"nodal domain counts {counts} within cluster bounds "
           f"{[e.bound for e in rep.entries]}; v_1 has 1 domain, v_2 has 2")
    assert rep.ok
    assert counts[0] == 1
    assert counts[1] == 2


# ---------------------------------------------------------------------------
# 8. coarea identity
# ---------------------------------------------------------------------------

def test_criterion_8_coarea(grushin_structure, capsys):
    def gap(n, levels):
        grid = cc.build_grid(grushin_structure.chart, n, n)
        X, Y = grid.meshes()
        u = (np.sin(np.pi * X) * np.sin(Y)).ravel()
        return cc.coarea_check(grushin_structure, grid, u, n_levels=levels).rel_gap

    fine = gap(128, 200)
    coarse_grid = gap(32, 200)
    coarse_levels = gap(128, 50)
    passed = fine <= 0.02 and fine < coarse_grid and fine < coarse_levels
    report(capsys, 8, passed,
           f"coarea gap {fine:.4%} at 128x128/200 levels (<= 2%), down from "
           f"{coarse_grid:.4%} at 32x32 and {coarse_levels:.4%} at 50 levels")
    assert fine <= 0.02
    assert fine < coarse_grid
    assert fine < coarse_levels


# ---------------------------------------------------------------------------
# 9. group constants and gauge metric
# ---------------------------------------------------------------------------

def test_criterion_9_group_constants(capsys):
    alpha = cc.hausdorff_constant_heisenberg(1)
    alpha_err = abs(alpha - 3.0 / np.pi)

    rng = np.random.default_rng(123)
    n_samples = 10_000
    z = rng.standard_normal((n_samples, 1)) + 1j * rng.standard_normal((n_samples, 1))
    t = rng.standard_normal(n_samples)
    pts = [cc.HeisenbergPoint(z=z[i], t=t[i]) for i in range(n_samples)]
    g = cc.HeisenbergPoint(z=np.array([0.3 - 0.4j]), t=0.7)
    worst = 0.0
    for i in range(0, n_samples - 2, 2):
        p, q, r = pts[i], pts[i + 1], pts[i + 2]
        dpq = cc.d_infty(p, q)
        worst = max(worst, abs(dpq - cc.d_infty(q, p)))
        worst = max(worst, dpq - cc.d_infty(p, r) - cc.d_infty(r, q))
        worst = max(worst, abs(cc.d_infty(cc.h_mul(g, p), cc.h_mul(g, q)) - dpq))
    passed = alpha_err <= 1e-12 and worst <= 1e-12
    report(capsys, 9, passed,
           f"alpha = {alpha:.15f} vs 3/pi (err {alpha_err:.1e} <= 1e-12); "
           f"metric axioms on {n_samples} samples, worst defect {worst:.2e}")
    assert alpha_err <= 1e-12
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 10. discretization invariants and the flat-case calibration
# ---------------------------------------------------------------------------

def test_criterion_10_invariants(neumann_sweep, capsys):
    solves, _ = neumann_sweep
    _grid, forms, pairs = solves[(128, 256)]
    A = forms.A
    asym = abs(A - A.T).max()
    kernel = float(np.abs(A @ np.ones(A.shape[0])).max())
    scale = abs(A).max()
    rng = np.random.default_rng(0)
    psd_margin = min(float(u @ (A @ u)) / float(u @ u)
                     for u in rng.standard_normal((50, A.shape[0])))
    res = float(pairs.residuals.max())

    s = cc.builtin_euclidean()
    grid = cc.build_grid(s.chart, 128, 128)
    neumann = cc.solve_smallest(
        cc.assemble(s, grid, cc.BoundarySpec.all_neumann()), k=2)
    dirichlet = cc.solve_smallest(
        cc.assemble(s, grid, cc.BoundarySpec.all_dirichlet(s.chart)), k=1)
    err_n = abs(neumann.lambdas[1] - np.pi**2) / np.pi**2
    err_d = abs(dirichlet.lambdas[0] - 2 * np.pi**2) / (2 * np.pi**2)

    passed = (asym == 0.0 and kernel <= 1e-12 * scale
              and psd_margin >= -1e-12 * scale and res <= 1e-8
              and err_n <= 0.005 and err_d <= 0.005)
    report(capsys, 10, passed,
           f"max|A - A^T| = {asym}, kernel defect {kernel:.1e}, PSD margin "
           f"{psd_margin:+.1e}, residuals {res:.1e} <= 1e-8; flat square "
           f"lambda_2^N err {err_n:.2e}, lambda_1^D err {err_d:.2e} (<= 0.5%)")
    assert asym == 0.0
    assert kernel <= 1e-12 * scale
    assert psd_margin >= -1e-12 * scale
    assert res <= 1e-8
    assert err_n <= 0.005
    assert err_d <= 0.005
