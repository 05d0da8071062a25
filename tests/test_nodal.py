"""Nodal domain counting and the Courant bound checker."""

import numpy as np
import pytest

import ccspectral as cc


def test_constant_has_one_domain(grushin_grid):
    decomp = cc.nodal_domains(grushin_grid, np.ones(grushin_grid.n_nodes))
    assert decomp.n_domains == 1
    assert decomp.n_positive == 1 and decomp.n_negative == 0


def test_sin_y_splits_periodic_cylinder(grushin_grid):
    _, Y = grushin_grid.meshes()
    decomp = cc.nodal_domains(grushin_grid, np.sin(Y).ravel())
    assert decomp.n_domains == 2
    assert decomp.n_positive == 1 and decomp.n_negative == 1


def test_periodic_wrap_joins_domains(grushin_grid):
    # cos(y) is positive near both y = 0 and y = 2 pi; without the wrap
    # edge those would be two separate positive domains
    _, Y = grushin_grid.meshes()
    decomp = cc.nodal_domains(grushin_grid, np.cos(Y).ravel())
    assert decomp.n_domains == 2


def test_checkerboard_on_square():
    grid = cc.build_grid(cc.Chart2D((0.0, 1.0), (0.0, 1.0)), 41, 41)
    X, Y = grid.meshes()
    u = np.sin(2.0 * np.pi * X) * np.sin(2.0 * np.pi * Y)
    decomp = cc.nodal_domains(grid, u.ravel())
    assert decomp.n_domains == 4
    assert decomp.n_positive == 2 and decomp.n_negative == 2


def test_sign_and_scale_invariance(grushin_grid):
    X, Y = grushin_grid.meshes()
    u = (np.sin(Y) * np.sin(np.pi * X)).ravel()
    base = cc.nodal_domains(grushin_grid, u)
    flipped = cc.nodal_domains(grushin_grid, -3.75 * u)
    assert flipped.n_domains == base.n_domains
    assert flipped.n_positive == base.n_negative
    assert np.array_equal(flipped.labels == 0, base.labels == 0)


def test_zero_band_threshold(grushin_grid):
    u = np.ones(grushin_grid.n_nodes)
    u[: grushin_grid.ny] = 1e-9  # tiny but nonzero strip at x = 0
    strict = cc.nodal_domains(grushin_grid, u, rel_threshold=0.0)
    loose = cc.nodal_domains(grushin_grid, u, rel_threshold=1e-6)
    assert strict.n_domains == 1
    assert loose.n_domains == 1
    assert np.count_nonzero(loose.labels == 0) == grushin_grid.ny
    assert np.count_nonzero(strict.labels == 0) == 0


def test_threshold_validation(grushin_grid):
    with pytest.raises(ValueError):
        cc.nodal_domains(grushin_grid, np.ones(grushin_grid.n_nodes), rel_threshold=0.5)
    with pytest.raises(ValueError):
        cc.nodal_domains(grushin_grid, np.ones(3))


def test_courant_on_grushin_spectrum(grushin_neumann_forms, grushin_neumann_pairs):
    report = cc.check_courant(grushin_neumann_pairs, grushin_neumann_forms)
    assert report.ok
    assert report.violations == ()
    entries = report.entries
    assert entries[0].n_domains == 1 and entries[0].bound == 1
    # the first excited doublet: two domains, cluster bound 3
    assert entries[1].n_domains == 2
    assert entries[1].bound == 3 and entries[2].bound == 3
    for e in entries:
        assert e.n_domains <= e.bound


def test_courant_flags_violations(grushin_neumann_forms, grushin_neumann_pairs):
    # pretend the 2-domain doublet eigenfunction is the ground state
    fake = cc.Eigenpairs(
        lambdas=grushin_neumann_pairs.lambdas[1:2],
        vectors=grushin_neumann_pairs.vectors[:, 1:2],
        residuals=grushin_neumann_pairs.residuals[1:2],
    )
    report = cc.check_courant(fake, grushin_neumann_forms)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].n_domains == 2
    assert report.violations[0].bound == 1


def test_cluster_bound_tolerance(grushin_neumann_pairs, grushin_neumann_forms):
    # with a huge gap tolerance every eigenvalue joins one cluster
    report = cc.check_courant(grushin_neumann_pairs, grushin_neumann_forms,
                              gap_rel_tol=1e6)
    assert all(e.bound == grushin_neumann_pairs.k for e in report.entries)


def test_write_labels_pgm(tmp_path, grushin_grid):
    _, Y = grushin_grid.meshes()
    decomp = cc.nodal_domains(grushin_grid, np.sin(Y).ravel())
    path = tmp_path / "labels.pgm"
    cc.write_labels_pgm(grushin_grid, decomp, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    header = data.split(b"\n", 3)
    assert header[1].split() == [str(grushin_grid.nx).encode(),
                                 str(grushin_grid.ny).encode()]


def _flood_fill_labels(grid, u, rel_threshold):
    """Reference labeller: flood fill from each unlabelled node in index order."""
    nx, ny = grid.nx, grid.ny
    values = np.asarray(u, dtype=float).reshape(nx, ny)
    sign = np.sign(values)
    sign[np.abs(values) <= rel_threshold * np.abs(values).max()] = 0
    labels = np.zeros((nx, ny), dtype=int)
    counts = {1: 0, -1: 0}
    for i0 in range(nx):
        for j0 in range(ny):
            s = int(sign[i0, j0])
            if s == 0 or labels[i0, j0] != 0:
                continue
            counts[s] += 1
            labels[i0, j0] = s * counts[s]
            stack = [(i0, j0)]
            while stack:
                i, j = stack.pop()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = i + di, j + dj
                    if grid.chart.periodic_x:
                        a %= nx
                    if grid.chart.periodic_y:
                        b %= ny
                    if 0 <= a < nx and 0 <= b < ny and labels[a, b] == 0 and sign[a, b] == s:
                        labels[a, b] = labels[i0, j0]
                        stack.append((a, b))
    return labels.ravel(), counts[1], counts[-1]


@pytest.mark.parametrize("periodic", [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("rel_threshold", [0.0, 1e-6, 0.05])
def test_labels_match_flood_fill(periodic, rel_threshold):
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0), periodic_x=periodic[0], periodic_y=periodic[1])
    grid = cc.build_grid(chart, 11, 14)
    X, Y = grid.meshes()
    rng = np.random.default_rng(7)
    fields = [np.sin(3.0 * np.pi * X) * np.cos(5.0 * np.pi * Y) + 0.1]
    for _ in range(3):
        u = rng.standard_normal(grid.n_nodes)
        u[rng.random(grid.n_nodes) < 0.2] = 0.0  # exact zeros split domains
        fields.append(u)
    striped = np.cos(2.0 * np.pi * Y).ravel()
    striped[np.abs(striped) < 0.3] = 0.0
    fields.append(striped)
    for u in fields:
        got = cc.nodal_domains(grid, u.ravel(), rel_threshold=rel_threshold)
        labels, n_pos, n_neg = _flood_fill_labels(grid, u, rel_threshold)
        assert got.labels.dtype == labels.dtype
        assert np.array_equal(got.labels, labels)
        assert (got.n_positive, got.n_negative) == (n_pos, n_neg)
        assert got.n_domains == n_pos + n_neg
