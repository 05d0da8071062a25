"""Horizontal perimeter, candidate cuts, flow certificates, coarea."""

import numpy as np
import pytest

import ccspectral as cc


def make_phi(grid, phi1, phi2):
    """The (2, n_nodes) coefficient array of phi1 X_1 + phi2 X_2."""
    return np.stack([np.broadcast_to(phi1, (grid.n_nodes,)).astype(float),
                     np.broadcast_to(phi2, (grid.n_nodes,)).astype(float)])


# ---------------------------------------------------------------------------
# horizontal perimeter: closed-form values
# ---------------------------------------------------------------------------

def test_perimeter_of_horizontal_line(grushin):
    # one line (0,1) x {y0}: the normal pairs with the x-scaled field,
    # so sigma = integral of |x| dx = 1/2, at any height
    for y0 in (0.7, np.pi, 5.1):
        sigma = cc.horizontal_perimeter(grushin, (((0.0, y0), (1.0, y0)),))
        assert sigma == pytest.approx(0.5, rel=1e-12)


def test_perimeter_of_vertical_circle(grushin):
    # circle {h} x S^1: the normal pairs with the unit x-direction field,
    # sigma = 2 pi independent of h
    for h in (0.25, 0.5, 0.9):
        sigma = cc.horizontal_perimeter(
            grushin, (((h, 0.0), (h, 2.0 * np.pi)),))
        assert sigma == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_perimeter_additive_and_orientation_free(grushin):
    one = cc.horizontal_perimeter(grushin, (((0.0, 1.0), (1.0, 1.0)),))
    pair = cc.horizontal_perimeter(grushin, (((0.0, 1.0), (1.0, 1.0)),
                                             ((0.0, 1.0 + np.pi), (1.0, 1.0 + np.pi))))
    flipped = cc.horizontal_perimeter(grushin, (((1.0, 1.0), (0.0, 1.0)),))
    assert pair == pytest.approx(2.0 * one, rel=1e-12)
    assert flipped == pytest.approx(one, rel=1e-12)


def test_perimeter_zero_length_segments(grushin):
    assert cc.horizontal_perimeter(grushin, (((0.3, 1.0), (0.3, 1.0)),)) == 0.0


def test_perimeter_scales_with_density():
    e = cc.compile_expression
    doubled = cc.CCStructure(
        cc.Chart2D((0.0, 1.0), (0.0, 2.0 * np.pi), periodic_y=True),
        ((e("1"), e("0")), (e("0"), e("x"))), density=e("2"))
    sigma = cc.horizontal_perimeter(doubled, (((0.0, 1.0), (1.0, 1.0)),))
    assert sigma == pytest.approx(1.0, rel=1e-12)


def test_perimeter_segment_outside_chart(grushin):
    with pytest.raises(ValueError):
        cc.horizontal_perimeter(grushin, (((-0.5, 1.0), (1.0, 1.0)),))


def test_euclidean_perimeter_is_arc_length(euclidean):
    rng = np.random.default_rng(42)
    for _ in range(20):
        pts = rng.uniform(0.05, 0.95, size=(5, 2))
        segments = tuple((tuple(pts[i]), tuple(pts[i + 1])) for i in range(4))
        sigma = cc.horizontal_perimeter(euclidean, segments)
        length = float(np.sum(np.hypot(*(np.diff(pts, axis=0).T))))
        assert sigma == pytest.approx(length, rel=1e-6)


def test_perimeter_dominates_unit_flux(grushin):
    # sup characterization: for coefficient fields with norm <= 1 the flux
    # through a curve never exceeds its horizontal perimeter
    rng = np.random.default_rng(11)
    curves = [
        (((0.0, 1.0), (1.0, 1.0)),),
        (((0.5, 0.0), (0.5, 2.0 * np.pi)),),
        (((0.1, 0.3), (0.9, 4.1)),),
        (((0.2, 2.0), (0.8, 2.0)), ((0.8, 2.0), (0.8, 5.0))),
    ]
    for segments in curves:
        sigma = cc.horizontal_perimeter(grushin, segments)
        segs = np.asarray(segments, dtype=float)
        d = segs[:, 1] - segs[:, 0]
        lengths = np.hypot(d[:, 0], d[:, 1])
        nu = np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]
        best = 0.0
        for _ in range(200):
            phi = rng.standard_normal(2)
            phi /= max(1.0, np.linalg.norm(phi))
            flux = 0.0
            for s, (p0, p1), n, L in zip(segs, segs, nu, lengths):
                tpar = np.linspace(0.0, 1.0, 257)[:-1] + 0.5 / 256
                px = p0[0] + (p1[0] - p0[0]) * tpar
                py = p0[1] + (p1[1] - p0[1]) * tpar
                coeffs = grushin.coefficients_at(px, py)
                pairing = phi[0] * (coeffs[0, 0] * n[0] + coeffs[0, 1] * n[1]) \
                    + phi[1] * (coeffs[1, 0] * n[0] + coeffs[1, 1] * n[1])
                flux += float(np.abs(np.sum(pairing)) * L / px.size)
            best = max(best, flux)
        assert best <= sigma * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# region volumes
# ---------------------------------------------------------------------------

def test_region_volume_full_and_half(grushin, grushin_grid):
    shape = (grushin_grid.n_cells_x, grushin_grid.n_cells_y)
    full = np.ones(shape, dtype=bool)
    assert cc.region_volume(grushin, grushin_grid, full) == pytest.approx(
        2.0 * np.pi, rel=1e-12)
    Xc = (grushin_grid.xs[:-1] + grushin_grid.xs[1:]) / 2.0
    half = np.zeros(shape, dtype=bool)
    half[Xc < 0.5, :] = True
    n_in = int(np.count_nonzero(Xc < 0.5))
    expected = n_in * grushin_grid.hx * grushin_grid.chart.y_length
    assert cc.region_volume(grushin, grushin_grid, half) == pytest.approx(
        expected, rel=1e-12)
    assert abs(expected - np.pi) <= 2.0 * np.pi * grushin_grid.hx
    assert cc.region_volume(grushin, grushin_grid, ~full) == 0.0


def test_region_volume_weighted_by_density():
    e = cc.compile_expression
    s = cc.CCStructure(cc.Chart2D((0.0, 1.0), (0.0, 1.0)),
                       ((e("1"), e("0")), (e("0"), e("1"))), density=e("x"))
    grid = cc.build_grid(s.chart, 21, 21)
    full = np.ones((grid.n_cells_x, grid.n_cells_y), dtype=bool)
    # midpoint quadrature is exact for a linear density
    assert cc.region_volume(s, grid, full) == pytest.approx(0.5, rel=1e-12)


def test_region_volume_shape_check(grushin, grushin_grid):
    with pytest.raises(ValueError):
        cc.region_volume(grushin, grushin_grid, np.ones((3, 3), dtype=bool))


# ---------------------------------------------------------------------------
# level-set cuts
# ---------------------------------------------------------------------------

def test_level_cut_vertical_line(euclidean):
    grid = cc.build_grid(euclidean.chart, 40, 40)
    X, _ = grid.meshes()
    cut = cc.cut_from_level_set(euclidean, grid, (X - 0.5).ravel(), 0.0)
    assert cut.kind == "level_set"
    assert cut.sigma == pytest.approx(1.0, rel=1e-9)
    assert cut.vol1 + cut.vol2 == pytest.approx(1.0, rel=1e-12)
    assert cut.vol1 == pytest.approx(0.5, abs=0.03)
    assert cut.ratio == pytest.approx(cut.sigma / min(cut.vol1, cut.vol2), rel=1e-12)


def test_level_cut_horizontal_lines_on_cylinder(grushin, grushin_grid):
    _, Y = grushin_grid.meshes()
    cut = cc.cut_from_level_set(grushin, grushin_grid, np.sin(Y).ravel(), 0.3)
    # {sin y = 0.3} is two horizontal lines, each of perimeter 1/2
    assert cut.sigma == pytest.approx(1.0, rel=1e-9)
    assert cut.vol1 + cut.vol2 == pytest.approx(2.0 * np.pi, rel=1e-12)
    width = np.pi - 2.0 * np.arcsin(0.3)
    assert min(cut.vol1, cut.vol2) == pytest.approx(width, abs=0.1)


def test_level_cut_t_outside_range(grushin_grid, grushin):
    _, Y = grushin_grid.meshes()
    with pytest.raises(ValueError):
        cc.cut_from_level_set(grushin, grushin_grid, np.sin(Y).ravel(), 1.5)


def test_sweep_finds_line_pair_ratio(grushin, grushin_grid):
    _, Y = grushin_grid.meshes()
    cuts, _, _ = cc.upper_bound(grushin, grushin_grid, "neumann", np.sin(Y).ravel(), 40)
    best = cuts[-1]  # the best level cut comes after the closed-form families
    assert best.kind == "level_set"
    # the optimal level is t -> 0 where the ratio tends to 1/pi
    assert 0.31 <= best.ratio <= 0.35


@pytest.mark.parametrize("flavor", ["neumann", "dirichlet", "mixed"])
def test_sweep_rejects_constants(grushin, grushin_grid, flavor):
    for u in (np.ones(grushin_grid.n_nodes), np.zeros(grushin_grid.n_nodes)):
        with pytest.raises(ValueError, match="constant function"):
            cc.upper_bound(grushin, grushin_grid, flavor, u, 40)
    with pytest.raises(ValueError, match="n_levels must be positive"):
        cc.upper_bound(grushin, grushin_grid, flavor,
                       np.arange(grushin_grid.n_nodes, dtype=float), 0)


# ---------------------------------------------------------------------------
# closed-form candidate families
# ---------------------------------------------------------------------------

def test_candidate_families_closed_forms(grushin, grushin_grid):
    cuts = cc.candidate_cuts_grushin(grushin, grushin_grid)
    circles = [c for c in cuts if c.kind == "vertical_circle"]
    pairs = [c for c in cuts if c.kind == "line_pair"]
    assert circles and pairs
    for c in circles:
        assert c.sigma == pytest.approx(2.0 * np.pi, rel=1e-12)
        h = c.segments[0][0][0]
        assert c.ratio == pytest.approx(1.0 / min(h, 1.0 - h), rel=1e-12)
    for c in pairs:
        assert c.sigma == pytest.approx(1.0, rel=1e-12)
        assert c.vol1 == c.vol2 == pytest.approx(np.pi, rel=1e-12)
        assert c.ratio == pytest.approx(1.0 / np.pi, rel=1e-12)
    best = min(cuts, key=lambda c: c.ratio)
    assert best.kind == "line_pair"
    assert best.ratio == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_candidate_families_need_grushin(euclidean):
    grid = cc.build_grid(euclidean.chart, 8, 8)
    with pytest.raises(ValueError):
        cc.candidate_cuts_grushin(euclidean, grid)


# ---------------------------------------------------------------------------
# flow certificates
# ---------------------------------------------------------------------------

def test_certificate_grushin_dirichlet(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert cert.valid
    assert abs(cert.h_certified - 1.0) <= 1e-9
    assert cert.max_coeff_norm == pytest.approx(1.0, abs=1e-12)
    assert cert.min_divergence == pytest.approx(1.0, abs=1e-9)


def test_certificate_grushin_neumann_rejected(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="neumann")
    assert not cert.valid
    assert cert.boundary_inward_min == pytest.approx(-1.0, abs=1e-12)


def test_certificate_scales_linearly(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, 0.5 * X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert cert.valid
    assert cert.h_certified == pytest.approx(0.5, abs=1e-9)


def test_certificate_euclidean_radial(euclidean):
    grid = cc.build_grid(euclidean.chart, 41, 41)
    X, Y = grid.meshes()
    r2 = np.sqrt(2.0)
    phi = make_phi(grid, (r2 * (X - 0.5)).ravel(), (r2 * (Y - 0.5)).ravel())
    cert = cc.mfmc_certify(euclidean, grid, phi, mode="dirichlet")
    assert cert.valid
    assert cert.h_certified == pytest.approx(2.0 * r2, abs=1e-9)
    assert cert.max_coeff_norm == pytest.approx(1.0, abs=1e-12)
    # the same field points outward, so it cannot certify the neumann constant
    assert not cc.mfmc_certify(euclidean, grid, phi, mode="neumann").valid


def test_certificate_norm_violation_invalidates(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, 1.5 * X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert not cert.valid
    assert cert.max_coeff_norm == pytest.approx(1.5, abs=1e-12)


def test_certificate_validation(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    with pytest.raises(ValueError):
        cc.mfmc_certify(grushin, grushin_grid, phi, mode="mixed")
    other = cc.build_grid(grushin.chart, 8, 8)
    with pytest.raises(ValueError, match="phi must have shape"):
        cc.mfmc_certify(grushin, other, phi, mode="dirichlet")


def test_certificate_samples_the_frame_once(grushin, grushin_grid, monkeypatch):
    # the divergence and the inward-flux test share one sampling of the frame
    calls = {"coefficients_at": 0, "density_at": 0}
    for name in calls:
        method = getattr(cc.CCStructure, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cc.CCStructure, name, counted)
    X, _ = grushin_grid.meshes()
    cc.mfmc_certify(grushin, grushin_grid, make_phi(grushin_grid, X.ravel(), 0.0),
                    mode="neumann")
    assert calls == {"coefficients_at": 1, "density_at": 1}


def test_certificate_with_a_varying_density():
    # the benchmark's custom structure: rho = 1 + 0.5 cos^2 y does not depend
    # on x, so V = x X_1 has divergence (d/dx (rho x)) / rho = 1 exactly
    e = cc.compile_expression
    s = cc.CCStructure(cc.Chart2D((0.0, 1.0), (0.0, 2.0 * np.pi), periodic_y=True),
                       ((e("1"), e("0")), (e("0"), e("x*(1+0.25*sin(y))"))),
                       density=e("1+0.5*cos(y)^2"))
    grid = cc.build_grid(s.chart, 64, 128)
    X, _ = grid.meshes()
    phi = make_phi(grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(s, grid, phi, mode="dirichlet")
    assert cert.valid and abs(cert.h_certified - 1.0) <= 1e-12
    # V leaves through x_max at unit speed, so it is no neumann certificate
    cert = cc.mfmc_certify(s, grid, phi, mode="neumann")
    assert not cert.valid and cert.boundary_inward_min == -1.0


def test_certificate_sound_against_superlevel_sets(grushin, grushin_grid):
    # the certified h must sit below every super-level upper bound coming
    # from boundary-vanishing trial functions
    X, Y = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    trials = [
        np.sin(np.pi * X),
        np.sin(np.pi * X) * (2.0 + np.cos(Y)) / 3.0,
        4.0 * X * (1.0 - X),
        np.sin(np.pi * X) ** 2,
    ]
    for u in trials:
        _, _, upper = cc.upper_bound(grushin, grushin_grid, "dirichlet", u.ravel(), 40)
        assert upper >= cert.h_certified - 1e-9


# ---------------------------------------------------------------------------
# upper bound for the Dirichlet constant
# ---------------------------------------------------------------------------

def test_dirichlet_upper_bound_brackets_constant(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    _, _, upper = cc.upper_bound(grushin, grushin_grid, "dirichlet",
                                 np.sin(np.pi * X).ravel(), 40)
    # super-level bands (a, 1-a) x S^1 give sigma = 4 pi, vol = (1-2a) 2 pi,
    # so the bound tends to 2 from above
    assert 2.0 - 1e-9 <= upper <= 2.4
    # and stays above any valid certificate (here h = 1)
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert upper >= cert.h_certified - 1e-9


def test_dirichlet_upper_requires_vanishing_trace(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    with pytest.raises(ValueError, match="does not vanish"):
        cc.upper_bound(grushin, grushin_grid, "dirichlet", X.ravel(), 40)
    with pytest.raises(ValueError, match="identically zero"):
        cc.dirichlet_cheeger_upper(grushin, grushin_grid,
                                   np.zeros(grushin_grid.n_nodes), [])


def superlevel_oracle(structure, grid, u, n_levels):
    """Cuts at the (i + 1/2) / n_levels quantiles of u's positive values
    inside its open range, each cut on its own (no shared sweep)."""
    values = u if -u.min() <= u.max() else -u
    qs = (np.arange(n_levels) + 0.5) / n_levels
    return [cc.cut_from_level_set(structure, grid, values, float(t))
            for t in np.unique(np.quantile(values[values > 0.0], qs))
            if values.min() < t < values.max()]


def test_upper_bound_follows_the_flavor(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    u = np.sin(np.pi * X).ravel()
    level_cuts = superlevel_oracle(grushin, grushin_grid, u, 12)
    two_sided = [c.ratio for c in level_cuts if np.isfinite(c.ratio)]
    cuts, best, h = cc.upper_bound(grushin, grushin_grid, "dirichlet", u, 12)
    assert [c.ratio for c in cuts] == two_sided
    assert h == cc.dirichlet_cheeger_upper(grushin, grushin_grid, u, level_cuts)
    assert (best.sigma, best.vol1) in [(c.sigma, c.vol1) for c in level_cuts]
    assert h == best.sigma / best.vol1 < best.ratio
    cuts, best, h = cc.upper_bound(grushin, grushin_grid, "mixed", u, 12)
    assert [c.ratio for c in cuts] == two_sided and h == min(two_sided) == best.ratio
    # neumann adds the cylinder's closed-form families to the best level cut
    cuts, best, h = cc.upper_bound(grushin, grushin_grid, "neumann",
                                   np.cos(np.pi * X).ravel(), 12)
    assert [c.kind for c in cuts].count("level_set") == 1
    assert {"vertical_circle", "line_pair"} <= {c.kind for c in cuts}
    assert h == min(c.ratio for c in cuts) == pytest.approx(1.0 / np.pi, rel=1e-9)
    assert any(c is best for c in cuts) and h == best.ratio
    with pytest.raises(ValueError, match="flavor"):
        cc.upper_bound(grushin, grushin_grid, "robin", u, 12)


def test_perimeter_quadrature_failure_is_a_convergence_error():
    # integrable, but the midpoint rule converges like h^(1/2) through x = 0.55
    e = cc.compile_expression
    singular = cc.CCStructure(cc.Chart2D((0.0, 1.0), (0.0, 1.0)),
                              ((e("1"), e("0")), (e("0"), e("1"))),
                              density=e("1/sqrt(abs(x-0.55))"))
    with pytest.raises(cc.ConvergenceError, match="perimeter quadrature did not reach"):
        cc.horizontal_perimeter(singular, (((0.0, 0.5), (1.0, 0.5)),))


@pytest.mark.parametrize("flavor, cause", [
    ("dirichlet", "no positive level produced a non-empty region"),
    ("mixed", "no level produced a two-sided cut"),
    ("neumann", "no level produced a two-sided cut"),
])
def test_upper_bound_without_an_admissible_cut_is_a_convergence_error(euclidean, flavor,
                                                                      cause):
    # u is 1 at the one interior node of a 3x3 grid: no level set encloses
    # a cell, and upper_bound names the grid and the level count
    grid = cc.build_grid(euclidean.chart, 3, 3)
    u = np.zeros(grid.n_nodes)
    u[4] = 1.0
    with pytest.raises(cc.ConvergenceError, match=f"^{cause} on the 3x3 grid with 4 levels$"):
        cc.upper_bound(euclidean, grid, flavor, u, 4)


def test_certificate_h_lower_for_each_flavor(grushin, grushin_grid):
    import dataclasses

    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert cert.h_lower_for("dirichlet") == cert.h_certified
    assert cert.h_lower_for("neumann") is None and cert.h_lower_for("mixed") is None
    assert dataclasses.replace(cert, valid=False).h_lower_for("dirichlet") is None
    # a valid neumann-mode certificate supplies no h_lower, even for neumann
    inward = dataclasses.replace(cert, mode="neumann")
    assert inward.valid and inward.h_lower_for("neumann") is None


# ---------------------------------------------------------------------------
# inequality reports
# ---------------------------------------------------------------------------

def test_verify_inequality_basic():
    report = cc.verify_inequality(0.3248, 2.0 / np.pi, "neumann")
    assert report.satisfied
    assert report.lower_bound == pytest.approx((1.0 / np.pi) ** 2, rel=1e-12)
    assert report.slack == pytest.approx(0.3248 - (1.0 / np.pi) ** 2, rel=1e-12)
    failing = cc.verify_inequality(0.09, 2.0 / np.pi, "neumann")
    assert not failing.satisfied and failing.slack < 0


def test_verify_inequality_with_certificate(grushin, grushin_grid):
    X, _ = grushin_grid.meshes()
    phi = make_phi(grushin_grid, X.ravel(), 0.0)
    cert = cc.mfmc_certify(grushin, grushin_grid, phi, mode="dirichlet")
    assert cert.valid and cert.supplies_h_lower
    report = cc.verify_inequality(np.pi**2, cert.h_certified, "dirichlet")
    assert report.satisfied
    assert report.h_lower == cert.h_certified
    assert report.lower_bound == pytest.approx(0.25, abs=1e-9)


def test_verify_inequality_trivial_and_kinds():
    assert cc.verify_inequality(0.0, 0.0, "mixed").satisfied
    with pytest.raises(ValueError):
        cc.verify_inequality(1.0, 0.5, "robin")
    d = cc.verify_inequality(1.0, 2.0, "dirichlet").to_dict()
    assert d["satisfied"] and d["lambda"] == 1.0 and d["lower_bound"] == 1.0


# ---------------------------------------------------------------------------
# coarea identity
# ---------------------------------------------------------------------------

def test_coarea_linear_function(grushin):
    grid = cc.build_grid(grushin.chart, 64, 64)
    X, _ = grid.meshes()
    report = cc.coarea_check(grushin, grid, X.ravel(), n_levels=200)
    # |grad_H x| = 1, so both sides equal the volume 2 pi
    assert report.lhs == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert report.rel_gap <= 0.01


def test_coarea_gap_shrinks_with_levels(grushin):
    grid = cc.build_grid(grushin.chart, 48, 48)
    X, _ = grid.meshes()
    coarse = cc.coarea_check(grushin, grid, X.ravel(), n_levels=100)
    fine = cc.coarea_check(grushin, grid, X.ravel(), n_levels=400)
    assert fine.rel_gap < coarse.rel_gap


def test_coarea_oscillatory(grushin):
    grid = cc.build_grid(grushin.chart, 64, 64)
    X, Y = grid.meshes()
    u = (np.sin(np.pi * X) * np.sin(Y)).ravel()
    report = cc.coarea_check(grushin, grid, u, n_levels=200)
    assert report.rel_gap <= 0.02


def test_coarea_rejects_constant(grushin, grushin_grid):
    with pytest.raises(ValueError):
        cc.coarea_check(grushin, grushin_grid, np.ones(grushin_grid.n_nodes))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_cuts_csv(tmp_path, grushin, grushin_grid):
    # a Neumann Grushin run lists the closed-form families, then its best level cut
    config = tmp_path / "config.json"
    config.write_text('{"grid": {"nx": 8, "ny": 16}, "cheeger": {"levels": 4}}')
    assert cc.main(["cheeger", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    cuts = cc.candidate_cuts_grushin(grushin, grushin_grid)
    path = tmp_path / "cuts.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,sigma,vol1,vol2,ratio"
    assert len(lines) == 1 + len(cuts) + 1
    assert "np.float64" not in path.read_text()
    row = lines[1].split(",")
    assert row[0] == "vertical_circle"
    assert float(row[4]) == pytest.approx(cuts[0].ratio, rel=1e-15)
