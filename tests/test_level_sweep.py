"""The level-set sweep: marching only crossing cells, one sweep per function.

The oracle below is the full-grid marching squares the sweep replaced: it
gathers all four corners of every cell and interpolates all four edges for
each level.  The sweep must reproduce its segments bitwise, in order.
"""

import numpy as np
import pytest

import ccspectral as cc
from ccspectral import cheeger

# Corner bits BL=1, BR=2, TR=4, TL=8; (entry edge, exit edge) pairs per case.
_MS_TABLE = {
    0: (), 15: (),
    1: (("l", "b"),), 14: (("l", "b"),),
    2: (("b", "r"),), 13: (("b", "r"),),
    4: (("r", "t"),), 11: (("r", "t"),),
    8: (("t", "l"),), 7: (("t", "l"),),
    3: (("l", "r"),), 12: (("l", "r"),),
    6: (("b", "t"),), 9: (("b", "t"),),
}
_MS_SADDLE_HIGH = {5: (("b", "r"), ("t", "l")), 10: (("l", "b"), ("r", "t"))}
_MS_SADDLE_LOW = {5: (("l", "b"), ("r", "t")), 10: (("b", "r"), ("t", "l"))}


def full_grid_level_segments(grid, values2d, t):
    nx, ny = grid.nx, grid.ny
    ix = np.arange(grid.n_cells_x)
    iy = np.arange(grid.n_cells_y)
    ixp = (ix + 1) % nx
    iyp = (iy + 1) % ny
    w00 = values2d[np.ix_(ix, iy)]
    w10 = values2d[np.ix_(ixp, iy)]
    w01 = values2d[np.ix_(ix, iyp)]
    w11 = values2d[np.ix_(ixp, iyp)]
    case = ((w00 > t).astype(int) + 2 * (w10 > t) + 4 * (w11 > t) + 8 * (w01 > t))

    x0 = grid.chart.x_range[0] + grid.hx * ix
    y0 = grid.chart.y_range[0] + grid.hy * iy
    X0, Y0 = np.meshgrid(x0, y0, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        sb = np.clip((t - w00) / (w10 - w00), 0.0, 1.0)
        sr = np.clip((t - w10) / (w11 - w10), 0.0, 1.0)
        st = np.clip((t - w01) / (w11 - w01), 0.0, 1.0)
        sl = np.clip((t - w00) / (w01 - w00), 0.0, 1.0)
    points = {
        "b": (X0 + sb * grid.hx, Y0),
        "r": (X0 + grid.hx, Y0 + sr * grid.hy),
        "t": (X0 + st * grid.hx, Y0 + grid.hy),
        "l": (X0, Y0 + sl * grid.hy),
    }
    out = []

    def emit(cells, pairs):
        for ea, eb in pairs:
            ax, ay = points[ea]
            bx, by = points[eb]
            out.append(np.stack([np.stack([ax[cells], ay[cells]], axis=-1),
                                 np.stack([bx[cells], by[cells]], axis=-1)], axis=1))

    for k, pairs in _MS_TABLE.items():
        if pairs and np.any(case == k):
            emit(case == k, pairs)
    center_high = (w00 + w10 + w01 + w11) > 4.0 * t
    for k in (5, 10):
        cells = case == k
        if np.any(cells & center_high):
            emit(cells & center_high, _MS_SADDLE_HIGH[k])
        if np.any(cells & ~center_high):
            emit(cells & ~center_high, _MS_SADDLE_LOW[k])
    if not out:
        return np.zeros((0, 2, 2))
    segs = np.concatenate(out, axis=0)
    lengths = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    return segs[lengths > 0.0]


def saddle_kinds(grid, values2d, t):
    """Set of (case, center_high) over the saddle cells of level t."""
    sweep = cheeger._LevelSweep(None, grid, values2d)
    w00, w10, w11, w01 = sweep.corners
    case = (w00 > t).astype(int) + 2 * (w10 > t) + 4 * (w11 > t) + 8 * (w01 > t)
    high = sweep.corner_sum > 4.0 * t
    return {(int(k), bool(h)) for k, h in zip(case.ravel(), high.ravel()) if k in (5, 10)}


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


PERIODIC = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("periodic_x, periodic_y", PERIODIC)
def test_segments_match_full_grid_oracle(periodic_x, periodic_y):
    structure = cc.builtin_euclidean((0.0, 2.0), (-1.0, 1.0), periodic_x, periodic_y)
    grid = cc.build_grid(structure.chart, 19, 23)
    X, Y = grid.meshes()
    rng = np.random.default_rng(7)
    functions = {
        "smooth": np.sin(np.pi * X) * np.cos(2.0 * np.pi * Y) + 0.3 * X,
        "noise": rng.standard_normal((grid.nx, grid.ny)),
        # plateaus: levels equal to a flat region's value
        "flat": np.round(np.sin(np.pi * X) * np.cos(np.pi * Y), 1),
    }
    saddles = set()
    for name, values2d in functions.items():
        sweep = cheeger._LevelSweep(structure, grid, values2d)
        node_levels = np.unique(values2d)[1:-1:max(1, values2d.size // 25)]
        levels = np.concatenate([np.linspace(values2d.min(), values2d.max(), 13)[1:-1],
                                 node_levels, [0.0]])
        for t in levels:
            expected = full_grid_level_segments(grid, values2d, float(t))
            assert_bitwise(cheeger._level_segments(grid, values2d, float(t)), expected)
            assert_bitwise(cheeger._level_segments(grid, values2d, float(t), sweep), expected)
            saddles |= saddle_kinds(grid, values2d, float(t))
    # both saddle cases, each with both corner-average signs, were exercised
    assert saddles == {(5, True), (5, False), (10, True), (10, False)}


def test_segments_at_node_values_and_on_plateaus():
    structure = cc.builtin_euclidean()
    grid = cc.build_grid(structure.chart, 9, 9)
    X, Y = grid.meshes()
    values2d = np.where(X + Y > 1.0, 1.0, 0.0) + np.where(X > 0.5, 0.5, 0.0)
    for t in (0.0, 0.5, 1.0, 1.5, 0.25, 1.25):
        expected = full_grid_level_segments(grid, values2d, t)
        got = cheeger._level_segments(grid, values2d, t)
        assert_bitwise(got, expected)
    # a level on a plateau value cuts along the plateau's edge, not through it
    assert cheeger._level_segments(grid, values2d, 0.5).shape[0] > 0
    assert cheeger._level_segments(grid, values2d, 1.5).shape[0] == 0


def test_cut_matches_oracle_volumes(grushin, grushin_grid):
    X, Y = grushin_grid.meshes()
    values2d = np.sin(np.pi * X) * (2.0 + np.cos(Y))
    ix = np.arange(grushin_grid.n_cells_x)
    iy = np.arange(grushin_grid.n_cells_y)
    ixp, iyp = (ix + 1) % grushin_grid.nx, (iy + 1) % grushin_grid.ny
    center = (values2d[np.ix_(ix, iy)] + values2d[np.ix_(ixp, iy)]
              + values2d[np.ix_(ix, iyp)] + values2d[np.ix_(ixp, iyp)]) / 4.0
    for t in (0.1, 1.0, 2.5):
        cut = cc.cut_from_level_set(grushin, grushin_grid, values2d.ravel(), t)
        segments = full_grid_level_segments(grushin_grid, values2d, t)
        assert_bitwise(cut.segments, segments)
        assert cut.sigma == cc.horizontal_perimeter(grushin, segments)
        assert cut.vol1 == cc.region_volume(grushin, grushin_grid, center > t)
        assert cut.vol2 == cc.region_volume(grushin, grushin_grid, ~(center > t))


def test_dirichlet_upper_is_min_over_level_cuts(grushin, grushin_grid, monkeypatch):
    # the cuts upper_bound hands to dirichlet_cheeger_upper, one-sided ones included
    handed = []
    original = cheeger.dirichlet_cheeger_upper

    def recording(structure, grid, u, cuts):
        handed.append(cuts)
        return original(structure, grid, u, cuts)

    monkeypatch.setattr(cheeger, "dirichlet_cheeger_upper", recording)
    X, Y = grushin_grid.meshes()
    trials = [np.sin(np.pi * X), -np.sin(np.pi * X) * (2.0 + np.cos(Y)) / 3.0,
              4.0 * X * (1.0 - X)]
    for u in trials:
        values = u.ravel() if -u.min() <= u.max() else -u.ravel()
        positives = values[values > 0.0]
        qs = (np.arange(25) + 0.5) / 25
        ratios = []
        for t in np.unique(np.quantile(positives, qs)):
            if values.min() < t < values.max():
                cut = cc.cut_from_level_set(grushin, grushin_grid, values, float(t))
                if len(cut.segments) and cut.vol1 > 0.0:
                    ratios.append(cut.sigma / cut.vol1)
        _, _, upper = cc.upper_bound(grushin, grushin_grid, "dirichlet", u.ravel(), 25)
        cuts = handed.pop()
        assert upper == min(ratios)
        assert len(cuts) == len(ratios)
        assert original(grushin, grushin_grid, u.ravel(), cuts[::-1]) == upper


# Values of the full-grid implementation on the suite's fixtures, printed
# with repr; the sweep must reproduce them exactly.
def test_results_pinned_on_fixtures(grushin, grushin_grid):
    X, Y = grushin_grid.meshes()
    cuts, _, _ = cc.upper_bound(grushin, grushin_grid, "neumann", np.sin(Y).ravel(), 40)
    best = cuts[-1]  # the best level cut comes after the closed-form families
    assert (best.sigma, best.vol1, best.vol2, len(best.segments)) == (
        1.0000000000000007, 3.2724923474893677, 3.010692959690218, 94)
    trials = [np.sin(np.pi * X), np.sin(np.pi * X) * (2.0 + np.cos(Y)) / 3.0,
              4.0 * X * (1.0 - X), np.sin(np.pi * X) ** 2]
    uppers = [cc.upper_bound(grushin, grushin_grid, "dirichlet", u.ravel(), 40)[2]
              for u in trials]
    assert uppers == [2.000000000000003, 1.5914062500000021, 2.088888888888892,
                      2.000000000000003]
    for (nx, ny, n_levels), (lhs, rhs) in {
        (64, 64, 200): (6.283185307179586, 6.251925678785653),
        (48, 48, 100): (6.283185307179586, 6.220975551662955),
        (48, 48, 400): (6.283185307179586, 6.267516515889858),
    }.items():
        grid = cc.build_grid(grushin.chart, nx, ny)
        Xg, _ = grid.meshes()
        report = cc.coarea_check(grushin, grid, Xg.ravel(), n_levels=n_levels)
        assert (report.lhs, report.rhs) == (lhs, rhs)
    grid = cc.build_grid(grushin.chart, 64, 64)
    Xg, Yg = grid.meshes()
    report = cc.coarea_check(grushin, grid, (np.sin(np.pi * Xg) * np.sin(Yg)).ravel(),
                             n_levels=200)
    assert (report.lhs, report.rhs) == (8.46379399929183, 8.463735838487786)


@pytest.mark.parametrize("flavor", ["neumann", "dirichlet", "mixed"])
def test_sweep_evaluates_density_once(grushin, grushin_grid, monkeypatch, flavor):
    X, Y = grushin_grid.meshes()
    u = np.cos(np.pi * X) if flavor == "neumann" else np.sin(np.pi * X)
    calls, levels = [], []
    original = cc.CCStructure.density_at
    original_cut = cheeger.cut_from_level_set

    def counting(self, x, y):
        calls.append(np.size(x))
        return original(self, x, y)

    def counting_cut(*args, **kwargs):
        levels.append(args[3])
        return original_cut(*args, **kwargs)

    monkeypatch.setattr(cc.CCStructure, "density_at", counting)
    monkeypatch.setattr(cheeger, "cut_from_level_set", counting_cut)
    cc.upper_bound(grushin, grushin_grid, flavor, u.ravel(), 20)
    n_cells = grushin_grid.n_cells_x * grushin_grid.n_cells_y
    # one cell-centre evaluation for all levels; the rest is perimeter quadrature
    assert calls.count(n_cells) == 1
    assert len(levels) > 10
