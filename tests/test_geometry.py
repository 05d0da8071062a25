"""Charts, generating families, horizontal fields and their divergence, and
the assembled operator as a discretization of the sub-Laplacian."""

import numpy as np
import pytest

import ccspectral as cc

RIGID = dict(rtol=0.0, atol=1e-12)


def make_grushin_fields():
    return (
        (cc.constant_coefficient(1.0), cc.constant_coefficient(0.0)),
        (cc.constant_coefficient(0.0), lambda x, y: np.asarray(x, dtype=float)),
    )


@pytest.fixture()
def grushin_strip():
    # Grushin-type fields on a plain (non-periodic) rectangle, so that
    # polynomial test functions are smooth across every stencil.
    chart = cc.Chart2D((0.0, 1.0), (0.0, 2.0))
    return cc.CCStructure(chart=chart, field_coeffs=make_grushin_fields(),
                          density=cc.constant_coefficient(1.0), name="grushin-strip")


def grid_and_meshes(structure, nx, ny):
    grid = cc.build_grid(structure.chart, nx, ny)
    X, Y = grid.meshes()
    return grid, X, Y


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_chart_lengths():
    chart = cc.Chart2D((0.0, 1.0), (-1.0, 3.0))
    assert chart.x_length == 1.0
    assert chart.y_length == 4.0


def test_chart_rejects_empty_ranges():
    with pytest.raises(ValueError):
        cc.Chart2D((1.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        cc.Chart2D((0.0, 1.0), (2.0, -1.0))


def test_wrap_periodic_axis():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 2.0 * np.pi), periodic_y=True)
    x, y = chart.wrap(np.array([0.3]), np.array([2.0 * np.pi + 0.25]))
    assert x[0] == pytest.approx(0.3, abs=0)
    assert y[0] == pytest.approx(0.25, abs=1e-12)


def test_wrap_leaves_nonperiodic_axis_alone():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    x, y = chart.wrap(np.array([1.7]), np.array([-0.3]))
    assert x[0] == 1.7 and y[0] == -0.3


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def test_builtin_grushin_coefficients(grushin):
    coeffs = grushin.coefficients_at(np.array([0.5]), np.array([1.0]))
    assert coeffs.shape == (2, 2, 1)
    assert coeffs[0, 0, 0] == 1.0 and coeffs[0, 1, 0] == 0.0
    assert coeffs[1, 0, 0] == 0.0 and coeffs[1, 1, 0] == 0.5


def test_structure_requires_fields():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        cc.CCStructure(chart=chart, field_coeffs=(),
                       density=cc.constant_coefficient(1.0))


def test_density_must_be_positive():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    s = cc.CCStructure(chart=chart, field_coeffs=make_grushin_fields(),
                       density=lambda x, y: np.asarray(x, dtype=float) - 0.5)
    with pytest.raises(ValueError):
        s.density_at(np.array([0.25]), np.array([0.0]))


def test_nonfinite_coefficients_rejected():
    chart = cc.Chart2D((0.0, 1.0), (0.0, 1.0))
    s = cc.CCStructure(chart=chart,
                       field_coeffs=((lambda x, y: 1.0 / np.asarray(x, dtype=float),
                                      cc.constant_coefficient(0.0)),),
                       density=cc.constant_coefficient(1.0))
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            s.coefficients_at(np.array([0.0]), np.array([0.0]))


def test_chart_mismatch_detected(grushin):
    other = cc.build_grid(cc.Chart2D((0.0, 2.0), (0.0, 1.0)), 8, 8)
    V = cc.HorizontalField(grid=other, phi=np.zeros((2, other.n_nodes)))
    with pytest.raises(ValueError, match="different charts"):
        cc.divergence(grushin, V)


# ---------------------------------------------------------------------------
# horizontal fields and their divergence
# ---------------------------------------------------------------------------

def test_squared_length_is_sum_of_squares(grushin_strip):
    grid, X, Y = grid_and_meshes(grushin_strip, 9, 9)
    phi = np.stack([np.sin(X).ravel(), (X * Y).ravel()])
    V = cc.HorizontalField(grid=grid, phi=phi)
    assert np.allclose(V.squared_length(), phi[0]**2 + phi[1]**2, **RIGID)


def test_horizontal_field_shape_checked(grushin_strip):
    grid = cc.build_grid(grushin_strip.chart, 6, 5)
    for phi in (np.zeros(grid.n_nodes), np.zeros((2, grid.n_nodes - 1))):
        with pytest.raises(ValueError, match="phi must have shape"):
            cc.HorizontalField(grid=grid, phi=phi)


def test_divergence_linearity(grushin):
    # The divergence is linear in V, with a non-constant density and across
    # the periodic seam in y.
    s = cc.CCStructure(chart=grushin.chart, field_coeffs=grushin.field_coeffs,
                       density=lambda x, y: 1.0 + np.asarray(x, dtype=float)**2)
    grid = cc.build_grid(s.chart, 12, 16)
    rng = np.random.default_rng(3)
    phi, psi = rng.standard_normal((2, 2, grid.n_nodes))

    def div(p):
        return cc.divergence(s, cc.HorizontalField(grid=grid, phi=p))

    combined = div(2.0 * phi - 0.5 * psi)
    assert np.allclose(combined, 2.0 * div(phi) - 0.5 * div(psi), rtol=1e-12, atol=1e-11)


def test_divergence_exact_on_quadratic_flux(grushin_strip):
    # Centered interior and one-sided second-order edge stencils are exact
    # on quadratic fluxes: V = x^2 X_1 + y^2 X_2 has chart components
    # (x^2, x y^2), so div V = 2x + 2xy on every node, edges included.
    grid, X, Y = grid_and_meshes(grushin_strip, 9, 11)
    V = cc.HorizontalField(grid=grid, phi=np.stack([(X**2).ravel(), (Y**2).ravel()]))
    assert np.allclose(cc.divergence(grushin_strip, V), 2.0 * X + 2.0 * X * Y, **RIGID)


def test_divergence_periodic_seam(grushin):
    # On the cylinder, V = sin(y) X_2 has chart components (0, x sin y); the
    # wrap-around centered difference gives x cos(y) sin(h)/h exactly, on
    # the seam rows y = 0 and y = 2 pi - h as in the interior.
    grid, X, Y = grid_and_meshes(grushin, 9, 24)
    V = cc.HorizontalField(grid=grid,
                           phi=np.stack([np.zeros(grid.n_nodes), np.sin(Y).ravel()]))
    h = grid.hy
    assert np.allclose(cc.divergence(grushin, V), X * np.cos(Y) * np.sin(h) / h, **RIGID)


def test_divergence_of_radial_flow_is_constant(grushin_strip):
    grid, X, Y = grid_and_meshes(grushin_strip, 21, 21)
    V = cc.HorizontalField(grid=grid,
                           phi=np.stack([X.ravel(), np.zeros(grid.n_nodes)]))
    div = cc.divergence(grushin_strip, V)
    assert div.shape == (grid.nx, grid.ny)
    assert np.allclose(div, 1.0, **RIGID)


def test_divergence_sees_the_density():
    # With a weight the divergence picks up the logarithmic derivative:
    # div(V) = (1/rho) d/dx (rho vx) = 3 for rho = x^2, V = x d/dx.  The
    # weighted flux x^3 is cubic, so the stencil error is O(h^2).
    chart = cc.Chart2D((1.0, 2.0), (0.0, 1.0))
    s = cc.CCStructure(chart=chart,
                       field_coeffs=((cc.constant_coefficient(1.0),
                                      cc.constant_coefficient(0.0)),),
                       density=lambda x, y: np.asarray(x, dtype=float)**2)
    errors = []
    for nx in (41, 81):
        grid = cc.build_grid(chart, nx, 9)
        X, Y = grid.meshes()
        V = cc.HorizontalField(grid=grid, phi=X.ravel()[None, :])
        div = cc.divergence(s, V)
        errors.append(np.abs(div - 3.0).max())
    assert errors[0] <= 2e-3
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


# ---------------------------------------------------------------------------
# the assembled operator as a sub-Laplacian
# ---------------------------------------------------------------------------

def sub_laplacian(structure, grid, u):
    """-(A u) / mass on every node: the assembled energy operator, which is
    minus the sub-Laplacian weighted by the lumped mass."""
    forms = cc.assemble(structure, grid, cc.BoundarySpec.all_neumann())
    return (-(forms.A @ u.ravel()) / forms.mass).reshape(grid.nx, grid.ny)


def test_sub_laplacian_euclidean_convergence(euclidean):
    errors = []
    for n in (17, 33, 65):
        grid, X, Y = grid_and_meshes(euclidean, n, n)
        u = np.sin(np.pi * X) * np.sin(np.pi * Y)
        lap = sub_laplacian(euclidean, grid, u)
        exact = -2.0 * np.pi**2 * u
        interior = (slice(1, -1), slice(1, -1))
        errors.append(np.abs(lap[interior] - exact[interior]).max())
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
    assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)


def test_sub_laplacian_grushin_mode(grushin):
    # u = sin(y) on the cylinder: the operator reduces to x^2 d^2/dy^2.
    errors = []
    for ny in (32, 64):
        grid, X, Y = grid_and_meshes(grushin, 2 * ny + 1, ny)
        lap = sub_laplacian(grushin, grid, np.sin(Y))
        exact = -(X**2) * np.sin(Y)
        errors.append(np.abs(lap - exact)[1:-1].max())  # rows off x = 0, 1
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


def test_rotated_family_invariance(euclidean):
    # Recombining the generating fields by a rotation leaves the horizontal
    # energy, hence the assembled operator, unchanged to the bit.
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    rotated = cc.CCStructure(
        chart=euclidean.chart,
        field_coeffs=((cc.constant_coefficient(c), cc.constant_coefficient(s)),
                      (cc.constant_coefficient(-s), cc.constant_coefficient(c))),
        density=cc.constant_coefficient(1.0), name="rotated")
    grid = cc.build_grid(euclidean.chart, 25, 25)
    A_id, A_rot = (cc.assemble(structure, grid, cc.BoundarySpec.all_neumann()).A
                   for structure in (euclidean, rotated))
    assert np.array_equal(A_id.indptr, A_rot.indptr)
    assert np.array_equal(A_id.indices, A_rot.indices)
    assert np.array_equal(A_id.data, A_rot.data)
