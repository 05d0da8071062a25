"""Carnot-Caratheodory structures on 2D rectangular charts.

A structure is a generating family of horizontal vector fields
X_i = a_i1(x,y) d/dx + a_i2(x,y) d/dy together with a positive density
rho defining the volume form omega = rho dx dy.  The module also
samples horizontal fields V = sum_i phi_i X_i on grid nodes and takes
their omega-divergence, which the flow certificates of the cheeger module
read.  Its derivatives are second-order centered differences, with
one-sided second-order stencils on non-periodic edges and wrap-around on
periodic ones.  The sub-Laplacian itself is the operator of the energy
form that the discretization module assembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # only for annotations; discretization imports this module
    from .discretization import Grid2D

Coefficient = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Chart2D:
    """Axis-aligned rectangular chart, optionally periodic along each axis."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    periodic_x: bool = False
    periodic_y: bool = False

    def __post_init__(self):
        for name in ("x_range", "y_range"):
            lo, hi = (float(v) for v in getattr(self, name))
            object.__setattr__(self, name, (lo, hi))
            if not hi > lo:
                raise ValueError(f"{name} must have positive length, got {(lo, hi)}")

    @property
    def x_length(self) -> float:
        return self.x_range[1] - self.x_range[0]

    @property
    def y_length(self) -> float:
        return self.y_range[1] - self.y_range[0]

    def wrap(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map coordinates into the fundamental domain along periodic axes."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.periodic_x:
            x = self.x_range[0] + np.mod(x - self.x_range[0], self.x_length)
        if self.periodic_y:
            y = self.y_range[0] + np.mod(y - self.y_range[0], self.y_length)
        return x, y


def constant_coefficient(value: float) -> Coefficient:
    """Coefficient function that is identically ``value``."""

    def fn(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.full(shape, float(value))

    return fn


@dataclass(frozen=True)
class CCStructure:
    """Generating family (a_i1, a_i2) plus density rho on a chart.

    Coefficient callables must accept numpy arrays and broadcast; scalar
    returns are broadcast automatically at evaluation time.
    """

    chart: Chart2D
    field_coeffs: tuple[tuple[Coefficient, Coefficient], ...]
    density: Coefficient
    name: str = "custom"

    def __post_init__(self):
        if len(self.field_coeffs) == 0:
            raise ValueError("at least one horizontal field is required")
        for pair in self.field_coeffs:
            if len(pair) != 2:
                raise ValueError("each field needs exactly two coefficient functions")

    @property
    def m(self) -> int:
        """Number of generating fields."""
        return len(self.field_coeffs)

    def coefficients_at(self, x, y) -> np.ndarray:
        """Evaluate the coefficient matrix; shape (m, 2) + broadcast(x, y)."""
        xw, yw = self.chart.wrap(x, y)
        out = np.empty((self.m, 2) + np.broadcast_shapes(np.shape(xw), np.shape(yw)))
        for i, pair in enumerate(self.field_coeffs):
            for j, fn in enumerate(pair):
                out[i, j] = _sample(f"field {i} component {j}", fn, xw, yw)
        return out

    def density_at(self, x, y) -> np.ndarray:
        """Evaluate rho; raises SampleError on non-positive or non-finite samples."""
        xw, yw = self.chart.wrap(x, y)
        return _sample("density", self.density, xw, yw, positive=True)


class SampleError(ValueError):
    """A coefficient or density sample that is not finite (or a density
    sample that is not positive); the message names the function, its source
    when it is a compiled expression, the first failing sample point and,
    for a compiled expression that is not finite there, the operation that
    first went non-finite."""

    def __init__(self, name: str, fn, problem: str, values, x, y):
        bad = ~np.isfinite(values) if problem == "not finite" else ~(values > 0.0)
        index = tuple(np.argwhere(bad)[0])
        px, py = (float(np.broadcast_to(c, bad.shape)[index]) for c in (x, y))
        label = f"{name} {fn.source!r}" if hasattr(fn, "source") else name
        cause = (fn.first_non_finite(px, py)
                 if problem == "not finite" and hasattr(fn, "first_non_finite") else None)
        super().__init__(f"{label} is {problem} at (x, y) = ({px!r}, {py!r}): "
                         f"sample {float(values[index])!r}" + (f"; {cause}" if cause else ""))


def _sample(name: str, fn: Coefficient, x, y, positive: bool = False) -> np.ndarray:
    """``fn`` at the points (x, y), broadcast to their shape; raises
    SampleError, under ``name``, at the first sample that is not finite or,
    when ``positive`` is set, not positive."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.broadcast_to(np.asarray(fn(x, y), dtype=float), shape)
    if not np.all(np.isfinite(values)):
        raise SampleError(name, fn, "not finite", values, x, y)
    if positive and np.any(values <= 0.0):
        raise SampleError(name, fn, "not positive", values, x, y)
    return values


def builtin_grushin_cylinder() -> CCStructure:
    """Grushin cylinder: chart (0,1) x S^1, fields d/dx and x d/dy, rho = 1."""
    chart = Chart2D((0.0, 1.0), (0.0, 2.0 * np.pi), periodic_x=False, periodic_y=True)
    fields = (
        (constant_coefficient(1.0), constant_coefficient(0.0)),
        (constant_coefficient(0.0), lambda x, y: np.asarray(x, dtype=float)),
    )
    return CCStructure(chart=chart, field_coeffs=fields,
                       density=constant_coefficient(1.0), name="grushin-cylinder")


def builtin_euclidean(x_range: tuple[float, float] = (0.0, 1.0),
                      y_range: tuple[float, float] = (0.0, 1.0),
                      periodic_x: bool = False,
                      periodic_y: bool = False) -> CCStructure:
    """Flat structure: fields d/dx and d/dy, rho = 1."""
    chart = Chart2D(x_range, y_range, periodic_x=periodic_x, periodic_y=periodic_y)
    fields = (
        (constant_coefficient(1.0), constant_coefficient(0.0)),
        (constant_coefficient(0.0), constant_coefficient(1.0)),
    )
    return CCStructure(chart=chart, field_coeffs=fields,
                       density=constant_coefficient(1.0), name="euclidean")


@dataclass(frozen=True)
class HorizontalField:
    """Coefficient functions phi_i of V = sum_i phi_i X_i, sampled on nodes."""

    grid: "Grid2D"
    phi: np.ndarray  # shape (m, n_nodes)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[1] != self.grid.n_nodes:
            raise ValueError(f"phi must have shape (m, {self.grid.n_nodes}), got {phi.shape}")
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    def squared_length(self) -> np.ndarray:
        """Pointwise |V|^2 = sum_i phi_i^2 on nodes."""
        return np.sum(self.phi**2, axis=0)

    def chart_components(self, structure: CCStructure) -> tuple[np.ndarray, np.ndarray]:
        """Components of V in the chart frame (d/dx, d/dy), on nodes."""
        _check_compatible(structure, self.grid)
        X, Y = self.grid.meshes()
        coeffs = structure.coefficients_at(X, Y)  # (m, 2, nx, ny)
        phi2 = self.phi.reshape(self.m, self.grid.nx, self.grid.ny)
        vx = np.einsum("ixy,ixy->xy", phi2, coeffs[:, 0])
        vy = np.einsum("ixy,ixy->xy", phi2, coeffs[:, 1])
        return vx, vy


def _check_compatible(structure: CCStructure, grid: "Grid2D") -> None:
    if grid.chart != structure.chart:
        raise ValueError("grid and structure live on different charts")


def _d_axis(values2d: np.ndarray, h: float, periodic: bool, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis of a node array."""
    if periodic:
        return (np.roll(values2d, -1, axis=axis) - np.roll(values2d, 1, axis=axis)) / (2.0 * h)
    return np.gradient(values2d, h, axis=axis, edge_order=2)


def divergence(structure: CCStructure, V: HorizontalField) -> np.ndarray:
    """Divergence of V with respect to omega = rho dx dy, on the (nx, ny) nodes.

    Computed as (d(rho Vx)/dx + d(rho Vy)/dy) / rho, where (Vx, Vy) are
    the chart components of V; this is the unique function with
    L_V omega = (div V) omega.
    """
    grid = V.grid
    _check_compatible(structure, grid)
    X, Y = grid.meshes()
    rho = structure.density_at(X, Y)
    vx, vy = V.chart_components(structure)
    fx = rho * vx
    fy = rho * vy
    return (_d_axis(fx, grid.hx, grid.chart.periodic_x, axis=0)
            + _d_axis(fy, grid.hy, grid.chart.periodic_y, axis=1)) / rho
