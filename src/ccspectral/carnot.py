"""Heisenberg groups and homogeneous-dimension bookkeeping.

Points of the (2n+1)-dimensional Heisenberg group are (z, t) with z in
C^n and t real; the product is (z, t)(z', t') = (z + z', t + t' +
2 Im<z, z'>) with <z, z'> = sum_i z_i conj(z'_i).  The gauge
N(z, t) = max(|z|, |t|^(1/2)) is homogeneous under the dilations
delta_r(z, t) = (r z, r^2 t) and satisfies the triangle inequality
exactly, so d(p, q) = N(p^{-1} q) is a metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class HeisenbergPoint:
    """A point (z, t); z is a complex vector of length n, t a real number."""

    z: np.ndarray
    t: float

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        if z.ndim != 1 or z.size == 0:
            raise ValueError(f"z must be a non-empty complex vector, got shape {z.shape}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.z.size


def _check_same_group(p: HeisenbergPoint, q: HeisenbergPoint) -> None:
    if p.n != q.n:
        raise ValueError(f"points live in different groups (n={p.n} vs n={q.n})")


def h_identity(n: int) -> HeisenbergPoint:
    return HeisenbergPoint(z=np.zeros(n, dtype=complex), t=0.0)


def h_mul(p: HeisenbergPoint, q: HeisenbergPoint) -> HeisenbergPoint:
    """Group product (z+z', t+t'+2 Im<z, z'>)."""
    _check_same_group(p, q)
    twist = 2.0 * float(np.imag(np.sum(p.z * np.conj(q.z))))
    return HeisenbergPoint(z=p.z + q.z, t=p.t + q.t + twist)


def h_inv(p: HeisenbergPoint) -> HeisenbergPoint:
    """Group inverse (-z, -t)."""
    return HeisenbergPoint(z=-p.z, t=-p.t)


def h_norm(p: HeisenbergPoint) -> float:
    """Homogeneous gauge N(z, t) = max(|z|, sqrt(|t|))."""
    return max(float(np.linalg.norm(p.z)), float(np.sqrt(abs(p.t))))


def d_infty(p: HeisenbergPoint, q: HeisenbergPoint) -> float:
    """Left-invariant homogeneous distance N(p^{-1} q)."""
    return h_norm(h_mul(h_inv(p), q))


def dilate(r: float, p: HeisenbergPoint) -> HeisenbergPoint:
    """Anisotropic dilation delta_r(z, t) = (r z, r^2 t), r > 0."""
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    return HeisenbergPoint(z=r * p.z, t=r * r * p.t)


@dataclass(frozen=True)
class CarnotSpec:
    """Stratification data: dimensions of the layers V_1, V_2, ..."""

    strata_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.strata_dims)
        object.__setattr__(self, "strata_dims", dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError(f"strata dimensions must be positive, got {dims}")


def heisenberg_spec(n: int) -> CarnotSpec:
    """Stratification of the (2n+1)-dimensional Heisenberg group."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return CarnotSpec(strata_dims=(2 * n, 1))


def homogeneous_dimension(spec: CarnotSpec) -> int:
    """Q = sum_j j * dim V_j."""
    return sum((j + 1) * d for j, d in enumerate(spec.strata_dims))


def unit_ball_volumes(count: int) -> list[float]:
    """Volumes omega_0, ..., omega_(count-1) of the Euclidean unit balls,
    omega_a = pi^(a/2) / Gamma(1 + a/2), in one pass of the two-step
    recurrence omega_a = omega_(a-2) / a * 2 pi from omega_0 = 1 and
    omega_1 = 2.  omega_a peaks at a = 5 and falls from there on, so the
    product never overflows; for a in the hundreds it underflows to 0."""
    omegas = [1.0, 2.0][:max(count, 0)]
    for a in range(2, count):
        # the least rounding error of the orders tried
        omegas.append(omegas[a - 2] / a * 2.0 * np.pi)
    return omegas


def unit_ball_volume(a: int) -> float:
    """Volume omega_a of the Euclidean unit a-ball, for integer a >= 0;
    see unit_ball_volumes."""
    a_int = int(round(float(a)))
    if abs(float(a) - a_int) > 1e-12 or a_int < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {a}")
    return unit_ball_volumes(a_int + 1)[a_int]


def hausdorff_constant_heisenberg(n: int) -> float:
    """Ratio alpha between the (Q-1)-dimensional spherical Hausdorff measure
    and the horizontal perimeter on the (2n+1)-Heisenberg group:
    alpha = 2 omega_{2n-1} / omega_{Q-1} with Q = 2n + 2.

    With omega_a = pi^(a/2) / Gamma(1 + a/2) this is
    2 pi^(n-1/2) Gamma(n+3/2) / (pi^(n+1/2) Gamma(n+1/2)) = 2 (n+1/2) / pi,
    since Gamma(n+3/2) = (n+1/2) Gamma(n+1/2); so alpha = (2n+1)/pi, which
    for n = 1 is 3/pi.  The closed form stays finite where omega_{Q-1}
    underflows (n >= 200 or so).
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return (2 * int(n) + 1) / np.pi
