"""Generators of the two semi-discrete schemes and their energy bookkeeping.

Both generators are one O(N) applier over the mesh's sparse scheme matrices,
`apply_generator`: the order-reduction scheme advances a state through the
shadow element (P = D), the classical scheme is the plain second-difference
operator with the same boundary feedback (P = I).  That applier is the only
definition of either generator: the dense generator that the eigensolver
needs, and the dense weighted generator D A D^{-1} that the resolvent needs,
are the applier evaluated on the identity.  A `SemiDiscreteSystem` forms each
of them on first use and keeps it, as a cached property, the way a `Mesh`
keeps its scheme matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Mesh, shadow_element, solve_d, yh_inner, yh_norm

__all__ = [
    "ORDER_REDUCTION",
    "CLASSICAL",
    "SCHEMES",
    "SemiDiscreteSystem",
    "apply_generator",
    "assemble_generator",
    "dissipation_gap",
    "discrete_energy",
]

ORDER_REDUCTION = "order_reduction"
CLASSICAL = "classical"
SCHEMES = (ORDER_REDUCTION, CLASSICAL)


def _check_gain(k: float):
    if k <= 0:
        raise ValueError(f"feedback gain must be positive, got k={k}")


def apply_generator(scheme: str, Y, k: float, mesh: Mesh) -> np.ndarray:
    """Apply the generator of `scheme` to a state vector (or batch), O(N).

    Computes P^{-1} [ -i M Z - (0, ..., 0, k h^{-1} y_{N+1}) ] where
    P.T Z = -M.T Y + (0, ..., 0, i k y_{N+1} / 2): P = D and Z the shadow
    element for the order-reduction scheme, P = I for the classical one.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_gain(k)
    Y = np.asarray(Y, dtype=complex)
    M = mesh.matrices.M
    if scheme == ORDER_REDUCTION:
        Z = shadow_element(Y, k, mesh)
    else:
        Z = -(M.T @ Y)
        Z[-1] += 0.5j * k * Y[-1]
    b = -1j * (M @ Z)
    b[-1] -= (k / mesh.h) * Y[-1]
    return solve_d(b) if scheme == ORDER_REDUCTION else b


def assemble_generator(scheme: str, k: float, mesh: Mesh) -> np.ndarray:
    """Dense generator matrix; column j is the applier at basis vector e_j.

    The applier is evaluated on the identity in one batched pass.
    """
    return apply_generator(scheme, np.eye(mesh.state_size, dtype=complex), k, mesh)


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """One member of the semi-discrete family: scheme kind, mesh and gain.

    The dense generator and weighted generator are assembled lazily, each at
    most once per system; `apply` stays matrix-free and O(N).
    """

    scheme: str
    mesh: Mesh
    k: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_gain(self.k)

    @property
    def n(self) -> int:
        return self.mesh.n

    def apply(self, Y) -> np.ndarray:
        return apply_generator(self.scheme, Y, self.k, self.mesh)

    @cached_property
    def generator(self) -> np.ndarray:
        return assemble_generator(self.scheme, self.k, self.mesh)

    @cached_property
    def weighted_generator(self) -> np.ndarray:
        """B = D A D^{-1}, the generator in coordinates where the weighted norm is Euclidean.

        With S = sqrt(h) D, yh_norm(Y) = ||S Y||_2 and B = S A S^{-1}.  Each
        column is D A applied to a column of D^{-1}, O(N) per column.
        """
        return self.mesh.matrices.D @ self.apply(solve_d(np.eye(self.mesh.state_size)))


def discrete_energy(W, mesh: Mesh) -> float:
    """(h/2) * sum of squared cell-midpoint magnitudes of (0, W).

    Coincides exactly with half the weighted norm squared, since D applied
    to a state vector produces those midpoints.
    """
    mid = mesh.matrices.D @ np.asarray(W, dtype=complex)
    return 0.5 * mesh.h * np.sum(np.abs(mid) ** 2, axis=0)


def dissipation_gap(Y, k: float, mesh: Mesh):
    """Defect of the order-reduction boundary dissipation identity.

    Re<A Y, Y> in the weighted inner product equals -k |y_{N+1}|^2 exactly,
    so the gap vanishes to roundoff.  Returns (gap, scale) with scale
    ||Y|| ||A Y|| + k |y_{N+1}|^2 in the weighted norm.
    """
    Y = np.asarray(Y, dtype=complex)
    AY = apply_generator(ORDER_REDUCTION, Y, k, mesh)
    boundary = k * np.abs(Y[-1]) ** 2
    gap = np.abs(np.real(yh_inner(AY, Y, mesh)) + boundary)
    scale = yh_norm(Y, mesh) * yh_norm(AY, mesh) + boundary
    return gap, scale
