"""Generators of the two semi-discrete schemes and their energy bookkeeping.

Both generators are one O(N) applier over the mesh's banded scheme
matrices (`grid.Bidiagonal`), `apply_generator`: the order-reduction scheme
advances a state through the shadow element (P = D), the classical scheme
is the plain second-difference operator with the same boundary feedback
(P = I).  That applier is the only definition of either generator: the
certified classical spectrum (`secular.spectrum`) cross-checks its eigenpairs
against it.  The dense generator, `assemble_generator`, is the applier
evaluated on the identity and serves only as a small-N oracle: no spectrum or
resolvent of either scheme (`secular.spectrum`, `secular.resolvent_smin`)
forms it, or any other matrix, and it stays in the package only because the
benchmark binds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mesh, _d_inner, _d_norm, _shadow_rhs, shadow_element, solve_d

__all__ = [
    "ORDER_REDUCTION",
    "CLASSICAL",
    "SCHEMES",
    "SemiDiscreteSystem",
    "apply_generator",
    "assemble_generator",
    "discrete_energy",
]

ORDER_REDUCTION = "order_reduction"
CLASSICAL = "classical"
SCHEMES = (ORDER_REDUCTION, CLASSICAL)


def apply_generator(scheme: str, Y, k: float, mesh: Mesh) -> np.ndarray:
    """Apply the generator of `scheme` to a state vector (or batch), O(N).

    Computes P^{-1} [ -i M Z - (0, ..., 0, k h^{-1} y_{N+1}) ] where
    P.T Z = -M.T Y + (0, ..., 0, i k y_{N+1} / 2): P = D and Z the shadow
    element for the order-reduction scheme, P = I for the classical one.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    Y = np.asarray(Y, dtype=complex)
    Z = (shadow_element if scheme == ORDER_REDUCTION else _shadow_rhs)(Y, k, mesh)
    return _apply_shadowed(scheme, Y, Z, k, mesh)


def _apply_shadowed(scheme: str, Y: np.ndarray, Z: np.ndarray, k: float, mesh: Mesh):
    """`apply_generator` with the shadow vector Z of Y (P.T Z above) already solved."""
    b = -1j * (mesh.matrices.M @ Z)
    b[-1] -= (k / mesh.h) * Y[-1]
    return solve_d(b) if scheme == ORDER_REDUCTION else b


def assemble_generator(scheme: str, k: float, mesh: Mesh) -> np.ndarray:
    """Dense generator matrix: the applier evaluated on the identity in one batched pass."""
    return apply_generator(scheme, np.eye(mesh.state_size, dtype=complex), k, mesh)


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """One member of the semi-discrete family: scheme kind, mesh and gain."""

    scheme: str
    mesh: Mesh
    k: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.k < np.inf:
            raise ValueError(f"feedback gain must be positive and finite, got k={self.k}")

    @property
    def n(self) -> int:
        return self.mesh.n


def discrete_energy(W, mesh: Mesh) -> float:
    """(h/2) * sum of squared cell-midpoint magnitudes of (0, W).

    Coincides exactly with half the weighted norm squared, since D applied
    to a state vector produces those midpoints.
    """
    mid = mesh.matrices.D @ np.asarray(W, dtype=complex)
    return 0.5 * mesh.h * np.sum(np.abs(mid) ** 2, axis=0)


def _dissipation_gap(Y: np.ndarray, Z: np.ndarray, DY: np.ndarray, k: float, mesh: Mesh):
    """Defect of the order-reduction boundary dissipation identity for Y, given its
    shadow element Z and the product D Y.

    Re<A Y, Y> in the weighted inner product (`grid._d_inner`) equals
    -k |y_{N+1}|^2 exactly, so the gap vanishes to roundoff.  Returns
    (gap, scale) with scale ||Y|| ||A Y|| + k |y_{N+1}|^2 in the weighted norm.
    """
    AY = _apply_shadowed(ORDER_REDUCTION, Y, Z, k, mesh)
    DAY = mesh.matrices.D @ AY
    boundary = k * np.abs(Y[-1]) ** 2
    gap = np.abs(np.real(_d_inner(DAY, DY, mesh.h)) + boundary)
    scale = _d_norm(DY, mesh.h) * _d_norm(DAY, mesh.h) + boundary
    return gap, scale
