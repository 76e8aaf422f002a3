"""Reference forms that only tests use: the continuous inverse, the weighted
inner product and norm on states, and the dissipation defect of one state.

Tests import them as they import `conftest`.  The weighted forms check a
state's length against its mesh and then call the package's own kernels
(`grid._d_inner`, `grid._d_norm`, `systems._dissipation_gap`), which take the
products with D that the identity suite shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schrostab.grid import Mesh, _as_state, _d_inner, _d_norm, average, shadow_element
from schrostab.systems import _dissipation_gap

MIN_SAMPLES = 33


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on a uniform grid covering [0, 1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-D of equal length")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must cover [0, 1] inclusive")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-14):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, func, num_samples: int) -> "SampledFunction":
        x = np.linspace(0.0, 1.0, num_samples)
        return cls(x, np.asarray(func(x), dtype=complex))


def apply_continuous_inverse(f: SampledFunction, k: float) -> SampledFunction:
    """Solve -i g'' = f with g(0) = 0 and g'(1) = -i k g(1), in closed form.

    g(x) = a x + i * int_0^x (x - t) f(t) dt with the slope a fixed by the
    damped boundary condition:
        a (1 + i k) = -i * int_0^1 f + k * int_0^1 (1 - t) f(t) dt.
    Integrals use the composite trapezoid rule on the sample grid, so the
    interior residual of -i g'' - f decays at second order.
    """
    if k <= 0:
        raise ValueError(f"feedback gain must be positive, got k={k}")
    x = f.grid
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    fv = f.values
    cum_f = np.concatenate(([0.0], np.cumsum(np.diff(x) * average(fv))))
    cum_tf = np.concatenate(([0.0], np.cumsum(np.diff(x) * average(x * fv))))
    int_f = cum_f[-1]
    int_1mt_f = int_f - cum_tf[-1]
    a = (-1j * int_f + k * int_1mt_f) / (1.0 + 1j * k)
    g = a * x + 1j * (x * cum_f - cum_tf)
    return SampledFunction(x, g)


def yh_inner(Y, Ytilde, mesh: Mesh) -> complex:
    """The weighted inner product h * <D Y, D Ytilde>."""
    D = mesh.matrices.D
    return _d_inner(D @ _as_state(Y, mesh), D @ _as_state(Ytilde, mesh), mesh.h)


def yh_norm(Y, mesh: Mesh) -> float:
    return _d_norm(mesh.matrices.D @ _as_state(Y, mesh), mesh.h)


def dissipation_gap(Y, k: float, mesh: Mesh):
    """Defect of the order-reduction boundary dissipation identity, and its scale."""
    Y = np.asarray(Y, dtype=complex)
    return _dissipation_gap(Y, shadow_element(Y, k, mesh), mesh.matrices.D @ Y, k, mesh)
