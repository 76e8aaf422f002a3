"""Desk-scale oracles for the continuous boundary-damped system.

Provides the closed-form bounded inverse of the closed-loop operator, the
continuous energy, and high-precision eigenvalues from the transcendental
characteristic equation, for cross-checking the discrete spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grid import average

__all__ = [
    "SampledFunction",
    "apply_continuous_inverse",
    "characteristic_roots",
    "characteristic_residual",
    "continuous_energy",
]

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


def continuous_energy(w: SampledFunction) -> float:
    """Half the squared L2 norm of the samples, by trapezoid quadrature."""
    return 0.5 * float(np.trapezoid(np.abs(w.values) ** 2, w.grid))


def characteristic_residual(mu: complex, k: float) -> complex:
    """mu cosh(mu) + i k sinh(mu); zero exactly at the eigenparameters."""
    return mu * np.cosh(mu) + 1j * k * np.sinh(mu)


def _newton_root(mu0: complex, k: float) -> complex:
    mu = mu0
    for _ in range(100):
        f = characteristic_residual(mu, k)
        df = np.cosh(mu) + mu * np.sinh(mu) + 1j * k * np.cosh(mu)
        step = f / df
        mu = mu - step
        if abs(step) <= 1e-15 * max(1.0, abs(mu)):
            return mu
    raise NumericalError(f"characteristic root search stalled at seed {mu0}")


def characteristic_roots(k: float, count: int) -> np.ndarray:
    """The `count` lowest-frequency eigenvalues of the closed-loop operator.

    Eigenvalues are lam = -i mu^2 where mu solves the characteristic
    equation; Newton iterations are seeded at the undamped (k = 0) roots
    mu = i (n + 1/2) pi, which are exact when k = 0.
    """
    if k < 0:
        raise ValueError(f"feedback gain must be nonnegative, got k={k}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    mus = []
    for n in range(count):
        seed = 1j * (n + 0.5) * np.pi
        if k == 0:
            mus.append(seed)
            continue
        mu = _newton_root(seed, k)
        res = characteristic_residual(mu, k)
        tol = 1e-12 * (1.0 + abs(mu) * np.exp(abs(mu.real)))
        if abs(res) > tol:
            raise NumericalError(
                f"characteristic residual {abs(res):.3e} exceeds {tol:.3e} "
                f"for seed index {n}"
            )
        mus.append(mu)
    return -1j * np.asarray(mus) ** 2
