"""Desk-scale oracles for the continuous boundary-damped system.

Provides the closed-form bounded inverse of the closed-loop operator and
eigenvalues from the transcendental characteristic equation, by the
branch-wise root finder that also gives both discrete spectra.
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


def characteristic_residual(mu: complex, k: float) -> complex:
    """mu cosh(mu) + i k sinh(mu); zero exactly at the eigenparameters."""
    return mu * np.cosh(mu) + 1j * k * np.sinh(mu)


def _branch_roots(coefficients, zeta0) -> np.ndarray:
    """One root mu_j = i (j + 1/2) pi + zeta_j of a cosh mu + b sinh mu per branch j, O(1) each.

    `coefficients(mu)` returns a, b, a' and b', and zeta0 the roots at k = 0.
    On branch j the equation is a sinh zeta + b cosh zeta = 0: zeta_j starts at
    the principal artanh(-b/a) at zeta0; Newton steps cut to length 1 (full ones
    jumped branches where -b/a is near -1) reach 4 eps |mu| in 100, else nan.
    """
    base = 1j * (np.arange(zeta0.size) + 0.5) * np.pi
    a, b = coefficients(base + zeta0)[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zeta = np.arctanh(-b / a)
        for _ in range(100):
            a, b, da, db = coefficients(base + zeta)
            sinh, cosh = np.sinh(zeta), np.cosh(zeta)
            step = (a * sinh + b * cosh) / ((da + b) * sinh + (a + db) * cosh)
            zeta -= step / np.maximum(1, np.abs(step))
            settled = np.abs(step) <= 4 * np.finfo(float).eps * np.abs(base + zeta)
            if np.all(settled):
                break
    zeta[~settled] = np.nan
    return base + zeta


def characteristic_roots(k: float, count: int) -> np.ndarray:
    """The `count` lowest-frequency eigenvalues of the closed-loop operator.

    Eigenvalues are lam = -i mu^2 where mu solves the characteristic
    equation, one root per branch of `_branch_roots` (a = mu, b = i k).
    """
    if k < 0:
        raise ValueError(f"feedback gain must be nonnegative, got k={k}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    mu = _branch_roots(lambda mu: (mu, 1j * k, 1.0, 0.0), np.zeros(count))
    res = np.abs(characteristic_residual(mu, k))
    tol = 1e-12 * (1.0 + np.abs(mu) * np.exp(np.abs(mu.real)))
    if not np.all(res <= tol):
        n = int(np.argmax(~(res <= tol)))
        raise NumericalError(f"characteristic root {n} has residual {res[n]:.3e} > {tol[n]:.3e}")
    return -1j * mu**2
