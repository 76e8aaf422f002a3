"""Eigenvalues of the continuous boundary-damped system.

They come from the transcendental characteristic equation, by the
branch-wise root finder that also gives both discrete spectra.  No command
calls `characteristic_roots`: the benchmark's spectrum check and the tests
compare the discrete abscissae with it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["characteristic_roots"]


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

    Eigenvalues are lam = -i mu^2 where mu cosh(mu) + i k sinh(mu) = 0, one root per
    branch of `_branch_roots` (a = mu, b = i k); k = 0 is the undamped continuum.
    """
    if not 0 <= k < np.inf:
        raise ValueError(f"feedback gain must be nonnegative and finite, got k={k}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    mu = _branch_roots(lambda mu: (mu, 1j * k, 1.0, 0.0), np.zeros(count))
    res = np.abs(mu * np.cosh(mu) + 1j * k * np.sinh(mu))
    tol = 1e-12 * (1.0 + np.abs(mu) * np.exp(np.abs(mu.real)))
    if not np.all(res <= tol):
        n = int(np.argmax(~(res <= tol)))
        raise NumericalError(f"characteristic root {n} has residual {res[n]:.3e} > {tol[n]:.3e}")
    return -1j * mu**2
