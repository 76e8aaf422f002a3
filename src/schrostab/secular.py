"""Order-reduction spectra from the closed-form secular equation.

The weighted order-reduction generator B = D A D^{-1} is diagonal plus rank
one in closed form, B = Q (i Theta - (k/h) c c^T) Q^T with Q orthogonal,

    theta_m = (2/h)^2 tan^2 phi_m,  c_m = (-1)^m sqrt(2h) / cos phi_m,
    phi_m = (m + 1/2) pi h / 2,  m = 0..N,

and q_m = D s_m / ||D s_m|| for s_m = sin((m + 1/2) pi x_j).  Its eigenvalues
(those of A) are therefore the N+1 roots of the secular equation

    f(lam) = 1 + (k/h) sum_m c_m^2 / (lam - i theta_m) = 0

(Golub, SIAM Rev. 15, 1973).  `secular_roots` finds all of them at once with
safeguarded Aberth sweeps (Aberth, Math. Comp. 27, 1973), in blocks of rows
so that memory stays O(N) and no matrix is formed.  `or_spectrum` certifies
what it returns, or raises NumericalError.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .grid import Mesh

__all__ = ["or_poles_weights", "secular_roots", "or_spectrum"]

_EPS = np.finfo(float).eps
# Entries per (rows x N+1) block of pairwise terms: 4 MiB of complex128.
_BLOCK_ELEMENTS = 1 << 18
_MAX_SWEEPS = 100
_RESIDUAL_TOL = 1e-14
_TRACE_RTOL = 1e-12
# Exact roots lie at least about 6/(N+1) apart relative to their size
# (measured to N = 4095), so two approximations of one root fall below this.
_DISTINCT_RTOL = 1e-10


def or_poles_weights(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The poles theta_m and weights c_m of the order-reduction secular equation, O(N)."""
    m = np.arange(mesh.state_size)
    phi = (m + 0.5) * np.pi * mesh.h / 2
    theta = (2.0 / mesh.h) ** 2 * np.tan(phi) ** 2
    c = np.where(m % 2 == 0, 1.0, -1.0) * np.sqrt(2.0 * mesh.h) / np.cos(phi)
    return theta, c


def _row_blocks(rows: np.ndarray, n1: int):
    step = max(1, _BLOCK_ELEMENTS // n1)
    for start in range(0, rows.size, step):
        yield rows[start:start + step]


def secular_roots(theta: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """All roots of 1 + rho sum_m c_m^2 / (lam - i theta_m), by Aberth sweeps.

    The sweeps take Aberth steps on p(lam) = f(lam) prod_m (lam - i theta_m),
    whose Newton correction is 1 / (f'/f + sum_m 1/(lam - i theta_m)), from
    the seeds i theta_m - rho c_m^2, where the m-th term cancels the 1.  Each
    block of roots is updated in place.  A root is frozen once its step is
    at most 4 eps |lam|; a non-finite step leaves its root unchanged for that
    sweep.  Roots still moving after _MAX_SWEEPS are left to the certificate.
    """
    n1 = theta.size
    weights = rho * c * c
    poles = 1j * theta
    lam = poles - weights
    active = np.ones(n1, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        todo = np.flatnonzero(active)
        if todo.size == 0:
            break
        for rows in _row_blocks(todo, n1):
            here = lam[rows, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                to_poles = 1.0 / (here - poles)
                f = 1.0 + to_poles @ weights
                df = -(to_poles * to_poles) @ weights
                newton = 1.0 / (df / f + to_poles.sum(axis=1))
                apart = here - lam
                apart[np.arange(rows.size), rows] = np.inf
                step = newton / (1.0 - newton * (1.0 / apart).sum(axis=1))
            finite = np.isfinite(step)
            moved = rows[finite]
            lam[moved] -= step[finite]
            active[moved[np.abs(step[finite]) <= 4 * _EPS * np.abs(lam[moved])]] = False
    return lam


def or_spectrum(mesh: Mesh, k: float) -> tuple[np.ndarray, float]:
    """Certified eigenvalues of the order-reduction generator, and their worst residual.

    The residual of a root lam is the backward error of the eigenpair
    (lam, v) of i Theta - (k/h) c c^T with v = (lam - i Theta)^{-1} c,
    namely ||c|| |f(lam)| / ||v||.  Raises NumericalError unless there are
    N+1 finite, pairwise distinct roots, each residual is at most
    1e-14 (max theta + (k/h) ||c||^2), and the roots keep the trace:
    sum Re lam = -(k/h) ||c||^2 = -2k sum sec^2 phi_m and
    sum Im lam = sum theta_m, each to 1e-12 relative.
    """
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    lam = secular_roots(theta, c, rho)
    n1 = theta.size
    where = f"(scheme=order_reduction, n={mesh.n}, k={k})"
    finite = np.count_nonzero(np.isfinite(lam))
    if finite != n1:
        raise NumericalError(f"secular solver found {finite} finite roots of {n1} {where}")

    c2 = c * c
    c2_sum = np.sum(c2)
    c_norm = np.sqrt(c2_sum)
    residuals = np.empty(n1)
    closest = np.inf
    for rows in _row_blocks(np.arange(n1), n1):
        here = lam[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            to_poles = 1.0 / (here - 1j * theta)
            f = 1.0 + rho * (to_poles @ c2)
            residuals[rows] = c_norm * np.abs(f) / np.sqrt(np.abs(to_poles) ** 2 @ c2)
        gaps = np.abs(here - lam) / np.maximum(np.abs(here), np.abs(lam))
        gaps[np.arange(rows.size), rows] = np.inf
        closest = min(closest, float(gaps.min(initial=np.inf)))
    if not closest > _DISTINCT_RTOL:
        raise NumericalError(
            f"two secular roots coincide to {closest:.1e} relative {where}"
        )
    worst = float(np.max(residuals))
    bound = _RESIDUAL_TOL * (np.max(theta) + rho * c2_sum)
    if not worst <= bound:
        raise NumericalError(f"secular residual {worst:.3e} exceeds {bound:.3e} {where}")
    for part, got, expect in (("real", np.sum(lam.real), -rho * c2_sum),
                              ("imaginary", np.sum(lam.imag), np.sum(theta))):
        if not abs(got - expect) <= _TRACE_RTOL * abs(expect):
            raise NumericalError(
                f"secular roots miss the {part}-part trace: {got!r} against {expect!r} {where}"
            )
    return lam, worst
