"""Spectra, spectral abscissae and weighted resolvent norms.

The similarity S = sqrt(h) D carries the mesh-weighted norm to the Euclidean
one, so the weighted operator norm of (i beta I - A)^{-1} is the reciprocal
smallest singular value of i beta I - B with B = S A S^{-1} = D A D^{-1}.
Both spectra are the certified roots of closed-form secular equations
(`secular.spectrum`), with no matrix: the order-reduction B is diagonal
plus rank one, and the classical A is tridiagonal, diagonal plus rank one
in the eigenbasis of M M^T.  Neither resolvent forms a matrix either: each
sigma_min(i beta I - B) is bracketed by an exact O(N) eigenvalue count
(`secular.resolvent_smin`, one bracket loop with a count for each scheme).
`eigenpairs` and `spectral_norm_estimate` are the dense eigensolver and norm
estimate, kept for small-N oracles; no spectrum or resolvent here uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grid import Mesh
from .secular import resolvent_smin, spectrum
from .systems import SemiDiscreteSystem

__all__ = [
    "MAX_EIG_DIM",
    "MAX_LOG_DECADES",
    "MAX_LINEAR_STEPS",
    "SpectrumReport",
    "ResolventSweepReport",
    "eigenpairs",
    "spectral_norm_estimate",
    "spectral_abscissa",
    "resolvent_norm",
    "default_beta_max",
    "resolvent_sweep",
]

MAX_EIG_DIM = 2048
# Log tails reach at most 10**30, with 20 points per decade on each side.
MAX_LOG_DECADES = 30.0
# The linear grid is evaluated twice (at beta and -beta): 2e5 points at the cap.
MAX_LINEAR_STEPS = 10**5
_POWER_ITERATIONS = 60


@dataclass(frozen=True)
class SpectrumReport:
    scheme: str
    n: int
    k: float
    eigenvalues: np.ndarray
    abscissa: float
    max_eigen_residual: float


@dataclass(frozen=True)
class ResolventSweepReport:
    scheme: str
    n: int
    k: float
    beta_grid: np.ndarray
    norms: np.ndarray
    sup_norm: float
    argmax_beta: float


def _check_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] > MAX_EIG_DIM:
        raise ValueError(
            f"dimension {A.shape[0]} exceeds the dense eigensolver cap {MAX_EIG_DIM}"
        )
    return A


def spectral_norm_estimate(A: np.ndarray) -> float:
    """Deterministic power-iteration estimate of the operator 2-norm."""
    A = np.asarray(A, dtype=complex)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(_POWER_ITERATIONS):
        w = A.conj().T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_sigma = np.sqrt(nw)
        v = w / nw
        if abs(new_sigma - sigma) <= 1e-10 * new_sigma:
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def eigenpairs(A: np.ndarray):
    """All eigenvalues with right eigenvectors (unit 2-norm columns), by numpy's dense eig."""
    A = _check_square(A)
    try:
        return np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"dense eigensolver did not converge: {exc}") from exc


def spectral_abscissa(system: SemiDiscreteSystem) -> SpectrumReport:
    """Eigenvalues of the generator with their maximal real part.

    Both spectra are certified secular roots, which raise NumericalError
    themselves: max_eigen_residual is the worst backward residual of
    `secular.spectrum`, whose classical eigenvectors x at 72 roots also
    bound ||A x - lam x|| / ||x|| through the generator applier.
    """
    ev, res = spectrum(system.mesh, system.k, system.scheme)
    return SpectrumReport(
        scheme=system.scheme,
        n=system.n,
        k=system.k,
        eigenvalues=ev,
        abscissa=float(np.max(ev.real)),
        max_eigen_residual=res,
    )


def resolvent_norm(system: SemiDiscreteSystem, beta):
    """Weighted operator norm of (i beta I - A)^{-1}, for one beta or an array of them.

    A float for a scalar beta, else an array of beta's shape: 1 / sigma_min(i beta I - B)
    from the secular brackets (`secular.resolvent_smin`), which take the whole
    array in one call; each beta's value does not depend on the others.
    Raises NumericalError when i*beta is numerically an eigenvalue.
    """
    betas = np.asarray(beta, dtype=float)
    norms = 1.0 / resolvent_smin(system.mesh, system.k, betas.ravel(), system.scheme)
    return float(norms[0]) if betas.ndim == 0 else norms.reshape(betas.shape)


def default_beta_max(mesh: Mesh) -> float:
    """Covers the reach of the discrete spectrum, which grows like (N+1)^2."""
    return 2.0 * (np.pi * (mesh.n + 1)) ** 2


def sweep_grid(
    system: SemiDiscreteSystem,
    beta_min: float,
    beta_max: float,
    linear_steps: int,
    log_decades: float,
) -> np.ndarray:
    """Evaluation points: symmetric linear grid, log tails, spectral peaks.

    Resolvent peaks sit within O(|Re lambda|) of eigenvalue imaginary
    parts; for the classical scheme those windows shrink like h^2, so no
    fixed grid can witness the blowup.  The sweep therefore also evaluates
    at the imaginary parts of the generator's eigenvalues (the secular
    roots for the order-reduction scheme).
    """
    if beta_min >= beta_max:
        raise ValueError("beta_min must be below beta_max")
    if linear_steps < 2:
        raise ValueError("linear grid needs at least 2 steps")
    if linear_steps > MAX_LINEAR_STEPS:
        raise ValueError(f"linear_steps {linear_steps} exceeds the cap of {MAX_LINEAR_STEPS}")
    if log_decades > MAX_LOG_DECADES:
        raise ValueError(f"log_decades {log_decades:g} exceeds the cap of {MAX_LOG_DECADES:g}")
    with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows is refused
        lin = np.linspace(beta_min, beta_max, linear_steps)
    if not np.all(np.isfinite(lin)):
        raise ValueError(f"the linear grid from {beta_min!r} to {beta_max!r} is not finite")
    pieces = [lin, -lin]
    if log_decades > 0:
        logs = 10.0 ** np.linspace(0.0, log_decades, max(2, int(20 * log_decades)))
        pieces += [logs, -logs]
    pieces.append(spectral_abscissa(system).eigenvalues.imag)
    return np.unique(np.concatenate(pieces))


def resolvent_sweep(
    system: SemiDiscreteSystem,
    beta_min: float,
    beta_max: float,
    linear_steps: int = 81,
    log_decades: float | None = None,
) -> ResolventSweepReport:
    """Evaluate the weighted resolvent norm over the sweep grid.

    Both schemes take one `resolvent_norm` call over the whole grid.  Ties
    in the argmax are broken toward the smallest |beta|.
    """
    if log_decades is None:
        log_decades = float(np.log10(default_beta_max(system.mesh)))
    grid = sweep_grid(system, beta_min, beta_max, linear_steps, log_decades)
    norms = resolvent_norm(system, grid)
    sup = float(np.max(norms))
    at_max = grid[norms == sup]
    argmax = float(at_max[np.argmin(np.abs(at_max))])
    return ResolventSweepReport(
        scheme=system.scheme,
        n=system.n,
        k=system.k,
        beta_grid=grid,
        norms=norms,
        sup_norm=sup,
        argmax_beta=argmax,
    )
