"""Spectra, spectral abscissae and weighted resolvent norms.

The resolvent is measured in the mesh-weighted norm by the explicit
similarity S = sqrt(h) D, which carries that norm to the Euclidean one, so
the weighted operator norm of the resolvent is the reciprocal smallest
singular value of S (i beta I - A) S^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError
from .systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem
from .grid import Mesh, apply_d, solve_d

__all__ = [
    "MAX_EIG_DIM",
    "SpectrumReport",
    "ResolventSweepReport",
    "UniformityRow",
    "eigenvalues",
    "eigenpairs",
    "spectral_norm_estimate",
    "spectral_abscissa",
    "resolvent_norm",
    "default_beta_max",
    "resolvent_sweep",
    "uniformity_report",
]

MAX_EIG_DIM = 2048
DEFAULT_EIG_TOL = 1e-8
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


@dataclass(frozen=True)
class UniformityRow:
    n: int
    h: float
    abscissa_or: float
    abscissa_cl: float
    sup_resolvent_or: float
    sup_resolvent_cl: float


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
    """All eigenvalues with right eigenvectors (unit 2-norm columns)."""
    A = _check_square(A)
    try:
        ev, V = sla.eig(A)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericalError(f"dense eigensolver did not converge: {exc}") from exc
    return ev, V


def _checked_eigenpairs(A: np.ndarray, context: str):
    """Eigenpairs and their worst residual; NumericalError above DEFAULT_EIG_TOL*||A||."""
    ev, V = eigenpairs(A)
    res = _max_residual(A, ev, V)
    bound = DEFAULT_EIG_TOL * max(spectral_norm_estimate(A), np.finfo(float).tiny)
    if res > bound:
        raise NumericalError(f"eigen-residual {res:.3e} exceeds {bound:.3e} ({context})")
    return ev, res


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues; raises NumericalError if residuals exceed DEFAULT_EIG_TOL*||A||."""
    return _checked_eigenpairs(A, f"dimension {len(A)}")[0]


def _max_residual(A: np.ndarray, ev: np.ndarray, V: np.ndarray) -> float:
    R = A @ V - V * ev[None, :]
    col_norms = np.linalg.norm(V, axis=0)
    return float(np.max(np.linalg.norm(R, axis=0) / col_norms))


def spectral_abscissa(system: SemiDiscreteSystem) -> SpectrumReport:
    """Eigenvalues of the assembled generator with their maximal real part."""
    ev, res = _checked_eigenpairs(system.generator, f"scheme={system.scheme}, n={system.n}")
    return SpectrumReport(
        scheme=system.scheme,
        n=system.n,
        k=system.k,
        eigenvalues=ev,
        abscissa=float(np.max(ev.real)),
        max_eigen_residual=res,
    )


def _similarity(mesh: Mesh):
    eye = np.eye(mesh.state_size)
    return np.sqrt(mesh.h) * apply_d(eye), solve_d(eye) / np.sqrt(mesh.h)


def resolvent_norm(system: SemiDiscreteSystem, beta: float) -> float:
    """Weighted operator norm of (i beta I - A)^{-1}.

    Computed as 1 / sigma_min of the similarity-transformed shifted
    generator; raises NumericalError when i*beta is numerically an
    eigenvalue.
    """
    A = system.generator
    S, Sinv = _similarity(system.mesh)
    T = S @ (1j * beta * np.eye(A.shape[0]) - A) @ Sinv
    sv = sla.svdvals(T)
    smin, smax = sv[-1], sv[0]
    if smin <= 1e-14 * smax:
        raise NumericalError(
            f"i*beta is numerically in the spectrum at beta={beta} "
            f"(scheme={system.scheme}, n={system.n})"
        )
    return float(1.0 / smin)


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
    at the imaginary parts of the generator's eigenvalues.
    """
    if beta_min >= beta_max:
        raise ValueError("beta_min must be below beta_max")
    if linear_steps < 2:
        raise ValueError("linear grid needs at least 2 steps")
    lin = np.linspace(beta_min, beta_max, linear_steps)
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

    Ties in the argmax are broken toward the smallest |beta|.
    """
    if log_decades is None:
        log_decades = float(np.log10(default_beta_max(system.mesh)))
    grid = sweep_grid(system, beta_min, beta_max, linear_steps, log_decades)
    norms = np.array([resolvent_norm(system, b) for b in grid])
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


def uniformity_report(
    n_list,
    k: float = 1.0,
    beta_min: float = -20.0,
    beta_max: float = 20.0,
    linear_steps: int = 81,
    log_decades: float | None = None,
) -> list[UniformityRow]:
    """Side-by-side abscissae and sup resolvent norms for both schemes."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    rows = []
    for n in n_list:
        mesh = Mesh(n)
        sys_or = SemiDiscreteSystem(ORDER_REDUCTION, mesh, k)
        sys_cl = SemiDiscreteSystem(CLASSICAL, mesh, k)
        rows.append(
            UniformityRow(
                n=n,
                h=mesh.h,
                abscissa_or=spectral_abscissa(sys_or).abscissa,
                abscissa_cl=spectral_abscissa(sys_cl).abscissa,
                sup_resolvent_or=resolvent_sweep(
                    sys_or, beta_min, beta_max, linear_steps, log_decades
                ).sup_norm,
                sup_resolvent_cl=resolvent_sweep(
                    sys_cl, beta_min, beta_max, linear_steps, log_decades
                ).sup_norm,
            )
        )
    return rows
