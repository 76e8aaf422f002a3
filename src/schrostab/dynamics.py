"""Structure-preserving time integration with exact energy accounting.

The implicit midpoint rule transfers the generator's boundary dissipation
identity to an exact per-step identity: the energy drop over a step equals
k * dt * |m_{N+1}|^2 at the midpoint state m, to roundoff, for every step
size.  That turns the continuous energy balance into a machine-checkable
assertion on each step of a simulation.

Each step solves for the midpoint state V together with its shadow vector Z
in one sparse banded system of size 2(N+1), so the generator is never
formed: a step costs O(N) and the energy defect stays at roundoff of E(0)
at every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .systems import ORDER_REDUCTION, SemiDiscreteSystem, discrete_energy

__all__ = [
    "EnergyTrace",
    "MidpointStepper",
    "simulate",
    "fit_decay_rate",
    "initial_state",
]


@dataclass(frozen=True)
class EnergyTrace:
    """Time series produced by a simulation run.

    step_gaps[i] is the defect of the per-step energy identity over step i
    (one entry fewer than times); boundary_values holds the last state
    component at the step midpoints.
    """

    times: np.ndarray
    energies: np.ndarray
    boundary_values: np.ndarray
    step_gaps: np.ndarray


class MidpointStepper:
    """Implicit midpoint stepper with one sparse LU factorization per dt.

    The midpoint state V = (W + W+)/2 solves (I - dt/2 A) V = W.  Writing
    A V = P^{-1} (-i M Z - (k/h) E V) with the shadow relation
    P.T Z = -M.T V + (i k/2) E V, where E = e_{N+1} e_{N+1}.T, P = D for
    the order-reduction scheme and P = I for the classical one, gives

        [[P + (dt k/2h) E, (i dt/2) M], [M.T - (i k/2) E, P.T]] [V; Z] = [P W; 0],

    after which W+ = 2 V - W.
    """

    def __init__(self, system: SemiDiscreteSystem, dt: float):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        self.system = system
        self.dt = dt
        mesh, k = system.mesh, system.k
        n1 = mesh.state_size
        sm = mesh.matrices
        self._P = sm.D if system.scheme == ORDER_REDUCTION else sp.eye_array(n1, format="csr")
        E = sp.csr_array(([1.0], ([n1 - 1], [n1 - 1])), shape=(n1, n1))
        K = sp.block_array([
            [self._P + (dt * k / (2 * mesh.h)) * E, (0.5j * dt) * sm.M],
            [sm.M.T - (0.5j * k) * E, self._P.T],
        ], format="csc")
        try:
            self._lu = splu(K)
        except RuntimeError as exc:  # exactly singular pivot
            raise NumericalError(f"midpoint solve singular at dt={dt}") from exc
        diag = np.abs(self._lu.U.diagonal())
        if np.min(diag) <= 1e-14 * np.max(diag):
            raise NumericalError(f"midpoint solve near-singular at dt={dt}")

    def step(self, W: np.ndarray) -> np.ndarray:
        n1 = W.shape[0]
        rhs = np.zeros((2 * n1,) + W.shape[1:], dtype=complex)
        rhs[:n1] = self._P @ W
        return 2.0 * self._lu.solve(rhs)[:n1] - W


def simulate(system: SemiDiscreteSystem, W0, dt: float, t_final: float) -> EnergyTrace:
    """March W' = A W by implicit midpoint, recording the energy balance."""
    stepper = MidpointStepper(system, dt)  # rejects dt <= 0
    if t_final < dt:
        raise ValueError("t_final must be at least one step")
    W = np.asarray(W0, dtype=complex).copy()
    mesh = system.mesh
    num_steps = int(round(t_final / dt))
    times = np.empty(num_steps + 1)
    energies = np.empty(num_steps + 1)
    boundary = np.empty(num_steps, dtype=complex)
    gaps = np.empty(num_steps)
    times[0] = 0.0
    energies[0] = discrete_energy(W, mesh)
    for s in range(num_steps):
        W_next = stepper.step(W)
        mid_boundary = 0.5 * (W[-1] + W_next[-1])
        e_next = discrete_energy(W_next, mesh)
        gaps[s] = e_next - energies[s] + system.k * dt * abs(mid_boundary) ** 2
        times[s + 1] = (s + 1) * dt
        energies[s + 1] = e_next
        boundary[s] = mid_boundary
        W = W_next
    return EnergyTrace(times=times, energies=energies, boundary_values=boundary, step_gaps=gaps)


def fit_decay_rate(trace: EnergyTrace, t_start: float, t_end: float) -> float:
    """State-norm decay rate from a least-squares fit of log-energy.

    Returns minus half the slope of ln E(t) over [t_start, t_end], so the
    result estimates omega in ||W(t)|| ~ e^{-omega t}.
    """
    mask = (trace.times >= t_start) & (trace.times <= t_end)
    if np.count_nonzero(mask) < 10:
        raise ValueError("fit window must contain at least 10 samples")
    energies = trace.energies[mask]
    if np.any(energies <= 0.0):
        raise ValueError("fit window contains nonpositive energies; shrink the window")
    slope = np.polyfit(trace.times[mask], np.log(energies), 1)[0]
    return float(-0.5 * slope)


_SMOOTH_MODES = 8


def initial_state(preset: str, system: SemiDiscreteSystem, seed: int = 0) -> np.ndarray:
    """Initial data presets for simulation runs.

    "random": complex standard normal at the nodes (excites every discrete
    frequency, including ones no A-stable integrator can damp at practical
    step sizes).  "smooth": seeded random combination of the lowest eight
    boundary-adapted sine profiles sin((m + 1/2) pi x); this is the default
    for decay-rate studies, where the asymptotics must be governed by the
    resolved low-frequency modes.  "sine": samples of sin(pi x).
    """
    mesh = system.mesh
    x = mesh.nodes[1:]
    rng = np.random.default_rng(seed)
    if preset == "random":
        return rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    if preset == "smooth":
        coeff = rng.standard_normal(_SMOOTH_MODES) + 1j * rng.standard_normal(_SMOOTH_MODES)
        W = np.zeros(x.size, dtype=complex)
        for m, c in enumerate(coeff):
            W += c * np.sin((m + 0.5) * np.pi * x)
        return W
    if preset == "sine":
        return np.sin(np.pi * x).astype(complex)
    raise ValueError(f"unknown initial-state preset {preset!r}")
