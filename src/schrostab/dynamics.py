"""Structure-preserving time integration with exact energy accounting.

The implicit midpoint rule transfers the generator's boundary dissipation
identity to an exact per-step identity: the energy drop over a step equals
k * dt * |m_{N+1}|^2 at the midpoint state m, to roundoff, for every step
size.  That turns the continuous energy balance into a machine-checkable
assertion on each step of a simulation.

Neither scheme forms its generator.  The order-reduction scheme steps in
its closed-form modal basis (`schrostab.secular`), where the weighted
generator is i Theta - (k/h) c c^T: one Cayley step is a diagonal scaling
and a Sherman-Morrison correction, O(N) with no matrix, the energy is half
the squared norm of the modal coordinates, and its defect stays at roundoff
of E(0) at every N.  The classical generator is tridiagonal, so each step
is one O(N) solve with the LAPACK LU of I - (dt/2) A (SciPy's only use
here); that scheme does not dissipate this energy exactly, and its step
gap was 5.3e-3 E(0) at N=63 and 1.7e-3 E(0) at N=1023 (k=1, dt=1e-3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .secular import _classical_tridiagonal, or_modal_coordinates, or_poles_weights
from .systems import ORDER_REDUCTION, SemiDiscreteSystem, discrete_energy

__all__ = [
    "MAX_N",
    "MAX_STEPS",
    "EnergyTrace",
    "MidpointStepper",
    "simulate",
    "fit_decay_rate",
    "initial_state",
]


# The order-reduction stepper keeps a few complex arrays of N+1 entries
# (16 MiB each at the cap) and the entry transform two FFTs of twice that.
MAX_N = 2**20
# A trace keeps 40 bytes per step, so the cap holds its arrays to 40 MB.
MAX_STEPS = 10**6
# Largest |(1/2)||a||^2 - E(W)| / E(W) the modal entry transform may leave;
# the measured worst is 2.6e-14 up to N=65535.
_ENTRY_RTOL = 1e-12


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
    """Implicit midpoint stepper W+ = 2V - W with (I - dt/2 A) V = W, set up once per dt.

    It steps its own coordinates: `enter` maps a state into them, `step`
    advances them, `energy` and `boundary` read the discrete energy and the
    midpoint boundary value V_{N+1} off them.

    Order reduction: the modal coordinates a = Q^T sqrt(h) D W, in which A
    acts as i Theta - rho c c^T with rho = k/h.  With tau = dt/2 and
    g = 1/(1 - i tau theta), the midpoint is
    v = g a - (tau rho c^T(g a) / (1 + tau rho c^T(g c))) g c, the energy
    is ||a||^2 / 2 and V_{N+1} = c^T v / sqrt(h).  Re g > 0, so the
    denominator is at least 1 in modulus.

    Classical: the state itself.  A is tridiagonal, so I - (dt/2) A is
    factored once by zgttrf (partial pivoting) and each step solves with
    zgttrs.  One decoupled unknown, a 1 on the diagonal, follows the system:
    the SciPy wrappers refuse fewer than three unknowns, as N = 1 would give.
    """

    def __init__(self, system: SemiDiscreteSystem, dt: float):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        self.system = system
        self.dt = dt
        mesh, k, tau = system.mesh, system.k, 0.5 * dt
        self._modal = system.scheme == ORDER_REDUCTION
        if self._modal:
            theta, c = or_poles_weights(mesh)
            rho = k / mesh.h
            with np.errstate(over="ignore", invalid="ignore"):
                g = 1.0 / (1.0 - 1j * tau * theta)
                gc = g * c
                w = (tau * rho / (1.0 + tau * rho * (c @ gc))) * gc
            # w is nan if rho or tau theta overflows
            if not np.all(np.isfinite(w)):
                raise NumericalError(f"modal midpoint step not finite at dt={dt}, k={k}")
            self._g, self._c, self._w = g, c.astype(complex), w  # c complex: no cast per dot
            return
        from scipy.linalg.lapack import zgttrf, zgttrs
        dl, d, du = _classical_tridiagonal(mesh, k)
        *lu, _ = zgttrf(np.append(-tau * dl, 0.0), np.append(1.0 - tau * d, 1.0),
                        np.append(-tau * du, 0.0))
        diag = np.abs(lu[1][:-1])  # U's diagonal; an exactly zero pivot fails too
        if not np.min(diag) > 1e-14 * np.max(diag):
            raise NumericalError(f"midpoint solve near-singular at dt={dt}")
        self._solve = lambda b: zgttrs(*lu, b)[0]

    def enter(self, W) -> np.ndarray:
        """The stepper's coordinates of the state W.

        Raises NumericalError if the modal coordinates miss the discrete
        energy of W by more than 1e-12 of it.
        """
        W = np.asarray(W, dtype=complex)
        if not self._modal:
            return W
        a = or_modal_coordinates(self.system.mesh, W)
        got, expect = self.energy(a), discrete_energy(W, self.system.mesh)
        if not abs(got - expect) <= _ENTRY_RTOL * expect:
            raise NumericalError(
                f"modal coordinates carry energy {got!r} against {expect!r} (n={self.system.n})"
            )
        return a

    def step(self, u: np.ndarray) -> np.ndarray:
        if self._modal:
            gu = self._g * u
            return 2.0 * (gu - (self._c @ gu) * self._w) - u
        return 2.0 * self._solve(np.append(u, 0.0))[:-1] - u

    def energy(self, u: np.ndarray) -> float:
        if self._modal:
            return 0.5 * float(np.vdot(u, u).real)
        return discrete_energy(u, self.system.mesh)

    def boundary(self, u: np.ndarray, u_next: np.ndarray) -> complex:
        """V_{N+1} for the midpoint V of the step from u to u_next."""
        if self._modal:
            return (self._c @ (u + u_next)) * (0.5 / np.sqrt(self.system.mesh.h))
        return 0.5 * (u[-1] + u_next[-1])


def simulate(system: SemiDiscreteSystem, W0, dt: float, t_final: float) -> EnergyTrace:
    """March W' = A W by implicit midpoint, recording the energy balance.

    Refuses, before anything is built, a window of more than MAX_STEPS steps.
    """
    if dt > 0 and not t_final / dt < MAX_STEPS + 0.5:
        raise ValueError(f"t_final/dt = {t_final / dt:.3g} steps exceeds the cap of {MAX_STEPS}")
    stepper = MidpointStepper(system, dt)  # rejects dt <= 0
    if t_final < dt:
        raise ValueError("t_final must be at least one step")
    u = stepper.enter(W0)
    num_steps = int(round(t_final / dt))
    times = np.empty(num_steps + 1)
    energies = np.empty(num_steps + 1)
    boundary = np.empty(num_steps, dtype=complex)
    gaps = np.empty(num_steps)
    times[0] = 0.0
    energies[0] = stepper.energy(u)
    for s in range(num_steps):
        u_next = stepper.step(u)
        mid_boundary = stepper.boundary(u, u_next)
        e_next = stepper.energy(u_next)
        gaps[s] = e_next - energies[s] + system.k * dt * abs(mid_boundary) ** 2
        times[s + 1] = (s + 1) * dt
        energies[s + 1] = e_next
        boundary[s] = mid_boundary
        u = u_next
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
