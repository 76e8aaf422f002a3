"""Structure-preserving time integration with exact energy accounting.

The implicit midpoint rule transfers the generator's boundary dissipation
identity to an exact per-step identity: the energy drop over a step equals
k * dt * |m_{N+1}|^2 at the midpoint state m, to roundoff, for every step
size.  That turns the continuous energy balance into a machine-checkable
assertion on each step of a simulation.

Neither scheme forms its generator: both step in a closed-form modal basis
(`schrostab.secular`) where it is i Theta - (k/h) p r^T, so one Cayley step is a diagonal
scaling and a Sherman-Morrison correction: one product, one dot and one update.  `simulate`
reads the boundary value and energy off one more dot, O(N) per step in two reused buffers,
with no matrix and no LAPACK.  The order-reduction energy defect stays at roundoff of E(0)
at every N.  The classical scheme does not dissipate this energy exactly: its step gap was
5.3e-3 E(0) at N=63 and 3.6e-4 E(0) at N=1023 (k=1, dt=1e-3, smooth preset, t = 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .secular import _scheme, classical_modal_coordinates, or_modal_coordinates
from .systems import SemiDiscreteSystem, discrete_energy

__all__ = [
    "MAX_N",
    "MAX_STEPS",
    "EnergyTrace",
    "MidpointStepper",
    "simulate",
    "fit_decay_rate",
    "initial_state",
]


# The stepper keeps four complex arrays of N+1 entries (16 MiB each at the cap), the march
# two more.  Five steps at the cap took 2.3 s and 510 MiB peak RSS (order reduction), 2.6 s
# and 502 MiB (classical), one BLAS thread; the entry transform took 1.9 s and 1.5 s of
# that, as 2(N+1) is no power of two either.
MAX_N = 2**20
# A trace keeps 40 bytes per step, so the cap holds its arrays to 40 MB.
MAX_STEPS = 10**6
# Largest |energy(u) - E(W)| / E(W) the modal entry transform may leave; the measured
# worst up to N=65535 is 2.6e-14 (order reduction) and 6.3e-15 (classical).
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
    """Implicit midpoint stepper u+ = 2v - u with (I - (dt/2) B) v = u, set up once per dt.

    It steps modal coordinates u (`enter` maps a state into them), in which the generator
    is B = i Theta - rho p r^T (`secular._scheme`) with rho = k/h and V_{N+1} = r^T v / sqrt(h).
    With tau = dt/2, g = 1/(1 - i tau theta) and w = tau rho (g p) / (1 + tau rho r^T(g p)),
    v = g u - (r^T(g u)) w; Re g > 0 and p r = c^2 > 0, so the denominator is at least 1 in
    modulus.  So u+ = a u - ((r g)^T u) 2w with a = 2g - 1; `simulate` reads the midpoint
    V_{N+1} as (r^T u + r^T u+) / (2 sqrt(h)) and hands r^T u on to `energy`, one more dot
    per step.

    Order reduction: u = Q^T sqrt(h) D W and the energy is ||u||^2 / 2.  Classical:
    u = sqrt(h) V^T W in the sine eigenbasis V of M M^T, r = V^T e_N; by 4 D^T D = 4I -
    h^2 M M^T - 2 e_N e_N^T the energy is (sum_m cos^2 a_m |u_m|^2 - |r^T u|^2 / 2) / 2,
    with cos^2 a_m taken as (2N+3) r_m^2 / 4, since 1 - mu_m h^2 / 4 cancels at the top modes.
    """

    def __init__(self, system: SemiDiscreteSystem, dt: float):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        self.system = system
        self.dt = dt
        mesh, k, tau = system.mesh, system.k, 0.5 * dt
        sine, theta, _, p, r = _scheme(mesh, system.scheme)
        self._cos2 = 0.25 * (2 * mesh.n + 3) * r**2 if sine else None
        self._coordinates = classical_modal_coordinates if sine else or_modal_coordinates
        rho = k / mesh.h
        with np.errstate(over="ignore", invalid="ignore"):
            g = 1.0 / (1.0 - 1j * tau * theta)
            gp = g * p
            w = (tau * rho / (1.0 + tau * rho * (r @ gp))) * gp
        # w is nan if rho or tau theta overflows
        if not np.all(np.isfinite(w)):
            raise NumericalError(f"modal midpoint step not finite at dt={dt}, k={k}")
        self._a, self._rg, self._w2 = 2.0 * g - 1.0, r * g, 2.0 * w
        self._r = r.astype(complex)  # complex: no cast per dot

    def enter(self, W) -> np.ndarray:
        """The modal coordinates of W; NumericalError if they miss its energy by over 1e-12 of it."""
        W = np.asarray(W, dtype=complex)
        u = self._coordinates(self.system.mesh, W)
        got, expect = self.energy(u, self._r @ u), discrete_energy(W, self.system.mesh)
        if not abs(got - expect) <= _ENTRY_RTOL * expect:
            raise NumericalError(
                f"modal coordinates carry energy {got!r} against {expect!r} (n={self.system.n})"
            )
        return u

    def step(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The next modal state, written into `out` (a new array if None; never `u` itself)."""
        out = np.multiply(self._a, u, out=out)
        out -= (self._rg @ u) * self._w2
        return out

    def energy(self, u: np.ndarray, ru: complex) -> float:
        if self._cos2 is None:
            return 0.5 * float(np.vdot(u, u).real)
        return 0.5 * float(self._cos2 @ np.abs(u) ** 2 - 0.5 * abs(ru) ** 2)


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
    energies, gaps = np.empty(num_steps + 1), np.empty(num_steps)
    boundary = np.empty(num_steps, dtype=complex)
    r, scale, kdt = stepper._r, 0.5 / np.sqrt(system.mesh.h), system.k * dt
    ru, u_next = r @ u, np.empty_like(u)
    energies[0] = e = stepper.energy(u, ru)
    for s in range(num_steps):
        stepper.step(u, out=u_next)
        ru_next = r @ u_next
        energies[s + 1] = e_next = stepper.energy(u_next, ru_next)
        boundary[s] = mid = (ru + ru_next) * scale
        gaps[s] = e_next - e + kdt * abs(mid) ** 2
        u, u_next, ru, e = u_next, u, ru_next, e_next
    times = np.arange(num_steps + 1) * dt
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
