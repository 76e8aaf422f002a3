import numpy as np
import pytest

from schrostab import dynamics
from schrostab.dynamics import (
    EnergyTrace,
    MidpointStepper,
    fit_decay_rate,
    initial_state,
    simulate,
)
from schrostab.errors import NumericalError
from schrostab.grid import Mesh
from schrostab.secular import _scheme, classical_poles_weights, or_poles_weights
from schrostab.systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem, discrete_energy

from conftest import dense_generator, random_complex


def make_system(n=7, k=1.0):
    return SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)


class TestStepper:
    def test_zero_state_fixed_point(self):
        system = make_system()
        W = MidpointStepper(system, 1e-2).step(np.zeros(8))
        np.testing.assert_array_equal(W, np.zeros(8))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            MidpointStepper(make_system(), 0.0)
        with pytest.raises(ValueError):
            MidpointStepper(make_system(), -1e-3)

    @pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
    def test_matches_direct_solve(self, scheme, rng):
        system = SemiDiscreteSystem(scheme, Mesh(5), 1.0)
        dt = 1e-2
        W = random_complex(rng, 6)
        A = dense_generator(system)
        eye = np.eye(6)
        expect = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ W)
        stepper = MidpointStepper(system, dt)
        np.testing.assert_allclose(stepper.step(stepper.enter(W)), stepper.enter(expect),
                                   rtol=1e-12)

    def test_second_order_convergence(self):
        # global error ratio under step halving approaches 4; the data must
        # live on the slowest eigenmodes because the generator's spectrum
        # reaches |lambda| ~ 1e4 even at N = 7 and the asymptotic regime
        # needs dt * |lambda| << 1, so the exact mode solution e^{lambda t}
        # serves as the reference
        from schrostab.spectral import eigenpairs

        system = make_system(7)
        ev, V = eigenpairs(dense_generator(system))
        order = np.argsort(np.abs(ev))
        lams = ev[order[:2]]
        vecs = V[:, order[:2]]
        W0 = vecs.sum(axis=1)
        t_final = 0.1
        exact = vecs @ np.exp(lams * t_final)
        errors = {}
        for dt in (1e-3, 5e-4, 2.5e-4):
            stepper = MidpointStepper(system, dt)
            errors[dt] = np.linalg.norm(_state_at_end(stepper, W0, t_final)
                                        - stepper.enter(exact))
        r1 = errors[1e-3] / errors[5e-4]
        r2 = errors[5e-4] / errors[2.5e-4]
        assert 3.5 <= r1 <= 4.5
        assert 3.5 <= r2 <= 4.5


def _state_at_end(stepper, W0, t_final):
    u = stepper.enter(W0)
    for _ in range(int(round(t_final / stepper.dt))):
        u = stepper.step(u)
    return u


class TestModalStepper:
    @pytest.mark.parametrize("n", [1, 5, 15, 63])
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_matches_dense_cayley_step(self, n, k, rng):
        # one Sherman-Morrison step against the dense Cayley step of the
        # modal generator i Theta - (k/h) c c^T
        mesh = Mesh(n)
        theta, c = or_poles_weights(mesh)
        B = 1j * np.diag(theta) - (k / mesh.h) * np.outer(c, c)
        dt = 1e-3
        a = random_complex(rng, n + 1)
        eye = np.eye(n + 1)
        expect = np.linalg.solve(eye - 0.5 * dt * B, (eye + 0.5 * dt * B) @ a)
        got = MidpointStepper(SemiDiscreteSystem(ORDER_REDUCTION, mesh, k), dt).step(a)
        assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(a)

    def test_simulate_matches_nodal_stepping(self, rng):
        # energies and midpoint boundary values against the dense nodal Cayley
        # step, which is the less accurate side (6e-14 and 3e-14 measured)
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(15), 1.0)
        dt, steps = 1e-3, 50
        W = random_complex(rng, 16)
        trace = simulate(system, W, dt, steps * dt)
        A = dense_generator(system)
        eye = np.eye(16)
        energies, boundary = [discrete_energy(W, system.mesh)], []
        for _ in range(steps):
            W_next = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ W)
            boundary.append(0.5 * (W[-1] + W_next[-1]))
            energies.append(discrete_energy(W_next, system.mesh))
            W = W_next
        boundary = np.array(boundary)
        assert np.max(np.abs(trace.boundary_values - boundary)) <= 1e-12 * np.max(np.abs(boundary))
        assert np.max(np.abs(trace.energies - energies)) <= 1e-12 * energies[0]

    @pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
    @pytest.mark.parametrize("n", [1, 2, 63, 1023])
    @pytest.mark.parametrize("k", [1e-12, 1.0, 1e3])
    def test_simulate_is_a_loop_of_steps(self, scheme, n, k, rng):
        # bit for bit against a loop of `step` calls, and within 1e-14 E(0) of the
        # step as 2(g u - (r^T(g u)) w) - u, which rounds differently (5.2e-15
        # and 6.2e-15 measured)
        system = SemiDiscreteSystem(scheme, Mesh(n), k)
        dt, steps = 1e-3, 20
        W = random_complex(rng, n + 1)
        trace = simulate(system, W, dt, steps * dt)
        stepper = MidpointStepper(system, dt)
        mesh, tau, rho = system.mesh, 0.5 * dt, k / system.mesh.h
        if scheme == ORDER_REDUCTION:
            theta, r = or_poles_weights(mesh)
            p = r
        else:
            theta, c = classical_poles_weights(mesh)
            r = _scheme(mesh, CLASSICAL)[4]
            p = c * c / r
        g = 1.0 / (1.0 - 1j * tau * theta)
        w = (tau * rho / (1.0 + tau * rho * (r @ (g * p)))) * (g * p)
        scale = 0.5 / np.sqrt(mesh.h)
        u = ref = stepper.enter(W)
        energies, boundary = [stepper.energy(u, stepper._r @ u)], []
        ref_energies, ref_boundary = [energies[0]], []
        for _ in range(steps):
            u_next = stepper.step(u)
            boundary.append((stepper._r @ u + stepper._r @ u_next) * scale)
            energies.append(stepper.energy(u_next, stepper._r @ u_next))
            u = u_next
            gu = g * ref
            ref_next = 2.0 * (gu - (r @ gu) * w) - ref
            ref_boundary.append((r @ (ref + ref_next)) * scale)
            ref_energies.append(stepper.energy(ref_next, r @ ref_next))
            ref = ref_next
        np.testing.assert_array_equal(trace.energies, energies)
        np.testing.assert_array_equal(trace.boundary_values, boundary)
        e0 = energies[0]
        assert np.max(np.abs(trace.energies - ref_energies)) <= 1e-14 * e0
        # |V_{N+1}| is at most of the order of sqrt(E / h)
        assert np.max(np.abs(trace.boundary_values - ref_boundary)) <= 1e-14 * np.sqrt(e0 / mesh.h)

    @pytest.mark.parametrize("scheme,coordinates", [(ORDER_REDUCTION, "or_modal_coordinates"),
                                                    (CLASSICAL, "classical_modal_coordinates")],
                             ids=[ORDER_REDUCTION, CLASSICAL])
    def test_entry_check_binds(self, scheme, coordinates, monkeypatch, rng):
        exact = getattr(dynamics, coordinates)
        monkeypatch.setattr(dynamics, coordinates, lambda mesh, W: exact(mesh, W) * (1 + 1e-10))
        system = SemiDiscreteSystem(scheme, Mesh(15), 1.0)
        with pytest.raises(NumericalError, match="modal coordinates carry energy"):
            simulate(system, random_complex(rng, 16), 1e-3, 0.01)


class TestClassicalStepper:
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 63, 255])
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_matches_dense_cayley_step(self, n, k, rng):
        system = SemiDiscreteSystem(CLASSICAL, Mesh(n), k)
        dt = 1e-3
        W = random_complex(rng, n + 1)
        A = dense_generator(system)
        eye = np.eye(n + 1)
        expect = np.linalg.solve(eye - 0.5 * dt * A, (eye + 0.5 * dt * A) @ W)
        stepper = MidpointStepper(system, dt)
        u = stepper.enter(W)
        assert np.linalg.norm(stepper.step(u) - stepper.enter(expect)) <= 1e-13 * np.linalg.norm(u)

    def test_weak_damping_keeps_the_norm(self):
        # at k = 1e-12 the generator is nearly skew-Hermitian, so the Cayley step
        # keeps the Euclidean norm; the modal coordinates are sqrt(h) V^T W with V
        # orthogonal, so their norm is the state's (6.0e-13 drift measured)
        system = SemiDiscreteSystem(CLASSICAL, Mesh(65535), 1e-12)
        stepper = MidpointStepper(system, 1e-3)
        u = stepper.enter(initial_state("smooth", system))
        start = np.linalg.norm(u)
        for _ in range(300):
            u = stepper.step(u)
        assert abs(np.linalg.norm(u) - start) <= 1e-11 * start


class TestSimulate:
    def test_trace_shapes(self):
        system = make_system()
        trace = simulate(system, initial_state("sine", system), 1e-2, 0.1)
        assert trace.times.size == 11
        assert trace.energies.size == 11
        assert trace.boundary_values.size == 10
        assert trace.step_gaps.size == 10
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.1)

    def test_rejects_bad_windows(self):
        system = make_system()
        with pytest.raises(ValueError):
            simulate(system, np.zeros(8), -1e-2, 1.0)
        with pytest.raises(ValueError):
            simulate(system, np.zeros(8), 1e-2, 1e-3)

    def test_step_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a stepper past the step cap")

        monkeypatch.setattr("schrostab.dynamics.MidpointStepper", refuse)
        system = make_system()
        with pytest.raises(ValueError, match="1e\\+06 steps exceeds the cap of 1000000"):
            simulate(system, np.zeros(8), 1e-3, 1000.001)

    @pytest.mark.parametrize("n,k,dt", [(7, 1.0, 1e-2), (31, 0.5, 1e-3), (63, 10.0, 1e-3)])
    def test_per_step_energy_identity(self, n, k, dt, rng):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)
        W0 = random_complex(rng, n + 1)
        trace = simulate(system, W0, dt, 0.05)
        assert np.max(np.abs(trace.step_gaps)) <= 1e-12 * trace.energies[0]

    def test_energies_nonincreasing(self, rng):
        system = make_system(31)
        trace = simulate(system, random_complex(rng, 32), 1e-3, 0.5)
        assert np.all(np.diff(trace.energies) <= 1e-14 * trace.energies[0])

    def test_undamped_limit_conserves(self, rng):
        # a vanishing boundary value over the step leaves the energy fixed;
        # with tiny gain the drift over many steps stays proportional to k
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(15), 1e-8)
        trace = simulate(system, random_complex(rng, 16), 1e-3, 0.2)
        drop = trace.energies[0] - trace.energies[-1]
        assert 0 <= drop <= 1e-5 * trace.energies[0]


class TestFitDecayRate:
    def synthetic_trace(self, omega, t_final=2.0, dt=1e-2):
        times = np.arange(0.0, t_final + dt / 2, dt)
        energies = np.exp(-2.0 * omega * times)
        return EnergyTrace(
            times=times,
            energies=energies,
            boundary_values=np.zeros(times.size - 1, dtype=complex),
            step_gaps=np.zeros(times.size - 1),
        )

    @pytest.mark.parametrize("omega", [0.0, 1.0, 1.94])
    def test_exact_exponential(self, omega):
        trace = self.synthetic_trace(omega)
        assert fit_decay_rate(trace, 0.5, 2.0) == pytest.approx(omega, abs=1e-10)

    def test_window_too_small(self):
        trace = self.synthetic_trace(1.0)
        with pytest.raises(ValueError):
            fit_decay_rate(trace, 0.0, 0.05)

    def test_nonpositive_energy_rejected(self):
        trace = self.synthetic_trace(1.0)
        object.__setattr__(trace, "energies", trace.energies - 0.5)
        with pytest.raises(ValueError):
            fit_decay_rate(trace, 1.5, 2.0)

    def test_simulated_rate_near_abscissa(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(63), 1.0)
        W0 = initial_state("smooth", system, seed=0)
        trace = simulate(system, W0, 1e-3, 3.0)
        omega = fit_decay_rate(trace, 1.5, 3.0)
        assert omega == pytest.approx(1.94, rel=0.15)


class TestInitialState:
    def test_presets_shapes(self):
        system = make_system(9)
        for preset in ("random", "smooth", "sine"):
            W = initial_state(preset, system, seed=1)
            assert W.shape == (10,)
            assert W.dtype == complex

    def test_seeded_reproducibility(self):
        system = make_system(9)
        a = initial_state("smooth", system, seed=7)
        b = initial_state("smooth", system, seed=7)
        c = initial_state("smooth", system, seed=8)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_sine_values(self):
        system = make_system(3)
        W = initial_state("sine", system)
        np.testing.assert_allclose(W, np.sin(np.pi * system.mesh.nodes[1:]))

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            initial_state("hat", make_system())
