"""End-to-end acceptance gate.

Each test checks one advertised guarantee at its stated tolerance and
prints a single pass/fail line so the whole gate reads as a checklist.
"""

import numpy as np
import pytest

from schrostab.continuous import characteristic_roots
from schrostab.dynamics import fit_decay_rate, initial_state, simulate
from schrostab.grid import Mesh, triple_sum_identity_gap
from schrostab.identities import run_identity_suite
from schrostab.secular import or_poles_weights, spectrum
from schrostab.spectral import resolvent_sweep, spectral_abscissa, sweep_with_spectrum
from schrostab.systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem, apply_generator

from conftest import dense_generator
from oracles import SampledFunction, apply_continuous_inverse, yh_inner, yh_norm


def _report(capsys, number, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"criterion {number:2d}: {status}  {detail}")
    assert passed, detail


def _batch(rng, size, count):
    return rng.standard_normal((size, count)) + 1j * rng.standard_normal((size, count))


def test_criterion_01_dissipation_identity(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 4, 16, 64, 256, 1023):
        mesh = Mesh(n)
        for k in (0.1, 1.0, 10.0):
            Y = _batch(rng, n + 1, 1000)
            AY = apply_generator(ORDER_REDUCTION, Y, k, mesh)
            gap = np.abs(np.real(yh_inner(AY, Y, mesh)) + k * np.abs(Y[-1]) ** 2)
            scale = yh_norm(Y, mesh) * yh_norm(AY, mesh) + k * np.abs(Y[-1]) ** 2
            worst = max(worst, float(np.max(gap / scale)))
    _report(capsys, 1, worst <= 1e-10, f"max relative dissipation gap {worst:.3e}")


def test_criterion_02_triple_sum_identity(capsys):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 4098))
        u, v, w = (_batch(rng, size, 1)[:, 0] for _ in range(3))
        gap = abs(triple_sum_identity_gap(u, v, w))
        scale = np.max(np.abs(u)) * np.max(np.abs(v)) * np.max(np.abs(w)) * size
        worst = max(worst, gap / scale)
    _report(capsys, 2, worst <= 1e-12, f"max relative telescoping gap {worst:.3e}")


def test_criterion_03_multiplier_identities(capsys):
    reports = run_identity_suite(
        n_values=(1, 2, 7, 64, 255, 1023), samples=1000, seed=103
    )
    checked = [r for r in reports if r.identity != "triple_sum"]
    worst = max(r.relative_gap for r in checked)
    passed = all(r.passed for r in checked)
    _report(capsys, 3, passed, f"max relative identity gap {worst:.3e} over {len(checked)} configs")


def test_criterion_04_spectrum_location(capsys):
    # residuals relative to max theta + (k/h) ||c||^2, the secular certificate's
    # scale, which is 0.96-1.25 times the power-iteration estimate of ||A||_2
    worst_abs = -np.inf
    worst_res = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        mesh = Mesh(n)
        theta, c = or_poles_weights(mesh)
        for k in (0.1, 1.0, 10.0):
            rep = spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, mesh, k))
            worst_abs = max(worst_abs, rep.abscissa)
            scale = np.max(theta) + k / mesh.h * np.sum(c * c)
            worst_res = max(worst_res, rep.max_eigen_residual / scale)
    passed = worst_abs < 0 and worst_res <= 1e-14
    _report(
        capsys, 4, passed,
        f"max abscissa {worst_abs:.4f}, max relative eigen-residual {worst_res:.3e}",
    )


def test_criterion_05_abscissa_trends(capsys):
    n_values = (9, 19, 39, 79, 159, 319, 639, 999)
    abs_or = []
    abs_cl = []
    for n in n_values:
        abs_or.append(spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0)).abscissa)
        abs_cl.append(spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(n), 1.0)).abscissa)
    shrink = abs(abs_cl[0]) / abs(abs_cl[-1])
    non_monotone = sum(
        1 for a, b in zip(abs_cl, abs_cl[1:]) if abs(b) >= abs(a)
    )
    spread = (max(abs_or) - min(abs_or)) / abs(min(abs_or))
    continuous = float(np.max(characteristic_roots(1.0, 50).real))
    at_511 = spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(511), 1.0)).abscissa
    agree = abs(at_511 - continuous) / abs(continuous)
    passed = shrink >= 10 and non_monotone <= 2 and spread < 0.20 and agree < 0.05
    _report(
        capsys, 5, passed,
        f"classical shrink x{shrink:.1f}, non-monotone pairs {non_monotone}, "
        f"order-reduction spread {100 * spread:.1f}%, continuous agreement {100 * agree:.2f}%",
    )


def test_criterion_06_resolvent_uniformity(capsys):
    # the classical sup sits at the rightmost eigenvalue's peak, of height
    # about 1.73 / |alpha| (measured: 1.72867 at N=255 and 1.73121 at N=1023);
    # the order-reduction sup ratio measured 1.00290
    sup_or = []
    sup_cl = []
    alpha_cl = []
    for n in (15, 63, 255):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0)
        sup_or.append(resolvent_sweep(system, -20.0, 20.0).sup_norm)
    for n in (15, 63, 255, 1023):
        system = SemiDiscreteSystem(CLASSICAL, Mesh(n), 1.0)
        spec = spectral_abscissa(system)  # one solve for the sweep and the peak product
        sup_cl.append(sweep_with_spectrum(spec, -20.0, 20.0).sup_norm)
        alpha_cl.append(spec.abscissa)
    peak = [sup * abs(alpha) for sup, alpha in zip(sup_cl[2:], alpha_cl[2:])]
    ratio = max(sup_or) / min(sup_or)
    growing = all(a < b for a, b in zip(sup_cl, sup_cl[1:]))
    passed = ratio <= 1.01 and growing and all(1.70 <= p <= 1.76 for p in peak)
    _report(
        capsys, 6, passed,
        f"order-reduction sup ratio {ratio:.3f}, classical sups "
        + " < ".join(f"{s:.1f}" for s in sup_cl)
        + ", sup |alpha| " + ", ".join(f"{p:.3f}" for p in peak) + " at N = 255, 1023",
    )


def test_criterion_07_midpoint_energy_identity(capsys):
    # the identity is exact in exact arithmetic; the stepper never forms
    # the generator, whose norm grows like (N+1)^4, and steps in the modal
    # basis, so the 1e-13 * E(0) bound holds at every N checked here (the
    # measured worst is 5.8e-16)
    worst = 0.0
    monotone = True
    rng = np.random.default_rng(107)
    configs = [(n, k) for n in (15, 31, 63, 255, 1023) for k in (0.1, 1.0, 10.0)]
    for n, k in configs:
        dt = 1e-3 if n < 63 else 5e-4
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)
        W0 = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        trace = simulate(system, W0, dt, 0.5)
        worst = max(worst, float(np.max(np.abs(trace.step_gaps)) / trace.energies[0]))
        monotone &= bool(np.all(np.diff(trace.energies) <= 1e-14 * trace.energies[0]))
    passed = worst <= 1e-13 and monotone
    _report(
        capsys, 7, passed,
        f"max per-step energy defect {worst:.3e} of E(0), monotone={monotone}",
    )


def test_criterion_08_decay_rate_uniformity(capsys):
    t_final = 3.0
    fits = {}
    deviations = {}
    for n in (31, 63, 127, 255):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0)
        W0 = initial_state("smooth", system, seed=108)
        trace = simulate(system, W0, 1e-3, t_final)
        omega = fit_decay_rate(trace, t_final / 2, t_final)
        fits[n] = omega
        abscissa = abs(spectral_abscissa(system).abscissa)
        deviations[n] = abs(omega - abscissa) / abscissa
    values = list(fits.values())
    spread = (max(values) - min(values)) / min(values)
    passed = spread <= 0.10 and all(d <= 0.15 for d in deviations.values())
    _report(
        capsys, 8, passed,
        f"omega_fit spread {100 * spread:.1f}%, max abscissa deviation "
        f"{100 * max(deviations.values()):.1f}%",
    )


def test_criterion_09_continuous_inverse(capsys):
    k = 1.0
    residuals = {}
    for num in (257, 513):
        f = SampledFunction.from_callable(lambda x: np.cos(2 * np.pi * x) + 1j * x, num)
        g = apply_continuous_inverse(f, k)
        dx = g.grid[1] - g.grid[0]
        v = g.values
        # fourth-order stencil: the three-point second difference is exact
        # by construction and would only measure roundoff
        gpp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * dx**2)
        residuals[num] = float(np.max(np.abs(-1j * gpp - f.values[2:-2])))
    ratio = residuals[257] / residuals[513]
    f = SampledFunction.from_callable(lambda x: np.cos(2 * np.pi * x) + 1j * x, 513)
    g = apply_continuous_inverse(f, k)
    dx = g.grid[1] - g.grid[0]
    gp1 = (3 * g.values[-1] - 4 * g.values[-2] + g.values[-3]) / (2 * dx)
    bc = abs(gp1 + 1j * k * g.values[-1])
    passed = 3.0 <= ratio <= 5.0 and g.values[0] == 0 and bc <= 100 * dx**2
    _report(
        capsys, 9, passed,
        f"interior residual ratio {ratio:.2f}, boundary defect {bc:.2e} at dx={dx:.1e}",
    )


def test_criterion_10_eigensolver_oracle(capsys):
    # the certified secular roots at N = 1 against the roots of the 2x2 generator's
    # characteristic quadratic
    A = dense_generator(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(1), 1.0))
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = np.sqrt(tr**2 - 4 * det + 0j)
    oracle = np.sort_complex(np.array([(tr + disc) / 2, (tr - disc) / 2]))
    solved = np.sort_complex(spectrum(Mesh(1), 1.0, ORDER_REDUCTION)[0])
    err = float(np.max(np.abs(solved - oracle)))
    passed = err <= 1e-10
    _report(capsys, 10, passed, f"secular roots against the quadratic oracle: error {err:.2e}")


def _continuum_coefficient(k):
    """C of alpha_h = alpha + Re(C) h^2 + O(h^4), by mpmath at the lowest continuous root.

    The order-reduction dispersion relation is nu cosh mu + i k sinh mu = 0
    with nu = (2/h) tanh(mu h/2) = mu - mu^3 h^2/12 + O(h^4), so the root
    moves by (mu^3 h^2/12) cosh mu / F'(mu), F(mu) = mu cosh mu + i k sinh mu,
    and lam = -i nu^2 by C h^2.
    """
    import mpmath

    mu0 = complex(np.sqrt(1j * characteristic_roots(k, 1)[0]))
    def F(mu):
        return mu * mpmath.cosh(mu) + 1j * k * mpmath.sinh(mu)

    with mpmath.workdps(30):
        mu = mpmath.findroot(F, mpmath.mpc(mu0))
        dF = mpmath.cosh(mu) + mu * mpmath.sinh(mu) + 1j * k * mpmath.cosh(mu)
        return complex(-1j * (2 * mu * (mu**3 / 12) * mpmath.cosh(mu) / dF - mu**4 / 6))


def test_criterion_11_order_reduction_abscissa_beyond_dense_cap(capsys):
    # |alpha_h - alpha - Re(C) h^2| <= 0.6 h^4 + 1e-14, with the h^4 coefficient
    # measured at -0.509 for N = 63, 255 and 1023; from N = 16383 on, the bound is
    # the 1e-14 alone
    continuous = float(np.max(characteristic_roots(1.0, 50).real))
    re_c = _continuum_coefficient(1.0).real
    n_values = (63, 255, 1023, 4095, 16383, 65535)
    gaps = []
    for n in n_values:
        rep = spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0))
        h = 1.0 / (n + 1)
        gaps.append((abs(rep.abscissa - continuous - re_c * h**2), 0.6 * h**4 + 1e-14))
    passed = rep.eigenvalues.size == 65536 and all(gap <= bound for gap, bound in gaps)
    _report(
        capsys, 11, passed,
        f"order-reduction abscissa minus continuum expansion (Re C = {re_c:.7f}): "
        f"{', '.join(f'{gap:.1e} <= {bound:.1e}' for gap, bound in gaps)} "
        f"at N = {', '.join(map(str, n_values))}",
    )


def test_criterion_12_classical_blowup_beyond_dense_cap(capsys):
    # alpha ~ (N+1)^p by least squares in log-log over N = 255 to 65535;
    # the classical scheme loses uniform decay at p = -2
    n_values = (255, 1023, 4095, 16383, 65535)
    reports = [spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(n), 1.0)) for n in n_values]
    abscissae = np.array([rep.abscissa for rep in reports])
    p = np.polyfit(np.log(np.array(n_values) + 1.0), np.log(-abscissae), 1)[0]
    passed = (reports[-1].eigenvalues.size == 65536 and np.all(abscissae < 0)
              and -2.1 <= p <= -1.9)
    _report(
        capsys, 12, passed,
        f"classical abscissae {', '.join(f'{a:.4e}' for a in abscissae)} at N = "
        f"{', '.join(map(str, n_values))}, exponent {p:.3f}",
    )
