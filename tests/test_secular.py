import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from schrostab import secular
from schrostab.dynamics import MidpointStepper, simulate
from schrostab.errors import NumericalError
from schrostab.grid import Mesh, build_scheme_matrices
from schrostab.secular import (
    classical_poles_weights,
    in_spectrum,
    or_poles_weights,
    resolvent_smin,
    spectrum,
)
from schrostab.spectral import default_beta_max, spectral_abscissa, sweep_grid
from schrostab.systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem, apply_generator

from conftest import (
    aberth_roots,
    classical_polished_roots,
    classical_resolvent_within,
    dense_generator,
    modal_oracle,
    or_backward_residual,
    or_polished_roots,
    random_complex,
    weighted_oracle,
)


EPS = np.finfo(float).eps


def by_imaginary_part(z):
    return z[np.argsort(z.imag)]


@pytest.mark.parametrize("n", [1, 15, 63, 255])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_factorisation_matches_weighted_oracle(n, k):
    # B = Q (i Theta - (k/h) c c^T) Q^T with q_m = D s_m / ||D s_m||
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    Q = modal_oracle(mesh)
    B = Q @ (1j * np.diag(theta) - (k / mesh.h) * np.outer(c, c)) @ Q.T
    expect = weighted_oracle(SemiDiscreteSystem(ORDER_REDUCTION, mesh, k))
    assert np.linalg.norm(B - expect, 2) <= 1e-11 * np.linalg.norm(expect, 2)


@pytest.mark.parametrize("n", [1, 2, 6, 15, 100, 255])
def test_modal_coordinates_match_dense_sine_matrix(n, rng):
    # the DST-III through numpy.fft against Q^T sqrt(h) D W with Q dense; the
    # dense sines round their arguments, which reach (N+1) pi, so the oracle
    # itself is off by about 2e-13 at N=255
    mesh = Mesh(n)
    W = random_complex(rng, n + 1)
    expect = modal_oracle(mesh).T @ (np.sqrt(mesh.h) * (build_scheme_matrices(mesh).D @ W))
    got = secular._scheme(mesh, 1.0, ORDER_REDUCTION).coordinates(W)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    # the last state component is c^T a / sqrt(h)
    c = or_poles_weights(mesh)[1]
    assert abs(c @ got / np.sqrt(mesh.h) - W[-1]) <= 1e-13 * np.linalg.norm(W)


@pytest.mark.parametrize("n", [1, 2, 15, 255])
def test_classical_modal_coordinates_match_dense_sine_matrix(n, rng):
    # u = sqrt(h) V^T W with V_jm = sin(2 (j+1) a_m) / ||v_m||, checked orthonormal
    # and diagonalising M M^T; the stepper's weights r = V^T e_N and energy form
    mesh = Mesh(n)
    mu, c = classical_poles_weights(mesh)
    a = (2 * np.arange(n + 1) + 1) * np.pi / (2 * (2 * n + 3))
    V = np.sin(2 * np.outer(np.arange(1, n + 2), a)) / np.sqrt((2 * n + 3) / 4)
    np.testing.assert_allclose(V.T @ V, np.eye(n + 1), atol=1e-13)
    M = build_scheme_matrices(mesh).M @ np.eye(mesh.state_size)
    np.testing.assert_allclose(V.T @ M @ M.T @ V, np.diag(mu), atol=1e-12 * np.max(mu))
    W = random_complex(rng, n + 1)
    expect = np.sqrt(mesh.h) * (V.T @ W)
    record = secular._scheme(mesh, 1.0, CLASSICAL)
    got = record.coordinates(W)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    r = (-1.0) ** np.arange(n + 1) * c / np.sqrt(1 + 0.5 * mu * mesh.h**2)
    np.testing.assert_allclose(V[-1], r, rtol=0, atol=1e-13)
    assert abs(r @ got / np.sqrt(mesh.h) - W[-1]) <= 1e-13 * np.linalg.norm(W)
    # (h/2) ||D W||^2 = (sum cos^2 a_m |u_m|^2 - |r^T u|^2 / 2) / 2
    D = build_scheme_matrices(mesh).D
    energy = 0.5 * (np.cos(a) ** 2 @ np.abs(got) ** 2 - 0.5 * abs(r @ got) ** 2)
    assert energy == pytest.approx(0.5 * mesh.h * np.linalg.norm(D @ W) ** 2, rel=1e-13)
    with pytest.raises(ValueError, match="needs length"):
        record.coordinates(W[:-1])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 255), k=st.floats(0.1, 100.0))
def test_secular_roots_match_dense_eigenvalues(n, k):
    system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)
    lam = by_imaginary_part(spectrum(system.mesh, k, ORDER_REDUCTION)[0])
    dense = by_imaginary_part(np.linalg.eigvals(dense_generator(system)))
    assert np.all(np.abs(lam - dense) <= 1e-7 * np.abs(dense))


def _mpmath_roots(theta, c, rho):
    """Roots of prod_m (lam - i theta_m) + rho sum_m c_m^2 prod_{l != m} (lam - i theta_l) at 40 digits."""
    with mpmath.workdps(40):
        poles = [mpmath.mpc(0, mpmath.mpf(t)) for t in theta]
        weights = [mpmath.mpf(rho) * mpmath.mpf(w) ** 2 for w in c]

        def product(skip):
            coeffs = [mpmath.mpc(1)]
            for l, p in enumerate(poles):
                if l != skip:
                    coeffs = [a - p * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            return coeffs

        coeffs = product(None)
        for m, w in enumerate(weights):
            for i, a in enumerate(product(m)):
                coeffs[i + 1] += w * a
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=400)
    return np.array([complex(r) for r in roots])


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
def test_roots_match_mpmath_oracle(n, k):
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    lam = by_imaginary_part(spectrum(mesh, k, ORDER_REDUCTION)[0])
    expect = by_imaginary_part(_mpmath_roots(theta, c, rho))
    assert np.all(np.abs(lam - expect) <= 1e-13 * np.abs(expect))


def spectrum_and_aberth(scheme, n, k):
    """Certified and Aberth roots of a scheme's secular equation, by imaginary part."""
    mesh = Mesh(n)
    if scheme == ORDER_REDUCTION:
        poles, c = or_poles_weights(mesh)
        lam = spectrum(mesh, k, ORDER_REDUCTION)[0]
    else:
        poles, c = classical_poles_weights(mesh)
        lam = spectrum(mesh, k, CLASSICAL)[0]
    return by_imaginary_part(lam), by_imaginary_part(aberth_roots(poles, c, k / mesh.h))


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("n", [1, 2, 7, 15, 63, 255, 1023])
@pytest.mark.parametrize("k", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_spectra_match_aberth_oracle(scheme, n, k):
    # the branch-wise roots against all-at-once Aberth sweeps on the same
    # secular equation; at large k h one classical branch lands on the fold
    # lam = 4i/h^2 and the root it misses is the trace less the others
    lam, expect = spectrum_and_aberth(scheme, n, k)
    assert np.all(np.abs(lam - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("n", [15, 255, 1023])
@pytest.mark.parametrize("k", [1e-12, 1e-9, 1e-6])
def test_weak_damping_matches_aberth_oracle(scheme, n, k):
    # the top branch roots are off by more than |eps_j| = (k/h) c_j^2 there,
    # so Newton on f alone runs off along pole j; real parts agree to 6.4e-16
    lam, expect = spectrum_and_aberth(scheme, n, k)
    assert np.all(np.abs(lam - expect) <= 1e-12 * np.abs(expect))
    assert np.all(np.abs(lam.real - expect.real) <= 8 * EPS * np.abs(expect.real))


@pytest.mark.parametrize("n", [255, 1023, 8191])
def test_poles_weights_match_mpmath(n):
    # tan phi_m and cos phi_m near pi/2 taken from the rounded phi_m put
    # theta_N 2.6e-12 and c_N 1.3e-12 off at N = 8191
    theta, c = or_poles_weights(Mesh(n))
    with mpmath.workdps(40):
        h = mpmath.mpf(1) / (n + 1)
        phi = [(m + mpmath.mpf(1) / 2) * mpmath.pi * h / 2 for m in range(n + 1)]
        expect_theta = np.array([float((2 / h * mpmath.tan(p)) ** 2) for p in phi])
        expect_c = np.array([float((-1) ** m * mpmath.sqrt(2 * h) / mpmath.cos(p))
                             for m, p in enumerate(phi)])
    assert np.all(np.abs(theta - expect_theta) <= 4 * EPS * expect_theta)
    assert np.all(np.abs(c - expect_c) <= 4 * EPS * np.abs(expect_c))


@pytest.mark.parametrize("n", [1, 15, 255, 1023])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
def test_certificate_holds_with_margin(n, k):
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    lam, worst = spectrum(mesh, k, ORDER_REDUCTION)
    assert lam.size == n + 1
    assert worst <= 1e-15 * (theta.max() + (k / mesh.h) * c @ c)


def or_carried(monkeypatch, mesh, k):
    """The certified order-reduction roots, and the v_j = delta_j / (k h) `_refine` carried."""
    refine, carried = secular._refine, []

    def recorded(*args):
        carried.append(refine(*args))
        return carried[-1]

    with monkeypatch.context() as patch:
        patch.setattr("schrostab.secular._refine", recorded)
        lam = spectrum(mesh, k, ORDER_REDUCTION)[0]
    return lam, carried[0][2]


def or_off_root(mesh, k, r, direction):
    """v_j with delta_j = r sin(2 phi_j) direction_j / 4, so |lam(psi_j) - i theta_j| is about
    r theta_j |direction_j|."""
    phi = (np.arange(mesh.state_size) + 0.5) * np.pi * mesh.h / 2
    return r * np.sin(2 * phi) * direction / (4 * k * mesh.h)


def or_closed_form(v, mesh, k):
    """f = W - V / (tan(L delta) tan psi) of `secular._tan2_terms` at psi_j = phi_j + k h v_j."""
    tan = secular._scheme(mesh, k, ORDER_REDUCTION).exact[0]
    big, near, w, vk = secular._tan2_terms(v, tan, 2 * mesh.state_size, k * mesh.h)[:4]
    return w - vk / (big * near)


def _mpmath_characteristic(v, n, kh, sums=True):
    """eps_j = lam(psi_j) - i theta_j^exact at psi_j = phi_j + k h v_j, and f(lam(psi_j)) and
    1 + sum_m |(k/h) c_m^2 / (lam - i theta_m)| unless not `sums`, at 40 digits.

    lam(psi) = 4 i tan^2 psi / h^2, with exact poles and k h the double the closed form takes.
    """
    with mpmath.workdps(40):
        h, kh = mpmath.mpf(1) / (n + 1), mpmath.mpf(kh)
        phi = [(m + mpmath.mpf(1) / 2) * mpmath.pi * h / 2 for m in range(n + 1)]
        theta = [(2 / h * mpmath.tan(p)) ** 2 for p in phi]
        weights = [2 * kh / h / mpmath.cos(p) ** 2 for p in phi]
        eps, f, size = [], [], []
        for j, vj in enumerate(v):
            lam = 4j * mpmath.tan(phi[j] + kh * mpmath.mpc(vj.real, vj.imag)) ** 2 / h**2
            eps.append(complex(lam - 1j * theta[j]))
            if sums:
                terms = [w / (lam - 1j * t) for w, t in zip(weights, theta)]
                f.append(complex(1 + sum(terms)))
                size.append(float(1 + sum(abs(t) for t in terms)))
    return np.array(eps), np.array(f), np.array(size)


@pytest.mark.parametrize("n", [1, 15, 255, 1023, 4095])
@pytest.mark.parametrize("k", [1e-12, 0.01, 1.0, 100.0, 1e3])
def test_closed_form_matches_direct_oracle(n, k, monkeypatch):
    # the O(N) roots and residuals against Newton and backward residuals on the
    # direct O(N^2) sums: roots measured within 3.7e-15 relative, and the
    # closed-form residual, whose ||v|| keeps 9 terms, within [1, 1.08] of the
    # direct one away from the roots: at delta_j moved by 1e-9 sin(2 phi_j) / 4
    # from the carried one, eps_j by about 1e-9 theta_j
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    scale = theta.max() + rho * c @ c
    lam, v = or_carried(monkeypatch, mesh, k)
    expect = or_polished_roots(mesh, k)
    assert np.all(np.abs(lam - expect) <= 1e-14 * np.abs(expect))
    assert np.all(or_backward_residual(lam, theta, c, rho) <= 1e-14 * scale)
    moved = v + or_off_root(mesh, k, 1e-9, 1.0)
    eps = _mpmath_characteristic(moved, n, k * mesh.h, sums=False)[0]
    record = secular._scheme(mesh, k, ORDER_REDUCTION)
    closed_form = secular._residual(eps, or_closed_form(moved, mesh, k), record)
    at = (1j * theta + eps) + 1j * record.exact[1]
    ratio = closed_form / or_backward_residual(at, theta, c, rho)
    assert np.all((ratio >= 1 - 1e-5) & (ratio <= 1.1))


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("k", [1e-12, 1.0, 1e3])
def test_closed_form_matches_mpmath(n, k, rng, monkeypatch):
    # f at the carried roots and at |eps_j| = r theta_j from pole j, all given by
    # v_j = delta_j / (k h), against the direct sum at lam(psi_j) on the exact poles
    # at 40 digits: within a relative 1e-14 of the summed terms (measured: 5.3e-16)
    mesh = Mesh(n)
    points = [or_carried(monkeypatch, mesh, k)[1]]
    points += [or_off_root(mesh, k, r, np.exp(2j * np.pi * rng.random(n + 1)))
               for r in (1e-2, 1e-8, 1e-14)]
    for v in points:
        expect, size = _mpmath_characteristic(v, n, k * mesh.h)[1:]
        assert np.all(np.abs(or_closed_form(v, mesh, k) - expect) <= 1e-14 * size)


@pytest.mark.parametrize("n, k, rtol", [
    (15, 1e-30, 8 * EPS), (255, 1e-30, 8 * EPS), (8191, 1e-30, 8 * EPS),
    (15, 1e-300, 8 * EPS), (255, 1e-300, 8 * EPS), (8191, 1e-300, 8 * EPS),
    (65535, 1e-300, 8 * EPS),
])
def test_extreme_weak_damping_certifies(n, k, rtol):
    # Re lam_j = -(k/h) c_j^2 (1 + O(k^2)), to 4.9 eps measured; at k = 1e-300 the
    # pole-relative delta_j of the top roots is subnormal from N = 8191 on, so Newton
    # runs on delta / (k h)
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    lam, worst = spectrum(mesh, k, ORDER_REDUCTION)
    assert 0 <= worst <= 1e-15 * (theta.max() + rho * c @ c)
    assert np.all(np.abs(lam.real + rho * c * c) <= rtol * rho * c * c)


def test_duplicate_root_is_refused(monkeypatch):
    refine = secular._refine

    def duplicated(*args):
        lam, eps, v = refine(*args)
        lam[1] = lam[0]
        return lam, eps, v

    monkeypatch.setattr("schrostab.secular._refine", duplicated)
    with pytest.raises(NumericalError, match="coincide"):
        spectrum(Mesh(15), 1.0, ORDER_REDUCTION)


def test_roots_apart_only_in_real_part_are_refused(monkeypatch):
    # one imaginary part and real parts 1e-3 apart: 2.9e-4 apart relative to
    # |lam|, which the pairwise rule passes, but coincident in imaginary-part order
    refine = secular._refine

    def flattened(*args):
        lam, eps, v = refine(*args)
        lam[1] = lam[0] + 1e-3
        return lam, eps, v

    monkeypatch.setattr("schrostab.secular._refine", flattened)
    with pytest.raises(NumericalError, match="coincide"):
        spectrum(Mesh(15), 1.0, ORDER_REDUCTION)


@pytest.mark.parametrize("scheme, where, n", [
    pytest.param(scheme, where, n, id=f"{'classical-' if scheme == CLASSICAL else ''}{where}-{n}")
    for scheme in (ORDER_REDUCTION, CLASSICAL)
    for where in ("bottom", "middle", "top") for n in (15, 255, 4095)
])
def test_closed_form_residual_binds(monkeypatch, scheme, where, n):
    # one root moved by 1e-13 of the scale, 10 times the bound: the closed form
    # alone refuses it, and so does the certificate, whose direct cross-check
    # covers every root at N = 15 but only 72 of them otherwise.  Both schemes'
    # closed forms are taken at the carried eps_j, so the returned root's distance
    # from i poles_j^exact + eps_j is what refuses it
    mesh = Mesh(n)
    if scheme == ORDER_REDUCTION:
        poles, c = or_poles_weights(mesh)
        scale = poles.max() + c @ c / mesh.h
    else:
        poles = classical_poles_weights(mesh)[0]
        scale = poles.max() + np.sqrt(2.5) / mesh.h
    root = {"bottom": 0, "middle": n // 2, "top": n}[where]
    refine, certify = secular._refine, secular._certify
    closed_form = []

    def shifted(*args):
        lam, eps, v = refine(*args)
        lam[root] += 1e-13 * scale
        return lam, eps, v

    def recorded(lam, residuals, *args):
        closed_form.append(next(residuals))
        return certify(lam, iter([closed_form[0], *residuals]), *args)

    monkeypatch.setattr("schrostab.secular._refine", shifted)
    monkeypatch.setattr("schrostab.secular._certify", recorded)
    with pytest.raises(NumericalError, match="secular residual"):
        spectrum(mesh, 1.0, scheme)
    assert closed_form[0][root] > 1e-14 * scale


@pytest.mark.parametrize("bad", [-np.inf, np.nan])
def test_residual_that_is_not_a_nonnegative_number_is_refused(monkeypatch, bad):
    residual = secular._residual

    def broken(*args):
        out = residual(*args)
        out[3] = bad
        return out

    monkeypatch.setattr("schrostab.secular._residual", broken)
    with pytest.raises(NumericalError, match="secular residual"):
        spectrum(Mesh(15), 1.0, ORDER_REDUCTION)


def test_nan_in_a_later_residual_block_is_refused():
    # the worst residual over blocks keeps a nan that a running max() would drop
    lam = np.array([-1.0 + 1.0j, -1.0 + 2.0j])
    blocks = iter([np.array([0.0]), np.array([np.nan])])
    with pytest.raises(NumericalError, match=r"secular residual nan is outside \[0, "):
        secular._certify(lam, blocks, 1.0, (-2.0, 3.0), "(test)")


@pytest.mark.parametrize("part, traces", [("real", (-2.1, 3.0)), ("imaginary", (-2.0, 3.1))])
def test_roots_that_miss_a_trace_are_refused(part, traces):
    lam = np.array([-1.0 + 1.0j, -1.0 + 2.0j])
    blocks = iter([np.array([0.0]), np.array([0.0])])
    with pytest.raises(NumericalError, match=f"miss the {part}-part trace"):
        secular._certify(lam, blocks, 1.0, traces, "(test)")


def test_nonfinite_root_is_refused(monkeypatch):
    # one lost branch root is the trace less the others; two are refused
    solve = secular._branch_roots

    def lost(coefficients, zeta0):
        mu = solve(coefficients, zeta0)
        mu[[3, 8]] = np.nan
        return mu

    monkeypatch.setattr("schrostab.secular._branch_roots", lost)
    with pytest.raises(NumericalError, match="14 finite roots of 16"):
        spectrum(Mesh(15), 1.0, ORDER_REDUCTION)


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("fault", ["nan", "twin"])
def test_one_missing_branch_root_comes_from_the_trace(monkeypatch, scheme, fault):
    mesh = Mesh(15)
    expect = by_imaginary_part(spectrum(mesh, 1.0, scheme)[0])
    solve = secular._branch_roots

    def lost(coefficients, zeta0):
        mu = solve(coefficients, zeta0)
        mu[5] = np.nan if fault == "nan" else mu[6]
        return mu

    monkeypatch.setattr("schrostab.secular._branch_roots", lost)
    lam = by_imaginary_part(spectrum(mesh, 1.0, scheme)[0])
    assert np.all(np.abs(lam - expect) <= 1e-13 * np.abs(expect))


@pytest.mark.parametrize("n", [1, 2, 15, 255])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_classical_poles_weights_match_dense_eigendecomposition(n, k):
    # A = i M M^T + (k/h) u e_N^T = Q (i diag(mu) + (k/h) p r^T) Q^T with
    # p r^T having the diagonal -c^2
    mesh = Mesh(n)
    mu, c = classical_poles_weights(mesh)
    M = build_scheme_matrices(mesh).M @ np.eye(mesh.state_size)
    ev, Q = np.linalg.eigh(M @ M.T)
    assert np.all(np.abs(mu - ev) <= 1e-13 * ev.max())
    u = np.zeros(n + 1)
    u[-2] += 0.5
    u[-1] -= 1.5
    p, r = Q.T @ u, Q[-1]
    assert np.all(np.abs(p * r + c * c) <= 1e-13)
    A = Q @ (1j * np.diag(mu) + (k / mesh.h) * np.outer(p, r)) @ Q.T
    expect = dense_generator(SemiDiscreteSystem(CLASSICAL, mesh, k))
    assert np.linalg.norm(A - expect, 2) <= 1e-13 * np.linalg.norm(expect, 2)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 255), k=st.floats(0.1, 100.0))
def test_classical_roots_match_dense_eigenvalues(n, k):
    # the dense eigenvalues carry errors of about eps ||A||, which the
    # secular roots do not: up to 3.8e-11 relative (N=255, k=0.1)
    system = SemiDiscreteSystem(CLASSICAL, Mesh(n), k)
    lam = by_imaginary_part(spectrum(system.mesh, k, CLASSICAL)[0])
    dense = by_imaginary_part(np.linalg.eigvals(dense_generator(system)))
    assert np.all(np.abs(lam - dense) <= 1e-9 * np.abs(dense))


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
def test_classical_roots_match_mpmath_oracle(n, k):
    mesh = Mesh(n)
    mu, c = classical_poles_weights(mesh)
    rho = k / mesh.h
    lam = by_imaginary_part(spectrum(mesh, k, CLASSICAL)[0])
    expect = by_imaginary_part(_mpmath_roots(mu, c, rho))
    assert np.all(np.abs(lam - expect) <= 1e-13 * np.abs(expect))


@pytest.mark.parametrize("k, n", [
    *((k, n) for n in (1, 2, 15, 255, 1023) for k in (1e-12, 0.1, 1.0, 10.0, 100.0, 1e3)),
    (1.0, 4095),
])
def test_classical_certificate_holds_with_margin(k, n):
    mesh = Mesh(n)
    mu = classical_poles_weights(mesh)[0]
    lam, worst = spectrum(mesh, k, CLASSICAL)
    assert lam.size == n + 1
    assert worst <= 1e-15 * (mu.max() + np.sqrt(2.5) * k / mesh.h)


# (k, N) where the order-reduction spectrum exits 3, of N = 1 ... 60 at each k: it misses
# its imaginary-part trace (95.99999999918 against 96 at N = 1, k = 1e4) or its residual
# bound.  Every N certifies at k = 1e3.
_OR_STRONG_DAMPING_FAILS = [
    (3e3, 1), *((1e4, n) for n in (1, 2, 3)),
    *((3e4, n) for n in (1, 2, 3, 4, 6, 7)), *((1e5, n) for n in range(1, 10)),
]


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="order reduction fails to certify at strong damping and small N")
@pytest.mark.parametrize("k, n", _OR_STRONG_DAMPING_FAILS)
def test_or_strong_damping_certifies(k, n):
    spectrum(Mesh(n), k, ORDER_REDUCTION)


def test_classical_certifies_where_order_reduction_fails():
    for k, n in _OR_STRONG_DAMPING_FAILS:
        assert spectrum(Mesh(n), k, CLASSICAL)[0].size == n + 1
    for n in range(1, 40):
        assert spectrum(Mesh(n), 1e3, ORDER_REDUCTION)[0].size == n + 1


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("n", [15, 1023])
@pytest.mark.parametrize("k", [1.0, 1e-6])
def test_spectrum_certifies_where_longdouble_is_double(scheme, n, k, monkeypatch):
    # the pole offsets and the pole-rounding term of the residual are then formed in
    # double: the certificate covers less, but both spectra still certify, in place
    extended = np.max(spectrum(Mesh(n), k, scheme)[0].real)
    monkeypatch.setattr(secular.np, "longdouble", np.float64)
    abscissa = np.max(spectrum(Mesh(n), k, scheme)[0].real)
    assert abs(abscissa - extended) <= 1e-14 * abs(extended)


@pytest.mark.parametrize("n", [1, 63, 1023])
@pytest.mark.parametrize("k", [1e-200, 1e-300, 1e-305, 1e-320])
def test_classical_extreme_weak_damping_certifies(n, k):
    # the Newton terms and the eigenvectors are taken relative to eps_j, which is
    # about -(k/h) c_j^2: no 1/eps_j^2 overflows, and Re lam_j keeps its digits, down to
    # its own rounding where it is subnormal (k = 1e-305 and 1e-320; Newton runs on
    # delta / (k h), the eigenvectors are taken over a real |eps_j + i gap|^2, and eps_j
    # is formed from (2^600 k) h)
    mesh = Mesh(n)
    mu, c = classical_poles_weights(mesh)
    rho = k / mesh.h
    lam, worst = spectrum(mesh, k, CLASSICAL)
    assert 0 <= worst <= 1e-15 * (mu.max() + np.sqrt(2.5) * rho)
    tiny = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(lam.real + rho * c * c) <= 8 * EPS * rho * c * c + 2 * tiny)


@pytest.mark.parametrize("k, n", [
    *((k, n) for n in (1, 2, 62, 63, 1000, 1023) for k in (1e-200, 1e-300, 1e-305, 1e-320)),
    (1e-305, 4094),
])
def test_or_extreme_weak_damping_certifies(k, n):
    # where k h is subnormal (k = 1e-320) Newton starts on the poles, eps_j is formed
    # from (2^600 k) h, and the cross-checked root-to-pole terms are scaled by 2^600,
    # since complex division by a subnormal overflows; Re lam_j = -(k/h) c_j^2 (1 + O(k^2)),
    # taken from 2^600 k: a subnormal k/h is short of digits.  The closed form is taken at
    # the carried v_j: at the rounded lam it overflowed at N = 2, 62 and 1000 (k = 1e-320)
    # and at N = 1000 and 4094 (k = 1e-305)
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    lam, worst = spectrum(mesh, k, ORDER_REDUCTION)
    assert 0 <= worst <= 1e-15 * (theta.max() + rho * c @ c)
    expect = -(2.0**600 * k / mesh.h) * c * c / 2.0**600
    tiny = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(lam.real - expect) <= 8 * EPS * np.abs(expect) + 2 * tiny)


@pytest.mark.parametrize("scheme", [CLASSICAL, ORDER_REDUCTION])
@pytest.mark.parametrize("n", [1, 2, 62, 63, 1000, 1023])
def test_subnormal_real_parts_keep_their_sign(scheme, n):
    # at N = 1023 the top classical root's real part, about -3.4e-326, underflows to -0.0
    rep = spectral_abscissa(SemiDiscreteSystem(scheme, Mesh(n), 1e-320))
    assert np.all(np.signbit(rep.eigenvalues.real))
    assert rep.abscissa <= 0 and np.signbit(rep.abscissa)


@pytest.mark.parametrize("k, n", [
    *((k, n) for n in (1, 2, 3, 15, 255, 1023) for k in (1e-12, 1e-6, 1.0, 1e3)),
    (1e-12, 4095), (1e3, 4095),
])
def test_classical_closed_form_matches_direct_oracle(k, n):
    # the pole-relative closed-form roots against Newton on the direct O(N^2) sum;
    # at k = 1e3 one root leaves the poles' range (N <= 255) or wanders off its branch
    # and is the trace less the others, refined on the direct sum
    mesh = Mesh(n)
    lam = by_imaginary_part(spectrum(mesh, k, CLASSICAL)[0])
    expect = by_imaginary_part(classical_polished_roots(mesh, k))
    assert np.all(np.abs(lam - expect) <= 1e-14 * np.abs(expect))


def _mpmath_classical_root(re, n, k, j):
    """The root on pole j of the classical closed form, by 50-digit Newton with exact poles.

    f = 1 - i k h s + (i k h/2)(1 + 2 s) tan((2N+3) psi) / tan psi, s = sin^2 psi = -i lam h^2/4,
    from i mu_j^exact + re: at weak damping the rounding of Im lam exceeds |Re lam|.
    """
    with mpmath.workdps(50):
        h, length = mpmath.mpf(1) / (n + 1), 2 * n + 3
        kh = k * h
        z = 1j * (2 * (n + 1) * mpmath.sin((2 * j + 1) * mpmath.pi / (2 * length))) ** 2 + re
        for _ in range(40):
            s = -1j * z * h * h / 4
            psi = mpmath.asin(mpmath.sqrt(s))
            ratio = mpmath.tan(length * psi) / mpmath.tan(psi)
            f = 1 - 1j * kh * s + 0.5j * kh * (1 + 2 * s) * ratio
            slope = (length / mpmath.cos(length * psi) ** 2 / mpmath.tan(psi)
                     - mpmath.tan(length * psi) / mpmath.sin(psi) ** 2) / mpmath.sin(2 * psi)
            step = f / ((-1j * kh + 1j * kh * ratio + 0.5j * kh * (1 + 2 * s) * slope)
                        * (-1j * h * h / 4))
            z -= step
            if abs(step) < mpmath.mpf(10) ** -40 * abs(z):
                return complex(z)
        raise AssertionError("mpmath Newton did not converge")


@pytest.mark.parametrize("n", [255, 1023])
@pytest.mark.parametrize("k", [1e-12, 1e-6, 1.0])
def test_classical_top_real_parts_match_mpmath(n, k):
    # Re lam of the two top roots and of the abscissa root, within 4 eps of the exact-pole
    # closed form (measured: at most 2.2 eps): cos a_j from the complementary angle, and
    # sin^2 psi - sin^2 a_j and tan(a_j + delta) formed without cancellation near a_N = pi/2
    lam = spectrum(Mesh(n), k, CLASSICAL)[0]
    for j in {*np.argsort(lam.imag)[-2:], np.argmax(lam.real)}:
        expect = _mpmath_classical_root(lam[j].real, n, k, j)
        assert abs(lam[j].real - expect.real) <= 4 * EPS * abs(expect.real)


def _mpmath_root_on_pole(scheme, n, k, j, lam):
    """The root on pole j of the direct secular sum over exact poles and weights, and its
    offset e from the exact pole, by 60-digit Newton on g(e) = e f(i poles_j + e) from lam."""
    with mpmath.workdps(60):
        n1, rho = n + 1, mpmath.mpf(k) * (n + 1)
        length = 2 * n1 if scheme == ORDER_REDUCTION else 2 * n + 3
        a = [(2 * m + 1) * mpmath.pi / (2 * length) for m in range(n1)]
        if scheme == ORDER_REDUCTION:
            poles = [(2 * n1 * mpmath.tan(x)) ** 2 for x in a]
            weights = [2 / (n1 * mpmath.cos(x) ** 2) for x in a]
        else:
            poles = [(2 * n1 * mpmath.sin(x)) ** 2 for x in a]
            weights = [4 * mpmath.cos(x) ** 2 * (1 + 2 * mpmath.sin(x) ** 2) / length for x in a]
        e = mpmath.mpc(lam.real, lam.imag) - 1j * poles[j]
        for _ in range(40):
            g, slope = e + rho * weights[j], mpmath.mpf(1)
            for m in range(n1):
                if m != j:
                    gap = 1j * (poles[j] - poles[m])
                    g += rho * weights[m] * e / (e + gap)
                    slope += rho * weights[m] * gap / (e + gap) ** 2
            step = g / slope
            e -= step
            if abs(step) <= mpmath.mpf(10) ** -50 * abs(e):
                return 1j * poles[j] + e, complex(e)
        raise AssertionError("mpmath Newton did not converge")


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("n", [7, 15])
@pytest.mark.parametrize("k", [1e-12, 1.0])
def test_roots_carry_the_pole_offsets(scheme, n, k):
    # Im lam_j within 1 ulp of the exact-pole root, plus Newton's stop of 4 eps |e_j| where the
    # root is far from its pole: measured at most 0.49 of that bound, 1.05 ulp alone for the
    # lowest classical root at N=7, k=1 (|e_0| = 0.39, Im lam_0 = 2.57).  The largest offset
    # poles_j^exact - poles_j that `_refine` adds back is 1.8 to 3.6 ulp of its pole in each case
    lam = spectrum(Mesh(n), k, scheme)[0]
    for j in range(n + 1):
        expect, e = _mpmath_root_on_pole(scheme, n, k, j, lam[j])
        with mpmath.workdps(60):
            error = float(abs(mpmath.mpf(lam[j].imag) - expect.imag))
        assert error <= np.spacing(abs(lam[j].imag)) + 4 * EPS * abs(e)


def test_recomputed_pole_offsets_are_refused(monkeypatch):
    # eps_j taken back from the rounded lam_j has lost the digits of Re lam_j below
    # eps mu_j, and its eigenvectors miss the bound by about 5x at N=255
    refine = secular._refine

    def recomputed(v, record):
        lam, eps, v = refine(v, record)
        return lam, (lam - 1j * record.poles) - 1j * record.exact[1], v

    monkeypatch.setattr("schrostab.secular._refine", recomputed)
    with pytest.raises(NumericalError, match="secular residual"):
        spectrum(Mesh(255), 1.0, CLASSICAL)


def _block_scipy(monkeypatch):
    # the submodules this process has loaded are blocked too, or importing one would succeed
    for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
        monkeypatch.setitem(sys.modules, name, None)


def test_classical_solvers_need_no_zgtsv(monkeypatch):
    # with scipy unimportable, so with no zgtsv or any other LAPACK routine,
    # the certificate and the resolvent norms still run
    _block_scipy(monkeypatch)
    for n in (1, 3, 63):
        assert spectrum(Mesh(n), 1.0, CLASSICAL)[0].size == n + 1
    system = SemiDiscreteSystem(CLASSICAL, Mesh(15), 1.0)
    betas = _default_grid(system)
    assert np.all(resolvent_smin(system.mesh, 1.0, betas, CLASSICAL) > 0)
    with pytest.raises(ImportError):
        from scipy.linalg.lapack import zgttrf  # noqa: F401


def test_wrong_classical_applier_is_refused(monkeypatch):
    # an applier without the boundary term k/(2h) of row N-1 gives the residual,
    # and its matrix has neither the secular roots nor their sine-basis eigenvectors
    def unbordered(scheme, Y, k, mesh):
        out = apply_generator(scheme, Y, k, mesh)
        out[-2] -= 0.5 * k / mesh.h * np.asarray(Y)[-1]
        return out

    monkeypatch.setattr("schrostab.secular.apply_generator", unbordered)
    with pytest.raises(NumericalError, match="secular residual"):
        spectrum(Mesh(15), 1.0, CLASSICAL)



def _resolvent_betas(system):
    """The full sweep grid, +-3000, and three betas exactly at a pole theta_m."""
    theta = or_poles_weights(system.mesh)[0]
    extra = [3000.0, -3000.0, theta[0], theta[system.n // 2], theta[-1]]
    return np.concatenate([_default_grid(system), extra])


@pytest.mark.parametrize("n", [1, 15, 63, 127])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_resolvent_smin_matches_dense_oracle(n, k):
    # 1e-9 relative, plus the dense SVD's own rounding, 2 eps ||i beta - B||_2
    # (measured: at most 0.5 of it for N >= 15).  At N=127, k=0.1 the two
    # differ by up to 1.2e-8 relative; at two of those betas a 30-digit
    # mpmath SVD agrees with the secular value to 4e-16 and with the dense
    # one to 8.4e-9 and 6.6e-9.
    system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)
    betas = _resolvent_betas(system)
    B = weighted_oracle(system)
    eye = np.eye(n + 1)
    smax, smin = np.array([sla.svdvals(1j * b * eye - B)[[0, -1]] for b in betas]).T
    got = resolvent_smin(system.mesh, k, betas, ORDER_REDUCTION)
    assert np.all(np.abs(got - smin) <= 1e-9 * smin + 2 * EPS * smax)


def _mpmath_smin(n, k, beta):
    """sigma_min(i (beta - Theta) + (k/h) c c^T) by a 40-digit SVD on the closed-form poles.

    theta_m = (2 (N+1) tan phi_m)^2 and c_m = (-1)^m sqrt(2h) / cos phi_m with
    phi_m = (m + 1/2) pi h / 2, all at 40 digits, so the oracle carries none of
    the rounding of `or_poles_weights`.
    """
    with mpmath.workdps(40):
        n1 = n + 1
        h = mpmath.mpf(1) / n1
        phi = [(m + mpmath.mpf(1) / 2) * mpmath.pi * h / 2 for m in range(n1)]
        theta = [(2 * n1 * mpmath.tan(p)) ** 2 for p in phi]
        c = [(-1) ** m * mpmath.sqrt(2 * h) / mpmath.cos(p) for m, p in enumerate(phi)]
        rho = mpmath.mpf(k) / h
        X = mpmath.matrix(n1, n1)
        for i in range(n1):
            for j in range(n1):
                X[i, j] = rho * c[i] * c[j]
            X[i, i] += mpmath.mpc(0, mpmath.mpf(beta) - theta[i])
        return float(min(mpmath.svd_c(X, compute_uv=False)))


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_resolvent_smin_matches_mpmath_oracle(n, k):
    mesh = Mesh(n)
    theta = or_poles_weights(mesh)[0]
    lam = spectrum(mesh, k, ORDER_REDUCTION)[0]
    peak = lam[np.argmax(lam.real)].imag
    betas = np.array([0.0, peak, -17.5, 3000.0, theta[1]])
    got = resolvent_smin(mesh, k, betas, ORDER_REDUCTION)
    expect = np.array([_mpmath_smin(n, k, b) for b in betas])
    assert np.all(np.abs(got - expect) <= 1e-13 * expect)


@pytest.mark.parametrize("n, k, betas, rtol", [
    (15, 1.0, [2817.7376073421683, 1243.8377324915473], 5e-15),
    (31, 1.0, [16007.398754545427, 610.9359572771576], 5e-15),
    (15, 1e-9, None, 1e-10),
    (31, 1e-9, None, 1e-10),
])
def test_resolvent_smin_leaves_out_the_poles_rounding(n, k, betas, rtol):
    # beta - theta_m alone carries theta_m's rounding: 2.2e-14 to 3.1e-14 of sigma_min
    # at these k = 1 betas, and most of it at the four top roots' peaks at k = 1e-9
    if betas is None:
        betas = np.sort(spectrum(Mesh(n), k, ORDER_REDUCTION)[0].imag)[-4:]
    got = resolvent_smin(Mesh(n), k, betas, ORDER_REDUCTION)
    expect = np.array([_mpmath_smin(n, k, b) for b in betas])
    assert np.all(np.abs(got - expect) <= rtol * expect)


def test_resolvent_count_on_a_pole_is_taken_from_below():
    # at N=63, k=1e-6 the bracket start is |d_0| itself at beta=-71960.6: the
    # count there, where d_0 + x is an exact zero, is the count just below
    mesh, k, beta = Mesh(63), 1e-6, -71960.62885869741
    theta, c = or_poles_weights(mesh)
    d = (beta - theta - secular._scheme(mesh, k, ORDER_REDUCTION).exact[1])[None, :]
    ad, rho = np.abs(d), k / mesh.h
    x = np.array([ad[0, 0], np.nextafter(ad[0, 0], 0)])
    assert secular._smin_start(d, ad, c * c, rho)[0] == x[0]
    assert list(secular._or_count(np.repeat(d, 2, axis=0), np.repeat(ad, 2, axis=0),
                                  c * c, rho, x)) == [0, 0]
    got = resolvent_smin(mesh, k, [beta], ORDER_REDUCTION)
    assert abs(got[0] - ad[0, 0]) <= 1e-14 * ad[0, 0]


@pytest.mark.parametrize("scale", [1 + 1e-10, 1 - 1e-10], ids=["lo-above", "hi-below"])
def test_resolvent_bracket_count_binds(monkeypatch, scale):
    # a bracket moved by 1e-10 relative leaves sigma_min outside it
    solve = secular._smin_brackets

    def moved(*args):
        lo, hi = solve(*args)
        return lo * scale, hi * scale

    monkeypatch.setattr("schrostab.secular._smin_brackets", moved)
    with pytest.raises(NumericalError, match="fails its eigenvalue count"):
        resolvent_smin(Mesh(15), 1.0, [0.0, 2.868, 3000.0], ORDER_REDUCTION)


def test_resolvent_bracket_width_binds(monkeypatch):
    solve = secular._smin_brackets

    def widened(*args):
        lo, hi = solve(*args)
        return lo * (1 - 1e-12), hi

    monkeypatch.setattr("schrostab.secular._smin_brackets", widened)
    with pytest.raises(NumericalError, match="did not converge"):
        resolvent_smin(Mesh(15), 1.0, [0.0], ORDER_REDUCTION)


def test_beta_in_the_spectrum_is_refused(monkeypatch):
    # with c_3 = 0, i theta_3 is an eigenvalue of i Theta - rho c c^T
    poles_weights = or_poles_weights

    def decoupled(mesh):
        theta, c = poles_weights(mesh)
        c[3] = 0.0
        return theta, c

    monkeypatch.setattr("schrostab.secular.or_poles_weights", decoupled)
    theta = poles_weights(Mesh(15))[0]
    with pytest.raises(NumericalError, match="numerically in the spectrum at beta="):
        resolvent_smin(Mesh(15), 1.0, [0.0, theta[3]], ORDER_REDUCTION)


def _default_grid(system):
    decades = float(np.log10(default_beta_max(system.mesh)))
    return sweep_grid(spectral_abscissa(system), -20.0, 20.0, 81, decades)


@pytest.mark.parametrize("n", [1, 15, 63, 127, 255])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_classical_resolvent_matches_inverse_oracle(n, k):
    # measured: within 3e-14 relative of the refined oracle for N <= 255; inverse
    # Lanczos on double solves, which this count replaced, was 5.0e-12 off at N=255
    system = SemiDiscreteSystem(CLASSICAL, Mesh(n), k)
    betas = _default_grid(system)
    got = 1.0 / resolvent_smin(system.mesh, k, betas, CLASSICAL)
    assert np.all(classical_resolvent_within(system, betas, got, 1e-13))


def _mpmath_classical_smin(n, k, beta):
    """sigma_min(D (i beta - A) D^{-1}) of the classical scheme by a 30-digit SVD, h = 1/(N+1)."""
    with mpmath.workdps(30):
        n1, beta = n + 1, mpmath.mpf(beta)
        h2, rho = mpmath.mpf(n1) ** 2, mpmath.mpf(k) * n1
        Z = mpmath.zeros(n1, n1)  # i beta - A, A = i M M^T + rho (e_{N-1}/2 - 3 e_N/2) e_N^T
        D, D_inv = mpmath.zeros(n1, n1), mpmath.zeros(n1, n1)
        for i in range(n1):
            Z[i, i] = mpmath.mpc(0, beta - 2 * h2)
            if i > 0:
                Z[i, i - 1] = Z[i - 1, i] = mpmath.mpc(0, h2)
                D[i, i - 1] = mpmath.mpf(1) / 2
            D[i, i] = mpmath.mpf(1) / 2
            for j in range(i + 1):
                D_inv[i, j] = 2 * (-1) ** (i - j)
        Z[n, n] = mpmath.mpc(rho * 3 / 2, beta - h2)
        Z[n - 1, n] -= rho / 2
        return float(min(mpmath.svd_c(D * Z * D_inv, compute_uv=False)))


@pytest.mark.parametrize("n", [1, 7, 15, 31])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_classical_resolvent_matches_mpmath_oracle(n, k):
    # the top peak and its flank half a width up, the three grid points nearest 0
    # and four seeded betas.  On the flank, the pole offsets move the value by up
    # to 1.3e-10 relative at N=31 (k=0.1), 4.1e-12 at N=15
    mesh = Mesh(n)
    lam = spectrum(mesh, k, CLASSICAL)[0]
    top = lam[np.argmax(lam.real)]
    grid = _default_grid(SemiDiscreteSystem(CLASSICAL, mesh, k))
    mu_max = classical_poles_weights(mesh)[0].max()
    seeded = np.random.default_rng(n).uniform(-1.0, 1.2, 4) * mu_max
    betas = np.concatenate([[top.imag, top.imag - 0.5 * top.real],
                            grid[np.argsort(np.abs(grid))[:3]], seeded])
    got = resolvent_smin(mesh, k, betas, CLASSICAL)
    expect = np.array([_mpmath_classical_smin(n, k, b) for b in betas])
    assert np.all(np.abs(got - expect) <= 1e-13 * expect)


def test_classical_resolvent_needs_pivoting():
    # the betas where an LU of i beta - A needs row interchanges, as the oracle's
    # does: without them the first pivot is exactly zero at beta = 2/h^2, far
    # from the spectrum (the norm is 4.5e-3 at N=255), and the grid beta whose
    # unpivoted elimination meets the smallest pivot, 1.8e-8 of
    # |beta| + max mu + sqrt(5/2) k/h
    system = SemiDiscreteSystem(CLASSICAL, Mesh(255), 1.0)
    betas = _default_grid(system)
    A = dense_generator(system)
    sub_sup = np.diag(A, -1) * np.diag(A, 1)
    pivot = 1j * betas - A[0, 0]
    smallest = np.abs(pivot)
    for i in range(1, A.shape[0]):
        pivot = 1j * betas - A[i, i] - sub_sup[i - 1] / pivot
        smallest = np.minimum(smallest, np.abs(pivot))
    mu = classical_poles_weights(system.mesh)[0]
    relative = smallest / (np.abs(betas) + mu.max() + np.sqrt(2.5) / system.mesh.h)
    assert relative.min() < 1e-7
    betas = np.array([2.0 / system.mesh.h**2, betas[np.argmin(relative)]])
    assert 1j * betas[0] == A[0, 0]
    got = 1.0 / resolvent_smin(system.mesh, 1.0, betas, CLASSICAL)
    assert np.all(classical_resolvent_within(system, betas, got, 1e-12))


@pytest.mark.parametrize("n", [1, 63])
def test_classical_resolvent_rows_are_independent(n):
    # a beta alone gives its value inside a sweep, bit for bit
    mesh = Mesh(n)
    betas = _default_grid(SemiDiscreteSystem(CLASSICAL, mesh, 1.0))
    swept = resolvent_smin(mesh, 1.0, betas, CLASSICAL)
    alone = np.array([resolvent_smin(mesh, 1.0, beta, CLASSICAL)[0] for beta in betas])
    assert np.array_equal(alone, swept)


def _mpmath_peak_smin(n, k, beta):
    """sigma_min(D (i beta - A) D^{-1}) by 30-digit inverse iteration on X^H X, O(N) per step.

    For a beta near an isolated singular value, where sigma_min is far below the
    next one: X^{-1} = D Z^{-1} D^{-1} with Z = i beta - A solved by tridiagonal
    elimination, h = 1/(N+1) exact.
    """
    with mpmath.workdps(30):
        n1, beta = n + 1, mpmath.mpf(beta)
        h2, rho = mpmath.mpf(n1) ** 2, mpmath.mpf(k) * n1
        diag = [mpmath.mpc(0, beta - 2 * h2)] * n + [mpmath.mpc(rho * 3 / 2, beta - h2)]
        sub = [mpmath.mpc(0, h2)] * n
        sup = sub[1:] + [mpmath.mpc(-rho / 2, h2)]

        def solve(lower, main, upper, b):
            b, main = list(b), list(main)
            for i in range(1, n1):
                ratio = lower[i - 1] / main[i - 1]
                main[i] -= ratio * upper[i - 1]
                b[i] -= ratio * b[i - 1]
            for i in range(n, -1, -1):
                b[i] = (b[i] - (upper[i] * b[i + 1] if i < n else 0)) / main[i]
            return b

        def d_inv(v, step):  # D^{-1} (step 1) or D^{-T} (step -1), D = (I + S)/2
            out, run = [0] * n1, 0
            for i in (range(n1) if step == 1 else range(n, -1, -1)):
                out[i] = run = 2 * v[i] - run
            return out

        v, value = [mpmath.mpf(1)] * n1, 0
        for _ in range(60):
            w = [(v[i] + v[i + 1]) / 2 for i in range(n)] + [v[n] / 2]  # D^T v
            w = solve([z.conjugate() for z in sup], [z.conjugate() for z in diag],
                      [z.conjugate() for z in sub], w)
            w = solve(sub, diag, sup, d_inv(d_inv(w, -1), 1))
            w = [w[0] / 2] + [(w[i] + w[i - 1]) / 2 for i in range(1, n1)]  # D w
            norm = mpmath.sqrt(sum(abs(z) ** 2 for z in w))
            v, value, last = [z / norm for z in w], norm, value
            if abs(value - last) <= 1e-25 * value:
                return float(1 / mpmath.sqrt(value))
        raise AssertionError("inverse iteration did not converge")


@pytest.mark.parametrize("k", [0.1, 1.0])
def test_classical_resolvent_top_peak_matches_mpmath(k):
    # at N=1023 the top pole's offset needs the complementary angle: from
    # (2 (N+1) sin a_N)^2 in np.longdouble it is 1.4e-13 off, which left the
    # peak, where the sup sits, 3.5e-11 off (k=0.1); measured with it: 1.3e-16.
    # Half a width up the flank the offset's own 5e-19 leaves 1.5e-13
    mesh = Mesh(1023)
    lam = spectrum(mesh, k, CLASSICAL)[0]
    peak = lam[np.argmax(lam.real)].imag
    got = resolvent_smin(mesh, k, [peak], CLASSICAL)[0]
    expect = _mpmath_peak_smin(1023, k, peak)
    assert abs(got - expect) <= 1e-13 * expect


def _mpmath_weighted_smin(system, beta):
    """sigma_min(i beta - B) by a 60-digit SVD of the dense weighted B of `weighted_oracle`."""
    B = weighted_oracle(system)
    with mpmath.workdps(60):
        X = -mpmath.matrix(B.tolist())
        for i in range(B.shape[0]):
            X[i, i] += mpmath.mpc(0, beta)
        return min(mpmath.svd_c(X, compute_uv=False))


# Measured relative error of the classical sigma_min against `_mpmath_weighted_smin`; at
# N = 15, beta = 1e4 it is 1.0e-15
_CLASSICAL_FAR_MISS = {(3, 1e4): 3.6e-14, (3, 1e8): 1.9e-10, (3, 1e14): 3.7e-10,
                       (3, 1e30): 7.5e-9, (15, 1e8): 4.7e-12, (15, 1e14): 2.3e-8,
                       (15, 1e30): 2.1e-9}


def _far_case(scheme, n, beta):
    miss = _CLASSICAL_FAR_MISS.get((n, beta)) if scheme == CLASSICAL else None
    marks = [] if miss is None else [
        pytest.mark.xfail(strict=True, reason=f"the classical bracket is {miss:.1e} off")]
    return pytest.param(scheme, n, beta, marks=marks)


@pytest.mark.parametrize("scheme, n, beta", [
    _far_case(scheme, n, beta) for scheme in (ORDER_REDUCTION, CLASSICAL)
    for n in (3, 15) for beta in (1e4, 1e8, 1e14, 1e30)])
def test_smin_far_above_the_spectrum_matches_mpmath(scheme, n, beta):
    # --beta-max and --log-decades reach these betas; the bracket claims 1e-14 relative
    # (order reduction measured: at most 3.9e-15)
    system = SemiDiscreteSystem(scheme, Mesh(n), 1.0)
    got = resolvent_smin(system.mesh, 1.0, [beta], scheme)[0]
    expect = _mpmath_weighted_smin(system, beta)
    assert abs(got - expect) <= 1e-14 * expect


@pytest.mark.parametrize("beta", [1e155, 1e160])
def test_classical_bracket_end_that_overflows_is_refused(beta):
    # x^2 overflows in the classical count, and the bracket top with it; an end at inf
    # would pass the relative-width test, and 1 / sigma_min would read 0
    with pytest.raises(NumericalError, match="sigma_min bracket end is not finite"):
        resolvent_smin(Mesh(3), 1.0, [beta], CLASSICAL)


def test_classical_beta_in_the_spectrum_is_refused(monkeypatch):
    # with k = 1e-20, i mu_5 is an eigenvalue of A to within 1e-18
    mesh = Mesh(15)
    mu = classical_poles_weights(mesh)[0]
    with pytest.raises(NumericalError, match=f"numerically in the spectrum at beta={mu[5]}"):
        resolvent_smin(mesh, 1e-20, [0.0, mu[5]], CLASSICAL)

    # with c_3 = 0, i mu_3 is an eigenvalue of the classical generator
    poles_weights = classical_poles_weights

    def decoupled(mesh):
        mu, c = poles_weights(mesh)
        c[3] = 0.0
        return mu, c

    monkeypatch.setattr("schrostab.secular.classical_poles_weights", decoupled)
    with pytest.raises(NumericalError, match=f"numerically in the spectrum at beta={mu[3]}"):
        resolvent_smin(mesh, 1.0, [0.0, mu[3]], CLASSICAL)


def test_classical_smin_budget_binds(monkeypatch):
    monkeypatch.setattr("schrostab.secular._SMIN_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="sigma_min bracket did not converge"):
        resolvent_smin(Mesh(15), 1.0, [0.0], CLASSICAL)


def test_classical_resolvent_needs_no_lapack(monkeypatch):
    # the resolvent sweep at N=1023 runs with every scipy module unimportable
    system = SemiDiscreteSystem(CLASSICAL, Mesh(1023), 1.0)
    betas = _default_grid(system)
    _block_scipy(monkeypatch)
    assert np.all(resolvent_smin(system.mesh, 1.0, betas, CLASSICAL) > 0)


@pytest.mark.parametrize("k, resolvable", [(0.01, False), (0.02, True)])
def test_classical_peak_rule_matches_the_solver(k, resolvable):
    # the closed-form ratio of the top root against the certified root, and the
    # solver's verdict at that root's peak
    mesh = Mesh(1023)
    lam = spectrum(mesh, k, CLASSICAL)[0]
    top = lam[np.argmax(lam.real)]
    mu, c = classical_poles_weights(mesh)
    ratio = k / mesh.h * c[-1] ** 2 / mu[-1]
    assert abs(ratio - abs(top.real) / top.imag) <= 1e-3 * ratio
    if resolvable:
        assert abs(top.real) / resolvent_smin(mesh, k, [top.imag], CLASSICAL)[0] > 1.7
    else:
        with pytest.raises(NumericalError, match="numerically in the spectrum"):
            resolvent_smin(mesh, k, [top.imag], CLASSICAL)


@pytest.mark.parametrize("scheme, n, k", [(CLASSICAL, 1023, 0.01), (CLASSICAL, 1023, 0.02),
                                           (CLASSICAL, 3213, 1.0), (CLASSICAL, 3214, 1.0),
                                           (CLASSICAL, 1806, 0.1), (CLASSICAL, 1807, 0.1),
                                           (ORDER_REDUCTION, 15, 1e-20), (ORDER_REDUCTION, 15, 1.0)])
def test_in_spectrum_is_the_solvers_refusal(scheme, n, k):
    # at the top root's peak, either side of the largest classical N that the solver samples
    mesh = Mesh(n)
    lam = spectrum(mesh, k, scheme)[0]
    peak = lam[np.argmax(lam.real)].imag
    try:
        resolvent_smin(mesh, k, [peak], scheme)
        refused = False
    except NumericalError as exc:
        assert "numerically in the spectrum" in str(exc)
        refused = True
    assert in_spectrum(mesh, k, peak, scheme) is refused
    assert refused is ((n, k) in ((1023, 0.01), (3214, 1.0), (1807, 0.1), (15, 1e-20)))


def test_unknown_scheme_is_refused():
    with pytest.raises(ValueError, match="unknown scheme 'dense'"):
        spectrum(Mesh(3), 1.0, "dense")
    with pytest.raises(ValueError, match="unknown scheme 'dense'"):
        resolvent_smin(Mesh(3), 1.0, [0.0], "dense")


@pytest.mark.parametrize("beta", [9.5e307, 1e308])
def test_resolvent_midpoint_does_not_overflow(monkeypatch, beta):
    # lo + hi overflows at these beta although both bracket ends are finite
    solve, brackets = secular._smin_brackets, []

    def recorded(*args):
        brackets.append(solve(*args))
        return brackets[-1]

    monkeypatch.setattr("schrostab.secular._smin_brackets", recorded)
    sigma = resolvent_smin(Mesh(15), 1.0, [-beta, beta], ORDER_REDUCTION)
    lo, hi = brackets[0]
    assert np.all(np.isfinite(sigma)) and np.all((lo <= sigma) & (sigma <= hi))
    with pytest.raises(NumericalError):
        resolvent_smin(Mesh(15), 1.0, [-beta, beta], CLASSICAL)


def _stepper(mesh, k, scheme):
    return MidpointStepper(SemiDiscreteSystem(scheme, mesh, k), 1e-3)


_ENTRIES = {
    "spectrum": lambda mesh, k, scheme: spectrum(mesh, k, scheme),
    "resolvent_smin": lambda mesh, k, scheme: resolvent_smin(mesh, k, [0.0, 3.0], scheme),
    "in_spectrum": lambda mesh, k, scheme: in_spectrum(mesh, k, 3.0, scheme),
    "MidpointStepper": _stepper,
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
@pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
def test_bad_gain_is_refused(entry, scheme, k):
    with pytest.raises(ValueError, match="feedback gain must be positive and finite"):
        _ENTRIES[entry](Mesh(15), k, scheme)


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
def test_each_entry_builds_one_record(monkeypatch, entry, scheme):
    build, built = secular._scheme, []

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr("schrostab.secular._scheme", counted)
    monkeypatch.setattr("schrostab.dynamics._scheme", counted)
    _ENTRIES[entry](Mesh(15), 1.0, scheme)
    assert len(built) == 1


@pytest.mark.parametrize("scheme", [ORDER_REDUCTION, CLASSICAL])
def test_stepper_never_forms_the_pole_offsets(monkeypatch, rng, scheme):
    def refuse(*args):
        raise AssertionError("pole offsets formed")

    monkeypatch.setattr(secular._Scheme, "exact", property(refuse))
    system = SemiDiscreteSystem(scheme, Mesh(15), 1.0)
    trace = simulate(system, rng.standard_normal(16) + 0j, 1e-3, 0.01)
    assert trace.energies.size == 11
    with pytest.raises(AssertionError, match="pole offsets formed"):
        spectrum(Mesh(15), 1.0, scheme)
