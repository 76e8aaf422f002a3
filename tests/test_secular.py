import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrostab.errors import NumericalError
from schrostab.grid import Mesh, build_scheme_matrices
from schrostab.secular import or_poles_weights, or_spectrum, secular_roots
from schrostab.systems import ORDER_REDUCTION, SemiDiscreteSystem

from conftest import weighted_oracle


def by_imaginary_part(z):
    return z[np.argsort(z.imag)]


@pytest.mark.parametrize("n", [1, 15, 63, 255])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
def test_factorisation_matches_weighted_oracle(n, k):
    # B = Q (i Theta - (k/h) c c^T) Q^T with q_m = D s_m / ||D s_m||
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    x = mesh.nodes[1:]
    S = np.sin(np.outer(x, np.arange(n + 1) + 0.5) * np.pi)
    Q = build_scheme_matrices(mesh).D.toarray() @ S
    Q /= np.linalg.norm(Q, axis=0)
    B = Q @ (1j * np.diag(theta) - (k / mesh.h) * np.outer(c, c)) @ Q.T
    expect = weighted_oracle(SemiDiscreteSystem(ORDER_REDUCTION, mesh, k))
    assert np.linalg.norm(B - expect, 2) <= 1e-11 * np.linalg.norm(expect, 2)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 255), k=st.floats(0.1, 100.0))
def test_secular_roots_match_dense_eigenvalues(n, k):
    system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), k)
    lam = by_imaginary_part(or_spectrum(system.mesh, k)[0])
    dense = by_imaginary_part(np.linalg.eigvals(system.generator))
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
    lam = by_imaginary_part(secular_roots(theta, c, rho))
    expect = by_imaginary_part(_mpmath_roots(theta, c, rho))
    assert np.all(np.abs(lam - expect) <= 1e-13 * np.abs(expect))


@pytest.mark.parametrize("n", [1, 15, 255, 1023])
@pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
def test_certificate_holds_with_margin(n, k):
    mesh = Mesh(n)
    theta, c = or_poles_weights(mesh)
    lam, worst = or_spectrum(mesh, k)
    assert lam.size == n + 1
    assert worst <= 1e-15 * (theta.max() + (k / mesh.h) * c @ c)


def test_duplicate_root_is_refused(monkeypatch):
    solve = secular_roots

    def duplicated(theta, c, rho):
        lam = solve(theta, c, rho)
        lam[1] = lam[0]
        return lam

    monkeypatch.setattr("schrostab.secular.secular_roots", duplicated)
    with pytest.raises(NumericalError, match="coincide"):
        or_spectrum(Mesh(15), 1.0)


def test_nonfinite_root_is_refused(monkeypatch):
    solve = secular_roots

    def lost(theta, c, rho):
        lam = solve(theta, c, rho)
        lam[3] = np.nan
        return lam

    monkeypatch.setattr("schrostab.secular.secular_roots", lost)
    with pytest.raises(NumericalError, match="15 finite roots of 16"):
        or_spectrum(Mesh(15), 1.0)
