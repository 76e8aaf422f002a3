import numpy as np
import pytest
import scipy.linalg as sla

from schrostab import secular
from schrostab.errors import NumericalError
from schrostab.grid import Mesh
from schrostab.spectral import (
    MAX_EIG_DIM,
    MAX_LINEAR_STEPS,
    eigenpairs,
    resolvent_norm,
    resolvent_sweep,
    spectral_abscissa,
    spectral_norm_estimate,
    sweep_with_spectrum,
)
from schrostab.systems import CLASSICAL, ORDER_REDUCTION, SCHEMES, SemiDiscreteSystem

from conftest import dense_generator, weighted_oracle


def quadratic_roots(A2):
    """Closed-form eigenvalues of a 2x2 matrix, the independent oracle."""
    tr = A2[0, 0] + A2[1, 1]
    det = A2[0, 0] * A2[1, 1] - A2[0, 1] * A2[1, 0]
    disc = np.sqrt(tr**2 - 4 * det + 0j)
    return np.array([(tr + disc) / 2, (tr - disc) / 2])


def singular_values_2x2(T):
    """Closed-form singular values via the eigenvalues of T^H T."""
    G = T.conj().T @ T
    ev = quadratic_roots(G)
    return np.sqrt(np.sort(ev.real)[::-1])


class TestEigenvalues:
    def test_identity(self):
        # exact: the eigenvalues of a diagonal matrix are its entries
        for size in (4, 5):
            np.testing.assert_array_equal(eigenpairs(np.eye(size))[0], np.ones(size))

    def test_diagonal(self):
        for entries in ([2.0, 3.0j, -1.0], [1.0, -2.0, 3.0j]):
            ev = np.sort_complex(eigenpairs(np.diag(entries))[0])
            np.testing.assert_array_equal(ev, np.sort_complex(np.array(entries)))

    def test_order_reduction_2x2_against_quadratic_oracle(self):
        A = dense_generator(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(1), 1.0))
        ev = np.sort_complex(eigenpairs(A)[0])
        expect = np.sort_complex(quadratic_roots(A))
        np.testing.assert_allclose(ev, expect, atol=1e-10 * np.abs(expect).max())

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenpairs(np.eye(MAX_EIG_DIM + 1))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenpairs(np.ones((2, 3)))


def test_spectral_norm_estimate_matches_svd(rng):
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    true = np.linalg.norm(A, 2)
    # the successive-change stopping rule can leave a small convergence gap
    assert spectral_norm_estimate(A) == pytest.approx(true, rel=1e-3)


class TestSpectralAbscissa:
    @pytest.mark.parametrize("n", [1, 9, 64])
    def test_order_reduction_strictly_stable(self, n):
        rep = spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0))
        assert rep.abscissa < 0
        assert rep.abscissa == pytest.approx(np.max(rep.eigenvalues.real))
        norm = spectral_norm_estimate(
            dense_generator(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0))
        )
        assert rep.max_eigen_residual <= 1e-12 * norm

    def test_residual_check_binds(self, monkeypatch):
        # one classical root's carried offset eps_j off by 1e-12 of the scale leaves
        # the root a residual of about that size, 100 times the bound
        mesh = Mesh(15)
        mu = secular.classical_poles_weights(mesh)[0]
        shift = 1e-12 * (mu.max() + np.sqrt(2.5) / mesh.h)
        refine = secular._refine
        for root in (0, 7, 15):
            def shifted(*args, root=root):
                lam, eps, v = refine(*args)
                eps[root] += shift
                return lam, eps, v

            monkeypatch.setattr("schrostab.secular._refine", shifted)
            with pytest.raises(NumericalError, match="secular residual"):
                spectral_abscissa(SemiDiscreteSystem(CLASSICAL, mesh, 1.0))

    @pytest.mark.parametrize("root", [0, 7, 15])
    def test_secular_residual_check_binds(self, monkeypatch, root):
        # one secular root off by 1e-10 ||B|| leaves a backward residual of about that size
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(15), 1.0)
        shift = 1e-10 * spectral_norm_estimate(weighted_oracle(system))
        refine = secular._refine

        def shifted(*args):
            lam, eps, v = refine(*args)
            lam[root] += shift
            return lam, eps, v

        monkeypatch.setattr("schrostab.secular._refine", shifted)
        with pytest.raises(NumericalError, match="secular residual"):
            spectral_abscissa(system)

    def test_order_reduction_never_forms_a_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the order-reduction spectrum formed a dense matrix")

        monkeypatch.setattr("schrostab.systems.assemble_generator", refuse)
        monkeypatch.setattr("schrostab.spectral.eigenpairs", refuse)
        rep = spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(4095), 1.0))
        assert rep.eigenvalues.size == 4096
        assert rep.abscissa < 0

    def test_classical_never_forms_a_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the classical spectrum formed a dense matrix")

        monkeypatch.setattr("schrostab.systems.assemble_generator", refuse)
        monkeypatch.setattr("schrostab.spectral.eigenpairs", refuse)
        rep = spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(4095), 1.0))
        assert rep.eigenvalues.size == 4096
        assert -1e-6 < rep.abscissa < 0

    def test_classical_abscissa_shrinks(self):
        a9 = spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(9), 1.0)).abscissa
        a99 = spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(99), 1.0)).abscissa
        assert abs(a99) < abs(a9)
        assert a99 < 0

    def test_order_reduction_abscissa_stays_away_from_zero(self):
        vals = [
            spectral_abscissa(SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0)).abscissa
            for n in (9, 39, 99)
        ]
        assert max(vals) < -1.5


class TestResolventNorm:
    def test_n1_beta0_against_2x2_svd_oracle(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(1), 1.0)
        T = -weighted_oracle(system)
        expect = 1.0 / singular_values_2x2(T)[-1]
        assert resolvent_norm(system, 0.0) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 2.5, -7.0, 100.0])
    def test_eigenvalue_lower_bound(self, beta):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(15), 1.0)
        ev = spectral_abscissa(system).eigenvalues
        lower = 1.0 / np.min(np.abs(1j * beta - ev))
        assert resolvent_norm(system, beta) >= lower * (1 - 1e-10)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [15, 63])
    def test_matches_dense_similarity_oracle(self, scheme, n):
        system = SemiDiscreteSystem(scheme, Mesh(n), 1.0)
        B = weighted_oracle(system)
        for beta in (0.0, 2.868, -17.5, 1e4):
            expect = 1.0 / sla.svdvals(1j * beta * np.eye(n + 1) - B)[-1]
            assert resolvent_norm(system, beta) == pytest.approx(expect, rel=1e-8)

    def test_deterministic(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(10), 1.0)
        assert resolvent_norm(system, 3.3) == resolvent_norm(system, 3.3)

    def test_large_beta_tail_bounded_by_sweep_sup(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(31), 1.0)
        sweep = resolvent_sweep(system, -20.0, 20.0, 41)
        for beta in (1e6, -1e6):
            assert resolvent_norm(system, beta) <= 1.5 * sweep.sup_norm


class TestResolventSweep:
    def test_sup_dominates_origin(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(1), 1.0)
        sweep = resolvent_sweep(system, -1.0, 1.0, 3, log_decades=0.0)
        assert sweep.sup_norm >= resolvent_norm(system, 0.0) - 1e-14
        assert sweep.sup_norm == np.max(sweep.norms)
        assert sweep.beta_grid.size == sweep.norms.size

    def test_order_reduction_sup_uniform_in_n(self):
        sups = [
            resolvent_sweep(
                SemiDiscreteSystem(ORDER_REDUCTION, Mesh(n), 1.0), -20.0, 20.0, 41
            ).sup_norm
            for n in (15, 63)
        ]
        assert max(sups) / min(sups) < 2.0

    def test_classical_sup_grows_with_n(self):
        sups = [
            resolvent_sweep(
                SemiDiscreteSystem(CLASSICAL, Mesh(n), 1.0), -20.0, 20.0, 41
            ).sup_norm
            for n in (15, 63)
        ]
        assert sups[1] > sups[0]

    def test_bad_grid_parameters(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(3), 1.0)
        with pytest.raises(ValueError):
            resolvent_sweep(system, 5.0, -5.0, 10)
        with pytest.raises(ValueError):
            resolvent_sweep(system, -5.0, 5.0, 1)
        with pytest.raises(ValueError, match="log_decades 400 exceeds the cap of 30"):
            resolvent_sweep(system, -5.0, 5.0, 10, log_decades=400.0)

    def test_linear_steps_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the linear-steps cap")

        monkeypatch.setattr("schrostab.spectral.spectral_abscissa", refuse)
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(3), 1.0)
        with pytest.raises(ValueError, match=f"linear_steps {10**12} exceeds the cap of "
                                             f"{MAX_LINEAR_STEPS}"):
            resolvent_sweep(system, -5.0, 5.0, 10**12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_given_spectrum_is_not_solved_again(self, monkeypatch, scheme):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep solved the spectrum again")

        system = SemiDiscreteSystem(scheme, Mesh(15), 1.0)
        spectrum = spectral_abscissa(system)
        expect = resolvent_sweep(system, -5.0, 5.0, 11, log_decades=1.0)
        monkeypatch.setattr("schrostab.spectral.spectrum", refuse)
        sweep = sweep_with_spectrum(spectrum, -5.0, 5.0, 11, log_decades=1.0)
        assert set(spectrum.eigenvalues.imag) <= set(sweep.beta_grid)
        assert np.array_equal(sweep.beta_grid, expect.beta_grid)
        assert np.array_equal(sweep.norms, expect.norms)

    def test_order_reduction_resolvent_never_forms_a_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the order-reduction resolvent formed a dense matrix")

        monkeypatch.setattr("schrostab.systems.assemble_generator", refuse)
        monkeypatch.setattr("schrostab.spectral.eigenpairs", refuse)
        monkeypatch.setattr("scipy.linalg.svdvals", refuse)
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(4095), 1.0)
        sweep = resolvent_sweep(system, -20.0, 20.0, 11, log_decades=1.0)
        assert sweep.beta_grid.size > 4096  # the 4096 eigenvalue peaks and the grid
        assert 0.52 < sweep.sup_norm < 0.53
        assert resolvent_norm(system, 2.868) <= sweep.sup_norm

    def test_classical_resolvent_never_forms_a_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the classical resolvent formed a dense matrix")

        monkeypatch.setattr("schrostab.systems.assemble_generator", refuse)
        monkeypatch.setattr("schrostab.spectral.eigenpairs", refuse)
        monkeypatch.setattr("scipy.linalg.svdvals", refuse)
        system = SemiDiscreteSystem(CLASSICAL, Mesh(2047), 1.0)
        sweep = resolvent_sweep(system, -20.0, 20.0, 11, log_decades=1.0)
        assert sweep.beta_grid.size > 2048  # the 2048 eigenvalue peaks and the grid
        assert 4.90e5 < sweep.sup_norm < 4.92e5  # measured: 490955.2355


@pytest.mark.parametrize("scheme", SCHEMES)
def test_resolvent_norm_takes_a_scalar_or_an_array(scheme):
    system = SemiDiscreteSystem(scheme, Mesh(15), 1.0)
    betas = np.array([[0.0, 2.868], [-17.5, 1e4]])
    norms = resolvent_norm(system, betas)
    assert norms.shape == betas.shape
    scalar = resolvent_norm(system, 2.868)
    assert isinstance(scalar, float)
    assert scalar == norms[0, 1]
