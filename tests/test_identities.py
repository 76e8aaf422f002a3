import numpy as np
import pytest

from schrostab.grid import Mesh, extend_shadow, shadow_element, triple_sum_identity_gap
from schrostab.identities import (
    SUITE_TOLERANCES,
    boundary_multiplier_gap_y,
    boundary_multiplier_gap_z,
    claim_functionals_gap,
    cross_term_gap,
    run_identity_suite,
)

from conftest import random_complex

GRID = [(n, k) for n in (1, 2, 7, 64, 255) for k in (0.1, 1.0, 10.0)]


class TestBoundaryMultiplierY:
    def test_zero(self):
        assert boundary_multiplier_gap_y(np.zeros(5), Mesh(4))[0] == 0

    def test_unit_boundary_vector(self):
        # Y = e_{N+1}: every term computable in closed form
        m = Mesh(3)
        Y = np.zeros(4, dtype=complex)
        Y[-1] = 1.0
        gap, scale = boundary_multiplier_gap_y(Y, m)
        assert gap <= 1e-14 * scale

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        gap, scale = boundary_multiplier_gap_y(Y, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_phase_invariance(self, rng):
        # the identity only sees |.|^2 and real parts of conjugate pairs
        m = Mesh(12)
        Y = random_complex(rng, 13)
        g1 = boundary_multiplier_gap_y(Y, m)[0]
        g2 = boundary_multiplier_gap_y(np.exp(0.7j) * Y, m)[0]
        assert g1 == pytest.approx(g2, abs=1e-13)

    def test_batch_matches_loop(self, rng):
        m = Mesh(9)
        Y = random_complex(rng, 10, 6)
        batched = boundary_multiplier_gap_y(Y, m)[0]
        singles = np.array([boundary_multiplier_gap_y(Y[:, j], m)[0] for j in range(6)])
        np.testing.assert_allclose(batched, singles, atol=1e-15)


class TestBoundaryMultiplierZ:
    def test_zero(self):
        assert boundary_multiplier_gap_z(np.zeros(6), Mesh(4))[0] == 0

    def test_constant_vector(self):
        # constant extended vector: differences vanish, sums telescope
        m = Mesh(5)
        gap, scale = boundary_multiplier_gap_z(np.full(7, 2.0 - 1.0j), m)
        assert gap <= 1e-14 * scale

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            boundary_multiplier_gap_z(np.zeros(5), Mesh(4))

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_extended_vectors(self, n, k, rng):
        Zext = random_complex(rng, n + 2)
        gap, scale = boundary_multiplier_gap_z(Zext, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_shadow_of_random_state(self, rng):
        # the case the analysis actually uses: z the shadow element of y
        m = Mesh(31)
        k = 2.0
        Y = random_complex(rng, 32)
        Z = shadow_element(Y, k, m)
        Zext = extend_shadow(Z, Y, k, m)
        gap, scale = boundary_multiplier_gap_z(Zext, m)
        assert gap <= 1e-12 * scale


class TestCrossTerm:
    def test_zero(self):
        assert cross_term_gap(np.zeros(4), 1.0, Mesh(3))[0] == 0

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        gap, scale = cross_term_gap(Y, k, Mesh(n))
        assert gap <= 1e-12 * scale

    def test_phase_invariance(self, rng):
        # rotating the state rotates the shadow element too, so the gap
        # stays at roundoff level for every global phase
        m = Mesh(16)
        Y = random_complex(rng, 17)
        for phase in (0.0, 0.7, 1.1, 3.0):
            gap, scale = cross_term_gap(np.exp(1j * phase) * Y, 1.0, m)
            assert gap <= 1e-12 * scale

    def test_batch_matches_loop(self, rng):
        m = Mesh(7)
        Y = random_complex(rng, 8, 5)
        batched = cross_term_gap(Y, 0.5, m)[0]
        singles = np.array([cross_term_gap(Y[:, j], 0.5, m)[0] for j in range(5)])
        # summation order differs between the batched and looped paths, so
        # the roundoff-level gaps agree only to roundoff of the terms
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestClaimFunctionals:
    def test_zero_state(self):
        out = claim_functionals_gap(np.zeros(5), 1.0, 2.0, Mesh(4))
        assert out["gap_claim2"] == 0
        assert out["gap_claim3"] == 0

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            claim_functionals_gap(np.zeros(5), 1.0, 0.0, Mesh(4))

    @pytest.mark.parametrize("n,k", GRID)
    def test_random_states(self, n, k, rng):
        Y = random_complex(rng, n + 1)
        out = claim_functionals_gap(Y, k, 3.7, Mesh(n))
        assert out["gap_claim2"] <= 1e-12 * out["scale_claim2"]
        assert out["gap_claim3"] <= 1e-12 * out["scale_claim3"]

    @pytest.mark.parametrize("beta", [-5.0, -0.3, 0.3, 12.0])
    def test_beta_sign_irrelevant(self, beta, rng):
        Y = random_complex(rng, 17)
        out = claim_functionals_gap(Y, 1.0, beta, Mesh(16))
        assert out["gap_claim2"] <= 1e-12 * out["scale_claim2"]
        assert out["gap_claim3"] <= 1e-12 * out["scale_claim3"]


class TestSuite:
    def test_all_pass_defaults(self):
        reports = run_identity_suite(n_values=(1, 2, 7, 64), samples=20, seed=11)
        assert reports
        names = {r.identity for r in reports}
        assert names == set(SUITE_TOLERANCES)
        for r in reports:
            assert r.passed, f"{r.identity} n={r.n} k={r.k}: {r.relative_gap:.3e}"

    def test_perturbation_detected(self):
        reports = run_identity_suite(n_values=(7,), samples=20, seed=11, perturb=1e-6)
        failed = [r for r in reports if not r.passed]
        assert failed
        assert all(r.identity in ("claim2", "claim3") for r in failed)

    def test_seed_determinism(self):
        a = run_identity_suite(n_values=(2, 7), samples=10, seed=5)
        b = run_identity_suite(n_values=(2, 7), samples=10, seed=5)
        assert [(r.identity, r.n, r.k, r.gap, r.scale) for r in a] == [
            (r.identity, r.n, r.k, r.gap, r.scale) for r in b
        ]

    def test_triple_sum_reports_worst_sample(self):
        # gap and scale must come from the same sample: the one with the
        # largest relative gap; the suite draws u, v, w first for each n
        n, samples, seed = 7, 100, 3
        rng = np.random.default_rng(seed)
        u, v, w = (random_complex(rng, n + 2, samples) for _ in range(3))
        gap = np.abs(triple_sum_identity_gap(u, v, w))
        scale = (n + 2) * np.prod([np.max(np.abs(a), axis=0) for a in (u, v, w)], axis=0)
        worst = int(np.argmax(gap / scale))
        report = run_identity_suite(n_values=(n,), samples=samples, seed=seed)[0]
        assert (report.identity, report.k) == ("triple_sum", 0.0)
        assert (report.gap, report.scale) == (gap[worst], scale[worst])
