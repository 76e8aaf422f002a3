import numpy as np
import pytest

from schrostab.grid import Mesh, build_scheme_matrices, solve_d, yh_inner, yh_norm
from schrostab.systems import (
    CLASSICAL,
    ORDER_REDUCTION,
    SCHEMES,
    SemiDiscreteSystem,
    apply_generator,
    assemble_generator,
    discrete_energy,
    dissipation_gap,
)

from conftest import dense_generator, random_complex, weighted_oracle


class TestApplyOrderReduction:
    def test_zero(self):
        m = Mesh(5)
        out = apply_generator(ORDER_REDUCTION, np.zeros(6), 1.0, m)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_hand_value(self):
        # 2x2 chain evaluated by hand: D^{-1}(-i M Z - boundary)
        m = Mesh(1)
        out = apply_generator(ORDER_REDUCTION, np.array([0.0, 1.0]), 1.0, m)
        np.testing.assert_allclose(out, [8.0 - 32.0j, -16.0 + 48.0j], atol=1e-12)

    def test_rejects_bad_gain(self):
        for scheme in SCHEMES:
            with pytest.raises(ValueError, match="feedback gain must be positive"):
                apply_generator(scheme, np.zeros(3), -1.0, Mesh(2))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n,k", [(1, 1.0), (9, 0.3), (64, 10.0)])
    def test_matches_assembled_generator(self, n, k, scheme, rng):
        # dense oracle P^{-1} (-i M Z - (k/h) E) with P.T Z = -M.T + (i k/2) E,
        # P = D for order reduction and P = I for the classical scheme
        m = Mesh(n)
        sm = build_scheme_matrices(m)
        D, M = sm.D.toarray(), sm.M.toarray()
        P = D if scheme == ORDER_REDUCTION else np.eye(n + 1)
        E = np.zeros((n + 1, n + 1))
        E[-1, -1] = 1.0
        Z = np.linalg.solve(P.T, -M.T + 0.5j * k * E)
        A = np.linalg.solve(P, -1j * (M @ Z) - (k / m.h) * E)
        for _ in range(5):
            Y = random_complex(rng, n + 1)
            lhs = apply_generator(scheme, Y, k, m)
            rhs = A @ Y
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_linearity(self, rng):
        m = Mesh(12)
        Y1, Y2 = random_complex(rng, 13), random_complex(rng, 13)
        alpha = 0.3 - 1.9j
        def apply(Y):
            return apply_generator(ORDER_REDUCTION, Y, 2.0, m)

        lhs = apply(alpha * Y1 + Y2)
        rhs = alpha * apply(Y1) + apply(Y2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(rhs))


class TestAssembleGenerator:
    def test_order_reduction_n1_column(self):
        A = assemble_generator(ORDER_REDUCTION, 1.0, Mesh(1))
        np.testing.assert_allclose(A[:, 1], [8.0 - 32.0j, -16.0 + 48.0j], atol=1e-12)

    @pytest.mark.parametrize("n,k", [(4, 1.0), (31, 0.5)])
    def test_classical_structure(self, n, k):
        # i M M^T plus a rank-one correction confined to the last column
        m = Mesh(n)
        sm = build_scheme_matrices(m)
        A = assemble_generator(CLASSICAL, k, m)
        base = 1j * (sm.M @ sm.M.T.toarray())
        np.testing.assert_allclose(A[:, :-1], base[:, :-1], atol=1e-10)
        assert np.linalg.norm(A[:, -1] - base[:, -1]) > 0

    def test_classical_interior_basis_vectors(self):
        m = Mesh(8)
        sm = build_scheme_matrices(m)
        base = 1j * (sm.M @ sm.M.T.toarray())
        for j in range(m.n):  # all but the boundary column
            e = np.zeros(m.n + 1, dtype=complex)
            e[j] = 1.0
            np.testing.assert_array_equal(apply_generator(CLASSICAL, e, 1.0, m), base[:, j])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            assemble_generator("spectral", 1.0, Mesh(2))


class TestSemiDiscreteSystem:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [1, 15, 63])
    def test_weighted_generator_matches_similarity_oracle(self, scheme, n):
        # D A D^{-1} from the applier and the closed-form inverse of D, with no inverse formed
        system = SemiDiscreteSystem(scheme, Mesh(n), 1.0)
        B = system.mesh.matrices.D @ system.apply(solve_d(np.eye(n + 1)))
        oracle = weighted_oracle(system)
        assert np.linalg.norm(B - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_apply_agrees_with_generator(self, rng):
        system = SemiDiscreteSystem(CLASSICAL, Mesh(20), 2.0)
        Y = random_complex(rng, 21)
        lhs = system.apply(Y)
        rhs = dense_generator(system) @ Y
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_value_semantics(self):
        system = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(3), 1.0)
        same = SemiDiscreteSystem(ORDER_REDUCTION, Mesh(3), 1.0)
        assert system == same
        assert hash(system) == hash(same)
        assert len({system, same}) == 1
        assert system != SemiDiscreteSystem(CLASSICAL, Mesh(3), 1.0)
        assert system != SemiDiscreteSystem(ORDER_REDUCTION, Mesh(4), 1.0)
        assert system != SemiDiscreteSystem(ORDER_REDUCTION, Mesh(3), 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SemiDiscreteSystem("other", Mesh(2), 1.0)
        with pytest.raises(ValueError):
            SemiDiscreteSystem(ORDER_REDUCTION, Mesh(2), 0.0)


class TestDissipation:
    def test_hand_value(self):
        # quadratic form equals -k |y_{N+1}|^2 = -1 here
        m = Mesh(1)
        Y = np.array([0.0, 1.0])
        AY = apply_generator(ORDER_REDUCTION, Y, 1.0, m)
        assert np.real(yh_inner(AY, Y, m)) == pytest.approx(-1.0, abs=1e-13)
        assert dissipation_gap(Y, 1.0, m)[0] <= 1e-14

    def test_zero_boundary_state(self, rng):
        m = Mesh(30)
        Y = random_complex(rng, 31)
        Y[-1] = 0.0
        AY = apply_generator(ORDER_REDUCTION, Y, 1.0, m)
        scale = yh_norm(Y, m) * yh_norm(AY, m)
        assert abs(np.real(yh_inner(AY, Y, m))) <= 1e-12 * scale

    @pytest.mark.parametrize("n,k", [(16, 0.01), (256, 10.0), (1023, 1.0)])
    def test_random_states(self, n, k, rng):
        m = Mesh(n)
        Y = random_complex(rng, n + 1)
        AY = apply_generator(ORDER_REDUCTION, Y, k, m)
        scale = yh_norm(Y, m) * yh_norm(AY, m) + k * abs(Y[-1]) ** 2
        assert dissipation_gap(Y, k, m)[0] <= 1e-10 * scale


class TestDiscreteEnergy:
    def test_zero(self):
        assert discrete_energy(np.zeros(4), Mesh(3)) == 0

    def test_hand_value(self):
        assert discrete_energy(np.array([0.0, 1.0]), Mesh(1)) == pytest.approx(1.0 / 16.0)

    def test_equals_half_weighted_norm(self, rng):
        # midpoint-sum form against the inner-product form
        m = Mesh(50)
        W = random_complex(rng, 51)
        mids = 0.5 * (np.concatenate([[0.0], W[:-1]]) + W)
        sum_form = 0.5 * m.h * np.sum(np.abs(mids) ** 2)
        inner_form = 0.5 * np.real(yh_inner(W, W, m))
        assert abs(sum_form - inner_form) <= 1e-13 * sum_form
        assert discrete_energy(W, m) == pytest.approx(sum_form, rel=1e-13)

