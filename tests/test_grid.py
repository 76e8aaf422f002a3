import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import solve_banded

from schrostab.grid import (
    Bidiagonal,
    Mesh,
    average,
    build_scheme_matrices,
    difference,
    extend_shadow,
    extend_state,
    shadow_element,
    solve_d,
    solve_dt,
    triple_sum_identity_gap,
)

from conftest import random_complex
from oracles import yh_inner, yh_norm


class TestMesh:
    def test_n1(self):
        m = Mesh(1)
        assert m.h == 0.5
        np.testing.assert_allclose(m.nodes, [0.0, 0.5, 1.0])

    def test_n3(self):
        m = Mesh(3)
        assert m.h == 0.25
        np.testing.assert_allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Mesh(0)

    def test_value_semantics(self):
        assert Mesh(3) == Mesh(3)
        assert Mesh(3) != Mesh(4)
        assert hash(Mesh(3)) == hash(Mesh(3))
        assert len({Mesh(3), Mesh(3), Mesh(4)}) == 2

    @pytest.mark.parametrize("n", [1, 7, 100, 999])
    def test_partition_invariants(self, n):
        m = Mesh(n)
        assert m.h * (n + 1) == pytest.approx(1.0, abs=1e-16)
        assert m.nodes[0] == 0.0
        assert m.nodes[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(m.nodes) > 0)


class TestAverageDifference:
    def test_average_constant(self):
        np.testing.assert_array_equal(average(np.array([1.0, 1.0, 1.0])), [1.0, 1.0])

    def test_average_pair(self):
        np.testing.assert_array_equal(average(np.array([0.0, 1.0])), [0.5])

    def test_average_imaginary(self):
        out = average(np.array([0.0, 1j, 2j]))
        np.testing.assert_allclose(out, [0.5j, 1.5j])

    def test_difference_constant(self):
        c = 3.7 - 2.1j
        np.testing.assert_array_equal(difference(np.array([c, c, c]), 0.3), [0.0, 0.0])

    def test_difference_of_nodes_is_one(self):
        m = Mesh(6)
        np.testing.assert_allclose(difference(m.nodes, m.h), np.ones(m.n + 1), atol=1e-14)

    def test_difference_pair(self):
        np.testing.assert_array_equal(difference(np.array([0.0, 1.0]), 0.5), [2.0])

    @pytest.mark.parametrize("func", [average, lambda u: difference(u, 0.1)])
    def test_too_short(self, func):
        with pytest.raises(ValueError):
            func(np.array([1.0]))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 999, 1023])
    @pytest.mark.parametrize("magnitude", [np.exp(-30.0), 1.0, np.exp(30.0)])
    @pytest.mark.parametrize("cols", [(), (1,), (5,), (63,)])
    def test_difference_is_the_quotient_bit_for_bit(self, n, magnitude, cols, rng):
        # the product with 1/h is how numpy divides a complex array by a real scalar
        u = magnitude * random_complex(rng, n + 2, *cols)
        h = Mesh(n).h
        assert difference(u, h).tobytes() == ((u[1:] - u[:-1]) / h).tobytes()

    def test_difference_bad_step(self):
        with pytest.raises(ValueError):
            difference(np.array([0.0, 1.0]), 0.0)

    def test_linearity(self, rng):
        u = random_complex(rng, 17)
        v = random_complex(rng, 17)
        alpha = 2.3 - 0.7j
        np.testing.assert_allclose(average(alpha * u + v), alpha * average(u) + average(v))
        np.testing.assert_allclose(
            difference(alpha * u + v, 0.25),
            alpha * difference(u, 0.25) + difference(v, 0.25),
        )


class TestSchemeMatrices:
    def test_n1_values(self):
        sm = build_scheme_matrices(Mesh(1))
        np.testing.assert_array_equal(sm.D @ np.eye(2), 0.5 * np.array([[1, 0], [1, 1]]))
        np.testing.assert_array_equal(sm.M @ np.eye(2), 2.0 * np.array([[-1, 1], [0, -1]]))
        np.testing.assert_array_equal(sm.Sigma @ np.eye(3), 0.5 * np.array([[1, 1, 0], [0, 1, 1]]))
        np.testing.assert_array_equal(sm.Delta @ np.eye(3), 2.0 * np.array([[-1, 1, 0], [0, -1, 1]]))

    def test_mesh_builds_them_once(self):
        m = Mesh(9)
        assert m.matrices is m.matrices
        fresh = build_scheme_matrices(m)
        for name in ("D", "M", "Sigma", "Delta"):
            built, rebuilt = getattr(m.matrices, name), getattr(fresh, name)
            eye = np.eye(built.cols)
            np.testing.assert_array_equal(built @ eye, rebuilt @ eye)

    @pytest.mark.parametrize("n", [1, 2, 9, 1023])
    def test_stored_transpose_gives_the_same_products(self, n, rng):
        # M.T is built once per matrix, and its products are bit-equal to those
        # of the lower bidiagonal on M's own diagonals
        sm = build_scheme_matrices(Mesh(n))
        assert sm.M.T is sm.M.T
        np.testing.assert_array_equal(sm.M.T @ np.eye(n + 1), (sm.M @ np.eye(n + 1)).T)
        lower = Bidiagonal(sm.M.main, sm.M.off, -1, n + 1, n + 1)
        for Y in (random_complex(rng, n + 1), random_complex(rng, n + 1, 7)):
            np.testing.assert_array_equal(sm.M.T @ Y, lower @ Y)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 1023])
    def test_products_are_bit_equal_to_csr(self, n, rng):
        # each row rounds its two products and sums them, as a CSR product does
        m = Mesh(n)
        sm = build_scheme_matrices(m)

        def stencil(values):
            return sp.diags_array(values, offsets=(0, 1), shape=(n + 1, n + 2), format="csr")

        Sigma, Delta = stencil((0.5, 0.5)), stencil((-1.0 / m.h, 1.0 / m.h))
        pairs = ((sm.D, Sigma[:, 1:]), (sm.M, Delta[:, :-1]), (sm.M.T, Delta[:, :-1].T.tocsr()),
                 (sm.Sigma, Sigma), (sm.Delta, Delta))
        for A, oracle in pairs:
            for x in (random_complex(rng, A.cols), random_complex(rng, A.cols, 7),
                      rng.standard_normal(A.cols)):
                assert_same_bits(A @ x, oracle @ x)

    def test_refuses_a_vector_of_the_wrong_length(self):
        sm = build_scheme_matrices(Mesh(4))
        with pytest.raises(ValueError, match="6 columns applied to 5 rows"):
            sm.Sigma @ np.zeros(5)

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_invertible(self, n):
        sm = build_scheme_matrices(Mesh(n))
        assert abs(np.linalg.det(sm.D @ np.eye(n + 1))) > 0
        assert abs(np.linalg.det(sm.M @ np.eye(n + 1))) > 0

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_sigma_delta_match_midpoint_sums(self, n, rng):
        # shape identity: the matrices reproduce the per-cell sums exactly
        m = Mesh(n)
        sm = build_scheme_matrices(m)
        z = random_complex(rng, n + 2)
        np.testing.assert_allclose(sm.Sigma @ z, average(z), atol=1e-15)
        np.testing.assert_allclose(sm.Delta @ z, difference(z, m.h), atol=1e-12)
        lhs = m.h * np.linalg.norm(sm.Sigma @ z) ** 2
        rhs = m.h * np.sum(np.abs(average(z)) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def band_lu_solve(b, transpose):
    """D x = b, or D.T x = b, by the pivoting band LU of scipy.linalg.solve_banded."""
    ab = np.zeros((2, b.shape[0]))
    if transpose:
        ab[0, 1:] = 0.5
        ab[1] = 0.5
        return solve_banded((0, 1), ab, b)
    ab[0] = 0.5
    ab[1, :-1] = 0.5
    return solve_banded((1, 0), ab, b)


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class TestClosedFormSolves:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 1023])
    def test_bit_equal_to_band_lu(self, n, rng):
        for b in (rng.standard_normal(n + 1), random_complex(rng, n + 1),
                  random_complex(rng, n + 1, 2000)):
            assert_same_bits(solve_d(b), band_lu_solve(b, transpose=False))
            assert_same_bits(solve_dt(b), band_lu_solve(b, transpose=True))

    def test_bit_equal_to_band_lu_on_a_long_vector(self, rng):
        b = random_complex(rng, 65536)
        assert_same_bits(solve_d(b), band_lu_solve(b, transpose=False))
        assert_same_bits(solve_dt(b), band_lu_solve(b, transpose=True))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1023])
    def test_round_trips(self, n, rng):
        D = build_scheme_matrices(Mesh(n)).D
        b = random_complex(rng, n + 1, 3)
        for P, x in ((D, solve_d(b)), (D.T, solve_dt(b))):
            # each product cancels one partial sum, so the error is relative to max |x|
            atol = 4 * np.finfo(float).eps * np.abs(x).max()
            np.testing.assert_allclose(P @ x, b, rtol=0, atol=atol)

    @pytest.mark.parametrize("solve", [solve_d, solve_dt])
    def test_batch_equals_its_columns(self, solve, rng):
        B = random_complex(rng, 64, 5)
        X = solve(B)
        for j in range(B.shape[1]):
            assert_same_bits(X[:, j], solve(B[:, j]))


class TestYhInner:
    def test_zero(self):
        m = Mesh(3)
        assert yh_inner(np.zeros(4), np.zeros(4), m) == 0

    def test_hand_value(self):
        m = Mesh(1)
        Y = np.array([0.0, 1.0])
        assert yh_inner(Y, Y, m) == pytest.approx(0.125)

    def test_hermitian_positive(self, rng):
        m = Mesh(12)
        Y = random_complex(rng, 13)
        Yt = random_complex(rng, 13)
        assert np.conj(yh_inner(Y, Yt, m)) == pytest.approx(yh_inner(Yt, Y, m))
        q = yh_inner(Y, Y, m)
        assert abs(q.imag) < 1e-15 * abs(q)
        assert q.real > 0

    def test_matches_dense_definition(self, rng):
        m = Mesh(20)
        sm = build_scheme_matrices(m)
        Y = random_complex(rng, 21)
        Yt = random_complex(rng, 21)
        expect = m.h * np.vdot(sm.D @ Yt, sm.D @ Y)
        assert yh_inner(Y, Yt, m) == pytest.approx(expect, rel=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            yh_inner(np.zeros(3), np.zeros(3), Mesh(3))

    def test_column_does_not_depend_on_batch_width(self, rng):
        # a batch of 2^15 entries is past numpy's 256 KiB threshold for
        # multiplying in place in a temporary; the narrowest block of the
        # identity suite is two columns (a lone column is summed pairwise)
        m = Mesh(255)
        Y, Yt = random_complex(rng, 256, 128), random_complex(rng, 256, 128)
        wide = yh_inner(Y, Yt, m)
        for j in range(0, 128, 2):
            assert_same_bits(yh_inner(Y[:, j:j + 2], Yt[:, j:j + 2], m), wide[j:j + 2])


class TestShadowElement:
    def test_zero(self):
        m = Mesh(4)
        np.testing.assert_array_equal(shadow_element(np.zeros(5), 1.0, m), np.zeros(5))

    def test_hand_value(self):
        # back substitution of the 2x2 bidiagonal system by hand
        m = Mesh(1)
        Z = shadow_element(np.array([0.0, 1.0]), 1.0, m)
        np.testing.assert_allclose(Z, [-4.0 - 1.0j, 4.0 + 1.0j], atol=1e-14)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_gain(self, k):
        with pytest.raises(ValueError, match="feedback gain must be positive and finite"):
            shadow_element(np.zeros(3), k, Mesh(2))

    @pytest.mark.parametrize("n,k", [(1, 1.0), (7, 0.5), (64, 10.0), (255, 0.1)])
    def test_averaged_difference_relation(self, n, k, rng):
        # midpoint averages of extended z equal scaled differences of extended y
        m = Mesh(n)
        Y = random_complex(rng, n + 1)
        Z = shadow_element(Y, k, m)
        zext = extend_shadow(Z, Y, k, m)
        yext = extend_state(Y, m)
        scale = max(np.max(np.abs(zext)), np.max(np.abs(difference(yext, m.h))))
        assert np.max(np.abs(average(zext) - difference(yext, m.h))) <= 1e-12 * scale

    def test_solves_defining_system(self, rng):
        m = Mesh(30)
        sm = build_scheme_matrices(m)
        k = 2.5
        Y = random_complex(rng, 31)
        Z = shadow_element(Y, k, m)
        rhs = -(sm.M.T @ Y)
        rhs[-1] += 0.5j * k * Y[-1]
        np.testing.assert_allclose(sm.D.T @ Z, rhs, atol=1e-11)

    def test_linear_in_state(self, rng):
        m = Mesh(16)
        Y1 = random_complex(rng, 17)
        Y2 = random_complex(rng, 17)
        alpha = 1.3 + 0.4j
        lhs = shadow_element(alpha * Y1 + Y2, 3.0, m)
        rhs = alpha * shadow_element(Y1, 3.0, m) + shadow_element(Y2, 3.0, m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestTripleSumIdentity:
    def test_zero_sequences(self):
        z = np.zeros(6)
        assert triple_sum_identity_gap(z, z, z) == 0

    def test_all_ones(self):
        o = np.ones(9)
        assert triple_sum_identity_gap(o, o, o) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            triple_sum_identity_gap(np.zeros(3), np.zeros(4), np.zeros(3))

    def test_random_length_257(self, rng):
        u, v, w = (random_complex(rng, 257) for _ in range(3))
        bound = 1e-12 * np.max(np.abs(u)) * np.max(np.abs(v)) * np.max(np.abs(w)) * 257
        assert abs(triple_sum_identity_gap(u, v, w)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-1, 1), st.floats(-1, 1),
                st.floats(-1, 1), st.floats(-1, 1),
                st.floats(-1, 1), st.floats(-1, 1),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_property_random_sequences(self, data):
        arr = np.array(data)
        u = arr[:, 0] + 1j * arr[:, 1]
        v = arr[:, 2] + 1j * arr[:, 3]
        w = arr[:, 4] + 1j * arr[:, 5]
        assert abs(triple_sum_identity_gap(u, v, w)) <= 1e-12 * len(data)


def test_yh_norm_matches_inner(rng):
    m = Mesh(9)
    Y = random_complex(rng, 10)
    assert yh_norm(Y, m) ** 2 == pytest.approx(yh_inner(Y, Y, m).real, rel=1e-13)
