import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from schrostab import continuous
from schrostab.continuous import (
    SampledFunction,
    apply_continuous_inverse,
    characteristic_residual,
    characteristic_roots,
)
from schrostab.errors import NumericalError


def interior_residual(g: SampledFunction, f: SampledFunction) -> float:
    """Independent oracle: fourth-order second difference of g against -i g'' = f.

    The centered three-point stencil is reproduced exactly by the trapezoid
    construction, so a higher-order stencil is needed to expose the O(dx^2)
    quadrature error of the computed inverse.
    """
    x = g.grid
    dx = x[1] - x[0]
    v = g.values
    gpp = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * dx**2)
    return float(np.max(np.abs(-1j * gpp - f.values[2:-2])))


class TestSampledFunction:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SampledFunction(np.linspace(0, 0.9, 10), np.zeros(10))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.1, 0.5, 1.0]), np.zeros(4))

    def test_from_callable(self):
        f = SampledFunction.from_callable(lambda x: np.sin(np.pi * x), 65)
        assert f.grid.size == 65
        assert f.values[0] == 0


class TestContinuousInverse:
    def test_zero(self):
        f = SampledFunction.from_callable(lambda x: 0.0 * x, 65)
        g = apply_continuous_inverse(f, 1.0)
        np.testing.assert_array_equal(g.values, np.zeros(65))

    def test_rejects_bad_inputs(self):
        f = SampledFunction.from_callable(lambda x: x, 65)
        with pytest.raises(ValueError):
            apply_continuous_inverse(f, 0.0)
        small = SampledFunction.from_callable(lambda x: x, 17)
        with pytest.raises(ValueError):
            apply_continuous_inverse(small, 1.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 4.0])
    def test_boundary_conditions(self, k):
        f = SampledFunction.from_callable(lambda x: np.exp(1j * x) * (1 + x), 513)
        g = apply_continuous_inverse(f, k)
        assert g.values[0] == 0
        dx = g.grid[1] - g.grid[0]
        # second-order one-sided derivative at x = 1
        gp1 = (3 * g.values[-1] - 4 * g.values[-2] + g.values[-3]) / (2 * dx)
        assert abs(gp1 + 1j * k * g.values[-1]) <= 50 * dx**2

    def test_interior_residual_second_order(self):
        k = 1.0
        res = {}
        for num in (129, 257):
            f = SampledFunction.from_callable(lambda x: np.sin(np.pi * x), num)
            g = apply_continuous_inverse(f, k)
            res[num] = interior_residual(g, f)
        ratio = res[129] / res[257]
        assert 3.0 <= ratio <= 5.0

    def test_exact_on_polynomial_data(self):
        # f = -2i gives g'' = 2, so g = x^2 + a x with the damped boundary
        # condition g'(1) = -i k g(1) forcing a (1 + ik) = -2 - ik; every
        # integrand the construction sees is linear, so trapezoid is exact
        k = 2.0
        a = (-2 - 1j * k) / (1 + 1j * k)
        f = SampledFunction.from_callable(lambda x: -2j * np.ones_like(x), 65)
        g = apply_continuous_inverse(f, k)
        expect = g.grid**2 + a * g.grid
        np.testing.assert_allclose(g.values, expect, atol=1e-13)

    def test_centered_second_difference_exact(self, rng):
        # the trapezoid double integral reproduces the three-point second
        # difference identically, an exact discrete structure worth pinning
        f_vals = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        f = SampledFunction(np.linspace(0.0, 1.0, 129), f_vals)
        g = apply_continuous_inverse(f, 1.0)
        dx = g.grid[1] - g.grid[0]
        gpp = (g.values[2:] - 2 * g.values[1:-1] + g.values[:-2]) / dx**2
        scale = np.max(np.abs(f_vals)) / dx**2
        np.testing.assert_allclose(-1j * gpp, f.values[1:-1], atol=1e-14 * scale)

    @pytest.mark.parametrize("num", [257, 513])
    def test_matches_scipy_cumulative_trapezoid(self, num, rng):
        # the package integrates without scipy.integrate; scipy stays the
        # reference for the same closed form, to the last bit
        x = np.linspace(0.0, 1.0, num)
        f_vals = rng.standard_normal(num) + 1j * rng.standard_normal(num)
        k = 1.5
        cum_f = cumulative_trapezoid(f_vals, x, initial=0.0)
        cum_tf = cumulative_trapezoid(x * f_vals, x, initial=0.0)
        a = (-1j * cum_f[-1] + k * (cum_f[-1] - cum_tf[-1])) / (1.0 + 1j * k)
        expect = a * x + 1j * (x * cum_f - cum_tf)
        g = apply_continuous_inverse(SampledFunction(x, f_vals), k)
        np.testing.assert_array_equal(g.values, expect)


class TestCharacteristicRoots:
    def test_undamped_closed_form(self):
        lam = characteristic_roots(0.0, 5)
        expect = 1j * ((np.arange(5) + 0.5) * np.pi) ** 2
        np.testing.assert_allclose(lam, expect, rtol=1e-13)

    @pytest.mark.parametrize("k", [1.0, 30.0, 100.0])
    def test_residuals(self, k):
        lam = characteristic_roots(k, 20)
        for l in lam:
            m = np.sqrt(l / (-1j))
            res = min(
                abs(characteristic_residual(m, k)), abs(characteristic_residual(-m, k))
            )
            assert res <= 1e-12 * (1 + abs(m) * np.exp(abs(m.real)))

    def test_damped_roots_strictly_stable(self):
        lam = characteristic_roots(1.0, 20)
        assert np.all(lam.real < 0)

    @pytest.mark.parametrize("k", [1.0, 30.0, 100.0])
    def test_pairwise_distinct(self, k):
        # Newton from i (n + 1/2) pi alone returned 49 distinct roots of 50 at
        # k = 30 and 44 at k = 100
        lam = characteristic_roots(k, 50)
        diffs = np.abs(lam[:, None] - lam[None, :]) + np.eye(50)
        assert diffs.min() > 1e-6

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            characteristic_roots(1.0, 0)

    def test_root_off_the_characteristic_equation_is_refused(self, monkeypatch):
        solve = continuous._branch_roots

        def moved(coefficients, zeta0):
            mu = solve(coefficients, zeta0)
            mu[3] += 1e-6
            return mu

        monkeypatch.setattr("schrostab.continuous._branch_roots", moved)
        with pytest.raises(NumericalError, match="characteristic root"):
            characteristic_roots(1.0, 20)
