import numpy as np
import pytest

from schrostab import continuous
from schrostab.continuous import characteristic_roots
from schrostab.errors import NumericalError


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
            res = min(abs(mu * np.cosh(mu) + 1j * k * np.sinh(mu)) for mu in (m, -m))
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

    @pytest.mark.parametrize("k", [-1.0, np.nan, np.inf])
    def test_rejects_bad_gain(self, k):
        with pytest.raises(ValueError, match="feedback gain must be nonnegative and finite"):
            characteristic_roots(k, 5)

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
