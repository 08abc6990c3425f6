import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perron as pr
from perron.errors import DimensionMismatchError


def gauss_legendre_reference(n):
    """Newton iteration on the Legendre recurrence; the independent
    oracle for the production Gauss-Legendre nodes."""
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x**2 - 1)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x**2 - 1)
    w = 2.0 / ((1 - x**2) * dp**2)
    order = np.argsort(x)
    return x[order], w[order]


class TestIntervalSpace:
    def test_single_midpoint_cell(self):
        sp = pr.make_interval_space(0, 1, 1, "midpoint")
        assert sp.nodes.tolist() == [0.5]
        assert sp.weights.tolist() == [1.0]

    def test_uniform_partition(self):
        sp = pr.make_interval_space(0, 1, 4, "midpoint")
        np.testing.assert_allclose(sp.nodes, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(sp.weights, [0.25] * 4)

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("a,b,n", [(0, 1, 7), (0, 2, 10), (-3, 5, 33)])
    def test_total_mass(self, rule, a, b, n):
        sp = pr.make_interval_space(a, b, n, rule)
        assert abs(sp.total_mass() - (b - a)) <= 1e-12 * (b - a)
        assert np.all(sp.nodes >= a - 1e-12) and np.all(sp.nodes <= b + 1e-12)

    def test_gauss_legendre_against_newton_reference(self):
        for n in (3, 10, 25):
            sp = pr.make_interval_space(0, 2, n, "gauss_legendre")
            x_ref, w_ref = gauss_legendre_reference(n)
            np.testing.assert_allclose(sp.nodes, 1.0 + x_ref, atol=1e-13)
            np.testing.assert_allclose(sp.weights, w_ref, atol=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pr.make_interval_space(0, 1, 0)
        with pytest.raises(ValueError):
            pr.make_interval_space(1, 1, 4)
        with pytest.raises(ValueError):
            pr.make_interval_space(2, 1, 4)
        with pytest.raises(ValueError):
            pr.make_interval_space(0, 1, 1, "trapezoid")

    def test_counting_space(self):
        sp = pr.make_counting_space(3)
        assert sp.kind == "counting"
        assert np.all(sp.weights == 1.0)
        with pytest.raises(ValueError):
            pr.make_counting_space(0)


class TestPairing:
    def test_unit_integral(self, unit_interval_64):
        sp = unit_interval_64
        phi = pr.WeightFunctional(np.ones(64), sp)
        assert pr.pair(phi, sp.ones()) == pytest.approx(1.0, abs=1e-14)

    def test_zero_functional(self, unit_interval_64):
        sp = unit_interval_64
        f = pr.GridFunction(np.random.default_rng(0).normal(size=64), sp)
        assert pr.pair(pr.WeightFunctional(np.zeros(64), sp), f) == 0.0

    def test_quadratic_moment(self):
        # closed form: integral of y^2 over (0,1) is 1/3
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        phi = pr.WeightFunctional(sp.nodes, sp)
        f = pr.GridFunction(sp.nodes, sp)
        assert pr.pair(phi, f) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_dimension_mismatch(self, unit_interval_64):
        other = pr.make_interval_space(0, 1, 32, "midpoint")
        with pytest.raises(DimensionMismatchError):
            pr.pair(pr.WeightFunctional(np.ones(64), unit_interval_64), other.ones())

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        sp = pr.make_interval_space(0, 1, 16, "midpoint")
        phi = pr.WeightFunctional(rng.uniform(0, 2, 16), sp)
        f = rng.normal(size=16)
        h = rng.normal(size=16)
        lhs = pr.pair(phi, pr.GridFunction(a * f + b * h, sp))
        rhs = a * pr.pair(phi, pr.GridFunction(f, sp)) + b * pr.pair(phi, pr.GridFunction(h, sp))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_strict_positivity(self):
        sp = pr.make_counting_space(5)
        phi = pr.WeightFunctional(np.full(5, 0.2), sp)
        assert phi.strictly_positive
        for i in range(5):
            f = np.zeros(5)
            f[i] = 1.0
            assert pr.pair(phi, pr.GridFunction(f, sp)) > 0

    def test_midpoint_second_order_convergence(self):
        # halving h should divide the error by about 4 on a smooth integrand
        exact = np.e - 1.0
        errs = []
        for n in (50, 100, 200):
            sp = pr.make_interval_space(0, 1, n, "midpoint")
            phi = pr.WeightFunctional(np.ones(n), sp)
            errs.append(abs(pr.pair(phi, pr.GridFunction(np.exp(sp.nodes), sp)) - exact))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5


class TestImmutability:
    def test_arrays_frozen(self, unit_interval_64):
        with pytest.raises(ValueError):
            unit_interval_64.nodes[0] = 99.0
        f = unit_interval_64.ones()
        with pytest.raises(ValueError):
            f.values[0] = 2.0
