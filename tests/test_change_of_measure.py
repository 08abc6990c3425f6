import tracemalloc

import numpy as np
import pytest

import perron as pr
from conftest import inverse_change, random_positive_kernel, transport_function


@pytest.fixture
def interval_kernel():
    sp = pr.make_interval_space(0, 1, 50, "midpoint")
    return pr.gaussian_kernel(sp, 0.5)


def density_on(space, seed=0, low=0.5, high=2.5):
    rng = np.random.default_rng(seed)
    return pr.GridFunction(rng.uniform(low, high, space.size), space)


class TestConjugation:
    def test_identity_density_is_identity(self, interval_kernel):
        h = pr.GridFunction(np.ones(50), interval_kernel.space)
        ke = pr.conjugate_kernel(interval_kernel, pr.MeasureChange(h, 2.0))
        np.testing.assert_allclose(ke.entries, interval_kernel.entries)
        np.testing.assert_allclose(ke.space.weights, interval_kernel.space.weights)

    def test_constant_density_keeps_dominant_eigenvalue(self, interval_kernel):
        h = pr.GridFunction(np.full(50, 2.0), interval_kernel.space)
        mc = pr.MeasureChange(h, 2.0)
        ke = pr.conjugate_kernel(interval_kernel, mc)
        # entries doubled, nu-weights halved
        np.testing.assert_allclose(ke.entries, 2.0 * interval_kernel.entries)
        np.testing.assert_allclose(ke.space.weights, interval_kernel.space.weights / 2.0)
        lam = pr.solve(interval_kernel).lambda0
        lam_e = pr.solve(ke).lambda0
        assert lam_e == pytest.approx(lam, rel=1e-10)

    def test_p2_conjugate_of_a_symmetric_kernel_is_symmetric(self, interval_kernel):
        # h^(1/2) on both sides, one outer product: bit-symmetric, so a
        # solve of the conjugate may take the symmetric routes
        mc = pr.MeasureChange(density_on(interval_kernel.space, seed=7), 2.0)
        ke = pr.conjugate_kernel(interval_kernel, mc)
        assert ke.symmetric
        root = np.sqrt(mc.density.values)
        np.testing.assert_allclose(
            ke.entries, root[:, np.newaxis] * interval_kernel.entries * root, rtol=1e-15
        )

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_conjugate_holds_one_square_array(self, p):
        # the outer product is multiplied in place and frozen, so the
        # Kernel shares it: entries as (r x c) * K, bit for bit
        n = 600
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        mc = pr.MeasureChange(density_on(k.space, seed=85), p)
        pr.conjugate_kernel(k, mc)
        tracemalloc.start()
        try:
            ke = pr.conjugate_kernel(k, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * n * n
        expected = np.outer(mc.row_factor(), mc.col_factor()) * k.entries
        assert ke.entries.tobytes() == expected.tobytes()
        assert ke.symmetric == (p == 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_spectral_invariance_random_density(self, interval_kernel, p):
        mc = pr.MeasureChange(density_on(interval_kernel.space, seed=int(p * 10)), p)
        ke = pr.conjugate_kernel(interval_kernel, mc)
        lam = pr.solve(interval_kernel).lambda0
        lam_e = pr.solve(ke).lambda0
        assert abs(lam_e - lam) <= 1e-8 * lam

    def test_invariance_on_random_50x50(self):
        sp = pr.make_interval_space(0, 1, 50, "midpoint")
        k = random_positive_kernel(sp, np.random.default_rng(81))
        mc = pr.MeasureChange(density_on(sp, seed=82), 2.0)
        lam = pr.solve(k).lambda0
        lam_e = pr.solve(pr.conjugate_kernel(k, mc)).lambda0
        assert abs(lam_e - lam) <= 1e-8 * lam

    def test_eigenfunction_transport(self, interval_kernel):
        for p in (1.0, 2.0, 3.0):
            mc = pr.MeasureChange(density_on(interval_kernel.space, seed=83), p)
            ke = pr.conjugate_kernel(interval_kernel, mc)
            w_mu = pr.solve(interval_kernel).eigenfunction
            w_nu = pr.solve(ke).eigenfunction
            transported = transport_function(w_mu, mc)
            scale = w_nu.values[0] / transported.values[0]
            defect = np.max(np.abs(w_nu.values - scale * transported.values))
            assert defect <= 1e-8 * np.max(np.abs(w_nu.values))

    def test_involution(self, interval_kernel):
        mc = pr.MeasureChange(density_on(interval_kernel.space, seed=84), 2.0)
        ke = pr.conjugate_kernel(interval_kernel, mc)
        back = pr.conjugate_kernel(ke, inverse_change(mc))
        np.testing.assert_allclose(back.entries, interval_kernel.entries, atol=1e-12)
        np.testing.assert_allclose(
            back.space.weights, interval_kernel.space.weights, atol=1e-15
        )

    def test_rejects_nonpositive_density(self, interval_kernel):
        bad = np.ones(50)
        bad[3] = 0.0
        with pytest.raises(ValueError):
            pr.MeasureChange(pr.GridFunction(bad, interval_kernel.space), 2.0)

    def test_counting_space_becomes_weighted(self, symmetric_2x2):
        h = pr.GridFunction([1.0, 2.0], symmetric_2x2.space)
        ke = pr.conjugate_kernel(symmetric_2x2, pr.MeasureChange(h, 2.0))
        assert ke.space.kind == "weighted"
        lam = pr.solve(symmetric_2x2).lambda0
        lam_e = pr.solve(ke).lambda0
        assert lam_e == pytest.approx(lam, rel=1e-10)


class TestSchurTransport:
    def test_identity_density_preserves_bound(self, interval_kernel):
        bound = pr.tight_schur_bound(interval_kernel)
        h = pr.GridFunction(np.ones(50), interval_kernel.space)
        mc = pr.MeasureChange(h, 2.0)
        moved = pr.transform_schur(bound, mc)
        assert moved.constant == bound.constant
        report = pr.verify_schur(pr.conjugate_kernel(interval_kernel, mc), moved)
        assert report.holds

    def test_constant_kernel_affine_density_p2(self):
        # flat weights with C = 1 on the unit interval, density 1 + x
        sp = pr.make_interval_space(0, 1, 40, "midpoint")
        k = pr.constant_kernel(sp, 1.0)
        ones = sp.ones()
        bound = pr.SchurBound(ones, ones, 1.0)
        assert pr.verify_schur(k, bound).holds
        mc = pr.MeasureChange(pr.GridFunction(1.0 + sp.nodes, sp), 2.0)
        moved = pr.transform_schur(bound, mc)
        report = pr.verify_schur(pr.conjugate_kernel(k, mc), moved)
        assert report.holds
        assert moved.constant == 1.0

    def test_random_instances_p2(self):
        rng = np.random.default_rng(85)
        sp = pr.make_interval_space(0, 1, 50, "midpoint")
        for seed in range(5):
            k = random_positive_kernel(sp, rng)
            mc = pr.MeasureChange(density_on(sp, seed=seed), 2.0)
            moved = pr.transform_schur(pr.tight_schur_bound(k), mc)
            report = pr.verify_schur(pr.conjugate_kernel(k, mc), moved)
            assert report.holds
            assert report.max_row_ratio <= 1 + 1e-10
            assert report.max_col_ratio <= 1 + 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 7.0])
    def test_constant_density_any_exponent(self, interval_kernel, p):
        h = pr.GridFunction(np.full(50, 1.7), interval_kernel.space)
        mc = pr.MeasureChange(h, p)
        moved = pr.transform_schur(pr.tight_schur_bound(interval_kernel), mc)
        report = pr.verify_schur(pr.conjugate_kernel(interval_kernel, mc), moved)
        assert report.holds

    def test_nonconstant_density_off_p2_is_not_invariant(self, interval_kernel):
        # documented limitation: for p != 2 and genuinely varying density
        # no single transported pair keeps both inequalities with the same
        # constant; the row side transports exactly, the column side does not
        mc = pr.MeasureChange(density_on(interval_kernel.space, seed=86), 1.0)
        moved = pr.transform_schur(pr.tight_schur_bound(interval_kernel), mc)
        report = pr.verify_schur(pr.conjugate_kernel(interval_kernel, mc), moved)
        assert report.max_row_ratio <= 1 + 1e-10  # row test survives any p
        assert report.max_col_ratio > 1 + 1e-10  # column test provably cannot
