from pathlib import Path

import numpy as np
import pytest

import perron as pr
import perron.kernel_op
from perron.errors import NotMinorizableError
from conftest import (
    characteristic_polynomial,
    count_calls,
    eigenvalues_via_charpoly,
    random_positive_kernel,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestCharacteristicPolynomial:
    def test_symmetric_2x2(self, symmetric_2x2):
        coeffs = characteristic_polynomial(symmetric_2x2.operator_matrix())
        np.testing.assert_allclose(coeffs, [1.0, -4.0, 3.0], atol=1e-12)

    def test_chain(self, two_state_chain):
        # hand derivation: x^2 - x/2 - 1/2
        coeffs = characteristic_polynomial(two_state_chain.operator_matrix())
        np.testing.assert_allclose(coeffs, [1.0, -0.5, -0.5], atol=1e-12)
        roots = np.sort_complex(eigenvalues_via_charpoly(two_state_chain.operator_matrix()))
        np.testing.assert_allclose(roots, [-0.5, 1.0], atol=1e-10)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(71)
        m = rng.normal(size=(6, 6))
        ours = np.sort_complex(eigenvalues_via_charpoly(m))
        numpys = np.sort_complex(np.linalg.eigvals(m))
        np.testing.assert_allclose(ours, numpys, atol=1e-8)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues_via_charpoly(np.eye(13))


class TestPfSolve:
    def test_rank_one_matrix(self, counting2):
        k = pr.Kernel(np.ones((2, 2)), counting2)
        res = pr.solve(k)
        assert res.lambda0 == pytest.approx(2.0, abs=1e-11)
        np.testing.assert_allclose(
            res.eigenfunction.values / res.eigenfunction.values[0], [1.0, 1.0], rtol=1e-10
        )

    def test_symmetric_2x2(self, symmetric_2x2):
        res = pr.solve(symmetric_2x2)
        assert res.lambda0 == pytest.approx(3.0, abs=1e-10)
        assert res.diagnostics.left_residual <= 1e-8

    def test_random_10x10_matches_dense_eigensolver(self):
        rng = np.random.default_rng(72)
        sp = pr.make_counting_space(10)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        dense = np.max(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert res.lambda0 == pytest.approx(dense, rel=1e-8)
        assert res.diagnostics.left_residual <= 1e-8

    def test_zero_entry_matrix_raises(self, two_state_chain):
        with pytest.raises(NotMinorizableError):
            pr.solve(two_state_chain)


class TestPowerDoeblinAnalyze:
    def test_two_state_chain_full_classification(self, two_state_chain):
        report = pr.power_doeblin_analyze(two_state_chain, n_max=8)
        assert report.power == 2
        assert report.rho == pytest.approx(1.0, abs=1e-10)
        # candidates are the square roots of unity times rho
        cands = np.sort_complex(np.array(report.roots_of_unity_candidates))
        np.testing.assert_allclose(cands, [-1.0, 1.0], atol=1e-9)
        # but only +1 is an actual eigenvalue: spectrum is {1, -1/2}
        assert len(report.peripheral_candidates) == 1
        assert report.peripheral_candidates[0] == pytest.approx(1.0, abs=1e-8)
        assert report.simple
        assert report.second_modulus == pytest.approx(0.5, abs=1e-8)
        assert report.rank_one_defect <= 1e-8

    def test_candidate_invariants(self, two_state_chain):
        report = pr.power_doeblin_analyze(two_state_chain, n_max=8)
        for cand in report.peripheral_candidates:
            assert abs(abs(cand) - report.rho) <= 1e-8 * report.rho
            assert abs(cand**report.power - report.rho**report.power) <= 1e-6 * report.rho**report.power

    def test_permutation_not_found(self, counting2):
        perm = pr.Kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), counting2)
        with pytest.raises(NotMinorizableError) as info:
            pr.power_doeblin_analyze(perm, n_max=10)
        assert info.value.details == pr.NotFoundWithin(n_max=10)

    def test_strictly_positive_reduces_to_n_equals_one(self, symmetric_2x2):
        report = pr.power_doeblin_analyze(symmetric_2x2, n_max=4)
        assert report.power == 1
        assert report.rho == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(report.peripheral_candidates, [3.0 + 0j], atol=1e-8)
        assert report.simple

    def test_large_matrix_deflation_route(self):
        rng = np.random.default_rng(73)
        sp = pr.make_counting_space(20)
        k = random_positive_kernel(sp, rng)
        report = pr.power_doeblin_analyze(k, n_max=4)
        assert report.power == 1
        assert report.simple
        assert len(report.peripheral_candidates) == 1
        dense = np.max(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert report.rho == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("dim", [3, 8, 12, 30, 80])
    def test_deflation_route_second_modulus(self, dim):
        # a zero diagonal keeps A off a one-step certificate; A^2 is positive
        rng = np.random.default_rng(75)
        k = pr.Kernel(
            rng.uniform(0.05, 1.05, (dim, dim)) * (1.0 - np.eye(dim)), pr.make_counting_space(dim)
        )
        report = pr.power_doeblin_analyze(k, n_max=4)
        assert report.power == 2
        assert report.simple
        assert len(report.peripheral_candidates) == 1
        moduli = np.sort(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert report.second_modulus == pytest.approx(moduli[-2], rel=1e-8)

    def test_builds_each_power_once(self, monkeypatch):
        # A^5 is the first positive power; the search forms A^2 .. A^5 and
        # the analysis solves the A^5 it certified.  rho is the plastic
        # number, the real root of x^3 = x + 1.
        composed = count_calls(monkeypatch, perron.kernel_op, "compose")
        k = pr.Kernel(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
                      pr.make_counting_space(3))
        report = pr.power_doeblin_analyze(k)
        assert report.power == 5
        assert len(composed) == 4
        assert report.rho == pytest.approx(1.3247179572447460, rel=1e-12)

    def test_interval_kernel_with_zeros(self):
        # max(0, 0.3 - |x - y|) on [0, 1] at 12 midpoints: zero entries off
        # the band, a strictly positive fourth power
        k = pr.kernel_from_csv(CONFIGS / "banded_interval.csv",
                               pr.make_interval_space(0.0, 1.0, 12, "midpoint"))
        assert isinstance(pr.extract_minorization(k), pr.NotMinorizable)
        report = pr.power_doeblin_analyze(k)
        assert report.power == 4
        assert report.simple
        dense = np.max(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert report.rho == pytest.approx(dense, rel=1e-12)


class TestPowerConsistency:
    def test_dominant_of_power_is_power_of_dominant(self):
        rng = np.random.default_rng(74)
        sp = pr.make_counting_space(8)
        k = random_positive_kernel(sp, rng)
        lam_a = pr.solve(k).lambda0
        for n in (2, 3):
            lam_n = pr.solve(pr.iterate_kernel(k, n)).lambda0
            assert lam_n == pytest.approx(lam_a**n, rel=1e-8)

    def test_eigenvalue_transport_to_powers(self):
        rng = np.random.default_rng(75)
        sp = pr.make_counting_space(7)
        k = random_positive_kernel(sp, rng)
        a = k.operator_matrix()
        lams, vecs = np.linalg.eig(a)
        a3 = np.linalg.matrix_power(a, 3)
        for i in range(7):
            lhs = a3 @ vecs[:, i]
            rhs = lams[i] ** 3 * vecs[:, i]
            np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1, abs(lams[i]) ** 3))

    def test_chain_regression_battery(self, two_state_chain):
        # N=1 has no strict certificate; N=2 does; spectrum is {1, -1/2};
        # only +1 is peripheral
        assert isinstance(pr.extract_minorization(two_state_chain), pr.NotMinorizable)
        cert, _ = pr.power_doeblin_search(two_state_chain, 8)
        assert cert.power == 2 and cert.strict
        roots = np.sort_complex(
            eigenvalues_via_charpoly(two_state_chain.operator_matrix())
        )
        np.testing.assert_allclose(roots, [-0.5, 1.0], atol=1e-10)


class TestAveragingRemark:
    def test_averaging_restores_minorization_but_not_convergence(self, counting2):
        # the swap matrix has no usable power, yet (I + A)/2 is strictly
        # positive; averaging fixes the certificate, not the dynamics of A
        swap = pr.Kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), counting2)
        assert isinstance(pr.power_doeblin_search(swap, 8), pr.NotFoundWithin)
        averaged = pr.Kernel(0.5 * (np.eye(2) + swap.entries), counting2)
        cert = pr.extract_minorization(averaged)
        assert isinstance(cert, pr.MinorizationCertificate) and cert.strict
        res = pr.solve(averaged)
        assert res.lambda0 == pytest.approx(1.0, abs=1e-10)
        # powers of the swap itself never settle: A^(n+1) differs from A^n
        power = swap.entries.copy()
        for _ in range(6):
            nxt = power @ swap.entries
            assert np.abs(nxt - power).max() == 1.0
            power = nxt
