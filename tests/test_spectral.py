import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import perron as pr
import perron.kernel_op
import perron.resolvent
from perron.errors import IllConditionedError, NoSignChangeError, SlowConvergenceError
from perron.kernel_op import DENSE_RADIUS_MAX_DIM
from conftest import (
    config_kernels,
    count_calls,
    count_solves,
    random_positive_kernel,
    remainder_radius,
)


def evaluator_for(kernel, strategy="row_min"):
    return pr.BirmanSchwingerEvaluator(
        pr.rank_one_split(kernel, pr.extract_minorization(kernel, strategy))
    )


class TestFindDominant:
    def test_pure_rank_one(self, constant_unit):
        ev = evaluator_for(constant_unit)
        assert pr.find_dominant(ev, tol=1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_2x2(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        assert pr.find_dominant(ev, tol=1e-12) == pytest.approx(3.0, abs=1e-10)

    def test_gaussian_matches_power_oracle(self):
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        k = pr.gaussian_kernel(sp, 0.2)
        lam = pr.find_dominant(evaluator_for(k), tol=1e-12)
        oracle = pr.spectral_radius_oracle(k, tol=1e-12).rho
        assert abs(lam - oracle) <= 1e-8 * lam

    def test_vanishing_alpha_has_no_resolvable_root(self, counting2):
        # an alpha so small that rho(R) lies 5e-13 relative below lambda0 = 2:
        # every shift between them is ill-conditioned, so the fences close
        # without a certified shift where D < 0, and the error names them
        k = pr.Kernel(np.array([[1.0, 1.0], [1.0, 1.0]]), counting2)
        cert = pr.MinorizationCertificate(
            alpha=1e-12, profile=counting2.ones(), functional=counting2.functional([0.5, 0.5])
        )
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, cert))
        with pytest.raises(NoSignChangeError, match=r"fences \[2\.000000e\+00, 2\.000000e\+00\]"):
            pr.find_dominant(ev, tol=1e-12)

    def test_tol_validation(self, constant_unit):
        with pytest.raises(ValueError):
            pr.find_dominant(evaluator_for(constant_unit), tol=1e-15)

    def test_solver_names_only_the_lu_solve(self, symmetric_2x2):
        assert pr.solve(symmetric_2x2, solver="direct_lu").lambda0 == pytest.approx(3.0, abs=1e-10)
        for solver in ("neumann", "bogus"):
            with pytest.raises(ValueError, match="direct_lu"):
                pr.solve(symmetric_2x2, solver=solver)


def expansion_root(ev, tol=1e-12):
    """Oracle root search without the Collatz-Wielandt start: geometric
    expansion up from just above the remainder radius, then Newton
    safeguarded by the bracket."""
    rho = remainder_radius(ev)
    cap = 10.0 * max(ev.operator_norm, np.finfo(float).tiny)
    lo = rho * (1.0 + 1e-6) if rho > 0 else 1e-6 * max(ev.operator_norm, 1e-300)
    d_lo = None
    for _ in range(8):
        try:
            d_lo = ev.value(lo)
            break
        except IllConditionedError:
            lo = rho + (lo - rho) * 4.0
    assert d_lo is not None
    shrink = 0
    while d_lo >= 0 and shrink < 60:
        lo_new = rho + (lo - rho) * 0.5
        if lo_new <= rho or lo_new == lo:
            break
        try:
            d_new = ev.value(lo_new)
        except IllConditionedError:
            break
        lo, d_lo = lo_new, d_new
        shrink += 1
    assert d_lo < 0
    hi = None
    offset = lo - rho
    k = 0
    while hi is None:
        k += 1
        cand = min(rho + offset * (2.0**k), cap)
        if ev.value(cand) > 0:
            hi = cand
        else:
            lo = cand
            assert cand < cap
    x = 0.5 * (lo + hi)
    for _ in range(200):
        dx = ev.value(x)
        if dx > 0:
            hi = x
        else:
            lo = x
        dpx = ev.derivative(x)
        if abs(dx) <= tol * max(1.0, abs(dpx) * x):
            return float(x)
        if hi - lo <= 8 * np.finfo(float).eps * max(1.0, x):
            return float(0.5 * (lo + hi))
        step = x - dx / dpx if dpx > 0 else None
        x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise AssertionError("oracle root refinement did not converge")


CONFIG_CASES = list(config_kernels())
ROOT_CASES = [
    (f"seed{seed}", random_positive_kernel(space, np.random.default_rng(seed)), None)
    for seed, space in (
        (52, pr.make_counting_space(25)),
        (53, pr.make_counting_space(20)),
        (53, pr.make_interval_space(0, 1, 40, "midpoint")),
        (54, pr.make_counting_space(30)),
        (55, pr.make_counting_space(18)),
        (56, pr.make_interval_space(0, 2, 35, "midpoint")),
        (57, pr.make_counting_space(40)),
        (58, pr.make_counting_space(15)),
    )
] + CONFIG_CASES


def column_proportionality_defect(matrix):
    """Dense oracle of rank_one_defect: the largest residual of the columns
    after projecting each onto the column of largest l1 norm, relative to
    the largest entry."""
    norms = np.abs(matrix).sum(axis=0)
    ref = int(np.argmax(norms))
    if norms[ref] == 0:
        return 0.0
    ref_col = matrix[:, ref]
    scales = (matrix.T @ ref_col) / float(ref_col @ ref_col)
    resid = matrix - np.outer(ref_col, scales)
    return float(np.abs(resid).max() / max(np.abs(matrix).max(), 1e-300))


def operator_inf_norm(matrix):
    """Dense oracle of ||P||_inf: the largest absolute row sum."""
    return float(np.abs(matrix).sum(axis=1).max())


@pytest.fixture
def lu_calls(monkeypatch):
    """List that grows by one on every LU factorization."""
    return count_calls(monkeypatch, perron.resolvent, "lu_factor")


class TestRootSearch:
    def test_solve_makes_one_solve_per_right_hand_side(self, monkeypatch):
        # R_lam 1, which certifies the shift, R_lam u, R_lam^2 u and the
        # transposed solve against phi, each once from the float64 factors
        solves = count_solves(monkeypatch)
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        pr.solve(pr.gaussian_kernel(sp, 0.35))
        assert len(solves) <= 4

    def test_solve_holds_at_most_five_square_arrays(self):
        # the remainder, the matrices of T and R and the LU of the root,
        # plus transients; the dense projection and its defect held seven
        n = 500
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        pr.solve(k)
        tracemalloc.start()
        try:
            pr.solve(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * n * n

    def test_solve_holds_the_remainder_and_no_factorization(self):
        # R (n^2 doubles), and the shifts solved through the kernel's
        # compression: no LU, no weighted copy of K or R, no n x n
        # temporary of the certificate or the split
        n = 600
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        pr.solve(k)
        tracemalloc.start()
        try:
            pr.solve(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * n * n

    def test_gaussian_needs_few_factorizations(self, lu_calls):
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        pr.solve(pr.gaussian_kernel(sp, 0.35))
        assert len(lu_calls) == 1

    def test_exact_bracket_kernels_take_one_factorization(self, lu_calls, constant_unit):
        # the Collatz-Wielandt bracket is exact: D(lo) = 0 up to rounding
        pr.solve(constant_unit)
        assert len(lu_calls) == 1
        lu_calls.clear()
        sp = pr.make_interval_space(0, 1, 30, "midpoint")
        rng = np.random.default_rng(51)
        v = rng.uniform(0.2, 1.2, 30)
        u = rng.uniform(0.2, 1.2, 30)
        k = pr.separable_kernel(sp, v, u)
        pr.solve(k, certificate=pr.extract_minorization(k, "user", profile=v, density=u))
        assert len(lu_calls) == 1

    def test_weak_certificate_takes_at_most_two_factorizations(self, lu_calls):
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        k = pr.gaussian_kernel(sp, 0.15)
        lam = pr.solve(k).lambda0
        assert len(lu_calls) <= 2
        oracle = pr.spectral_radius_oracle(k, tol=1e-12).rho
        assert abs(lam - oracle) <= 1e-8 * lam

    @pytest.mark.parametrize("sigma", np.linspace(0.3, 0.5, 11))
    def test_gaussian_root_at_rounding_level(self, sigma):
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        k = pr.gaussian_kernel(sp, sigma)
        lam = pr.solve(k).lambda0
        # midpoint weights are uniform, so the operator matrix is symmetric
        reference = float(np.linalg.eigvalsh(k.operator_matrix()).max())
        # the largest gap seen on this grid is 2.3e-15, about 10 eps; both
        # the root and the reference carry rounding error, so allow 64 eps
        assert abs(lam - reference) <= 64 * np.finfo(float).eps * reference

    def test_root_within_1e8_of_the_remainder_radius_solves(self):
        # a certificate this weak leaves rho(R) within 1e-8 of rho(T), where
        # an inflated power-iteration estimate of rho(R) lay above the root;
        # certified by positivity, every shift stands on its own solve
        rng = np.random.default_rng(1)
        k = pr.Kernel(np.exp(4.0 * rng.standard_normal((20, 20))), pr.make_counting_space(20))
        res = pr.solve(k)
        oracle = np.abs(np.linalg.eigvals(k.entries)).max()
        assert abs(res.lambda0 - oracle) <= 1e-10 * oracle
        assert 0 < res.lambda0 - remainder_radius(res.evaluator) <= 1e-8 * oracle

    def test_weak_certificate_fallback_matches_power_oracle(self):
        # a heterogeneous matrix: the power steps converge slowly, and
        # within their budget the Collatz-Wielandt lower end stays below
        # rho(R), so the search starts from a refused shift
        rng = np.random.default_rng(0)
        k = pr.Kernel(np.exp(4.0 * rng.standard_normal((30, 30))), pr.make_counting_space(30))
        res = pr.solve(k)
        lo, _ = perron.spectral.collatz_wielandt(k)
        assert lo <= remainder_radius(res.evaluator)
        oracle = pr.spectral_radius_oracle(k, tol=1e-12).rho
        assert abs(res.lambda0 - oracle) <= 1e-8 * res.lambda0

    def test_bracket_from_the_eigenfunction_is_at_rounding_width(self):
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.1)
        lo, hi = perron.spectral.collatz_wielandt(k)
        assert hi - lo > 1e-6 * hi  # the budget ends the run from the ones vector early
        res = pr.solve(k)
        lo, hi = perron.spectral.collatz_wielandt(k, start=res.eigenfunction.values)
        assert hi - lo <= 1e-12 * hi
        assert lo * (1 - 1e-12) <= res.lambda0 <= hi * (1 + 1e-12)
        with pytest.raises(ValueError, match="positive"):
            perron.spectral.collatz_wielandt(k, start=-res.eigenfunction.values)

    def test_remainder_bracket_from_the_eigenfunction_lies_below_lambda0(self):
        for k in (pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.1),
                  random_positive_kernel(pr.make_counting_space(30), np.random.default_rng(5))):
            res = pr.solve(k)
            remainder = res.evaluator.split.remainder
            lo, hi = perron.spectral.collatz_wielandt(remainder, start=res.eigenfunction.values)
            rho = remainder_radius(res.evaluator)
            assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
            assert hi < res.lambda0

    def test_bracket_keeps_its_ends_through_a_zero_entry(self, constant_unit):
        # the ratios need x > 0 only: an iterate with a zero entry ends the
        # steps, and the bracket found so far stands
        k = pr.Kernel(np.array([[1.0, 0.0], [0.0, 0.0]]), pr.make_counting_space(2))
        assert perron.spectral.collatz_wielandt(k) == (0.0, 1.0)
        zero = evaluator_for(constant_unit).split.remainder
        assert perron.spectral.collatz_wielandt(zero) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "kernel, certificate",
        [case[1:] for case in CONFIG_CASES],
        ids=[case[0] for case in CONFIG_CASES],
    )
    def test_config_solve_takes_one_factorization(self, lu_calls, kernel, certificate):
        pr.solve(kernel, certificate=certificate)
        assert len(lu_calls) == 1

    @pytest.mark.parametrize(
        "kernel, certificate",
        [case[1:] for case in ROOT_CASES],
        ids=[case[0] for case in ROOT_CASES],
    )
    def test_root_matches_expansion_search(self, kernel, certificate):
        cert = certificate or pr.extract_minorization(kernel)
        split = pr.rank_one_split(kernel, cert)
        lam = pr.find_dominant(pr.BirmanSchwingerEvaluator(split))
        reference = expansion_root(pr.BirmanSchwingerEvaluator(split))
        assert abs(lam - reference) <= 1e-12 * reference


class TestEigenfunction:
    def test_constant_kernel_gives_ones(self, constant_unit):
        ev = evaluator_for(constant_unit)
        lam = pr.find_dominant(ev)
        w = pr.eigenfunction_from_residue(ev, lam)
        np.testing.assert_allclose(w.values, 1.0, atol=1e-11)

    def test_symmetric_2x2_perron_vector(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        lam = pr.find_dominant(ev)
        w = pr.eigenfunction_from_residue(ev, lam)
        np.testing.assert_allclose(w.values, [1.0, 1.0], atol=1e-10)
        assert pr.pair(ev.functional, w) == pytest.approx(1.0, abs=1e-12)

    def test_separable_kernel_spans_profile(self):
        sp = pr.make_interval_space(0, 1, 30, "midpoint")
        rng = np.random.default_rng(51)
        v = rng.uniform(0.2, 1.2, 30)
        u = rng.uniform(0.2, 1.2, 30)
        k = pr.separable_kernel(sp, v, u)
        cert = pr.extract_minorization(k, "user", profile=v, density=u)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, cert))
        lam = pr.find_dominant(ev)
        w = pr.eigenfunction_from_residue(ev, lam)
        ratio = w.values / v
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)

    def test_eigen_residual(self):
        rng = np.random.default_rng(52)
        sp = pr.make_counting_space(25)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        t_op = k.operator_matrix()
        resid = np.max(np.abs(t_op @ res.eigenfunction.values - res.lambda0 * res.eigenfunction.values))
        assert resid / res.eigenfunction.sup_norm() <= 1e-8

    def test_rejects_non_root(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        with pytest.raises(ValueError):
            pr.eigenfunction_from_residue(ev, 7.0)


class TestProjection:
    def test_constant_kernel_projection(self, constant_unit, unit_interval_64):
        ev = evaluator_for(constant_unit)
        lam = pr.find_dominant(ev)
        proj = pr.spectral_projection(ev, lam)
        # rank-one projection onto constants: P f = mean(f)
        f = unit_interval_64.function(np.sin(unit_interval_64.nodes * 7))
        out = proj.matrix() @ f.values
        np.testing.assert_allclose(out, f.integral(), rtol=1e-9)

    def test_symmetric_2x2_projection_by_hand(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        lam = pr.find_dominant(ev)
        p = pr.spectral_projection(ev, lam).matrix()
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)

    def test_projection_identities(self):
        rng = np.random.default_rng(53)
        for n, make in ((20, "counting"), (40, "interval")):
            sp = pr.make_counting_space(n) if make == "counting" else pr.make_interval_space(0, 1, n, "midpoint")
            k = random_positive_kernel(sp, rng)
            res = pr.solve(k)
            p = res.projection.matrix()
            t = k.operator_matrix()
            lam = res.lambda0

            def op_norm(m):
                return np.abs(m).sum(axis=1).max()

            assert op_norm(p @ p - p) <= 1e-8
            assert op_norm(t @ p - lam * p) <= 1e-8 * lam
            assert op_norm(p @ t - lam * p) <= 1e-8 * lam
            assert res.diagnostics.rank_one_defect <= 1e-8

    def test_residue_against_near_pole_oracle(self):
        # numerical residue: (lam - lam0)(lam I - T)^-1 just above the pole
        rng = np.random.default_rng(54)
        sp = pr.make_counting_space(30)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        lam0 = res.lambda0
        t_op = k.operator_matrix()
        lam = lam0 + 1e-6
        numerical = (lam - lam0) * np.linalg.inv(lam * np.eye(30) - t_op)
        formula = pr.spectral_projection(res.evaluator, lam0).matrix()
        assert np.abs(numerical - formula).max() <= 1e-4 * np.abs(formula).max()

    def test_left_row_is_left_eigenvector(self, symmetric_2x2):
        res = pr.solve(symmetric_2x2)
        row = res.left_row.acting_vector()
        lhs = symmetric_2x2.operator_matrix().T @ row
        np.testing.assert_allclose(lhs, res.lambda0 * row, rtol=1e-10)

    def test_trace_normalized_projection_matches_residue(self, symmetric_2x2):
        res = pr.solve(symmetric_2x2)
        p_residue = pr.spectral_projection(res.evaluator, res.lambda0).matrix()
        p_normalized = res.projection.matrix()
        np.testing.assert_allclose(p_residue, p_normalized, atol=1e-10)

    def test_idempotency_diagnostic_matches_dense_product(self):
        rng = np.random.default_rng(59)
        kernels = [
            random_positive_kernel(pr.make_counting_space(12), rng),
            random_positive_kernel(pr.make_interval_space(0, 1, 30, "midpoint"), rng),
            pr.gaussian_kernel(pr.make_interval_space(0, 1, 50, "gauss_legendre"), 0.3),
            pr.constant_kernel(pr.make_interval_space(0, 2, 20, "trapezoid"), 0.5),
        ]
        for k in kernels:
            res = pr.solve(k)
            p = pr.spectral_projection(res.evaluator, res.lambda0).matrix()
            dense = np.abs(p @ p - p).sum(axis=1).max()
            assert abs(res.diagnostics.proj_idempotency - dense) <= 1e-12

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_factor_form_diagnostics_match_the_dense_oracles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        kernels = [
            random_positive_kernel(pr.make_counting_space(n), rng),
            random_positive_kernel(pr.make_interval_space(0, 1, n, "midpoint"), rng),
            random_positive_kernel(pr.make_interval_space(-1, 2, n, "gauss_legendre"), rng),
            pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "trapezoid"), rng.uniform(0.2, 0.5)),
        ]
        for k in kernels:
            res = pr.solve(k)
            raw = pr.spectral_projection(res.evaluator, res.lambda0)
            p = raw.matrix()
            idem = abs(raw.coupling() - 1.0) * operator_inf_norm(p)
            assert abs(res.diagnostics.proj_idempotency - idem) <= 1e-14
            assert abs(res.diagnostics.rank_one_defect - column_proportionality_defect(p)) <= 1e-14

    def test_projection_columns_span_the_eigenfunction(self):
        # residue-eigenvector consistency: every nonzero column of the
        # projection is a multiple of the eigenfunction
        rng = np.random.default_rng(58)
        sp = pr.make_counting_space(15)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        p = pr.spectral_projection(res.evaluator, res.lambda0).matrix()
        w = res.eigenfunction.values
        for j in range(15):
            col = p[:, j]
            scale = col @ w / (w @ w)
            np.testing.assert_allclose(col, scale * w, atol=1e-8 * np.abs(p).max())


class TestSeries:
    def test_truncates_for_zero_remainder(self, constant_unit):
        ev = evaluator_for(constant_unit)
        lam = pr.find_dominant(ev)
        w = pr.eigenfunction_series(ev, lam, tol=1e-12)
        np.testing.assert_allclose(w.values, 1.0, atol=1e-11)
        norms = pr.series_term_norms(ev, lam, 4)
        assert norms[0] > 0
        np.testing.assert_allclose(norms[1:], 0.0, atol=1e-300)

    def test_symmetric_2x2_ratio_one_third(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        lam = pr.find_dominant(ev)
        w_series = pr.eigenfunction_series(ev, lam, tol=1e-12)
        w_residue = pr.eigenfunction_from_residue(ev, lam)
        np.testing.assert_allclose(w_series.values, w_residue.values, atol=1e-10)
        norms = pr.series_term_norms(ev, lam, 12)
        ratios = norms[1:] / norms[:-1]
        np.testing.assert_allclose(ratios, 1.0 / 3.0, rtol=1e-12)

    def test_gaussian_agreement(self):
        sp = pr.make_interval_space(0, 1, 80, "midpoint")
        k = pr.gaussian_kernel(sp, 0.7)
        ev = evaluator_for(k)
        lam = pr.find_dominant(ev)
        w_series = pr.eigenfunction_series(ev, lam, tol=1e-12)
        w_residue = pr.eigenfunction_from_residue(ev, lam)
        assert np.max(np.abs(w_series.values - w_residue.values)) <= 1e-8

    def test_slow_ratio_rejected(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        with pytest.raises(SlowConvergenceError):
            # lambda barely above the remainder radius: ratio ~ 1
            pr.eigenfunction_series(ev, remainder_radius(ev) * (1 + 1e-9), tol=1e-10)

    def test_below_the_remainder_radius_terms_do_not_decay(self):
        # R > 0 grows every term by at least rho(R) / lambda > 1 once the
        # terms align with its Perron vector
        ev = evaluator_for(pr.gaussian_kernel(pr.make_interval_space(0, 1, 40, "midpoint"), 0.4))
        with pytest.raises(SlowConvergenceError, match="series terms do not decay"):
            pr.eigenfunction_series(ev, 0.5 * remainder_radius(ev))


class TestDominance:
    @pytest.mark.parametrize(
        "kernel",
        [
            pr.gaussian_kernel(pr.make_interval_space(0, 1, 120, "midpoint"), 0.35),
            random_positive_kernel(pr.make_counting_space(30), np.random.default_rng(66)),
        ],
        ids=["gaussian", "random"],
    )
    def test_rank_two_deflation_matches_dense_product(self, kernel):
        res = pr.solve(kernel)
        t_op, p = kernel.operator_matrix(), res.projection.matrix()
        eye = np.eye(kernel.size)
        dense = (eye - p) @ t_op @ (eye - p)
        fast = perron.kernel_op._deflate(
            t_op, res.projection.range_vector.values, res.projection.functional.acting_vector()
        )
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(t_op).max()

    def test_symmetric_2x2_gap(self, symmetric_2x2):
        res = pr.solve(symmetric_2x2)
        report = pr.verify_dominance(res)
        assert report.second_radius == pytest.approx(1.0, abs=1e-6)
        assert report.gap_ratio == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert report.strictly_dominant

    def test_constant_kernel_pure_projection(self, constant_unit):
        res = pr.solve(constant_unit)
        report = pr.verify_dominance(res)
        assert report.second_radius <= 1e-8

    def test_random_kernel_strictly_dominant(self):
        rng = np.random.default_rng(55)
        sp = pr.make_counting_space(18)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        report = pr.verify_dominance(res)
        assert report.strictly_dominant
        dense = np.sort(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert report.second_radius == pytest.approx(dense[-2], rel=1e-8, abs=1e-12)


def _gaussian(n, sigma):
    return pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), sigma)


def _lognormal(seed, index):
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(20, 401))
    return pr.Kernel(np.exp(2.0 * rng.standard_normal((n, n))), pr.make_counting_space(n))


def _cycle(n):
    """A constant plus the cyclic shift by 3: every deflated eigenvalue is
    an n-th root of unity, so the deflated spectrum is a circle of equal moduli."""
    return pr.Kernel(0.01 + np.roll(np.eye(n), 3, axis=1), pr.make_counting_space(n))


def _rank_one(n, family):
    sp = pr.make_interval_space(0, 1, n, "midpoint")
    if family == "constant":
        return pr.constant_kernel(sp, 1.0)
    return pr.separable_kernel(sp, 1.0 + sp.nodes, 2.0 - sp.nodes**2)


def _deflated_dense(res):
    return perron.kernel_op._deflate(
        res.evaluator.split.kernel.operator_matrix(),
        res.projection.range_vector.values,
        res.projection.functional.acting_vector(),
    )


class TestSecondRadius:
    """The second radius against the largest modulus of the dense deflated
    spectrum, on both routes."""

    @staticmethod
    def check_against_dense(kernel):
        res = pr.solve(kernel)
        report = pr.verify_dominance(res)
        dense = np.abs(np.linalg.eigvals(_deflated_dense(res))).max()
        assert report.second_radius == pytest.approx(dense, rel=1e-8)
        assert report.route == ("arnoldi" if kernel.size > DENSE_RADIUS_MAX_DIM else "dense")
        assert report.residual <= 1e-8

    @pytest.mark.parametrize("n", [200, 600])
    @pytest.mark.parametrize("sigma", [0.1, 0.35])
    def test_gaussian_matches_dense_eigenvalues(self, n, sigma):
        self.check_against_dense(_gaussian(n, sigma))

    # seeds 11 and 20 add a matrix each where ARPACK asked for fewer than
    # 3 eigenvalues converges to one about 1e-3 off the largest modulus
    @pytest.mark.parametrize("seed, index", [(3, i) for i in range(40)] + [(11, 28), (20, 10)])
    def test_lognormal_matches_dense_eigenvalues(self, seed, index):
        self.check_against_dense(_lognormal(seed, index))

    def test_equal_moduli_fall_back_to_dense(self):
        res = pr.solve(_cycle(100))
        report = pr.verify_dominance(res)
        assert report.route == "dense"
        assert report.second_radius == pytest.approx(1.0, rel=1e-8)
        dense = np.abs(np.linalg.eigvals(_deflated_dense(res))).max()
        assert report.second_radius == pytest.approx(dense, rel=1e-8)
        # the eigenvector comes from inverse iteration at the complex theta
        assert report.residual <= 1e-8

    @pytest.mark.parametrize("n", [64, 200])
    @pytest.mark.parametrize("family", ["constant", "separable"])
    def test_rank_one_kernels_leave_rounding(self, family, n):
        res = pr.solve(_rank_one(n, family))
        report = pr.verify_dominance(res)
        assert report.second_radius <= 1e-8
        dense = np.abs(np.linalg.eigvals(_deflated_dense(res))).max()
        assert report.second_radius == pytest.approx(dense, abs=1e-12)
        # theta is rounding noise here; the residual is on the scale of T
        assert report.residual <= 1e-8

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-100, 1e300])
    def test_scaled_kernel_keeps_the_gap_ratio(self, c, n):
        # both routes run on T scaled into range by a power of two: unscaled,
        # 1e-300 K fell below ARPACK's absolute convergence test and the
        # norms of the residual under- or overflowed at the extremes
        kernel = _gaussian(n, 0.35)
        reference = pr.verify_dominance(pr.solve(kernel))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pr.verify_dominance(pr.solve(pr.Kernel(c * kernel.entries, kernel.space)))
        assert report.route == reference.route
        assert report.gap_ratio == pytest.approx(reference.gap_ratio, abs=1e-10)
        assert np.isfinite(report.residual) and report.residual <= 1e-14

    def test_arnoldi_forms_no_deflated_copy(self, monkeypatch):
        res = pr.solve(_gaussian(600, 0.35))
        deflations = count_calls(monkeypatch, perron.kernel_op, "_deflate")
        matvecs = count_calls(monkeypatch, perron.kernel_op, "_deflated_matvec")
        report = pr.verify_dominance(res)
        assert report.route == "arnoldi"
        assert len(deflations) == 0
        assert 0 < len(matvecs) <= 60


class TestSolvePipeline:
    def test_unique_sign_change_on_dense_scan(self, symmetric_2x2):
        res = pr.solve(symmetric_2x2)
        ev = res.evaluator
        grid = np.geomspace(remainder_radius(ev) * 1.0001, 10 * ev.operator_norm, 1000)
        signs = np.sign([ev.value(x) for x in grid])
        assert int(np.sum(np.diff(signs) != 0)) == 1

    def test_not_minorizable_raises(self, two_state_chain):
        with pytest.raises(pr.errors.NotMinorizableError):
            pr.solve(two_state_chain)

    def test_user_density_with_a_zero_raises(self, symmetric_2x2):
        # the shape holds with a positive alpha, but its functional does
        # not see the first node, so no shift pairs strictly positively
        cert = pr.extract_minorization(symmetric_2x2, "user", [1.0, 1.0], [0.0, 1.0])
        assert cert.alpha == 1.0 and not cert.strict
        with pytest.raises(pr.errors.NotMinorizableError, match="strictly positive functional"):
            pr.solve(symmetric_2x2, certificate=cert)

    def test_power_two_certificate_refused_before_any_factorization(
        self, lu_calls, symmetric_2x2
    ):
        cert, _ = pr.power_doeblin_search(symmetric_2x2, 1)
        with pytest.raises(ValueError, match="rank_one_split requires a power-1 certificate"):
            pr.solve(symmetric_2x2, certificate=dataclasses.replace(cert, power=2))
        assert lu_calls == []

    def test_diagnostics_populated(self):
        rng = np.random.default_rng(56)
        sp = pr.make_interval_space(0, 2, 35, "midpoint")
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        d = res.diagnostics
        assert d.eig_residual <= 1e-8
        assert d.proj_idempotency <= 1e-8
        assert abs(d.bs_at_lambda0) <= 1e-10
        assert res.lambda0 - remainder_radius(res.evaluator) > 1e-6 * res.lambda0
        assert d.left_residual <= 1e-8
        assert d.min_eigenfunction_value > 0

    def test_strict_positivity_of_eigenfunction(self):
        rng = np.random.default_rng(57)
        sp = pr.make_counting_space(40)
        k = random_positive_kernel(sp, rng)
        res = pr.solve(k)
        assert np.all(res.eigenfunction.values > 0)
        assert pr.pair(res.evaluator.functional, res.eigenfunction) == pytest.approx(1.0, abs=1e-10)

    def test_single_node_spaces(self):
        res = pr.solve(pr.Kernel(np.array([[0.7]]), pr.make_counting_space(1)))
        assert res.lambda0 == pytest.approx(0.7, abs=1e-12)
        # one midpoint cell on (0, 2): T f = 0.5 * 2 * f
        sp = pr.make_interval_space(0, 2, 1, "midpoint")
        res_i = pr.solve(pr.constant_kernel(sp, 0.5))
        assert res_i.lambda0 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rule", ["gauss_legendre", "trapezoid"])
    def test_nonuniform_quadrature_rules(self, rule):
        sp = pr.make_interval_space(0, 1, 40, rule)
        k = pr.gaussian_kernel(sp, 0.4)
        res = pr.solve(k)
        oracle = pr.spectral_radius_oracle(k, tol=1e-12)
        assert abs(res.lambda0 - oracle.rho) <= 1e-10
        assert res.diagnostics.eig_residual <= 1e-10
