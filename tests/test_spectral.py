import dataclasses
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh
from scipy.optimize import brentq

import perron as pr
import perron.kernel_op
import perron.doeblin
import perron.resolvent
import perron.spectral
from perron.errors import IllConditionedError, NoSignChangeError, SlowConvergenceError
from perron.kernel_op import DENSE_RADIUS_MAX_DIM
from conftest import (
    config_kernels,
    count_calls,
    count_products,
    count_solves,
    plain_eigenfunction_series,
    random_positive_kernel,
    remainder_radius,
    series_term_norms,
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
            alpha=1e-12,
            profile=counting2.ones(),
            functional=pr.WeightFunctional([0.5, 0.5], counting2),
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


def bracket_spy(monkeypatch, kernel):
    """Lists of (start, bracket) per call of ``collatz_wielandt`` from the
    root search, and of the ``Kernel.matvec`` calls on ``kernel`` that each
    made."""
    brackets, steps, inside = [], [], []
    real_cw, real_matvec = perron.spectral.collatz_wielandt, pr.Kernel.matvec

    def cw(k, start=None):
        steps.append(0)
        inside.append(True)
        brackets.append((start, real_cw(k, start)))
        inside.pop()
        return brackets[-1][1]

    def matvec(self, x):
        if self is kernel and inside:
            steps[-1] += 1
        return real_matvec(self, x)

    monkeypatch.setattr(perron.spectral, "collatz_wielandt", cw)
    monkeypatch.setattr(pr.Kernel, "matvec", matvec)
    return brackets, steps


class TestRootSearch:
    def test_solve_makes_one_solve_per_right_hand_side(self, monkeypatch):
        # R_lam 1, which certifies the shift, R_lam u, R_lam^2 u and the
        # transposed solve against phi, each once from the float64 factors
        solves = count_solves(monkeypatch)
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        pr.solve(pr.gaussian_kernel(sp, 0.35))
        assert len(solves) <= 4

    def test_solve_holds_at_most_five_square_arrays(self):
        # the LU of the root, written from the clamped gap, plus transients;
        # the dense projection and its defect held seven, and the remainder
        # with the matrices of T and R five
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

    def test_solve_holds_no_square_array(self):
        # the shifts solved through the kernel's compression and refined
        # against the implicit remainder: no LU, no weighted copy of K or R,
        # no n x n temporary of the certificate or the split; R itself, n^2
        # doubles, was held until it was made implicit
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

    def test_large_solve_builds_no_remainder(self, monkeypatch):
        # a cold solve, its compression included: no pass over the gap, so
        # no remainder, and a peak of a few n x 32 blocks
        n = 2000
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        passes = count_calls(monkeypatch, perron.doeblin, "_row_blocks")
        tracemalloc.start()
        try:
            result = pr.solve(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert passes == []
        assert "remainder" not in vars(result.evaluator.split)
        assert peak < 0.25 * 8 * n * n

    @pytest.mark.parametrize("n", [600, 2000])
    def test_nearly_constant_kernels_solve_to_rounding(self, n):
        # K = 1 + eps G: the remainder, of order eps, is applied as T less
        # its rank-one part, which are of order 1 and cancel to it
        space = pr.make_interval_space(0, 1, n, "midpoint")
        g = pr.gaussian_kernel(space, 0.35).entries
        root_w = np.sqrt(space.weights)
        for e in range(2, 12):
            k = pr.Kernel(1.0 + 10.0**-e * g, space)
            exact = np.linalg.eigvalsh(root_w[:, None] * k.entries * root_w)[-1]
            assert abs(pr.solve(k).lambda0 - exact) <= 2e-15 * exact, e

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

    def test_bracket_of_a_function_needs_a_start_and_lifts_its_upper_end(self):
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, 40, "midpoint"), 0.35)
        with pytest.raises(ValueError, match="start"):
            perron.spectral.collatz_wielandt(k.matvec)
        start = np.ones(k.size)
        lo, hi = perron.spectral.collatz_wielandt(k, start=start)
        assert perron.spectral.collatz_wielandt(k.matvec, start) == (lo, hi)
        lifted = perron.spectral.collatz_wielandt(k.matvec, start, lift=lambda x: 1e-3 * x)
        assert lifted[0] == lo and hi < lifted[1] <= hi + 1e-3

    def test_remainder_bracket_from_the_eigenfunction_lies_below_lambda0(self):
        for k in (pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.1),
                  random_positive_kernel(pr.make_counting_space(30), np.random.default_rng(5))):
            res = pr.solve(k)
            remainder = res.evaluator.split.remainder
            lo, hi = perron.spectral.collatz_wielandt(remainder, start=res.eigenfunction.values)
            rho = remainder_radius(res.evaluator)
            assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)
            assert hi < res.lambda0

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.35, 1.0])
    def test_gaussian_lambda0_within_rounding_of_eigvalsh(self, sigma, n, rule):
        # the worst measured is 1.96e-15 with BLAS on one thread (sigma =
        # 0.1, n = 600, midpoint) and 2.30e-15 on two (trapezoid); lambda0
        # is the lower end of a Collatz-Wielandt bracket here, whose
        # products' rounding it carries
        space = pr.make_interval_space(0, 1, n, rule)
        k = pr.gaussian_kernel(space, sigma)
        root_w = np.sqrt(space.weights)
        exact = eigvalsh(root_w[:, None] * k.entries * root_w, subset_by_index=[n - 1, n - 1])[0]
        assert abs(pr.solve(k).lambda0 - exact) <= 2.5e-15 * exact

    @pytest.mark.parametrize("n", [600, 2000])
    def test_bracket_from_the_compression_takes_four_steps(self, n, monkeypatch):
        # the bracket closes to rounding level in two or three steps, and
        # a bracket from a start takes one step past the close
        space = pr.make_interval_space(0, 1, n, "midpoint")
        k = pr.gaussian_kernel(space, 0.35)
        root_w = np.sqrt(space.weights)
        lambda0 = eigvalsh(root_w[:, None] * k.entries * root_w)[-1]
        brackets, steps = bracket_spy(monkeypatch, k)
        res = pr.solve(k)
        (start, (lo, hi)), = brackets
        assert start is not None and steps[0] <= 4
        assert lo <= lambda0 <= hi
        assert abs(res.lambda0 - lambda0) <= 1e-14 * lambda0

    def test_ritz_vector_with_a_nonpositive_entry_starts_from_ones(self, monkeypatch):
        n = 600
        space = pr.make_interval_space(0, 1, n, "midpoint")
        k = pr.gaussian_kernel(space, 0.35)
        root_w = np.sqrt(space.weights)
        lambda0 = eigvalsh(root_w[:, None] * k.entries * root_w)[-1]
        c = k.compression
        vectors = c.vectors.copy()
        vectors[n // 2, -1] = 0.0
        patched = perron.kernel_op.Compression(c.values, vectors, c.probe_bound)
        monkeypatch.setitem(k.__dict__, "compression", patched)
        brackets, steps = bracket_spy(monkeypatch, k)
        res = pr.solve(k)
        (start, _), = brackets
        assert start is None and steps[0] > 3
        assert abs(res.lambda0 - lambda0) <= 1e-14 * lambda0

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
        f = pr.GridFunction(np.sin(unit_interval_64.nodes * 7), unit_interval_64)
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
        norms = series_term_norms(ev, lam, 4)
        assert norms[0] > 0
        np.testing.assert_allclose(norms[1:], 0.0, atol=1e-300)

    def test_symmetric_2x2_ratio_one_third(self, symmetric_2x2):
        ev = evaluator_for(symmetric_2x2)
        lam = pr.find_dominant(ev)
        w_series = pr.eigenfunction_series(ev, lam, tol=1e-12)
        w_residue = pr.eigenfunction_from_residue(ev, lam)
        np.testing.assert_allclose(w_series.values, w_residue.values, atol=1e-10)
        norms = series_term_norms(ev, lam, 12)
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


def _series_kernels():
    """Seeded Gaussians and log-normal matrices exp(s Z): the series
    converges on the Gaussians and at s = 1; at s = 4 the certificate is so
    weak that it raises, at a term that depends on the matrix."""
    for sigma in (0.25, 0.35, 0.5, 1.0):
        yield f"gaussian-{sigma}", pr.gaussian_kernel(pr.make_interval_space(0, 1, 100, "midpoint"), sigma)
    for seed in range(4):
        for spread in (1.0, 4.0):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 41))
            entries = np.exp(spread * rng.standard_normal((n, n)))
            yield f"lognormal-{seed}-{spread}", pr.Kernel(entries, pr.make_counting_space(n))


SERIES_KERNELS = dict(_series_kernels())
CONVERGENT_SERIES = [name for name in SERIES_KERNELS if not name.endswith("-4.0")]


def _products_of(fn, monkeypatch):
    """(fn(), or the SlowConvergenceError it raises; the number of products
    with a kernel it made)."""
    calls = []
    real = pr.Kernel.matvec

    def counted(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(pr.Kernel, "matvec", counted)
    try:
        out = fn()
    except SlowConvergenceError as exc:
        out = exc
    finally:
        monkeypatch.setattr(pr.Kernel, "matvec", real)
    return out, len(calls)


def _dense_eigenfunction(ev, lam):
    """(lam I - R)^-1 profile by a dense solve, with the pairing
    normalization of the series."""
    x = np.linalg.solve(lam * np.eye(ev.space.size) - ev.split.remainder.operator_matrix(),
                        ev.profile.values)
    return x / pr.pair(ev.functional, pr.GridFunction(x, ev.space))


class TestSeriesTail:
    @pytest.mark.parametrize("name", SERIES_KERNELS)
    def test_closed_series_stops_no_later_than_the_plain_sum(self, name, monkeypatch):
        res = pr.solve(SERIES_KERNELS[name])
        ev, lam = res.evaluator, res.lambda0
        plain, plain_products = _products_of(lambda: plain_eigenfunction_series(ev, lam), monkeypatch)
        closed, products = _products_of(lambda: pr.eigenfunction_series(ev, lam), monkeypatch)
        assert products <= plain_products
        if isinstance(closed, SlowConvergenceError):
            # a raise comes where the plain sum raises, at the same term
            assert isinstance(plain, SlowConvergenceError) and products == plain_products

    @pytest.mark.parametrize("name", CONVERGENT_SERIES)
    def test_within_tol_of_a_dense_solve(self, name):
        res = pr.solve(SERIES_KERNELS[name])
        ev, lam = res.evaluator, res.lambda0
        w = pr.eigenfunction_series(ev, lam, tol=1e-12).values
        x = _dense_eigenfunction(ev, lam)
        assert np.abs(w - x).max() <= 1e-12 * np.abs(x).max()

    def test_cli_config_shape_takes_at_most_20_products(self, monkeypatch):
        # sigma = 0.35 at n = 600: the plain sum takes 108 products
        res = pr.solve(pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.35))
        w, products = _products_of(lambda: pr.eigenfunction_series(res.evaluator, res.lambda0),
                                   monkeypatch)
        assert products <= 20
        x = _dense_eigenfunction(res.evaluator, res.lambda0)
        assert np.abs(w.values - x).max() <= 1e-12 * np.abs(x).max()

    def test_rank_one_remainder_closes_after_one_term(self, monkeypatch):
        # K = f g^T: the row_min split leaves R = f (g - alpha min(g) d)^T, so
        # every term is a multiple of f and the ratio q = 0.552 is exact from
        # the first product; the plain sum needs 46 products
        f, g = np.array([1.0, 2.0, 3.0, 1.5]), np.array([1.0, 3.0, 2.0, 2.5])
        res = pr.solve(pr.Kernel(np.outer(f, g), pr.make_counting_space(4)))
        ev, lam = res.evaluator, res.lambda0
        assert 0.4 < remainder_radius(ev) / lam < 0.6
        w, products = _products_of(lambda: pr.eigenfunction_series(ev, lam), monkeypatch)
        assert products == 1
        x = _dense_eigenfunction(ev, lam)
        np.testing.assert_allclose(w.values, x, rtol=4 * np.finfo(float).eps, atol=0)


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

    def test_one_rule_for_verify_and_the_power_route(self):
        # eigenvalues 1 and -(1 - g): a relative gap g between the 1e-9 of
        # verify_dominance and the 1e-8 on T^N the power route once used
        for g in (3e-9, 5e-9):
            a = 0.5 * g
            k = pr.Kernel(np.array([[a, 1.0 - a], [1.0 - a, a]]), pr.make_counting_space(2))
            report = pr.verify_dominance(pr.solve(k))
            peripheral = pr.power_doeblin_analyze(k)
            assert 1e-9 < 1.0 - report.gap_ratio < 1e-8
            assert peripheral.power == 1
            assert peripheral.second_modulus == report.second_radius
            assert report.strictly_dominant and peripheral.simple

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


def _with_projection(res, a, b):
    """``res`` with its projection replaced by a x b, b the acting vector
    of the functional: all that the deflation reads of it.  A wrong
    projection may have a signed left factor, which a WeightFunctional
    does not hold."""
    projection = types.SimpleNamespace(
        range_vector=types.SimpleNamespace(values=a),
        functional=types.SimpleNamespace(acting_vector=lambda: b),
    )
    return dataclasses.replace(res, projection=projection)


class TestSecondRadius:
    """The second radius against the largest modulus of the dense deflated
    spectrum, on every route."""

    @staticmethod
    def check_against_dense(kernel, route):
        res = pr.solve(kernel)
        report = pr.verify_dominance(res)
        dense = np.abs(np.linalg.eigvals(_deflated_dense(res))).max()
        assert report.second_radius == pytest.approx(dense, rel=1e-8)
        assert report.route == route
        assert report.residual <= 1e-8

    # sigma = 0.1 at n = 200 has no compression
    @pytest.mark.parametrize(
        "n, sigma, route",
        [(200, 0.1, "arnoldi"), (600, 0.1, "compression"),
         (200, 0.35, "compression"), (600, 0.35, "compression")],
    )
    def test_gaussian_matches_dense_eigenvalues(self, n, sigma, route):
        self.check_against_dense(_gaussian(n, sigma), route)

    # seeds 11 and 20 add a matrix each where ARPACK asked for fewer than
    # 3 eigenvalues converges to one about 1e-3 off the largest modulus
    @pytest.mark.parametrize("seed, index", [(3, i) for i in range(40)] + [(11, 28), (20, 10)])
    def test_lognormal_matches_dense_eigenvalues(self, seed, index):
        # nonsymmetric: no compression
        kernel = _lognormal(seed, index)
        self.check_against_dense(kernel, "arnoldi" if kernel.size > DENSE_RADIUS_MAX_DIM else "dense")

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "gauss_legendre"])
    @pytest.mark.parametrize("n", [600, 1000, 2000])
    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.35, 1.0])
    def test_compression_matches_arnoldi(self, sigma, n, rule, monkeypatch):
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, rule), sigma)
        res = pr.solve(kernel)
        report = pr.verify_dominance(res)
        assert report.route == "compression"
        assert report.residual <= perron.kernel_op.RADIUS_TOL
        monkeypatch.setattr(perron.kernel_op, "_compressed_pair", lambda *args: None)
        reference = pr.verify_dominance(res)
        assert reference.route == "arnoldi"
        assert abs(report.second_radius - reference.second_radius) <= 1e-12 * res.lambda0
        assert report.strictly_dominant and reference.strictly_dominant

    def test_wrong_second_ritz_value_falls_back_to_arnoldi(self, monkeypatch):
        kernel = _gaussian(600, 0.35)
        res = pr.solve(kernel)
        compression = kernel.compression
        values = compression.values.copy()
        values[-2] *= 1.0 + 1e-8
        wrong = perron.kernel_op.Compression(values, compression.vectors, compression.probe_bound)
        monkeypatch.setitem(vars(kernel), "compression", wrong)
        report = pr.verify_dominance(res)
        assert report.route == "arnoldi"
        assert report.second_radius == pytest.approx(compression.values[-2], rel=1e-12)
        assert report.residual <= perron.kernel_op.RADIUS_TOL

    def test_projection_from_a_wrong_vector_is_not_dominant(self):
        # P deflates the second eigenvector instead of the Perron vector:
        # lambda0 stays in the deflated spectrum
        kernel = _gaussian(600, 0.35)
        res = pr.solve(kernel)
        root_w = np.sqrt(kernel.space.weights)
        v = kernel.compression.vectors[:, -2]
        report = pr.verify_dominance(_with_projection(res, v / root_w, root_w * v))
        assert report.route != "compression"
        assert not report.strictly_dominant
        assert report.second_radius == pytest.approx(res.lambda0, rel=1e-8)

    def test_projection_off_the_perron_pair_leaves_the_ritz_values(self):
        # P mixes the Perron vector with the third eigenvector: the second
        # eigenpair still checks against it, but the deflated radius lies
        # between the first and third eigenvalues; only the distance of P
        # from the compression's Perron projection shows it
        kernel = _gaussian(600, 0.35)
        res = pr.solve(kernel)
        root_w = np.sqrt(kernel.space.weights)
        v = kernel.compression.vectors[:, -1] + kernel.compression.vectors[:, -3]
        wrong = _with_projection(res, v / root_w, 0.5 * root_w * v)
        report = pr.verify_dominance(wrong)
        assert report.route == "arnoldi"
        dense = np.abs(np.linalg.eigvals(_deflated_dense(wrong))).max()
        assert report.second_radius == pytest.approx(dense, rel=1e-8)
        assert report.second_radius > 1.1 * kernel.compression.values[-2]

    def test_radius_near_the_threshold_falls_back_to_arnoldi(self):
        # Weyl's slack of the compression could carry a radius at the
        # threshold across it
        kernel = _gaussian(600, 0.35)
        res = pr.solve(kernel)
        a = res.projection.range_vector.values
        b = res.projection.functional.acting_vector()
        radius = pr.verify_dominance(res).second_radius
        second = perron.kernel_op.growth_radius(kernel, a, b, radius)
        assert second.route == "arnoldi"
        assert second.radius == pytest.approx(radius, rel=1e-12)

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
    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-100, 1e-6, 1e6, 1e100, 1e300])
    def test_scaled_kernel_keeps_the_gap_ratio(self, c, n):
        # every route runs on T scaled into range by a power of two:
        # unscaled, 1e-300 K fell below ARPACK's absolute convergence test
        # and the norms of the residual under- or overflowed at the
        # extremes; n = 200 takes the compression, n = 40 the dense route
        kernel = _gaussian(n, 0.35)
        reference = pr.verify_dominance(pr.solve(kernel))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pr.verify_dominance(pr.solve(pr.Kernel(c * kernel.entries, kernel.space)))
        assert report.route == reference.route == ("compression" if n == 200 else "dense")
        assert report.gap_ratio == pytest.approx(reference.gap_ratio, abs=1e-10)
        assert np.isfinite(report.residual) and report.residual <= 1e-14

    def test_arnoldi_forms_no_deflated_copy(self, monkeypatch):
        # nonsymmetric, so no compression: the Arnoldi route
        sp = pr.make_interval_space(0, 1, 600, "midpoint")
        kernel = pr.Kernel(_gaussian(600, 0.35).entries * (1.0 + sp.nodes), sp)
        res = pr.solve(kernel)
        deflations = count_calls(monkeypatch, perron.kernel_op, "_deflate")
        matvecs = count_calls(monkeypatch, perron.kernel_op, "_deflated_matvec")
        report = pr.verify_dominance(res)
        assert report.route == "arnoldi"
        assert len(deflations) == 0
        assert 0 < len(matvecs) <= 60


def _exp_abs_lambda0(c):
    """The Perron root of e^-c|x-y| on [0, 1]: 2c / (c^2 + w^2), w the
    smallest positive root of 2 c w cos w = (w^2 - c^2) sin w, which lies
    in (0, pi): the left side less the right is (2c + c^2) w near 0 and
    -2 c pi at pi."""
    w = brentq(lambda w: 2 * c * w * math.cos(w) - (w * w - c * c) * math.sin(w),
               1e-6, math.pi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return 2 * c / (c * c + w * w)


class TestClosedForm:
    """The continuum Perron root of a kernel with a closed form, from the
    midpoint rule and one Richardson step."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_midpoint_with_richardson_meets_the_closed_form(self, c, monkeypatch):
        lams = {}
        for n in (200, 400):
            space = pr.make_interval_space(0, 1, n, "midpoint")
            x = space.nodes
            kernel = pr.Kernel(np.exp(-c * np.abs(x[:, None] - x[None, :])), space)
            lams[n] = pr.solve(kernel).lambda0
        # the midpoint rule's error is O(h^2)
        richardson = (4.0 * lams[400] - lams[200]) / 3.0
        assert abs(richardson - _exp_abs_lambda0(c)) <= 1e-11
        # full rank: the range finder grows to its cap, takes the power
        # step and gives up, after 26 + 16 + 16 + 32 = 90 product columns
        products = count_products(monkeypatch)
        assert kernel.compression is None
        assert products == [26, 16, 16, 32]


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

    @pytest.mark.parametrize("n", [200, 600, 2000])
    @pytest.mark.parametrize("sigma", [0.1, 0.35, 1.0])
    def test_lambda0_bracket_encloses_the_dense_eigenvalue(self, sigma, n):
        # the Collatz-Wielandt ratios of the solve's own T w
        sp = pr.make_interval_space(0, 1, n, "midpoint")
        k = pr.gaussian_kernel(sp, sigma)
        lo, hi = pr.solve(k).diagnostics.lambda0_bracket
        root_w = np.sqrt(sp.weights)
        dense = eigvalsh(root_w[:, None] * k.entries * root_w, subset_by_index=[n - 1, n - 1])[0]
        assert lo <= dense <= hi
        assert hi - lo <= 1e-13 * dense

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
