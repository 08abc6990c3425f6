import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import perron as pr
import perron.kernel_op
from perron.errors import DimensionMismatchError
from perron.kernel_op import COMPRESSION_BLOCK, COMPRESSION_PROBES, compress_symmetric
from perron.measure import INTERVAL_RULES
from conftest import count_calls, count_products, random_positive_kernel


class TestApply:
    def test_constant_kernel_fixes_ones(self, constant_unit, unit_interval_64):
        out = constant_unit.matvec(unit_interval_64.ones().values)
        np.testing.assert_allclose(out, 1.0, atol=1e-14)

    def test_row_stochastic_chain(self, two_state_chain, counting2):
        out = two_state_chain.matvec(counting2.ones().values)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_separable_matches_direct_summation(self):
        sp = pr.make_interval_space(0, 1, 40, "midpoint")
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 1, 40)
        u = rng.uniform(0.1, 1, 40)
        f = rng.normal(size=40)
        k = pr.separable_kernel(sp, v, u)
        out = k.matvec(f)
        # direct summation oracle
        expected = np.array(
            [sum(v[i] * u[j] * f[j] * sp.weights[j] for j in range(40)) for i in range(40)]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_dimension_mismatch(self, symmetric_2x2):
        other = pr.make_counting_space(3)
        with pytest.raises(DimensionMismatchError):
            pr.compose(symmetric_2x2, pr.constant_kernel(other))

    def test_rejects_negative_entries(self, counting2):
        with pytest.raises(ValueError):
            pr.Kernel(np.array([[1.0, -0.5], [0.0, 1.0]]), counting2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, counting2, bad):
        with pytest.raises(ValueError, match=rf"finite: {bad} at \(0, 1\)"):
            pr.Kernel(np.array([[1.0, bad], [0.5, 1.0]]), counting2)

    def test_non_finite_message_counts_the_rest(self):
        sp = pr.make_counting_space(3)
        with pytest.raises(ValueError, match=r"at \(0, 2\) and 6 more$"):
            pr.Kernel(np.full((3, 3), np.nan), sp)


class TestIterate:
    def test_base_case(self, symmetric_2x2):
        assert pr.iterate_kernel(symmetric_2x2, 1) is symmetric_2x2

    def test_chain_square_by_hand(self, two_state_chain):
        squared = pr.iterate_kernel(two_state_chain, 2)
        np.testing.assert_allclose(squared.entries, [[0.5, 0.5], [0.25, 0.75]])

    def test_constant_kernel_idempotent(self, constant_unit):
        cubed = pr.iterate_kernel(constant_unit, 3)
        np.testing.assert_allclose(cubed.entries, 1.0, atol=1e-13)

    def test_rejects_zeroth_power(self, symmetric_2x2):
        with pytest.raises(ValueError):
            pr.iterate_kernel(symmetric_2x2, 0)

    def test_matches_repeated_application(self):
        sp = pr.make_interval_space(0, 2, 30, "midpoint")
        k = random_positive_kernel(sp, np.random.default_rng(11))
        f = np.random.default_rng(12).normal(size=30)
        k3 = pr.iterate_kernel(k, 3)
        direct = k.matvec(k.matvec(k.matvec(f)))
        np.testing.assert_allclose(k3.matvec(f), direct, rtol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(1, 3), n=st.integers(1, 3))
    def test_semigroup_law(self, seed, m, n):
        sp = pr.make_counting_space(6)
        k = random_positive_kernel(sp, np.random.default_rng(seed))
        lhs = pr.iterate_kernel(k, m + n)
        rhs = pr.compose(pr.iterate_kernel(k, m), pr.iterate_kernel(k, n))
        np.testing.assert_allclose(lhs.entries, rhs.entries, rtol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_positivity_preservation(self, seed):
        rng = np.random.default_rng(seed)
        sp = pr.make_counting_space(8)
        k = pr.Kernel(rng.uniform(0, 1, (8, 8)), sp)
        f = rng.uniform(0, 1, 8)
        assert np.all(k.matvec(f) >= 0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        sp = pr.make_counting_space(7)
        k1 = pr.Kernel(rng.uniform(0, 1, (7, 7)), sp)
        k2 = pr.Kernel(k1.entries + rng.uniform(0, 1, (7, 7)), sp)
        f = rng.uniform(0, 1, 7)
        assert np.all(k1.matvec(f) <= k2.matvec(f) + 1e-14)


class TestSchur:
    def test_flat_bound_on_constant_kernel(self, constant_unit, unit_interval_64):
        ones = unit_interval_64.ones()
        report = pr.verify_schur(constant_unit, pr.SchurBound(ones, ones, 1.0))
        assert report.holds
        assert report.max_row_ratio == pytest.approx(1.0, abs=1e-13)

    def test_halved_constant_fails(self, constant_unit, unit_interval_64):
        ones = unit_interval_64.ones()
        report = pr.verify_schur(constant_unit, pr.SchurBound(ones, ones, 0.5))
        assert not report.holds
        assert report.max_row_ratio == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_with_exact_row_sum(self):
        sp = pr.make_interval_space(0, 1, 80, "midpoint")
        k = pr.gaussian_kernel(sp, 0.3)
        c = float((k.entries * sp.weights).sum(axis=1).max())
        ones = sp.ones()
        report = pr.verify_schur(k, pr.SchurBound(ones, ones, c))
        assert report.holds
        assert report.max_row_ratio == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_weights(self, symmetric_2x2, counting2):
        bad = pr.GridFunction(np.array([1.0, 0.0]), counting2)
        with pytest.raises(ValueError):
            pr.verify_schur(symmetric_2x2, pr.SchurBound(bad, counting2.ones(), 1.0))


class TestSpectralRadiusOracle:
    def test_rank_one_matrix(self, counting2):
        k = pr.Kernel(np.ones((2, 2)), counting2)
        res = pr.spectral_radius_oracle(k, tol=1e-12)
        assert res.rho == pytest.approx(2.0, abs=1e-11)

    def test_chain_converges_despite_negative_eigenvalue(self, two_state_chain):
        # spectrum {1, -1/2} by hand; |-1/2| < 1 so iteration settles
        res = pr.spectral_radius_oracle(two_state_chain, tol=1e-12)
        assert res.rho == pytest.approx(1.0, abs=1e-10)
        assert res.vec.is_nonnegative()
        assert res.vec.sup_norm() == pytest.approx(1.0)

    def test_constant_kernel(self, constant_unit):
        res = pr.spectral_radius_oracle(constant_unit, tol=1e-12)
        assert res.rho == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        sp = pr.make_counting_space(12)
        k = random_positive_kernel(sp, rng)
        res = pr.spectral_radius_oracle(k, tol=1e-13)
        dense = np.max(np.abs(np.linalg.eigvals(k.operator_matrix())))
        assert res.rho == pytest.approx(dense, rel=1e-10)

    def test_zero_kernel(self, counting2):
        k = pr.Kernel(np.zeros((2, 2)), counting2)
        assert pr.spectral_radius_oracle(k).rho == 0.0

    def test_nilpotent_remainder(self, counting2):
        k = pr.Kernel(np.array([[0.0, 1.0], [0.0, 0.0]]), counting2)
        assert pr.spectral_radius_oracle(k).rho == 0.0

    @pytest.mark.parametrize("sigma", [0.03, 0.05, 0.1])
    def test_narrow_gaussian_runs_until_the_bracket_closes(self, sigma):
        # max(T x) repeats on the flat interior of a narrow Gaussian while
        # the Collatz-Wielandt bracket still narrows: a stop on the repeat
        # alone is 4e-3 off at sigma = 0.03
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), sigma)
        res = pr.spectral_radius_oracle(k, tol=1e-12)
        reference = np.linalg.eigvalsh(k.operator_matrix()).max()
        assert res.rho == pytest.approx(reference, rel=1e-12)
        assert res.iterations > 50

    def test_reducible_diagonal_stops_on_a_stalled_bracket(self, counting2):
        # the ratios of diag(1, 1/2) stay [1/2, 1]: the bracket never
        # narrows, and the repeated estimate ends the iteration
        res = pr.spectral_radius_oracle(pr.Kernel(np.diag([1.0, 0.5]), counting2))
        assert (res.rho, res.iterations) == (1.0, 2)


class TestMatvec:
    """``Kernel.matvec`` is the one weighted product K (w x), for a vector
    and for the columns of a block."""

    @pytest.fixture
    def kernel(self):
        rng = np.random.default_rng(11)
        return random_positive_kernel(pr.make_interval_space(0, 1, 50, "trapezoid"), rng)

    def test_block_is_the_weighted_product(self, kernel):
        block = np.random.default_rng(12).standard_normal((50, 4))
        out = kernel.matvec(block)
        assert np.array_equal(out, kernel.entries @ (kernel.space.weights[:, np.newaxis] * block))
        # a one-column block takes the vector path's product bit for bit;
        # wider blocks go through a matrix product, whose sums BLAS may
        # order otherwise than a mat-vec's
        assert np.array_equal(kernel.matvec(block[:, :1])[:, 0], kernel.matvec(block[:, 0]))
        scale = np.abs(kernel.entries).max() * np.abs(block).max()
        for j in range(4):
            np.testing.assert_allclose(out[:, j], kernel.matvec(block[:, j]),
                                       rtol=0, atol=1e-14 * scale)

    def test_complex_block_goes_as_two_real_blocks(self, kernel):
        rng = np.random.default_rng(13)
        block = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        out = kernel.matvec(block)
        assert np.array_equal(out.real, kernel.matvec(block.real))
        assert np.array_equal(out.imag, kernel.matvec(block.imag))

    def test_compose_is_the_block_product(self, kernel):
        other = pr.Kernel(kernel.entries.T, kernel.space)
        assert np.array_equal(
            pr.compose(kernel, other).entries,
            kernel.entries @ (kernel.space.weights[:, np.newaxis] * other.entries),
        )


class TestProduct:
    """``Kernel.product`` is K x, one read of K: a narrow block of a large
    kernel goes in row panels, which change only the rounding."""

    @pytest.mark.parametrize("n", [200, 700])
    @pytest.mark.parametrize("columns", [1, 2, 3, 4, 5])
    def test_block_is_the_plain_product(self, n, columns):
        rng = np.random.default_rng(14)
        kernel = random_positive_kernel(pr.make_counting_space(n), rng)
        block = rng.standard_normal((n, columns))
        out = kernel.product(block)
        assert out.shape == (n, columns)
        plain = kernel.entries @ block
        if n < perron.kernel_op.PANEL_MIN_DIM or columns > perron.kernel_op.PANEL_MAX_COLUMNS:
            assert np.array_equal(out, plain)
        scale = kernel.entries.sum(axis=1).max() * np.abs(block).max()
        np.testing.assert_allclose(out, plain, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("width", [5, 16, 26, 42, "n/8"])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_wide_block_is_as_accurate_as_the_plain_product(self, n, width, symmetric, order):
        # a block wider than the panels goes as (x^T K^T)^T, with K's rows
        # on BLAS's register-blocked side: as accurate as K x against a
        # long-double product, whatever the layout of K or of the block
        columns = n // 8 if width == "n/8" else width
        rng = np.random.default_rng(columns)
        space = pr.make_interval_space(0, 1, n, "midpoint")
        if symmetric:
            kernel = pr.gaussian_kernel(space, 0.35)
        else:
            kernel = random_positive_kernel(space, rng)
        kernel = pr.Kernel(np.array(kernel.entries, order=order), space)
        assert kernel.symmetric == symmetric
        block = rng.standard_normal((n, columns))
        out = kernel.product(block)
        assert out.shape == (n, columns)
        assert np.array_equal(kernel.product(np.asfortranarray(block)), out)
        exact = kernel.entries.astype(np.longdouble) @ block.astype(np.longdouble)

        def rms(y):
            return float(np.sqrt(np.mean((y - exact).astype(float) ** 2)))

        assert rms(out) <= 1.5 * rms(kernel.entries @ block)

    def test_vector_is_one_blas_call(self):
        rng = np.random.default_rng(15)
        kernel = random_positive_kernel(pr.make_counting_space(700), rng)
        x = rng.standard_normal(700)
        assert np.array_equal(kernel.product(x), kernel.entries @ x)


def _symmetric_entries(name, n):
    if name == "random":
        a = np.random.default_rng(16).uniform(0.05, 1.05, (n, n))
        return a + a.T
    return pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), float(name)).entries


class TestSymmetricProduct:
    """A vector on a symmetric kernel is one read of the lower triangle
    (BLAS dsymv); every other product keeps its route."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("name, n", [("0.1", 600), ("0.2", 1000), ("1.0", 600),
                                         ("1.0", 1000), ("random", 800)])
    def test_as_accurate_as_the_full_product(self, name, n):
        # the root mean square of the entries' relative errors against a
        # long-double product, over 8 positive vectors: the lower triangle
        # reads 0.5 to 1.1 times that of dgemv here, the upper one 2.2 to
        # 3.8 times; the largest entry's error is one draw of the tail and
        # swings by a factor 2 either way
        entries = _symmetric_entries(name, n)
        kernel = pr.Kernel(entries, pr.make_counting_space(n))
        assert kernel.symmetric
        x = np.random.default_rng(17).uniform(0.0, 1.0, (8, n))
        exact = x.astype(np.longdouble) @ entries.astype(np.longdouble)

        def error(products):
            relative = ((products - exact) / exact).astype(float)
            return float(np.sqrt(np.mean(relative**2)))

        dsymv = error(np.array([kernel.product(row) for row in x]))
        dgemv = error(np.array([entries @ row for row in x]))
        assert dsymv <= 1.5 * dgemv

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_makes_no_copy_of_k(self, order):
        n = 1000
        entries = np.array(_symmetric_entries("0.35", n), order=order)
        entries.flags.writeable = False
        kernel = pr.Kernel(entries, pr.make_counting_space(n))
        assert kernel.entries is entries
        x = np.ones(n)
        kernel.product(x)
        tracemalloc.start()
        try:
            kernel.product(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 8 * n * n

    def test_layout_and_first_read_leave_the_result(self):
        # K and K^T are one matrix: either order is one dsymv over the same
        # memory, and the symmetry scan runs at the first vector product
        n = 700
        entries = _symmetric_entries("random", n)
        fortran = np.asfortranarray(entries)
        fortran.flags.writeable = False
        x = np.random.default_rng(18).standard_normal(n)
        fresh = pr.Kernel(entries, pr.make_counting_space(n))
        out = fresh.product(x)
        assert "symmetric" in vars(fresh)
        read = pr.Kernel(entries, pr.make_counting_space(n))
        assert read.symmetric
        assert read.product(x).tobytes() == out.tobytes()
        assert pr.Kernel(fortran, read.space).product(x).tobytes() == out.tobytes()
        np.testing.assert_allclose(out, entries @ x, rtol=0,
                                   atol=1e-14 * np.abs(entries).sum(axis=1).max() * np.abs(x).max())

    def test_nonsymmetric_kernels_keep_the_full_product(self):
        n = 700
        rng = np.random.default_rng(19)
        kernel = random_positive_kernel(pr.make_interval_space(0, 1, n, "trapezoid"), rng)
        assert not kernel.symmetric
        x, w = rng.standard_normal(n), kernel.space.weights
        entries = kernel.entries
        assert kernel.product(x).tobytes() == (entries @ x).tobytes()
        assert kernel.rmatvec(x).tobytes() == (w * (entries.T @ x)).tobytes()
        assert kernel.weighted_inf_norm() == float((entries @ w).max())
        bound = pr.tight_schur_bound(kernel)
        assert bound.constant == max(float((entries @ w).max()), float((w @ entries).max()))


class TestBuilders:
    def test_csv_roundtrip(self, tmp_path, two_state_chain):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n0.5,0.5\n")
        k = pr.kernel_from_csv(path)
        np.testing.assert_allclose(k.entries, two_state_chain.entries)
        assert k.space.kind == "counting"

    @pytest.mark.parametrize("rule", INTERVAL_RULES)
    @pytest.mark.parametrize("n", [20, 600])
    def test_gaussian_positive_symmetric(self, rule, n):
        # entry for entry: a kernel symmetric only to rounding would lose the
        # compression and the eigh routes (600 >= COMPRESSED_SOLVE_MIN_DIM)
        assert 20 < perron.resolvent.COMPRESSED_SOLVE_MIN_DIM <= 600
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, rule), 0.4)
        assert np.all(k.entries > 0)
        assert np.array_equal(k.entries, k.entries.T)
        assert k.symmetric

    @pytest.mark.parametrize("rule", INTERVAL_RULES)
    def test_gaussian_equals_the_first_formula_bit_for_bit(self, rule):
        # Gauss-Legendre nodes at the distances x_i - x_j; the uniform rules at
        # the lattice distances k h, k = |i - j|
        a, b = -0.5, 2.0
        for n, sigma in ((7, 0.05), (40, 0.35), (101, 1.7)):
            sp = pr.make_interval_space(a, b, n, rule)
            if rule == "gauss_legendre":
                diff = sp.nodes[:, np.newaxis] - sp.nodes[np.newaxis, :]
            else:
                h = (b - a) / (n if rule == "midpoint" else n - 1)
                diff = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * h
            first = np.exp(-(diff**2) / (2.0 * sigma**2))
            assert pr.gaussian_kernel(sp, sigma).entries.tobytes() == first.tobytes()

    def test_gaussian_off_the_lattice_takes_the_direct_formula(self):
        # a hand-built space that names the midpoint rule but has one node
        # moved: only the nodes can tell that it is not the lattice
        nodes = pr.make_interval_space(0, 1, 40, "midpoint").nodes.copy()
        nodes[17] += 1e-3
        sp = pr.MeasureSpace(nodes, np.full(40, 1 / 40), kind="interval",
                             interval=(0.0, 1.0, "midpoint"))
        diff = sp.nodes[:, np.newaxis] - sp.nodes[np.newaxis, :]
        first = np.exp(-(diff**2) / (2.0 * 0.35**2))
        assert pr.gaussian_kernel(sp, 0.35).entries.tobytes() == first.tobytes()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs an extended-precision long double")
    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.5, 2.0), (1000.0, 1001.0)])
    def test_gaussian_on_the_lattice_is_accurate_entry_for_entry(self, rule, a, b):
        # against exp(t) at the exact lattice distances k (b - a) / m in long
        # double: within 4 (1 + |t|) eps wherever the entry does not
        # underflow.  x_i - x_j loses the nodes' rounding far from 0 and
        # misses this by three orders of magnitude on [1000, 1001]
        n = 101
        m = n if rule == "midpoint" else n - 1
        k = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.longdouble)
        d = k * (np.longdouble(b) - np.longdouble(a)) / m
        eps = np.finfo(float).eps
        for sigma in (0.1, 0.35, 1.7):
            t = -(d**2) / (2 * np.longdouble(sigma) ** 2)
            exact = np.exp(t)
            entries = pr.gaussian_kernel(pr.make_interval_space(a, b, n, rule), sigma).entries
            kept = exact >= np.finfo(float).tiny
            error = np.abs(entries.astype(np.longdouble) - exact) / exact
            assert np.all(error[kept] <= 4 * (1 + np.abs(t[kept])) * eps)

    @pytest.mark.parametrize("rule", ["midpoint", "gauss_legendre"])
    def test_gaussian_holds_one_square_array(self, rule):
        n = 1000
        sp = pr.make_interval_space(0, 1, n, rule)
        pr.gaussian_kernel(sp, 0.35)
        tracemalloc.start()
        try:
            pr.gaussian_kernel(sp, 0.35)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * n * n


def _spy_scan(monkeypatch):
    """List that grows by one on every tile compare of ``Kernel.symmetric``:
    a ``np.array_equal`` of two matrices (``lattice_step`` compares nodes)."""
    tiles = []
    real = np.array_equal

    def spy(a, b):
        if np.ndim(a) == 2:
            tiles.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", spy)
    return tiles


LATTICE_CASES = [("midpoint", n) for n in (1, 2, 3, 257, 600)] + [
    ("trapezoid", n) for n in (2, 3, 257, 600)]


class TestGeneratorScreen:
    """A Gaussian on the midpoint or trapezoid lattice is the symmetric
    Toeplitz kernel of its n values g_k, screened from them: the fields of
    the full screen of its n^2 entries, without a read of K."""

    @pytest.mark.parametrize("rule, n", LATTICE_CASES)
    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 0.35, 1e3])
    def test_fields_are_those_of_the_full_screen(self, rule, n, sigma):
        # sigma = 1e-3 underflows g to 0 past the first few nodes
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, rule), sigma)
        dense = pr.Kernel(k.entries.copy(), k.space)
        assert k.entries.tobytes() == dense.entries.tobytes()
        assert k.row_minima.tobytes() == dense.row_minima.tobytes()
        assert np.float64(k.max_entry).tobytes() == np.float64(dense.max_entry).tobytes()
        assert k.symmetric is dense.symmetric is True
        assert not (k.entries.flags.writeable or k.row_minima.flags.writeable)
        if sigma == 1e-3 and n > 2:
            assert k.row_minima.min() == 0.0

    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    def test_reads_no_entry(self, rule, monkeypatch):
        # neither __post_init__ (entries.min(axis=1), entries.max()) nor the
        # tile scan of Kernel.symmetric runs, not even at the first product
        n = 300
        screens = []
        real = pr.Kernel.__post_init__
        monkeypatch.setattr(pr.Kernel, "__post_init__",
                            lambda self: screens.append(1) or real(self))
        scans = _spy_scan(monkeypatch)
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, rule), 0.35)
        assert "symmetric" in vars(k)
        k.product(np.ones(n))
        assert k.symmetric and screens == [] and scans == []

    @pytest.mark.parametrize("off_lattice", [False, True])
    def test_other_spaces_keep_the_full_screen(self, off_lattice, monkeypatch):
        n = 40
        if off_lattice:
            nodes = pr.make_interval_space(0, 1, n, "midpoint").nodes.copy()
            nodes[17] += 1e-3
            sp = pr.MeasureSpace(nodes, np.full(n, 1 / n), kind="interval",
                                 interval=(0.0, 1.0, "midpoint"))
        else:
            sp = pr.make_interval_space(0, 1, n, "gauss_legendre")
        screens = []
        real = pr.Kernel.__post_init__
        monkeypatch.setattr(pr.Kernel, "__post_init__",
                            lambda self: screens.append(1) or real(self))
        scans = _spy_scan(monkeypatch)
        k = pr.gaussian_kernel(sp, 0.35)
        assert screens == [1] and "symmetric" not in vars(k)
        assert k.symmetric and scans

    @pytest.mark.parametrize("rule, n", [("midpoint", 5), ("trapezoid", 5), ("gauss_legendre", 5)])
    def test_nan_width_raises_the_full_screen_error(self, rule, n):
        # every entry is nan: the message of Kernel(entries, space), word for word
        sp = pr.make_interval_space(0, 1, n, rule)
        with pytest.raises(ValueError) as expected:
            pr.Kernel(np.full((n, n), np.nan), sp)
        with pytest.raises(ValueError) as got:
            pr.gaussian_kernel(sp, float("nan"))
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("kernel entries must be finite: nan at (0, 0)")


class TestKernelValidation:
    def test_float_noise_below_zero_is_clipped(self, counting2):
        k = pr.Kernel(np.array([[1.0, -1e-17], [0.5, 2.0]]), counting2)
        assert k.entries[0, 1] == 0.0 and k.entries.min() == 0.0

    def test_nonnegative_entries_are_kept_as_given(self, counting2):
        entries = np.array([[1.0, 0.0], [0.5, 2.0]])
        k = pr.Kernel(entries, counting2)
        assert k.entries.tobytes() == entries.tobytes()
        assert not k.entries.flags.writeable and entries.flags.writeable

    def test_writeable_entries_are_copied_and_frozen_ones_shared(self, counting2):
        entries = np.array([[1.0, 0.0], [0.5, 2.0]])
        k = pr.Kernel(entries, counting2)
        assert not np.shares_memory(k.entries, entries) and entries.flags.writeable
        entries.flags.writeable = False
        assert np.shares_memory(pr.Kernel(entries, counting2).entries, entries)
        # a read-only view of a writeable array could still change under it
        view = np.array([[1.0, 0.0], [0.5, 2.0]]).view()
        view.flags.writeable = False
        assert not np.shares_memory(pr.Kernel(view, counting2).entries, view)

    def test_frozen_entries_below_zero_are_clipped_into_a_copy(self, counting2):
        entries = np.array([[1.0, -1e-17], [0.5, 2.0]])
        entries.flags.writeable = False
        k = pr.Kernel(entries, counting2)
        assert k.entries.min() == 0.0 and entries[0, 1] == -1e-17

    def test_clearly_negative_entries_are_rejected(self, counting2):
        with pytest.raises(ValueError, match="nonnegative"):
            pr.Kernel(np.array([[1.0, -1e-3], [0.5, 2.0]]), counting2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_bad_entry_in_the_last_row_of_a_large_kernel_is_rejected(self, bad):
        # the screen and the stored max both come from numpy's reductions,
        # which carry a nan through, where Python's min(x, nan) returns x
        n = 600
        space = pr.make_counting_space(n)
        entries = random_positive_kernel(space, np.random.default_rng(3)).entries.copy()
        entries[n - 1, 417] = bad
        with pytest.raises(ValueError) as info:
            pr.Kernel(entries, space)
        assert str(info.value) == f"kernel entries must be finite: {bad} at ({n - 1}, 417)"

    def test_stored_max_is_that_of_the_entries(self, counting2):
        rng = np.random.default_rng(4)
        for n in (1, 7, 300):
            k = random_positive_kernel(pr.make_counting_space(n), rng)
            assert k.max_entry == k.entries.max()
        # negative slack is clamped to 0 before the max is kept
        for entries in ([[1.0, -1e-17], [0.5, 2.0]], [[-1e-17, -2e-17], [-1e-18, -3e-17]]):
            k = pr.Kernel(np.array(entries), counting2)
            assert k.max_entry == k.entries.max() == max(0.0, np.max(entries))

    def test_stored_row_minima_are_those_of_the_entries(self, counting2):
        rng = np.random.default_rng(5)
        for n in (1, 7, 300):
            k = random_positive_kernel(pr.make_counting_space(n), rng)
            assert k.row_minima.tobytes() == k.entries.min(axis=1).tobytes()
            assert not k.row_minima.flags.writeable
        # negative slack is clamped to 0 along with the entries
        for entries in ([[1.0, -1e-17], [0.5, 2.0]], [[-1e-17, -2e-17], [-1e-18, -3e-17]],
                        [[-0.0, 1.0], [-1e-17, -0.0]]):
            k = pr.Kernel(np.array(entries), counting2)
            assert k.row_minima.tobytes() == k.entries.min(axis=1).tobytes()
            assert np.all(k.row_minima >= 0.0)


class TestSymmetry:
    """``Kernel.symmetric`` compares tiles of the upper triangle with their
    mirror tiles; the verdict is that of K == K^T entry for entry."""

    @pytest.mark.parametrize("n", [5, 600, 700])
    def test_one_asymmetric_entry_in_the_last_tile(self, n):
        x = np.linspace(0.0, 1.0, n)
        entries = np.exp(-np.abs(x[:, None] - x[None, :]))
        space = pr.make_interval_space(0, 1, n, "midpoint")
        assert pr.Kernel(entries, space).symmetric
        entries[n - 2, n - 1] = np.nextafter(entries[n - 2, n - 1], 2.0)
        assert not pr.Kernel(entries, space).symmetric
        assert not np.array_equal(entries, entries.T)

    def test_decided_once_per_kernel(self, monkeypatch):
        # a lattice Gaussian is built symmetric: its entries go through the
        # full screen and the scan
        gaussian = pr.gaussian_kernel(pr.make_interval_space(0, 1, 300, "midpoint"), 0.35)
        kernel = pr.Kernel(gaussian.entries.copy(), gaussian.space)
        assert kernel.symmetric
        monkeypatch.setattr(np, "array_equal", lambda *args: False)
        assert kernel.symmetric


def weighted_s(kernel):
    """S = W^1/2 K W^1/2 as a dense array."""
    root_w = np.sqrt(kernel.space.weights)
    return root_w[:, np.newaxis] * kernel.entries * root_w[np.newaxis, :]


def assert_gate_and_top_hold(kernel, c):
    """The compression passes the probe gate, and its top value lies within
    the gate's n eps |mu_1| of a dense eigvalsh of S."""
    n = kernel.size
    backward = n * np.finfo(float).eps * float(np.abs(c.values).max())
    assert c.probe_bound <= backward
    top = scipy.linalg.eigvalsh(weighted_s(kernel), subset_by_index=[n - 1, n - 1])[0]
    assert abs(c.values[-1] - top) <= backward


class TestCompression:
    """``compress_symmetric`` grows its basis by blocks of COMPRESSION_BLOCK
    columns until the probe gate passes, takes its power step only where
    the gate misses at COMPRESSION_MAX_RANK, and a compression it returns
    passes the gate."""

    @pytest.mark.parametrize(
        "n, sigma, ranks, widths",
        [
            (600, 0.35, [16], [26]),
            (2000, 0.35, [16], [26]),
            (600, 0.2, [16, 32], [26, 16]),
            (600, 0.1, [16, 32, 32], [26, 16, 32]),
        ],
    )
    def test_grows_by_blocks_until_the_gate_passes(self, n, sigma, ranks, widths, monkeypatch):
        eighs = count_calls(monkeypatch, perron.kernel_op, "eigh")
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), sigma)
        products = count_products(monkeypatch)
        c = compress_symmetric(kernel)
        # one Rayleigh-Ritz eigh per stage, on the basis so far
        assert eighs == [(r, r) for r in ranks]
        # the first basis is read from K's columns, and goes through S with
        # the 10 probes in one product; a block after it is drawn from the
        # last product S q, so it costs only the product that extends S q;
        # a third stage at the cap is the power step, which applies S to
        # the whole new basis
        assert products == widths
        assert c.rank == ranks[-1]
        assert_gate_and_top_hold(kernel, c)

    @pytest.mark.parametrize("sigma, columns", [(0.35, 26), (0.2, 42), (0.1, 74), (0.05, 74)])
    def test_repeats_bit_for_bit(self, sigma, columns, monkeypatch):
        # the seed is fixed and the products come back in C order, so a
        # second call on the same kernel makes the same products, takes
        # the same gate decisions and returns the same bits
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), sigma)
        products = count_products(monkeypatch)
        first = compress_symmetric(kernel)
        assert sum(products) == columns
        products.clear()
        second = compress_symmetric(kernel)
        assert sum(products) == columns
        if first is None:
            assert second is None
            return
        assert first.probe_bound == second.probe_bound
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_probe_bound_bounds_the_range_error(self, monkeypatch):
        # symmetric nonnegative kernels F F^T of rank 5 to 40, the columns
        # of F decaying geometrically: most pass the first gate, some only
        # after a block of growth or the power step, and some of rank above
        # the cap give up
        eighs = count_calls(monkeypatch, perron.kernel_op, "eigh")
        stages = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, rank = int(rng.integers(128, 301)), int(rng.integers(5, 41))
            decay = rng.uniform(0.5, 0.8)
            factor = rng.uniform(0, 1, (n, rank)) * decay ** np.arange(rank)
            gram = factor @ factor.T
            space = pr.make_interval_space(0, 1, n, INTERVAL_RULES[seed % 3])
            kernel = pr.Kernel(0.5 * (gram + gram.T), space)
            eighs.clear()
            c = compress_symmetric(kernel)
            if c is None:
                continue
            stages.append(len(eighs))
            s = weighted_s(kernel)
            v = c.vectors
            assert c.probe_bound >= np.linalg.norm(s - v @ (v.T @ s), 2)
            assert np.allclose(v.T @ v, np.eye(c.rank), rtol=0, atol=1e-14)
        assert set(stages) == {1, 2, 3}

    def test_probes_are_the_seeded_draws(self, monkeypatch):
        # the first product is S [Q | Omega_p]: its last 10 columns are the
        # first draws of the seeded generator, scaled by W^1/2
        n = 600
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        inputs = []
        real_product = pr.Kernel.product

        def product(self, x):
            inputs.append(x.copy())
            return real_product(self, x)

        monkeypatch.setattr(pr.Kernel, "product", product)
        compress_symmetric(kernel)
        probes = np.random.default_rng(1234567).standard_normal((n, COMPRESSION_PROBES))
        root_w = np.sqrt(kernel.space.weights)[:, np.newaxis]
        assert len(inputs) == 1
        assert np.array_equal(inputs[0][:, COMPRESSION_BLOCK:], root_w * probes)

    @pytest.mark.parametrize("rule", INTERVAL_RULES)
    @pytest.mark.parametrize("n", [128, 601])
    @pytest.mark.parametrize("shape", ["constant", "rank_one", "min"])
    def test_degenerate_skeletons(self, shape, n, rule):
        # the skeleton's columns are all parallel (a constant kernel, v x v)
        # or include a zero column (min(x, y) on the trapezoid rule, whose
        # first node is 0): the QR still gives an orthonormal Q, and the
        # gate decides as on any other start
        space = pr.make_interval_space(0, 1, n, rule)
        x = space.nodes
        if shape == "constant":
            entries = np.full((n, n), 0.7)
        elif shape == "rank_one":
            entries = np.outer(np.exp(np.sin(3 * x)), np.exp(np.sin(3 * x)))
        else:
            entries = np.minimum.outer(x, x)
        kernel = pr.Kernel(entries, space)
        c = compress_symmetric(kernel)
        if c is not None:
            assert_gate_and_top_hold(kernel, c)

    def test_bump_between_skeleton_columns(self, monkeypatch):
        # a narrow rank-one bump centred between two skeleton columns is
        # missed by the first range: the gate asks for a second block, and
        # the compression has rank 32 and the exact top value
        n = 600
        space = pr.make_interval_space(0, 1, n, "midpoint")
        x = space.nodes
        skeleton = np.arange(COMPRESSION_BLOCK) * (n - 1) // (COMPRESSION_BLOCK - 1)
        bump = np.exp(-0.5 * ((x - 0.5 * (x[skeleton[7]] + x[skeleton[8]])) / 0.005) ** 2)
        kernel = pr.Kernel(pr.gaussian_kernel(space, 0.35).entries + np.outer(bump, bump), space)
        products = count_products(monkeypatch)
        c = compress_symmetric(kernel)
        assert products == [26, 16]
        assert c.rank == 32
        s = weighted_s(kernel)
        assert c.probe_bound >= np.linalg.norm(s - c.vectors @ (c.vectors.T @ s), 2)
        assert_gate_and_top_hold(kernel, c)

    @pytest.mark.parametrize("sigma", [0.35, 0.2, 0.1, 0.05])
    def test_scaled_kernels_take_the_same_gate_decisions(self, sigma, monkeypatch):
        # the skeleton carries the range finder's power-of-two scale: 1e-300
        # K and 1e300 K grow, step and give up as K does
        space = pr.make_interval_space(0, 1, 600, "midpoint")
        kernel = pr.gaussian_kernel(space, sigma)
        products = count_products(monkeypatch)
        c = compress_symmetric(kernel)
        widths = list(products)
        for scale in (1e-300, 1e300):
            products.clear()
            scaled = compress_symmetric(pr.Kernel(scale * kernel.entries, space))
            assert products == widths
            assert (scaled is None) == (c is None)
            if c is not None:
                assert scaled.rank == c.rank
                # the small values of 1e-300 K are subnormal; the top is not
                assert scaled.values[-1] / scale == pytest.approx(c.values[-1], rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.35, 0.2])
    def test_power_of_two_scaled_kernels_compress_bit_for_bit(self, sigma):
        # 2^-+996 K is K scaled exactly, and the skeleton carries the
        # range finder's scale: the basis is K's bit for bit, where a
        # skeleton of magnitude 2^-1000 rounds its QR otherwise
        space = pr.make_interval_space(0, 1, 600, "midpoint")
        kernel = pr.gaussian_kernel(space, sigma)
        c = compress_symmetric(kernel)
        for e in (-996, 996):
            factor = math.ldexp(1.0, e)
            scaled = compress_symmetric(pr.Kernel(factor * kernel.entries, space))
            assert np.array_equal(scaled.vectors, c.vectors)
            assert scaled.values[-1] / factor == c.values[-1]
