import re
import tracemalloc
import warnings

import numpy as np
import pytest

import perron as pr
import perron.kernel_op
import perron.mollified
from perron.errors import EmptySupportError, GridTooCoarseError, ScaleOverflowError
from conftest import count_calls
from subtraction_recursion import box_average, subtraction_recursion


@pytest.fixture
def fine_space():
    return pr.make_interval_space(0, 1, 400, "midpoint")


class TestMollifier:
    def test_normalized(self, fine_space):
        m = pr.Mollifier(0.5, 0.1, fine_space)
        assert float(m.density @ fine_space.weights) == pytest.approx(1.0, abs=1e-12)
        inside = np.abs(fine_space.nodes - 0.5) <= 0.1 * (1 + 1e-12)
        assert np.all((m.density > 0) == inside)

    def test_empty_support(self, fine_space):
        with pytest.raises(EmptySupportError):
            pr.Mollifier(5.0, 0.01, fine_space)

    def test_boundary_clipping_still_normalized(self, fine_space):
        m = pr.Mollifier(0.0, 0.05, fine_space)
        assert float(m.density @ fine_space.weights) == pytest.approx(1.0, abs=1e-12)


def point_recursion(kernel, ix, iy, m):
    return subtraction_recursion(kernel, lambda g: float(g[ix, iy]), m)


def mollified_recursion(kernel, psi, eta, m):
    return subtraction_recursion(kernel, lambda g: box_average(g, psi, eta), m)


class TestMollifiedFunctional:
    def test_constant_kernel_exact(self, fine_space):
        k = pr.constant_kernel(fine_space, 3.7)
        psi = pr.Mollifier(0.3, 0.05, fine_space)
        eta = pr.Mollifier(0.7, 0.08, fine_space)
        assert box_average(k.entries, psi, eta) == pytest.approx(3.7, rel=1e-12)

    def test_coordinate_function_near_center(self, fine_space):
        # kernel F(x, y) = x averaged around x0 = 0.5
        entries = np.outer(fine_space.nodes, np.ones(400))
        for eps in (0.1, 0.05, 0.02):
            psi = pr.Mollifier(0.5, eps, fine_space)
            eta = pr.Mollifier(0.5, eps, fine_space)
            assert box_average(entries, psi, eta) == pytest.approx(0.5, abs=eps)

    def test_converges_to_point_value(self, fine_space):
        k = pr.gaussian_kernel(fine_space, 0.25)
        ix = int(np.argmin(np.abs(fine_space.nodes - 0.4)))
        iy = int(np.argmin(np.abs(fine_space.nodes - 0.6)))
        cx, cy = fine_space.nodes[ix], fine_space.nodes[iy]
        target = k.entries[ix, iy]
        errors = []
        for eps in (0.1, 0.05, 0.025):
            psi = pr.Mollifier(cx, eps, fine_space)
            eta = pr.Mollifier(cy, eps, fine_space)
            errors.append(abs(box_average(k.entries, psi, eta) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] <= 0.025 * 10  # first-order envelope

    def test_norm_bound(self, fine_space):
        # |phi[F]| <= sup |F| for normalized box pairs
        rng = np.random.default_rng(91)
        entries = rng.normal(size=(400, 400))
        psi = pr.Mollifier(0.5, 0.07, fine_space)
        eta = pr.Mollifier(0.25, 0.07, fine_space)
        assert abs(box_average(entries, psi, eta)) <= np.abs(entries).max()


class TestMollifiedRecursion:
    def test_constant_kernel_collapses_immediately(self, fine_space):
        k = pr.constant_kernel(fine_space, 1.0)
        psi = pr.Mollifier(0.5, 0.1, fine_space)
        eta = pr.Mollifier(0.5, 0.1, fine_space)
        states = mollified_recursion(k, psi, eta, 3)
        for st in states[1:]:
            assert np.abs(st).max() <= 1e-12

    def test_rank_one_subtraction_range_is_kernel_span(self, fine_space):
        # every subtracted term is a scalar multiple of K itself
        k = pr.gaussian_kernel(fine_space, 0.4)
        psi = pr.Mollifier(0.5, 0.1, fine_space)
        eta = pr.Mollifier(0.5, 0.1, fine_space)
        states = mollified_recursion(k, psi, eta, 2)
        composed = k.entries @ (fine_space.weights[:, np.newaxis] * states[0])
        diff = composed - states[1]
        # diff = K * scalar: all entries proportional to K
        ratio = diff / k.entries
        assert np.max(np.abs(ratio - ratio[0, 0])) <= 1e-10

    def test_operator_form_equivalence(self, fine_space):
        # recursion steps equal lifted-compose minus rank-one applied explicitly
        k = pr.gaussian_kernel(fine_space, 0.35)
        psi = pr.Mollifier(0.4, 0.08, fine_space)
        eta = pr.Mollifier(0.6, 0.08, fine_space)
        states = mollified_recursion(k, psi, eta, 3)
        w = fine_space.weights
        for n in range(3):
            g = states[n]
            scalar = float(psi.acting_vector() @ g @ eta.acting_vector())
            explicit = k.entries @ (w[:, np.newaxis] * g) - k.entries * scalar
            np.testing.assert_allclose(states[n + 1], explicit, atol=1e-10)

    def test_wide_mollifier_matches_global_average_subtraction(self, fine_space):
        # a box covering the whole domain makes the mollified functional a
        # plain double average, cross-checked against a direct computation
        k = pr.gaussian_kernel(fine_space, 0.5)
        psi = pr.Mollifier(0.5, 0.5, fine_space)
        eta = pr.Mollifier(0.5, 0.5, fine_space)
        states = mollified_recursion(k, psi, eta, 1)
        w = fine_space.weights
        global_avg = float(w @ k.entries @ w) / (w.sum() ** 2)
        direct = k.entries @ (w[:, np.newaxis] * k.entries) - k.entries * global_avg
        np.testing.assert_allclose(states[1], direct, atol=1e-12)


class TestPointRecursion:
    def test_constant_kernel(self, fine_space):
        k = pr.constant_kernel(fine_space, 1.0)
        out = point_recursion(k, 200, 200, 2)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-13)

    def test_chain_first_step(self, two_state_chain):
        # reference entry (0, 0) is zero, so the first subtraction vanishes
        out = point_recursion(two_state_chain, 0, 0, 1)
        np.testing.assert_allclose(out[1], [[0.5, 0.5], [0.25, 0.75]])

    def test_symmetric_2x2_by_hand(self, symmetric_2x2):
        out = point_recursion(symmetric_2x2, 0, 0, 1)
        np.testing.assert_allclose(out[1], [[1.0, 2.0], [2.0, 1.0]])


def loop_study_errors(kernel, ix, iy, widths, m):
    """Per-step errors of ``convergence_study`` from the reference loops,
    which compose once per step and per width."""
    exact = point_recursion(kernel, ix, iy, m)
    cx, cy = kernel.space.nodes[ix], kernel.space.nodes[iy]
    per_step = []
    for eps in widths:
        psi = pr.Mollifier(cx, eps, kernel.space)
        eta = pr.Mollifier(cy, eps, kernel.space)
        states = mollified_recursion(kernel, psi, eta, m)
        per_step.append([np.abs(st - e).max() for st, e in zip(states, exact)])
    return np.array(per_step)


class TestSharedPowers:
    """The coefficient recursions of ``convergence_study`` over shared
    powers of K against the reference loop of ``subtraction_recursion``."""

    @pytest.mark.parametrize(
        "n, sigma, widths, m",
        [
            (600, 0.35, (0.2, 0.1), 3),
            (600, 0.3, (0.2, 0.1), 3),
            (600, 0.4, (0.2, 0.1, 0.05), 4),
            (400, 0.25, (0.2, 0.1, 0.05, 0.025), 5),
        ],
    )
    @pytest.mark.parametrize("route", ["compressed", "dense"])
    def test_study_errors_match_loops(self, n, sigma, widths, m, route, monkeypatch):
        powers = count_calls(monkeypatch, perron.mollified, "_kernel_powers")
        if route == "dense":
            monkeypatch.setattr(perron.kernel_op, "compress_symmetric", lambda kernel: None)
        sp = pr.make_interval_space(0, 1, n, "midpoint")
        k = pr.gaussian_kernel(sp, sigma)
        study = pr.convergence_study(k, 0.5, 0.5, widths, m)
        # these Gaussians take the compressed powers unless it is switched off
        assert (k.compression is not None) == (route == "compressed")
        assert len(powers) == int(route == "dense")
        oracle = loop_study_errors(k, study.x0_index, study.y0_index, widths, m)
        np.testing.assert_allclose(study.per_step, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.35, 0.4])
    def test_compressed_powers_match_dense_powers(self, sigma, monkeypatch):
        sp = pr.make_interval_space(0, 1, 600, "midpoint")
        compressed = pr.convergence_study(pr.gaussian_kernel(sp, sigma), 0.5, 0.5, (0.2, 0.1), 3)
        powers = count_calls(monkeypatch, perron.mollified, "_kernel_powers")
        monkeypatch.setattr(perron.kernel_op, "compress_symmetric", lambda kernel: None)
        dense = pr.convergence_study(pr.gaussian_kernel(sp, sigma), 0.5, 0.5, (0.2, 0.1), 3)
        assert len(powers) == 1
        np.testing.assert_allclose(compressed.errors, dense.errors, rtol=1e-12, atol=0)


def _stacked_power_basis(kernel, m):
    """Forms and sup norms of the stack of K^(1) .. K^(m+1), each power
    composed in full."""
    powers = [kernel.entries]
    for _ in range(m):
        powers.append(kernel.matvec(powers[-1]))
    powers = np.array(powers)
    return (lambda a, b: powers @ b @ a), (lambda coeffs: np.array(
        [np.abs(np.tensordot(c, powers, axes=1)).max() for c in coeffs]))


_power_basis = perron.mollified._power_basis


def _combination_power_basis(kernel, m):
    """``mollified._power_basis`` with every sup norm taken over the
    formed combination sum_j c_j K^(j+1), also where only c_0 is nonzero."""
    forms, _ = _power_basis(kernel, m)
    compression = kernel.compression if m else None
    if compression is None:
        return forms, _stacked_power_basis(kernel, m)[1]
    left = compression.vectors / np.sqrt(kernel.space.weights)[:, np.newaxis]
    mu = compression.values ** np.arange(2, m + 2)[:, np.newaxis]

    def sup_norm(c):
        if c[1:].any():
            out = (left * (c[1:] @ mu)) @ left.T
            out += c[0] * kernel.entries
        else:
            out = c[0] * kernel.entries
        return float(np.abs(out).max())

    return forms, lambda coeffs: np.array([sup_norm(c) for c in coeffs])


class TestSupNormShortcut:
    @pytest.mark.parametrize("name", ["gaussian-0.35", "gaussian-0.1", "lognormal"])
    def test_study_is_bit_identical_to_the_formed_combinations(self, name, monkeypatch):
        # rows with c[1:] == 0 take |c_0| max K; the first two of the m + 1
        # steps are such rows
        sp = pr.make_interval_space(0, 1, 300, "midpoint")
        if name == "lognormal":
            k = pr.Kernel(np.exp(np.random.default_rng(7).standard_normal((300, 300))), sp)
        else:
            k = pr.gaussian_kernel(sp, float(name.split("-")[1]))
        assert (k.compression is None) == (name == "lognormal")
        study = pr.convergence_study(k, 0.5, 0.5, (0.2, 0.1), 3)
        monkeypatch.setattr(perron.mollified, "_power_basis", _combination_power_basis)
        formed = pr.convergence_study(k, 0.5, 0.5, (0.2, 0.1), 3)
        assert np.array(study.per_step).tobytes() == np.array(formed.per_step).tobytes()
        assert study.errors == formed.errors
        assert all(step[1] > 0 for step in study.per_step)

    @pytest.mark.parametrize("compressed", [True, False])
    def test_sup_norm_forms_no_square_array(self, compressed, monkeypatch):
        # the compressed combination goes in blocks of rows of one reused
        # buffer, the powers in blocks of columns, each entry rounded as the
        # formed combination's: what is left are the temporaries of a block,
        # 0.07 n^2 doubles on the compression, and on the powers 0.83: the
        # stack of a block of n / 6 columns (half of K) and two of its
        # products, where the stack of all powers alone took m + 1 = 3
        n = 1000
        if not compressed:
            monkeypatch.setattr(perron.kernel_op, "compress_symmetric", lambda kernel: None)
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), 0.35)
        _, sup_norms = perron.mollified._power_basis(k, 2)
        _, formed = _combination_power_basis(k, 2)
        c = np.array([[0.7, -0.3, 0.05]])
        sup_norms(c)
        tracemalloc.start()
        try:
            value = sup_norms(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (0.3 if compressed else 0.9) * 8 * n * n
        assert value.tobytes() == formed(c).tobytes()

    @pytest.mark.parametrize("c0", [0.0, -0.0, 0.097, -0.147, 3e-300])
    def test_scaled_kernel_sup_norm_is_exact(self, c0):
        k = pr.Kernel(np.exp(np.random.default_rng(3).standard_normal((40, 40))),
                      pr.make_interval_space(0, 1, 40, "midpoint"))
        _, sup_norms = perron.mollified._power_basis(k, 2)
        c = np.array([[c0, 0.0, 0.0]])
        expected = float(np.abs(c0 * k.entries).max())
        assert sup_norms(c)[0].tobytes() == np.float64(expected).tobytes()


class TestPowerSweep:
    """Without a compression the study composes the powers in blocks of
    columns and reads every combination off each block's stack."""

    @pytest.fixture
    def narrow(self):
        # symmetric and full-rank: no compression
        k = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.05)
        assert k.symmetric and k.compression is None
        return k

    def test_study_holds_less_than_one_square_array(self, narrow):
        # the stack of a block is half of K, two products of a block add
        # 1/4; the stack of all powers K^(1) .. K^(4) peaked at 6
        n = narrow.size
        pr.convergence_study(narrow, 0.5, 0.5, (0.2, 0.1), 3)
        tracemalloc.start()
        try:
            pr.convergence_study(narrow, 0.5, 0.5, (0.2, 0.1), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * 8 * n * n

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_products_are_those_of_m_compositions(self, narrow, m, monkeypatch):
        # the blocks: m products of K with n columns in all, none at m = 1,
        # whose steps reach no power past K^(1); the forms, of the point and
        # of each width: m + 1 vector products each
        widths = (0.2, 0.1, 0.05)
        shapes = []
        real = pr.Kernel.product
        monkeypatch.setattr(pr.Kernel, "product",
                            lambda self, x: shapes.append(x.shape) or real(self, x))
        pr.convergence_study(narrow, 0.5, 0.5, widths, m)
        assert sum(s[1] for s in shapes if len(s) == 2) == (m > 1) * m * narrow.size
        assert sum(len(s) == 1 for s in shapes) == (m + 1) * (1 + len(widths))

    def test_errors_match_the_formed_powers(self, narrow, monkeypatch):
        study = pr.convergence_study(narrow, 0.5, 0.43, (0.2, 0.1, 0.05), 3)
        monkeypatch.setattr(perron.mollified, "_power_basis", _stacked_power_basis)
        stacked = pr.convergence_study(narrow, 0.5, 0.43, (0.2, 0.1, 0.05), 3)
        np.testing.assert_allclose(study.per_step, stacked.per_step, rtol=1e-12, atol=0)


class TestConvergenceStudy:
    def test_gaussian_errors_decrease(self):
        sp = pr.make_interval_space(0, 1, 400, "midpoint")
        k = pr.gaussian_kernel(sp, 0.3)
        study = pr.convergence_study(k, 0.5, 0.5, [0.2, 0.1, 0.05], 4)
        assert study.errors[0] >= study.errors[1] >= study.errors[2]

    def test_constant_kernel_identically_zero(self):
        sp = pr.make_interval_space(0, 1, 300, "midpoint")
        k = pr.constant_kernel(sp, 1.0)
        study = pr.convergence_study(k, 0.5, 0.5, [0.2, 0.1], 4)
        assert max(study.errors) <= 1e-12

    def test_jump_kernel_does_not_converge(self):
        # discontinuity at the reference point: averages cannot approach
        # the point value, so the error stalls instead of vanishing
        sp = pr.make_interval_space(0, 1, 400, "midpoint")
        x = sp.nodes
        entries = 1.0 + np.outer(x >= 0.5, x >= 0.5).astype(float)
        k = pr.Kernel(entries, sp)
        study = pr.convergence_study(k, 0.5, 0.5, [0.2, 0.1, 0.05, 0.025], 3)
        assert study.errors[-1] > 0.25 * study.errors[0]
        assert study.errors[-1] > 0.05

    def test_overflow_is_a_named_failure(self):
        # the powers of 1e300 K overflow: a named failure with the scale and
        # the power of two that rescales it, and no warning; rescaled, the
        # study is finite
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        k = pr.gaussian_kernel(sp, 0.35)
        big = pr.Kernel(1e300 * k.entries, sp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleOverflowError) as info:
                pr.convergence_study(big, 0.5, 0.5, (0.2, 0.1), 3)
            exponent = int(re.search(r"by 2\^(-?\d+)", str(info.value)).group(1))
            assert f"||T||_inf = {big.weighted_inf_norm():.3e}" in str(info.value)
            rescaled = pr.Kernel(np.ldexp(big.entries, exponent), sp)
            study = pr.convergence_study(rescaled, 0.5, 0.5, (0.2, 0.1), 3)
        assert np.all(np.isfinite(study.errors))
        assert 0.5 <= rescaled.weighted_inf_norm() < 1.0

    def test_grid_too_coarse(self):
        sp = pr.make_interval_space(0, 1, 10, "midpoint")
        k = pr.constant_kernel(sp, 1.0)
        with pytest.raises(GridTooCoarseError):
            pr.convergence_study(k, 0.5, 0.5, [0.01], 2)

    def test_reference_point_snaps_to_node(self):
        sp = pr.make_interval_space(0, 1, 100, "midpoint")
        k = pr.gaussian_kernel(sp, 0.5)
        study = pr.convergence_study(k, 0.497, 0.61, [0.1], 2)
        assert study.x0 in sp.nodes
        assert study.y0 in sp.nodes
