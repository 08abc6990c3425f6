import dataclasses
import re
import warnings

import numpy as np
import pytest

import perron as pr
from perron.errors import DimensionMismatchError, NotConvergentError, ScaleOverflowError
import bell_expansion
from conftest import (
    neumann_tail_bound,
    random_positive_kernel,
    rank_one_norm,
    series_term_norms,
)


def split_for(kernel, strategy="row_min"):
    return pr.rank_one_split(kernel, pr.extract_minorization(kernel, strategy))


@pytest.fixture
def symmetric_split(symmetric_2x2):
    return split_for(symmetric_2x2)


class TestRecursion:
    def test_base_term_is_kernel(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 3)
        assert seq.kernels[0] is symmetric_split.kernel

    def test_zero_remainder_collapses(self, constant_unit):
        seq = pr.build_corrected_kernels(split_for(constant_unit), 4)
        for n in range(1, 5):
            np.testing.assert_allclose(seq.kernels[n].entries, 0.0, atol=1e-13)

    def test_separable_kernel_collapses(self):
        sp = pr.make_counting_space(6)
        rng = np.random.default_rng(61)
        v = rng.uniform(0.2, 1, 6)
        u = rng.uniform(0.2, 1, 6)
        k = pr.separable_kernel(sp, v, u)
        cert = pr.extract_minorization(k, "user", profile=v, density=u)
        seq = pr.build_corrected_kernels(pr.rank_one_split(k, cert), 3)
        for n in range(1, 4):
            np.testing.assert_allclose(seq.kernels[n].entries, 0.0, atol=1e-12)

    def test_identity_remainder_by_hand(self, symmetric_split):
        # remainder is the identity here, so every corrected kernel is K
        seq = pr.build_corrected_kernels(symmetric_split, 4)
        for n in range(1, 5):
            np.testing.assert_allclose(
                seq.kernels[n].entries, symmetric_split.kernel.entries, atol=1e-12
            )

    def test_overflow_is_a_named_failure(self):
        # G_1 of 1e300 K is about 1e600: a named failure with the scale and
        # the power of two that rescales it, and no warning; rescaled, the
        # recursion is finite
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        big = pr.Kernel(1e300 * pr.gaussian_kernel(sp, 0.35).entries, sp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleOverflowError) as info:
                pr.build_corrected_kernels(split_for(big), 6)
            exponent = int(re.search(r"by 2\^(-?\d+)", str(info.value)).group(1))
            assert f"||T||_inf = {big.weighted_inf_norm():.3e}" in str(info.value)
            seq = pr.build_corrected_kernels(split_for(pr.Kernel(np.ldexp(big.entries, exponent), sp)), 6)
        assert all(np.all(np.isfinite(g.entries)) for g in seq.kernels)

    def test_matches_operator_power_oracle(self):
        rng = np.random.default_rng(62)
        sp = pr.make_interval_space(0, 1, 20, "midpoint")
        k = random_positive_kernel(sp, rng)
        split = split_for(k)
        seq = pr.build_corrected_kernels(split, 8)
        t_op, p_op = k.operator_matrix(), None
        cert = split.certificate
        p_op = cert.alpha * np.outer(cert.profile.values, cert.functional.acting_vector())
        s_op = t_op - p_op
        power = np.eye(20)
        scale = np.abs(k.entries).max()
        for n in range(9):
            expected = (power @ t_op) / sp.weights[np.newaxis, :]
            np.testing.assert_allclose(
                seq.kernels[n].entries, expected, atol=1e-10 * scale * 3**n
            )
            power = s_op @ power

    def test_moment_scalars(self, symmetric_split):
        # profile (1,1), density (1/2,1/2): b_j = phi[T^j 1] = 3^j
        seq = pr.build_corrected_kernels(symmetric_split, 5)
        np.testing.assert_allclose(seq.moments, [3.0, 9.0, 27.0, 81.0, 243.0])

    def test_norm_growth_bound(self):
        # strictly below c^(n+1) on strictly positive kernels
        rng = np.random.default_rng(63)
        sp = pr.make_counting_space(10)
        k = random_positive_kernel(sp, rng)
        split = split_for(k)
        seq = pr.build_corrected_kernels(split, 10)
        c = k.weighted_inf_norm() + rank_one_norm(split)
        for n, kern in enumerate(seq.kernels):
            assert kern.weighted_inf_norm() < c ** (n + 1)


class TestNeumannKernelResolvent:
    def test_zero_remainder_single_term(self, constant_unit):
        seq = pr.build_corrected_kernels(split_for(constant_unit), 2)
        h = pr.neumann_kernel_resolvent(seq, 2.0, tol=1e-14)
        np.testing.assert_allclose(h.entries, constant_unit.entries / 2.0, atol=1e-13)

    def test_matches_direct_solve_2x2(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 4)
        h = pr.neumann_kernel_resolvent(seq, 4.0, tol=1e-13)
        direct = np.linalg.solve(
            4.0 * np.eye(2) - symmetric_split.remainder.operator_matrix(),
            symmetric_split.kernel.entries,
        )
        np.testing.assert_allclose(h.entries, direct, atol=1e-10)

    def test_gaussian_tail_bound_honored(self):
        sp = pr.make_interval_space(0, 1, 60, "midpoint")
        k = pr.gaussian_kernel(sp, 0.5)
        split = split_for(k)
        seq = pr.build_corrected_kernels(split, 2)
        lam = 2.0 * k.weighted_inf_norm()
        tol = 1e-11
        h = pr.neumann_kernel_resolvent(seq, lam, tol=tol)
        direct = np.linalg.solve(
            lam * np.eye(60) - split.remainder.operator_matrix(), k.entries
        )
        measured = np.abs(h.entries - direct).max()
        assert measured < 10 * tol * max(1.0, np.abs(h.entries).max())

    def test_rejects_lambda_below_norm(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 2)
        with pytest.raises(NotConvergentError):
            pr.neumann_kernel_resolvent(seq, 0.5, tol=1e-10)

    def test_zero_remainder_at_tiny_scale(self, constant_unit):
        # lambda^7 underflows here: the terms are carried on lambda times a
        # power of two, so G_6 = 0 meets no infinite factor
        c = 2.0**-400
        kernel = pr.Kernel(c * constant_unit.entries, constant_unit.space)
        seq = pr.build_corrected_kernels(split_for(kernel), 6)
        h = pr.neumann_kernel_resolvent(seq, 2.0 * c, tol=1e-14)
        np.testing.assert_allclose(h.entries, 0.5, rtol=1e-13)

    def test_tail_bound_formula(self):
        assert neumann_tail_bound(1.0, 2.0, 3) == pytest.approx((0.5**5) / 0.5)
        assert neumann_tail_bound(2.0, 2.0, 3) == np.inf


def count_block_products(monkeypatch):
    """List of the shapes of the blocks ``Kernel.matvec`` is applied to."""
    calls = []
    real = pr.Kernel.matvec

    def counted(self, x):
        if np.ndim(x) == 2:
            calls.append(np.shape(x))
        return real(self, x)

    monkeypatch.setattr(pr.Kernel, "matvec", counted)
    return calls


class TestSeriesSumsTheRecursion:
    """The resolvent series takes its first terms from the recursion's own
    blocks, so each R G_n is formed once."""

    def test_probe_identity_forms_35_block_products(self, monkeypatch):
        # K V, two forms at each of 6 steps, 21 series terms past the 6
        # blocks and the identity's K H: each R G_n V is formed once
        split = gaussian_split(600)
        lam = 2.0 * split.kernel.weighted_inf_norm()
        calls = count_block_products(monkeypatch)
        report = pr.probe_resolvent_identity(split, lam, centred_block(600))
        assert calls == [(600, 4)] * 35
        assert report.relative_residual <= 1e-12

    def test_dense_series_reads_the_sequence(self, monkeypatch):
        split = gaussian_split()
        lam = 2.0 * split.kernel.weighted_inf_norm()
        direct = np.linalg.solve(
            lam * np.eye(200) - split.remainder.operator_matrix(), split.kernel.entries
        )
        counts = []
        for m in (0, 6):
            seq = pr.build_corrected_kernels(split, m)
            calls = count_block_products(monkeypatch)
            h = pr.neumann_kernel_resolvent(seq, lam, tol=1e-12)
            counts.append(len(calls))
            np.testing.assert_allclose(h.entries, direct, rtol=0,
                                       atol=1e-11 * np.abs(direct).max())
        assert counts == [25, 19]


class TestSubtractionIdentity:
    def test_constant_kernel(self, constant_unit):
        seq = pr.build_corrected_kernels(split_for(constant_unit), 2)
        report = pr.verify_resolvent_identity(seq, 2.0)
        assert report.relative_residual <= 1e-12

    def test_symmetric_2x2_at_five(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 4)
        report = pr.verify_resolvent_identity(seq, 5.0)
        assert report.residual < 1e-10

    def test_random_kernel_at_twice_norm(self):
        rng = np.random.default_rng(64)
        sp = pr.make_counting_space(40)
        k = random_positive_kernel(sp, rng)
        seq = pr.build_corrected_kernels(split_for(k), 2)
        lam = 2.0 * k.weighted_inf_norm()
        report = pr.verify_resolvent_identity(seq, lam)
        assert report.relative_residual <= 1e-9



def gaussian_split(n=200):
    sp = pr.make_interval_space(0, 1, n, "midpoint")
    return split_for(pr.gaussian_kernel(sp, 0.35))


def probe_block(n, seed=20240808):
    return 1.0 + np.random.default_rng(seed).uniform(0.0, 1.0, (n, 4))


def centred_block(n, seed=20240808):
    """The probe block of ``perron verify``: U(0, 1) - 1/2."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 4)) - 0.5


def identity_verdict(run):
    """"raise" when the two-form cross-check raises, else "pass" or "fail"
    against the 1e-9 bound of ``perron verify``."""
    try:
        report = run()
    except NotConvergentError:
        return "raise"
    return "pass" if report.relative_residual <= 1e-9 else "fail"


def with_remainder(split, remainder, certificate=None):
    """A split of the same kernel whose explicit remainder is the given
    Kernel, written where the split keeps the one it builds."""
    out = pr.RankOneSplit(split.kernel, certificate or split.certificate)
    out.__dict__["remainder"] = remainder
    return out


def remainder_entry(split, eps):
    entries = split.remainder.entries.copy()
    n = split.kernel.size
    entries[n // 3, n // 2] *= 1 + eps
    return with_remainder(split, pr.Kernel(entries, split.kernel.space))


def remainder_column(split, eps):
    entries = split.remainder.entries.copy()
    entries[:, split.kernel.size // 2] *= 1 + eps
    return with_remainder(split, pr.Kernel(entries, split.kernel.space))


def moved_mass(split, eps):
    """Move mass eps * R(i, j1) from column j1 to the mirror column j2 of
    one remainder row: a signed defect that keeps every row sum.  On the
    symmetric Gaussian split (K 1)(j1) = (K 1)(j2), so the defect cancels
    against the constant part of a positive probe."""
    entries = split.remainder.entries.copy()
    n = split.kernel.size
    i, j1, j2 = n // 3, n // 4, n - 1 - n // 4
    delta = eps * entries[i, j1]
    entries[i, j1] += delta
    entries[i, j2] -= delta
    return with_remainder(split, pr.Kernel(entries, split.kernel.space))


def scaled_alpha(split, eps):
    """The certificate's alpha scaled, with the remainder of the old alpha."""
    cert = dataclasses.replace(split.certificate, alpha=split.certificate.alpha * (1 + eps))
    return with_remainder(split, split.remainder, cert)


def dense_identity(split, lam):
    return pr.verify_resolvent_identity(pr.build_corrected_kernels(split, 6), lam)


class TestProbeIdentity:
    """The probe form runs the checks of the dense form on K o V for a
    block V of four probes, positive or centred; it must reach the same
    verdict."""

    def test_clean_split_matches_dense_residual(self):
        split = gaussian_split()
        lam = 2.0 * split.kernel.weighted_inf_norm()
        dense = dense_identity(split, lam)
        probe = pr.probe_resolvent_identity(split, lam, probe_block(split.kernel.size))
        assert probe.relative_residual <= 1e-12
        assert 0.5 <= probe.relative_residual / dense.relative_residual <= 2.0

    @pytest.mark.parametrize(
        "defect, eps",
        [
            (remainder_entry, 1e-3),
            (remainder_entry, 1e-6),
            (remainder_column, 1e-3),
            (remainder_column, 1e-6),
            (scaled_alpha, 1e-8),
            (moved_mass, 1e-3),
            (moved_mass, 1e-5),
        ],
    )
    def test_inconsistent_split_raises_in_both_forms(self, defect, eps):
        split = defect(gaussian_split(), eps)
        lam = 2.0 * split.kernel.weighted_inf_norm()
        with pytest.raises(NotConvergentError, match="forms disagree at step n = 1"):
            dense_identity(split, lam)
        with pytest.raises(NotConvergentError, match="forms disagree at step n = 1"):
            pr.probe_resolvent_identity(split, lam, probe_block(split.kernel.size))

    @pytest.mark.parametrize(
        "defect, eps",
        [
            # below the two-form tolerance: one remainder entry 1e-8 off
            # leaves a residual near 1e-11, well inside the 1e-9 bound of
            # ``perron verify``, in both forms alike
            (remainder_entry, 1e-8),
            (remainder_column, 1e-8),
            (scaled_alpha, 1e-10),
        ],
    )
    def test_small_defect_gives_the_same_residual_in_both_forms(self, defect, eps):
        split = defect(gaussian_split(), eps)
        lam = 2.0 * split.kernel.weighted_inf_norm()
        dense = dense_identity(split, lam)
        probe = pr.probe_resolvent_identity(split, lam, probe_block(split.kernel.size))
        assert dense.relative_residual <= 1e-9 and probe.relative_residual <= 1e-9
        assert dense.relative_residual > 1e-12
        assert 0.5 <= probe.relative_residual / dense.relative_residual <= 2.0

    def test_moved_mass_gets_the_dense_verdict(self):
        # Positive probes are about 1.5 times the constant function once K
        # has smoothed them, so the gap of a defect that cancels against K 1
        # was about 50 times smaller in the probe form than in the dense form:
        # at eps = 1e-6 the dense form raised and the probe form passed.
        # Centred probes carry no constant part, and the two-form tolerance
        # scales with the block's own size, so the verdicts agree.
        for eps, raises in ((1e-6, True), (1e-7, True), (1e-8, False)):
            split = moved_mass(gaussian_split(), eps)
            lam = 2.0 * split.kernel.weighted_inf_norm()
            dense = identity_verdict(lambda: dense_identity(split, lam))
            probe = identity_verdict(
                lambda: pr.probe_resolvent_identity(split, lam, centred_block(split.kernel.size))
            )
            assert dense == probe == ("raise" if raises else "pass"), eps

    @pytest.mark.parametrize(
        "defect, eps",
        [
            (None, 0.0),
            (remainder_entry, 1e-6),
            (remainder_entry, 1e-8),
            (remainder_column, 1e-6),
            (remainder_column, 1e-8),
            (scaled_alpha, 1e-8),
            (scaled_alpha, 1e-10),
        ],
    )
    def test_centred_probes_give_the_dense_verdict(self, defect, eps):
        split = gaussian_split() if defect is None else defect(gaussian_split(), eps)
        lam = 2.0 * split.kernel.weighted_inf_norm()
        dense = identity_verdict(lambda: dense_identity(split, lam))
        probe = identity_verdict(
            lambda: pr.probe_resolvent_identity(split, lam, centred_block(split.kernel.size))
        )
        assert dense == probe

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_scaled_kernel_gives_the_same_residual(self, c):
        # the recursion and the series run on R and lambda times a power of
        # two, so no power of lambda over- or underflows
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        reports = []
        for scale in (1.0, c):
            split = split_for(pr.Kernel(scale * pr.gaussian_kernel(sp, 0.35).entries, sp))
            lam = 2.0 * split.kernel.weighted_inf_norm()
            reports.append(pr.probe_resolvent_identity(split, lam, centred_block(200)))
        assert reports[0].relative_residual <= 1e-12
        assert reports[1].relative_residual == pytest.approx(reports[0].relative_residual, rel=0.05)

    def test_all_zero_probe_block_passes(self):
        split = gaussian_split(20)
        report = pr.probe_resolvent_identity(split, 2.0, np.zeros((20, 4)))
        assert report.residual == 0.0

    def test_disagreement_message_carries_step_gap_and_tolerance(self):
        split = remainder_entry(gaussian_split(60), 1e-4)
        k = split.kernel
        w = k.space.weights[:, np.newaxis]
        cert = split.certificate
        subtract_form = k.entries @ (w * k.entries) - cert.alpha * np.outer(
            cert.profile.values, cert.functional.acting_vector() @ k.entries
        )
        gap = np.abs(subtract_form - split.remainder.entries @ (w * k.entries)).max()
        top = k.entries.max()
        tolerance = 1e-10 * top * k.space.total_mass() * top
        with pytest.raises(NotConvergentError) as info:
            pr.build_corrected_kernels(split, 6)
        found = re.search(r"step n = (\d+): gap (\S+) > tolerance (\S+);", str(info.value))
        assert found, str(info.value)
        assert int(found.group(1)) == 1
        assert float(found.group(2)) == pytest.approx(gap, rel=1e-3)
        assert float(found.group(3)) == pytest.approx(tolerance, rel=1e-3)

    def test_rejects_malformed_probes(self):
        split = gaussian_split(20)
        with pytest.raises(DimensionMismatchError):
            pr.probe_resolvent_identity(split, 2.0, np.ones((19, 4)))


class TestBellPolynomial:
    def test_single_block(self):
        for q in range(1, 6):
            assert bell_expansion.bell_polynomial(1, q, list(range(1, q + 1))) == q

    def test_two_blocks_of_two(self):
        # only composition of 2 into two parts is (1, 1)
        assert bell_expansion.bell_polynomial(2, 2, [3.0]) == pytest.approx(9.0)

    def test_two_blocks_of_three(self):
        # compositions (1,2) and (2,1)
        assert bell_expansion.bell_polynomial(2, 3, [2.0, 5.0]) == pytest.approx(2 * 2.0 * 5.0)

    def test_rejects_p_above_q(self):
        with pytest.raises(ValueError):
            bell_expansion.bell_polynomial(3, 2, [1.0])

    def test_exact_match_with_bruteforce_small_integers(self):
        rng = np.random.default_rng(65)
        for q in range(1, 9):
            for p in range(1, q + 1):
                b = [int(x) for x in rng.integers(1, 4, size=q - p + 1)]
                fast = bell_expansion.bell_polynomial(p, q, b)
                slow = bell_expansion.bell_polynomial_bruteforce(p, q, b)
                assert fast == slow  # exact integer arithmetic

    def test_counts_compositions_when_b_is_ones(self):
        # with all b_j = 1 the value is the number of compositions C(q-1, p-1)
        from math import comb

        for q in range(1, 9):
            for p in range(1, q + 1):
                assert bell_expansion.bell_polynomial(p, q, [1] * (q - p + 1)) == comb(q - 1, p - 1)


class TestExpansionVerification:
    def test_oracles_confirm_recursion_2x2(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 6)
        for n in (1, 2, 3, 4):
            report = bell_expansion.verify_bell_expansion(seq, n)
            assert report.bruteforce_error <= 1e-10
            assert report.bell_form_error <= 1e-10

    def test_oracles_confirm_recursion_5x5(self):
        rng = np.random.default_rng(66)
        sp = pr.make_counting_space(5)
        k = random_positive_kernel(sp, rng)
        seq = pr.build_corrected_kernels(split_for(k), 6)
        scale = max(1.0, max(np.abs(kk.entries).max() for kk in seq.kernels))
        for n in (1, 2, 3, 4):
            report = bell_expansion.verify_bell_expansion(seq, n)
            assert report.bruteforce_error <= 1e-10 * scale
            assert report.bell_form_error <= 1e-10 * scale

    def test_interval_space_oracles(self):
        rng = np.random.default_rng(67)
        sp = pr.make_interval_space(0, 1, 12, "midpoint")
        k = random_positive_kernel(sp, rng)
        seq = pr.build_corrected_kernels(split_for(k), 4)
        report = bell_expansion.verify_bell_expansion(seq, 3)
        assert report.bruteforce_error <= 1e-9
        assert report.bell_form_error <= 1e-9

    def test_variant_convention_disagrees_and_is_pinpointed(self, symmetric_split):
        # the index-shifted variant cannot reproduce the recursion; the
        # report must say so and locate the mismatch rather than patch it
        seq = pr.build_corrected_kernels(symmetric_split, 6)
        report = bell_expansion.verify_bell_expansion(seq, 3)
        assert not report.matches_variant
        assert report.max_abs_error > 1.0
        assert report.leading_term_error > 0
        assert report.first_failing is not None
        assert report.first_failing[0] == 3
        assert "disagrees" in report.note

    def test_zero_remainder_variant_also_nonzero(self, constant_unit):
        # even in the fully collapsing case the variant leading index is off
        seq = pr.build_corrected_kernels(split_for(constant_unit), 3)
        for n in (1, 2):
            report = bell_expansion.verify_bell_expansion(seq, n)
            assert report.bruteforce_error <= 1e-12
            assert report.bell_form_error <= 1e-12

    def test_caps(self, symmetric_split):
        seq = pr.build_corrected_kernels(symmetric_split, 8)
        with pytest.raises(ValueError):
            bell_expansion.verify_bell_expansion(seq, 7)
        with pytest.raises(ValueError):
            bell_expansion.verify_bell_expansion(seq, 0)


class TestSeriesStructureSharing:
    def test_kernel_series_column_matches_eigen_series_terms(self, symmetric_2x2):
        # the corrected kernels applied to the profile reproduce the
        # vector iterates behind the eigenfunction series
        split = split_for(symmetric_2x2)
        seq = pr.build_corrected_kernels(split, 6)
        ev = pr.BirmanSchwingerEvaluator(split)
        lam0 = pr.find_dominant(ev)
        term_norms = series_term_norms(ev, lam0, 6)
        rem_op = split.remainder.operator_matrix()
        vec = split.certificate.profile.values.copy()
        for n in range(6):
            assert term_norms[n] == pytest.approx(
                np.max(np.abs(vec)) / lam0 ** (n + 1), rel=1e-12
            )
            vec = rem_op @ vec
