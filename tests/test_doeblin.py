import dataclasses

import numpy as np
import pytest

import perron as pr
import perron.doeblin
from perron.errors import InvalidCertificateError
from conftest import count_calls, random_positive_kernel, save_certificate


class TestExtraction:
    def test_constant_kernel_is_exactly_rank_one(self):
        sp = pr.make_counting_space(4)
        k = pr.constant_kernel(sp, 3.0)
        cert = pr.extract_minorization(k, "row_min")
        np.testing.assert_allclose(cert.profile.values, 3.0)
        np.testing.assert_allclose(cert.functional.density, 0.25)
        # maximal alpha for this shape recovers the whole kernel
        split = pr.rank_one_split(k, cert)
        np.testing.assert_allclose(split.remainder.entries, 0.0, atol=1e-14)

    def test_symmetric_2x2_by_hand(self, symmetric_2x2):
        cert = pr.extract_minorization(symmetric_2x2, "row_min")
        np.testing.assert_allclose(cert.profile.values, [1.0, 1.0])
        np.testing.assert_allclose(cert.functional.density, [0.5, 0.5])
        assert cert.alpha == pytest.approx(2.0)
        split = pr.rank_one_split(symmetric_2x2, cert)
        np.testing.assert_allclose(split.remainder.entries, [[1.0, 0.0], [0.0, 1.0]])

    def test_chain_with_zero_entry_not_minorizable(self, two_state_chain):
        for strategy in ("row_min", "column_profile"):
            out = pr.extract_minorization(two_state_chain, strategy)
            assert isinstance(out, pr.NotMinorizable)

    def test_column_profile_valid_and_maximal(self):
        rng = np.random.default_rng(21)
        sp = pr.make_counting_space(6)
        k = random_positive_kernel(sp, rng)
        cert = pr.extract_minorization(k, "column_profile")
        report = pr.verify_certificate(k, cert)
        assert report.holds and report.strict_phi
        # alpha is maximal for the shape: any relative bump breaks it
        bumped = dataclasses.replace(cert, alpha=cert.alpha * (1 + 1e-10))
        assert not pr.verify_certificate(k, bumped).holds

    def test_row_min_maximality(self):
        rng = np.random.default_rng(22)
        sp = pr.make_counting_space(5)
        k = random_positive_kernel(sp, rng)
        cert = pr.extract_minorization(k, "row_min")
        bumped = dataclasses.replace(cert, alpha=cert.alpha * (1 + 1e-10))
        assert not pr.verify_certificate(k, bumped).holds

    def test_user_shape(self, symmetric_2x2):
        cert = pr.extract_minorization(
            symmetric_2x2, "user", profile=[1.0, 1.0], density=[1.0, 1.0]
        )
        assert cert.alpha == pytest.approx(1.0)
        assert pr.verify_certificate(symmetric_2x2, cert).holds

    def test_user_shape_without_positive_alpha(self, two_state_chain):
        out = pr.extract_minorization(
            two_state_chain, "user", profile=[1.0, 1.0], density=[1.0, 1.0]
        )
        assert isinstance(out, pr.NotMinorizable)

    def test_pairing_normalization_of_builtins(self):
        rng = np.random.default_rng(23)
        sp = pr.make_interval_space(0, 2, 30, "midpoint")
        k = random_positive_kernel(sp, rng)
        for strategy in ("row_min", "column_profile"):
            cert = pr.extract_minorization(k, strategy)
            assert pr.pair(cert.functional, sp.ones()) == pytest.approx(1.0, rel=1e-12)


class TestRowMinAlpha:
    """row_min finds alpha from the row minima in O(n), bit for bit as the
    pass over every entry of ``_maximal_alpha``."""

    @staticmethod
    def assert_matches_the_full_pass(k):
        cert = pr.extract_minorization(k, "row_min")
        prof, dens = cert.profile.values, cert.functional.density
        assert cert.alpha == perron.doeblin._maximal_alpha(k.entries, prof, dens)
        assert cert.alpha == old_maximal_alpha(k.entries, prof, dens)
        return cert

    def test_seeded_random_kernels(self):
        rng = np.random.default_rng(74)
        for n in (1, 2, 9, 64, 301):
            interval = pr.make_interval_space(0, 3, n, "gauss_legendre")
            for space in (pr.make_counting_space(n), interval):
                self.assert_matches_the_full_pass(random_positive_kernel(space, rng))
                entries = np.exp(3.0 * rng.standard_normal((n, n)))
                self.assert_matches_the_full_pass(pr.Kernel(entries, space))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(75)
        space = pr.make_interval_space(0, 1, 120, "midpoint")
        k = random_positive_kernel(space, rng)
        scaled = pr.Kernel(scale * k.entries, space)
        cert = self.assert_matches_the_full_pass(scaled)
        assert np.all(cert.profile.values * cert.functional.density > 0)

    def test_underflowing_shape_leaves_its_row_out_without_a_warning(self):
        # row 3 holds the least subnormal, so prof_3 * dens_3 rounds to 0:
        # that row gives no ratio, and no entry is divided by zero
        rng = np.random.default_rng(76)
        space = pr.make_counting_space(40)
        entries = random_positive_kernel(space, rng).entries.copy()
        entries[3] = 5e-324
        k = pr.Kernel(entries, space)
        cert = self.assert_matches_the_full_pass(k)
        shape = cert.profile.values * cert.functional.density
        assert shape[3] == 0.0 and np.all(np.delete(shape, 3) > 0)
        assert cert.alpha == min(entries[i].min() / shape[i] for i in range(40) if i != 3)


class TestVerification:
    def test_weakened_alpha_still_holds(self, symmetric_2x2):
        cert = pr.extract_minorization(symmetric_2x2, "row_min")
        weakened = dataclasses.replace(cert, alpha=0.5 * cert.alpha)
        assert pr.verify_certificate(symmetric_2x2, weakened).holds

    def test_doubled_alpha_fails_with_negative_slack(self, symmetric_2x2):
        cert = pr.extract_minorization(symmetric_2x2, "row_min")
        doubled = dataclasses.replace(cert, alpha=2.0 * cert.alpha)
        report = pr.verify_certificate(symmetric_2x2, doubled)
        assert not report.holds
        assert report.worst_slack < 0

    def test_power_certificate_for_chain_square(self, two_state_chain, counting2):
        # P^2 = [[1/2,1/2],[1/4,3/4]] > 0: columnwise minima give a density
        cert = pr.MinorizationCertificate(
            alpha=1.0,
            profile=counting2.ones(),
            functional=pr.WeightFunctional([0.25, 0.5], counting2),
            power=2,
        )
        report = pr.verify_certificate(two_state_chain, cert)
        assert report.holds and report.strict_phi


class TestSplit:
    def test_split_requires_valid_certificate(self, symmetric_2x2):
        cert = pr.extract_minorization(symmetric_2x2, "row_min")
        bad = dataclasses.replace(cert, alpha=10 * cert.alpha)
        with pytest.raises(InvalidCertificateError):
            pr.rank_one_split(symmetric_2x2, bad)

    def test_separable_kernel_splits_to_zero(self):
        sp = pr.make_counting_space(5)
        rng = np.random.default_rng(9)
        v = rng.uniform(0.2, 1, 5)
        u = rng.uniform(0.2, 1, 5)
        k = pr.separable_kernel(sp, v, u)
        cert = pr.extract_minorization(k, "user", profile=v, density=u)
        split = pr.rank_one_split(k, cert)
        np.testing.assert_allclose(split.remainder.entries, 0.0, atol=1e-13)

    def test_reconstruction_and_positivity(self):
        rng = np.random.default_rng(31)
        for n in (3, 7, 15):
            sp = pr.make_counting_space(n)
            k = random_positive_kernel(sp, rng)
            for strategy in ("row_min", "column_profile"):
                split = pr.rank_one_split(k, pr.extract_minorization(k, strategy))
                assert np.all(split.remainder.entries >= 0)
                recon = split.certificate.lower_bound_matrix() + split.remainder.entries
                np.testing.assert_allclose(recon, k.entries, rtol=0, atol=1e-12)

    def test_operator_split_identity(self):
        # applying K equals rank-one part plus remainder on random functions
        rng = np.random.default_rng(32)
        sp = pr.make_interval_space(0, 1, 25, "midpoint")
        k = random_positive_kernel(sp, rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        cert = split.certificate
        for _ in range(5):
            f = pr.GridFunction(rng.normal(size=25), sp)
            lhs = k.matvec(f.values)
            rhs = (
                cert.alpha * cert.profile.values * pr.pair(cert.functional, f)
                + split.remainder.matvec(f.values)
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_remainder_radius_strictly_below_kernel_radius(self):
        rng = np.random.default_rng(33)
        for n in (4, 9, 20):
            sp = pr.make_counting_space(n)
            k = random_positive_kernel(sp, rng)
            split = pr.rank_one_split(k, pr.extract_minorization(k))
            rho_k = pr.spectral_radius_oracle(k, tol=1e-11).rho
            rho_r = pr.spectral_radius_oracle(split.remainder, tol=1e-11).rho
            assert rho_r < rho_k - 10 * 1e-11


class TestPowerSearch:
    def test_chain_needs_two_steps(self, two_state_chain):
        cert, powered = pr.power_doeblin_search(two_state_chain, 8)
        assert cert.power == 2
        squared = pr.iterate_kernel(two_state_chain, 2)
        np.testing.assert_allclose(squared.entries, [[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_array_equal(powered.entries, squared.entries)
        assert pr.verify_certificate(two_state_chain, cert).holds

    def test_strictly_positive_kernel_needs_one(self, symmetric_2x2):
        cert, powered = pr.power_doeblin_search(symmetric_2x2, 8)
        assert cert.power == 1
        assert powered is symmetric_2x2

    def test_permutation_never_found(self, counting2):
        perm = pr.Kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), counting2)
        out = pr.power_doeblin_search(perm, 12)
        assert isinstance(out, pr.NotFoundWithin)
        assert out.n_max == 12


class TestPositivityImproving:
    def test_constant_kernel(self, constant_unit):
        cert = pr.extract_minorization(constant_unit)
        assert pr.positivity_improving_check(constant_unit, cert)

    def test_chain_square_certificate(self, two_state_chain):
        cert, _ = pr.power_doeblin_search(two_state_chain, 4)
        assert pr.positivity_improving_check(two_state_chain, cert)
        # direct spot check: indicator of the first state spreads out
        squared = pr.iterate_kernel(two_state_chain, 2)
        image = squared.matvec(np.array([1.0, 0.0]))
        np.testing.assert_allclose(image, [0.5, 0.25])
        assert np.all(image > 0)

    @pytest.mark.parametrize("alpha, zero_row, zero_entry, holds", [
        (0.01, False, False, True), (0.9, False, False, False), (0.01, True, False, False),
        (0.01, False, True, False),
    ])
    def test_exact_check_matches_the_basis_vectors(self, alpha, zero_row, zero_entry, holds):
        # every nonnegative f is a nonnegative sum of basis vectors, so the
        # property holds for all such f exactly when it holds for each e_j,
        # whose image is column j of K W
        rng = np.random.default_rng(80)
        sp = pr.make_interval_space(0, 1, 50, "midpoint")
        entries = rng.uniform(0.05, 1.05, (50, 50))
        entries[7] *= 0.0 if zero_row else 1.0
        profile, density = np.ones(50), np.ones(50)
        if zero_entry:
            # a zero entry under a profile that is zero at its row: the
            # certificate holds, but T e_3 vanishes at node 7
            entries[7, 3] = profile[7] = 0.0
        k = pr.Kernel(entries, sp)
        cert = pr.MinorizationCertificate(
            alpha, pr.GridFunction(profile, sp), pr.WeightFunctional(density, sp)
        )
        images = k.operator_matrix()
        floors = alpha * np.outer(profile, density * sp.weights)
        expected = bool(np.all(images > 0) and np.all(images - floors >= -1e-14))
        assert expected == holds
        assert pr.positivity_improving_check(k, cert) == holds
        assert pr.verify_certificate(k, cert).holds == (holds or zero_entry)

    def test_kernel_with_zero_row_fails(self, counting2):
        k = pr.Kernel(np.array([[0.0, 0.0], [1.0, 1.0]]), counting2)
        cert = pr.extract_minorization(k, "user", profile=[0.0, 1.0], density=[0.5, 0.5])
        assert isinstance(cert, pr.MinorizationCertificate)
        assert not pr.positivity_improving_check(k, cert)


class TestCertificateFiles:
    def test_roundtrip(self, tmp_path, symmetric_2x2):
        cert = pr.extract_minorization(symmetric_2x2)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        loaded = pr.load_certificate(path, symmetric_2x2.space)
        assert loaded.alpha == cert.alpha
        assert loaded.power == cert.power
        np.testing.assert_allclose(loaded.profile.values, cert.profile.values)
        np.testing.assert_allclose(loaded.functional.density, cert.functional.density)
        assert pr.verify_certificate(symmetric_2x2, loaded).holds


def old_maximal_alpha(entries, profile, density):
    """The maximal alpha as first written: a gather over the positive shape."""
    shape = np.outer(profile, density)
    mask = shape > 0
    if not mask.any():
        return 0.0
    return float(np.min(entries[mask] / shape[mask]))


def old_remainder(kernel, cert):
    """The split remainder as first written: subtract, then zero what is negative."""
    remainder = kernel.entries - cert.alpha * np.outer(cert.profile.values, cert.functional.density)
    return np.where(remainder < 0, 0.0, remainder)


def certificate_cases():
    rng = np.random.default_rng(70)
    for n in (4, 17, 40):
        for space in (pr.make_counting_space(n), pr.make_interval_space(0, 1, n, "gauss_legendre")):
            k = random_positive_kernel(space, rng)
            yield k, pr.extract_minorization(k, "row_min")
            yield k, pr.extract_minorization(k, "column_profile")
            yield k, pr.extract_minorization(
                k, "user", profile=rng.uniform(0.1, 1.0, n), density=rng.uniform(0.1, 1.0, n)
            )
    # a user shape with zeros, on a kernel with zeros
    entries = rng.uniform(0.1, 1.0, (9, 9))
    entries[2, :] = 0.0
    entries[:, 5] = 0.0
    k = pr.Kernel(entries, pr.make_counting_space(9))
    profile = rng.uniform(0.1, 1.0, 9)
    profile[[2, 7]] = 0.0
    density = rng.uniform(0.1, 1.0, 9)
    density[[0, 5]] = 0.0
    yield k, pr.extract_minorization(k, "user", profile=profile, density=density)
    k = pr.gaussian_kernel(pr.make_interval_space(0, 1, 50, "midpoint"), 0.2)
    yield k, pr.extract_minorization(k, "row_min")


class TestFusedForms:
    def test_alpha_and_remainder_equal_the_first_formulas_bit_for_bit(self):
        cases = list(certificate_cases())
        assert {c.functional.strictly_positive for _, c in cases} == {True, False}
        for k, cert in cases:
            assert isinstance(cert, pr.MinorizationCertificate)
            prof, dens = cert.profile.values, cert.functional.density
            assert cert.alpha == old_maximal_alpha(k.entries, prof, dens)
            remainder = pr.rank_one_split(k, cert).remainder.entries
            assert remainder.tobytes() == old_remainder(k, cert).tobytes()

    def test_shape_with_no_positive_entry_gives_no_alpha(self, symmetric_2x2):
        out = pr.extract_minorization(symmetric_2x2, "user", profile=[0.0, 0.0], density=[1.0, 1.0])
        assert isinstance(out, pr.NotMinorizable)

    def test_invalid_certificate_message_is_unchanged(self):
        rng = np.random.default_rng(71)
        k = random_positive_kernel(pr.make_counting_space(12), rng)
        cert = pr.extract_minorization(k, "row_min")
        bad = dataclasses.replace(cert, alpha=3.0 * cert.alpha)
        worst = float((k.entries - bad.lower_bound_matrix()).min())
        with pytest.raises(InvalidCertificateError) as info:
            pr.rank_one_split(k, bad)
        assert str(info.value) == f"certificate fails with worst slack {worst:.3e}"
        report = pr.verify_certificate(k, bad)
        assert report.worst_slack == worst and not report.holds


def outer_certificate(kernel, strategy):
    """Profile and density of the built-in shapes from whole n x n arrays."""
    entries, w = kernel.entries, kernel.space.weights
    if strategy == "row_min":
        return entries.min(axis=1), np.full(kernel.size, 1.0 / kernel.space.total_mass())
    row_sums = (entries * w[np.newaxis, :]).sum(axis=1)
    prof = row_sums / row_sums.max()
    dens = (entries / prof[:, np.newaxis]).min(axis=0)
    return prof, dens / float(np.dot(dens, w))


def outer_alpha(entries, profile, density):
    """The maximal alpha from one n x n shape, divided where it is positive."""
    ratio = np.outer(profile, density)
    mask = ratio > 0
    if not mask.any():
        return 0.0
    np.divide(entries, ratio, out=ratio, where=mask)
    return float(np.min(ratio, where=mask, initial=np.inf))


def outer_remainder(kernel, cert):
    """The clamped remainder and the worst slack from one n x n gap."""
    gap = np.outer(cert.profile.values, cert.functional.density)
    gap *= cert.alpha
    np.subtract(kernel.entries, gap, out=gap)
    return np.maximum(gap, 0.0), float(gap.min())


class TestRowBlocks:
    """The row-blocked certificate and split against whole-array references."""

    N = 301  # no block size divides it

    def kernels(self):
        rng = np.random.default_rng(72)
        yield pr.gaussian_kernel(pr.make_interval_space(0, 1, self.N, "gauss_legendre"), 0.3)
        yield pr.Kernel(np.exp(2.0 * rng.standard_normal((self.N, self.N))),
                        pr.make_counting_space(self.N))

    @pytest.mark.parametrize("block_entries", [None, 1000, 4000])
    @pytest.mark.parametrize("strategy", ["row_min", "column_profile"])
    def test_builtin_shapes_match_bit_for_bit(self, strategy, block_entries, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(perron.doeblin, "BLOCK_ENTRIES", block_entries)
        blocks = perron.doeblin._row_blocks(self.N)
        assert len(blocks) > 1 and self.N % (blocks[0].stop - blocks[0].start) != 0
        for k in self.kernels():
            cert = pr.extract_minorization(k, strategy)
            prof, dens = outer_certificate(k, strategy)
            assert cert.profile.values.tobytes() == prof.tobytes()
            assert cert.functional.density.tobytes() == dens.tobytes()
            assert cert.alpha == outer_alpha(k.entries, prof, dens)
            remainder, worst = outer_remainder(k, cert)
            assert pr.rank_one_split(k, cert).remainder.entries.tobytes() == remainder.tobytes()
            assert pr.verify_certificate(k, cert).worst_slack == worst

    @pytest.mark.parametrize("block_entries", [None, 1000])
    @pytest.mark.parametrize("strategy", ["row_min", "column_profile"])
    def test_clamp_lift_and_defect_match_bit_for_bit(self, strategy, block_entries, monkeypatch):
        # the lift is max(0, -least gap) per row, so the clamped remainder
        # lies within it of the unclamped gap; the defect is the largest
        # modulus of the n x n sum, entry for entry
        if block_entries is not None:
            monkeypatch.setattr(perron.doeblin, "BLOCK_ENTRIES", block_entries)
        for k in self.kernels():
            cert = pr.extract_minorization(k, strategy)
            split = pr.rank_one_split(k, cert)
            gap = np.outer(cert.profile.values, cert.functional.density)
            gap *= cert.alpha
            np.subtract(k.entries, gap, out=gap)
            lift = np.maximum(-gap.min(axis=1), 0.0)
            assert split.clamp_lift.tobytes() == lift.tobytes()
            assert np.all(split.remainder.entries - gap <= lift[:, np.newaxis])
            recon = cert.lower_bound_matrix() + split.remainder.entries - k.entries
            assert split.reconstruction_defect() == float(np.abs(recon).max())

    @pytest.mark.parametrize("block_entries", [None, 1000])
    def test_user_shapes_with_zeros_match_bit_for_bit(self, block_entries, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(perron.doeblin, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(73)
        n = self.N
        tiny = np.full(n, 1e-200)  # positive factors whose products underflow to zero
        tiny[:7] = 1.0
        zeros_p, zeros_d = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        zeros_p[::4] = 0.0
        zeros_d[1::9] = 0.0
        for k in self.kernels():
            for prof, dens in ((zeros_p, zeros_d), (tiny, tiny)):
                cert = pr.extract_minorization(k, "user", profile=prof, density=dens)
                assert cert.alpha == outer_alpha(k.entries, prof, dens)
                remainder, worst = outer_remainder(k, cert)
                report = pr.verify_certificate(k, cert)
                assert report.worst_slack == worst
                if report.holds:
                    split = pr.rank_one_split(k, cert)
                    assert split.remainder.entries.tobytes() == remainder.tobytes()
        nowhere = pr.extract_minorization(k, "user", profile=np.zeros(n), density=dens)
        assert isinstance(nowhere, pr.NotMinorizable)


def subnormal_row_kernel(rng):
    """A positive 40 x 40 kernel whose row 7 is subnormal."""
    entries = rng.uniform(0.05, 1.05, (40, 40))
    entries[7] = rng.uniform(1000.0, 4000.0, 40) * 5e-324
    return pr.Kernel(entries, pr.make_counting_space(40))


def flat_kernels():
    """Seeded random kernels, 1e+-300 times one, and one with a subnormal row."""
    rng = np.random.default_rng(74)
    for n in (3, 40, 301):
        for space in (pr.make_counting_space(n), pr.make_interval_space(0, 1, n, "gauss_legendre")):
            k = random_positive_kernel(space, rng)
            yield k
    for c in (1e300, 1e-300):
        yield pr.Kernel(c * k.entries, k.space)
    yield subnormal_row_kernel(rng)


def flat_cases():
    """(kernel, certificate with a flat density): the row_min certificate of
    each of ``flat_kernels``, the same with alpha bumped so that the check
    fails or nearly does, and a flat user shape."""
    rng = np.random.default_rng(75)
    for k in flat_kernels():
        cert = pr.extract_minorization(k, "row_min")
        yield k, cert
        for bump in (1 + 1e-15, 1 + 1e-9, 3.0):
            yield k, dataclasses.replace(cert, alpha=cert.alpha * bump)
        profile = rng.uniform(0.1, 1.0, k.size) * k.max_entry
        density = pr.WeightFunctional(np.full(k.size, 0.3), k.space)
        yield k, pr.MinorizationCertificate(0.5, pr.GridFunction(profile, k.space), density)


def entrywise_report(kernel, cert):
    """The report of ``_gap`` from its pass over every entry of the gap."""
    return perron.doeblin._gap(kernel, cert, out=np.empty((kernel.size, kernel.size)))


class TestFlatCheck:
    """The certificate check of a flat density is O(n), from the kernel's
    row minima, with the report of the entrywise pass bit for bit."""

    def test_worst_slack_is_that_of_the_entrywise_pass_bit_for_bit(self):
        verdicts = set()
        for k, cert in flat_cases():
            assert cert.functional.density.min() == cert.functional.density.max()
            flat = pr.verify_certificate(k, cert)
            full = entrywise_report(k, cert)
            assert np.float64(flat.worst_slack).tobytes() == np.float64(full.worst_slack).tobytes()
            assert flat.worst_slack == outer_remainder(k, cert)[1]
            assert flat == full
            verdicts.add(flat.holds)
        assert verdicts == {True, False}

    def test_subnormal_row_leaves_a_subnormal_slack(self):
        # the case the monotone-rounding argument must also cover: row 7's
        # gap is formed from subnormal entries and a subnormal product
        k = subnormal_row_kernel(np.random.default_rng(76))
        cert = pr.extract_minorization(k, "row_min")
        shape = (cert.profile.values[7] * cert.functional.density[0]) * cert.alpha
        assert 0.0 < shape < np.finfo(float).tiny
        assert pr.verify_certificate(k, cert) == entrywise_report(k, cert)

    def test_a_flat_split_makes_no_pass_over_the_kernel(self, monkeypatch):
        passes = count_calls(monkeypatch, perron.doeblin, "_row_blocks")
        k = random_positive_kernel(pr.make_counting_space(30), np.random.default_rng(77))
        split = pr.rank_one_split(k, pr.extract_minorization(k, "row_min"))
        assert passes == []
        split.remainder  # built on first read, by one pass
        assert len(passes) == 1

    def test_a_flat_clamp_lift_makes_no_pass_over_the_kernel(self, monkeypatch):
        passes = count_calls(monkeypatch, perron.doeblin, "_row_blocks")
        for k, cert in flat_cases():
            if not pr.verify_certificate(k, cert).holds:
                continue
            lift = pr.rank_one_split(k, cert).clamp_lift
            gap = k.entries - cert.lower_bound_matrix()
            assert lift.tobytes() == np.maximum(-gap.min(axis=1), 0.0).tobytes()
        assert passes == []

    def test_a_flat_user_certificate_with_too_large_alpha_is_refused(self):
        k = random_positive_kernel(pr.make_counting_space(12), np.random.default_rng(78))
        density = np.full(12, 0.5)
        cert = pr.extract_minorization(k, "user", profile=k.row_minima, density=density)
        assert pr.rank_one_split(k, cert).certificate is cert
        bad = dataclasses.replace(cert, alpha=cert.alpha * (1 + 1e-9))
        worst = float((k.entries - bad.lower_bound_matrix()).min())
        with pytest.raises(InvalidCertificateError) as info:
            pr.rank_one_split(k, bad)
        assert str(info.value) == f"certificate fails with worst slack {worst:.3e}"

    def test_row_min_certificate_is_that_of_the_entries_bit_for_bit(self):
        for k in flat_kernels():
            cert = pr.extract_minorization(k, "row_min")
            prof = k.entries.min(axis=1)
            dens = np.full(k.size, 1.0 / k.space.total_mass())
            assert cert.profile.values.tobytes() == prof.tobytes()
            assert cert.functional.density.tobytes() == dens.tobytes()
            assert cert.alpha == old_maximal_alpha(k.entries, prof, dens)

class TestLazyRemainder:
    """The split writes no remainder until one is read."""

    def test_built_on_first_read_and_kept(self):
        k = random_positive_kernel(pr.make_counting_space(20), np.random.default_rng(79))
        cert = pr.extract_minorization(k, "row_min")
        split = pr.rank_one_split(k, cert)
        first = split.remainder
        assert first is split.remainder
        assert first.entries.tobytes() == outer_remainder(k, cert)[0].tobytes()

    def test_read_only(self):
        k = random_positive_kernel(pr.make_counting_space(20), np.random.default_rng(80))
        split = pr.rank_one_split(k, pr.extract_minorization(k, "row_min"))
        other = pr.Kernel(np.ones((20, 20)), k.space)
        with pytest.raises(TypeError):
            dataclasses.replace(split, remainder=other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            split.remainder = other
