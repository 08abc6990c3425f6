import warnings

import numpy as np
import pytest
from scipy.linalg import schur

import perron as pr
import perron.resolvent
from perron.cli import _dcurve
from perron.errors import BelowSpectralRadiusError, IllConditionedError
from perron.resolvent import MAX_CONDITION, _certified_condition
from perron.spectral import collatz_wielandt
from conftest import (
    config_kernels,
    count_calls,
    count_solves,
    perturb_top_value,
    random_positive_kernel,
    remainder_radius,
)


def resolve_operator(ev, lam, f):
    """(lam*I - T)^-1 f through the factorized resolvent
    R_lam + alpha (R_lam u) x (phi o R_lam) / D(lam) of the evaluator."""
    rf = ev.resolve_remainder(lam, f)
    correction = ev.alpha * pr.pair(ev.functional, rf) / ev.value(lam)
    return ev.space.function(rf.values + ev.profile_resolvent(lam).values * correction)


@pytest.fixture
def symmetric_evaluator(symmetric_2x2):
    split = pr.rank_one_split(symmetric_2x2, pr.extract_minorization(symmetric_2x2))
    return pr.BirmanSchwingerEvaluator(split)


@pytest.fixture
def constant_evaluator(constant_unit):
    split = pr.rank_one_split(constant_unit, pr.extract_minorization(constant_unit))
    return pr.BirmanSchwingerEvaluator(split)


class TestRemainderResolvent:
    def test_zero_remainder_divides_by_lambda(self, constant_evaluator):
        ev = constant_evaluator
        assert remainder_radius(ev) == 0.0
        v = ev.space.function(np.linspace(0, 1, ev.space.size))
        out = ev.resolve_remainder(2.0, v)
        np.testing.assert_allclose(out.values, v.values / 2.0)

    def test_large_lambda_two_term_neumann(self, symmetric_evaluator):
        ev = symmetric_evaluator
        v = ev.space.function([1.0, -2.0])
        lam = 1e7
        out = ev.resolve_remainder(lam, v)
        r_op = ev.split.remainder.operator_matrix()
        two_term = v.values / lam + (r_op @ v.values) / lam**2
        np.testing.assert_allclose(out.values, two_term, rtol=1e-12)

    def test_residual_of_solve(self, symmetric_evaluator):
        ev = symmetric_evaluator
        v = ev.space.function([0.3, 0.7])
        lam = 2.5
        x = ev.resolve_remainder(lam, v)
        residual = lam * x.values - ev.split.remainder.operator_matrix() @ x.values
        np.testing.assert_allclose(residual, v.values, rtol=1e-10)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(42)
        sp = pr.make_counting_space(15)
        k = random_positive_kernel(sp, rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        ev = pr.BirmanSchwingerEvaluator(split)
        for _ in range(10):
            v = sp.function(rng.uniform(0, 1, 15))
            out = ev.resolve_remainder(remainder_radius(ev) * 1.5 + 0.5, v)
            assert out.is_nonnegative(slack=1e-12)

    def test_below_radius_rejected(self, symmetric_evaluator):
        with pytest.raises(BelowSpectralRadiusError):
            symmetric_evaluator.resolve_remainder(0.5, symmetric_evaluator.space.ones())

    def test_resolvent_identity(self, symmetric_evaluator):
        # R_lam - R_nu = (nu - lam) R_lam R_nu
        ev = symmetric_evaluator
        v = ev.space.function([1.0, 0.5])
        lam, nu = 2.3, 4.1
        lhs = ev.resolve_remainder(lam, v).values - ev.resolve_remainder(nu, v).values
        rhs = (nu - lam) * ev.resolve_remainder(lam, ev.resolve_remainder(nu, v)).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


class TestScalarFunction:
    def test_pure_rank_one_closed_form(self, constant_evaluator):
        # remainder 0: D(lam) = 1 - 1/lam, root at 1
        ev = constant_evaluator
        for lam in (0.5, 1.0, 2.0, 10.0):
            assert ev.value(lam) == pytest.approx(1.0 - 1.0 / lam, abs=1e-12)
        assert ev.derivative(1.0) == pytest.approx(1.0, rel=1e-12)
        assert ev.derivative(2.0) == pytest.approx(0.25, rel=1e-12)

    def test_limit_at_infinity(self, symmetric_evaluator):
        assert symmetric_evaluator.value(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_root_at_three_for_symmetric_2x2(self, symmetric_evaluator):
        # closed form for this kernel: D(lam) = 1 - 2/(lam - 1)
        ev = symmetric_evaluator
        for lam in (1.5, 2.0, 3.0, 5.0):
            assert ev.value(lam) == pytest.approx(1 - 2 / (lam - 1), rel=1e-12)
        assert abs(ev.value(3.0)) < 1e-13

    def test_monotone_increasing(self):
        rng = np.random.default_rng(44)
        sp = pr.make_counting_space(12)
        k = random_positive_kernel(sp, rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        ev = pr.BirmanSchwingerEvaluator(split)
        grid = np.geomspace(remainder_radius(ev) * 1.001, 10 * ev.operator_norm, 200)
        values = [ev.value(x) for x in grid]
        assert np.all(np.diff(values) > 0)
        # the paired quantity alpha*phi[R_lam u] = 1 - D decreases
        assert np.all(np.diff([1 - v for v in values]) < 0)

    def test_derivative_positive_and_matches_finite_difference(self):
        rng = np.random.default_rng(45)
        sp = pr.make_counting_space(9)
        k = random_positive_kernel(sp, rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        ev = pr.BirmanSchwingerEvaluator(split)
        for lam in (4.0, 2 * remainder_radius(ev) + 1.0):
            an = ev.derivative(lam)
            assert an > 0
            h = 1e-5 * lam
            fd = (ev.value(lam + h) - ev.value(lam - h)) / (2 * h)
            assert an == pytest.approx(fd, rel=1e-6)


class TestOperatorResolvent:
    def test_constant_kernel_fixed_point(self, constant_evaluator):
        # (2I - T)^-1 1 = 1 since T1 = 1
        ev = constant_evaluator
        out = resolve_operator(ev, 2.0, ev.space.ones())
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)

    def test_large_lambda(self, symmetric_evaluator):
        ev = symmetric_evaluator
        f = ev.space.function([1.0, 2.0])
        lam = 1e9
        out = resolve_operator(ev, lam, f)
        np.testing.assert_allclose(out.values, f.values / lam, rtol=1e-8)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(46)
        sp = pr.make_interval_space(0, 1, 50, "midpoint")
        k = random_positive_kernel(sp, rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        ev = pr.BirmanSchwingerEvaluator(split)
        t_op = k.operator_matrix()
        for lam in (2.0 * ev.operator_norm, 5.0 * ev.operator_norm):
            f = sp.function(rng.normal(size=50))
            out = resolve_operator(ev, lam, f)
            dense = np.linalg.solve(lam * np.eye(50) - t_op, f.values)
            np.testing.assert_allclose(out.values, dense, rtol=1e-9, atol=1e-12)

    def test_lu_cache_does_not_change_results(self, symmetric_evaluator):
        ev = symmetric_evaluator
        f = ev.space.function([0.2, 0.9])
        first = resolve_operator(ev, 4.0, f).values
        second = resolve_operator(ev, 4.0, f).values  # cached factorization
        np.testing.assert_array_equal(first, second)

    def test_lu_cache_holds_at_most_two_shifts(self):
        sp = pr.make_interval_space(0, 1, 60, "midpoint")
        res = pr.solve(pr.gaussian_kernel(sp, 0.35))
        ev = res.evaluator
        assert len(ev._lu_cache) <= 2
        _dcurve(ev, None, None, 200, remainder_radius(ev), res.lambda0)
        assert len(ev._lu_cache) <= 2

    def test_profile_solves_are_dropped_with_their_shift(self, monkeypatch):
        sp = pr.make_interval_space(0, 1, 40, "midpoint")
        k = pr.gaussian_kernel(sp, 0.3)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, pr.extract_minorization(k)))
        solves = count_solves(monkeypatch)
        lams = [k * ev.operator_norm for k in (2.0, 3.0, 4.0)]
        first = [(ev.value(lam), ev.derivative(lam)) for lam in lams]
        # per shift: the solve against 1 that certifies it, R_lam u and R_lam^2 u
        assert len(solves) == 9
        # value and derivative at a cached shift solve nothing
        assert (ev.value(lams[-1]), ev.derivative(lams[-1])) == first[-1]
        assert len(solves) == 9
        # the first shift was evicted with its vectors: solved again, same result
        assert (ev.value(lams[0]), ev.derivative(lams[0])) == first[0]
        assert len(solves) == 12
        assert len(ev._lu_cache) == 2

    def test_condition_is_the_dense_condition_number(self):
        rng = np.random.default_rng(48)
        k = random_positive_kernel(pr.make_interval_space(0, 1, 30, "midpoint"), rng)
        split = pr.rank_one_split(k, pr.extract_minorization(k))
        ev = pr.BirmanSchwingerEvaluator(split)
        for lam in (1.5 * split.remainder.weighted_inf_norm(), 4.0 * ev.operator_norm):
            shifted = lam * np.eye(30) - ev.split.remainder.operator_matrix()
            dense = np.linalg.cond(shifted, p=np.inf)
            assert ev.condition(lam) == pytest.approx(dense, rel=1e-10)

    def test_left_solve_matches_dense_transposed_solve(self):
        rng = np.random.default_rng(47)
        sp = pr.make_interval_space(0, 1, 40, "midpoint")
        k = random_positive_kernel(sp, rng)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, pr.extract_minorization(k)))
        lam = 2.0 * ev.operator_norm
        shifted = lam * np.eye(40) - k.operator_matrix() + ev.alpha * np.outer(
            ev.profile.values, ev.functional.acting_vector()
        )
        dense = np.linalg.solve(shifted.T, ev.functional.acting_vector())
        np.testing.assert_allclose(ev.left_remainder_solve(lam), dense, rtol=1e-10)


class TestFloat64Factors:
    """A shift with no compression to solve through is factored once, in
    float64, and solved directly."""

    @staticmethod
    def factors_at(result):
        return result.evaluator._lu_cache[result.lambda0].factors[0]

    @pytest.mark.parametrize("sigma", [0.35, 0.1])
    def test_shifts_below_the_compression_floor_take_float64_factors(self, sigma):
        # sigma = 0.1: rho(R) / lambda0 = 0.9999992, condition about 3e6
        sp = pr.make_interval_space(0, 1, 200, "midpoint")
        assert self.factors_at(pr.solve(pr.gaussian_kernel(sp, sigma))).dtype == np.float64

    def test_each_shift_is_factored_once(self, monkeypatch):
        # the first 64 matrices of the seed-1 log-normal pool: most shifts
        # near their roots are ill-conditioned or below rho(R), and each
        # shift, refused or not, costs exactly one LU
        rng = np.random.default_rng(1)
        certified, factored = [], []
        real_certify = pr.BirmanSchwingerEvaluator._certify
        real_factor = pr.BirmanSchwingerEvaluator._factor

        def certifying(self, entry, norm):
            certified.append(entry.lam)
            return real_certify(self, entry, norm)

        def factoring(self, entry):
            factored.append(entry.lam)
            return real_factor(self, entry)

        monkeypatch.setattr(pr.BirmanSchwingerEvaluator, "_certify", certifying)
        monkeypatch.setattr(pr.BirmanSchwingerEvaluator, "_factor", factoring)
        lu_calls = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        for _ in range(64):
            n = int(rng.integers(20, 61))
            a = np.exp(4.0 * rng.standard_normal((n, n)))
            res = pr.solve(pr.Kernel(a, pr.make_counting_space(n)))
            oracle = np.abs(np.linalg.eigvals(a)).max()
            assert res.lambda0 == pytest.approx(oracle, rel=1e-10)
        assert factored == certified
        assert len(lu_calls) == len(factored)

    @pytest.mark.parametrize("c", [1e-300, 1e-42, 1e250, 1e300])
    def test_lambda0_scales_with_the_kernel(self, c):
        # at 1e-300 and 1e250 the residuals and the compression's probe
        # norms of c K under- or overflow double; scaled by powers of two
        # none of them does.  n = 200 takes float64 factors, n = 600 the
        # compression.
        for n in (200, 600):
            sp = pr.make_interval_space(0, 1, n, "midpoint")
            k = pr.gaussian_kernel(sp, 0.35)
            ck = pr.Kernel(c * k.entries, sp)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = pr.solve(ck)
                assert ck.compression.rank == k.compression.rank
            entry = scaled.evaluator._lu_cache[scaled.lambda0]
            if n < perron.resolvent.COMPRESSED_SOLVE_MIN_DIM:
                assert entry.factors[0].dtype == np.float64
            else:
                assert entry.factors is None
            assert scaled.lambda0 == pytest.approx(c * pr.solve(k).lambda0, rel=1e-14)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_refined_solves_meet_the_stopping_rule(self, seed):
        rng = np.random.default_rng(seed)
        k = random_positive_kernel(pr.make_interval_space(0, 1, 60, "midpoint"), rng)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, pr.extract_minorization(k)))
        assert_refined_solves(ev, 1.5 * ev.operator_norm, rng)
        assert ev._lu_cache[1.5 * ev.operator_norm].factors[0].dtype == np.float64


def assert_refined_solves(ev, lam, rng):
    """A solve and a transposed solve at lam meet the stopping rule of the
    refinement and agree with dense float64 solves to the accuracy the
    rule implies."""
    n = ev.space.size
    a = lam * np.eye(n) - ev.split.remainder.operator_matrix()
    b = rng.normal(size=n)
    x = ev.resolve_remainder(lam, ev.space.function(b)).values
    z = ev.left_remainder_solve(lam)
    kappa = np.linalg.cond(a, p=np.inf)
    unit = np.finfo(float).eps / 2
    for matrix, rhs, sol in ((a, b, x), (a.T, ev.functional.acting_vector(), z)):
        rule = np.sqrt(n) * unit * np.abs(matrix).sum(axis=1).max() * np.abs(sol).max()
        assert np.abs(rhs - matrix @ sol).max() <= rule
        dense = np.linalg.solve(matrix, rhs)
        assert np.abs(sol - dense).max() <= 4 * kappa * np.sqrt(n) * unit * np.abs(dense).max()


def pointwise_curve(ev, lams):
    return (
        np.array([ev.value(lam) for lam in lams]),
        np.array([ev.derivative(lam) for lam in lams]),
    )


CONFIG_CASES = list(config_kernels())
CURVE_KERNELS = [
    (f"seed{seed}-n{n}", random_positive_kernel(pr.make_counting_space(n), np.random.default_rng(seed)))
    for seed, n in ((60, 7), (61, 25), (62, 80))
] + [
    (f"lognormal{seed}", pr.Kernel(
        np.exp(1.5 * np.random.default_rng(seed).standard_normal((30, 30))),
        pr.make_counting_space(30),
    ))
    for seed in (63, 64)
]


def exp_abs_kernel(space):
    x = space.nodes
    return pr.Kernel(np.exp(-np.abs(x[:, None] - x[None, :])), space)


def symmetric_counting_kernel(n, seed):
    a = np.random.default_rng(seed).uniform(0.05, 1.05, (n, n))
    return pr.Kernel(a + a.T, pr.make_counting_space(n))


def symmetric_lognormal_kernel(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return pr.Kernel(np.exp(a + a.T), pr.make_counting_space(n))


RULES = ("midpoint", "trapezoid", "gauss_legendre")
SYMMETRIC_KERNELS = (
    [
        (f"gauss{sigma}-{rule}", pr.gaussian_kernel(pr.make_interval_space(0, 1, 120, rule), sigma))
        for sigma in (0.15, 0.35)
        for rule in RULES
    ]
    + [(f"expabs-{rule}", exp_abs_kernel(pr.make_interval_space(0, 1, 120, rule))) for rule in RULES]
    + [("counting-n25", symmetric_counting_kernel(25, 66))]
)


class TestSymmetricCurve:
    """Symmetric kernels take one eigendecomposition of T instead of a
    Schur form of R; the curve must not tell the two routes apart."""

    @pytest.mark.parametrize(
        "kernel", [k for _, k in SYMMETRIC_KERNELS], ids=[i for i, _ in SYMMETRIC_KERNELS]
    )
    def test_matches_pointwise(self, kernel):
        res = pr.solve(kernel)
        ev = res.evaluator
        # lambda0, where D vanishes and the top eigenvalue's pole is divided out
        lams = np.append(np.geomspace(remainder_radius(ev) * 1.001, 10 * ev.operator_norm, 40), res.lambda0)
        d, dp = ev.curve(lams)
        d_ref, dp_ref = pointwise_curve(ev, lams)
        np.testing.assert_allclose(d, d_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-9)

    def test_route_follows_the_symmetry_of_the_kernel(self, monkeypatch):
        calls = {name: count_calls(monkeypatch, perron.resolvent, name) for name in ("schur", "eigh")}
        symmetric = symmetric_counting_kernel(20, 67)
        entries = symmetric.entries.copy()
        entries[3, 5] = np.nextafter(entries[3, 5], np.inf)  # one ulp off symmetry
        gaussian = pr.gaussian_kernel(pr.make_interval_space(0, 1, 200, "midpoint"), 0.35)
        for kernel, route in (
            (symmetric, "eigh"),
            (pr.Kernel(entries, symmetric.space), "schur"),
            (random_positive_kernel(symmetric.space, np.random.default_rng(68)), "schur"),
            (gaussian, "compressed"),
        ):
            for counted in calls.values():
                counted.clear()
            ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, pr.extract_minorization(kernel)))
            ev.curve(np.geomspace(remainder_radius(ev) * 1.01, 10 * ev.operator_norm, 20))
            rank = {"eigh": kernel.size, "schur": None, "compressed": perron.kernel_op.COMPRESSION_BLOCK}
            assert ev.curve_route()["route"] == route
            assert ev.curve_route()["rank"] == rank[route]
            # the compression's own eigh is k x k; only the dense routes factor n x n
            n_by_n = {name: counted.count((kernel.size, kernel.size)) for name, counted in calls.items()}
            assert n_by_n == {"schur": int(route == "schur"), "eigh": int(route == "eigh")}

    @pytest.mark.parametrize("rule", RULES)
    def test_both_routes_give_the_condition_guard_of_a_dense_solve(self, rule):
        # the guard reads ||(lam - R)^-1 1||_inf; the symmetric route builds
        # that vector from the eigenbasis with the top pole divided out
        res = pr.solve(pr.gaussian_kernel(pr.make_interval_space(0, 1, 80, rule), 0.15))
        ev = res.evaluator
        lams = np.append(np.geomspace(remainder_radius(ev) * 1.001, 10 * ev.operator_norm, 20), res.lambda0)
        shifted = lams[:, None, None] * np.eye(80) - ev.split.remainder.operator_matrix()
        dense = np.linalg.solve(shifted, np.ones((lams.size, 80, 1)))[..., 0].T
        for route in (ev._symmetric_resolvents, ev._schur_resolvents):
            np.testing.assert_allclose(route(lams)[2], dense, rtol=1e-9)


class TestCompressedCurve:
    """Symmetric kernels from 4 * COMPRESSION_BLOCK nodes on take the
    kernel's low-rank compression where its probe bound reaches the
    backward error of a dense eigh, and the dense eigh where it does not."""

    @pytest.mark.parametrize("sigma", [0.1, 0.35, 0.4])
    def test_rank_rule_matches_pointwise(self, sigma):
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), sigma)
        res = pr.solve(kernel)
        ev = res.evaluator
        lams = np.append(np.geomspace(remainder_radius(ev) * 1.001, 10 * ev.operator_norm, 40), res.lambda0)
        d, dp = ev.curve(lams)
        route = ev.curve_route()
        assert route["route"] == "compressed"
        assert route["rank"] == perron.kernel_op.COMPRESSION_BLOCK
        assert route["probe_bound"] <= 600 * np.finfo(float).eps * res.lambda0
        d_ref, dp_ref = pointwise_curve(ev, lams)
        np.testing.assert_allclose(d, d_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(dp[:-1], dp_ref[:-1], rtol=1e-9)
        # at lambda0 (condition 3.3e6 for sigma = 0.1) the LU path itself
        # carries about kappa eps: the bound of bs_curve_matches_lu
        kappa_eps = ev.condition(res.lambda0) * np.finfo(float).eps
        assert abs(dp[-1] - dp_ref[-1]) <= max(1e-9, 2.0 * kappa_eps) * dp_ref[-1]

    @pytest.mark.parametrize(
        "kernel",
        [
            exp_abs_kernel(pr.make_interval_space(0, 1, 600, "midpoint")),
            symmetric_lognormal_kernel(600, 69),
        ],
        ids=["expabs-n600", "lognormal-n600"],
    )
    def test_full_rank_kernels_fall_back_to_eigh(self, kernel, monkeypatch):
        assert kernel.symmetric
        calls = count_calls(monkeypatch, perron.resolvent, "eigh")
        qrs = count_calls(monkeypatch, perron.kernel_op, "qr")
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, pr.extract_minorization(kernel)))
        lams = np.geomspace(remainder_radius(ev) * 1.01, 10 * ev.operator_norm, 20)
        d, dp = ev.curve(lams)
        assert kernel.compression is None
        # one block with one power step is tried before the fallback
        assert qrs == [(kernel.size, perron.kernel_op.COMPRESSION_BLOCK)] * 2
        assert ev.curve_route() == {"route": "eigh", "rank": kernel.size, "probe_bound": None}
        assert calls.count((kernel.size, kernel.size)) == 1
        d_ref, dp_ref = pointwise_curve(ev, lams)
        np.testing.assert_allclose(d, d_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-9)

    def test_compression_is_made_once_per_kernel_and_repeats(self, monkeypatch):
        builds = count_calls(monkeypatch, perron.kernel_op, "compress_symmetric")
        space = pr.make_interval_space(0, 1, 300, "midpoint")
        kernel = pr.gaussian_kernel(space, 0.35)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, pr.extract_minorization(kernel)))
        lams = np.geomspace(remainder_radius(ev) * 1.01, 10 * ev.operator_norm, 20)
        first = ev.curve(lams)
        assert ev.curve(lams)[0] is not first[0]
        pr.convergence_study(kernel, 0.5, 0.5, (0.2, 0.1), 3)
        assert len(builds) == 1
        again = pr.gaussian_kernel(space, 0.35)
        for a, b in zip((kernel.compression.values, kernel.compression.vectors),
                        (again.compression.values, again.compression.vectors)):
            np.testing.assert_array_equal(a, b)
        assert len(builds) == 2

    def test_small_and_nonsymmetric_kernels_are_not_compressed(self):
        small = pr.gaussian_kernel(pr.make_interval_space(0, 1, 127, "midpoint"), 0.35)
        assert small.compression is None
        space = pr.make_counting_space(200)
        lopsided = random_positive_kernel(space, np.random.default_rng(70))
        assert not lopsided.symmetric
        assert lopsided.compression is None


class TestCompressedSolve:
    """From COMPRESSED_SOLVE_MIN_DIM nodes on, a well-conditioned shift of a
    symmetric kernel with a compression is solved through the compression
    and refined against R's own entries: no factorization, and the
    lambda0 of the factorized path."""

    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.35, 1.0])
    @pytest.mark.parametrize("rule", RULES)
    def test_matches_the_factorized_path(self, rule, sigma, n, monkeypatch):
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, n, rule), sigma)
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        res = pr.solve(kernel)
        compressed_factorizations = len(factored)
        monkeypatch.setattr(perron.resolvent, "COMPRESSED_SOLVE_MIN_DIM", n + 1)
        lu = pr.solve(kernel)
        entry = res.evaluator._lu_cache[res.lambda0]
        if sigma == 0.1:
            # rho(R) / lambda0 = 0.9999992: the measured condition refuses
            # the compression, at no LU; both paths end in one float64 LU
            assert entry.factors[0].dtype == np.float64
            assert compressed_factorizations == 1
            assert len(factored) == compressed_factorizations + 1
            np.testing.assert_array_equal(res.eigenfunction.values, lu.eigenfunction.values)
        else:
            assert entry.factors is None
            assert compressed_factorizations == 0
            d = res.diagnostics
            assert max(d.eig_residual, d.left_residual, d.proj_idempotency) <= 1e-14
        assert abs(res.lambda0 - lu.lambda0) <= np.spacing(lu.lambda0)
        np.testing.assert_allclose(res.eigenfunction.values, lu.eigenfunction.values, rtol=1e-13)

    @pytest.mark.parametrize("rule", RULES)
    def test_refined_solves_meet_the_stopping_rule(self, rule):
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, rule), 0.35)
        split = pr.rank_one_split(kernel, pr.extract_minorization(kernel))
        ev = pr.BirmanSchwingerEvaluator(split)
        lam = 1.5 * ev.operator_norm
        assert_refined_solves(ev, lam, np.random.default_rng(73))
        assert ev._lu_cache[lam].factors is None

    def test_stalled_refinement_refactors_in_float64(self, monkeypatch):
        space = pr.make_interval_space(0, 1, 600, "midpoint")
        refined = pr.solve(pr.gaussian_kernel(space, 0.35))
        # a top eigenvalue off by 1e-8 leaves the first correction far
        # from the rule, and no further correction is allowed
        perturb_top_value(monkeypatch, 1e-8)
        monkeypatch.setattr(perron.resolvent, "REFINE_STEPS", 0)
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        fallback = pr.solve(pr.gaussian_kernel(space, 0.35))
        assert factored == [(600, 600)]
        assert fallback.evaluator._lu_cache[fallback.lambda0].factors[0].dtype == np.float64
        assert fallback.lambda0 == refined.lambda0
        assert fallback.diagnostics.eig_residual <= 1e-14

    @pytest.mark.parametrize(
        "kernel, compressions",
        [
            (pr.gaussian_kernel(pr.make_interval_space(0, 1, 511, "midpoint"), 0.35), 0),
            (exp_abs_kernel(pr.make_interval_space(0, 1, 600, "midpoint")), 1),
            (pr.Kernel(
                pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.35).entries
                * (1.0 + 0.5 * np.linspace(0, 1, 600))[:, None],
                pr.make_interval_space(0, 1, 600, "midpoint"),
            ), 0),
        ],
        ids=["below-floor", "full-rank", "nonsymmetric"],
    )
    def test_other_kernels_take_one_float64_factorization(self, kernel, compressions, monkeypatch):
        builds = count_calls(monkeypatch, perron.kernel_op, "compress_symmetric")
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        res = pr.solve(kernel)
        assert len(builds) == compressions
        assert len(factored) == 1
        assert res.evaluator._lu_cache[res.lambda0].factors[0].dtype == np.float64


    @pytest.mark.parametrize("gap, compressed", [(1e-2, True), (1e-3, True), (1e-4, False), (1e-6, False)])
    def test_condition_is_the_dense_condition_number(self, gap, compressed, monkeypatch):
        # lam = rho(R) (1 + gap): the condition number grows from about
        # 2e2 to 2e6.  Up to COMPRESSED_MAX_CONDITION the compression stays
        # the inverse, at no LU; above it the shift takes one float64 LU.
        # Either way condition() reads the solve that certified the shift
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.35)
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, pr.extract_minorization(kernel)))
        lam = remainder_radius(ev) * (1.0 + gap)
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        condition = ev.condition(lam)
        assert (ev._lu_cache[lam].factors is None) == compressed
        assert len(factored) == (0 if compressed else 1)
        shifted = lam * np.eye(600) - ev.split.remainder.operator_matrix()
        assert condition == pytest.approx(np.linalg.cond(shifted, p=np.inf), rel=1e-10)

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_below_radius_is_refused_at_no_factorization(self, fraction, monkeypatch):
        # below rho(R) the compression's refined solve against 1 has a
        # negative entry, as the LU's does: the shift is refused before
        # any factorization, with the smallest entry of the LU path
        kernel = pr.gaussian_kernel(pr.make_interval_space(0, 1, 600, "midpoint"), 0.35)
        split = pr.rank_one_split(kernel, pr.extract_minorization(kernel))
        ev = pr.BirmanSchwingerEvaluator(split)
        lam = fraction * remainder_radius(ev)
        factored = count_calls(monkeypatch, perron.resolvent, "lu_factor")
        with pytest.raises(BelowSpectralRadiusError) as compressed:
            ev.value(lam)
        assert factored == []
        assert lam not in ev._lu_cache
        monkeypatch.setattr(perron.resolvent, "COMPRESSED_SOLVE_MIN_DIM", 601)
        with pytest.raises(BelowSpectralRadiusError) as lu:
            pr.BirmanSchwingerEvaluator(split).value(lam)
        assert factored == [(600, 600)]
        assert compressed.value.lam == lu.value.lam == lam
        assert compressed.value.smallest == pytest.approx(lu.value.smallest, rel=1e-8)


class TestCertifiedCondition:
    """The one rule that refuses a shift, pointwise and on a grid, from
    x = (lam*I - R)^-1 1 (a column per shift) and ||lam*I - R||_inf."""

    lams = np.array([2.0, 3.0, 4.0])
    norms = np.array([3.0, 4.0, 5.0])

    @staticmethod
    def vectors(entry=None):
        x = np.array([[1.0, 0.5, 0.25], [2.0, 0.25, 0.5]])
        if entry is not None:
            x[1, 1] = entry
        return x

    def test_condition_is_the_norm_times_the_largest_entry(self):
        condition = _certified_condition(self.lams, self.vectors(), self.norms)
        np.testing.assert_array_equal(condition, [6.0, 2.0, 2.5])
        assert _certified_condition(2.0, np.array([1.0, 2.0]), 3.0).tolist() == [6.0]

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_vector_is_ill_conditioned(self, entry):
        with pytest.raises(IllConditionedError, match=r"lambda = 3\.0 has condition number inf"):
            _certified_condition(self.lams, self.vectors(entry), self.norms)

    @pytest.mark.parametrize("entry", [0.0, -0.0, -2.0])
    def test_nonpositive_entry_is_below_the_spectral_radius(self, entry):
        with pytest.raises(BelowSpectralRadiusError) as info:
            _certified_condition(self.lams, self.vectors(entry), self.norms)
        assert info.value.lam == 3.0
        assert info.value.smallest == entry

    def test_condition_above_max_is_ill_conditioned(self):
        # the middle shift's condition is 4 * 0.5 = 2: scaled to exactly
        # MAX_CONDITION it is kept, one ulp above it is refused
        norms = self.norms.copy()
        norms[1] *= MAX_CONDITION / 2.0
        assert _certified_condition(self.lams, self.vectors(), norms)[1] == MAX_CONDITION
        norms[1] = np.nextafter(norms[1], np.inf)
        with pytest.raises(IllConditionedError, match=r"lambda = 3\.0 has condition number 1\.000e\+12"):
            _certified_condition(self.lams, self.vectors(), norms)


class TestCurve:
    @pytest.mark.parametrize("kernel", [k for _, k in CURVE_KERNELS], ids=[i for i, _ in CURVE_KERNELS])
    def test_matches_pointwise_with_complex_blocks(self, kernel):
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, pr.extract_minorization(kernel)))
        s, _ = schur(ev.split.remainder.operator_matrix(), output="real")
        assert np.any(np.diag(s, -1) != 0.0)  # the 2x2 block path runs
        lams = np.geomspace(remainder_radius(ev) * 1.001, 10 * ev.operator_norm, 40)
        d, dp = ev.curve(lams)
        d_ref, dp_ref = pointwise_curve(ev, lams)
        np.testing.assert_allclose(d, d_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-9)

    @pytest.mark.parametrize(
        "kernel, cert", [case[1:] for case in CONFIG_CASES], ids=[case[0] for case in CONFIG_CASES]
    )
    def test_matches_pointwise_on_configs(self, kernel, cert):
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(kernel, cert))
        lams = np.geomspace(remainder_radius(ev) * 1.001 + 1e-9, 10 * ev.operator_norm, 40)
        d, dp = ev.curve(lams)
        d_ref, dp_ref = pointwise_curve(ev, lams)
        np.testing.assert_allclose(d, d_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-9)

    def test_below_radius_rejected_where_value_is(self, symmetric_evaluator):
        # R = I here, so (lam - R)^-1 1 = 1 / (lam - 1): negative below
        # rho(R) = 1, pointwise and on the grid alike
        ev = symmetric_evaluator
        for lam in (0.5, 0.999):
            with pytest.raises(BelowSpectralRadiusError) as info:
                ev.value(lam)
            assert info.value.smallest == pytest.approx(1.0 / (lam - 1.0), rel=1e-12)
            with pytest.raises(BelowSpectralRadiusError) as info:
                ev.curve([4.0, lam, 5.0])
            assert info.value.lam == lam
            assert info.value.smallest == pytest.approx(1.0 / (lam - 1.0), rel=1e-12)

    def test_exactly_singular_shift_is_ill_conditioned(self, symmetric_evaluator):
        # R = I: lam*I - R is the zero matrix at lam = 1.  The LU meets an
        # exactly zero pivot and the eigenbasis a zero denominator; both
        # leave (lam*I - R)^-1 1 non-finite, and no warning escapes
        ev = symmetric_evaluator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (ev.value, lambda lam: ev.curve([lam])):
                with pytest.raises(IllConditionedError, match="condition number inf"):
                    evaluate(1.0)

    def test_ill_conditioned_where_value_is(self):
        # the remainder is a nonnormal chain, R = diag + 5 * superdiagonal, under
        # a rank-one part with a nonconstant profile; its shifted condition
        # number exceeds MAX_CONDITION up to lambda ~ 0.65
        n = 12
        rem = np.diag(np.linspace(0.1, 0.2, n)) + 5.0 * np.eye(n, k=1)
        k = pr.Kernel(np.linspace(1.0, 0.1, n)[:, None] + rem, pr.make_counting_space(n))
        ev = pr.BirmanSchwingerEvaluator(pr.rank_one_split(k, pr.extract_minorization(k)))
        lam = 0.5
        with pytest.raises(IllConditionedError) as pointwise:
            ev.value(lam)
        with pytest.raises(IllConditionedError) as batched:
            ev.curve([10.0, lam, 20.0])
        assert "lambda = 0.5 " in str(batched.value)
        # the condition number from the Schur form and from the LU solve
        condition = [float(str(e.value).split()[-1]) for e in (batched, pointwise)]
        assert condition[0] == pytest.approx(condition[1], rel=1e-2)
        ev.curve([0.8, 10.0])
        ev.value(0.8)
