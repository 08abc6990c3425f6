"""Every input either solves or fails by name.

A solve is right when lambda0 lies within 1e-10 relative of the dense
eigenvalues; a failure is a ``PerronError`` whose message carries the
fences the root search closed on.  No input may come back wrong.  The
inputs are generated here: heterogeneous log-normal matrices, narrow
Gaussians whose one-step certificate is blind to rounding level, and a
Gaussian scaled by tiny and huge constants.
"""

import numpy as np
import pytest

import perron as pr
from perron.errors import PerronError

REL = 1e-10


def outcome(kernel, reference):
    """"solved" or the name of the failure; raises AssertionError on a
    wrong answer or on a failure that does not name its fences."""
    try:
        lam = pr.solve(kernel).lambda0
    except PerronError as exc:
        assert "fences [" in str(exc), str(exc)
        return type(exc).__name__
    assert abs(lam - reference) <= REL * reference, (lam, reference)
    return "solved"


def lognormal_pool(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(20, 61))
        yield np.exp(4.0 * rng.standard_normal((n, n)))


def test_lognormal_pool_has_no_wrong_answer():
    outcomes = [
        outcome(pr.Kernel(a, pr.make_counting_space(a.shape[0])),
                float(np.abs(np.linalg.eigvals(a)).max()))
        for a in lognormal_pool(1, 256)
    ]
    # before the search was certified by positivity, 34 of these failed
    assert outcomes.count("solved") == 256


def gaussian(n, sigma):
    return pr.gaussian_kernel(pr.make_interval_space(0, 1, n, "midpoint"), sigma)


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("sigma", [0.05, 0.03])
def test_narrow_gaussians_solve_or_name_their_fences(sigma, n):
    # the row_min certificate has a strength of zero to rounding: every
    # shift within about 2e-12 of the root is ill-conditioned
    kernel = gaussian(n, sigma)
    reference = float(np.linalg.eigvalsh(kernel.operator_matrix()).max())
    assert outcome(kernel, reference) in {"solved", "NoSignChangeError"}


@pytest.mark.parametrize("c", [1e-300, 1e-6, 1e300])
def test_scaled_kernels_solve(c):
    kernel = gaussian(200, 0.35)
    scaled = pr.Kernel(c * kernel.entries, kernel.space)
    reference = c * float(np.linalg.eigvalsh(kernel.operator_matrix()).max())
    assert outcome(scaled, reference) == "solved"
    res = pr.solve(scaled)
    # the residuals are relative to ||T||_inf, so they do not scale with c
    assert max(res.diagnostics.eig_residual, res.diagnostics.left_residual) <= 1e-14
