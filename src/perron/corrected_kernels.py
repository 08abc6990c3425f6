"""Corrected kernel recursion and the kernel-level resolvent expansion.

Subtracting the certified rank-one part at every iterate produces the
corrected kernels

    G_0 = K,    G_{n+1} = (T - P) G_n,    P = alpha * profile x phi,

equivalently: G_n is the remainder kernel composed n times onto K, so
every G_n is itself a nonnegative kernel.  Their weighted geometric
sums realize the remainder resolvent applied to K,

    (lam*I - R)^-1 K = sum_{n>=0} lam^-(n+1) G_n,

convergent for lam above the weighted sup-norm of R, and satisfy the
subtraction identity

    (lam*I - T) H = K - P H,    H = (lam*I - R)^-1 K.

Every operator here acts on the left, so the recursion (with its
two-form cross-check), the series and the identity are written once,
for an n x k column block B in place of K: G_n B, H B and
(lam*I - T) H B = K B - P H B.  The dense functions start from B = K.
``probe_resolvent_identity`` starts from B = K o V for a block V of k
probes, so each composition costs O(n^2 k) instead of O(n^3).  In exact
arithmetic a nonzero defect survives the product with a continuous
random block with probability one (Freivalds 1977); at a tolerance, a
defect that cancels against K applied to the probes' mean is damped,
which is why ``perron verify`` draws centred probes (see
``probe_resolvent_identity``).

The combinatorial evaluations of (T - P)^n K through partial Bell
polynomials of the moments ``moment_scalars`` are oracles of the
recursion; they live with the tests, in ``tests/bell_expansion.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doeblin import RankOneSplit
from .errors import DimensionMismatchError, NotConvergentError
from .kernel_op import Kernel, _pow2_scale

SERIES_MAX_TERMS = 10_000  # terms of the kernel resolvent series before it gives up


@dataclass(frozen=True, eq=False)
class CorrectedKernelSequence:
    """G_0..G_m plus the moment scalars b_1..b_m (b_j = phi[T^j profile])."""

    split: RankOneSplit
    kernels: list
    moments: list

    @property
    def order(self) -> int:
        return len(self.kernels) - 1


def _rank_one_image(split: RankOneSplit, columns: np.ndarray) -> np.ndarray:
    """(P G)(x, y) = alpha * profile(x) * phi_xi[G(xi, y)] as a matrix."""
    cert = split.certificate
    row = cert.functional.acting_vector() @ columns
    return cert.alpha * np.outer(cert.profile.values, row)


def _corrected_blocks(split: RankOneSplit, start: np.ndarray, m: int, unit: float = 1.0) -> list:
    """G_0 B .. G_m B for a start block B = G_0 B, cross-checking the two
    defining forms (subtract-then-integrate vs remainder-compose) at every
    step.  The block is K itself for the kernels, K o V for probes V.  With
    ``unit`` a power of two every operator is taken times it, exactly, and
    the n-th block comes out times unit^n."""
    kernel = split.kernel
    # the tolerance is relative to max|K| |W| max|B|, a bound on the first
    # composition, with no floor on any factor: a centred probe block is
    # small, and a defect must show at the same relative size as in K, at
    # any scale of the kernel
    block = float(np.abs(start).max()) or 1.0
    scale = unit * float(np.abs(kernel.entries).max()) * kernel.space.total_mass() * block
    blocks = [start]
    for n in range(1, m + 1):
        current = unit * blocks[-1]
        subtract_form = kernel.matvec(current) - _rank_one_image(split, current)
        compose_form = split.remainder.matvec(current)
        gap = float(np.max(np.abs(subtract_form - compose_form)))
        if gap > 1e-10 * scale:
            raise NotConvergentError(
                f"corrected-kernel recursion forms disagree at step n = {n}: "
                f"gap {gap:.3e} > tolerance {1e-10 * scale:.3e}; split is inconsistent"
            )
        blocks.append(compose_form)
        scale = max(scale, float(np.abs(compose_form).max()))
    return blocks


def build_corrected_kernels(split: RankOneSplit, m: int) -> CorrectedKernelSequence:
    """Run the cross-checked recursion of ``_corrected_blocks`` to order m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    blocks = _corrected_blocks(split, split.kernel.entries, m)
    space = split.kernel.space
    kernels = [split.kernel] + [Kernel(block, space) for block in blocks[1:]]
    return CorrectedKernelSequence(split, kernels, moment_scalars(split, m))


def moment_scalars(split: RankOneSplit, m: int) -> list:
    """b_j = phi[T^j profile] for j = 1..m."""
    cert = split.certificate
    vec = cert.profile.values
    out = []
    for _ in range(m):
        vec = split.kernel.matvec(vec)
        out.append(float(np.dot(cert.functional.acting_vector(), vec)))
    return out


def rank_one_norm(split: RankOneSplit) -> float:
    """Weighted sup-norm of the subtracted rank-one operator."""
    cert = split.certificate
    mass = np.dot(cert.functional.density, split.kernel.space.weights)
    return float(cert.alpha * np.max(cert.profile.values) * mass)


def neumann_tail_bound(c: float, lam: float, m: int) -> float:
    """A priori truncation bound after summing terms 0..m: the geometric
    tail of ||G_n|| <= c^(n+1) at ratio c / lam; infinite when lam <= c."""
    if lam <= c:
        return np.inf
    r = c / lam
    return (c / lam) ** (m + 2) / (1.0 - r)


def _series_block(split: RankOneSplit, blocks: list, lam: float, tol: float) -> np.ndarray:
    """Partial sums of sum_n lam^-(n+1) R^n B until the tail bound meets
    tol relative to the running sum.  ``blocks`` are the recursion's
    unit^n R^n B, n = 0 .. m, with unit the power of two that brings lam
    into [1/2, 1): term n is block n over lam (unit lam)^n, a divisor
    carried step by step, and each later term is (unit R) term / (unit lam),
    so no power of lam is formed to over- or underflow.  The terms shrink
    at least by ||R||_inf / lam per step, which bounds the tail after each."""
    r_norm = split.remainder.weighted_inf_norm()
    if lam <= r_norm:
        raise NotConvergentError(
            f"kernel resolvent series requires lambda > {r_norm:.6e}, got {lam}"
        )
    unit = _pow2_scale(lam)
    ratio = r_norm / lam
    divisor = lam
    acc = term = blocks[0] / lam
    for n in range(1, SERIES_MAX_TERMS + 1):
        if n < len(blocks):
            divisor *= unit * lam
            term = blocks[n] / divisor
        else:
            term = split.remainder.matvec(unit * term) / (unit * lam)
        acc = acc + term
        term_size = float(np.abs(term).max())
        if term_size * ratio / (1.0 - ratio) <= tol * float(np.abs(acc).max()):
            return acc
    raise NotConvergentError("kernel resolvent series exhausted its term budget")


def neumann_kernel_resolvent(
    seq: CorrectedKernelSequence, lam: float, tol: float = 1e-12
) -> Kernel:
    """Partial sums of sum_n lam^-(n+1) G_n until the tail bound meets tol.

    Convergence needs lam above the weighted sup-norm of the remainder,
    and the tail is bounded by the remainder-norm geometric bound.  The
    terms are carried as in ``_series_block``, whose first blocks are the
    sequence's G_n times unit^n, an exact exponent shift.
    """
    exponent = math.frexp(_pow2_scale(lam))[1] - 1
    blocks = [np.ldexp(g.entries, n * exponent) for n, g in enumerate(seq.kernels)]
    return Kernel(_series_block(seq.split, blocks, lam, tol), seq.split.kernel.space)


@dataclass(frozen=True)
class SubtractionIdentityReport:
    lam: float
    residual: float          # sup |(lam*I - T) H B - (K B - P H B)|
    relative_residual: float  # residual / sup |K B|


def _identity_report(
    split: RankOneSplit, start: np.ndarray, h: np.ndarray, lam: float
) -> SubtractionIdentityReport:
    """(lam*I - T) H B against K B - P H B, for the start block K B and H B."""
    lhs = lam * h - split.kernel.matvec(h)
    rhs = start - _rank_one_image(split, h)
    residual = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(start).max())
    # an all-zero start block gives a zero residual, relative or not
    return SubtractionIdentityReport(lam, residual, residual / (scale or 1.0))


def verify_resolvent_identity(
    seq: CorrectedKernelSequence, lam: float, tol: float = 1e-13
) -> SubtractionIdentityReport:
    """Check (lam*I - T) H = K - P H with H the truncated kernel series."""
    h = neumann_kernel_resolvent(seq, lam, tol=tol)
    return _identity_report(seq.split, seq.split.kernel.entries, h.entries, lam)


def probe_resolvent_identity(
    split: RankOneSplit, lam: float, probes: np.ndarray
) -> SubtractionIdentityReport:
    """The checks of ``build_corrected_kernels`` to order 6 and of
    ``verify_resolvent_identity``, applied to the columns of K o V.

    V is an n x k block of probe functions.  Every composition becomes a
    product with k columns, O(n^2 k) instead of O(n^3).  In exact
    arithmetic a defect in the split survives the projection onto random
    continuous probes with probability one (Freivalds).  At the
    cross-check's tolerance a signed defect E with E K 1 near zero is
    damped when V has a large mean: positive probes are close to a
    constant times the all-ones function once K has smoothed them, so
    such a defect can pass here and fail the dense check.  Centred
    probes (mean zero) carry no constant part, and the tolerance scales
    with sup |K o V| itself, so they reach the dense verdict.  The
    residual is relative to sup |K o V|.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[0] != split.kernel.size:
        raise DimensionMismatchError(
            f"probes must be {split.kernel.size} x k, got {probes.shape}"
        )
    start = split.kernel.matvec(probes)
    # on the operators times the power of two of the series, which sums
    # these blocks: they neither over- nor underflow at any kernel scale
    blocks = _corrected_blocks(split, start, 6, _pow2_scale(lam))
    h = _series_block(split, blocks, lam, 1e-13)
    return _identity_report(split, start, h, lam)
