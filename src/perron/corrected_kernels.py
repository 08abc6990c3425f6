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

The ordered expansion of (T - P)^n applied to K collapses into partial
Bell polynomials of the moment scalars b_j = phi[T^j profile].  This
module carries the recursion plus independent combinatorial evaluations
of that expansion (a brute-force word sum and a Bell-grouped closed
form) used to cross-check it, and an evaluator for a variant index
convention of the expansion that does not reproduce the recursion; see
``verify_bell_expansion``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .doeblin import RankOneSplit
from .errors import DimensionMismatchError, NotConvergentError
from .kernel_op import Kernel


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


def _apply(kernel: Kernel, block: np.ndarray) -> np.ndarray:
    """The kernel composed onto an n x k column block: A_ik w_k B_kj."""
    return kernel.entries @ (kernel.space.weights[:, np.newaxis] * block)


def _corrected_blocks(split: RankOneSplit, start: np.ndarray, m: int) -> list:
    """G_0 B .. G_m B for a start block B = G_0 B, cross-checking the two
    defining forms (subtract-then-integrate vs remainder-compose) at every
    step.  The block is K itself for the kernels, K o V for probes V."""
    kernel = split.kernel
    # the block enters at its own size, unfloored: a centred probe block is
    # small, and a defect must show at the same relative size as in K
    block = float(np.abs(start).max()) or 1.0
    scale = (
        max(1.0, float(np.abs(kernel.entries).max()))
        * max(1.0, kernel.space.total_mass())
        * block
    )
    blocks = [start]
    for n in range(1, m + 1):
        current = blocks[-1]
        subtract_form = _apply(kernel, current) - _rank_one_image(split, current)
        compose_form = _apply(split.remainder, current)
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
    """Run the recursion to order m, cross-checking its two defining forms
    (subtract-then-integrate vs remainder-compose) at every step."""
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
    return float(
        cert.alpha
        * np.max(cert.profile.values)
        * np.dot(cert.functional.density, split.kernel.space.weights)
    )


def neumann_tail_bound(c: float, lam: float, m: int) -> float:
    """A priori truncation bound after summing terms 0..m: the geometric
    tail of ||G_n|| <= c^(n+1) at ratio c / lam; infinite when lam <= c."""
    if lam <= c:
        return np.inf
    r = c / lam
    return (c / lam) ** (m + 2) / (1.0 - r)


def _series_block(
    split: RankOneSplit, blocks: list, lam: float, tol: float, max_terms: int
) -> np.ndarray:
    """Partial sums of sum_n lam^-(n+1) G_n B until the tail bound meets
    tol; terms beyond the given blocks are generated on the fly."""
    r_norm = split.remainder.weighted_inf_norm()
    if lam <= r_norm:
        raise NotConvergentError(
            f"kernel resolvent series requires lambda > {r_norm:.6e}, got {lam}"
        )
    c = split.kernel.weighted_inf_norm() + rank_one_norm(split)
    acc = blocks[0] / lam
    current = blocks[0]
    scale = max(1.0, float(np.abs(acc).max()))
    ratio = r_norm / lam
    for n in range(1, max_terms + 1):
        if n < len(blocks):
            current = blocks[n]
        else:
            current = _apply(split.remainder, current)
        term = current / lam ** (n + 1)
        acc = acc + term
        term_size = float(np.abs(term).max())
        if term_size == 0.0:
            break
        scale = max(scale, float(np.abs(acc).max()))
        crude = neumann_tail_bound(c, lam, n)
        sharp = term_size * ratio / (1.0 - ratio)
        if min(crude, sharp) <= tol * scale:
            break
    else:
        raise NotConvergentError("kernel resolvent series exhausted its term budget")
    return acc


def neumann_kernel_resolvent(
    seq: CorrectedKernelSequence,
    lam: float,
    tol: float = 1e-12,
    max_terms: int = 10_000,
) -> Kernel:
    """Partial sums of sum_n lam^-(n+1) G_n until the tail bound meets tol.

    Convergence needs lam above the weighted sup-norm of the remainder;
    the tail is bounded both by the crude constant c = ||T|| + ||P|| and
    by the sharper remainder-norm geometric bound, whichever is smaller.
    Terms beyond the stored sequence are generated on the fly.
    """
    blocks = [kernel.entries for kernel in seq.kernels]
    return Kernel(_series_block(seq.split, blocks, lam, tol, max_terms), seq.split.kernel.space)


@dataclass(frozen=True)
class SubtractionIdentityReport:
    lam: float
    residual: float          # sup |(lam*I - T) H B - (K B - P H B)|
    relative_residual: float  # residual / sup |K B|


def _identity_report(
    split: RankOneSplit, start: np.ndarray, h: np.ndarray, lam: float
) -> SubtractionIdentityReport:
    """(lam*I - T) H B against K B - P H B, for the start block K B and H B."""
    lhs = lam * h - _apply(split.kernel, h)
    rhs = start - _rank_one_image(split, h)
    residual = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(start).max())
    return SubtractionIdentityReport(lam, residual, residual / max(scale, 1e-300))


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
    start = _apply(split.kernel, probes)
    blocks = _corrected_blocks(split, start, 6)
    h = _series_block(split, blocks, lam, 1e-13, 10_000)
    return _identity_report(split, start, h, lam)


# ---------------------------------------------------------------------------
# Bell polynomials and the combinatorial expansion of (T - P)^n K


def bell_polynomial(p: int, q: int, b) -> float:
    """Partial Bell polynomial B_{p,q} over b = (b_1, b_2, ...).

    Equals the sum over ordered compositions of q into exactly p parts,
    each >= 1, of the products b_{i_1} * ... * b_{i_p}; multiplicity
    counting with multinomials gives the same value.  Exact for integer
    inputs (pure Python arithmetic, no floats introduced).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > q:
        raise ValueError("B_{p,q} requires p <= q")
    needed = q - p + 1
    if len(b) < needed:
        raise ValueError(f"need at least {needed} scalars, got {len(b)}")

    # prev[r]: sum over compositions of r into k parts >= 1, updated in k
    prev = {0: 1}
    for k in range(1, p + 1):
        nxt = {}
        for r in range(k, q + 1):
            total = 0
            for part in range(1, min(needed, r - (k - 1)) + 1):
                sub = prev.get(r - part)
                if sub:
                    total = total + b[part - 1] * sub
            nxt[r] = total
        prev = nxt
    return prev.get(q, 0)


def bell_polynomial_bruteforce(p: int, q: int, b) -> float:
    """Direct enumeration over compositions; the test oracle for B_{p,q}."""
    if p > q:
        raise ValueError("B_{p,q} requires p <= q")
    total = 0
    for parts in _compositions(q, p):
        prod = 1
        for part in parts:
            prod = prod * b[part - 1]
        total = total + prod
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _operator_matrices(split: RankOneSplit):
    cert = split.certificate
    t_op = split.kernel.operator_matrix()
    p_op = cert.alpha * np.outer(
        cert.profile.values, cert.functional.acting_vector()
    )
    return t_op, p_op


def _matrix_to_kernel_entries(matrix: np.ndarray, space) -> np.ndarray:
    """Kernel entries of a node-value operator matrix: divide out weights."""
    return matrix / space.weights[np.newaxis, :]


def corrected_kernel_bruteforce(split: RankOneSplit, n: int) -> np.ndarray:
    """Entries of (T - P)^n applied to K, by summing all 2^n operator words.

    Independent of the recursion: each word T^{a_0} P T^{a_1} ... is
    multiplied out explicitly.  Exponential in n; capped at n <= 10.
    """
    if n > 10:
        raise ValueError("word expansion is exponential; use n <= 10")
    t_op, p_op = _operator_matrices(split)
    space = split.kernel.space
    total = np.zeros_like(t_op)
    for word in itertools.product((0, 1), repeat=n):
        acc = t_op.copy()  # rightmost factor: the kernel itself
        sign = 1.0
        for letter in reversed(word):
            if letter == 0:
                acc = t_op @ acc
            else:
                acc = p_op @ acc
                sign = -sign
        total += sign * acc
    return _matrix_to_kernel_entries(total, space)


def corrected_kernel_bell_form(split: RankOneSplit, n: int) -> np.ndarray:
    """Entries of (T - P)^n K via the Bell-style grouped closed form.

    Grouping the 2^n words by their count of rank-one factors yields

        G_n = K^(n+1)
            + sum_{l>=1} (-alpha)^l sum_{a0, al >= 0}
              W_{l-1, n-l-a0-al} * (T^{a0} profile) x (phi o T^{al+1})

    where W_{m,r} sums products of the extended moments
    b~_c = phi[T^c profile] (c >= 0, so adjacent rank-one factors are
    counted) over all m-tuples of nonnegative exponents adding to r.
    W_{m,r} is the Bell-polynomial composition sum shifted to allow
    zero-length blocks.
    """
    t_op, _ = _operator_matrices(split)
    cert = split.certificate
    space = split.kernel.space
    acting = cert.functional.acting_vector()

    profile_iterates = [cert.profile.values]
    for _ in range(n):
        profile_iterates.append(t_op @ profile_iterates[-1])
    moments_ext = [float(np.dot(acting, vec)) for vec in profile_iterates]

    # rows of phi o T^m acting on node-value vectors
    left_rows = [acting]
    for _ in range(n + 1):
        left_rows.append(left_rows[-1] @ t_op)

    # W[m][r]: sum over m-tuples of moments with exponent sum r
    w_table = [{0: 1.0}]
    for m in range(1, n + 1):
        row = {}
        for r in range(0, n + 1):
            row[r] = sum(
                moments_ext[c] * w_table[m - 1].get(r - c, 0.0)
                for c in range(0, r + 1)
            )
        w_table.append(row)

    total = np.linalg.matrix_power(t_op, n) @ t_op
    for ell in range(1, n + 1):
        budget = n - ell
        for a0 in range(0, budget + 1):
            for al in range(0, budget - a0 + 1):
                coeff = ((-cert.alpha) ** ell) * w_table[ell - 1].get(
                    budget - a0 - al, 0.0
                )
                if coeff == 0.0:
                    continue
                total += coeff * np.outer(
                    profile_iterates[a0], left_rows[al + 1]
                )
    return _matrix_to_kernel_entries(total, space)


def variant_expansion(seq: CorrectedKernelSequence, n: int) -> np.ndarray:
    """A variant index convention for the expansion:

        K^(n) - sum_{l=0}^{n-1} (-1)^l sum_{k=0}^{n-l-1}
                K^(n-k-l-1) B_{l+1, k+l+1}(b_1, b_2, ...)

    evaluated literally, with K^(0) taken as the discrete identity
    kernel.  This does NOT reproduce the recursion (the leading term
    should carry iterate index n+1 and the corrections are rank-one
    kernels, not multiples of iterated kernels); it is kept so the
    report can pinpoint the discrepancy instead of silently repairing
    the formula.
    """
    split = seq.split
    space = split.kernel.space
    t_op, _ = _operator_matrices(split)
    b = seq.moments
    if len(b) < n:
        raise ValueError("sequence stores too few moment scalars")

    def iterated_entries(j: int) -> np.ndarray:
        if j == 0:
            return np.diag(1.0 / space.weights)
        return _matrix_to_kernel_entries(np.linalg.matrix_power(t_op, j), space)

    total = iterated_entries(n).copy()
    for ell in range(0, n):
        for k in range(0, n - ell):
            term = iterated_entries(n - k - ell - 1) * bell_polynomial(
                ell + 1, k + ell + 1, b
            )
            total -= ((-1.0) ** ell) * term
    return total


@dataclass(frozen=True)
class BellExpansionReport:
    n: int
    max_abs_error: float        # variant convention vs the recursion
    bruteforce_error: float     # 2^n word sum vs the recursion
    bell_form_error: float      # Bell-grouped closed form vs the recursion
    leading_term_error: float   # |K^(n) - K^(n+1)| sup: the index mismatch
    matches_variant: bool
    first_failing: tuple | None  # (n, l, k) pinpointing the variant mismatch
    note: str


def verify_bell_expansion(seq: CorrectedKernelSequence, n: int) -> BellExpansionReport:
    """Compare G_n against three independent evaluations of (T - P)^n K.

    The word sum and the Bell-grouped form are the oracles and must
    agree with the recursion to float accuracy.  The variant index
    convention generally does not; the report then records the leading
    discrepancy and the first (n, l, k) correction term at which its
    partial sums stop tracking the truth.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 6:
        raise ValueError("combinatorial verification is capped at n <= 6")
    if seq.order < n:
        raise ValueError("sequence is shorter than the requested order")
    split = seq.split
    space = split.kernel.space
    truth = seq.kernels[n].entries
    scale = max(1.0, float(np.abs(truth).max()))

    brute = corrected_kernel_bruteforce(split, n)
    bell = corrected_kernel_bell_form(split, n)
    variant = variant_expansion(seq, n)

    t_op, _ = _operator_matrices(split)
    lead_variant = (
        np.diag(1.0 / space.weights)
        if n == 0
        else _matrix_to_kernel_entries(np.linalg.matrix_power(t_op, n - 1) @ t_op, space)
    )
    lead_truth = _matrix_to_kernel_entries(np.linalg.matrix_power(t_op, n) @ t_op, space)
    leading_error = float(np.abs(lead_variant - lead_truth).max())

    variant_err = float(np.abs(variant - truth).max())
    matches = variant_err <= 1e-10 * scale

    first_failing = None
    note = "variant convention reproduces the recursion"
    if not matches:
        # walk the variant double sum and find where its partial sums
        # first stop moving toward the recursion value
        partial = (
            _matrix_to_kernel_entries(np.linalg.matrix_power(t_op, n - 1) @ t_op, space)
            if n >= 1
            else None
        )
        best = float(np.abs(partial - truth).max())
        b = seq.moments
        done = False
        for ell in range(0, n):
            for k in range(0, n - ell):
                term = variant_term(seq, n, ell, k)
                partial = partial - ((-1.0) ** ell) * term
                err = float(np.abs(partial - truth).max())
                if err > best + 1e-12 * scale:
                    first_failing = (n, ell, k)
                    done = True
                    break
                best = err
            if done:
                break
        if first_failing is None:
            first_failing = (n, 0, 0)
        note = (
            "variant expansion disagrees with (T - P)^n K: leading term "
            f"carries iterate index {n} where the recursion requires {n + 1}, "
            "and its corrections omit the zero-length (adjacent rank-one) "
            "moment blocks; the word-sum and Bell-grouped oracles confirm "
            "the recursion"
        )
    return BellExpansionReport(
        n=n,
        max_abs_error=variant_err,
        bruteforce_error=float(np.abs(brute - truth).max()),
        bell_form_error=float(np.abs(bell - truth).max()),
        leading_term_error=leading_error,
        matches_variant=matches,
        first_failing=first_failing,
        note=note,
    )


def variant_term(seq: CorrectedKernelSequence, n: int, ell: int, k: int) -> np.ndarray:
    """Single (l, k) correction term of the variant expansion."""
    split = seq.split
    space = split.kernel.space
    t_op, _ = _operator_matrices(split)
    j = n - k - ell - 1
    entries = (
        np.diag(1.0 / space.weights)
        if j == 0
        else _matrix_to_kernel_entries(np.linalg.matrix_power(t_op, j), space)
    )
    return entries * bell_polynomial(ell + 1, k + ell + 1, seq.moments)
