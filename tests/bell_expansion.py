"""Bell polynomials and the combinatorial expansion of (T - P)^n K: test
oracles for the corrected-kernel recursion of ``perron.corrected_kernels``.

The ordered expansion of (T - P)^n applied to K collapses into partial
Bell polynomials of the moment scalars b_j = phi[T^j profile].  This
module carries independent combinatorial evaluations of that expansion
(a brute-force word sum and a Bell-grouped closed form) used to
cross-check the recursion, and an evaluator for a variant index
convention of the expansion that does not reproduce the recursion; see
``verify_bell_expansion``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from perron.corrected_kernels import CorrectedKernelSequence
from perron.doeblin import RankOneSplit


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
