"""Nonnegative kernels as weight-aware dense matrices.

A kernel K over a space with weights w induces the operator
``(Tf)_i = sum_j K_ij f_j w_j``.  Composition inserts the weights
between factors, ``(A o B)_ij = sum_k A_ik w_k B_kj``, so the discrete
algebra is consistent with the quadrature rule at every order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PowerIterationError
from .measure import (
    GridFunction,
    MeasureSpace,
    check_same_space,
    make_counting_space,
)

NONNEG_SLACK = 1e-14  # float noise must not disqualify a nonnegative kernel


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense nonnegative n x n kernel matrix over a measure space."""

    entries: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        entries = self.entries
        # a read-only float64 array that owns its data is frozen: shared,
        # not copied
        if not (
            isinstance(entries, np.ndarray)
            and entries.dtype == np.float64
            and entries.flags.owndata
            and not entries.flags.writeable
        ):
            entries = np.array(entries, dtype=float)
        n = self.space.size
        if entries.shape != (n, n):
            raise DimensionMismatchError(
                f"kernel must be {n} x {n}, got {entries.shape}"
            )
        # min and max propagate nan and reach inf, so they screen every entry
        lo, hi = float(entries.min()), float(entries.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            bad = np.argwhere(~np.isfinite(entries))
            where = ", ".join(f"{entries[i, j]} at ({i}, {j})" for i, j in bad[:3])
            more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
            raise ValueError(f"kernel entries must be finite: {where}{more}")
        if lo < -NONNEG_SLACK * max(1.0, -lo, hi):
            raise ValueError("kernel entries must be nonnegative")
        if lo < 0:
            entries = np.maximum(entries, 0.0, out=entries if entries.flags.writeable else None)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.space.size

    def operator_matrix(self) -> np.ndarray:
        """Matrix acting on node-value vectors: K * diag(w)."""
        return self.entries * self.space.weights[np.newaxis, :]

    def weighted_inf_norm(self) -> float:
        """Max weighted row sum; upper bound for the spectral radius."""
        return float((self.entries * self.space.weights[np.newaxis, :]).sum(axis=1).max())


def apply(kernel: Kernel, f: GridFunction) -> GridFunction:
    """T f, the weighted matrix-vector product."""
    check_same_space(kernel.space, f.space)
    return GridFunction(kernel.operator_matrix() @ f.values, kernel.space)


def compose(a: Kernel, b: Kernel) -> Kernel:
    """Kernel of the operator product: (A o B)_ij = sum_k A_ik w_k B_kj."""
    check_same_space(a.space, b.space)
    return Kernel(a.entries @ (a.space.weights[:, np.newaxis] * b.entries), a.space)


def iterate_kernel(kernel: Kernel, n: int) -> Kernel:
    """n-fold iterated kernel; the kernel of T^n.

    n = 0 is rejected: the identity has no density against a continuous
    measure, so it is not representable in this algebra.
    """
    if n < 1:
        raise ValueError("iterate_kernel requires n >= 1")
    out = kernel
    for _ in range(n - 1):
        out = compose(out, kernel)
    return out


@dataclass(frozen=True, eq=False)
class SchurBound:
    """Candidate row/column integral bounds certifying operator boundedness.

    Claims sum_j K_ij row_weight-paired tests:
        sum_j K_ij psi_j w_j <= C phi_i   (rows, phi = row_weight)
        sum_i K_ij phi_i w_i <= C psi_j   (columns, psi = col_weight)
    """

    row_weight: GridFunction
    col_weight: GridFunction
    constant: float


@dataclass(frozen=True)
class SchurReport:
    max_row_ratio: float
    max_col_ratio: float
    holds: bool


def verify_schur(kernel: Kernel, bound: SchurBound, rel_slack: float = 1e-12) -> SchurReport:
    check_same_space(kernel.space, bound.row_weight.space)
    check_same_space(kernel.space, bound.col_weight.space)
    phi = bound.row_weight.values
    psi = bound.col_weight.values
    if not (np.all(phi > 0) and np.all(psi > 0)):
        raise ValueError("Schur weights must be strictly positive")
    w = kernel.space.weights
    c = bound.constant
    row = (kernel.entries @ (psi * w)) / (c * phi)
    col = (kernel.entries.T @ (phi * w)) / (c * psi)
    max_row = float(row.max())
    max_col = float(col.max())
    return SchurReport(max_row, max_col, holds=max_row <= 1 + rel_slack and max_col <= 1 + rel_slack)


def tight_schur_bound(kernel: Kernel) -> SchurBound:
    """Flat-weight bound with C = max weighted row/column sum."""
    w = kernel.space.weights
    c = max(
        float((kernel.entries * w[np.newaxis, :]).sum(axis=1).max()),
        float((kernel.entries * w[:, np.newaxis]).sum(axis=0).max()),
    )
    ones = kernel.space.ones()
    return SchurBound(ones, ones, c)


@dataclass(frozen=True, eq=False)
class PowerIterationResult:
    rho: float
    vec: GridFunction
    iterations: int


def spectral_radius_oracle(
    kernel: Kernel, tol: float = 1e-12, max_iter: int = 10000, operator=None
) -> PowerIterationResult:
    """Spectral radius of the weighted operator by plain power iteration.

    This is the independent oracle the factorization-based solver is
    checked against; it never touches the rank-one machinery.  The
    returned vector is nonnegative with sup-norm 1.  For strictly
    positive iterates a Collatz-Wielandt bracket certifies the result;
    otherwise the successive eigenvalue-estimate change is used.
    Non-convergence (peripheral multiplicity) raises PowerIterationError.
    A caller that already holds ``kernel.operator_matrix()`` passes it as
    ``operator``, and it is not formed again.
    """
    a = kernel.operator_matrix() if operator is None else operator
    if not a.any():
        return PowerIterationResult(0.0, kernel.space.ones(), 0)
    x = np.ones(kernel.size)
    rho_prev = None
    for it in range(1, max_iter + 1):
        y = a @ x
        rho = float(y.max())
        if rho <= 0.0:
            # the nonnegative iterate died: nilpotent direction
            return PowerIterationResult(0.0, GridFunction(x, kernel.space), it)
        if np.all(x > 0):
            ratios = y / x
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= tol * max(1.0, hi):
                return PowerIterationResult(
                    0.5 * (lo + hi), GridFunction(y / rho, kernel.space), it
                )
        if rho_prev is not None and abs(rho - rho_prev) <= tol * max(1.0, rho):
            return PowerIterationResult(rho, GridFunction(y / rho, kernel.space), it)
        rho_prev = rho
        x = y / rho
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        "(possible peripheral multiplicity)"
    )


def growth_radius(matrix: np.ndarray, n_iter: int = 600, window: int = 200) -> float:
    """Rough |eigenvalue|_max estimate for a general square matrix.

    Geometric mean of normalized growth factors over a trailing window;
    averages out the rotation of complex dominant pairs.  The start
    vector is a fixed generic draw (the ones vector would be annihilated
    exactly by deflations of symmetric kernels).  Used for second-radius
    diagnostics, not for certified answers.
    """
    n = matrix.shape[0]
    x = np.random.default_rng(1234567).uniform(0.5, 1.5, n)
    x /= n
    factors = []
    for _ in range(n_iter):
        y = matrix @ x
        nm = float(np.max(np.abs(y)))
        if nm == 0.0:
            return 0.0
        factors.append(nm)
        x = y / nm
    tail = factors[-min(window, len(factors)):]
    return float(np.exp(np.mean(np.log(tail))))


# ---------------------------------------------------------------------------
# Builtin kernel families (CLI ingestion surface)


def constant_kernel(space: MeasureSpace, c: float = 1.0) -> Kernel:
    if c < 0:
        raise ValueError("constant kernels must be nonnegative")
    return Kernel(np.full((space.size, space.size), float(c)), space)


def separable_kernel(space: MeasureSpace, v, u) -> Kernel:
    """Rank-one kernel K(x, y) = v(x) u(y)."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    return Kernel(np.outer(v, u), space)


def gaussian_kernel(space: MeasureSpace, sigma: float) -> Kernel:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # one buffer, filled in place: d^2 / (-2 sigma^2) rounds as -d^2 / (2 sigma^2)
    entries = np.subtract.outer(space.nodes, space.nodes)
    np.square(entries, out=entries)
    entries /= -2.0 * sigma**2
    np.exp(entries, out=entries)
    entries.flags.writeable = False
    return Kernel(entries, space)


def kernel_from_csv(path, space: MeasureSpace | None = None) -> Kernel:
    """Dense header-free comma-separated matrix; counting space by default."""
    entries = np.loadtxt(path, delimiter=",", ndmin=2)
    if space is None:
        space = make_counting_space(entries.shape[0])
    return Kernel(entries, space)
