"""Nonnegative kernels as weight-aware dense matrices.

A kernel K over a space with weights w induces the operator
``(Tf)_i = sum_j K_ij f_j w_j``.  Composition inserts the weights
between factors, ``(A o B)_ij = sum_k A_ik w_k B_kj``, so the discrete
algebra is consistent with the quadrature rule at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, get_lapack_funcs, qr

from .errors import DimensionMismatchError, PowerIterationError
from .measure import (
    GridFunction,
    MeasureSpace,
    check_same_space,
    make_counting_space,
)

NONNEG_SLACK = 1e-14  # float noise must not disqualify a nonnegative kernel
SCHUR_SLACK = 1e-12  # a Schur ratio up to 1 + SCHUR_SLACK holds
ORACLE_MAX_ITER = 10_000  # power steps of the oracle before it gives up
SYMMETRY_TILE = 256


def _pow2_scale(x: float) -> float:
    """The power of two that brings x >= 0 into [1/2, 1), or as close as the
    largest double allows for subnormal x: exact to apply."""
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))


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
        """Matrix acting on node-value vectors: K * diag(w), a fresh n x n
        array; ``matvec`` and ``rmatvec`` apply it without forming it."""
        return self.entries * self.space.weights[np.newaxis, :]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """T x = K (w x) for a node-value vector x or for each column of an
        n x k block, read off the entries.  A complex x goes as two real
        products: numpy would cast K to complex."""
        if np.iscomplexobj(x):
            return self.matvec(x.real) + 1j * self.matvec(x.imag)
        w = self.space.weights
        return self.entries @ ((w if x.ndim == 1 else w[:, np.newaxis]) * x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """T^T y = w (K^T y), the transpose of ``matvec``."""
        return self.space.weights * (self.entries.T @ y)

    def weighted_inf_norm(self) -> float:
        """||T||_inf = max(K w), the largest weighted row sum of the
        nonnegative entries; an upper bound for the spectral radius."""
        return float((self.entries @ self.space.weights).max())

    @cached_property
    def symmetric(self) -> bool:
        """K == K^T entry for entry, decided once per kernel.  Each tile of
        the upper triangle is compared with its mirror tile, a transpose
        that stays in cache, and the first tile that differs ends the
        scan."""
        k, t = self.entries, SYMMETRY_TILE
        return all(
            np.array_equal(k[i : i + t, j : j + t], k[j : j + t, i : i + t].T)
            for i in range(0, self.size, t)
            for j in range(i, self.size, t)
        )

    @cached_property
    def compression(self) -> Compression | None:
        """The low-rank eigendecomposition of ``compress_symmetric``, made on
        first use and kept with the kernel; None where it gives up."""
        return compress_symmetric(self)


def apply(kernel: Kernel, f: GridFunction) -> GridFunction:
    """T f, the weighted matrix-vector product."""
    check_same_space(kernel.space, f.space)
    return GridFunction(kernel.matvec(f.values), kernel.space)


def compose(a: Kernel, b: Kernel) -> Kernel:
    """Kernel of the operator product: (A o B)_ij = sum_k A_ik w_k B_kj."""
    check_same_space(a.space, b.space)
    return Kernel(a.matvec(b.entries), a.space)


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


# The randomized range finder takes one block of COMPRESSION_BLOCK columns;
# kernels below 4 COMPRESSION_BLOCK nodes are not compressed.  Every
# Gaussian of the benchmark (sigma 0.1 to 0.4) meets the rank rule with it.
# BLAS on one thread, the block costs 5 to 6 ms at n = 600 and 53 to 58 ms
# at n = 2000 (a dense eigh of S: 38 to 92 ms and 1.3 to 2.0 s), and that
# is all a full-rank kernel spends before its eigh, or, in a library solve
# from 512 nodes on, before its LU.
COMPRESSION_BLOCK = 32
COMPRESSION_PROBES = 10
COMPRESSION_EXPONENT = 100


@dataclass(frozen=True, eq=False)
class Compression:
    """S = W^1/2 K W^1/2 ~ V diag(values) V^T, V with orthonormal columns
    and values ascending; ``probe_bound`` bounds ||(I - V V^T) S||_2."""

    values: np.ndarray
    vectors: np.ndarray
    probe_bound: float

    @property
    def rank(self) -> int:
        return self.values.size


def compress_symmetric(kernel: Kernel) -> Compression | None:
    """Low-rank eigendecomposition of S = W^1/2 K W^1/2 for a symmetric
    kernel, by the randomized range finder of Halko, Martinsson & Tropp
    (2011, SIAM Rev. 53, Alg. 4.2 with one power step and Rayleigh-Ritz).

    A block of COMPRESSION_BLOCK seeded Gaussian columns gives the
    orthonormal range Q of S S Omega (orthonormalized after each
    product), and the eigenpairs of Q^T S Q give V and the values.
    COMPRESSION_PROBES further Gaussian columns omega_i bound the range
    error: with probability at least 1 - 10^-10,
    ||(I - Q Q^T) S|| <= 10 sqrt(2/pi) max_i ||(I - Q Q^T) S omega_i||
    (their section 4.3).  The compression is taken when that bound is at
    most n eps |mu_1|, the backward error of a dense eigh; otherwise, for
    a nonsymmetric kernel and for n below 4 COMPRESSION_BLOCK, the result
    is None.  The seed is fixed, so the result repeats bit for bit.
    """
    n = kernel.size
    if 4 * COMPRESSION_BLOCK > n or not kernel.symmetric:
        return None
    # the range finder runs on scale * S, scale a power of two and so
    # exact: 2^-e where max(K) max(w) < 2^e bounds the entries of S and
    # |e| > COMPRESSION_EXPONENT, so that no kernel magnitude overflows the
    # probe norms or underflows the probe miss, and 1 otherwise.  A scale
    # on every kernel would move some small eigenvalues by an ulp: the
    # pivot threshold of LAPACK's MRRR eigensolver is not scale-invariant.
    w = kernel.space.weights
    exponent = math.frexp(float(kernel.entries.max()))[1] + math.frexp(float(w.max()))[1]
    scale = math.ldexp(1.0, -exponent) if abs(exponent) > COMPRESSION_EXPONENT else 1.0
    root_w = np.sqrt(w)[:, np.newaxis]
    scaled_root_w = scale * root_w

    def apply_s(x):
        return root_w * (kernel.entries @ (scaled_root_w * x))

    rng = np.random.default_rng(1234567)
    s_probes = apply_s(rng.standard_normal((n, COMPRESSION_PROBES)))
    q = apply_s(rng.standard_normal((n, COMPRESSION_BLOCK)))
    q = qr(q, mode="economic", overwrite_a=True, check_finite=False)[0]
    q = qr(apply_s(q), mode="economic", overwrite_a=True, check_finite=False)[0]
    b = q.T @ apply_s(q)
    values, u = eigh(0.5 * (b + b.T))
    miss = s_probes - q @ (q.T @ s_probes)
    bound = 10.0 * math.sqrt(2.0 / math.pi) * float(np.linalg.norm(miss, axis=0).max())
    if bound > n * np.finfo(float).eps * float(np.abs(values).max()):
        return None
    return Compression(values / scale, q @ u, bound / scale)


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


def verify_schur(kernel: Kernel, bound: SchurBound) -> SchurReport:
    check_same_space(kernel.space, bound.row_weight.space)
    check_same_space(kernel.space, bound.col_weight.space)
    phi = bound.row_weight.values
    psi = bound.col_weight.values
    if not (np.all(phi > 0) and np.all(psi > 0)):
        raise ValueError("Schur weights must be strictly positive")
    c = bound.constant
    row = kernel.matvec(psi) / (c * phi)
    col = (kernel.entries.T @ (phi * kernel.space.weights)) / (c * psi)
    max_row = float(row.max())
    max_col = float(col.max())
    return SchurReport(
        max_row, max_col, holds=max_row <= 1 + SCHUR_SLACK and max_col <= 1 + SCHUR_SLACK
    )


def tight_schur_bound(kernel: Kernel) -> SchurBound:
    """Flat-weight bound with C = max weighted row/column sum."""
    c = max(kernel.weighted_inf_norm(), float((kernel.space.weights @ kernel.entries).max()))
    ones = kernel.space.ones()
    return SchurBound(ones, ones, c)


@dataclass(frozen=True, eq=False)
class PowerIterationResult:
    rho: float
    vec: GridFunction
    iterations: int


def spectral_radius_oracle(kernel: Kernel, tol: float = 1e-12) -> PowerIterationResult:
    """Spectral radius of the weighted operator by plain power iteration.

    This is the independent oracle the factorization-based solver is
    checked against; it never touches the rank-one machinery.  The
    returned vector is nonnegative with sup-norm 1.  For strictly
    positive iterates a Collatz-Wielandt bracket of relative width tol
    certifies the result.  The successive change of the estimate max(T x)
    ends it only at a step where that bracket does not narrow, or where
    x has a zero entry and so no bracket: on the flat interior of a narrow
    Gaussian the estimate repeats long before the bracket closes.  Both
    tests are relative, so the result of c K is c times that of K.
    Non-convergence (peripheral multiplicity) raises PowerIterationError.
    Each step is one ``kernel.matvec``; no n x n array is formed.
    """
    if not kernel.entries.any():
        return PowerIterationResult(0.0, kernel.space.ones(), 0)
    x = np.ones(kernel.size)
    rho_prev, width = None, np.inf
    for it in range(1, ORACLE_MAX_ITER + 1):
        y = kernel.matvec(x)
        rho = float(y.max())
        if rho <= 0.0:
            # the nonnegative iterate died: nilpotent direction
            return PowerIterationResult(0.0, GridFunction(x, kernel.space), it)
        narrowed = False
        if np.all(x > 0):
            ratios = y / x
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= tol * hi:
                return PowerIterationResult(
                    0.5 * (lo + hi), GridFunction(y / rho, kernel.space), it
                )
            narrowed, width = hi - lo < width, hi - lo
        if not narrowed and rho_prev is not None and abs(rho - rho_prev) <= tol * rho:
            return PowerIterationResult(rho, GridFunction(y / rho, kernel.space), it)
        rho_prev = rho
        x = y / rho
    raise PowerIterationError(
        f"power iteration did not converge in {ORACLE_MAX_ITER} iterations "
        "(possible peripheral multiplicity)"
    )


# dense eig against Arnoldi, BLAS on one thread: at n = 64, 1.7-2.7 ms
# against 1.0-3.1 ms (Gaussian to log-normal); from n = 100 on Arnoldi
# wins on both.  The n = 60 warm-up of a CLI process stays dense.
DENSE_RADIUS_MAX_DIM = 64
ARNOLDI_RESTARTS = 28   # 25 + 20 * 28 = 585 mat-vecs, no more than 600 power steps


@dataclass(frozen=True)
class SecondRadius:
    radius: float
    # ||A x - theta x|| / (max(|theta|, ||T||_inf) ||x||) of the top eigenpair:
    # a backward error on the scale of T, not a relative error of theta
    residual: float
    route: str        # "arnoldi" or "dense"


def _deflate(t_op: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I - P) T (I - P) for P = a b^T, as the O(n^2) rank-two update
    T - a (T^T b)^T - (T a - (b . T a) a) b^T."""
    ta = t_op @ a
    deflated = t_op - np.outer(a, b @ t_op)
    deflated -= np.outer(ta - (b @ ta) * a, b)
    return deflated


def _deflated_matvec(kernel: Kernel, scale: float, a, b, c, x):
    """(I - P) A (I - P) x for A = scale T and P = a b^T, where
    c = A a - (b . A a) a."""
    tx = kernel.matvec(scale * x)
    return tx - (b @ tx) * a - (b @ x) * c


def _top_pair(theta, x, ax, norm: float, scale: float, route: str) -> SecondRadius:
    """The radius |theta| / scale of a pair of A = scale (I - P) T (I - P),
    with the misfit ||A x - theta x|| over max(|theta|, scale ||T||_inf)
    ||x||, the backward error of the pair on the scale of T, which scale
    leaves unchanged.  A x is formed from T, so it carries a rounding error
    of about eps ||T||_inf ||x|| whatever theta is: on a rank-one T, where
    theta is itself that noise, a misfit over |theta| alone reads O(1)."""
    radius = float(abs(theta))
    misfit = float(np.linalg.norm(ax - theta * x))
    size = max(radius, scale * norm, np.finfo(float).tiny) * float(np.linalg.norm(x))
    return SecondRadius(radius / scale, misfit / size if misfit else 0.0, route)


def _inverse_iteration(a: np.ndarray, theta, norm: float) -> np.ndarray:
    """An eigenvector of a for its computed eigenvalue theta, by two steps
    of inverse iteration from a fixed start, in complex arithmetic for a
    complex theta.  theta is exact up to rounding, so a - theta I is
    singular up to rounding: as in LAPACK's xLAEIN, LU pivots below
    eps ||a|| are raised to it, and the solves stay finite."""
    shifted = a - theta * np.eye(a.shape[0])
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (shifted,))
    lu, piv, _ = getrf(shifted, overwrite_a=True)
    floor = np.finfo(float).eps * max(norm, np.finfo(float).tiny)
    small = np.flatnonzero(np.abs(lu.diagonal()) < floor)
    lu[small, small] = floor
    x = np.random.default_rng(1234567).uniform(0.5, 1.5, a.shape[0]).astype(shifted.dtype)
    for _ in range(2):
        x = getrs(lu, piv, x)[0]
        x /= np.linalg.norm(x)
    return x


def growth_radius(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> SecondRadius:
    """Spectral radius of (I - P) T (I - P) for T the operator of
    ``kernel`` and P = a b^T, with the residual of its top eigenpair.

    Above ``DENSE_RADIUS_MAX_DIM`` the radius comes from implicitly
    restarted Arnoldi (ARPACK ``eigs``: the 3 eigenvalues of largest
    modulus, 24 Krylov vectors, tolerance 1e-10, a fixed seeded start
    vector) on the deflation applied as a rank-two update of
    ``kernel.matvec``, so neither T nor its deflation is formed as an
    n x n array; ||T||_inf is ``weighted_inf_norm``.  A run that
    has not converged after ``ARNOLDI_RESTARTS`` restarts (585 mat-vecs)
    falls back to the dense route, as do small n: the largest modulus among all eigenvalues of
    the dense deflated matrix (``numpy.linalg.eigvals``), exact up to
    rounding, with its eigenvector by inverse iteration.  The worst case
    is a deflated spectrum of many equal moduli (a cyclic permutation
    plus a constant): Arnoldi cannot converge there, so it pays the
    capped run and then the dense route.  The residual is relative to
    max(|theta|, ||T||_inf), so on a rank-one T, where the deflation
    leaves only rounding, it reads at rounding level too.  It is a
    backward error on the scale of T and does not bound the relative
    error of theta.  Both routes run on scale T, with scale the power of
    two that brings ||T||_inf into [1/2, 1), and divide theta by it: so
    ARPACK's convergence test, absolute below |theta| = eps^(2/3), and the
    norms of the residual see a T of order 1 whatever the kernel's scale.
    """
    n = kernel.size
    norm = kernel.weighted_inf_norm()
    scale = _pow2_scale(norm)
    if n > DENSE_RADIUS_MAX_DIM:
        # lazy: at module level scipy.sparse adds ~30 ms and 2.4 MB to every perron process
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

        ta = kernel.matvec(scale * a)
        c = ta - (b @ ta) * a
        op = LinearOperator(
            (n, n), matvec=lambda x: _deflated_matvec(kernel, scale, a, b, c, x), dtype=float
        )
        start = np.random.default_rng(1234567).uniform(0.5, 1.5, n)
        try:
            vals, vecs = eigs(op, k=3, which="LM", ncv=min(n, 24), tol=1e-10, v0=start,
                              maxiter=ARNOLDI_RESTARTS)
        except ArpackError:
            pass
        else:
            i = int(np.argmax(np.abs(vals)))
            x = vecs[:, i]
            ax = _deflated_matvec(kernel, scale, a, b, c, x)
            return _top_pair(vals[i], x, ax, norm, scale, "arnoldi")
    t_op = kernel.operator_matrix()
    t_op *= scale
    deflated = _deflate(t_op, a, b)
    vals = np.linalg.eigvals(deflated)
    theta = vals[int(np.argmax(np.abs(vals)))]
    if theta.imag == 0:
        theta = theta.real
    x = _inverse_iteration(deflated, theta, scale * norm)
    return _top_pair(theta, x, deflated @ x, norm, scale, "dense")


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
