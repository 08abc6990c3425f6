"""Nonnegative kernels as weight-aware dense matrices.

A kernel K over a space with weights w induces the operator
``(Tf)_i = sum_j K_ij f_j w_j``.  Composition inserts the weights
between factors, ``(A o B)_ij = sum_k A_ik w_k B_kj``, so the discrete
algebra is consistent with the quadrature rule at every order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, get_lapack_funcs, qr, toeplitz
from scipy.linalg.blas import dsymv

from .errors import DimensionMismatchError, PowerIterationError, ScaleOverflowError
from .measure import (
    GridFunction,
    MeasureSpace,
    check_same_space,
    lattice_step,
    make_counting_space,
)

NONNEG_SLACK = 1e-14  # float noise must not disqualify a nonnegative kernel
SCHUR_SLACK = 1e-12  # a Schur ratio up to 1 + SCHUR_SLACK holds
ORACLE_MAX_ITER = 10_000  # power steps of the oracle before it gives up
SYMMETRY_TILE = 256
# A product of K with a few columns is bound by the read of K, but one BLAS
# call packs all of K first; in row panels each panel is packed in cache.
# At n = 2000, BLAS on one thread, 2 to 4 columns take 1.0 ms in panels
# against 2.0 to 2.6 ms plain (3 columns only when padded to 4: 1.43 ms
# otherwise), and one vector 0.92 ms in dgemv; 32 columns are faster plain
# (4.0 against 4.7 ms).  Below about 512 nodes K stays in cache and 2
# columns are faster plain (n = 400: 0.017 against 0.025 ms).  One vector
# on a symmetric kernel reads one triangle (dsymv): 0.70 against 1.4 ms
# at n = 2000 and 0.038 against 0.114 ms at n = 600.
PANEL_ROWS = 64
PANEL_MAX_COLUMNS = 4
PANEL_MIN_DIM = 512


def _pow2_scale(x: float) -> float:
    """The power of two that brings x >= 0 into [1/2, 1), or as close as the
    largest double allows for subnormal x: exact to apply."""
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))


@contextmanager
def overflow_raises(kernel: Kernel, what: str):
    """Run the block with numpy's overflow raised as ScaleOverflowError,
    which names ``what``, ||T||_inf and the power of two ``_pow2_scale``
    that brings it into [1/2, 1): an exact rescale, as ``perron verify``
    makes, under which the result no longer overflows."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        norm = kernel.weighted_inf_norm()
        raise ScaleOverflowError(
            f"{what} overflow double precision on a kernel with ||T||_inf = {norm:.3e}; "
            f"rescale the kernel by 2^{math.frexp(_pow2_scale(norm))[1] - 1} "
            "(_pow2_scale of ||T||_inf), as perron verify does"
        ) from exc


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense nonnegative n x n kernel matrix over a measure space.

    ``Kernel(entries, space)`` screens the n^2 entries in ``__post_init__``.
    A symmetric Toeplitz kernel ``K_ij = g_|i-j|`` is built by ``_toeplitz``
    from its n generator values, and screened from them."""

    entries: np.ndarray
    space: MeasureSpace
    # the largest entry and the least of each row, from the screen: the sup
    # norm of the nonnegative entries and the profile of the row_min
    # certificate, kept so that no caller passes over K again
    max_entry: float = field(init=False, repr=False)
    row_minima: np.ndarray = field(init=False, repr=False)

    @classmethod
    def _toeplitz(cls, g: np.ndarray, space: MeasureSpace) -> Kernel:
        """The symmetric Toeplitz kernel ``K_ij = g_|i-j|``, its entries
        written here from g, and screened from g in O(n): row i holds
        exactly g_0 .. g_max(i, n-1-i), so its least entry is the running
        minimum of g there, the largest entry is max(g), and K is symmetric
        by construction, so the tile scan of ``symmetric`` never runs.  The
        fields equal those of ``Kernel(entries, space)`` bit for bit.  A g
        that is not finite and nonnegative, or not of the space's size,
        takes that full screen, which raises its errors."""
        entries = toeplitz(g)
        entries.flags.writeable = False
        lo, hi = float(g.min()), float(g.max())
        if g.shape != (space.size,) or not (lo >= 0 and np.isfinite(hi)):
            return cls(entries, space)
        i = np.arange(g.size)
        row_minima = np.minimum.accumulate(g)[np.maximum(i, g.size - 1 - i)]
        row_minima.flags.writeable = False
        kernel = object.__new__(cls)
        for name, value in (("entries", entries), ("space", space), ("max_entry", hi),
                            ("row_minima", row_minima), ("symmetric", True)):
            object.__setattr__(kernel, name, value)
        return kernel

    def __post_init__(self):
        entries = self.entries
        # a read-only contiguous float64 array that owns its data is
        # frozen: shared, not copied
        if not (
            isinstance(entries, np.ndarray)
            and entries.dtype == np.float64
            and entries.flags.owndata
            and not entries.flags.writeable
            and (entries.flags.c_contiguous or entries.flags.f_contiguous)
        ):
            entries = np.array(entries, dtype=float)
        n = self.space.size
        if entries.shape != (n, n):
            raise DimensionMismatchError(
                f"kernel must be {n} x {n}, got {entries.shape}"
            )
        # min and max propagate nan and reach inf, so they screen every entry
        row_minima = entries.min(axis=1)
        lo, hi = float(row_minima.min()), float(entries.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            bad = np.argwhere(~np.isfinite(entries))
            where = ", ".join(f"{entries[i, j]} at ({i}, {j})" for i, j in bad[:3])
            more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
            raise ValueError(f"kernel entries must be finite: {where}{more}")
        if lo < -NONNEG_SLACK * max(1.0, -lo, hi):
            raise ValueError("kernel entries must be nonnegative")
        if lo < 0:
            entries = np.maximum(entries, 0.0, out=entries if entries.flags.writeable else None)
            row_minima = entries.min(axis=1)
            hi = max(hi, 0.0)
        entries.flags.writeable = False
        row_minima.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "max_entry", hi)
        object.__setattr__(self, "row_minima", row_minima)

    @property
    def size(self) -> int:
        return self.space.size

    def operator_matrix(self) -> np.ndarray:
        """Matrix acting on node-value vectors: K * diag(w), a fresh n x n
        array; ``matvec`` and ``rmatvec`` apply it without forming it."""
        return self.entries * self.space.weights[np.newaxis, :]

    def product(self, x: np.ndarray) -> np.ndarray:
        """K x for a real vector x or each column of a real n x k block, one
        read of the entries.  A vector on a ``symmetric`` kernel is one read
        of one triangle: BLAS dsymv on the lower triangle of whichever of K
        and K^T is Fortran-ordered, the same matrix, so no copy is made.
        The triangle fixes the order of the sums, and with it the rounding:
        the lower one is as accurate as dgemv, the upper one 3 times less
        (see the README's numerical notes).  From PANEL_MIN_DIM nodes on, a
        block of 2 to PANEL_MAX_COLUMNS columns goes through K in row panels
        of PANEL_ROWS rows, 3 columns padded to 4 with a zero column; a
        vector of any other kernel and any other block are one BLAS call."""
        k = self.entries
        if x.ndim == 1:
            if self.symmetric:
                return dsymv(1.0, k if k.flags.f_contiguous else k.T, x, lower=1)
            return k @ x
        if self.size < PANEL_MIN_DIM or not 2 <= x.shape[1] <= PANEL_MAX_COLUMNS:
            return k @ x
        columns = x.shape[1]
        if columns == 3:
            x = np.column_stack([x, np.zeros(self.size)])
        out = np.empty(x.shape)
        for i in range(0, self.size, PANEL_ROWS):
            np.matmul(k[i : i + PANEL_ROWS], x, out=out[i : i + PANEL_ROWS])
        return out[:, :columns]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """T x = K (w x) for a node-value vector x or for each column of an
        n x k block, one ``product`` over the entries, so a narrow block
        goes in row panels.  A complex x goes as two real products: numpy
        would cast K to complex."""
        if np.iscomplexobj(x):
            return self.matvec(x.real) + 1j * self.matvec(x.imag)
        w = self.space.weights
        return self.product((w if x.ndim == 1 else w[:, np.newaxis]) * x)

    def transposed_product(self, y: np.ndarray) -> np.ndarray:
        """K^T y for a real vector y: ``product`` where K is symmetric."""
        return self.product(y) if self.symmetric else self.entries.T @ y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """T^T y = w (K^T y), the transpose of ``matvec``."""
        return self.space.weights * self.transposed_product(y)

    def weighted_inf_norm(self) -> float:
        """||T||_inf = max(K w), the largest weighted row sum of the
        nonnegative entries; an upper bound for the spectral radius."""
        return float(self.product(self.space.weights).max())

    @cached_property
    def symmetric(self) -> bool:
        """K == K^T entry for entry, decided once per kernel, at its first
        vector ``product`` at the latest; a ``_toeplitz`` kernel is built
        symmetric and never scanned.  Each tile of the upper triangle
        is compared with its mirror tile, a transpose that stays in cache,
        and the first tile that differs ends the scan."""
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


# The randomized range finder grows its basis by blocks of COMPRESSION_BLOCK
# columns up to COMPRESSION_MAX_RANK; kernels below COMPRESSION_MIN_DIM nodes
# are not compressed.  On [0, 1] the Gaussians with sigma 0.3 and above
# (the benchmark's) meet the rank rule with one block, sigma 0.12 to 0.25
# with two, and sigma 0.1 with two (n = 2000) or after the power step
# (n = 600; none at n = 200); sigma 0.08 and below, e^-|x-y| and
# log-normal matrices give up.
# BLAS on one thread, medians of two sets on a shared 2-core Xeon,
# sigma = 0.35 costs 1.7 to 1.8 ms at n = 600 and 15 to 18 ms at n = 2000,
# and e^-|x-y| spends 4.7 to 4.8 and 27 to 37 ms before it gives up (a
# dense eigh of its S: 32 ms and 0.9 s).  That is all such a kernel spends
# before its eigh, or, in a library solve from 512 nodes on, before its LU.
# A cap of 64 compresses sigma 0.05 to 0.08 too (rank 48 to 64), but a
# full-rank kernel then pays 154 product columns to give up, its power step
# at 64 columns included, against 90 at a cap of 32: 8.1 ms at n = 600 and
# 62 ms at n = 2000.
COMPRESSION_BLOCK = 16
COMPRESSION_MAX_RANK = 32
COMPRESSION_MIN_DIM = 128
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
    kernel, by the adaptive randomized range finder of Halko, Martinsson &
    Tropp (2011, SIAM Rev. 53: Alg. 4.2 grown by blocks as in their
    section 4.4, over the block Krylov space of their section 4.6, with
    Rayleigh-Ritz, and one power step where the probes ask for it).

    COMPRESSION_PROBES seeded Gaussian columns omega_i and a block Omega
    of COMPRESSION_BLOCK more go through S in one product.  The
    orthonormal range Q of S Omega and the eigenpairs of Q^T S Q give V
    and the values.  The probes bound the range error: with probability
    at least 1 - 10^-10,
    ||(I - Q Q^T) S|| <= 10 sqrt(2/pi) max_i ||(I - Q Q^T) S omega_i||
    (their section 4.3).  The compression is taken when that bound is at
    most n eps |mu_1|, the backward error of a dense eigh.  Where it is
    not, and Q holds fewer than COMPRESSION_MAX_RANK columns, Q grows by
    a block: the last block of the Rayleigh-Ritz product S Q, twice
    orthogonalized against Q (as in the blocked randQB of Martinsson &
    Voronin 2016, SIAM J. Sci. Comput. 38(5)), so that Q spans
    [S Omega, S^2 Omega, ...] and each block costs the one product that
    extends S Q.  At the cap a miss takes the power step: Q becomes the
    orthonormal range of S Q, and the same test decides again.  The
    probes are independent of every range, so the tests hold together
    with probability at least 1 - 3 10^-10.  A miss after the power step,
    a nonsymmetric kernel and n below COMPRESSION_MIN_DIM give None.  The
    seed is fixed, so the result repeats bit for bit.  Product columns:
    42 at rank 16, 58 at rank 32 and 90 with the power step.  The top
    value is the ``_rayleigh_quotient`` of its Ritz vector x, with
    S x = (S q) u_top from the product the stage made.
    """
    n = kernel.size
    if n < COMPRESSION_MIN_DIM or not kernel.symmetric:
        return None
    # the range finder runs on scale * S, scale a power of two and so
    # exact: 2^-e where max(K) max(w) < 2^e bounds the entries of S and
    # |e| > COMPRESSION_EXPONENT, so that no kernel magnitude overflows the
    # probe norms or underflows the probe miss, and 1 otherwise.  A scale
    # on every kernel would move some small eigenvalues by an ulp: the
    # pivot threshold of LAPACK's MRRR eigensolver is not scale-invariant.
    w = kernel.space.weights
    exponent = math.frexp(kernel.max_entry)[1] + math.frexp(float(w.max()))[1]
    scale = math.ldexp(1.0, -exponent) if abs(exponent) > COMPRESSION_EXPONENT else 1.0
    root_w = np.sqrt(w)[:, np.newaxis]
    scaled_root_w = scale * root_w

    def apply_s(x):
        return root_w * kernel.product(scaled_root_w * x)

    def orth(y):
        return qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]

    rng = np.random.default_rng(1234567)
    s_omega = apply_s(np.hstack([rng.standard_normal((n, COMPRESSION_PROBES)),
                                 rng.standard_normal((n, COMPRESSION_BLOCK))]))
    s_probes = s_omega[:, :COMPRESSION_PROBES]
    q = orth(s_omega[:, COMPRESSION_PROBES:])
    y = apply_s(q)
    stepped = False
    while True:
        b = q.T @ y
        values, u = eigh(0.5 * (b + b.T))
        miss = s_probes - q @ (q.T @ s_probes)
        bound = 10.0 * math.sqrt(2.0 / math.pi) * float(np.linalg.norm(miss, axis=0).max())
        if bound <= n * np.finfo(float).eps * float(np.abs(values).max()):
            vectors = q @ u
            values[-1] = _rayleigh_quotient(vectors[:, -1], y @ u[:, -1])
            return Compression(values / scale, vectors, bound / scale)
        if q.shape[1] < COMPRESSION_MAX_RANK:
            block = y[:, -COMPRESSION_BLOCK:]
            for _ in range(2):
                block = orth(block - q @ (q.T @ block))
            q = np.hstack([q, block])
            y = np.hstack([y, apply_s(block)])
        elif stepped:
            return None
        else:
            # the gate missed at the cap: the Rayleigh-Ritz product S q is
            # the power step
            q, stepped = orth(y), True
            y = apply_s(q)


def full_eigenbasis(kernel: Kernel) -> Compression:
    """S = W^1/2 K W^1/2 = V diag(values) V^T of a symmetric kernel in
    full, from one dense eigh: a compression of rank n with probe bound 0,
    not kept with the kernel.  The top value is the ``_rayleigh_quotient``
    of the top vector x, with S x from one ``Kernel.product``."""
    root_w = np.sqrt(kernel.space.weights)
    values, vectors = eigh(root_w[:, np.newaxis] * kernel.entries * root_w)
    top = vectors[:, -1]
    values[-1] = _rayleigh_quotient(top, root_w * kernel.product(root_w * top))
    return Compression(values, vectors, 0.0)


def _rayleigh_quotient(x: np.ndarray, sx: np.ndarray) -> float:
    """x . S x / x . x, each sum rounded once (``math.fsum``), the top value
    of an eigenbasis: D-curves divide lam - mu_top out of D, so at lambda0
    an ulp of mu_top moves D by about D'(lambda0) ulp(mu_top), 2e-10 for
    the Gaussian of width 0.1 at n = 600.  On Gaussians of width 0.1 to 1
    at n = 600 and 1000 it lies within 0.7 ulps of a long-double quotient,
    where the eigh of q^T S q was up to 14 ulps off, and that of S a few."""
    return math.fsum(x * sx) / math.fsum(x * x)


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
    col = kernel.transposed_product(phi * kernel.space.weights) / (c * psi)
    max_row = float(row.max())
    max_col = float(col.max())
    return SchurReport(
        max_row, max_col, holds=max_row <= 1 + SCHUR_SLACK and max_col <= 1 + SCHUR_SLACK
    )


def tight_schur_bound(kernel: Kernel) -> SchurBound:
    """Flat-weight bound with C = max weighted row/column sum."""
    col_sums = kernel.transposed_product(kernel.space.weights)
    c = max(kernel.weighted_inf_norm(), float(col_sums.max()))
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
# the backward error a second radius's eigenpair must meet: ARPACK's
# tolerance, and the acceptance test of the compression's pair
RADIUS_TOL = 1e-10


@dataclass(frozen=True)
class SecondRadius:
    radius: float
    # ||A x - theta x|| / (max(|theta|, ||T||_inf) ||x||) of the top eigenpair:
    # a backward error on the scale of T, not a relative error of theta
    residual: float
    route: str        # "compression", "arnoldi" or "dense"


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


def _compressed_pair(kernel: Kernel, compression: Compression, a, b, norm: float,
                     scale: float, threshold: float) -> SecondRadius | None:
    """The second radius of (I - P) T (I - P), P = a b^T, from the
    kernel's compression S ~ V diag(mu) V^T, or None where the compression
    cannot decide it.

    T = W^-1/2 S W^1/2, and for the Perron projection P its deflation
    has the spectrum of S without mu_top, its largest Ritz value, and 0.
    Weyl's inequality puts that spectrum within 2 probe_bound of the Ritz
    values other than mu_top and 0: ||S - V diag(mu) V^T|| is at most
    twice the probe bound.  The solve's own P enters in two ways.  Its
    distance d from the compression's Perron projection v v^T, in the
    coordinates of S, moves the deflation by at most |mu_top| d (2 + d),
    and the deflation with v v^T is symmetric, so by Bauer-Fike no
    eigenvalue moves further.  And one product of T checks the candidate
    pair (mu_k, W^-1/2 v_k), mu_k the Ritz value of largest modulus below
    the top, against the deflation with P itself: the backward error of
    ``_top_pair``, in the units of the Arnoldi route.  The radius |mu_k|
    is taken when that error is at most RADIUS_TOL and the two slacks
    together cannot carry it across ``threshold``, the radius at which
    the verdict on dominance changes; a wrong P or a wrong compression
    fails one of the tests."""
    values, vectors = compression.values, compression.vectors
    k = int(np.argmax(np.abs(values[:-1])))
    root_w = np.sqrt(kernel.space.weights)
    x = vectors[:, k] / root_w
    y = x - (b @ x) * a
    ty = kernel.matvec(scale * y)
    pair = _top_pair(scale * values[k], x, ty - (b @ ty) * a, norm, scale, "compression")
    # P in the coordinates of S is a_s b_s^T; with g = v . a_s,
    # a_s b_s^T - v v^T = (a_s - g v) b_s^T + v (g b_s - v)^T
    v, a_s, b_s = vectors[:, -1], root_w * a, b / root_w
    g = float(v @ a_s)
    d = float(np.linalg.norm(a_s - g * v) * np.linalg.norm(b_s) + np.linalg.norm(g * b_s - v))
    slack = 2.0 * compression.probe_bound + abs(values[-1]) * d * (2.0 + d)
    if not (pair.residual <= RADIUS_TOL and abs(pair.radius - threshold) > slack):
        return None
    return pair


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


def growth_radius(kernel: Kernel, a: np.ndarray, b: np.ndarray, threshold: float,
                  norm: float | None = None) -> SecondRadius:
    """Spectral radius of (I - P) T (I - P) for T the operator of
    ``kernel`` and P = a b^T, with the residual of its top eigenpair;
    ``threshold`` is the radius at which the caller's verdict changes,
    and ``norm`` is ||T||_inf where the caller has it, else
    ``weighted_inf_norm`` reads it from K.

    A symmetric kernel with a compression (``Kernel.compression``) reads
    the radius from its Ritz values, checked against P by one product of
    T (``_compressed_pair``); where that check cannot decide the verdict,
    and for every other kernel, the radius is computed as follows.
    Above ``DENSE_RADIUS_MAX_DIM`` it comes from implicitly
    restarted Arnoldi (ARPACK ``eigs``: the 3 eigenvalues of largest
    modulus, 24 Krylov vectors, tolerance RADIUS_TOL, a fixed seeded start
    vector) on the deflation applied as a rank-two update of
    ``kernel.matvec``, so neither T nor its deflation is formed as an
    n x n array.  A run that
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
    error of theta.  Every route runs on scale T, with scale the power of
    two that brings ||T||_inf into [1/2, 1), and divides theta by it: so
    ARPACK's convergence test, absolute below |theta| = eps^(2/3), and the
    norms of the residual see a T of order 1 whatever the kernel's scale.
    """
    n = kernel.size
    if norm is None:
        norm = kernel.weighted_inf_norm()
    scale = _pow2_scale(norm)
    compression = kernel.compression
    if compression is not None:
        pair = _compressed_pair(kernel, compression, a, b, norm, scale, threshold)
        if pair is not None:
            return pair
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
            vals, vecs = eigs(op, k=3, which="LM", ncv=min(n, 24), tol=RADIUS_TOL, v0=start,
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
    """exp(-d^2 / (2 sigma^2)) with d the distance of two nodes.

    On the midpoint or trapezoid lattice of an interval the kernel is a
    symmetric Toeplitz matrix: the n values ``g_k`` at ``d = k h`` fill
    ``K_ij = g_|i-j|`` in one n x n write, where the direct formula takes
    n^2 exponentials.  ``lattice_step`` decides the route from the nodes
    themselves, so a hand-built space whose nodes are off its rule's
    lattice, and every Gauss-Legendre space, takes the direct formula
    ``x_i - x_j``.  The lattice's ``(i - j) h`` is also the more accurate
    distance: ``x_i - x_j`` cancels the rounding of nodes far from 0, which
    on [1000, 1001] costs up to 1.1e-11 relative in an entry.  Either route
    is symmetric entry for entry.  The lattice's kernel is screened from
    its n values (``Kernel._toeplitz``), the direct formula's from its n^2
    entries.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    h = lattice_step(space)
    # one buffer, filled in place: d^2 / (-2 sigma^2) rounds as -d^2 / (2 sigma^2)
    d = np.subtract.outer(space.nodes, space.nodes) if h is None else np.arange(space.size) * h
    np.square(d, out=d)
    d /= -2.0 * sigma**2
    np.exp(d, out=d)
    if h is not None:
        return Kernel._toeplitz(d, space)
    d.flags.writeable = False
    return Kernel(d, space)


def kernel_from_csv(path, space: MeasureSpace | None = None) -> Kernel:
    """Dense header-free comma-separated matrix; counting space by default."""
    entries = np.loadtxt(path, delimiter=",", ndmin=2)
    if space is None:
        space = make_counting_space(entries.shape[0])
    return Kernel(entries, space)
