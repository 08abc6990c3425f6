"""Rank-one inversion and the Birman-Schwinger scalar function.

A rank-one split T = alpha*(profile x phi) + R turns the resolvent of T
into an explicit correction of the resolvent of the remainder:

    (lam*I - T)^-1 = R_lam + alpha * (R_lam u) x (phi o R_lam) / D(lam)

where R_lam = (lam*I - R)^-1, u is the certificate profile and

    D(lam) = 1 - alpha * phi[R_lam u].

D is the Birman-Schwinger function of the rank-one perturbation; it is
also its Fredholm determinant, det(I - a x b) = 1 - b[a].  D increases
strictly on (rho(R), inf), tends to 1 at infinity, and its unique root
there is the dominant eigenvalue of T.  Each shift certifies itself:
R >= 0, so (lam*I - R)^-1 1 > 0 exactly when lam > rho(R) (Berman &
Plemmons 1994, ch. 6); no estimate of rho(R) is made, and no eigensolver.

A shift lam used alone (the root search, the residue at the root) is
solved through one inverse of lam*I - R.  For a symmetric kernel of at
least COMPRESSED_SOLVE_MIN_DIM nodes with a low-rank compression
(below), it is that compression: Sherman-Morrison in its eigenbasis with
the top pole divided out applies (lam*I - R)^-1 and its transpose in
O(n k), the shift holds no n x n array, and every solve is refined to
double precision against a float64 residual of the implicit remainder
R = T - alpha*u x phi, applied as K (w x) - alpha u phi[x] from the
kernel's own entries, as LAPACK dsgesv refines float32 factors (Langou
et al. 2006; Carson & Higham 2018).  As dsgesv refines a block of
right-hand sides, a new shift refines its solves against 1 (which
certifies it), u (which gives D) and, transposed, phi (the left factor
of the residue) in lockstep: the kernel is symmetric, so
R^T y = w (K y) - alpha phi (u . y), and each step is one product
K [w x_1, w x_2, y] for all three, bound by one read of K; each solve
keeps its own stopping rule.  R_lam^2 u, which gives D', stays its own
solve, so that D' and the idempotency of the residue come from two
independent routes.  The compression is kept where
lam*I - R is well conditioned (condition number at most 1e4).  Any
other shift, and one whose refinement stalls, is one float64 LU
factorization of lam*I - R, with R the clamped gap
max(K - alpha*u x d, 0) of the split written straight into the one
n x n array of the shift, and solved directly.  The two routes solve
the two forms of R, which differ only where the clamp lifts a
float-noise slack to 0; no n x n remainder is kept.  The solve against 1
that certifies a shift also gives its condition number exactly, and a
shift above MAX_CONDITION is refused by it.  A whole grid of
shifts (the D-curve, the verify scan) shares one factorization instead.
For a symmetric kernel that is an eigenbasis of S = W^1/2 K W^1/2, one
``Compression`` whatever its rank, in which D and D' are secular sums
per shift (Golub 1973): the kernel's seeded low-rank compression from a
randomized range finder (Halko, Martinsson & Tropp 2011), O(n^2 k) once
per kernel and O(n k) per shift, or, where it gives up (full-rank
kernels, n < 128), the ``full_eigenbasis`` of one dense eigh, O(n^3)
per grid and O(n^2) per shift; this module decomposes no kernel itself.
For any other kernel it is one real Schur form R = Q S Q^T, and
back-substitution on the quasi-triangular S costs O(n^2) per shift, the
Bartels-Stewart reduction used for frequency responses (Laub 1981); a
two-sided compression of nonsymmetric kernels is not done.

Measured on a 2-core Xeon with BLAS on one thread, for the Gaussian
sigma = 0.35 on [0, 1]: a new well-conditioned shift (inverse, D and
D') costs 4.2 to 5.1 ms at n = 600 and 84 to 90 ms at n = 2000 with a
float64 LU.  On a compression of rank 32 (this kernel's rank is 16
since the range finder grows by blocks), a new shift with D,
D' and the left solve costs 1.5 ms and 3.5 to 4.8 ms, where it cost 1.8
and 5.3 to 6.5 ms with each solve reading K on its own: at n = 2000 a
step of the lockstep refinement takes 1.0 ms in row panels
(``Kernel.product``, 3 columns padded to 4), against 0.92 ms for one
vector in dgemv (0.70 ms in dsymv, which reads one triangle) and 2.6 ms
for 3 columns in one plain BLAS call, which packs all of K first.  The
compression costs 1.7 to 1.8 ms and 15 to 18 ms, once per kernel
(``kernel_op.COMPRESSION_BLOCK``, on a busier machine).  A library
solve, which makes the compression for its one shift, breaks even
with the float64 LU at or just below n = 384 (medians of 20
interleaved runs, two sets, the LU forced by a floor of n + 1, on the
busier machine: 3.9 to 5.4 against 4.1 to 5.6 ms at n = 384, 5.8 to
8.0 against 7.8 to 10.4 ms at n = 512, 9.0 to 9.7 against 13.2 to
14.0 ms at n = 640).  COMPRESSED_SOLVE_MIN_DIM = 512 is above it: the gain at
384 lies within the spread of the sets, and a symmetric kernel of full
rank pays the compression that gives up before its LU, one power step
included: 4.7 to 4.8 ms at n = 600 and 27 to 37 ms at n = 2000 for
e^-|x-y| on that machine.  A whole grid of 5 to 200 shifts on the
compression costs less than one LU shift at both sizes (2.0 to 2.5 ms
and 13 to 15 ms, the compression included), on the full eigenbasis
about 4 (19 to 22 ms) and 8 (0.70 to 0.73 s), on the Schur form about
40 (0.17 to 0.19 s) and 30 (2.5 to 2.8 s).  So on a compressible
kernel any grid is faster than one LU per shift; on other kernels a
grid shorter than the break-even is slower.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, schur

from .doeblin import RankOneSplit, _gap
from .errors import BelowSpectralRadiusError, IllConditionedError
from .kernel_op import Compression, _pow2_scale, full_eigenbasis
from .measure import GridFunction, WeightFunctional, check_same_space, pair

MAX_CONDITION = 1e12
# a shift whose condition number is at most COMPRESSED_MAX_CONDITION keeps
# the kernel's compression as its inverse, with its solves refined to
# double; after REFINE_STEPS corrections that miss the stopping rule it is
# factored in float64
COMPRESSED_MAX_CONDITION = 1e4
REFINE_STEPS = 30
# from this many nodes on, a symmetric kernel with a compression solves its
# shifts through the compression: a library solve that makes it breaks even
# with the float64 LU between 384 and 512 nodes (see the module docstring)
COMPRESSED_SOLVE_MIN_DIM = 512
# Newton, the residue extraction and value/derivative pairs revisit only
# the current shift; older shifts are dropped
LU_CACHE_SHIFTS = 2


@dataclass(eq=False)
class _Shift:
    """One cached shift lam with its inverse and the solves made there:
    R_lam u, R_lam^2 u, R_lam 1 and the left solve R_lam^-T phi.  The
    inverse is the float64 LU factors of (lam*I - R)^T or, with factors
    None, the kernel's compression."""

    lam: float
    factors: tuple | None = None
    ru: GridFunction | None = None
    r2u: GridFunction | None = None
    inv_ones: np.ndarray | None = None
    left: np.ndarray | None = None
    condition: float = math.nan


@dataclass(frozen=True, eq=False)
class RankOneOperator:
    """a x b acting as f -> range_vector * functional[f]."""

    range_vector: GridFunction
    functional: WeightFunctional

    def __post_init__(self):
        check_same_space(self.range_vector.space, self.functional.space)

    def coupling(self) -> float:
        """b[a], the only spectral datum of a rank-one operator."""
        return pair(self.functional, self.range_vector)

    def matrix(self) -> np.ndarray:
        """Dense matrix acting on node-value vectors."""
        return np.outer(self.range_vector.values, self.functional.acting_vector())


def _shifted_2x2_solve(block: np.ndarray, lams: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(lam*I - block)^-1 r at every shift, r[j] holding row j per shift.

    A 2x2 block of a real Schur form has a complex pair mu, |mu| <= rho(R);
    above rho(R) its determinant |lam - mu|^2 is positive."""
    (a, b), (c, d) = block
    det = (lams - a) * (lams - d) - b * c
    return np.stack([(lams - d) * r[0] + b * r[1], c * r[0] + (lams - a) * r[1]]) / det


def _certified_condition(lams, inv_ones: np.ndarray, norms) -> np.ndarray:
    """The condition number ||lam*I - R||_inf max x of each shift, from
    x = (lam*I - R)^-1 1 (one column of inv_ones per shift of lams) and
    norms = ||lam*I - R||_inf, once every shift is certified.  R >= 0, so
    x > 0 exactly when lam > rho(R), and there the inverse is nonnegative
    and its inf-norm is max x.  Raises, at the first shift refused:
    IllConditionedError with condition inf where x is not finite (an
    exactly singular lam*I - R), BelowSpectralRadiusError where an entry of
    x is <= 0, IllConditionedError where the condition exceeds
    MAX_CONDITION."""
    lams = np.atleast_1d(lams)
    x = inv_ones.reshape(inv_ones.shape[0], lams.size)
    # min and max propagate nan and reach +-inf: they screen every entry
    smallest, largest = x.min(axis=0), x.max(axis=0)
    singular = np.flatnonzero(~(np.isfinite(smallest) & np.isfinite(largest)))
    if singular.size:
        raise _ill_conditioned(float(lams[singular[0]]), math.inf)
    below = np.flatnonzero(~(smallest > 0.0))
    if below.size:
        raise BelowSpectralRadiusError(float(lams[below[0]]), float(smallest[below[0]]))
    condition = norms * largest
    bad = np.flatnonzero(~(condition <= MAX_CONDITION))
    if bad.size:
        raise _ill_conditioned(float(lams[bad[0]]), float(condition[bad[0]]))
    return condition


def _basis_product(basis: tuple, z: np.ndarray) -> np.ndarray:
    """[C | V] z for the basis (V, C) of ``_secular_basis``, C its two
    complement columns, as V z[2:] + C z[:2]: the n x (k + 2) matrix is
    not formed."""
    v, rest = basis
    out = v @ z[2:]
    out += rest @ z[:2]
    return out


def _complement(v: np.ndarray, functional: np.ndarray, functional_coords: np.ndarray,
                x: np.ndarray) -> tuple:
    """x in the basis V of ``_secular_basis``: c = V^T x, the complement
    x - V c and its weight functional . x - functional_coords . c, both
    exactly 0 for a full basis (V square), whose rounding noise would
    otherwise enter the sums at the two poles at 0."""
    coords = x @ v
    if v.shape[1] == x.size:
        return coords, np.zeros(x.size), 0.0
    return coords, x - v @ coords, functional @ x - functional_coords @ coords


def _ill_conditioned(lam: float, condition: float) -> IllConditionedError:
    return IllConditionedError(
        f"shifted remainder at lambda = {lam} has condition number {condition:.3e}"
    )


class BirmanSchwingerEvaluator:
    """Evaluates D(lam), its derivative, and resolvent applications.

    T = K W acts on node-value vectors through the kernel's own entries
    (``operator_products``) and R as T - alpha*u x phi (``_refine``,
    ``remainder_product``): neither is formed as an n x n array, and the
    split's ``remainder`` is not read.  A shift
    lam is solved, (lam*I - R) x = v, through a cached
    inverse: the kernel's low-rank compression (no n x n array), refined
    against that implicit R, where lam*I - R is well conditioned and the
    kernel has one, and float64 LU factors of the clamped gap otherwise
    (see the module docstring); it is kept only when
    (lam*I - R)^-1 1 > 0, that is above rho(R), and the condition number
    it gives is at most MAX_CONDITION.  ``curve`` evaluates a
    whole grid of shifts through one eigendecomposition of a symmetric
    kernel (low-rank where the kernel allows it), or one Schur form of any
    other.  The evaluator is immutable apart from the internal cache,
    which holds the last LU_CACHE_SHIFTS shifts with their inverses and
    their solves, and never changes results.
    """

    def __init__(self, split: RankOneSplit):
        self.split = split
        self.space = split.kernel.space
        self.alpha = split.certificate.alpha
        self.profile = split.certificate.profile
        self.functional = split.certificate.functional
        kernel, w = split.kernel, self.space.weights
        u, density = self.profile.values, self.functional.density
        # the diagonal of R W, with R's entries rounded and clamped as in
        # ``_gap``, so that the shifted matrix of ``_factor`` is the one of
        # the clamped gap bit for bit
        gap_diag = np.diagonal(kernel.entries) - (u * density) * self.alpha
        self._rem_diag = np.maximum(gap_diag, 0.0) * w
        # shifts are solved through the compression only for a symmetric
        # kernel of at least COMPRESSED_SOLVE_MIN_DIM nodes, and there
        # K = K^T lets one product over K serve T and T^T alike
        # (``operator_products``); below, each vector is its own product,
        # one triangle of a symmetric K (``Kernel.product``)
        self._symmetric = self.space.size >= COMPRESSED_SOLVE_MIN_DIM and kernel.symmetric
        # T >= 0 and R >= 0 up to the clamp, so the row sums T 1 = K w and
        # R 1 = T 1 - alpha u phi[1] are those of |T| and |R|: they give the
        # inf-norm of T and, less the diagonal of R W, ||lam*I - R||_inf in
        # O(n) per shift; the column sums T^T 1 - alpha phi sum(u) give
        # ||lam*I - R||_1, the norm of the transposed solve
        ones = np.ones(self.space.size)
        t_ones, tt_ones = self.operator_products([ones], [ones])
        self.operator_norm = float(t_ones.max())
        self._phi = self.functional.acting_vector()
        self._rem_offdiag = t_ones - self.alpha * u * self._phi.sum() - self._rem_diag
        self._rem_col_offdiag = tt_ones - self.alpha * u.sum() * self._phi - self._rem_diag
        # the power of two that brings ||T||_inf into [1/2, 1): the secular
        # sums run on shifts and eigenvalues times it, exact to undo
        self._scale = _pow2_scale(self.operator_norm)
        self._lu_cache: dict[float, _Shift] = {}
        self._range_bases: dict[int, tuple] = {}

    @property
    def phi_strictly_positive(self) -> bool:
        return self.functional.strictly_positive

    def operator_products(self, right: list, left: list) -> list:
        """T x for each vector x of ``right``, then T^T y for each y of
        ``left``.  For a symmetric kernel (decided from
        COMPRESSED_SOLVE_MIN_DIM nodes on) T^T y = w (K y), so all of them
        are one ``Kernel.product`` with the block [w x.., y..], which a
        narrow block takes in row panels: one read of K, and a lone vector
        one read of one triangle.  Otherwise each is its own ``matvec`` or
        ``rmatvec``."""
        kernel, w = self.split.kernel, self.space.weights
        if not self._symmetric:
            return [kernel.matvec(x) for x in right] + [kernel.rmatvec(y) for y in left]
        columns = [w * x for x in right] + list(left)
        if len(columns) == 1:
            products = [kernel.product(columns[0])]
        else:
            products = list(kernel.product(np.column_stack(columns)).T)
        return products[: len(right)] + [w * p for p in products[len(right) :]]

    def _shifted_inf_norm(self, lam: float, trans: int = 0) -> float:
        """||lam*I - R||_inf for a shift, O(n); with trans = 1 that of the
        transpose, ||lam*I - R||_1."""
        offdiag = self._rem_col_offdiag if trans else self._rem_offdiag
        return float(np.max(np.abs(lam - self._rem_diag) + offdiag))

    def _grid_inf_norms(self, lams: np.ndarray) -> np.ndarray:
        """||lam*I - R||_inf at every shift of lams, in O(n + m) for m
        shifts: with d the diagonal of R W and o its off-diagonal row sums,
        max_i |lam - d_i| + o_i = max(lam + max(o - d), max(o + d) - lam)."""
        d, o = self._rem_diag, self._rem_offdiag
        return np.maximum(lams + float(np.max(o - d)), float(np.max(o + d)) - lams)

    def _shift(self, lam: float) -> _Shift:
        """The cache entry of lam, made on first use and ``_certify``-ed.
        A kernel with a ``_solve_compression`` certifies lam through it, at
        no LU, and keeps it when the condition number is at most
        COMPRESSED_MAX_CONDITION; any other shift is factored in float64.
        On the compression, the three solves of a shift are refined in
        lockstep, one read of K per step (``_refine``): R_lam 1, which
        certifies it, R_lam u, which gives D, and the left solve
        R_lam^-T phi of the residue.  A shift that ends factored, and a
        solve that stalls, solve again from the factors when asked."""
        key = float(lam)
        entry = self._lu_cache.get(key)
        if entry is not None:
            return entry
        entry = _Shift(key)
        ru = left = None
        if self._solve_compression is None:
            self._factor(entry)
        else:
            u = self.profile.values
            entry.inv_ones, ru, left = self._refine(entry, (np.ones(u.size), u, self._phi), (0, 0, 1))
            if entry.inv_ones is None:
                self._factor(entry)
        self._certify(entry, self._shifted_inf_norm(key))
        if entry.factors is None and (
            entry.condition > COMPRESSED_MAX_CONDITION or ru is None or left is None
        ):
            self._factor(entry)
        if entry.factors is None:
            entry.ru, entry.left = GridFunction(ru, self.space), left
        self._lu_cache[key] = entry
        if len(self._lu_cache) > LU_CACHE_SHIFTS:
            del self._lu_cache[next(iter(self._lu_cache))]
        return entry

    def _certify(self, entry: _Shift, norm: float) -> None:
        """Put the condition number of lam*I - R into entry, from
        x = (lam*I - R)^-1 1, solved here unless the refinement of
        ``_shift`` made it, unless ``_certified_condition`` refuses lam.  A
        certified x > 0 makes lam*I - R a nonsingular M-matrix, and above
        rho(R) x >= 1 / lam."""
        if entry.inv_ones is None:
            entry.inv_ones = self._solve(entry, np.ones(self.space.size))
        entry.condition = float(_certified_condition(entry.lam, entry.inv_ones, norm)[0])

    def _factor(self, entry: _Shift) -> None:
        """Factor (lam*I - R)^T into entry, in float64.  An exactly zero
        pivot is not reported here: it leaves the solves non-finite, and
        ``_certify`` refuses the shift."""
        # the one n x n array of this shift, in C order: its transpose is a
        # Fortran-ordered view, which LAPACK factors in place
        shifted = self._weighted_gap(-1.0)
        shifted.flat[:: self.space.size + 1] = entry.lam - self._rem_diag
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            entry.factors = lu_factor(shifted.T, overwrite_a=True, check_finite=False)

    def _weighted_gap(self, sign: float) -> np.ndarray:
        """sign * R W in one fresh n x n array: the clamped gap of the split
        (``_gap``), entry for entry the remainder a ``RankOneSplit`` builds
        when read, written straight into it, then its columns scaled."""
        n = self.space.size
        out = np.empty((n, n))
        _gap(self.split.kernel, self.split.certificate, out=out)
        out *= sign * self.space.weights
        return out

    def _solve(self, entry: _Shift, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """(lam*I - R)^-1 b, or (lam*I - R)^-T b with trans = 1, from the
        inverse of lam.  Float64 factors, of the clamped gap, solve
        directly; the compression is refined (``_refine``), and a
        refinement that stalls factors lam in float64."""
        if entry.factors is None:
            (x,) = self._refine(entry, (b,), (trans,))
            if x is not None:
                return x
            self._factor(entry)
        # the factors are those of the transpose
        return lu_solve(entry.factors, b, trans=1 - trans, check_finite=False)

    def _refine(self, entry: _Shift, rhs: tuple, trans: tuple) -> list:
        """x = (lam*I - R)^-1 b, or (lam*I - R)^-T b where trans is 1, for
        each b of rhs, by iterative refinement on the compression, as in
        LAPACK dsgesv: each correction applies the compression to the
        float64 residual of the implicit R = T - alpha*u x phi, until
        ||r||_inf <= sqrt(n) u ||A||_inf ||x||_inf for the system matrix A
        and the unit roundoff u.  So the answer is that of R, whatever the
        error of the compression.  The systems go in lockstep, as dsgesv
        refines a block of right-hand sides: a step takes the residuals of
        all that still miss the rule from one ``operator_products``, one
        read of K, and each system leaves the block once it meets the rule.
        None for a system still missing it after REFINE_STEPS corrections."""
        lam, n = entry.lam, self.space.size
        u, phi = self.profile.values, self._phi
        unit = 0.5 * np.finfo(float).eps
        bounds = [math.sqrt(n) * unit * self._shifted_inf_norm(lam, t) for t in trans]
        solved = [None] * len(rhs)
        x = [np.zeros(n) for _ in rhs]
        r = list(rhs)
        active = range(len(rhs))
        for _ in range(REFINE_STEPS + 1):
            for i in active:
                x[i] += self._pole_free_apply(entry, r[i], trans[i])
            right = [i for i in active if not trans[i]]
            left = [i for i in active if trans[i]]
            products = self.operator_products([x[i] for i in right], [x[i] for i in left])
            for i, tx in zip(right + left, products):
                # R x = T x - alpha u phi[x], R^T x = T^T x - alpha phi (u . x)
                rx = tx - self.alpha * ((u @ x[i]) * phi if trans[i] else (phi @ x[i]) * u)
                r[i] = rhs[i] - (lam * x[i] - rx)
                if np.max(np.abs(r[i])) <= bounds[i] * np.max(np.abs(x[i])):
                    # the rule bounds the backward error; one more O(n k)
                    # correction from the residual at hand takes the
                    # forward error of the compression's steps down to that
                    # of a factorization
                    solved[i] = x[i] + self._pole_free_apply(entry, r[i], trans[i])
            active = [i for i in active if solved[i] is None]
            if not active:
                break
        return solved

    @cached_property
    def _solve_compression(self) -> Compression | None:
        """The compression shifts are solved through: the kernel's own, for
        a symmetric kernel of at least COMPRESSED_SOLVE_MIN_DIM nodes whose
        compression exists; otherwise None, and shifts are factored."""
        return self.split.kernel.compression if self._symmetric else None

    def perron_start(self) -> np.ndarray | None:
        """W^-1/2 v_top, v_top the top eigenvector of the compression shifts
        are solved through, sign-fixed and sup-normalized: T = K W is
        similar to S = W^1/2 K W^1/2, so this is its Perron vector to the
        accuracy of the compression.  None, the ones vector, without such a
        compression or where the vector is not entrywise positive."""
        compression = self._solve_compression
        if compression is None:
            return None
        v = compression.vectors[:, -1]
        x = (v / v[np.argmax(np.abs(v))]) / np.sqrt(self.space.weights)
        return x if np.all(x > 0) else None

    def remainder_product(self, x: np.ndarray) -> np.ndarray:
        """max(R x, 0) for a node-value vector x, with R = T - alpha*u x phi
        applied as in ``_refine``: one ``Kernel.matvec`` over K's own
        entries, less alpha u phi[x].  For x >= 0 it lies between
        (T - alpha*u x phi) x and the product of the split's clamped
        ``remainder``, which is at most it plus ``remainder_lift(x)``, up
        to rounding: the eigenfunction series and the Collatz-Wielandt
        bracket of rho(R) step R this way, and no n x n remainder is
        formed."""
        tx = self.split.kernel.matvec(x)
        return np.maximum(tx - self.alpha * ((self._phi @ x) * self.profile.values), 0.0)

    def remainder_lift(self, x: np.ndarray) -> np.ndarray:
        """An entrywise bound on what the clamped remainder adds to
        ``remainder_product(x)`` for x >= 0: the clamp lifts each entry of
        row i by at most ``clamp_lift`` of the split, so its product by at
        most that times w . x, in O(n)."""
        return self.split.clamp_lift * float(self.space.weights @ x)

    def remainder_start(self) -> np.ndarray | None:
        """W^-1/2 y, y the top eigenvector of the compression of
        W^1/2 R W^-1/2 = S - alpha a b^T, a = W^1/2 u and b = W^1/2 d,
        scaled so that its entry of largest modulus is 1: the Perron vector
        of R to the accuracy of the kernel's compression
        S ~ V diag(mu) V^T, from which a Collatz-Wielandt bracket of rho(R)
        closes in a few steps.

        The compressed operator M = V diag(mu) V^T - alpha a b^T maps into
        span(V, a) = span(Q), Q orthonormal, so its eigenvalues other than
        0 are those of the (k+1) x (k+1) matrix Q^T M Q = D - alpha
        (Q^T a)(Q^T b)^T, D = diag(mu, 0), and the top one, rho, is a root
        of the secular function 1 + alpha (Q^T b) . (rho - D)^-1 Q^T a of
        Golub (1973).  Its eigenvector is Q (rho - D)^-1 Q^T a in closed
        form, as in ``_pole_free``: the vectors of a general eigensolver
        carry its balancing's error (on the Gaussian of width 0.15 at
        n = 600, 2.7e-11 against 1.2e-14 from the Perron vector of the
        dense R).  O(n k) in all.  It runs on mu and alpha a b^T times the
        power of two of ||T||_inf, and b times its own, exact to apply, so
        neither a tiny nor a huge kernel over- or underflows the basis.
        None, for the caller's own start, without a compression (a
        nonsymmetric kernel, one below COMPRESSION_MIN_DIM nodes, or one
        the compression gives up on) or where the vector is not entrywise
        positive."""
        compression = self.split.kernel.compression
        if compression is None:
            return None
        root_w = np.sqrt(self.space.weights)
        b = root_w * self.functional.density
        b_scale = _pow2_scale(float(b.max()))
        b *= b_scale
        a = (root_w * self.profile.values) * self._scale * (self.alpha / b_scale)
        v = compression.vectors
        rest = a
        for _ in range(2):
            rest = rest - v @ (v.T @ rest)
        norm = float(np.linalg.norm(rest))
        basis = np.column_stack([v, rest / norm]) if norm > 0 else v
        diag = np.zeros(basis.shape[1])
        diag[: v.shape[1]] = self._scale * compression.values
        coords_a = basis.T @ a
        rho = np.linalg.eigvals(np.diag(diag) - np.outer(coords_a, basis.T @ b)).real.max()
        with np.errstate(divide="ignore", invalid="ignore"):
            y = basis @ (coords_a / (rho - diag))
            x = (y / y[np.argmax(np.abs(y))]) / root_w
        return x if np.all(x > 0) else None

    def _pole_free_apply(self, entry: _Shift, r: np.ndarray, trans: int) -> np.ndarray:
        """One correction of ``_refine``: (lam*I - R)^-1 r, or its transpose
        with trans = 1, in O(n k) on the compression, with S taken as 0 off
        its k columns and R as T - alpha*u x phi (see
        ``_symmetric_resolvents``).  r and the operator go into range by
        powers of two, r's own and the evaluator's one of ||T||_inf, and
        back, so the secular sums run on shifts and eigenvalues of order 1
        and neither a tiny nor a huge kernel over- or underflows them."""
        r_scale = _pow2_scale(float(np.max(np.abs(r))))
        scale = self._scale
        mu, basis, a, b, e, s = self._secular_basis(self._solve_compression, r * r_scale, trans)
        z = self._pole_free(np.array([scale * entry.lam]), scale * mu, scale * a, b, e)[0]
        return (_basis_product(basis, z[:, 0]) / s) * (scale / r_scale)

    def resolve_remainder(self, lam: float, v: GridFunction) -> GridFunction:
        """(lam*I - R)^-1 v for lam above rho(R)."""
        check_same_space(self.space, v.space)
        return GridFunction(self._solve(self._shift(lam), v.values), self.space)

    def profile_resolvent(self, lam: float, power: int = 1) -> GridFunction:
        """(lam*I - R)^-power profile for power 1 or 2, solved once while
        lam stays cached."""
        entry = self._shift(lam)
        if entry.ru is None:
            entry.ru = self.resolve_remainder(lam, self.profile)
        if power == 1:
            return entry.ru
        if entry.r2u is None:
            entry.r2u = self.resolve_remainder(lam, entry.ru)
        return entry.r2u

    def value(self, lam: float) -> float:
        """D(lam) = 1 - alpha * phi[(lam*I - R)^-1 profile]."""
        return 1.0 - self.alpha * pair(self.functional, self.profile_resolvent(lam))

    def derivative(self, lam: float) -> float:
        """D'(lam) = alpha * phi[(lam*I - R)^-2 profile]; strictly positive."""
        return self.alpha * pair(self.functional, self.profile_resolvent(lam, 2))

    def condition(self, lam: float) -> float:
        """||lam*I - R||_inf ||(lam*I - R)^-1||_inf, the condition number of
        the shifted remainder: R >= 0, so above rho(R) the inverse is
        nonnegative and its norm is the largest entry of (lam*I - R)^-1 1,
        the vector that certified the shift.  It is the number
        ``_certified_condition`` refuses shifts by, pointwise and in
        ``curve``, and that decides whether a shift keeps the compression
        as its inverse."""
        return self._shift(lam).condition

    def curve(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """D and D' at every shift of lams, from one factorization for the grid.

        A symmetric kernel goes through ``_symmetric_resolvents`` on the
        kernel's compression (made once per kernel and shared with every
        later grid) or, where that gives up, on the ``full_eigenbasis``,
        made for this grid only; any other kernel through one real Schur
        form of R (``_schur_resolvents``).  ``curve_route`` names the route,
        which follows from the kernel entries alone.  All give, per shift,
        D, D' and (lam*I - R)^-1 1, and ``_certified_condition`` refuses a
        shift by that vector as it refuses a pointwise one; at a pole of the
        route the vector is not finite, and the shift is refused as
        singular.  Past the factorization a shift costs O(n k) in an
        eigenbasis of rank k and O(n^2) on the Schur form.  The
        factorization costs less than one LU shift on a compressible kernel
        at n = 600 to 2000, about 4 to 8 for the full eigenbasis and 30 to
        40 for the Schur form (see the module docstring), so only a grid
        with fewer shifts is faster by one LU per shift.
        """
        lams = np.asarray(lams, dtype=float)
        kernel = self.split.kernel
        with np.errstate(divide="ignore", invalid="ignore"):
            if kernel.symmetric:
                basis = kernel.compression or full_eigenbasis(kernel)
                d_values, d_prime, inv_ones = self._symmetric_resolvents(lams, basis)
            else:
                d_values, d_prime, inv_ones = self._schur_resolvents(lams)
        _certified_condition(lams, inv_ones, self._grid_inf_norms(lams))
        return d_values, d_prime

    def curve_route(self) -> dict:
        """The route of ``curve``: "compressed" on the kernel's compression,
        "eigh" on a full eigenbasis or "schur", the rank of the eigenbasis
        (None for the Schur form) and the compression's probe bound on
        ||S - V V^T S||_2 (None for the other two)."""
        kernel = self.split.kernel
        if not kernel.symmetric:
            return {"route": "schur", "rank": None, "probe_bound": None}
        compression = kernel.compression
        if compression is None:
            return {"route": "eigh", "rank": kernel.size, "probe_bound": None}
        return {"route": "compressed", "rank": compression.rank, "probe_bound": compression.probe_bound}

    def _symmetric_resolvents(self, lams: np.ndarray, compression: Compression):
        """D, D' and (lam*I - R)^-1 1 per shift, for a symmetric kernel.

        With R = T - alpha*u x phi, det(lam*I - T) = det(lam*I - R) D(lam)
        and 1/D = 1 + alpha*phi[(lam*I - T)^-1 u].  T = K W is similar to
        S = W^1/2 K W^1/2 = V diag(mu) V^T, so with a = V^T W^1/2 u and
        b = V^T W^-1/2 phi the pairing is the secular sum
        sum_k a_k b_k / (lam - mu_k), O(n) per shift (Golub 1973).  The
        top eigenvalue mu_top = lambda0 is divided out, so D stays finite
        there: with delta = lam - mu_top and G the sum over k != top,
        N = delta (1 + alpha G) + alpha a_top b_top gives D = delta / N
        and D' = alpha (a_top b_top + delta^2 sum a_k b_k/(lam - mu_k)^2) / N^2.
        (lam*I - R)^-1 1 follows from Sherman-Morrison in the same basis
        (``_pole_free``, with e = V^T W^1/2 1), with one n x k by k x m
        product back.  The formulas hold for T - alpha*u x phi, which
        differs from the clamped remainder of ``rank_one_split`` only by
        its slack.  V is the k columns of ``compression``, of any rank
        (``_secular_basis``).  As in ``_pole_free_apply`` the sums run on
        lam, mu and a times the evaluator's power of two of ||T||_inf,
        exact to undo.
        """
        mu, basis, a, b, e, s = self._secular_basis(compression, np.ones(self.space.size))
        scale = self._scale
        a = scale * a
        z, delta, inv, denom = self._pole_free(scale * lams, scale * mu, a, b, e)
        d_values = delta / denom
        ab = a[:-1] * b[:-1]
        d_prime = self.alpha * (a[-1] * b[-1] + delta**2 * (ab @ inv**2)) / denom**2
        inv_ones = _basis_product(basis, z)
        inv_ones *= scale
        inv_ones /= s[:, None]
        return d_values, scale * d_prime, inv_ones

    def _secular_basis(self, compression: Compression, rhs: np.ndarray, trans: int = 0):
        """The eigenbasis of S in which (lam*I - R) x = rhs, or its transpose
        with trans = 1, becomes (lam*I - S + alpha a x b) y = e: the
        eigenvalues mu, ascending, the basis (see ``_basis_product``), the
        coordinates a, b, e of the range vector s u, the functional phi / s
        and the right-hand side s rhs, and s, with x = y / s.  s is W^1/2;
        with trans = 1 it is W^-1/2, and u and phi trade places:
        T^T = W K is W^1/2 S W^-1/2.

        S is taken as 0 on the complement I - V V^T of the k columns V of
        ``compression``: one more pole at 0, carried by two columns, the
        complement parts of the range vector (a = 1, b = a.b - sum a_k b_k,
        e = 0) and of the right-hand side (a = 0, b = b.e - sum b_k e_k,
        e = 1), so the sums of ``_pole_free`` run over them unchanged; both
        are 0 for a full eigenbasis (``_complement``).  All that does not
        depend on rhs comes from ``_range_basis``; a call adds
        e = V^T (s rhs), the complement of s rhs and its weight, in O(n k).
        """
        mu, v, rest_a, a, b, functional, s = self._range_basis(compression, trans)
        e, rest_e, weight = _complement(v, functional, b[2:], s * rhs)
        b = np.concatenate([b[:1], [weight], b[2:]])
        e = np.concatenate([[0.0, 1.0], e])
        return mu, (v, np.column_stack([rest_a, rest_e])), a, b, e, s

    def _range_basis(self, compression: Compression, trans: int) -> tuple:
        """The parts of ``_secular_basis`` that do not depend on the
        right-hand side: the poles mu with the two at 0, V, the complement
        of the range vector s u, the coordinates a of s u and b of phi / s
        with their heads (b's second entry, the weight of the right-hand
        side, is left 0), phi / s itself and s = W^1/2, or W^-1/2 with u
        and phi traded where trans is 1.  Kept per transposition for the
        kernel's compression only: no full eigenbasis outlives ``curve``."""
        parts = self._range_bases.get(trans)
        if parts is not None and parts[0] is compression:
            return parts[1:]
        root_w = np.sqrt(self.space.weights)
        u, phi = self.profile.values, self._phi
        s, ends = (1.0 / root_w, (phi, u)) if trans else (root_w, (u, phi))
        functional, v = ends[1] / s, compression.vectors
        b = functional @ v
        a, rest_a, weight = _complement(v, functional, b, s * ends[0])
        a = np.concatenate([[1.0, 0.0], a])
        b = np.concatenate([[weight, 0.0], b])
        mu = np.concatenate([[0.0, 0.0], compression.values])
        parts = (compression, mu, v, rest_a, a, b, functional, s)
        if compression is self.split.kernel.compression:
            self._range_bases[trans] = parts
        return parts[1:]

    def _pole_free(self, lams: np.ndarray, mu, a, b, e):
        """Per shift, the coordinates z of the solution y of
        (lam*I - S + alpha a x b) y = e in the basis of ``_secular_basis``,
        by Sherman-Morrison with the top eigenvalue mu_top divided out, and
        delta = lam - mu_top, 1 / (lam - mu_k) below the top and N, the
        pieces of D = delta / N.  With G the sum of a_k b_k / (lam - mu_k)
        below the top, N = delta (1 + alpha G) + alpha a_top b_top, and
        the coupling b[(lam - S)^-1 e] / (1 + alpha b[(lam - S)^-1 a]) is
        (delta sum_k b_k e_k / (lam - mu_k) + b_top e_top) / N: finite at
        mu_top, where lam*I - R is regular."""
        alpha = self.alpha
        delta = lams - mu[-1]
        inv = 1.0 / (lams - mu[:-1, None])   # (n-1) x m
        g = (a[:-1] * b[:-1]) @ inv
        denom = delta * (1.0 + alpha * g) + alpha * (a[-1] * b[-1])
        c_rest = (b[:-1] * e[:-1]) @ inv
        coupling = (delta * c_rest + b[-1] * e[-1]) / denom
        z = np.empty((mu.size, lams.size))
        z[:-1] = (e[:-1, None] - alpha * a[:-1, None] * coupling) * inv
        z[-1] = (e[-1] * (1.0 + alpha * g) - alpha * a[-1] * c_rest) / denom
        return z, delta, inv, denom

    def _schur_resolvents(self, lams: np.ndarray):
        """D, D' and (lam*I - R)^-1 1 per shift, through a real Schur form.

        With R = Q S Q^T, (lam*I - R)^-k u = Q (lam*I - S)^-k Q^T u.  One
        back-substitution over the 1x1 and 2x2 diagonal blocks of S runs
        for all shifts at once and carries three right-hand sides: Q^T u
        (giving D), its own solution again (giving D'), and Q^T 1, scaled
        as in ``_symmetric_resolvents``.
        """
        s, q = schur(self._weighted_gap(1.0), output="real", overwrite_a=True)
        scale = self._scale
        s *= scale
        lams = scale * lams
        n, m = self.space.size, lams.size
        rhs = np.stack([self.profile.values, np.ones(n)]) @ q   # rows Q^T u, Q^T 1
        # y[k] holds, per shift: (lam - S)^-1 Q^T u, (lam - S)^-1 Q^T 1, (lam - S)^-2 Q^T u
        y = np.empty((n, 3, m))
        k = n
        while k > 0:
            i = k - 2 if k >= 2 and s[k - 1, k - 2] != 0.0 else k - 1
            acc = (s[i:k, k:] @ y[k:].reshape(n - k, 3 * m)).reshape(k - i, 3, m)
            r = rhs[:, i:k].T[:, :, None] + acc[:, :2]
            if k - i == 1:
                y[i, :2] = r[0] / (lams - s[i, i])
                y[i, 2] = (acc[0, 2] + y[i, 0]) / (lams - s[i, i])
            else:
                y[i:k, :2] = _shifted_2x2_solve(s[i:k, i:k], lams, r)
                y[i:k, 2] = _shifted_2x2_solve(s[i:k, i:k], lams, acc[:, 2] + y[i:k, 0])
            k = i
        psi = q.T @ self.functional.acting_vector()
        d_values = 1.0 - self.alpha * (scale * (psi @ y[:, 0]))
        d_prime = self.alpha * (scale * (scale * (psi @ y[:, 2])))
        return d_values, d_prime, scale * (q @ y[:, 1])

    def left_remainder_solve(self, lam: float) -> np.ndarray:
        """Vector z with z^T = (phi o R_lam) acting on node-value vectors.

        Solves the transposed shifted system against the functional's
        acting vector; z realizes f -> phi[(lam*I - R)^-1 f] as z . f,
        made with the shift's other solves on the compression and kept with
        the shift.
        """
        entry = self._shift(lam)
        if entry.left is None:
            entry.left = self._solve(entry, self._phi, trans=1)
        return entry.left
