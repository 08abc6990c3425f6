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
double precision against a float64 residual from the remainder's own
entries, as LAPACK dsgesv refines float32 factors (Langou et al. 2006;
Carson & Higham 2018).  The compression is kept where lam*I - R is well
conditioned (condition number at most 1e4).  Any other shift, and one
whose refinement stalls, is one float64 LU factorization of lam*I - R,
built from the entries of R and solved directly.  The solve against 1
that certifies a shift also gives its condition number exactly, and a
shift above MAX_CONDITION is refused by it.  A whole grid of
shifts (the D-curve, the verify scan) shares one factorization instead.
For a symmetric kernel that is an eigendecomposition of
S = W^1/2 K W^1/2, after which D and D' are secular sums per shift
(Golub 1973): the kernel's seeded low-rank compression, k eigenpairs
from a randomized range finder (Halko, Martinsson & Tropp 2011) at
O(n^2 k) and O(n k) per shift, made once per kernel and shared by every
grid, the pointwise shifts and the mollified study, or, where the
compression gives up (full-rank kernels, n < 128), one dense eigh at
O(n^3) and O(n^2) per shift.  For any other kernel it is one real
Schur form R = Q S Q^T, and back-substitution on the quasi-triangular S
costs O(n^2) per shift, the Bartels-Stewart reduction used for
frequency responses (Laub 1981); a two-sided compression of
nonsymmetric kernels is not done.

Measured on a 2-core Xeon with BLAS on one thread, for the Gaussian
sigma = 0.35 on [0, 1]: a new well-conditioned shift (inverse, D and
D') costs 8.8 ms at n = 600 and 0.16 s at n = 2000 with a float64 LU,
and 1.7 ms and 7.3 ms on a compression (k = 32) that exists.  The
compression costs 6 to 8 ms and 55 to 60 ms, once per kernel.  A
library solve, which makes the compression for its one shift, breaks
even with the float64 LU between n = 640 and n = 800 (medians of 20
runs: 17.7 to 18.3 against 17.5 to 17.9 ms at n = 640, 25 to 27
against 29 to 32 ms at n = 800); below it the LU wins (12.5 to 13.1
against 10.7 to 10.8 ms at n = 512, 7.4 to 8.1 against 5.1 to 5.8 ms
at n = 384, 4.0 to 5.2 against 2.4 to 2.9 ms at n = 256), above it the
compression (32 against 47 ms at n = 1000).  COMPRESSED_SOLVE_MIN_DIM
stays at 512, the break-even with the float32 LU this module used
before, at a cost of at most about 2 ms per library solve from 512 to
640 nodes.  A symmetric kernel of full rank pays the compression block
that gives up before its LU: 5 to 9 ms at n = 600 and about 55 ms at
n = 2000 for e^-|x-y|.  A whole grid of 5 to 200 shifts on the
compression costs as much as 1 to 2 LU shifts at n = 600 (10 to 14 ms,
the compression included) and less than one at n = 2000 (83 to 91 ms);
the dense eigh route about 6 (50 ms) and 8 (1.3 s), the Schur form
about 50 (0.44 s) and 34 (5.5 s).  So on a compressible kernel a grid
of 2 or more shifts asked for with `perron dcurve --points` is faster
than one LU per shift; on other kernels a grid shorter than the
break-even is slower.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, eigh, lu_factor, lu_solve, schur

from .doeblin import RankOneSplit
from .errors import BelowSpectralRadiusError, IllConditionedError
from .kernel_op import Compression, _pow2_scale
from .measure import GridFunction, WeightFunctional, check_same_space, pair

MAX_CONDITION = 1e12
# a shift whose condition number is at most COMPRESSED_MAX_CONDITION keeps
# the kernel's compression as its inverse, with its solves refined to
# double; after REFINE_STEPS corrections that miss the stopping rule it is
# factored in float64
COMPRESSED_MAX_CONDITION = 1e4
REFINE_STEPS = 30
# from this many nodes on, a symmetric kernel with a compression solves its
# shifts through the compression: where a library solve that makes it broke
# even with a float32 LU; the float64 LU wins up to 640 nodes or more (see
# the module docstring)
COMPRESSED_SOLVE_MIN_DIM = 512
# Newton, the residue extraction and value/derivative pairs revisit only
# the current shift; older shifts are dropped
LU_CACHE_SHIFTS = 2


@dataclass(eq=False)
class _Shift:
    """One cached shift lam with its inverse and the solves made there:
    R_lam u, R_lam^2 u and R_lam 1.  The inverse is the float64 LU factors
    of (lam*I - R)^T or, with factors None, the kernel's compression."""

    lam: float
    factors: tuple | None = None
    ru: GridFunction | None = None
    r2u: GridFunction | None = None
    inv_ones: np.ndarray | None = None
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
    singular = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if singular.size:
        raise _ill_conditioned(float(lams[singular[0]]), math.inf)
    smallest = x.min(axis=0)
    below = np.flatnonzero(~(smallest > 0.0))
    if below.size:
        raise BelowSpectralRadiusError(float(lams[below[0]]), float(smallest[below[0]]))
    condition = norms * x.max(axis=0)
    bad = np.flatnonzero(~(condition <= MAX_CONDITION))
    if bad.size:
        raise _ill_conditioned(float(lams[bad[0]]), float(condition[bad[0]]))
    return condition


def _ill_conditioned(lam: float, condition: float) -> IllConditionedError:
    return IllConditionedError(
        f"shifted remainder at lambda = {lam} has condition number {condition:.3e}"
    )


class BirmanSchwingerEvaluator:
    """Evaluates D(lam), its derivative, and resolvent applications.

    T = K W and R act on node-value vectors through the kernels' own
    entries (``Kernel.matvec``); neither is formed as a weighted n x n
    copy.  A shift lam is solved, (lam*I - R) x = v, through a cached
    inverse: the kernel's low-rank compression (no n x n array), refined
    against R, where lam*I - R is well conditioned and the kernel has one,
    and float64 LU factors otherwise; it is kept only when
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
        rem, w = split.remainder.entries, self.space.weights
        # T, R >= 0, so their row sums K w and R w are those of |T| and |R|:
        # they give the inf-norm of T and, less the diagonal of R W,
        # ||lam*I - R||_inf in O(n) per shift
        self._rem_diag = np.diagonal(rem) * w
        self._rem_offdiag = rem @ w - self._rem_diag
        # the column sums w R^T 1 give ||lam*I - R||_1 the same way, the norm
        # of the transposed solve
        self._rem_col_offdiag = w * rem.sum(axis=0) - self._rem_diag
        self.operator_norm = split.kernel.weighted_inf_norm()
        # the power of two that brings ||T||_inf into [1/2, 1): the secular
        # sums run on shifts and eigenvalues times it, exact to undo
        self._scale = _pow2_scale(self.operator_norm)
        self._lu_cache: dict[float, _Shift] = {}

    @property
    def phi_strictly_positive(self) -> bool:
        return self.functional.strictly_positive

    def _shifted_inf_norm(self, lam, trans: int = 0):
        """||lam*I - R||_inf for a shift or an array of shifts, O(n) each;
        with trans = 1 that of the transpose, ||lam*I - R||_1."""
        offdiag = self._rem_col_offdiag if trans else self._rem_offdiag
        shifted_diag = np.abs(np.subtract.outer(lam, self._rem_diag))
        return np.max(shifted_diag + offdiag, axis=-1)

    def _shift(self, lam: float) -> _Shift:
        """The cache entry of lam, made on first use and ``_certify``-ed.
        A kernel with a ``_solve_compression`` certifies lam through it, at
        no LU, and keeps it when the condition number is at most
        COMPRESSED_MAX_CONDITION; any other shift is factored in float64."""
        key = float(lam)
        entry = self._lu_cache.get(key)
        if entry is not None:
            return entry
        entry = _Shift(key)
        if self._solve_compression is None:
            self._factor(entry)
        self._certify(entry, float(self._shifted_inf_norm(key)))
        # a refinement that stalls has left float64 factors behind already
        if entry.factors is None and entry.condition > COMPRESSED_MAX_CONDITION:
            self._factor(entry)
        self._lu_cache[key] = entry
        if len(self._lu_cache) > LU_CACHE_SHIFTS:
            del self._lu_cache[next(iter(self._lu_cache))]
        return entry

    def _certify(self, entry: _Shift, norm: float) -> None:
        """Solve x = (lam*I - R)^-1 1 into entry, with the condition number
        of lam*I - R, unless ``_certified_condition`` refuses lam.  A
        certified x > 0 makes lam*I - R a nonsingular M-matrix, and above
        rho(R) x >= 1 / lam."""
        entry.inv_ones = self._solve(entry, np.ones(self.space.size))
        entry.condition = float(_certified_condition(entry.lam, entry.inv_ones, norm)[0])

    def _factor(self, entry: _Shift) -> None:
        """Factor (lam*I - R)^T into entry, in float64.  An exactly zero
        pivot is not reported here: it leaves the solves non-finite, and
        ``_certify`` refuses the shift."""
        lam, n = entry.lam, self.space.size
        # the one n x n array of this shift, from the entries of R in C
        # order: its transpose is a Fortran-ordered view, which LAPACK
        # factors in place
        shifted = np.empty((n, n))
        np.multiply(self.split.remainder.entries, -self.space.weights, out=shifted)
        shifted.flat[:: n + 1] = lam - self._rem_diag
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            entry.factors = lu_factor(shifted.T, overwrite_a=True, check_finite=False)

    def _solve(self, entry: _Shift, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """(lam*I - R)^-1 b, or (lam*I - R)^-T b with trans = 1, from the
        inverse of lam.  Float64 factors solve directly.  The compression
        goes through iterative refinement, as in LAPACK dsgesv: each
        correction applies it to the float64 residual from R's own entries,
        until ||r||_inf <= sqrt(n) u ||A||_inf ||x||_inf for the system
        matrix A and the unit roundoff u.  So the answer is that of R,
        whatever the error of the compression.  After REFINE_STEPS
        corrections that miss that rule, lam is factored in float64."""
        lam = entry.lam
        if entry.factors is None:
            rem = self.split.remainder
            op = rem.rmatvec if trans else rem.matvec
            unit = 0.5 * np.finfo(float).eps
            bound = math.sqrt(b.size) * unit * float(self._shifted_inf_norm(lam, trans))
            x, r = np.zeros(b.size), b
            for _ in range(REFINE_STEPS + 1):
                x += self._pole_free_apply(entry, r, trans)
                r = b - (lam * x - op(x))
                if np.max(np.abs(r)) <= bound * np.max(np.abs(x)):
                    # the rule bounds the backward error; one more O(n k)
                    # correction from the residual at hand takes the
                    # forward error of the compression's steps down to that
                    # of a factorization
                    x += self._pole_free_apply(entry, r, trans)
                    return x
            self._factor(entry)
        # the factors are those of the transpose
        return lu_solve(entry.factors, b, trans=1 - trans, check_finite=False)

    @cached_property
    def _solve_compression(self) -> Compression | None:
        """The compression shifts are solved through: the kernel's own, for
        a symmetric kernel of at least COMPRESSED_SOLVE_MIN_DIM nodes whose
        compression exists; otherwise None, and shifts are factored."""
        if self.space.size < COMPRESSED_SOLVE_MIN_DIM:
            return None
        return self._route()[1]

    def _pole_free_apply(self, entry: _Shift, r: np.ndarray, trans: int) -> np.ndarray:
        """One correction of ``_solve``: (lam*I - R)^-1 r, or its transpose
        with trans = 1, in O(n k) on the compression, with S taken as 0 off
        its k columns and R as T - alpha*u x phi (see
        ``_symmetric_resolvents``).  r and the operator go into range by
        powers of two, r's own and the evaluator's one of ||T||_inf, and
        back, so the secular sums run on shifts and eigenvalues of order 1
        and neither a tiny nor a huge kernel over- or underflows them."""
        r_scale = _pow2_scale(float(np.max(np.abs(r))))
        scale = self._scale
        mu, v, a, b, e, s = self._secular_basis(self._solve_compression, r * r_scale, trans)
        z = self._pole_free(np.array([scale * entry.lam]), scale * mu, scale * a, b, e)[0]
        return ((v @ z[:, 0]) / s) * (scale / r_scale)

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

        A symmetric kernel goes through ``_symmetric_resolvents``, on the
        kernel's low-rank compression (``Kernel.compression``, made once per
        kernel and shared with every later grid) or, where that gives up,
        on one dense eigendecomposition; any other kernel goes through one
        real Schur form of R (``_schur_resolvents``).  ``curve_route`` names
        the route, which follows from the kernel entries alone.  All give,
        per shift, D, D' and (lam*I - R)^-1 1, and ``_certified_condition``
        refuses a shift by that vector as it refuses a pointwise one.  A
        shift exactly at a pole of the route divides by zero: its vector is
        not finite, and it is refused as singular.  Past the factorization
        each shift costs O(n k) on a compression of rank k and O(n^2) on the
        dense routes, where the vector of the condition guard dominates.  The
        factorization costs as much as 1 to 2 LU shifts on a compressible
        kernel at n = 600, 6 to 8 for the dense eigh and 34 to 50 for the
        Schur form at n = 600 to 2000 (see the module docstring), so only a
        grid with fewer shifts is faster by one LU per shift.
        """
        lams = np.asarray(lams, dtype=float)
        route, compression = self._route()
        with np.errstate(divide="ignore", invalid="ignore"):
            if route == "schur":
                d_values, d_prime, inv_ones = self._schur_resolvents(lams)
            else:
                d_values, d_prime, inv_ones = self._symmetric_resolvents(lams, compression)
        _certified_condition(lams, inv_ones, self._shifted_inf_norm(lams))
        return d_values, d_prime

    def curve_route(self) -> dict:
        """The route of ``curve``: "compressed", "eigh" or "schur", the rank
        of the eigenbasis it works in (None for the Schur form) and the
        compression's probe bound on ||S - V V^T S||_2 (None for the dense
        routes)."""
        route, compression = self._route()
        if compression is not None:
            return {"route": route, "rank": compression.rank, "probe_bound": compression.probe_bound}
        rank = self.split.kernel.size if route == "eigh" else None
        return {"route": route, "rank": rank, "probe_bound": None}

    def _route(self) -> tuple[str, Compression | None]:
        """The route of ``curve`` with the compression it runs on, if any."""
        kernel = self.split.kernel
        if not kernel.symmetric:
            return "schur", None
        compression = kernel.compression
        return ("eigh" if compression is None else "compressed"), compression

    def _symmetric_resolvents(self, lams: np.ndarray, compression: Compression | None = None):
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
        its slack.  V is the full eigenbasis from a dense eigh, or the k
        columns of a ``compression`` of S (``_secular_basis``).  As in
        ``_pole_free_apply`` the sums run on lam, mu and a times the
        evaluator's power of two of ||T||_inf, exact to undo.
        """
        mu, v, a, b, e, s = self._secular_basis(compression, np.ones(self.space.size))
        scale = self._scale
        a = scale * a
        z, delta, inv, denom = self._pole_free(scale * lams, scale * mu, a, b, e)
        d_values = delta / denom
        ab = a[:-1] * b[:-1]
        d_prime = self.alpha * (a[-1] * b[-1] + delta**2 * (ab @ inv**2)) / denom**2
        return d_values, scale * d_prime, scale * (v @ z) / s[:, None]

    def _secular_basis(self, compression: Compression | None, rhs: np.ndarray, trans: int = 0):
        """The eigenbasis of S in which (lam*I - R) x = rhs, or its transpose
        with trans = 1, becomes (lam*I - S + alpha a x b) y = e: the
        eigenvalues mu, ascending, the basis V, the coordinates a, b, e of
        the range vector s u, the functional phi / s and the right-hand
        side s rhs, and s, with x = y / s.  s is W^1/2; with trans = 1 it is
        W^-1/2, and u and phi trade places: T^T = W K is W^1/2 S W^-1/2.

        V is the full eigenbasis from a dense eigh, or the k columns of a
        ``compression`` of S.  There S is taken as 0 on the complement
        I - V V^T: one more pole at 0, with weight a.b - sum a_k b_k in
        the sums of ``_pole_free`` and b.e - sum b_k e_k in that of the
        right-hand side.  Two columns carry it, the complement parts of the
        range vector (a = 1, b = a.b - sum a_k b_k, e = 0) and of the
        right-hand side (a = 0, b = b.e - sum b_k e_k, e = 1), so the sums
        run over them unchanged.
        """
        root_w = np.sqrt(self.space.weights)
        u, phi = self.profile.values, self.functional.acting_vector()
        s, ends = (1.0 / root_w, (phi, u)) if trans else (root_w, (u, phi))
        vecs = np.stack([s * ends[0], ends[1] / s, s * rhs])
        if compression is None:
            mu, v = eigh(root_w[:, None] * self.split.kernel.entries * root_w)
            a, b, e = vecs @ v
        else:
            v = compression.vectors
            a, b, e = vecs @ v
            rest = vecs[[0, 2]] - np.stack([a, e]) @ v.T
            heads = ([1.0, 0.0], [vecs[0] @ vecs[1] - a @ b, vecs[1] @ vecs[2] - b @ e], [0.0, 1.0])
            a, b, e = (np.concatenate([head, x]) for head, x in zip(heads, (a, b, e)))
            mu = np.concatenate([[0.0, 0.0], compression.values])
            v = np.concatenate([rest.T, v], axis=1)
        return mu, v, a, b, e, s

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
        s, q = schur(self.split.remainder.operator_matrix(), output="real", overwrite_a=True)
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
        reusing the factorization of lam.
        """
        return self._solve(self._shift(lam), self.functional.acting_vector(), trans=1)
