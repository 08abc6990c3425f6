"""Rank-one inversion and the Birman-Schwinger scalar function.

A rank-one split T = alpha*(profile x phi) + R turns the resolvent of T
into an explicit correction of the resolvent of the remainder:

    (lam*I - T)^-1 = R_lam + alpha * (R_lam u) x (phi o R_lam) / D(lam)

where R_lam = (lam*I - R)^-1, u is the certificate profile and

    D(lam) = 1 - alpha * phi[R_lam u].

D is the Birman-Schwinger function of the rank-one perturbation; it is
also its Fredholm determinant, det(I - a x b) = 1 - b[a].  D increases
strictly on (rho(R), inf), tends to 1 at infinity, and its unique root
there is the dominant eigenvalue of T.  Everything here works for real
lam above the remainder's spectral radius; no eigensolver is involved.

A shift lam used alone (the root search, the residue at the root) costs
one LU factorization of lam*I - R.  A whole grid of shifts (the D-curve,
the verify scan) goes through one real Schur form R = Q S Q^T instead:
back-substitution on the quasi-triangular S costs O(n^2) per shift, the
Bartels-Stewart reduction used for frequency responses (Laub 1981).
Measured with BLAS on one thread, the Schur form costs as much as about
40 LU shifts at n = 600 (0.13 s against 3.2 ms) and about 23 at n = 2000
(1.7 s against 73 ms).  The grids the CLI builds itself have more points
(200 for the D-curve, 71 for the verify scan); a shorter grid asked for
with `perron dcurve --points` is slower than one LU per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve, schur

from .doeblin import RankOneSplit
from .errors import (
    AtEigenvalueError,
    BelowSpectralRadiusError,
    IllConditionedError,
    NearSingularError,
    NotConvergentError,
    PoleError,
)
from .kernel_op import spectral_radius_oracle
from .measure import GridFunction, WeightFunctional, check_same_space, pair

NEAR_SINGULAR = 1e-12
AT_EIGENVALUE = 1e-12
MAX_CONDITION = 1e12
# Newton, the residue extraction and value/derivative pairs revisit only
# the current shift; older factorizations are dropped
LU_CACHE_SHIFTS = 2


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

    def apply(self, f: GridFunction) -> GridFunction:
        return GridFunction(
            self.range_vector.values * pair(self.functional, f),
            self.range_vector.space,
        )

    def matrix(self) -> np.ndarray:
        """Dense matrix acting on node-value vectors."""
        return np.outer(self.range_vector.values, self.functional.acting_vector())


def sherman_morrison_apply(op: RankOneOperator, f: GridFunction) -> GridFunction:
    """(I - a x b)^-1 f = f + a * b[f] / (1 - b[a])."""
    check_same_space(op.range_vector.space, f.space)
    denom = 1.0 - op.coupling()
    if abs(denom) <= NEAR_SINGULAR:
        raise NearSingularError(f"1 - b[a] = {denom:.3e} is numerically zero")
    return GridFunction(
        f.values + op.range_vector.values * (pair(op.functional, f) / denom),
        f.space,
    )


def rank_one_resolvent_apply(op: RankOneOperator, lam: float, f: GridFunction) -> GridFunction:
    """(lam*I - a x b)^-1 f; simple poles at 0 and at the coupling b[a]."""
    check_same_space(op.range_vector.space, f.space)
    coupling = op.coupling()
    if abs(lam) <= NEAR_SINGULAR:
        raise PoleError(0.0)
    if abs(lam - coupling) <= NEAR_SINGULAR:
        raise PoleError(coupling)
    return GridFunction(
        f.values / lam
        + op.range_vector.values * (pair(op.functional, f) / (lam * (lam - coupling))),
        f.space,
    )


def fredholm_det_rank_one(op: RankOneOperator) -> float:
    """det(I - a x b) = 1 - b[a]."""
    return 1.0 - op.coupling()


def _shifted_2x2_solve(block: np.ndarray, lams: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(lam*I - block)^-1 r at every shift, r[j] holding row j per shift.

    A 2x2 block of a real Schur form has a complex pair mu, |mu| <= rho(R);
    above rho(R) its determinant |lam - mu|^2 is positive."""
    (a, b), (c, d) = block
    det = (lams - a) * (lams - d) - b * c
    return np.stack([(lams - d) * r[0] + b * r[1], c * r[0] + (lams - a) * r[1]]) / det


def _ill_conditioned(lam: float, condition: float) -> IllConditionedError:
    return IllConditionedError(
        f"shifted remainder at lambda = {lam} has condition estimate {condition:.3e}"
    )


class BirmanSchwingerEvaluator:
    """Evaluates D(lam), its derivative, and resolvent applications.

    Two backends solve (lam*I - R) x = v: a cached LU factorization
    (default) and a Neumann series whose convergence is guarded by the
    weighted sup-norm of the remainder.  ``curve`` evaluates a whole grid
    of shifts through one Schur form, whatever the backend.  The
    evaluator is immutable apart from the internal LU cache, which holds
    the last LU_CACHE_SHIFTS shifts and never changes results.
    """

    def __init__(
        self,
        split: RankOneSplit,
        solver: str = "direct_lu",
        series_tol: float = 1e-13,
        max_terms: int = 100_000,
        radius_tol: float = 1e-10,
    ):
        if solver not in ("direct_lu", "neumann"):
            raise ValueError(f"unknown solver {solver!r}")
        self.split = split
        self.solver = solver
        self.series_tol = float(series_tol)
        self.max_terms = int(max_terms)
        self.space = split.kernel.space
        self.alpha = split.certificate.alpha
        self.profile = split.certificate.profile
        self.functional = split.certificate.functional
        self._rem_op = split.remainder.operator_matrix()
        # ||lam*I - R||_inf in O(n) per shift: off-diagonal row sums of |R|
        self._rem_diag = np.diagonal(self._rem_op)
        self._rem_offdiag = np.abs(self._rem_op).sum(axis=1) - np.abs(self._rem_diag)
        self.remainder_norm = split.remainder.weighted_inf_norm()
        self.operator_norm = split.kernel.weighted_inf_norm()
        power = spectral_radius_oracle(split.remainder, tol=radius_tol)
        # inflate: the precondition lam > rho(R) must survive estimate error
        self.remainder_radius = power.rho * (1.0 + 1e-8)
        self._lu_cache: dict[float, tuple] = {}

    @property
    def phi_strictly_positive(self) -> bool:
        return self.functional.strictly_positive

    def _require_above_radius(self, lam: float) -> None:
        if lam <= self.remainder_radius:
            raise BelowSpectralRadiusError(lam, self.remainder_radius)

    def _shifted_inf_norm(self, lam):
        """||lam*I - R||_inf for a shift or an array of shifts, O(n) each."""
        shifted_diag = np.abs(np.subtract.outer(lam, self._rem_diag))
        return np.max(shifted_diag + self._rem_offdiag, axis=-1)

    def _factorize(self, lam: float):
        key = float(lam)
        cached = self._lu_cache.get(key)
        if cached is not None:
            return cached
        # the one n x n array of this shift: built in Fortran order, so LAPACK
        # factors it in place instead of copying it
        shifted = np.negative(self._rem_op, order="F")
        shifted.flat[:: self.space.size + 1] += lam
        lu, piv = lu_factor(shifted, overwrite_a=True)
        gecon = get_lapack_funcs(("gecon",), (lu,))[0]
        rcond, info = gecon(lu, float(self._shifted_inf_norm(lam)), norm="I")
        if info != 0 or rcond <= 1.0 / MAX_CONDITION:
            raise _ill_conditioned(lam, 1.0 / max(rcond, 1e-300))
        self._lu_cache[key] = (lu, piv)
        if len(self._lu_cache) > LU_CACHE_SHIFTS:
            del self._lu_cache[next(iter(self._lu_cache))]
        return lu, piv

    def _solve_neumann(self, lam: float, v: np.ndarray) -> np.ndarray:
        if lam <= self.remainder_norm:
            raise NotConvergentError(
                f"Neumann mode requires lambda > remainder norm "
                f"{self.remainder_norm:.6e}, got {lam}"
            )
        ratio = self.remainder_norm / lam
        term = v / lam
        acc = term.copy()
        for _ in range(self.max_terms):
            term = (self._rem_op @ term) / lam
            acc += term
            # relative stopping rule: callers rescale the result, so only
            # relative accuracy survives
            tail = float(np.max(np.abs(term))) * ratio / (1.0 - ratio)
            if tail <= self.series_tol * float(np.max(np.abs(acc))):
                return acc
        raise NotConvergentError("Neumann series did not meet its tolerance")

    def resolve_remainder(self, lam: float, v: GridFunction) -> GridFunction:
        """(lam*I - R)^-1 v for lam above the remainder radius."""
        check_same_space(self.space, v.space)
        self._require_above_radius(lam)
        if self.solver == "direct_lu":
            lu, piv = self._factorize(lam)
            x = lu_solve((lu, piv), v.values)
        else:
            x = self._solve_neumann(lam, v.values)
        return GridFunction(x, self.space)

    def value(self, lam: float) -> float:
        """D(lam) = 1 - alpha * phi[(lam*I - R)^-1 profile]."""
        return 1.0 - self.alpha * pair(
            self.functional, self.resolve_remainder(lam, self.profile)
        )

    def derivative(self, lam: float) -> float:
        """D'(lam) = alpha * phi[(lam*I - R)^-2 profile]; strictly positive."""
        once = self.resolve_remainder(lam, self.profile)
        twice = self.resolve_remainder(lam, once)
        return self.alpha * pair(self.functional, twice)

    def curve(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """D and D' at every shift of lams, through one real Schur form of R.

        With R = Q S Q^T, (lam*I - R)^-k u = Q (lam*I - S)^-k Q^T u.  One
        back-substitution over the 1x1 and 2x2 diagonal blocks of S runs
        for all shifts at once and carries three right-hand sides: Q^T u
        (giving D), its own solution again (giving D'), and Q^T 1 (the
        condition guard).  R >= 0 entrywise, so above rho(R) the resolvent
        is nonnegative and ||(lam*I - R)^-1||_inf = ||(lam*I - R)^-1 1||_inf;
        with ||lam*I - R||_inf from the cached row sums this is the
        condition number the LU path estimates with gecon.  Raises
        BelowSpectralRadiusError at the first shift not above the radius
        estimate, then IllConditionedError at the first shift whose
        condition exceeds MAX_CONDITION.  The result does not depend on
        the solver backend, and nothing is cached.  The Schur form costs
        about 40 LU shifts at n = 600 and about 23 at n = 2000 (see the
        module docstring), so a grid with fewer shifts is slower here than
        one LU per shift.
        """
        lams = np.asarray(lams, dtype=float)
        for lam in lams:
            self._require_above_radius(float(lam))
        s, q = schur(self._rem_op, output="real")
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
        d_values = 1.0 - self.alpha * (psi @ y[:, 0])
        d_prime = self.alpha * (psi @ y[:, 2])
        cond = self._shifted_inf_norm(lams) * np.abs(q @ y[:, 1]).max(axis=0)
        bad = np.flatnonzero(~(cond < MAX_CONDITION))
        if bad.size:
            raise _ill_conditioned(float(lams[bad[0]]), float(cond[bad[0]]))
        return d_values, d_prime

    def resolve_operator(self, lam: float, f: GridFunction) -> GridFunction:
        """(lam*I - T)^-1 f via the factorized formula."""
        check_same_space(self.space, f.space)
        d = self.value(lam)
        if abs(d) <= AT_EIGENVALUE:
            raise AtEigenvalueError(lam, d)
        rf = self.resolve_remainder(lam, f)
        ru = self.resolve_remainder(lam, self.profile)
        correction = self.alpha * pair(self.functional, rf) / d
        return GridFunction(rf.values + ru.values * correction, self.space)

    def left_remainder_solve(self, lam: float) -> np.ndarray:
        """Vector z with z^T = (phi o R_lam) acting on node-value vectors.

        Solves the transposed shifted system against the functional's
        acting vector; z realizes f -> phi[(lam*I - R)^-1 f] as z . f.
        The LU backend reuses the factorization of lam.
        """
        self._require_above_radius(lam)
        phi = self.functional.acting_vector()
        if self.solver == "direct_lu":
            return lu_solve(self._factorize(lam), phi, trans=1)
        shifted = lam * np.eye(self.space.size) - self._rem_op
        return np.linalg.solve(shifted.T, phi)
