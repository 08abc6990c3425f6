"""Dominant eigenvalue, eigenfunction, and rank-one spectral projection.

The dominant eigenvalue of T is located as the unique root of the
Birman-Schwinger function above rho(R), the spectral radius of the
remainder.  D is increasing and concave there, and every shift the
search evaluates certifies itself as above rho(R) by the positivity of
its own solve against 1 (see ``perron.resolvent``); no estimate of
rho(R) is made.  The search is one safeguarded Newton-bisection loop on
a Collatz-Wielandt bracket of rho(T), run by power steps to rounding
level or to a budget worth about D at one new shift (an LU
factorization and its solves).  When D at the lower end already meets
the stopping rule it is the root, and the solve factorizes only there.
The eigenfunction and the rank-one spectral projection fall out of the
residue of the factorized resolvent at that root; the spectral radius
of the deflated operator (Arnoldi, or dense at small n) certifies strict
dominance.

A kernel with zero entries has no strict one-step certificate, yet some
power T^N may have one (a power-Doeblin condition, on any space).  Then
the dominant data of T^N transfer back to T, and the peripheral spectrum
of T lies among rho(T) times the N-th roots of unity; the spectral
radius of T deflated by the projection of T^N decides which of them
occur (``power_doeblin_analyze``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .doeblin import (
    MinorizationCertificate,
    NotFoundWithin,
    NotMinorizable,
    extract_minorization,
    power_doeblin_search,
    rank_one_split,
)
from .errors import (
    BelowSpectralRadiusError,
    IllConditionedError,
    NoSignChangeError,
    NotConvergentError,
    NotMinorizableError,
    SlowConvergenceError,
)
from .kernel_op import Kernel, growth_radius
from .measure import GridFunction, WeightFunctional, pair
from .resolvent import BirmanSchwingerEvaluator, RankOneOperator

# the smallest stopping tolerance of the root search that double precision
# resolves
MIN_TOL = 1e-13
# shifts of the root search: bisection alone closes [0, hi] to rounding
# level in about 50 + log2(hi / lambda0)
MAX_SHIFTS = 200
# terms of the eigenfunction series before it gives up
SERIES_MAX_TERMS = 20_000


@dataclass(frozen=True)
class SpectralDiagnostics:
    eig_residual: float          # sup |T w - lambda0 w| / (sup |w| ||T||_inf)
    proj_idempotency: float      # sup-operator norm of P^2 - P (residue formula)
    bs_at_lambda0: float         # D(lambda0)
    left_residual: float         # sup |T^T r - lambda0 r| / (sup |r| ||T||_inf), r the left row
    rank_one_defect: float       # rounding of the projection's column scales
    min_eigenfunction_value: float


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Dominant eigenvalue with normalized eigenvector and left row.

    ``eigenfunction`` is normalized so the certificate pairing equals 1;
    ``left_row`` is scaled so the rank-one projection
    ``eigenfunction x left_row`` has trace 1.
    """

    lambda0: float
    eigenfunction: GridFunction
    left_row: WeightFunctional
    projection: RankOneOperator
    diagnostics: SpectralDiagnostics
    certificate: MinorizationCertificate
    evaluator: BirmanSchwingerEvaluator


def collatz_wielandt(kernel: Kernel, start: np.ndarray | None = None) -> tuple[float, float]:
    """Bracket lo <= rho(T) <= hi from power steps of the operator T of
    ``kernel`` on ``start``, an entrywise positive vector (the ones vector
    by default), each step one ``kernel.matvec``.

    For nonnegative T and positive x, min_i (Tx)_i/x_i and max_i (Tx)_i/x_i
    enclose rho(T) (Collatz 1942, Wielandt 1950).  Every positive iterate
    gives such a pair, so the running max of the lower ends and the running
    min of the upper ends is still a bracket.  Stepping stops once its
    relative width is at rounding level (16 eps), once a step no longer
    narrows it, once an iterate has a zero entry (the ratios need x > 0
    only, so the bracket found so far stands: a zero T gets [0, 0]), or
    after max(8, min(n / 6, 128)) steps, about the cost of D at one new
    shift (factorization and solve).  Measured with
    BLAS on one thread, such a shift costs 4-10 steps below n = 100, about
    n / 6 steps from n = 200 to 800, and 130-150 steps from n = 1200 to
    2000, where the matrix no longer fits in cache and a step is bound by
    memory traffic.  From the ones vector the first step already gives
    [min, max] of the row sums, at worst [0, ||T||_inf].
    """
    x = np.ones(kernel.size) if start is None else np.asarray(start, dtype=float)
    if not np.all(x > 0):
        raise ValueError("the start of a Collatz-Wielandt bracket must be entrywise positive")
    lo, hi = 0.0, np.inf
    for _ in range(max(8, min(kernel.size // 6, 128))):
        y = kernel.matvec(x)
        ratios = y / x
        width = hi - lo
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if hi - lo <= 16 * np.finfo(float).eps * hi or hi - lo >= width or not np.all(y > 0):
            break
        x = y / y.max()
    return lo, hi


def find_dominant(ev: BirmanSchwingerEvaluator, tol: float = 1e-12) -> float:
    """Unique root of D above rho(R).

    On (rho(R), inf) D is increasing and concave (D' = alpha phi[R_lam^2 u]
    > 0, D'' = -2 alpha phi[R_lam^3 u] <= 0).  One loop keeps two fences
    around the root, from the Collatz-Wielandt bracket [lo, hi] of
    rho(T) = lambda0 (see collatz_wielandt); its first shift is lo, which
    on a tight bracket is all the solve needs.  A shift x is returned once
    |D(x)| <= tol * max(1, D'(x) x), whatever the sign of D(x).  Otherwise:

    - a shift the evaluator refuses, not above rho(R) (its solve against 1
      is not positive) or ill-conditioned, becomes the lower fence;
    - D(x) < 0 makes x the lower fence, and the next shift is Newton's
      x - D/D', which by concavity stays below the root;
    - D(x) > 0 makes x the upper fence, and the next shift is
      x - D (1 - D) / D', Newton on 1/(1 - D), exact for a single pole;
    - a step that leaves the fences bisects them.

    Fences that close to rounding level on a lower fence where D < 0 give
    their midpoint.  Closed on a refused lower fence, they show that no
    shift below the upper one is certified above rho(R), a certificate too
    weak to see the dominant eigenvalue: NoSignChangeError, with alpha,
    the fences, the Collatz-Wielandt bracket and the last D.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"tol below {MIN_TOL:g} is not resolvable in double precision")
    if not ev.phi_strictly_positive:
        raise NotMinorizableError(
            NotMinorizable("root finding requires a strictly positive functional")
        )
    lo, hi = cw = collatz_wielandt(ev.split.kernel)
    x, certified, d_last = lo, False, None
    for _ in range(MAX_SHIFTS):
        try:
            # rho(R) >= 0: no shift at or below 0 is above it
            dx, dpx = (ev.value(x), ev.derivative(x)) if x > 0 else (None, None)
        except (BelowSpectralRadiusError, IllConditionedError):
            dx = None
        step = None
        if dx is None:
            lo, certified = x, False
        elif _converged(x, dx, dpx, tol):
            return float(x)
        elif dx < 0:
            lo, certified, d_last = x, True, dx
            step = x - dx / dpx if dpx > 0 else None
        else:
            hi, d_last = x, dx
            step = x - dx * (1.0 - dx) / dpx if dpx > 0 else None
        if hi - lo <= 8 * np.finfo(float).eps * hi:
            if certified:
                return float(0.5 * (lo + hi))
            raise _no_sign_change(
                "the fences closed without a shift where D < 0: no shift below the "
                "upper fence is certified above the remainder's spectral radius",
                ev, (lo, hi), cw, d_last,
            )
        x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise NotConvergentError(
        f"root search did not converge in {MAX_SHIFTS} shifts (fences [{lo:.6e}, {hi:.6e}])"
    )


def _no_sign_change(
    reason: str, ev: BirmanSchwingerEvaluator, fences, cw, d_last: float | None
) -> NoSignChangeError:
    last = "not evaluated" if d_last is None else f"{d_last:.6e}"
    return NoSignChangeError(
        f"{reason} (alpha = {ev.alpha:.6e}, fences [{fences[0]:.6e}, {fences[1]:.6e}], "
        f"Collatz-Wielandt bracket [{cw[0]:.6e}, {cw[1]:.6e}], last D = {last})"
    )


def _converged(x: float, dx: float, dpx: float, tol: float) -> bool:
    """The stopping rule of the root search: |D(x)| <= tol * max(1, D'(x) x)."""
    return abs(dx) <= tol * max(1.0, abs(dpx) * x)


def eigenfunction_from_residue(
    ev: BirmanSchwingerEvaluator, lambda0: float
) -> GridFunction:
    """(alpha / D'(lambda0)) * (lambda0*I - R)^-1 profile, then normalized
    so the certificate pairing equals 1."""
    if abs(ev.value(lambda0)) > 1e-6 * max(1.0, ev.derivative(lambda0) * lambda0):
        raise ValueError(f"lambda0 = {lambda0} is not a root of D")
    ru = ev.profile_resolvent(lambda0)
    scale = ev.alpha / ev.derivative(lambda0)
    raw = GridFunction(scale * ru.values, ev.space)
    mass = pair(ev.functional, raw)
    if mass <= 0:
        raise NotConvergentError("eigenfunction has nonpositive pairing mass")
    return GridFunction(raw.values / mass, ev.space)


def spectral_projection(ev: BirmanSchwingerEvaluator, lambda0: float) -> RankOneOperator:
    """Residue of the factorized resolvent at the root:
    alpha * (R_lam0 profile) x (phi o R_lam0) / D'(lambda0).

    Idempotency is a consequence, not an input: the pairing of the two
    factors equals D'(lambda0)/alpha exactly, so P^2 = P holds up to the
    accuracy of the two resolvent solves.
    """
    ru = ev.profile_resolvent(lambda0)
    z = ev.left_remainder_solve(lambda0)
    scale = ev.alpha / ev.derivative(lambda0)
    w = ev.space.weights
    return RankOneOperator(
        GridFunction(scale * ru.values, ev.space),
        WeightFunctional(z / w, ev.space),
    )


def series_term_norms(
    ev: BirmanSchwingerEvaluator, lambda0: float, n_terms: int
) -> np.ndarray:
    """Sup norms of the series terms lambda0^-(n+1) * R^n profile.

    The term recurrence is carried in scaled form, term -> (R term)/lam,
    so nothing underflows even when the unscaled factors would."""
    rem = ev.split.remainder
    term = ev.profile.values / lambda0
    norms = np.empty(n_terms)
    for n in range(n_terms):
        norms[n] = float(np.max(np.abs(term)))
        term = rem.matvec(term) / lambda0
    return norms


def eigenfunction_series(
    ev: BirmanSchwingerEvaluator, lambda0: float, tol: float = 1e-12
) -> GridFunction:
    """Eigenfunction through the geometric series sum_n lambda0^-(n+1) R^n profile.

    The terms t_n >= 0 bound their own tail.  Once R t_m <= c t_m
    entrywise, applying R >= 0 gives R t_n <= c t_n for every later term,
    so q, the running min of max_i (t_n+1)_i / (t_n)_i (a Collatz-Wielandt
    upper end of rho(R)/lambda0), bounds the tail after t_n by
    t_n q / (1 - q); summing stops once that is at most tol times the
    running sum.  Likewise the running max q_lo of the min_i ratios bounds
    the decay from below, t_n+k >= q_lo^k t_n, and the running sum from
    above, so the loop raises SlowConvergenceError as soon as q_lo shows
    that SERIES_MAX_TERMS terms cannot meet tol, rather than after them.  The
    result carries the same pairing normalization as the residue route.
    """
    rem = ev.split.remainder
    term = ev.profile.values / lambda0
    acc = term.copy()
    q_lo, q_hi = 0.0, np.inf
    for n in range(1, SERIES_MAX_TERMS + 1):
        # scaled recurrence: unscaled numerator and denominator both
        # underflow for long series when lambda0 < 1
        nxt = rem.matvec(term) / lambda0
        acc = acc + nxt
        if not nxt.any():
            break
        # an entry where both terms vanish constrains no ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = nxt / term
        q_lo = max(q_lo, float(np.nanmin(ratios)))
        q_hi = min(q_hi, float(np.nanmax(ratios)))
        term = nxt
        # geometric tail, relative to the running sum: the normalization
        # at the end is a scalar, so relative accuracy is what survives
        size, total = float(term.max()), float(acc.max())
        if q_hi < 1.0 and size * q_hi / (1.0 - q_hi) <= tol * total:
            break
        if q_lo >= 1.0:
            raise SlowConvergenceError(
                f"series terms do not decay: ratio at least {q_lo:.6f}"
            )
        if q_hi < 1.0 and q_lo > 0.0:
            # the tail test at term n + k needs q_lo^k size q_lo / (1 - q_lo)
            # <= tol times a bound on the final sum
            final = total + size * q_hi / (1.0 - q_hi)
            reach = tol * final * (1.0 - q_lo) / (q_lo * size)
            if reach < 1.0 and n + math.log(reach) / math.log(q_lo) > SERIES_MAX_TERMS:
                raise SlowConvergenceError(
                    f"series needs more than {SERIES_MAX_TERMS} terms (ratio in "
                    f"[{q_lo:.6f}, {q_hi:.6f}] after {n} terms)"
                )
    else:
        raise SlowConvergenceError(
            f"series needed more than {SERIES_MAX_TERMS} terms "
            f"(ratio in [{q_lo:.6f}, {q_hi:.6f}])"
        )
    raw = GridFunction(acc, ev.space)
    mass = pair(ev.functional, raw)
    return GridFunction(raw.values / mass, ev.space)


def _proportionality_defect(b: np.ndarray) -> float:
    """Column proportionality defect of a rank-one matrix a b^T, on its row
    factor b: column j is b_j a, its scale against the largest column r is
    b_j / b_r, and what is left is the rounding of those scales,
    max_j |b_j - b_r (b_j / b_r)| / |b_r|."""
    ref = b[np.argmax(np.abs(b))]
    if ref == 0:
        return 0.0
    return float(np.abs(b - ref * (b / ref)).max() / abs(ref))


def solve(
    kernel: Kernel,
    strategy: str = "row_min",
    certificate: MinorizationCertificate | None = None,
    tol: float = 1e-12,
    solver: str = "direct_lu",
) -> SpectralResult:
    """Full pipeline: certificate, split, root of D, residue extraction.

    Raises NotMinorizableError when no strict certificate of the chosen
    shape exists (callers may fall back to :func:`power_doeblin_analyze`).
    ``solver`` names the shifted solve and accepts only "direct_lu", the
    cached LU factorization of the evaluator.
    """
    if solver != "direct_lu":
        raise ValueError(f"unknown solver {solver!r}: the only solver is 'direct_lu'")
    if certificate is None:
        certificate = extract_minorization(kernel, strategy)
        if isinstance(certificate, NotMinorizable):
            raise NotMinorizableError(certificate)
    split = rank_one_split(kernel, certificate)
    ev = BirmanSchwingerEvaluator(split)
    lambda0 = find_dominant(ev, tol=tol)

    w_fun = eigenfunction_from_residue(ev, lambda0)
    projection_raw = spectral_projection(ev, lambda0)

    # trace-normalized representation w x left_row of the same projection
    z = projection_raw.functional.acting_vector()
    left_scale = float(np.dot(z, w_fun.values))
    left_row = WeightFunctional(
        projection_raw.functional.density / left_scale, ev.space
    )

    # both residuals are relative to ||T||_inf, so c K has those of K
    norm = ev.operator_norm
    tw = kernel.matvec(w_fun.values)
    eig_residual = float(np.max(np.abs(tw - lambda0 * w_fun.values)) / (w_fun.sup_norm() * norm))
    # P = a z^T, so P^2 - P = (z . a - 1) P and ||P||_inf = max|a| sum|z|
    a = projection_raw.range_vector.values
    proj_idem = abs(projection_raw.coupling() - 1.0) * float(np.abs(a).max() * np.abs(z).sum())
    lr = left_row.acting_vector()
    left_residual = float(
        np.max(np.abs(kernel.rmatvec(lr) - lambda0 * lr)) / (np.max(np.abs(lr)) * norm)
    )
    diagnostics = SpectralDiagnostics(
        eig_residual=eig_residual,
        proj_idempotency=proj_idem,
        bs_at_lambda0=ev.value(lambda0),
        left_residual=left_residual,
        rank_one_defect=_proportionality_defect(z),
        min_eigenfunction_value=float(w_fun.values.min()),
    )
    return SpectralResult(
        lambda0=lambda0,
        eigenfunction=w_fun,
        left_row=left_row,
        projection=RankOneOperator(w_fun, left_row),
        diagnostics=diagnostics,
        certificate=certificate,
        evaluator=ev,
    )


@dataclass(frozen=True)
class DominanceReport:
    lambda0: float
    second_radius: float
    gap_ratio: float            # second_radius / lambda0
    strictly_dominant: bool
    eig_residual: float
    proj_idempotency: float
    # backward error of the second radius's eigenpair on the scale of T (see
    # growth_radius); it does not bound the relative error of the radius
    residual: float
    route: str                  # "arnoldi" or "dense", see growth_radius


def verify_dominance(result: SpectralResult) -> DominanceReport:
    """Deflation check: the spectral radius of (I - P) T (I - P), with P
    the rank-one projection of ``result``, against lambda0.

    The radius is computed to rounding level, not estimated: by ARPACK on
    the implicitly deflated T above ``DENSE_RADIUS_MAX_DIM`` (64) nodes,
    and by dense ``eigvals`` with inverse iteration at or below it or
    when ARPACK has not converged within 585 mat-vecs.  The slow case
    is a deflated spectrum of many equal moduli, as for a cyclic
    permutation plus a constant: it pays both routes.  ``route`` names
    the one taken and ``residual`` is the misfit of its top eigenpair
    relative to max(|theta|, ||T||_inf), a backward error on the scale of
    T that does not bound the relative error of theta; see
    :func:`perron.kernel_op.growth_radius`.
    """
    second = growth_radius(
        result.evaluator.split.kernel,
        result.projection.range_vector.values,
        result.projection.functional.acting_vector(),
    )
    return DominanceReport(
        lambda0=result.lambda0,
        second_radius=second.radius,
        gap_ratio=second.radius / result.lambda0,
        strictly_dominant=second.radius < result.lambda0 * (1.0 - 1e-9),
        eig_residual=result.diagnostics.eig_residual,
        proj_idempotency=result.diagnostics.proj_idempotency,
        residual=second.residual,
        route=second.route,
    )


@dataclass(frozen=True, eq=False)
class PeripheralReport:
    """Peripheral spectrum analysis under a power-Doeblin certificate."""

    rho: float                    # spectral radius of T
    power: int                    # smallest N with a strict certificate for T^N
    roots_of_unity_candidates: list  # rho * zeta, zeta^N = 1: the a priori set
    peripheral_candidates: list   # candidates confirmed to be eigenvalues of T
    simple: bool                  # dominant eigenvalue of T^N is simple
    second_modulus: float         # next |eigenvalue| of T below rho
    rank_one_defect: float        # column proportionality defect of T^N's projection
    certificate: MinorizationCertificate
    power_result: SpectralResult  # full solve of T^N


def power_doeblin_analyze(
    kernel: Kernel,
    n_max: int = 8,
    strategy: str = "row_min",
    tol: float = 1e-12,
) -> PeripheralReport:
    """Find the smallest usable power, solve it, and classify the
    peripheral spectrum of T.

    Raises NotMinorizableError with :class:`NotFoundWithin` when no power
    up to n_max admits a strict certificate (cyclic structure keeps zeros
    in every power).
    """
    found = power_doeblin_search(kernel, n_max, strategy)
    if isinstance(found, NotFoundWithin):
        raise NotMinorizableError(found)
    certificate, powered = found
    n = certificate.power
    result = solve(powered, certificate=replace(certificate, power=1), tol=tol)
    rho = result.lambda0 ** (1.0 / n)

    candidates = [rho * np.exp(2j * np.pi * k / n) for k in range(n)]
    # strict dominance of T^N forces a single peripheral eigenvalue of T,
    # which must be rho itself
    second = growth_radius(
        kernel,
        result.projection.range_vector.values,
        result.projection.functional.acting_vector(),
    ).radius
    simple = second**n < result.lambda0 * (1.0 - 1e-8)
    return PeripheralReport(
        rho=float(rho),
        power=n,
        roots_of_unity_candidates=candidates,
        peripheral_candidates=[complex(rho)] if simple else candidates,
        simple=bool(simple),
        second_modulus=float(second),
        rank_one_defect=float(result.diagnostics.rank_one_defect),
        certificate=certificate,
        power_result=result,
    )
