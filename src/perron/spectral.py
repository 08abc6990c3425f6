"""Dominant eigenvalue, eigenfunction, and rank-one spectral projection.

The dominant eigenvalue of T is located as the unique root of the
Birman-Schwinger function above rho(R), the spectral radius of the
remainder.  D is increasing and concave there, and every shift the
search evaluates certifies itself as above rho(R) by the positivity of
its own solve against 1 (see ``perron.resolvent``); no estimate of
rho(R) is made.  The search is one safeguarded Newton-bisection loop on
a Collatz-Wielandt bracket of rho(T), run by power steps to rounding
level or to a budget worth about D at one new shift (an LU
factorization and its solves), from the Perron vector of the kernel's
compression where the shifts are solved through it.  When D at the
lower end already meets the stopping rule it is the root, and the solve
factorizes only there.
The eigenfunction and the rank-one spectral projection fall out of the
residue of the factorized resolvent at that root; the spectral radius
of the deflated operator (from the kernel's compression where it
decides, else Arnoldi, or dense at small n) certifies strict dominance.

A kernel with zero entries has no strict one-step certificate, yet some
power T^N may have one (a power-Doeblin condition, on any space).  Then
the dominant data of T^N transfer back to T, and the peripheral spectrum
of T lies among rho(T) times the N-th roots of unity; the spectral
radius of T deflated by the projection of T^N decides which of them
occur (``power_doeblin_analyze``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
# the one dominance rule, on radii of T: the dominant eigenvalue is strictly
# dominant when every other eigenvalue modulus lies below it by more than
# this fraction of it
DOMINANCE_GAP = 1e-9


@dataclass(frozen=True)
class SpectralDiagnostics:
    eig_residual: float          # sup |T w - lambda0 w| / (sup |w| ||T||_inf)
    proj_idempotency: float      # sup-operator norm of P^2 - P (residue formula)
    bs_at_lambda0: float         # D(lambda0)
    left_residual: float         # sup |T^T r - lambda0 r| / (sup |r| ||T||_inf), r the left row
    rank_one_defect: float       # rounding of the projection's column scales
    min_eigenfunction_value: float
    # [min, max] of (T w)_i / w_i, which encloses rho(T) = lambda0 for w > 0
    # (Collatz-Wielandt); None where w has an entry <= 0
    lambda0_bracket: tuple[float, float] | None


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


def collatz_wielandt(
    operator: Kernel | Callable[[np.ndarray], np.ndarray],
    start: np.ndarray | None = None,
    lift: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Bracket lo <= rho(A) <= hi from power steps of a nonnegative A on
    ``start``, an entrywise positive vector (the ones vector by default).
    ``operator`` is a Kernel, whose operator T is stepped by ``matvec``,
    or a function x -> A x, such as ``remainder_product`` of an
    evaluator, which needs a start; each step is one product.

    For nonnegative A and positive x, min_i (Ax)_i/x_i and max_i (Ax)_i/x_i
    enclose rho(A) (Collatz 1942, Wielandt 1950).  Every positive iterate
    gives such a pair, so the running max of the lower ends and the running
    min of the upper ends is still a bracket.  ``lift``, a function of x,
    bounds entrywise what the operator's product may lack of A x: the upper
    ends read (Ax + lift(x))_i / x_i.  So steps of the implicit remainder
    T - alpha*u x phi, clamped at 0 (``remainder_product``), bracket the
    radius of the split's clamped remainder, whose lift above them
    ``remainder_lift`` bounds in O(n), with no n x n remainder formed.
    Stepping stops once the bracket's
    relative width is at rounding level (16 eps), once a step no longer
    narrows it, once an iterate has a zero entry (the ratios need x > 0
    only, so the bracket found so far stands: a zero T gets [0, 0]), or
    after max(8, min(n / 6, 128)) steps, about the cost of D at one new
    shift (factorization and solve).  From a given start the rounding-level
    width stops it one step later: the start's error along the next
    eigenvectors still decays at that width, slowly where the spectral gap
    is small, and lo is the lambda0 of a solve whose first shift meets the
    stopping rule (on 1 + 10^-e G, G the Gaussian of width 0.35 at n =
    2000, 41 values of e from 2 to 12, lo lies 1.7 ulps below an eigvalsh
    of S on average, against 6 without the extra step; on the Gaussian of
    width 0.1 at n = 600, trapezoid rule, 2.5e-15 below relative, against
    3.0e-15).  So does a step that does not narrow it: from a start exact
    to rounding, two steps can draw the same rounding errors and repeat
    the bracket bit for bit, where the next one narrows it (e = 4 above,
    BLAS on one thread: lo 10 ulps below, against 2 one step later).
    Measured with
    BLAS on one thread, such a shift costs 4-10 steps below n = 100, about
    n / 6 steps from n = 200 to 800, and 130-150 steps from n = 1200 to
    2000, where the matrix no longer fits in cache and a step is bound by
    memory traffic.  From the ones vector the first step already gives
    [min, max] of the row sums, at worst [0, ||T||_inf].  A start near the
    Perron vector closes the bracket in two or three steps, one more past
    the close: ``find_dominant`` may start from the Perron vector of the
    kernel's compression, and the bracket of rho(R) in ``perron solve``
    from that of R's (``remainder_start``), which takes 3 to 5 steps on the
    Gaussians of width 0.1 to 0.35 at n = 600 and 2000, where the
    eigenfunction w took 21 to 69.  The compression chooses only the
    start: the bounds still come from exact steps of A alone.
    """
    if isinstance(operator, Kernel):
        apply, size = operator.matvec, operator.size
    elif start is None:
        raise ValueError("a Collatz-Wielandt bracket of a function needs a start vector")
    else:
        apply, size = operator, len(start)
    x = np.ones(size) if start is None else np.asarray(start, dtype=float)
    if not np.all(x > 0):
        raise ValueError("the start of a Collatz-Wielandt bracket must be entrywise positive")
    lo, hi = 0.0, np.inf
    past_close = 0 if start is None else 1   # steps taken past the close
    for _ in range(max(8, min(size // 6, 128))):
        y = apply(x)
        ratios = y / x
        upper = ratios if lift is None else (y + lift(x)) / x
        width = hi - lo
        lo, hi = max(lo, float(ratios.min())), min(hi, float(upper.max()))
        if not np.all(y > 0):
            break
        if hi - lo >= width or hi - lo <= 16 * np.finfo(float).eps * hi:
            if past_close == 0:
                break
            past_close -= 1
        x = y / y.max()
    return lo, hi


def find_dominant(ev: BirmanSchwingerEvaluator, tol: float = 1e-12) -> float:
    """Unique root of D above rho(R).

    On (rho(R), inf) D is increasing and concave (D' = alpha phi[R_lam^2 u]
    > 0, D'' = -2 alpha phi[R_lam^3 u] <= 0).  One loop keeps two fences
    around the root, from the Collatz-Wielandt bracket [lo, hi] of
    rho(T) = lambda0 (see collatz_wielandt); its first shift is lo, which
    on a tight bracket is all the solve needs.  Where the evaluator solves
    shifts through a compression, the bracket starts from W^-1/2 v_top,
    the compression's top eigenvector (``perron_start``), and closes
    in three or four steps, where the ones vector takes 15 to 21 for the
    Gaussians of width 0.3 to 0.4 at n = 2000; the compression chooses
    only the start, and every bound comes from exact steps of T.  A shift
    x is returned once |D(x)| <= tol * max(1, D'(x) x), whatever the sign
    of D(x).  Otherwise:

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
    lo, hi = cw = collatz_wielandt(ev.split.kernel, ev.perron_start())
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


def eigenfunction_series(
    ev: BirmanSchwingerEvaluator, lambda0: float, tol: float = 1e-12
) -> GridFunction:
    """Eigenfunction through the geometric series sum_n lambda0^-(n+1) R^n profile.

    The terms t_n >= 0 enclose their own tail.  Once R t_m <= c t_m
    entrywise, applying R >= 0 gives R t_n <= c t_n for every later term,
    and likewise for >=.  So q_hi, the running min of max_i (t_n+1)_i /
    (t_n)_i, and q_lo, the running max of the min_i ratios, are
    Collatz-Wielandt bounds of rho(R)/lambda0 that bound every later term,
    and the tail after t_n lies entrywise in [t_n a(q_lo), t_n a(q_hi)],
    a(q) = q / (1 - q).  Summing stops once t_n times the half-width of
    that enclosure is at most tol times the running sum, and the midpoint
    t_n (a(q_lo) + a(q_hi)) / 2 closes the sum: the rigorous form of
    Aitken's geometric-tail estimate.  The half-width carries the rounding
    of a(q_hi), about eps a(q_hi) / (1 - q_hi), since q_lo and q_hi may meet
    exactly (a rank-one remainder) while 1 - q leaves few digits of either.
    As a(q_lo) >= 0, the stop comes no later than the uncorrected one,
    t_n a(q_hi) <= tol times the running sum.

    R is the evaluator's implicit remainder, stepped by
    ``remainder_product``: one product over K per term and no n x n
    remainder, with every term clamped at 0, so the terms stay
    nonnegative where T - alpha*u x phi rounds below 0.

    The loop raises SlowConvergenceError as soon as q_lo shows that
    SERIES_MAX_TERMS terms cannot meet tol, rather than after them: the
    decay t_n+k >= q_lo^k t_n bounds from below the terms the uncorrected
    tail test would need, and that test is what the early raise judges.
    The result carries the same pairing normalization as the residue
    route.
    """
    term = ev.profile.values / lambda0
    acc = term.copy()
    q_lo, q_hi = 0.0, np.inf
    for n in range(1, SERIES_MAX_TERMS + 1):
        # scaled recurrence: unscaled numerator and denominator both
        # underflow for long series when lambda0 < 1
        nxt = ev.remainder_product(term) / lambda0
        acc += nxt
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
        if q_hi < 1.0:
            # rounding may lift q_lo an ulp past q_hi; the rounding term
            # of the half-width covers that
            lo = min(q_lo, q_hi)
            a_lo, a_hi = lo / (1.0 - lo), q_hi / (1.0 - q_hi)
            half = 0.5 * (a_hi - a_lo) + np.finfo(float).eps * a_hi / (1.0 - q_hi)
            if size * half <= tol * total:
                acc += (0.5 * (a_lo + a_hi)) * term
                break
        if q_lo >= 1.0:
            raise SlowConvergenceError(
                f"series terms do not decay: ratio at least {q_lo:.6f}"
            )
        if q_hi < 1.0 and q_lo > 0.0:
            # the uncorrected tail test at term n + k needs
            # q_lo^k size q_lo / (1 - q_lo) <= tol times a bound on the
            # final sum
            final = total + size * q_hi / (1.0 - q_hi)
            reach = tol * final * (1.0 - q_lo) / (q_lo * size)
            if reach < 1.0 and n + math.log(reach) / math.log(q_lo) > SERIES_MAX_TERMS:
                raise SlowConvergenceError(
                    f"series needs more than {SERIES_MAX_TERMS} terms by its "
                    f"uncorrected tail test (ratio in [{q_lo:.6f}, {q_hi:.6f}] "
                    f"after {n} terms)"
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

    # both residuals are relative to ||T||_inf, so c K has those of K; T w
    # and T^T r share one read of K where the kernel is symmetric
    norm = ev.operator_norm
    w = w_fun.values
    lr = left_row.acting_vector()
    tw, t_lr = ev.operator_products([w], [lr])
    eig_residual = float(np.max(np.abs(tw - lambda0 * w)) / (w_fun.sup_norm() * norm))
    # P = a z^T, so P^2 - P = (z . a - 1) P and ||P||_inf = max|a| sum|z|
    a = projection_raw.range_vector.values
    proj_idem = abs(projection_raw.coupling() - 1.0) * float(np.abs(a).max() * np.abs(z).sum())
    left_residual = float(np.max(np.abs(t_lr - lambda0 * lr)) / (np.max(np.abs(lr)) * norm))
    bracket = None
    if w.min() > 0:
        ratios = tw / w
        bracket = (float(ratios.min()), float(ratios.max()))
    diagnostics = SpectralDiagnostics(
        eig_residual=eig_residual,
        proj_idempotency=proj_idem,
        bs_at_lambda0=ev.value(lambda0),
        left_residual=left_residual,
        rank_one_defect=_proportionality_defect(z),
        min_eigenfunction_value=float(w.min()),
        lambda0_bracket=bracket,
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
    route: str                  # "compression", "arnoldi" or "dense", see growth_radius


def verify_dominance(result: SpectralResult) -> DominanceReport:
    """Deflation check: the spectral radius of (I - P) T (I - P), with P
    the rank-one projection of ``result``, against lambda0.

    The radius is computed to rounding level, not estimated.  A symmetric
    kernel with a compression reads it from the Ritz values, within
    twice the probe bound (Weyl), after one product of T has checked the
    candidate eigenpair against P; where that bound or that check leaves
    the verdict open, and on every other kernel, ARPACK runs on the
    implicitly deflated T above ``DENSE_RADIUS_MAX_DIM`` (64) nodes, and
    dense ``eigvals`` with inverse iteration at or below it or when ARPACK
    has not converged within 585 mat-vecs.  The slow case is a deflated
    spectrum of many equal moduli, as for a cyclic permutation plus a
    constant: it pays both routes.  ``route`` names the one taken and
    ``residual`` is the misfit of its top eigenpair relative to
    max(|theta|, ||T||_inf), a backward error on the scale of T that does
    not bound the relative error of theta; see
    :func:`perron.kernel_op.growth_radius`.
    """
    threshold = result.lambda0 * (1.0 - DOMINANCE_GAP)
    second = growth_radius(
        result.evaluator.split.kernel,
        result.projection.range_vector.values,
        result.projection.functional.acting_vector(),
        threshold,
        norm=result.evaluator.operator_norm,
    )
    return DominanceReport(
        lambda0=result.lambda0,
        second_radius=second.radius,
        gap_ratio=second.radius / result.lambda0,
        strictly_dominant=second.radius < threshold,
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
    threshold = rho * (1.0 - DOMINANCE_GAP)
    second = growth_radius(
        kernel,
        result.projection.range_vector.values,
        result.projection.functional.acting_vector(),
        threshold,
    ).radius
    simple = second < threshold
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
