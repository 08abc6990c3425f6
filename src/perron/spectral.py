"""Dominant eigenvalue, eigenfunction, and rank-one spectral projection.

The dominant eigenvalue of T is located as the unique root of the
Birman-Schwinger function above the remainder radius.  D is increasing
and concave there, so Newton climbs to the root from any point with
D < 0.  That start is the lower end of a Collatz-Wielandt bracket on
rho(T), run by power steps to rounding level or to a budget worth about
D at one new shift (an LU factorization and its solves).  When D at the
start already meets the stopping rule it is the root, and the solve
factorizes only there; when the start is unusable, the root is
bracketed by geometric expansion up from the remainder radius instead
(D tends to 1 at infinity).  Newton keeps a bisection fallback inside
the bracket.  The eigenfunction and the
rank-one spectral projection fall out of the residue of the factorized
resolvent at that root; the spectral radius of the deflated operator
(Arnoldi, or dense at small n) certifies strict dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doeblin import (
    MinorizationCertificate,
    NotMinorizable,
    extract_minorization,
    rank_one_split,
)
from .errors import (
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


@dataclass(frozen=True)
class SpectralDiagnostics:
    eig_residual: float          # sup |T w - lambda0 w| / sup |w|
    proj_idempotency: float      # sup-operator norm of P^2 - P (residue formula)
    bs_at_lambda0: float         # D(lambda0)
    gap_to_remainder_radius: float
    left_residual: float         # left functional row composed with T vs lambda0 * row
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


def collatz_wielandt(kernel: Kernel, clear: float | None = None):
    """Bracket lo <= rho(T) <= hi from power steps of the operator T of
    ``kernel`` on the ones vector, each one ``kernel.matvec``.

    For nonnegative T and positive x, min_i (Tx)_i/x_i and max_i (Tx)_i/x_i
    enclose rho(T) (Collatz 1942, Wielandt 1950).  Every positive iterate
    gives such a pair, so the running max of the lower ends and the running
    min of the upper ends is still a bracket.  Stepping stops once its
    relative width is at rounding level (16 eps), once a step no longer
    narrows it, or after max(8, min(n / 6, 128)) steps, about the cost of
    D at one new shift (factorization, condition estimate and solve).
    Measured with BLAS on one thread, such a shift costs 4-10 steps below
    n = 100, about n / 6 steps from n = 200 to 800, and 130-150 steps from
    n = 1200 to 2000, where the matrix no longer fits in cache and a step
    is bound by memory traffic.  With ``clear``, stepping goes on past that
    budget while clear lies in [lo, hi), that is until the lower end clears
    it or the upper end shows it never will, up to 10,000 steps (the
    budget of the power-iteration oracle).
    Returns None once an iterate has a zero entry, since the ratios are
    then undefined.
    """
    n = kernel.size
    budget = max(8, min(n // 6, 128))
    x = np.ones(n)
    lo, hi = 0.0, np.inf
    for step in range(1, 10_001):
        y = kernel.matvec(x)
        if not np.all(y > 0):
            return None
        ratios = y / x
        width = hi - lo
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        if hi - lo <= 16 * np.finfo(float).eps * hi or hi - lo >= width:
            break
        if step >= budget and (clear is None or not lo <= clear < hi):
            break
        x = y / y.max()
    return lo, hi


def find_dominant(ev: BirmanSchwingerEvaluator, tol: float = 1e-12) -> float:
    """Unique root of D above the remainder radius.

    On (rho(R), inf) D is increasing and concave (D' = alpha phi[R_lam^2 u]
    > 0, D'' = -2 alpha phi[R_lam^3 u] <= 0), so Newton started at any
    point with D < 0 climbs to the root without overshooting.  The start
    is the lower end lo of a Collatz-Wielandt bracket on rho(T) = lambda0,
    taken from O(n^2) power steps run to rounding level or to a budget
    worth about D at one new shift (see collatz_wielandt); its upper end
    bounds the root and is never evaluated.  lo is returned as it is when
    |D(lo)| <= tol * max(1, D'(lo) lo), the stopping rule of Newton,
    whatever the sign of D(lo): the bracket may be exact, or rounding may
    lift lo just past the root.  Then the one factorization at lo is all
    the solve needs.  Otherwise Newton runs from lo when D(lo) < 0.  When
    the start is unusable (an iterate with a zero entry, a lower end at
    or below the radius estimate, or D(lo) > 0 beyond the stopping
    rule) the root is bracketed instead by geometric expansion from the
    radius estimate (D < 0 just above the radius whenever a root exists,
    D -> 1 at infinity).  Newton then runs safeguarded by the bracket.
    Raises NoSignChangeError, with alpha, the radius estimate, the
    Collatz-Wielandt bracket and the last D value, when D stays positive
    up to 10 * ||T||, which signals a certificate too weak to see the
    dominant eigenvalue.  When the upper end of the bracket already lies
    below the radius estimate (beyond a few eps of rounding), no root can
    lie above the estimate, and the error is raised before any
    factorization.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"tol below {MIN_TOL:g} is not resolvable in double precision")
    if not ev.phi_strictly_positive:
        raise NotMinorizableError(
            NotMinorizable("root finding requires a strictly positive functional")
        )
    rho = ev.remainder_radius
    cw = collatz_wielandt(ev.split.kernel)
    if cw is not None and cw[1] * (1.0 + 4 * np.finfo(float).eps) < rho:
        # rho(T) <= hi < rho: D has no root above the radius estimate
        raise _no_sign_change(
            f"the Collatz-Wielandt upper end is {rho / cw[1] - 1.0:.3e} relative "
            "below the remainder radius estimate",
            ev, rho, cw, None,
        )
    if cw is not None and cw[0] > rho:
        try:
            d_lo = ev.value(cw[0])
        except IllConditionedError:
            d_lo = None
        if d_lo is not None:
            if d_lo < 0:
                return _newton(ev, cw[0], d_lo, cw[0], cw[1], tol)
            if _converged(cw[0], d_lo, ev.derivative(cw[0]), tol):
                return cw[0]

    cap = 10.0 * max(ev.operator_norm, np.finfo(float).tiny)
    delta = 1e-6
    lo = rho * (1.0 + delta) if rho > 0 else delta * max(ev.operator_norm, 1e-300)
    d_lo = None
    for _ in range(8):  # ill-conditioning right above rho(R): back off outward
        try:
            d_lo = ev.value(lo)
            break
        except IllConditionedError:
            lo = rho + (lo - rho) * 4.0
    if d_lo is None:
        raise _no_sign_change(
            "shifted remainder is ill-conditioned above its radius", ev, rho, cw, None
        )

    shrink = 0
    while d_lo >= 0 and shrink < 60:
        # root may sit closer to rho(R) than the first probe
        lo_new = rho + (lo - rho) * 0.5
        if lo_new <= rho or lo_new == lo:
            break
        try:
            d_new = ev.value(lo_new)
        except IllConditionedError:
            break
        lo, d_lo = lo_new, d_new
        shrink += 1
    if d_lo >= 0:
        raise _no_sign_change(
            "D has no sign change above the remainder radius: certificate too "
            "weak or the radius estimate is an overestimate",
            ev, rho, cw, d_lo,
        )

    hi = None
    offset = lo - rho
    k = 0
    while hi is None:
        k += 1
        cand = min(rho + offset * (2.0**k), cap)
        d_cand = ev.value(cand)
        if d_cand > 0:
            hi = cand
        else:
            lo, d_lo = cand, d_cand
            if cand >= cap:
                raise _no_sign_change(f"D stayed negative up to {cap}", ev, rho, cw, d_cand)

    x = 0.5 * (lo + hi)
    return _newton(ev, x, ev.value(x), lo, hi, tol)


def _no_sign_change(
    reason: str, ev: BirmanSchwingerEvaluator, rho: float, cw, d_last: float | None
) -> NoSignChangeError:
    bracket = "not computed" if cw is None else f"[{cw[0]:.6e}, {cw[1]:.6e}]"
    last = "not evaluated" if d_last is None else f"{d_last:.6e}"
    return NoSignChangeError(
        f"{reason} (alpha = {ev.alpha:.6e}, remainder radius estimate {rho:.6e}, "
        f"Collatz-Wielandt bracket {bracket}, last D = {last})"
    )


def _converged(x: float, dx: float, dpx: float, tol: float) -> bool:
    """The stopping rule of the root search: |D(x)| <= tol * max(1, D'(x) x)."""
    return abs(dx) <= tol * max(1.0, abs(dpx) * x)


def _newton(
    ev: BirmanSchwingerEvaluator, x: float, dx: float, lo: float, hi: float, tol: float
) -> float:
    """Newton on D from x, where dx = D(x), safeguarded by the bracket
    [lo, hi]; stops once |D| <= tol * max(1, D' x)."""
    for _ in range(200):
        if dx > 0:
            hi = x
        else:
            lo = x
        dpx = ev.derivative(x)
        if _converged(x, dx, dpx, tol):
            return float(x)
        if hi - lo <= 8 * np.finfo(float).eps * max(1.0, x):
            return float(0.5 * (lo + hi))
        step = x - dx / dpx if dpx > 0 else None
        x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
        dx = ev.value(x)
    raise NotConvergentError("root refinement did not converge")


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
    ev: BirmanSchwingerEvaluator,
    lambda0: float,
    tol: float = 1e-12,
    max_terms: int = 20_000,
) -> GridFunction:
    """Eigenfunction through the geometric series sum_n lambda0^-(n+1) R^n profile.

    Converges at ratio rho(R)/lambda0; raises SlowConvergenceError when
    that ratio is numerically 1 or the term budget is exhausted.  The
    result carries the same pairing normalization as the residue route.
    """
    ratio = ev.remainder_radius / lambda0
    if ratio >= 1.0 - 1e-6:
        raise SlowConvergenceError(
            f"series contraction ratio {ratio:.8f} is too close to one"
        )
    rem = ev.split.remainder
    term = ev.profile.values / lambda0
    acc = term.copy()
    for n in range(1, max_terms + 1):
        # scaled recurrence: unscaled numerator and denominator both
        # underflow for long series when lambda0 < 1
        term = rem.matvec(term) / lambda0
        acc = acc + term
        # geometric tail, relative to the running sum: the normalization
        # at the end is a scalar, so relative accuracy is what survives
        tail = float(np.max(np.abs(term))) * ratio / (1.0 - ratio)
        if tail <= tol * float(np.max(np.abs(acc))):
            break
    else:
        raise SlowConvergenceError(
            f"series needed more than {max_terms} terms (ratio {ratio:.6f})"
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
    shape exists (callers may fall back to a power-Doeblin analysis).
    ``solver`` names the shifted solve and accepts only "direct_lu", the
    cached LU factorization of the evaluator.
    """
    if solver != "direct_lu":
        raise ValueError(f"unknown solver {solver!r}: the only solver is 'direct_lu'")
    if certificate is None:
        certificate = extract_minorization(kernel, strategy)
        if isinstance(certificate, NotMinorizable):
            raise NotMinorizableError(certificate)
    if certificate.power != 1:
        raise ValueError("solve requires a power-1 certificate; iterate the kernel first")
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

    tw = kernel.matvec(w_fun.values)
    eig_residual = float(np.max(np.abs(tw - lambda0 * w_fun.values)) / w_fun.sup_norm())
    # P = a z^T, so P^2 - P = (z . a - 1) P and ||P||_inf = max|a| sum|z|
    a = projection_raw.range_vector.values
    proj_idem = abs(projection_raw.coupling() - 1.0) * float(np.abs(a).max() * np.abs(z).sum())
    lr = left_row.acting_vector()
    left_residual = float(
        np.max(np.abs(kernel.rmatvec(lr) - lambda0 * lr)) / max(np.max(np.abs(lr)), 1e-300)
    )
    diagnostics = SpectralDiagnostics(
        eig_residual=eig_residual,
        proj_idempotency=proj_idem,
        bs_at_lambda0=ev.value(lambda0),
        gap_to_remainder_radius=lambda0 - ev.remainder_radius,
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
