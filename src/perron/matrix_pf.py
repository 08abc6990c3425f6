"""Perron-Frobenius layer for nonnegative matrices over counting spaces.

A nonnegative matrix with a strict rank-one lower bound goes straight
through the factorized solver.  Matrices with zero entries may still
satisfy a power-Doeblin condition (some power admits a strict bound);
for those, the dominant data of A^N transfers back to A and the
peripheral spectrum collapses into N-th roots of the dominant value,
which are tested individually against a characteristic-polynomial
oracle at small dimension or a deflation argument above it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .doeblin import (
    MinorizationCertificate,
    NotFoundWithin,
    power_doeblin_search,
)
from .kernel_op import Kernel, growth_radius, iterate_kernel
from .spectral import SpectralResult, solve

CHARPOLY_MAX_DIM = 12


def characteristic_polynomial(matrix: np.ndarray) -> np.ndarray:
    """Coefficients (leading 1) via the trace recursion; O(n^4), exact
    rational structure up to float rounding, no eigensolver involved."""
    n = matrix.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    aux = np.eye(n)
    for k in range(1, n + 1):
        if k > 1:
            aux = matrix @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(matrix @ aux) / k
    return coeffs


def eigenvalues_via_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Small-dimension spectrum oracle: roots of the characteristic polynomial."""
    if matrix.shape[0] > CHARPOLY_MAX_DIM:
        raise ValueError(f"characteristic-polynomial oracle capped at {CHARPOLY_MAX_DIM}")
    return np.roots(characteristic_polynomial(matrix))


def pf_solve(
    matrix_kernel: Kernel,
    strategy: str = "row_min",
    tol: float = 1e-12,
) -> SpectralResult:
    """Dominant eigenvalue, strictly positive eigenvector, left row, and
    rank-one projection for a matrix with a strict rank-one lower bound.

    Raises NotMinorizableError for matrices with zero entries; those
    should be routed through :func:`power_doeblin_analyze`.
    """
    if matrix_kernel.space.kind != "counting":
        raise ValueError("pf_solve expects a matrix over a counting space")
    return solve(matrix_kernel, strategy=strategy, tol=tol)


@dataclass(frozen=True, eq=False)
class PeripheralReport:
    """Peripheral spectrum analysis under a power-Doeblin certificate."""

    rho: float                    # spectral radius of A
    power: int                    # smallest N with a strict certificate for A^N
    roots_of_unity_candidates: list  # rho * zeta, zeta^N = 1: the a priori set
    peripheral_candidates: list   # candidates confirmed to be eigenvalues of A
    simple: bool                  # dominant eigenvalue of A^N is simple
    second_modulus: float         # next |eigenvalue| of A below rho
    rank_one_defect: float        # column proportionality defect of A^N's projection
    certificate: MinorizationCertificate
    power_result: SpectralResult  # full solve of A^N


def power_doeblin_analyze(
    matrix_kernel: Kernel,
    n_max: int = 8,
    strategy: str = "row_min",
    tol: float = 1e-12,
):
    """Find the smallest usable power, solve it, and classify the
    peripheral spectrum of the original matrix.

    Returns :class:`NotFoundWithin` when no power up to n_max admits a
    strict certificate (cyclic structure keeps zeros in every power).
    """
    if matrix_kernel.space.kind != "counting":
        raise ValueError("power_doeblin_analyze expects a matrix over a counting space")
    found = power_doeblin_search(matrix_kernel, n_max, strategy)
    if isinstance(found, NotFoundWithin):
        return found
    n = found.power
    powered = matrix_kernel if n == 1 else iterate_kernel(matrix_kernel, n)
    result = solve(powered, certificate=replace(found, power=1), tol=tol)
    rho = result.lambda0 ** (1.0 / n)

    candidates = [rho * np.exp(2j * np.pi * k / n) for k in range(n)]
    a_op = matrix_kernel.operator_matrix()
    dim = matrix_kernel.size
    if dim <= CHARPOLY_MAX_DIM:
        roots = eigenvalues_via_charpoly(a_op)
        confirmed = [
            c
            for c in candidates
            if np.min(np.abs(roots - c)) <= 1e-6 * max(1.0, rho)
        ]
        away = [abs(r) for r in roots if abs(r - rho) > 1e-6 * max(1.0, rho)]
        second = max(away) if away else 0.0
        powered_roots = roots**n
        simple = (
            int(np.sum(np.abs(powered_roots - rho**n) <= 1e-6 * max(1.0, rho**n)))
            == 1
        )
    else:
        # deflation route: strict dominance of A^N forces a single
        # peripheral eigenvalue of A, which must be rho itself
        second = growth_radius(
            a_op,
            result.projection.range_vector.values,
            result.projection.functional.acting_vector(),
        ).radius
        simple = second**n < result.lambda0 * (1.0 - 1e-8)
        confirmed = [complex(rho)] if simple else candidates
    defect = result.diagnostics.rank_one_defect
    return PeripheralReport(
        rho=float(rho),
        power=n,
        roots_of_unity_candidates=candidates,
        peripheral_candidates=confirmed,
        simple=bool(simple),
        second_modulus=float(second),
        rank_one_defect=float(defect),
        certificate=found,
        power_result=result,
    )


def left_eigen_residual(matrix_kernel: Kernel, result: SpectralResult) -> float:
    """sup |row o A - lambda0 * row| / sup |row| for the left row."""
    a_op = matrix_kernel.operator_matrix()
    row = result.left_row.acting_vector()
    return float(
        np.max(np.abs(a_op.T @ row - result.lambda0 * row))
        / max(np.max(np.abs(row)), 1e-300)
    )
