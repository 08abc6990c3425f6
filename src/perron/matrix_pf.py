"""Power-Doeblin analysis of nonnegative matrices over counting spaces.

A nonnegative matrix with a strict rank-one lower bound goes straight
through :func:`perron.solve`.  Matrices with zero entries may still
satisfy a power-Doeblin condition (some power admits a strict bound);
for those, the dominant data of A^N transfers back to A and the
peripheral spectrum lies among the N-th roots of the dominant value.
The spectral radius of A deflated by the projection of A^N decides
which of them occur, at every dimension.
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
    # strict dominance of A^N forces a single peripheral eigenvalue of A,
    # which must be rho itself
    second = growth_radius(
        matrix_kernel,
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
