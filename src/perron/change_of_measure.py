"""Change of measure by a strictly positive density.

Writing the working measure as d(mu) = h d(nu), the operator over nu is
the isometric conjugate of the operator over mu:

    K_h(x, y) = h(x)^(1/p) K(x, y) h(y)^(1/q),   1/p + 1/q = 1,

acting against the nu-weights w_i / h_i.  Conjugation is an exact
similarity on the discrete level, so the spectrum is preserved to
rounding error; the isometry moves a function f to h^(1/p) f.

Row/column Schur certificates transport with both weights multiplied by
h^(1/p) (the same isometry that moves the functions).  That transport
preserves the constant exactly when p = 2, and for any p when h is
constant; for non-constant h with p != 2 no single weight pair keeps
both inequalities with the same constant, which the tests document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_op import Kernel, SchurBound
from .measure import GridFunction, MeasureSpace, check_same_space


@dataclass(frozen=True, eq=False)
class MeasureChange:
    """Strictly positive density h with conjugation exponent p in [1, inf)."""

    density: GridFunction
    exponent: float = 2.0

    def __post_init__(self):
        if not self.density.is_strictly_positive():
            raise ValueError("measure-change densities must be strictly positive")
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def conjugate_exponent(self) -> float:
        if self.exponent == 1.0:
            return np.inf
        return self.exponent / (self.exponent - 1.0)

    def row_factor(self) -> np.ndarray:
        return self.density.values ** (1.0 / self.exponent)

    def col_factor(self) -> np.ndarray:
        q = self.conjugate_exponent
        if np.isinf(q):
            return np.ones(self.density.size)
        return self.density.values ** (1.0 / q)


def changed_space(mc: MeasureChange) -> MeasureSpace:
    """Same nodes, weights divided by the density: the nu-space."""
    base = mc.density.space
    return MeasureSpace(base.nodes, base.weights / mc.density.values, kind="weighted")


def conjugate_kernel(kernel: Kernel, mc: MeasureChange) -> Kernel:
    """h^(1/p)-weighted conjugate over the nu-space; same spectrum."""
    check_same_space(kernel.space, mc.density.space)
    # one outer product, multiplied in place and frozen, so that the Kernel
    # shares it: one n x n array; at p = 2 a symmetric kernel stays
    # bit-symmetric
    entries = np.outer(mc.row_factor(), mc.col_factor())
    entries *= kernel.entries
    entries.flags.writeable = False
    return Kernel(entries, changed_space(mc))


def transform_schur(bound: SchurBound, mc: MeasureChange) -> SchurBound:
    """Transport a Schur certificate along the isometry, keeping C.

    Both weights are moved by the same factor h^(1/p) as the functions
    they bound.  Exact (same constant, same ratios) for p = 2 and for
    constant densities at any p.
    """
    check_same_space(bound.row_weight.space, mc.density.space)
    space = changed_space(mc)
    factor = mc.row_factor()
    return SchurBound(
        GridFunction(factor * bound.row_weight.values, space),
        GridFunction(factor * bound.col_weight.values, space),
        bound.constant,
    )

