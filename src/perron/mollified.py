"""Kernel-space recursion with mollified point evaluation.

Kernels are lifted to a space normed by the worst column,
``|F| = max_y |F(., y)|_E``; the operator acts in the first variable and
the rank-one direction is the kernel K itself.  Point evaluation at a
reference pair (x0, y0) is not bounded there, so it is approximated by
a mollified functional: a normalized double box average

    phi_{e,d}[F] = sum_{x,y} F(x, y) psi_e(x) eta_d(y) w_x w_y,

which has norm at most one and converges to F(x0, y0) at continuity
points as the widths shrink.  The recursion

    G_{n+1} = K-compose(G_n) - K * phi_{e,d}[G_n]

then converges to the exact point-subtraction recursion, which
``convergence_study`` measures against shrinking widths.

Both recursions subtract multiples of K, so every iterate is a
combination sum_j c_j K^(j) of the iterated kernels with j <= n+1, and
a functional enters only through its values on the powers.
``point_recursion`` and ``mollified_recursion`` iterate the kernels
directly in one loop, one composition per step; their iterates are
signed, so each is a read-only ``LiftedKernelState`` array, never a
``Kernel``, whose entries are validated nonnegative.
``convergence_study`` instead runs both recursions on the coefficients
c_j, with the powers shared between the point recursion and every
width; the error of each step is the norm of one combination,
sum_j (c_j^{e} - c_j) K^(j).  A symmetric kernel with a low-rank
compression (``Kernel.compression``) forms no power: a combination
costs one O(n^2 k) product.  Any other kernel composes
K^(2) .. K^(m+1) once, m O(n^3) products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, GridTooCoarseError
from .kernel_op import Kernel
from .measure import MeasureSpace, check_same_space


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Normalized box indicator over the nodes within ``radius`` of ``center``."""

    center: float
    radius: float
    space: MeasureSpace

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("mollifier radius must be positive")
        density = np.zeros(self.space.size)
        inside = np.abs(self.space.nodes - self.center) <= self.radius * (1 + 1e-12)
        if not inside.any():
            raise EmptySupportError(
                f"no node within {self.radius} of {self.center}"
            )
        mass = float(self.space.weights[inside].sum())
        density[inside] = 1.0 / mass
        density.flags.writeable = False
        object.__setattr__(self, "density", density)

    def acting_vector(self) -> np.ndarray:
        return self.density * self.space.weights


def kernel_space_norm(kernel, p: float = np.inf) -> float:
    """max over columns y of the E-norm of the column function F(., y), for
    a ``Kernel`` or a ``LiftedKernelState``."""
    return _column_norm(np.abs(kernel.entries), kernel.space.weights, p)


def _column_norm(magnitudes: np.ndarray, weights: np.ndarray, p: float) -> float:
    """``kernel_space_norm`` of the entries |F| = magnitudes."""
    if np.isinf(p):
        return float(magnitudes.max())
    return float(((magnitudes**p * weights[:, np.newaxis]).sum(axis=0) ** (1.0 / p)).max())


@dataclass(frozen=True, eq=False)
class LiftedKernelState:
    """One iterate of a lifted recursion: its entries over the kernel's
    space, with their norm.  The iterates are corrections, signed in
    general, so they are read-only arrays and not ``Kernel`` objects,
    whose entries are nonnegative."""

    entries: np.ndarray
    space: MeasureSpace
    norm: float

    @classmethod
    def from_entries(
        cls, entries: np.ndarray, space: MeasureSpace, p: float = np.inf
    ) -> "LiftedKernelState":
        """The state of a read-only copy of ``entries``."""
        entries = np.array(entries, dtype=float)
        entries.flags.writeable = False
        return cls(entries, space, _column_norm(np.abs(entries), space.weights, p))


def mollified_functional(state, psi: Mollifier, eta: Mollifier) -> float:
    """Double box average of a ``Kernel`` or a ``LiftedKernelState``
    against the two mollifiers."""
    check_same_space(state.space, psi.space)
    check_same_space(state.space, eta.space)
    return float(psi.acting_vector() @ state.entries @ eta.acting_vector())


def _kernel_powers(kernel: Kernel, m: int) -> np.ndarray:
    """The iterated kernels K^(1) .. K^(m+1), stacked: m compositions."""
    if m < 0:
        raise ValueError("m must be >= 0")
    powers = np.empty((m + 1, kernel.size, kernel.size))
    powers[0] = kernel.entries
    for j in range(1, m + 1):
        powers[j] = kernel.matvec(powers[j - 1])
    return powers


def _power_basis(kernel: Kernel, m: int):
    """The iterated kernels K^(1) .. K^(m+1) as two maps: ``forms(a, b)``,
    the values a^T K^(j+1) b for j = 0 .. m, and ``magnitudes(c)``, the
    entries of |sum_j c_j K^(j+1)| in one fresh array.

    With a compression S ~ V diag(mu) V^T of S = W^1/2 K W^1/2,
    K^(j+1) = W^-1/2 S^(j+1) W^-1/2, so for j >= 1
    K^(j+1) = L diag(mu^(j+1)) L^T with L = W^-1/2 V, while K^(1) keeps the
    exact entries: a form costs O(n k) and a combination is
    c_0 K + L diag(sum_j c_j mu^(j+1)) L^T, one O(n^2 k) product, with no
    power formed.  Without one, the stack of ``_kernel_powers``."""
    compression = kernel.compression if m else None
    if compression is None:
        powers = _kernel_powers(kernel, m)
        return (lambda a, b: powers @ b @ a), (lambda c: np.abs(np.tensordot(c, powers, axes=1)))
    left = compression.vectors / np.sqrt(kernel.space.weights)[:, np.newaxis]
    mu = compression.values ** np.arange(2, m + 2)[:, np.newaxis]   # row j - 1: mu^(j+1)

    def forms(a, b):
        return np.concatenate([[a @ kernel.entries @ b], mu @ ((a @ left) * (b @ left))])

    def magnitudes(c):
        # the first steps of a recursion reach no power past K^(1)
        if c[1:].any():
            out = (left * (c[1:] @ mu)) @ left.T
            out += c[0] * kernel.entries
        else:
            out = c[0] * kernel.entries
        return np.abs(out, out=out)

    return forms, magnitudes


def _subtraction_coefficients(values: np.ndarray, m: int) -> np.ndarray:
    """Coefficients c with G_n = sum_j c[n, j] K^(j+1) for the recursion

        G_0 = K,    G_{n+1} = K-compose(G_n) - K * f[G_n],

    given the values f_j = f[K^(j+1)] of a linear functional f.  Composing
    with K shifts every coefficient up one power, and the subtracted
    scalar f[G_n] = sum_j c[n, j] f_j lands on K^(1).
    """
    coeffs = np.zeros((m + 1, m + 1))
    coeffs[0, 0] = 1.0
    for n in range(m):
        coeffs[n + 1, 1:] = coeffs[n, :-1]
        coeffs[n + 1, 0] = -float(coeffs[n] @ values)
    return coeffs


def mollified_recursion(
    kernel: Kernel,
    alpha: float,
    profile,
    psi: Mollifier,
    eta: Mollifier,
    m: int,
    direction: str = "kernel",
    p: float = np.inf,
) -> list:
    """Iterate the rank-one-subtracted lift m times, starting from K.

    ``direction`` selects what multiplies the subtracted scalar:
    ``"kernel"`` (default) subtracts K(x, y) * phi[G_n], keeping the
    rank-one range equal to span{K}; ``"profile"`` subtracts
    alpha * profile(x) * phi[G_n] instead, matching the minorization
    shape.  Both variants are exposed because they coincide only when
    the kernel itself is the certified direction.
    """
    if direction not in ("kernel", "profile"):
        raise ValueError(f"unknown direction {direction!r}")
    if m < 0:
        raise ValueError("m must be >= 0")
    if direction == "profile":
        values = np.asarray(getattr(profile, "values", profile), dtype=float)
        subtract_direction = alpha * values[:, np.newaxis] * np.ones((1, kernel.size))
    else:
        subtract_direction = kernel.entries
    a, b = psi.acting_vector(), eta.acting_vector()
    return _lifted_recursion(kernel, subtract_direction, lambda g: float(a @ g @ b), m, p)


def point_recursion(kernel: Kernel, x0_index: int, y0_index: int, m: int) -> list:
    """Exact point-subtraction recursion using the node value at (x0, y0):
    G_{n+1} = K-compose(G_n) - K * G_n(x0, y0), as ``LiftedKernelState``
    iterates G_0 .. G_m."""
    n = kernel.size
    if not (0 <= x0_index < n and 0 <= y0_index < n):
        raise IndexError("reference indices out of range")
    return _lifted_recursion(kernel, kernel.entries, lambda g: float(g[x0_index, y0_index]), m)


def _lifted_recursion(kernel: Kernel, direction: np.ndarray, functional, m: int,
                      p: float = np.inf) -> list:
    """G_0 = K, G_{n+1} = K-compose(G_n) - direction * functional(G_n), as
    ``LiftedKernelState`` iterates G_0 .. G_m."""
    states = [LiftedKernelState.from_entries(kernel.entries, kernel.space, p)]
    for _ in range(m):
        current = states[-1].entries
        nxt = kernel.matvec(current) - direction * functional(current)
        states.append(LiftedKernelState.from_entries(nxt, kernel.space, p))
    return states


@dataclass(frozen=True)
class ConvergenceStudy:
    x0: float
    y0: float
    x0_index: int
    y0_index: int
    widths: tuple
    errors: tuple          # max_n |G_n^{e,e} - G_n| in the lifted norm, per width
    per_step: tuple        # tuple of per-n error tuples, one per width


def convergence_study(
    kernel: Kernel,
    x0: float,
    y0: float,
    widths,
    m: int,
    p: float = np.inf,
) -> ConvergenceStudy:
    """Distance between the mollified and the point recursions as the
    mollifier width shrinks.

    The reference point snaps to the nearest node (both recursions then
    target the same limit).  Raises GridTooCoarseError when the smallest
    width captures fewer than two nodes, since nothing is being averaged
    at that resolution.
    """
    widths = tuple(float(e) for e in widths)
    if not widths:
        raise ValueError("need at least one width")
    nodes = kernel.space.nodes
    ix = int(np.argmin(np.abs(nodes - x0)))
    iy = int(np.argmin(np.abs(nodes - y0)))
    cx, cy = float(nodes[ix]), float(nodes[iy])
    smallest = min(widths)
    if int(np.count_nonzero(np.abs(nodes - cx) <= smallest * (1 + 1e-12))) < 2:
        raise GridTooCoarseError(
            f"width {smallest} captures fewer than two nodes around {cx}"
        )
    forms, magnitudes = _power_basis(kernel, m)
    # the point values K^(j+1)(x0, y0) are the forms of two unit vectors
    units = np.zeros((2, kernel.size))
    units[0, ix] = units[1, iy] = 1.0
    exact = _subtraction_coefficients(forms(*units), m)
    errors = []
    per_step = []
    for eps in widths:
        psi = Mollifier(cx, eps, kernel.space)
        eta = Mollifier(cy, eps, kernel.space)
        mollified = forms(psi.acting_vector(), eta.acting_vector())
        gap = _subtraction_coefficients(mollified, m) - exact
        step_errors = tuple(
            _column_norm(magnitudes(c), kernel.space.weights, p) for c in gap
        )
        per_step.append(step_errors)
        errors.append(max(step_errors))
    return ConvergenceStudy(
        x0=cx,
        y0=cy,
        x0_index=ix,
        y0_index=iy,
        widths=widths,
        errors=tuple(errors),
        per_step=tuple(per_step),
    )
