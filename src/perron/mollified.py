"""Mollified point evaluation and its convergence study.

Point evaluation of a kernel at a reference pair (x0, y0) is
approximated by a mollified functional: a normalized double box average

    phi_{e,d}[F] = sum_{x,y} F(x, y) psi_e(x) eta_d(y) w_x w_y,

which has norm at most one and converges to F(x0, y0) at continuity
points as the widths shrink.  The rank-one-subtracted recursion

    G_0 = K,    G_{n+1} = K-compose(G_n) - K * phi_{e,d}[G_n]

then converges to the exact point-subtraction recursion, with
G_n(x0, y0) in place of phi_{e,d}[G_n], which ``convergence_study``
measures in the sup norm against shrinking widths.

Both recursions subtract multiples of K, so every iterate is a
combination sum_j c_j K^(j) of the iterated kernels with j <= n+1, and
a functional enters only through its values on the powers.
``convergence_study`` runs both recursions on the coefficients c_j, with
the powers shared between the point recursion and every width; the
error of each step is the sup norm of one combination,
sum_j (c_j^{e} - c_j) K^(j).  A symmetric kernel with a low-rank
compression (``Kernel.compression``) forms no power: a combination
costs one O(n^2 k) product.  Any other kernel composes K^(2) .. K^(m+1)
once, in blocks of columns, m O(n^3) products in all, and every
combination of the study is read off each block as it is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doeblin import _row_blocks
from .errors import EmptySupportError, GridTooCoarseError
from .kernel_op import Kernel, overflow_raises
from .measure import MeasureSpace


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


def _kernel_powers(kernel: Kernel, m: int):
    """The iterated kernels K^(1) .. K^(m+1) in blocks of columns: yields,
    for each block J in turn, the (m + 1) x n x |J| stack of
    K^(j+1)[:, J] = (K W)^j K[:, J], in one buffer that each block
    overwrites.  A block has about n / (2 (m + 1)) columns, so its stack
    holds half as many doubles as K, and the blocks' products add up to m
    compositions."""
    n = kernel.size
    width = -(-n // (2 * (m + 1)))
    buf = np.empty((m + 1) * n * width)
    for start in range(0, n, width):
        cols = slice(start, min(start + width, n))
        stack = buf[: (m + 1) * n * (cols.stop - start)].reshape(m + 1, n, -1)
        stack[0] = kernel.entries[:, cols]
        for j in range(1, m + 1):
            stack[j] = kernel.matvec(stack[j - 1])
        yield stack


def _power_basis(kernel: Kernel, m: int):
    """The iterated kernels K^(1) .. K^(m+1) as two maps: ``forms(a, b)``,
    the values a^T K^(j+1) b for j = 0 .. m, and ``sup_norms(coeffs)``, for
    each row c of coeffs the largest entry of |sum_j c_j K^(j+1)|.

    With a compression S ~ V diag(mu) V^T of S = W^1/2 K W^1/2,
    K^(j+1) = W^-1/2 S^(j+1) W^-1/2, so for j >= 1
    K^(j+1) = L diag(mu^(j+1)) L^T with L = W^-1/2 V, while K^(1) keeps the
    exact entries: a form costs O(n k) and a combination is
    c_0 K + L diag(sum_j c_j mu^(j+1)) L^T, one O(n^2 k) product, with no
    power formed, in blocks of rows of one reused buffer.  Without one, a
    form is m + 1 vector products, K b then (K W)^j K b, and the sup norms
    take one sweep of ``_kernel_powers``: each block's combinations are
    formed from its stack and only their largest moduli kept.  No n x n
    combination or power is formed.  The first steps of a recursion reach
    no power past K^(1), and rounding is monotone, so such a combination's
    sup norm is |c_0| max K, bit for bit, with no pass over K."""
    compression = kernel.compression if m else None
    if compression is None:

        def forms(a, b):
            v = kernel.product(b)
            values = [a @ v]
            for _ in range(m):
                v = kernel.matvec(v)
                values.append(a @ v)
            return np.array(values)

        def combination_norms(coeffs):
            return np.max([[np.abs(np.tensordot(c, stack, axes=1)).max() for c in coeffs]
                           for stack in _kernel_powers(kernel, m)], axis=0)
    else:
        left = compression.vectors / np.sqrt(kernel.space.weights)[:, np.newaxis]
        mu = compression.values ** np.arange(2, m + 2)[:, np.newaxis]   # row j - 1: mu^(j+1)

        def forms(a, b):
            return np.concatenate([[a @ kernel.product(b)], mu @ ((a @ left) * (b @ left))])

        blocks = _row_blocks(kernel.size)
        buf = np.empty((blocks[0].stop, kernel.size))

        def combination_norms(coeffs):
            worst = np.zeros(len(coeffs))
            for i, c in enumerate(coeffs):
                for rows in blocks:
                    out = buf[: rows.stop - rows.start]
                    np.matmul(left[rows] * (c[1:] @ mu), left.T, out=out)
                    out += c[0] * kernel.entries[rows]
                    worst[i] = np.maximum(worst[i], np.abs(out, out=out).max())
            return worst

    def sup_norms(coeffs):
        formed = coeffs[:, 1:].any(axis=1)
        norms = np.abs(coeffs[:, 0] * kernel.max_entry)
        if formed.any():
            norms[formed] = combination_norms(coeffs[formed])
        return norms

    return forms, sup_norms


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


@dataclass(frozen=True)
class ConvergenceStudy:
    x0: float
    y0: float
    x0_index: int
    y0_index: int
    widths: tuple
    errors: tuple          # max_n sup |G_n^{e,e} - G_n|, per width
    per_step: tuple        # tuple of per-n error tuples, one per width


def convergence_study(
    kernel: Kernel,
    x0: float,
    y0: float,
    widths,
    m: int,
) -> ConvergenceStudy:
    """Distance between the mollified and the point recursions as the
    mollifier width shrinks.

    The reference point snaps to the nearest node (both recursions then
    target the same limit).  Raises GridTooCoarseError when the smallest
    width captures fewer than two nodes, since nothing is being averaged
    at that resolution, and ScaleOverflowError where the powers up to
    K^(m+1), which grow like ||T||_inf^m max K, overflow (see
    ``overflow_raises``).
    """
    widths = tuple(float(e) for e in widths)
    if not widths:
        raise ValueError("need at least one width")
    if m < 0:
        raise ValueError("m must be >= 0")
    nodes = kernel.space.nodes
    ix = int(np.argmin(np.abs(nodes - x0)))
    iy = int(np.argmin(np.abs(nodes - y0)))
    cx, cy = float(nodes[ix]), float(nodes[iy])
    smallest = min(widths)
    if int(np.count_nonzero(np.abs(nodes - cx) <= smallest * (1 + 1e-12))) < 2:
        raise GridTooCoarseError(
            f"width {smallest} captures fewer than two nodes around {cx}"
        )
    with overflow_raises(kernel, f"the mollified study's powers K^(2) .. K^({m + 1})"):
        forms, sup_norms = _power_basis(kernel, m)
        # the point values K^(j+1)(x0, y0) are the forms of two unit vectors
        units = np.zeros((2, kernel.size))
        units[0, ix] = units[1, iy] = 1.0
        exact = _subtraction_coefficients(forms(*units), m)
        gaps = []
        for eps in widths:
            psi = Mollifier(cx, eps, kernel.space)
            eta = Mollifier(cy, eps, kernel.space)
            mollified = forms(psi.acting_vector(), eta.acting_vector())
            gaps.append(_subtraction_coefficients(mollified, m) - exact)
        norms = sup_norms(np.concatenate(gaps)).reshape(len(widths), m + 1)
    per_step = tuple(tuple(float(e) for e in step) for step in norms)
    return ConvergenceStudy(
        x0=cx,
        y0=cy,
        x0_index=ix,
        y0_index=iy,
        widths=widths,
        errors=tuple(max(step) for step in per_step),
        per_step=per_step,
    )
