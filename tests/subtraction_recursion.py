"""The subtraction recursions of ``perron.mollified`` as one plain loop:
the test oracle of ``convergence_study``, which runs them on coefficients
over shared powers of K.

    G_0 = K,    G_{n+1} = K-compose(G_n) - K * f[G_n]

for a linear functional f: the value G_n(x0, y0) at a node pair (the
point recursion) or the double box average of two mollifiers (the
mollified one).  Each step composes once, an O(n^3) product, and the
iterates are signed plain arrays.
"""

from __future__ import annotations

import numpy as np


def box_average(entries: np.ndarray, psi, eta) -> float:
    """The mollified functional sum_{x,y} F(x, y) psi(x) eta(y) w_x w_y."""
    return float(psi.acting_vector() @ entries @ eta.acting_vector())


def subtraction_recursion(kernel, functional, m: int) -> list:
    """The iterates G_0 .. G_m, with functional(G) the float f[G]."""
    iterates = [kernel.entries]
    for _ in range(m):
        current = iterates[-1]
        iterates.append(kernel.matvec(current) - kernel.entries * functional(current))
    return iterates
