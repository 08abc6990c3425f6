"""Finite quadrature measure spaces and the weighted dual pairing.

The continuum objects (a sigma-finite measure space, functions on it,
and integral functionals) are realized discretely: a space is a list of
nodes ``x_i`` with strictly positive quadrature weights ``w_i``, a
function is its vector of node values, and a functional with density
``g`` acts by the weighted dot product ``sum_i f_i g_i w_i``.

All types are immutable after construction; the backing arrays are
frozen so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError

INTERVAL_RULES = ("midpoint", "trapezoid", "gauss_legendre")


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Quadrature nodes and strictly positive weights.

    ``kind`` is one of ``"interval"`` (nodes inside ``[a, b]``, metadata in
    ``interval``), ``"counting"`` (integer labels, unit weights), or
    ``"weighted"`` (a general discrete space, e.g. produced by a change
    of measure).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "weighted"
    interval: tuple | None = None  # (a, b, rule) when kind == "interval"

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen_array(self.nodes))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.nodes.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("nodes and weights must be one-dimensional")
        if self.nodes.size == 0:
            raise ValueError("a measure space needs at least one node")
        if self.nodes.size != self.weights.size:
            raise ValueError("nodes and weights must have equal length")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be strictly positive")
        if self.kind not in ("interval", "counting", "weighted"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "interval":
            if self.interval is None:
                raise ValueError("interval spaces need (a, b, rule) metadata")
            a, b, _ = self.interval
            if not np.all(np.diff(self.nodes) > 0):
                raise ValueError("interval nodes must be strictly increasing")
            if self.nodes[0] < a - 1e-12 or self.nodes[-1] > b + 1e-12:
                raise ValueError("interval nodes must lie inside [a, b]")
        if self.kind == "counting" and not np.all(self.weights == 1.0):
            raise ValueError("counting spaces carry unit weights")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def ones(self) -> "GridFunction":
        return GridFunction(np.ones(self.size), self)


def same_space(a: MeasureSpace, b: MeasureSpace) -> bool:
    if a is b:
        return True
    return (
        a.size == b.size
        and np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.weights, b.weights)
    )


def check_same_space(a: MeasureSpace, b: MeasureSpace) -> None:
    if not same_space(a, b):
        raise DimensionMismatchError("operands live on different measure spaces")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function known through its node values."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != (self.space.size,):
            raise DimensionMismatchError(
                f"expected {self.space.size} values, got {self.values.shape}"
            )

    @property
    def size(self) -> int:
        return self.space.size

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0))

    def is_strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0))

    def integral(self) -> float:
        return float(np.dot(self.space.weights, self.values))


@dataclass(frozen=True, eq=False)
class WeightFunctional:
    """A positive functional represented by a nonnegative density.

    Acting on a grid function f it returns ``sum_i f_i density_i w_i``.
    """

    density: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        object.__setattr__(self, "density", _frozen_array(self.density))
        if self.density.shape != (self.space.size,):
            raise DimensionMismatchError(
                f"expected {self.space.size} density values, got {self.density.shape}"
            )
        if not np.all(self.density >= 0):
            raise ValueError("functional densities must be nonnegative")

    @cached_property
    def strictly_positive(self) -> bool:
        """Every density value positive, decided once per functional."""
        return bool(np.all(self.density > 0))

    def acting_vector(self) -> np.ndarray:
        """density * weights: the row vector realizing the pairing."""
        return self.density * self.space.weights


def pair(phi: WeightFunctional, f: GridFunction) -> float:
    """Apply the functional: ``sum_i f_i g_i w_i``."""
    check_same_space(phi.space, f.space)
    return float(np.dot(phi.acting_vector(), f.values))


def _uniform_lattice(a: float, b: float, n: int, rule: str) -> tuple[np.ndarray, float]:
    """Nodes and spacing h of the midpoint lattice ``a + (i + 1/2) h`` or
    the trapezoid lattice ``a + i h`` (its last node b) with n nodes."""
    if rule == "midpoint":
        h = (b - a) / n
        return a + (np.arange(n) + 0.5) * h, h
    return np.linspace(a, b, n), (b - a) / (n - 1)


def lattice_step(space: MeasureSpace) -> float | None:
    """The spacing h when the nodes of an interval space are exactly the
    midpoint or trapezoid lattice that ``make_interval_space`` puts on its
    interval, else None.  The nodes themselves decide, in one O(n)
    comparison: a hand-built space may carry any increasing nodes under a
    rule's name."""
    if space.kind != "interval":
        return None
    a, b, rule = space.interval
    if rule not in ("midpoint", "trapezoid") or (rule == "trapezoid" and space.size < 2):
        return None
    nodes, h = _uniform_lattice(a, b, space.size, rule)
    return h if np.array_equal(nodes, space.nodes) else None


def make_interval_space(a: float, b: float, n: int, rule: str = "midpoint") -> MeasureSpace:
    """Quadrature rule with n nodes for Lebesgue measure on [a, b].

    ``midpoint`` keeps uniform positive weights (the default used by the
    positivity machinery), ``trapezoid`` includes the endpoints (n >= 2),
    and ``gauss_legendre`` offers spectral accuracy for smooth integrands.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if a >= b:
        raise ValueError("interval requires a < b")
    if rule not in INTERVAL_RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    if rule == "midpoint":
        nodes, h = _uniform_lattice(a, b, n, rule)
        weights = np.full(n, h)
    elif rule == "trapezoid":
        if n < 2:
            raise ValueError("trapezoid rule needs at least 2 nodes")
        nodes, h = _uniform_lattice(a, b, n, rule)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2
    else:
        xi, wi = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * xi
        weights = 0.5 * (b - a) * wi
    return MeasureSpace(nodes, weights, kind="interval", interval=(float(a), float(b), rule))


def make_counting_space(n: int) -> MeasureSpace:
    """Counting measure on n points labelled 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return MeasureSpace(np.arange(n, dtype=float), np.ones(n), kind="counting")
