"""Doeblin-type rank-one minorizations K(x,y) >= alpha * profile(x) * g(y).

A certificate pins a positive rank-one operator beneath T (possibly
beneath a power T^N), which is the structural hypothesis behind the
whole solver: subtracting it leaves a remainder with strictly smaller
spectral radius, so the dominant eigenvalue becomes the root of a
scalar function.

Extraction is deliberately deterministic.  Two canonical shapes are
provided plus a user-supplied one; for a fixed shape the certificate
constant is always the maximal valid alpha.  Built-in strategies insist
on strictly positive factors (the usable case); kernels with zero
entries are reported as ``NotMinorizable`` rather than failed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidCertificateError
from .kernel_op import Kernel, compose, iterate_kernel
from .measure import GridFunction, WeightFunctional, check_same_space

SLACK = 1e-14  # absolute slack (scaled by kernel magnitude) for entrywise checks

STRATEGIES = ("row_min", "column_profile", "user")

# the certificate and the split pass over the kernel in blocks of rows with
# about BLOCK_ENTRIES entries, so they form no n x n temporary
BLOCK_ENTRIES = 1 << 16


def _row_blocks(n: int):
    """Consecutive row slices covering range(n), about BLOCK_ENTRIES entries each."""
    step = max(1, BLOCK_ENTRIES // n)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class MinorizationCertificate:
    """Witness of K^(power)(x,y) >= alpha * profile(x) * functional.density(y).

    ``functional`` induces the strictly positive pairing used throughout;
    built-in strategies normalize its density so the pairing of the
    constant function 1 equals 1.
    """

    alpha: float
    profile: GridFunction
    functional: WeightFunctional
    power: int = 1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("certificate alpha must be positive")
        if self.power < 1:
            raise ValueError("certificate power must be >= 1")
        check_same_space(self.profile.space, self.functional.space)
        if not self.profile.is_nonnegative():
            raise ValueError("certificate profile must be nonnegative")
        if not np.any(self.profile.values > 0):
            raise ValueError("certificate profile must not vanish identically")

    @property
    def strict(self) -> bool:
        """Both factors strictly positive: the positivity-improving case."""
        return self.profile.is_strictly_positive() and self.functional.strictly_positive

    def lower_bound_matrix(self) -> np.ndarray:
        return self.alpha * np.outer(self.profile.values, self.functional.density)

    @cached_property
    def _flat_shape(self) -> np.ndarray | None:
        """For a density that is one number d0, the rank-one part of each
        row i, fl(fl(profile_i d0) alpha), rounded as ``_gap`` forms it at
        every entry of the row but formed once; None for any other
        density."""
        density = self.functional.density
        if not np.all(density == density[0]):
            return None
        return np.multiply(self.profile.values, density[0]) * self.alpha


@dataclass(frozen=True)
class NotMinorizable:
    """Outcome value: no usable certificate of the requested shape exists."""

    reason: str

    def __str__(self):
        return f"not minorizable: {self.reason}"


@dataclass(frozen=True)
class NotFoundWithin:
    """Outcome value: no power up to n_max admits a strict certificate."""

    n_max: int

    def __str__(self):
        return f"no power-Doeblin certificate found for N <= {self.n_max}"


@dataclass(frozen=True, eq=False, repr=False)
class RankOneSplit:
    """T = alpha * (profile x functional) + remainder, with remainder >= 0.

    Neither the solve nor the diagnostics of ``perron solve`` and ``perron
    dcurve`` read ``remainder``: they apply R as the implicit
    T - alpha * profile x phi (see ``resolvent``), and only the
    cross-checks of ``perron verify`` read it.  The explicit n x n Kernel
    is read-only: the clamped gap of ``_gap``, built when first read and
    then kept.  The two differ only where the clamp lifts a float-noise
    slack to 0, by at most ``clamp_lift`` in each row."""

    kernel: Kernel
    certificate: MinorizationCertificate

    def __post_init__(self):
        if self.certificate.power != 1:
            raise ValueError("splits require a power-1 certificate")

    @cached_property
    def remainder(self) -> Kernel:
        """max(K - alpha * profile x density, 0), written by ``_gap``."""
        entries = np.empty((self.kernel.size, self.kernel.size))
        _gap(self.kernel, self.certificate, out=entries)
        entries.flags.writeable = False
        return Kernel(entries, self.kernel.space)

    @cached_property
    def clamp_lift(self) -> np.ndarray:
        """Per row i, the most the clamp of ``remainder`` lifts an entry of
        that row, max(0, -min_j gap_ij) with the gap rounded as ``_gap``
        writes it: so remainder <= K - alpha * profile x density +
        clamp_lift x 1 entrywise, up to the rounding of that difference.
        O(n) for a flat density (``_row_slack``), one read-only pass over
        K for any other."""
        return np.maximum(-_row_slack(self.kernel, self.certificate), 0.0)

    def reconstruction_defect(self) -> float:
        """max |alpha * profile x density + remainder - K| over the entries,
        each rounded as the n x n sum would be, in blocks of rows of one
        reused buffer."""
        cert, entries, rem = self.certificate, self.kernel.entries, self.remainder.entries
        blocks = _row_blocks(self.kernel.size)
        buf = np.empty((blocks[0].stop, self.kernel.size))
        worst = 0.0
        for rows in blocks:
            # alpha * outer(profile, density), as ``lower_bound_matrix``
            recon = np.multiply(cert.profile.values[rows, np.newaxis], cert.functional.density,
                                out=buf[: rows.stop - rows.start])
            recon *= cert.alpha
            recon += rem[rows]
            recon -= entries[rows]
            worst = np.maximum(worst, np.abs(recon, out=recon).max())
        return float(worst)


def _maximal_alpha(entries: np.ndarray, profile: np.ndarray, density: np.ndarray) -> float:
    """min of K_ij / (profile_i density_j) over the entries where that shape
    is positive; 0 when it is positive nowhere.  One buffer of a row block,
    divided in place.  Rounding is monotone, so when the product of the two
    smallest factors is positive every product is, and no mask is made."""
    blocks = _row_blocks(entries.shape[0])
    buf = np.empty((blocks[0].stop, entries.shape[1]))
    p_min, d_min = profile.min(), density.min()
    positive = p_min > 0 and d_min > 0 and p_min * d_min > 0
    best, seen = np.inf, positive
    for rows in blocks:
        ratio = np.multiply(profile[rows, np.newaxis], density, out=buf[: rows.stop - rows.start])
        if positive:
            best = min(best, float(np.divide(entries[rows], ratio, out=ratio).min()))
            continue
        mask = ratio > 0
        if mask.any():
            seen = True
            np.divide(entries[rows], ratio, out=ratio, where=mask)
            best = min(best, float(np.min(ratio, where=mask, initial=np.inf)))
    return best if seen else 0.0


def extract_minorization(
    kernel: Kernel,
    strategy: str = "row_min",
    profile=None,
    density=None,
):
    """Extract a maximal-alpha certificate of the given shape.

    row_min:        profile_i = min_j K_ij, flat density normalized so the
                    pairing of 1 is 1, alpha maximal (= total mass).
    column_profile: profile = weighted row sums (sup-normalized), density
                    from columnwise min ratios, then renormalized the same
                    way with alpha carrying the scale.
    user:           caller supplies profile and density arrays; alpha is
                    the maximal valid constant for that shape.

    Built-in strategies return :class:`NotMinorizable` unless both factors
    come out strictly positive (a kernel with any zero entry never admits
    a strictly positive rank-one lower bound).  User shapes are honored
    as given, with strictness recorded on the certificate.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    space = kernel.space
    entries = kernel.entries
    w = space.weights

    if strategy == "user":
        if profile is None or density is None:
            raise ValueError("user strategy requires profile and density")
        prof = np.asarray(profile, dtype=float)
        dens = np.asarray(density, dtype=float)
        alpha = _maximal_alpha(entries, prof, dens)
        if not np.isfinite(alpha) or alpha <= 0:
            return NotMinorizable("supplied shape admits no positive alpha")
        return MinorizationCertificate(
            alpha, GridFunction(prof, space), WeightFunctional(dens, space)
        )

    if strategy == "row_min":
        prof = kernel.row_minima
        dens = np.full(space.size, 1.0 / space.total_mass())
    else:  # column_profile
        blocks = _row_blocks(space.size)
        row_sums = np.concatenate([(entries[rows] * w).sum(axis=1) for rows in blocks])
        top = row_sums.max()
        if top <= 0:
            return NotMinorizable("kernel is identically zero")
        prof = row_sums / top
        if np.any(prof <= 0):
            return NotMinorizable("a row of the kernel vanishes")
        dens = np.full(space.size, np.inf)
        for rows in blocks:
            np.minimum(dens, (entries[rows] / prof[rows, np.newaxis]).min(axis=0), out=dens)
        mass = float(np.dot(dens, w))
        if mass > 0:
            dens = dens / mass

    if np.any(prof <= 0) or np.any(dens <= 0):
        return NotMinorizable(
            "zero kernel entries prevent a strictly positive rank-one lower bound"
        )
    if strategy == "row_min":
        # the density is flat, so row i of K is divided by the one number
        # prof_i dens_i, and rounding is monotone: where that shape is
        # positive the row's least ratio is that of its least entry, prof_i,
        # bit for bit as _maximal_alpha, and 0 where it is positive nowhere
        shape = prof * dens
        positive = shape > 0
        alpha = float((prof[positive] / shape[positive]).min()) if positive.any() else 0.0
    else:
        alpha = _maximal_alpha(entries, prof, dens)
    if alpha <= 0:
        return NotMinorizable("maximal alpha is zero for this shape")
    return MinorizationCertificate(
        alpha, GridFunction(prof, space), WeightFunctional(dens, space)
    )


@dataclass(frozen=True)
class CertificateReport:
    holds: bool
    worst_slack: float
    strict_phi: bool


def _gap(
    powered: Kernel, cert: MinorizationCertificate, out: np.ndarray | None = None
) -> CertificateReport:
    """The certificate report of K^(N) - alpha * profile x density, K^(N)
    the kernel ``powered``, from the least entry of each row
    (``_row_slack``); with ``out`` the gap is written there."""
    check_same_space(powered.space, cert.profile.space)
    worst = float(_row_slack(powered, cert, out).min())
    # kernel entries are nonnegative, so their max is their sup norm
    scale = max(1.0, powered.max_entry)
    return CertificateReport(
        holds=worst >= -SLACK * scale,
        worst_slack=worst,
        strict_phi=cert.functional.strictly_positive,
    )


def _row_slack(
    powered: Kernel, cert: MinorizationCertificate, out: np.ndarray | None = None
) -> np.ndarray:
    """The least entry of each row of the gap powered - alpha * profile x
    density, rounded as it is written.  With ``out`` the gap is written
    there row block by row block, clamped at zero after its block is read.
    Without, a flat density is read in O(n) from the row minima of
    ``powered``, any other in one pass that reuses one block buffer."""
    entries, profile, density = powered.entries, cert.profile.values, cert.functional.density
    flat = cert._flat_shape
    if out is None and flat is not None:
        # row i of the gap is K_ij - c_i and rounding is monotone, so its
        # least entry is fl(min_j K_ij - c_i), bit for bit
        return np.subtract(powered.row_minima, flat)
    blocks = _row_blocks(powered.size)
    buf = np.empty((blocks[0].stop, powered.size)) if out is None else None
    least = np.empty(powered.size)
    for rows in blocks:
        gap = buf[: rows.stop - rows.start] if out is None else out[rows]
        if flat is None:
            np.multiply(profile[rows, np.newaxis], density, out=gap)
            gap *= cert.alpha
            np.subtract(entries[rows], gap, out=gap)
        else:
            np.subtract(entries[rows], flat[rows, np.newaxis], out=gap)
        gap.min(axis=1, out=least[rows])
        if out is not None:
            np.maximum(gap, 0.0, out=gap)
    return least


def verify_certificate(kernel: Kernel, cert: MinorizationCertificate) -> CertificateReport:
    """Entrywise check of K^(N) >= alpha * profile x density, with float slack."""
    return _gap(iterate_kernel(kernel, cert.power), cert)


def rank_one_split(kernel: Kernel, cert: MinorizationCertificate) -> RankOneSplit:
    """Check the certified rank-one part beneath K (``_gap``: O(n) for a
    flat density, one read-only pass for any other) and split it off; no
    remainder is written (see :class:`RankOneSplit`)."""
    if cert.power != 1:
        raise ValueError("rank_one_split requires a power-1 certificate")
    report = _gap(kernel, cert)
    if not report.holds:
        raise InvalidCertificateError(
            f"certificate fails with worst slack {report.worst_slack:.3e}"
        )
    return RankOneSplit(kernel, cert)


def power_doeblin_search(kernel: Kernel, n_max: int, strategy: str = "row_min"):
    """Smallest N <= n_max whose iterated kernel admits a strict
    certificate: that certificate, with power N, and the kernel of T^N it
    certifies, or :class:`NotFoundWithin` when no such N exists."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    powered = kernel
    for n in range(1, n_max + 1):
        if n > 1:
            powered = compose(powered, kernel)
        cert = extract_minorization(powered, strategy)
        if isinstance(cert, MinorizationCertificate) and cert.strict:
            return dataclasses.replace(cert, power=n), powered
    return NotFoundWithin(n_max)


def positivity_improving_check(kernel: Kernel, cert: MinorizationCertificate) -> bool:
    """Whether T^N f > 0 everywhere and T^N f >= alpha * profile * phi[f]
    for every nonnegative f that is not identically zero, decided exactly
    from the entries of K^N.  The weights are positive and
    (T^N f)_i - alpha profile_i phi[f] = sum_j (K^N_ij - alpha profile_i
    density_j) w_j f_j, so the first holds exactly when every entry of
    K^N is positive (take f = e_j), and the second exactly when the
    certificate holds entrywise, to its own slack (``_gap``)."""
    powered = iterate_kernel(kernel, cert.power)
    return bool(powered.row_minima.min() > 0) and _gap(powered, cert).holds


# ---------------------------------------------------------------------------
# Certificate files: pin a certificate across runs


def _is_number(value) -> bool:
    """A JSON number: bool is an int in Python, but true is no number in JSON."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_certificate(path, space) -> MinorizationCertificate:
    """The certificate of a JSON file: an object with a number ``alpha``,
    the arrays of numbers ``profile`` and ``density`` and an optional
    integer ``power``, 1 by default.  A field of the wrong type raises
    ValueError naming it."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"a certificate file holds a JSON object, not {type(payload).__name__}")
    alpha, power = payload["alpha"], payload.get("power", 1)
    if not _is_number(alpha):
        raise ValueError(f"certificate alpha must be a number, got {json.dumps(alpha)}")
    if not (_is_number(power) and isinstance(power, int)):
        raise ValueError(f"certificate power must be an integer, got {json.dumps(power)}")
    for name in ("profile", "density"):
        if not (isinstance(payload[name], list) and all(map(_is_number, payload[name]))):
            raise ValueError(f"certificate {name} must be an array of numbers")
    return MinorizationCertificate(
        alpha=float(alpha),
        profile=GridFunction(np.asarray(payload["profile"], dtype=float), space),
        functional=WeightFunctional(np.asarray(payload["density"], dtype=float), space),
        power=power,
    )
