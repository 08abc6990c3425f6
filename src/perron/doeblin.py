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
from pathlib import Path

import numpy as np

from .errors import InvalidCertificateError
from .kernel_op import Kernel, compose, iterate_kernel
from .measure import GridFunction, WeightFunctional, check_same_space

SLACK = 1e-14  # absolute slack (scaled by kernel magnitude) for entrywise checks
POSITIVITY_TRIALS = 32  # random probes of the positivity-improving battery

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


@dataclass(frozen=True, eq=False)
class RankOneSplit:
    """T = alpha * (profile x functional) + remainder, with remainder >= 0."""

    kernel: Kernel
    certificate: MinorizationCertificate
    remainder: Kernel

    def __post_init__(self):
        if self.certificate.power != 1:
            raise ValueError("splits require a power-1 certificate")


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
        prof = entries.min(axis=1)
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
    kernel: Kernel, cert: MinorizationCertificate, out: np.ndarray | None = None
) -> CertificateReport:
    """The certificate report of K^(N) - alpha * profile x density, made
    row block by row block.  With ``out`` the gap is written there, clamped
    at zero after its block is read; without, one block buffer is reused."""
    check_same_space(kernel.space, cert.profile.space)
    powered = kernel if cert.power == 1 else iterate_kernel(kernel, cert.power)
    entries, profile, density = powered.entries, cert.profile.values, cert.functional.density
    blocks = _row_blocks(kernel.size)
    buf = np.empty((blocks[0].stop, kernel.size)) if out is None else None
    worst = np.inf
    for rows in blocks:
        gap = buf[: rows.stop - rows.start] if out is None else out[rows]
        np.multiply(profile[rows, np.newaxis], density, out=gap)
        gap *= cert.alpha
        np.subtract(entries[rows], gap, out=gap)
        worst = min(worst, float(gap.min()))
        if out is not None:
            np.maximum(gap, 0.0, out=gap)
    # kernel entries are nonnegative, so their max is their sup norm
    scale = max(1.0, float(entries.max()))
    return CertificateReport(
        holds=worst >= -SLACK * scale,
        worst_slack=worst,
        strict_phi=cert.functional.strictly_positive,
    )


def verify_certificate(kernel: Kernel, cert: MinorizationCertificate) -> CertificateReport:
    """Entrywise check of K^(N) >= alpha * profile x density, with float slack."""
    return _gap(kernel, cert)


def rank_one_split(kernel: Kernel, cert: MinorizationCertificate) -> RankOneSplit:
    """Subtract the certified rank-one part; remainder is clamped at the
    float-noise slack and guaranteed nonnegative."""
    if cert.power != 1:
        raise ValueError("rank_one_split requires a power-1 certificate")
    remainder = np.empty((kernel.size, kernel.size))
    report = _gap(kernel, cert, out=remainder)
    if not report.holds:
        raise InvalidCertificateError(
            f"certificate fails with worst slack {report.worst_slack:.3e}"
        )
    remainder.flags.writeable = False
    return RankOneSplit(kernel, cert, Kernel(remainder, kernel.space))


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


def positivity_improving_check(
    kernel: Kernel, cert: MinorizationCertificate, seed: int = 20240808
) -> bool:
    """Random battery: T^N f > 0 everywhere and T^N f >= alpha*profile*phi[f]
    for nonnegative, not identically zero f."""
    powered = kernel if cert.power == 1 else iterate_kernel(kernel, cert.power)
    scale = max(1.0, float(np.abs(powered.entries).max()))
    rng = np.random.default_rng(seed)
    space = kernel.space
    # column t is probe t, drawn trial by trial, so a seed gives the same
    # probes as a loop over the trials
    probes = np.empty((space.size, POSITIVITY_TRIALS))
    for f in probes.T:
        f[:] = rng.uniform(0.0, 1.0, space.size)
        f[rng.random(space.size) < 0.5] = 0.0
        if not f.any():
            f[rng.integers(space.size)] = 1.0
    # T^N F and the floors alpha * profile * phi[f] of all probes at once
    images = powered.matvec(probes)
    floors = np.outer(cert.alpha * cert.profile.values, cert.functional.acting_vector() @ probes)
    return bool(np.all(images > 0) and not np.any(images - floors < -SLACK * scale))


# ---------------------------------------------------------------------------
# Certificate files: pin a certificate across runs


def save_certificate(cert: MinorizationCertificate, path) -> None:
    payload = {
        "alpha": cert.alpha,
        "power": cert.power,
        "profile": cert.profile.values.tolist(),
        "density": cert.functional.density.tolist(),
        "normalization": "pairing of the constant function 1 equals 1 for built-in shapes",
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_certificate(path, space) -> MinorizationCertificate:
    payload = json.loads(Path(path).read_text())
    return MinorizationCertificate(
        alpha=float(payload["alpha"]),
        profile=GridFunction(np.asarray(payload["profile"], dtype=float), space),
        functional=WeightFunctional(np.asarray(payload["density"], dtype=float), space),
        power=int(payload.get("power", 1)),
    )
