"""Exception hierarchy.

Everything numerical raised on purpose by this package derives from
:class:`PerronError`, so callers (notably the CLI) can separate
computational failures from programming errors.
"""


class PerronError(Exception):
    """Base class for deliberate computational failures."""


class DimensionMismatchError(PerronError):
    """Operands live on measure spaces of different sizes."""


class InvalidCertificateError(PerronError):
    """A minorization certificate does not hold for the given kernel."""


class NotMinorizableError(PerronError):
    """A solve was attempted on a kernel without a usable certificate."""

    def __init__(self, details):
        super().__init__(str(details))
        self.details = details


class BelowSpectralRadiusError(PerronError):
    """lam is not above rho(R): (lam*I - R)^-1 1 has an entry ``smallest`` <= 0."""

    def __init__(self, lam, smallest):
        super().__init__(
            f"lambda = {lam!r} is not above the remainder's spectral radius: "
            f"(lambda*I - R)^-1 1 has smallest entry {smallest!r}"
        )
        self.lam = lam
        self.smallest = smallest


class IllConditionedError(PerronError):
    """A shifted linear system is too ill-conditioned to solve reliably."""


class NotConvergentError(PerronError):
    """A Neumann-type series cannot converge (or did not within its cap)."""


class SlowConvergenceError(PerronError):
    """A geometric series has contraction ratio too close to one."""


class NoSignChangeError(PerronError):
    """Bracketing found no sign change for the scalar spectral function."""


class ScaleOverflowError(PerronError):
    """A result overflows double precision at the scale of the kernel."""


class PowerIterationError(PerronError):
    """Power iteration failed to converge within its iteration budget."""


class EmptySupportError(PerronError):
    """A mollifier ball contains no quadrature node."""


class GridTooCoarseError(PerronError):
    """The quadrature grid cannot resolve the requested mollifier width."""
