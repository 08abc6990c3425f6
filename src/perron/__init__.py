"""Dominant spectra of positive kernel operators.

Given a nonnegative kernel with a rank-one lower bound (a Doeblin-type
minorization), the dominant eigenvalue is the unique root of a scalar
Birman-Schwinger function built from the resolvent of the rank-one-
subtracted remainder.  The package computes that root, the eigenvector,
the left functional, and the rank-one spectral projection, and checks
everything against independent brute-force oracles.
"""

__version__ = "0.1.0"

from . import errors
from .change_of_measure import (
    MeasureChange,
    changed_space,
    conjugate_kernel,
    inverse_change,
    transform_schur,
    transport_function,
)
from .corrected_kernels import (
    CorrectedKernelSequence,
    build_corrected_kernels,
    moment_scalars,
    neumann_kernel_resolvent,
    neumann_tail_bound,
    probe_resolvent_identity,
    rank_one_norm,
    verify_resolvent_identity,
)
from .doeblin import (
    CertificateReport,
    MinorizationCertificate,
    NotFoundWithin,
    NotMinorizable,
    RankOneSplit,
    extract_minorization,
    load_certificate,
    positivity_improving_check,
    power_doeblin_search,
    rank_one_split,
    save_certificate,
    verify_certificate,
)
from .kernel_op import (
    Kernel,
    PowerIterationResult,
    SchurBound,
    SchurReport,
    SecondRadius,
    apply,
    compose,
    constant_kernel,
    gaussian_kernel,
    growth_radius,
    iterate_kernel,
    kernel_from_csv,
    separable_kernel,
    spectral_radius_oracle,
    tight_schur_bound,
    verify_schur,
)
from .measure import (
    GridFunction,
    MeasureSpace,
    WeightFunctional,
    make_counting_space,
    make_interval_space,
    pair,
    same_space,
)
from .mollified import (
    ConvergenceStudy,
    LiftedKernelState,
    Mollifier,
    convergence_study,
    kernel_space_norm,
    mollified_functional,
    mollified_recursion,
    point_recursion,
)
from .resolvent import BirmanSchwingerEvaluator, RankOneOperator
from .spectral import (
    DominanceReport,
    PeripheralReport,
    SpectralDiagnostics,
    SpectralResult,
    eigenfunction_from_residue,
    eigenfunction_series,
    find_dominant,
    power_doeblin_analyze,
    series_term_norms,
    solve,
    spectral_projection,
    verify_dominance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
