"""Arbitrary-precision toolkit for power systems {x**lam_n} in weighted
L2 spaces over finite interval unions: Gram matrices, span distances,
biorthogonal duals, series projection, moment solving and finite-section
operator experiments, each checkable against classical closed forms.
"""

from .domain import (
    WeightedDomain,
    build_weighted_domain,
    domain_from_json,
    domain_to_json,
    power_moment,
)
from .duals import (
    DistanceReport,
    DualFamily,
    LowerBoundCertificate,
    distance,
    distance_sweep,
    dual_family,
    lower_bound_certificate,
    oracle_distance,
)
from .exponents import (
    ExponentSequence,
    explicit_exponents,
    exponents_from_json,
    exponents_to_json,
    power_exponents,
)
from .gram import (
    GramMatrix,
    gram,
    gram_inverse,
    gram_inverse_column,
    gram_inverse_diagonals,
    leading_section,
    leading_sections,
    solve_spd,
)
from .momentsolve import (
    ConvergenceCertificate,
    MomentData,
    build_moment_data,
    convergence_certificate,
    fit_growth,
    solve_moments,
)
from .operator import (
    EigenReport,
    MixedSystemReport,
    OperatorSpec,
    apply,
    diagonal_operator,
    dilation_operator,
    eigen_check,
    finite_sections,
    hereditary_check,
    hereditary_sweep,
)
from .precision import DEFAULT_PRECISION_BITS, fmt, to_mpf, workbits
from .series import (
    ConvergenceTable,
    MuntzSeries,
    TargetFunction,
    christoffel_remez,
    coefficient_convergence,
    evaluate,
    project,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
