"""Metric projections onto convex sets in finite-dimensional ℓ_p spaces.

The package computes projections with variational certificates, their
one-sided directional derivatives (closed forms where available, audited
numerics elsewhere), empirical moduli of convexity and smoothness, and
Cauchy-rate diagnostics for quotient limits.  `banachproj` on the command
line exposes the same operations behind JSON configs.
"""
from .derivative import (
    BoundaryClass,
    DerivativeResult,
    classify_sphere_direction,
    directional_derivative,
    interior_derivative,
)
from .moduli import (
    BoundReport,
    ModuliEstimate,
    PowerFit,
    distance_bound_check,
    estimate_convexity_modulus,
    estimate_smoothness_modulus,
    fit_power_type,
)
from .numdiff import (
    ConvergenceError,
    NumericDerivative,
    RateReport,
    StepSchedule,
    cauchy_rate_probe,
    numdiff_derivative,
)
from .sets import (
    Ball,
    CoordinateSubspace,
    InfeasibleSetError,
    PointClass,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    classify_point,
    cone_translation_check,
    contains,
    descriptor_from_json,
    descriptor_to_json,
    dual_cone_residual,
    inverse_image_ray_check,
    orthogonal_cone_residual,
    support,
)
from .solver import (
    CERT_TOL,
    MAX_ITER,
    ProjectionCertificate,
    project,
    project_with_certificate,
)
from .space import LpSpace
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "LpSpace",
    "Ball",
    "PositiveCone",
    "CoordinateSubspace",
    "PolytopeH",
    "PolytopeV",
    "Segment",
    "Ray",
    "Singleton",
    "PointClass",
    "InfeasibleSetError",
    "contains",
    "support",
    "classify_point",
    "descriptor_to_json",
    "descriptor_from_json",
    "orthogonal_cone_residual",
    "inverse_image_ray_check",
    "cone_translation_check",
    "dual_cone_residual",
    "project",
    "project_with_certificate",
    "CERT_TOL",
    "MAX_ITER",
    "ProjectionCertificate",
    "interior_derivative",
    "directional_derivative",
    "classify_sphere_direction",
    "BoundaryClass",
    "DerivativeResult",
    "StepSchedule",
    "NumericDerivative",
    "RateReport",
    "ConvergenceError",
    "numdiff_derivative",
    "cauchy_rate_probe",
    "ModuliEstimate",
    "PowerFit",
    "BoundReport",
    "estimate_convexity_modulus",
    "estimate_smoothness_modulus",
    "fit_power_type",
    "distance_bound_check",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "__version__",
]
