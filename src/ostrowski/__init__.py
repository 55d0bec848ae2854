"""Position-dependent error bounds for function averages under s-convexity.

The package bounds |f(x) - average of f over [a, b]| from derivative data
for functions whose derivative magnitude (or a power of it) is s-convex in
the second sense, verifies every inequality against a brute-force
integration oracle, and turns the midpoint-rule error estimates into a
certified composite quadrature. A CLI (``ostrowski``) exposes all of it.
"""

from .core import (
    BoundResult,
    ConjugatePair,
    ConvergenceError,
    DomainError,
    EndpointData,
    Function1D,
    Interval,
    VerificationRecord,
    make_conjugate,
    validate_eval_point,
)
from .kernel import (
    HadamardBounds,
    alomari_bound,
    baseline_midpoint_bound,
    classic_ostrowski_bound,
    hadamard_sconvex_bounds,
    montgomery_kernel,
    verify_montgomery_identity,
)
from .bounds import (
    bound_holder_global,
    bound_holder_hadamard,
    bound_holder_split,
    bound_power_mean,
    bound_sconvex_abs,
    kernel_moment_bracket,
    midpoint_e5,
    midpoint_power_mean,
    midpoint_sconvex_abs,
)
from .toolkit import (
    BrecknerFunction,
    SConvexityReport,
    check_sconvex,
    make_breckner,
    parse_function_spec,
    reference_integrate,
    true_deviation,
)
from .means import (
    arithmetic_mean,
    logarithmic_mean,
    means_gap,
    means_gap_bound,
    p_logarithmic_mean,
    slope_endpoint_data,
)
from .quadrature import (
    Partition,
    QuadReport,
    certified_integrate,
    composite_midpoint,
    midpoint_error_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BrecknerFunction",
    "ConjugatePair",
    "ConvergenceError",
    "DomainError",
    "EndpointData",
    "Function1D",
    "HadamardBounds",
    "Interval",
    "Partition",
    "QuadReport",
    "SConvexityReport",
    "VerificationRecord",
    "alomari_bound",
    "arithmetic_mean",
    "baseline_midpoint_bound",
    "bound_holder_global",
    "bound_holder_hadamard",
    "bound_holder_split",
    "bound_power_mean",
    "bound_sconvex_abs",
    "certified_integrate",
    "check_sconvex",
    "classic_ostrowski_bound",
    "composite_midpoint",
    "hadamard_sconvex_bounds",
    "kernel_moment_bracket",
    "logarithmic_mean",
    "make_breckner",
    "make_conjugate",
    "means_gap",
    "means_gap_bound",
    "midpoint_e5",
    "midpoint_error_bound",
    "midpoint_power_mean",
    "midpoint_sconvex_abs",
    "montgomery_kernel",
    "p_logarithmic_mean",
    "parse_function_spec",
    "reference_integrate",
    "slope_endpoint_data",
    "true_deviation",
    "validate_eval_point",
    "verify_montgomery_identity",
]
