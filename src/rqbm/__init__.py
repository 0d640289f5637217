"""Verification and fixed-point toolkit for rectangular quasi b-metric spaces.

The package checks the axioms of asymmetric generalized metric spaces on
concrete finite and analytic instances, validates candidate comparison
functions, certifies or falsifies contraction inequalities over exhaustive
or sampled pair sets, and runs the fixed-point iteration with the
convergence diagnostics the theory predicts.
"""

__version__ = "0.1.0"

from .expr import (
    EvalError,
    ExprError,
    ExprSyntaxError,
    evaluate,
    parse,
    to_source,
)
from .spaces import (
    AnalyticSpace,
    Classification,
    FiniteSpace,
    QuadrupleViolation,
    SpaceError,
    UnknownLabelError,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    load_space,
    dump_space,
    minimal_rectangular_coefficient,
    space_from_dict,
    space_to_dict,
)
from .thetaphi import (
    PhiSpec,
    ThetaSpec,
    builtin_phi,
    builtin_theta,
    iterate_phi,
    phi_spec,
    theta_spec,
    validate_phi,
    validate_theta,
)
from .contraction import (
    ContractionCertificate,
    MapError,
    MapRangeError,
    PairSet,
    SelfMap,
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)
from .solver import (
    PicardTrace,
    cauchy_diagnostics,
    limit_sandwich_check,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from .instances import (
    InstanceBundle,
    affine_toward,
    build_example_2_3,
    build_example_final,
    build_example_sqrt,
    get_instance,
    perturb,
    random_space,
)

__all__ = [
    "EvalError",
    "ExprError",
    "ExprSyntaxError",
    "evaluate",
    "parse",
    "to_source",
    "AnalyticSpace",
    "Classification",
    "FiniteSpace",
    "QuadrupleViolation",
    "SpaceError",
    "UnknownLabelError",
    "check_b_rectangular",
    "check_identity_axiom",
    "classify",
    "load_space",
    "dump_space",
    "minimal_rectangular_coefficient",
    "space_from_dict",
    "space_to_dict",
    "PhiSpec",
    "ThetaSpec",
    "builtin_phi",
    "builtin_theta",
    "iterate_phi",
    "phi_spec",
    "theta_spec",
    "validate_phi",
    "validate_theta",
    "ContractionCertificate",
    "MapError",
    "MapRangeError",
    "PairSet",
    "SelfMap",
    "best_exponent",
    "check_linear_contraction",
    "check_theta_contraction",
    "check_theta_phi_contraction",
    "pair_set",
    "PicardTrace",
    "cauchy_diagnostics",
    "limit_sandwich_check",
    "picard_iterate",
    "uniqueness_scan",
    "verify_fixed_point",
    "InstanceBundle",
    "affine_toward",
    "build_example_2_3",
    "build_example_final",
    "build_example_sqrt",
    "get_instance",
    "perturb",
    "random_space",
]
