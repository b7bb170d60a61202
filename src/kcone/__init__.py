"""Numerical laboratory for cone orders of rank k on ODE flows.

The package answers three kinds of question about a vector field, smooth
or piecewise linear, on a box or cylinder domain:

* does the flow contract a quadratic cone order at some rate lambda
  (sampled, uniform-gap, exact-linear, and feedback-ring certificates);
* what does the long-run behavior of a single orbit look like through
  the lens of that order (orbit classes, limit-set estimates, ordering
  audits, a three-way structural sort);
* when the cone has rank 2, is the limit set a periodic loop (closed-loop
  detection, chain recurrence, plane-projection diagnostics).

Scenario files (JSON) drive the `kcone` command line tool, which writes
deterministic reports and CSV plot data.
"""

from ._version import __version__
from .errors import (
    AllPairsDegenerate,
    ArityMismatch,
    BadParameter,
    DegenerateRank,
    DimensionMismatch,
    DomainExit,
    DomainViolation,
    EmptyDomain,
    ExpressionSyntaxError,
    IdenticalPoints,
    IntegrationFailure,
    IoError,
    KconeError,
    NearSingular,
    NoConvergence,
    NodeBudgetExceeded,
    NonFiniteDerivative,
    NonFiniteState,
    NotConverged,
    NotSymmetric,
    RankNotTwo,
    SchemaError,
    StepUnderflow,
    TooFewPoints,
    TrajectoryTooShort,
    UnknownIdentifier,
)
from .linalg import require_symmetric, sym_eig
from .cones import (
    Cone,
    ConvexUnionCone,
    OrderClass,
    OrderRelation,
    OrthantComplementCone,
    Projector,
    QuadraticCone,
    make_orthant_complement_cone,
    make_orthant_union_cone,
    make_projector,
    make_quadratic_cone,
    relate,
)
from .expressions import parse_expression
from .domains import Box, Cylinder, Domain
from .fields import (
    EquilibriaResult,
    Equilibrium,
    VectorField,
    default_equilibrium_seeds,
    fd_jacobian,
    find_equilibria,
    make_competitive_lv,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)
from .integrators import Trajectory, integrate, integrate_backward
from .certify import (
    ConditionReport,
    DecayAudit,
    certify_linear,
    certify_sampled,
    certify_smith,
    check_cyclic_feedback,
    decay_audit,
    lambda_grid_search,
    ordered_pair_transport,
    pair_margin,
)
from .limitsets import (
    ChainResult,
    LimitSetBranch,
    OmegaEstimate,
    OrbitClass,
    OrbitClassification,
    OrderingAudit,
    PeriodicOrbit,
    TrichotomyReport,
    audit_ordering,
    chain_check,
    classify_orbit,
    detect_periodic,
    estimate_omega,
    ordered_pair_matrix,
    projection_separation,
    trichotomy_report,
)
from .scenario import (
    ANALYSIS_DEFAULTS,
    SCENARIO_SCHEMA,
    Scenario,
    canonical_json,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from .report import (
    REPORT_SCHEMA,
    build_full_report,
    dump_report,
    emit_plotdata,
    run_certify,
    run_classify,
    wrap_report,
    write_loop_csv,
    write_margins_csv,
    write_omega_csv,
    write_report,
    write_trajectory_csv,
)

__all__ = [
    "__version__",
    # errors
    "KconeError", "BadParameter", "DimensionMismatch", "NotSymmetric",
    "NearSingular", "DegenerateRank", "NoConvergence", "IdenticalPoints",
    "DomainViolation", "EmptyDomain", "AllPairsDegenerate",
    "NonFiniteDerivative", "IntegrationFailure", "StepUnderflow",
    "NonFiniteState", "NodeBudgetExceeded", "DomainExit", "ExpressionSyntaxError",
    "UnknownIdentifier", "ArityMismatch", "TrajectoryTooShort",
    "TooFewPoints", "RankNotTwo", "NotConverged", "SchemaError", "IoError",
    # linear algebra
    "require_symmetric", "sym_eig",
    # cones and order relations
    "Cone", "QuadraticCone", "OrthantComplementCone", "ConvexUnionCone",
    "OrderClass", "OrderRelation", "Projector", "make_quadratic_cone",
    "make_orthant_complement_cone", "make_orthant_union_cone",
    "make_projector", "relate",
    # expression parsing, domains, fields
    "parse_expression", "Box", "Cylinder", "Domain",
    "VectorField", "make_linear_field", "make_hopf_cylinder",
    "make_cyclic_feedback", "make_competitive_lv", "parse_field",
    "fd_jacobian", "Equilibrium", "EquilibriaResult", "find_equilibria",
    "default_equilibrium_seeds",
    # integration
    "Trajectory", "integrate", "integrate_backward",
    # certificates
    "ConditionReport", "DecayAudit", "pair_margin", "certify_sampled",
    "certify_smith", "certify_linear", "check_cyclic_feedback",
    "lambda_grid_search", "decay_audit", "ordered_pair_transport",
    # limit sets
    "OmegaEstimate", "estimate_omega", "OrbitClass",
    "OrbitClassification", "classify_orbit", "OrderingAudit",
    "audit_ordering", "ordered_pair_matrix", "LimitSetBranch",
    "TrichotomyReport", "trichotomy_report", "PeriodicOrbit",
    "detect_periodic", "projection_separation", "ChainResult",
    "chain_check",
    # scenarios and reports
    "Scenario", "parse_scenario", "load_scenario", "scenario_digest",
    "canonical_json", "SCENARIO_SCHEMA", "ANALYSIS_DEFAULTS",
    "REPORT_SCHEMA", "run_certify", "run_classify", "build_full_report",
    "wrap_report", "dump_report", "write_report", "emit_plotdata",
    "write_trajectory_csv", "write_omega_csv", "write_loop_csv",
    "write_margins_csv",
]
