"""Worst-case impact assessment of stealthy attacks on stochastic control loops.

The pipeline: model the closed loop (plant, steady-state estimator, feedback),
rewrite an attack strategy as routing and injection matrices, stack the
attacked dynamics into Gaussian laws for the critical states and detection
residuals, and maximize each critical mean under the stealthiness budget to
bound the exceedance probability and the expected worst excursion.
"""

from .attacks import (
    AttackMatrices,
    Candidate,
    DecisionLayout,
    EmptyResources,
    EnumerationCapExceeded,
    InvalidPermutation,
    KINDS,
    ResourceSet,
    StrategySpec,
    build_attack,
    candidates,
    decision_layout,
)
from .cli import AssessmentEntry, assess, main
from .distrib import (
    GaussianSummary,
    gaussian_summary,
    stack_dynamics,
    stationary_law,
    summarize,
)
from .mcvalidate import (
    EmpiricalSummary,
    KlCheckResult,
    SimulationConfig,
    kl_verdict,
    simulate,
)
from .numcore import (
    DegenerateVariance,
    NonConvergence,
    NotPositiveDefinite,
    UnstableClosedLoop,
    UnstableMatrix,
    gaussian_exceed,
    kalman_gain,
    solve_dare,
    solve_lyapunov,
)
from .scenario import (
    DimensionError,
    ParseError,
    Scenario,
    SchemaError,
    bundled_scenario_path,
    load_scenario,
)
from .solver import (
    ImpactCurve,
    ImpactReport,
    Infeasible,
    NumericalFailure,
    PatternCapExceeded,
    compute_impact,
)
from .sysmodel import (
    ControllerModel,
    DimensionMismatch,
    EstimatorModel,
    ExtendedSystem,
    PlantModel,
    SystemModel,
    assemble_extended,
    build_estimator,
)

__version__ = "0.1.0"

__all__ = [
    "AttackMatrices",
    "AssessmentEntry",
    "Candidate",
    "ControllerModel",
    "DecisionLayout",
    "DegenerateVariance",
    "DimensionError",
    "DimensionMismatch",
    "EmpiricalSummary",
    "EmptyResources",
    "EnumerationCapExceeded",
    "EstimatorModel",
    "ExtendedSystem",
    "GaussianSummary",
    "ImpactCurve",
    "ImpactReport",
    "Infeasible",
    "InvalidPermutation",
    "KINDS",
    "KlCheckResult",
    "NonConvergence",
    "NotPositiveDefinite",
    "NumericalFailure",
    "ParseError",
    "PatternCapExceeded",
    "PlantModel",
    "ResourceSet",
    "Scenario",
    "SchemaError",
    "SimulationConfig",
    "StrategySpec",
    "SystemModel",
    "UnstableClosedLoop",
    "UnstableMatrix",
    "assemble_extended",
    "assess",
    "build_attack",
    "build_estimator",
    "bundled_scenario_path",
    "candidates",
    "compute_impact",
    "decision_layout",
    "gaussian_exceed",
    "gaussian_summary",
    "kalman_gain",
    "kl_verdict",
    "load_scenario",
    "main",
    "simulate",
    "solve_dare",
    "solve_lyapunov",
    "stack_dynamics",
    "stationary_law",
    "summarize",
]
