"""Equilibrium seeking and convergence certificates for aggregative games.

Agents hold private strongly convex quadratic costs coupled through the
population average of their decisions. The package integrates the projected
integral dynamics that steer the population to equilibrium, computes the same
equilibrium independently by fixed-point iteration, verifies it through the
variational-inequality characterization, and evaluates eigenvalue-based
exponential-decay certificates along trajectories.
"""

from .equilibrium import (
    ConvergenceError,
    EquilibriumResult,
    VerificationReport,
    aggregation_map,
    best_response,
    solve_equilibrium,
    strictly_monotone,
    verify_equilibrium,
    vi_gap,
)
from .flow import (
    IntegratorConfig,
    NonFiniteStateError,
    Trajectory,
    integrate,
    integrate_gains,
    rhs,
    stationarity_residual,
    step,
)
from .geometry import (
    Ball,
    Box,
    ConvexSet,
    contains,
    distance,
    normal_project,
    project,
    set_center,
    tangent_project,
)
from .lyapunov import (
    CertificateReport,
    DecayReport,
    assemble_M,
    check_condition_5,
    compare_conditions,
    decay_report,
    lyapunov_W,
    norm_inf,
    reduced_lambda_min,
    storage_inequality_check,
)
from .model import (
    GameSpec,
    QuadraticCost,
    ScenarioError,
    SystemState,
    cost_J,
    grad_f,
    initial_state,
    load_scenario,
    project_state,
    pseudo_gradient_F,
    splitmix64,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "CertificateReport",
    "ConvergenceError",
    "ConvexSet",
    "DecayReport",
    "EquilibriumResult",
    "GameSpec",
    "IntegratorConfig",
    "NonFiniteStateError",
    "QuadraticCost",
    "ScenarioError",
    "SystemState",
    "Trajectory",
    "VerificationReport",
    "aggregation_map",
    "assemble_M",
    "best_response",
    "check_condition_5",
    "compare_conditions",
    "contains",
    "cost_J",
    "decay_report",
    "distance",
    "grad_f",
    "initial_state",
    "integrate",
    "integrate_gains",
    "load_scenario",
    "lyapunov_W",
    "norm_inf",
    "normal_project",
    "project",
    "project_state",
    "pseudo_gradient_F",
    "reduced_lambda_min",
    "rhs",
    "set_center",
    "solve_equilibrium",
    "splitmix64",
    "stationarity_residual",
    "step",
    "storage_inequality_check",
    "strictly_monotone",
    "tangent_project",
    "verify_equilibrium",
    "vi_gap",
]
