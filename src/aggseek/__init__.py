"""Equilibrium seeking and convergence certificates for aggregative games.

Agents hold private strongly convex quadratic costs coupled through the
population average of their decisions. The package integrates the projected
integral dynamics that steer the population to equilibrium, computes the same
equilibrium independently by fixed-point iteration, verifies it through the
variational-inequality characterization, and evaluates eigenvalue-based
exponential-decay certificates along trajectories.

Each public name is imported from its submodule on first use (PEP 562), so
loading a scenario runs only `model`.
"""

__version__ = "0.7.0"

_EXPORTS = {
    "equilibrium": ("ConvergenceError", "EquilibriumResult", "VerificationReport", "aggregation_map",
                    "solve_equilibrium", "verify_equilibrium", "vi_gap"),
    "flow": ("IntegratorConfig", "NonFiniteStateError", "Trajectory", "integrate", "integrate_gains", "rhs",
             "stationarity_residual", "step"),
    "lyapunov": ("CertificateReport", "DecayReport", "check_condition_5", "compare_conditions", "decay_report",
                 "lyapunov_W", "reduced_lambda_min"),
    "model": ("GameSpec", "NumericalError", "ScenarioError", "SystemState", "initial_state", "load_scenario",
              "project_state", "pseudo_gradient_F", "splitmix64", "strictly_monotone"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module, is logged by python -X importtime
    value = globals()[name] = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
