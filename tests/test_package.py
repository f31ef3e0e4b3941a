from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import aggseek

SINGLE = Path(__file__).resolve().parent.parent / "scenarios" / "single_box.json"

# each public name under the submodule that defines it
HOMES = {
    "equilibrium": ["ConvergenceError", "EquilibriumResult", "VerificationReport", "aggregation_map", "best_response",
                    "solve_equilibrium", "strictly_monotone", "verify_equilibrium", "vi_gap"],
    "flow": ["IntegratorConfig", "NonFiniteStateError", "Trajectory", "integrate", "integrate_gains", "rhs",
             "stationarity_residual", "step"],
    "geometry": ["Ball", "Box", "ConvexSet", "contains", "distance", "normal_project", "project", "set_center",
                 "tangent_project"],
    "lyapunov": ["CertificateReport", "DecayReport", "assemble_M", "check_condition_5", "compare_conditions",
                 "decay_report", "lyapunov_W", "norm_inf", "reduced_lambda_min", "storage_inequality_check"],
    "model": ["GameSpec", "QuadraticCost", "ScenarioError", "SystemState", "cost_J", "grad_f", "initial_state",
              "load_scenario", "project_state", "pseudo_gradient_F", "splitmix64"],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)


def test_loading_a_scenario_imports_only_model_and_geometry() -> None:
    code = (
        "import sys, aggseek; aggseek.load_scenario(open(sys.argv[1], encoding='utf-8').read()); "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'aggseek')))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SINGLE)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["aggseek", "aggseek.geometry", "aggseek.model"]


def test_all_lists_the_public_names_each_its_home_modules_object() -> None:
    assert len(PUBLIC) == 47 and aggseek.__all__ == PUBLIC and aggseek.__version__ == "0.1.0"
    for home, names in HOMES.items():
        module = importlib.import_module(f"aggseek.{home}")
        for name in names:
            assert getattr(aggseek, name) is getattr(module, name), name


def test_star_import_and_dir_cover_every_name() -> None:
    scope: dict = {}
    exec("from aggseek import *", scope)
    assert set(PUBLIC) <= scope.keys() and set(PUBLIC) <= set(dir(aggseek))
    assert all(scope[name] is getattr(aggseek, name) for name in PUBLIC)


def test_submodules_import_and_unknown_names_raise() -> None:
    from aggseek import cli, flow

    assert cli.__name__ == "aggseek.cli" and flow.__name__ == "aggseek.flow"
    with pytest.raises(AttributeError, match="module 'aggseek' has no attribute 'no_such_name'"):
        aggseek.no_such_name
