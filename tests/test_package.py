from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import aggseek

ROOT = Path(__file__).resolve().parent.parent
SINGLE = ROOT / "scenarios" / "single_box.json"
LOADED = ["aggseek", "aggseek.cli", "aggseek.model"]  # by every command

# each public name under the submodule that defines it
HOMES = {
    "equilibrium": ["ConvergenceError", "EquilibriumResult", "VerificationReport", "aggregation_map",
                    "solve_equilibrium", "verify_equilibrium", "vi_gap"],
    "flow": ["IntegratorConfig", "NonFiniteStateError", "Trajectory", "integrate", "integrate_gains", "rhs",
             "stationarity_residual", "step"],
    "lyapunov": ["CertificateReport", "DecayReport", "check_condition_5", "compare_conditions", "decay_report",
                 "lyapunov_W", "reduced_lambda_min"],
    "model": ["GameSpec", "NumericalError", "ScenarioError", "SystemState", "initial_state", "load_scenario",
              "project_state", "pseudo_gradient_F", "splitmix64", "strictly_monotone"],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)
# the scalar object model of 0.1.0, now the test oracles in tests/oracles.py
MOVED = ["Ball", "Box", "ConvexSet", "QuadraticCost", "assemble_M", "best_response", "contains", "cost_J", "distance",
         "grad_f", "normal_project", "project", "set_center", "storage_inequality_check", "tangent_project"]


def test_loading_a_scenario_imports_only_model() -> None:
    code = (
        "import sys, aggseek; aggseek.load_scenario(open(sys.argv[1], encoding='utf-8').read()); "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'aggseek')))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SINGLE)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["aggseek", "aggseek.model"]


@pytest.mark.parametrize(
    "module, loaded",
    [
        # the rows, their kernels and the loader import no other layer
        ("model", ["aggseek", "aggseek.model"]),
        # the routes stay independent: neither loads the other
        ("flow", ["aggseek", "aggseek.flow", "aggseek.model"]),
        ("equilibrium", ["aggseek", "aggseek.equilibrium", "aggseek.model"]),
        # the certificate reads a trajectory's reference off the record, importing neither route
        ("lyapunov", ["aggseek", "aggseek.lyapunov", "aggseek.model"]),
    ],
    ids=["model", "flow", "equilibrium", "lyapunov"],
)
def test_each_module_imports_only_the_layers_below_it(module: str, loaded: list[str]) -> None:
    code = f"import sys, aggseek.{module}; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'aggseek'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == loaded


@pytest.mark.parametrize(
    "argv, routes",
    [
        (["check"], ["lyapunov"]),
        (["solve"], ["equilibrium"]),
        (["run", "--T", "0.1", "--h", "0.01"], ["equilibrium", "flow", "lyapunov"]),
        (["sweep", "--k", "0.5,2", "--T", "0.1", "--h", "0.01"], ["equilibrium", "flow", "lyapunov"]),
    ],
)
def test_each_command_imports_only_the_routes_it_calls(argv: list[str], routes: list[str]) -> None:
    code = (
        "import sys; from aggseek.cli import main; code = main(sys.argv[1:]); "
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'aggseek'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--scenario", str(SINGLE)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1].split() == ["0", *sorted(LOADED + [f"aggseek.{r}" for r in routes])]


def test_traced_cli_names_resolve_and_their_wrappers_run(monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    # the benchmark's tracer swaps its wrappers in for these names as attributes of aggseek.cli
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from aggseek import cli
    from spans import TARGETS

    names = [attr for module, attr, *_ in TARGETS if module == "aggseek.cli"]
    calls: list[str] = []
    for name in names:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    # run with --out calls each of them once
    assert cli.main(["run", "--scenario", str(SINGLE), "--T", "0.5", "--h", "0.01", "--out", str(tmp_path / "r")]) == 0
    assert sorted(calls) == sorted(names) and len(names) == 7


def test_all_lists_the_public_names_each_its_home_modules_object() -> None:
    assert len(PUBLIC) == 32 and aggseek.__all__ == PUBLIC and aggseek.__version__ == "0.6.0"
    assert 'version = "0.6.0"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    for name in MOVED:
        assert not hasattr(aggseek, name), name
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
    with pytest.raises(AttributeError, match="module 'aggseek.cli' has no attribute 'no_such_name'"):
        cli.no_such_name


def test_oracles_import_nothing_from_the_package() -> None:
    # the references the tests hold the package to share no code path with it
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "aggseek" or name == ""]
