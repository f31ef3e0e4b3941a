"""The one array contract of every library entry point.

x is any array of N*n entries and sigma, sigmabar any of n; a mis-sized array
raises ValueError naming it; a flat x and an (N, n) x give the same bits. The
VI checks reject a decision outside its set, a non-finite one included, and the
set and cost constructors reject non-finite data.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from aggseek.equilibrium import aggregation_map, best_response, solve_equilibrium, verify_equilibrium, vi_gap
from aggseek.flow import IntegratorConfig, integrate, integrate_gains, rhs, step
from aggseek.geometry import Ball, Box, SetRows, distance, normal_project, project, tangent_project
from aggseek.lyapunov import lyapunov_W, storage_inequality_check
from aggseek.model import (
    GameSpec,
    QuadraticCost,
    SystemState,
    cost_J,
    grad_f,
    initial_state,
    load_scenario,
    local_f,
    project_state,
    pseudo_gradient_F,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAME = load_scenario((SCENARIOS / "mixed_sets.json").read_text(encoding="utf-8"))  # N = 3, n = 2
REF = solve_equilibrium(GAME)
COST, BALL = GAME.agents[1]
CFG = IntegratorConfig(h=1e-2, T=0.05)


def _state(a: dict) -> SystemState:
    return SystemState(a["state.x"], a["state.sigma"])


def _ref(a: dict, name: str = "ref"):
    return dataclasses.replace(REF, xbar=a[f"{name}.xbar"], sigmabar=a[f"{name}.sigmabar"])


STATE = {"state.x": REF.xbar + 0.01, "state.sigma": REF.sigmabar - 0.02}
REFERENCE = {"reference.xbar": REF.xbar, "reference.sigmabar": REF.sigmabar}

# entry point: (its call on a dict of the arrays it is handed, those arrays by the name an error gives them)
ENTRY_POINTS = {
    "project": (lambda a: project(BALL, a["y"]), {"y": np.array([2.0, 0.5])}),
    "distance": (lambda a: distance(BALL, a["y"]), {"y": np.array([2.0, 0.5])}),
    "tangent_project": (lambda a: tangent_project(BALL, a["x"], a["v"]), {"x": np.array([0.9, 0.5]), "v": np.ones(2)}),
    "normal_project": (lambda a: normal_project(BALL, a["x"], a["v"]), {"x": np.array([0.9, 0.5]), "v": np.ones(2)}),
    "grad_f": (lambda a: grad_f(COST, a["x"]), {"x": REF.xbar[1]}),
    "local_f": (lambda a: local_f(COST, a["x"]), {"x": REF.xbar[1]}),
    "cost_J": (lambda a: cost_J(GAME, 1, a["x"], a["sigma"]), {"x": REF.xbar[1], "sigma": REF.sigmabar}),
    "pseudo_gradient_F": (lambda a: pseudo_gradient_F(GAME, a["x"]), {"x": REF.xbar}),
    "best_response": (lambda a: best_response(GAME, 1, a["sigma"]), {"sigma": REF.sigmabar}),
    "aggregation_map": (lambda a: aggregation_map(GAME, a["sigma"]), {"sigma": REF.sigmabar}),
    "vi_gap": (lambda a: vi_gap(GAME, a["x"]), {"x": REF.xbar}),
    "verify_equilibrium": (lambda a: verify_equilibrium(GAME, a["x"], 1e-6), {"x": REF.xbar}),
    "project_state": (lambda a: project_state(GAME, _state(a)), STATE),
    "rhs": (lambda a: rhs(GAME, _state(a)), STATE),
    "step": (lambda a: step(GAME, _state(a), 1e-2), STATE),
    "integrate": (lambda a: integrate(GAME, _state(a), CFG, _ref(a, "reference")), {**STATE, **REFERENCE}),
    "integrate_gains": (
        lambda a: integrate_gains(GAME, (0.5, 2.0), _state(a), CFG, _ref(a, "reference")), {**STATE, **REFERENCE}),
    # handed no game, lyapunov_W reads n from ref.sigmabar and N from the size of ref.xbar
    "lyapunov_W": (lambda a: lyapunov_W(_state(a), REF), STATE),
    "storage_inequality_check": (
        lambda a: storage_inequality_check(GAME, _state(a), a["u"], _ref(a)),
        {**STATE, "u": np.full((3, 2), 0.3), "ref.xbar": REF.xbar, "ref.sigmabar": REF.sigmabar}),
}
ARGUMENTS = [(entry, name) for entry, (_, arrays) in ENTRY_POINTS.items() for name in arrays]
VI_CHECKS = (vi_gap, lambda game, x: verify_equilibrium(game, x, tol=1e-6))


def _leaves(result) -> list[np.ndarray]:
    """Every array in a result: a number, an array, a dataclass of them, or a sequence of those."""
    if isinstance(result, (list, tuple)):
        return [leaf for item in result for leaf in _leaves(item)]
    if dataclasses.is_dataclass(result):
        return _leaves([getattr(result, f.name) for f in dataclasses.fields(result)])
    return [np.asarray(result)]


@pytest.mark.parametrize("entry, name", ARGUMENTS)
@pytest.mark.parametrize("extra", [-1, 1])
def test_mis_sized_argument_is_named(entry: str, name: str, extra: int) -> None:
    call, arrays = ENTRY_POINTS[entry]
    good = arrays[name].ravel()
    # one entry short (a 1-entry sigma used to broadcast), or one too many
    bad = good[:extra] if extra < 0 else np.append(good, 0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} has {bad.size} entries, expected shape"):
        call({**arrays, name: bad})


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_flat_and_stacked_arrays_give_the_same_bits(entry: str) -> None:
    call, arrays = ENTRY_POINTS[entry]
    stacked, flat = _leaves(call(arrays)), _leaves(call({name: a.ravel() for name, a in arrays.items()}))
    assert [(a.shape, a.tobytes()) for a in flat] == [(a.shape, a.tobytes()) for a in stacked]


def test_one_entry_sigmabar_is_not_broadcast() -> None:
    init = initial_state(GAME)
    traj = integrate(GAME, init, CFG, reference=REF)
    assert traj.W[0] == lyapunov_W(init, REF) == pytest.approx(0.20501, abs=5e-6)
    with pytest.raises(ValueError, match=r"^reference\.sigmabar has 1 entries, expected shape \(2,\)$"):
        integrate(GAME, init, CFG, reference=dataclasses.replace(REF, sigmabar=REF.sigmabar[:1]))

    # handed no game, lyapunov_W cannot tell which of the two is mis-sized, so it names both
    message = r"^state\.sigma has {} entries, expected shape \({},\) as ref\.sigmabar has {} entries$"
    with pytest.raises(ValueError, match=message.format(1, 2, 2)):
        lyapunov_W(SystemState(init.x, init.sigma[:1]), REF)
    with pytest.raises(ValueError, match=message.format(2, 1, 1)):
        lyapunov_W(init, dataclasses.replace(REF, sigmabar=REF.sigmabar[:1]))


def test_array_records_compare_by_identity() -> None:
    # N = 3: a generated __eq__ would compare arrays of three rows and raise, a generated __hash__ too
    lay = GAME.layout
    rows = SetRows(lay.lo, lay.hi, lay.center, lay.radius)
    traj = integrate(GAME, initial_state(GAME), CFG, reference=REF)
    for record in (rows, GAME.layout, GAME, initial_state(GAME), REF, traj):
        twin = dataclasses.replace(record)
        assert hash(record) == hash(record) and record == record
        assert (record == twin) is False and record != twin


def test_vi_checks_share_one_membership_rule() -> None:
    # xstar = 5 outside the box [0, 1], at x = 3: no feasible direction is checked, so the gap alone reads 0
    game = GameSpec.from_agents(np.zeros((1, 1)), 1.0, ((QuadraticCost(1.0, [5.0], [0.0]), Box([0.0], [1.0])),))
    for check in VI_CHECKS:
        with pytest.raises(ValueError, match="^agent 0 decision lies outside its set$"):
            check(game, np.array([[3.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_decision_lies_outside_its_set(value: float) -> None:
    x = initial_state(GAME).x
    for agent in range(GAME.N):  # the box row and both ball rows
        poisoned = x.copy()
        poisoned[agent, 1] = value
        for check in VI_CHECKS:
            with pytest.raises(ValueError, match=f"^agent {agent} decision lies outside its set$"):
                check(GAME, poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tangent_project_rejects_a_non_finite_point(value: float) -> None:
    # an infinite coordinate projects to NaN without a warning, so the membership check names it
    with pytest.raises(ValueError, match="^point lies outside the set"):
        tangent_project(BALL, np.array([value, 0.5]), np.ones(2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: Box([v, 0.0], [1.0, 1.0]), "box bounds must be finite"),
        (lambda v: Box([0.0, 0.0], [1.0, -v]), "box bounds must be finite"),
        (lambda v: Ball([0.0, v], 1.0), "set center must be finite"),
        (lambda v: QuadraticCost(v, [0.0], [0.0]), "ell must be positive and finite"),
        (lambda v: QuadraticCost(1.0, [v], [0.0]), "xstar must be finite"),
        (lambda v: QuadraticCost(1.0, [0.0], [-v]), "linear must be finite"),
        (lambda v: dataclasses.replace(GAME, C=np.array([[0.2, v], [0.0, 0.15]])), "C must be finite"),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_constructors_reject_non_finite_data(build, message: str, value: float) -> None:
    with pytest.raises(ValueError, match=f"^{message}"):
        build(value)
