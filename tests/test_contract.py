"""The one array contract of every library entry point.

x is a flat array of N*n entries or an (N, n) one, and sigma, sigmabar one of n;
a mis-sized array, or an x of any other shape (transposed, say), raises
ValueError naming it; a flat x and an (N, n) x give the same bits. vi_gap
and rhs reject a decision outside its set, a non-finite one included, and a
game's rows and C reject non-finite data.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from aggseek.equilibrium import aggregation_map, solve_equilibrium, vi_gap
from aggseek.flow import IntegratorConfig, integrate, integrate_gains, rhs, stationarity_residual, step
from aggseek.lyapunov import lyapunov_W
from aggseek.model import GameSpec, SystemState, initial_state, load_scenario, project_state, pseudo_gradient_F

from helpers import load_agents
from oracles import Box, QuadraticCost

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAME = load_scenario((SCENARIOS / "mixed_sets.json").read_text(encoding="utf-8"))  # N = 3, n = 2: a box, two balls
REF = solve_equilibrium(GAME)
CFG = IntegratorConfig(h=1e-2, T=0.05)


def _carrying(integrated, ref):
    """integrated(ref), its trajectories checked to carry that very reference."""
    result = integrated(ref)
    assert all(traj.reference is ref for traj in (result if isinstance(result, list) else [result]))
    return result


def _entry_points(game: GameSpec) -> dict:
    """entry point: (its call on a dict of the arrays it is handed, those arrays by the name an error gives them)."""
    ref = solve_equilibrium(game)
    # halfway from the equilibrium to the set centers: inside every set, off the equilibrium
    state = {"state.x": 0.5 * (ref.xbar + game.layout.center), "state.sigma": ref.sigmabar - 0.02}
    reference = {"reference.xbar": ref.xbar, "reference.sigmabar": ref.sigmabar}
    as_state = lambda a: SystemState(a["state.x"], a["state.sigma"])
    as_ref = lambda a, at="reference": dataclasses.replace(ref, xbar=a[f"{at}.xbar"], sigmabar=a[f"{at}.sigmabar"])
    return {
        "pseudo_gradient_F": (lambda a: pseudo_gradient_F(game, a["x"]), {"x": ref.xbar}),
        "aggregation_map": (lambda a: aggregation_map(game, a["sigma"]), {"sigma": ref.sigmabar}),
        "vi_gap": (lambda a: vi_gap(game, a["x"]), {"x": ref.xbar}),
        "project_state": (lambda a: project_state(game, as_state(a)), state),
        "rhs": (lambda a: rhs(game, as_state(a)), state),
        "stationarity_residual": (lambda a: stationarity_residual(game, as_state(a)), state),
        "step": (lambda a: step(game, as_state(a), 1e-2), state),
        "integrate": (lambda a: _carrying(lambda r: integrate(game, as_state(a), CFG, r), as_ref(a)),
                      {**state, **reference}),
        "integrate_gains": (
            lambda a: _carrying(lambda r: integrate_gains(game, (0.5, 2.0), as_state(a), CFG, r), as_ref(a)),
            {**state, **reference}),
        "lyapunov_W": (lambda a: lyapunov_W(game, as_state(a), as_ref(a, "ref")),
                       {**state, "ref.xbar": ref.xbar, "ref.sigmabar": ref.sigmabar}),
    }


# on mixed_sets, and on single_box (N = n = 1): there an array one entry short is empty, and an empty
# array broadcasts against an axis of one entry
ENTRY_POINTS = {
    "mixed_sets": _entry_points(GAME),
    "single_box": _entry_points(load_scenario((SCENARIOS / "single_box.json").read_text(encoding="utf-8"))),
}
# mixed_sets' cases keep their ids of entry point and argument alone
_ID = lambda game, *names: "-".join(names if game == "mixed_sets" else (game, *names))
ENTRIES = [pytest.param(game, entry, id=_ID(game, entry)) for game, calls in ENTRY_POINTS.items() for entry in calls]
ARGUMENTS = [
    pytest.param(game, entry, name, id=_ID(game, entry, name))
    for game, calls in ENTRY_POINTS.items() for entry, (_, arrays) in calls.items() for name in arrays
]


def _leaves(result) -> list[np.ndarray]:
    """Every array in a result: a number, an array, a dataclass of them, or a sequence of those.

    A trajectory's reference is the record handed in, kept as it is, so of a trajectory only its own arrays count.
    """
    if isinstance(result, (list, tuple)):
        return [leaf for item in result for leaf in _leaves(item)]
    if dataclasses.is_dataclass(result):
        return _leaves([getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "reference"])
    return [np.asarray(result)]


@pytest.mark.parametrize("game, entry, name", ARGUMENTS)
@pytest.mark.parametrize("extra", [-1, 1])
def test_mis_sized_argument_is_named(game: str, entry: str, name: str, extra: int) -> None:
    call, arrays = ENTRY_POINTS[game][entry]
    good = arrays[name].ravel()
    # one entry short (a 1-entry sigma used to broadcast), or one too many
    bad = good[:extra] if extra < 0 else np.append(good, 0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} has {bad.size} entries, expected shape"):
        call({**arrays, name: bad})


# every decision array of mixed_sets, where N = 3 and n = 2 differ, so its transpose has the right size
TRANSPOSED = [pytest.param(entry, name, id=f"{entry}-{name}")
              for entry, (_, arrays) in ENTRY_POINTS["mixed_sets"].items() for name, a in arrays.items() if a.ndim == 2]


@pytest.mark.parametrize("entry, name", TRANSPOSED)
def test_transposed_decision_array_is_named(entry: str, name: str) -> None:
    call, arrays = ENTRY_POINTS["mixed_sets"][entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} has shape \(2, 3\), expected shape \(3, 2\)$"):
        call({**arrays, name: arrays[name].T})


@pytest.mark.parametrize("game, entry", ENTRIES)
def test_flat_and_stacked_arrays_give_the_same_bits(game: str, entry: str) -> None:
    call, arrays = ENTRY_POINTS[game][entry]
    stacked, flat = _leaves(call(arrays)), _leaves(call({name: a.ravel() for name, a in arrays.items()}))
    assert [(a.shape, a.tobytes()) for a in flat] == [(a.shape, a.tobytes()) for a in stacked]


def test_one_entry_sigmabar_is_not_broadcast() -> None:
    init = initial_state(GAME)
    traj = integrate(GAME, init, CFG, reference=REF)
    assert traj.W[0] == lyapunov_W(GAME, init, REF) == pytest.approx(0.20501, abs=5e-6)
    short = dataclasses.replace(REF, sigmabar=REF.sigmabar[:1])
    with pytest.raises(ValueError, match=r"^reference\.sigmabar has 1 entries, expected shape \(2,\)$"):
        integrate(GAME, init, CFG, reference=short)
    with pytest.raises(ValueError, match=r"^ref\.sigmabar has 1 entries, expected shape \(2,\)$"):
        lyapunov_W(GAME, init, short)


def test_array_records_compare_by_identity() -> None:
    # N = 3: a generated __eq__ would compare arrays of three rows and raise, a generated __hash__ too
    traj = integrate(GAME, initial_state(GAME), CFG, reference=REF)
    for record in (GAME.layout, GAME, initial_state(GAME), REF, traj):
        twin = dataclasses.replace(record)
        assert hash(record) == hash(record) and record == record
        assert (record == twin) is False and record != twin


def test_vi_checks_share_one_membership_rule() -> None:
    # xstar = 5 outside the box [0, 1], at x = 3: no feasible direction is checked, so the gap alone reads 0
    game = load_agents(np.zeros((1, 1)), 1.0, [(QuadraticCost(1.0, [5.0], [0.0]), Box([0.0], [1.0]))])
    with pytest.raises(ValueError, match="^agent 0 decision lies outside its set$"):
        vi_gap(game, np.array([[3.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_decision_lies_outside_its_set(value: float) -> None:
    x = initial_state(GAME).x
    for agent in range(GAME.N):  # the box row and both ball rows
        poisoned = x.copy()
        poisoned[agent, 1] = value
        with pytest.raises(ValueError, match=f"^agent {agent} decision lies outside its set$"):
            vi_gap(GAME, poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rhs_rejects_a_non_finite_point(value: float) -> None:
    # an infinite coordinate projects to NaN without a warning, so the membership check names it
    x = initial_state(GAME).x.copy()
    x[1, 0] = value  # a ball row
    with pytest.raises(ValueError, match="^agent 1 decision lies outside its set$"):
        rhs(GAME, SystemState(x, REF.sigmabar))


def _poisoned(name: str, index, value: float):
    """GAME's layout with one entry of the row array name set to value."""
    rows = getattr(GAME.layout, name).copy()
    rows[index] = value
    return dataclasses.replace(GAME.layout, **{name: rows})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: _poisoned("lo", (0, 0), v), "agent 0: box bounds must be finite"),
        (lambda v: _poisoned("hi", (0, 1), -v), "agent 0: box bounds must be finite"),
        (lambda v: _poisoned("center", (1, 1), v), "agent 1: set center must be finite"),
        (lambda v: _poisoned("ell", 1, v), "agent 1: ell must be positive and finite"),
        (lambda v: _poisoned("xstar", (1, 0), v), "agent 1: xstar must be finite"),
        (lambda v: _poisoned("linear", (1, 0), -v), "agent 1: linear must be finite"),
        (lambda v: dataclasses.replace(GAME, C=np.array([[0.2, v], [0.0, 0.15]])), "C must be finite"),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_constructors_reject_non_finite_data(build, message: str, value: float) -> None:
    with pytest.raises(ValueError, match=f"^{message}"):
        build(value)
