from __future__ import annotations

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from aggseek.equilibrium import EquilibriumResult, solve_equilibrium
from aggseek.flow import (
    IntegratorConfig,
    NonFiniteStateError,
    Trajectory,
    integrate,
    integrate_gains,
    rhs,
    stationarity_residual,
    step,
)
from aggseek.model import GameSpec, SystemState, initial_state, load_scenario, project_state

from helpers import demand_response_game, load_agents, single_agent_game
from oracles import Ball, QuadraticCost, agents_of, contains

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mixed_game() -> GameSpec:
    return load_scenario((SCENARIOS / "mixed_sets.json").read_text())


def test_rhs_interior_point() -> None:
    game = single_agent_game()
    xdot, sigmadot = rhs(game, SystemState(x=np.array([[0.5]]), sigma=np.array([0.5])))
    assert xdot == pytest.approx(np.array([[-0.85]]))
    assert sigmadot == pytest.approx([0.0])


def test_rhs_vanishes_at_equilibrium() -> None:
    game = single_agent_game()
    xdot, sigmadot = rhs(game, SystemState(x=np.array([[0.25]]), sigma=np.array([0.25])))
    assert xdot == pytest.approx(np.array([[0.0]]), abs=0.0)
    assert sigmadot == pytest.approx([0.0], abs=0.0)


def test_rhs_ball_boundary_keeps_tangential_part() -> None:
    # drive (1, 1) at boundary point (1, 0): outward radial part removed
    cost = QuadraticCost(1.0, np.array([2.0, 1.0]), np.zeros(2))
    ball = Ball(np.zeros(2), 1.0)
    game = load_agents(np.zeros((2, 2)), 2.0, [(cost, ball)])
    state = SystemState(x=np.array([[1.0, 0.0]]), sigma=np.zeros(2))
    xdot, sigmadot = rhs(game, state)
    assert xdot == pytest.approx(np.array([[0.0, 1.0]]))
    assert sigmadot == pytest.approx([2.0, 0.0])


def test_step_interior_euler_update() -> None:
    game = single_agent_game()
    nxt = step(game, SystemState(x=np.array([[0.5]]), sigma=np.array([0.5])), h=0.01)
    assert nxt.x == pytest.approx(np.array([[0.4915]]))
    assert nxt.sigma == pytest.approx([0.5])


def test_step_fixes_equilibrium_for_any_step_size() -> None:
    game = single_agent_game()
    eq = SystemState(x=np.array([[0.25]]), sigma=np.array([0.25]))
    for h in (1e-3, 0.1, 1.0):
        nxt = step(game, eq, h)
        assert nxt.x == pytest.approx(np.array([[0.25]]), abs=0.0)
        assert nxt.sigma == pytest.approx([0.25], abs=0.0)


def test_step_zero_length_is_identity() -> None:
    game = mixed_game()
    state = project_state(game, SystemState(x=np.full((3, 2), 0.4), sigma=np.array([0.1, 0.9])))
    nxt = step(game, state, h=0.0)
    assert np.array_equal(nxt.x, state.x)
    assert np.array_equal(nxt.sigma, state.sigma)
    # a start outside its sets (agent 0 moved 100 out) is projected onto them
    outside = SystemState(x=state.x + [[100.0, 0.0], [0.0, 0.0], [0.0, 0.0]], sigma=state.sigma)
    nxt, projected = step(game, outside, h=0.0), project_state(game, outside)
    assert np.array_equal(nxt.x, projected.x) and not np.array_equal(nxt.x, outside.x)
    assert np.array_equal(nxt.sigma, projected.sigma)


@pytest.mark.parametrize(("h", "sigma"), [(1e300, None), (0.01, np.array([np.inf, 0.0]))])
def test_step_emits_no_warning_where_the_state_leaves_the_finite_numbers(h: float, sigma) -> None:
    # the time loop's errstate: a step of 1e300 overflows a ball row's norm, an infinite sigma meets
    # a zero of C in C sigma; step, one iteration of that loop, returns what it computes quietly
    game = mixed_game()
    start = initial_state(game)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nxt = step(game, SystemState(start.x, start.sigma if sigma is None else sigma), h)
    assert np.isfinite(nxt.x).all() if sigma is None else not np.isfinite(nxt.sigma).all()


@pytest.mark.parametrize("velocity", [rhs, stationarity_residual])
def test_rhs_emits_no_warning_where_the_state_leaves_the_finite_numbers(velocity) -> None:
    # an infinite sigma meets a zero of C in C sigma, as in the step above; the velocity is not finite
    game = mixed_game()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = velocity(game, SystemState(initial_state(game).x, np.array([np.inf, 0.0])))
    assert not all(np.isfinite(a).all() for a in (out if velocity is rhs else [out]))


@pytest.mark.parametrize("h", [-0.5, math.nan, math.inf, -math.inf])
def test_step_rejects_negative_or_non_finite_length(h: float) -> None:
    game = load_scenario((SCENARIOS / "single_box.json").read_text())
    with pytest.raises(ValueError, match="step length h"):
        step(game, initial_state(game), h)


def test_integrate_converges_single_agent() -> None:
    game = single_agent_game()
    cfg = IntegratorConfig(h=1e-3, T=30.0, record_every=100)
    traj = integrate(game, SystemState(x=np.array([[0.7]]), sigma=np.array([0.7])), cfg)
    final = traj.final_state
    assert abs(float(final.x[0, 0]) - 0.25) <= 1e-4
    assert abs(float(final.sigma[0]) - 0.25) <= 1e-4
    assert traj.residual[-1] <= 1e-3


def test_integrate_minimal_horizon_records_two_samples() -> None:
    game = single_agent_game()
    traj = integrate(game, initial_state(game), IntegratorConfig(h=0.5, T=0.5))
    assert len(traj) == 2
    assert traj.times == pytest.approx([0.0, 0.5])


def assert_same_trajectory(a: Trajectory, b: Trajectory) -> None:
    assert a.reference is b.reference
    for name in ("times", "x", "sigma", "W", "residual", "dist_avg", "dist_sigma"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def test_integrate_projects_initial_state() -> None:
    game = single_agent_game()
    wild = SystemState(x=np.array([[5.0]]), sigma=np.array([0.5]))
    tamed = project_state(game, wild)
    assert tamed.x == pytest.approx(np.array([[0.75]]))
    cfg = IntegratorConfig(h=0.1, T=0.2)
    assert_same_trajectory(integrate(game, wild, cfg), integrate(game, tamed, cfg))


def test_integrate_forward_invariance_mixed_sets() -> None:
    game = mixed_game()
    start = SystemState(x=np.array([[2.0, -1.0], [3.0, 3.0], [-2.0, 0.0]]), sigma=np.array([1.5, -0.5]))
    # step is the integrator's update: chaining it reproduces integrate's final
    # state bit for bit, so the chain visits every iterate of the run
    traj = integrate(game, start, IntegratorConfig(h=0.01, T=2.0))
    state, sets = project_state(game, start), [s for _, s in agents_of(game.layout)]
    for _ in range(len(traj) - 1):
        state = step(game, state, 0.01)
        for i, s in enumerate(sets):
            assert contains(s, state.x[i])
    assert np.array_equal(state.x, traj.x)
    assert np.array_equal(state.sigma, traj.sigma)


def test_integrate_sampling_grid() -> None:
    game = single_agent_game()
    traj = integrate(game, initial_state(game), IntegratorConfig(h=0.01, T=0.1, record_every=3))
    assert traj.times == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
    assert len(traj) == 5
    assert all(getattr(traj, name).shape == (5,) for name in ("W", "residual", "dist_avg", "dist_sigma"))


def test_integrate_bitwise_deterministic(demand_game: GameSpec) -> None:
    cfg = IntegratorConfig(h=1e-3, T=0.5, record_every=50)
    init = initial_state(demand_game)
    ref = solve_equilibrium(demand_game)
    assert_same_trajectory(integrate(demand_game, init, cfg), integrate(demand_game, init, cfg))
    assert_same_trajectory(
        integrate(demand_game, init, cfg, reference=ref), integrate(demand_game, init, cfg, reference=ref)
    )


def test_integrate_raises_on_blowup() -> None:
    game = single_agent_game(k=1e8)
    with pytest.raises(NonFiniteStateError) as excinfo:
        integrate(game, initial_state(game), IntegratorConfig(h=1.0, T=100.0))
    err = excinfo.value
    assert err.step_index >= 1
    assert err.time == pytest.approx(err.step_index * 1.0)


def test_recorded_residual_matches_pointwise_evaluation(demand_game: GameSpec) -> None:
    init = SystemState(x=initial_state(demand_game).x, sigma=np.array([0.9]))
    traj = integrate(demand_game, init, IntegratorConfig(h=0.01, T=0.05))
    direct = stationarity_residual(demand_game, project_state(demand_game, init))
    assert traj.residual[0] == direct

    game = mixed_game()
    start = project_state(game, SystemState(x=np.full((3, 2), 0.45), sigma=np.array([0.2, 0.8])))
    traj2 = integrate(game, start, IntegratorConfig(h=0.01, T=0.05))
    assert traj2.residual[0] == stationarity_residual(game, start)


def test_stationarity_residual_examples() -> None:
    game = single_agent_game()
    assert stationarity_residual(game, SystemState(x=np.array([[0.25]]), sigma=np.array([0.25]))) == 0.0
    assert stationarity_residual(game, SystemState(x=np.array([[0.5]]), sigma=np.array([0.5]))) == pytest.approx(0.85)


def test_integrator_config_validation() -> None:
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(h=1.0, T=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0)
    for every in (2.5, True):
        with pytest.raises(ValueError, match=f"^record_every must be a positive integer, got {every}$"):
            IntegratorConfig(record_every=every)
    assert IntegratorConfig(record_every=np.int64(3)).record_every == 3
    for h, T, field in (
        (math.inf, 60.0, "step size h"),
        (math.nan, 60.0, "step size h"),
        (math.inf, math.inf, "step size h"),
        (1e-3, math.inf, "horizon T"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            IntegratorConfig(h=h, T=T)


def test_trajectory_accessors() -> None:
    game = single_agent_game()
    traj = integrate(game, initial_state(game), IntegratorConfig(h=0.1, T=0.3))
    assert len(traj) == 4
    final = traj.final_state
    assert np.array_equal(final.x, traj.x)
    assert np.array_equal(final.sigma, traj.sigma)
    final.x[0, 0] = 99.0
    final.sigma[0] = 99.0
    assert traj.x[0, 0] != 99.0
    assert traj.sigma[0] != 99.0


@pytest.mark.parametrize("gains", [(), (0.5, 0.0), (0.5, float("nan")), (1.0, math.inf)])
def test_integrate_gains_rejects_bad_gains(gains) -> None:
    game = single_agent_game()
    with pytest.raises(ValueError, match="gains must be a non-empty list of positive numbers"):
        integrate_gains(game, gains, initial_state(game), IntegratorConfig(h=0.1, T=0.3))


def test_last_sample_may_pass_the_horizon() -> None:
    # the grid is t_j = j * h for j up to ceil(T / h): T = 1, h = 0.3 ends at 1.2
    game = single_agent_game()
    traj = integrate(game, initial_state(game), IntegratorConfig(h=0.3, T=1.0))
    assert len(traj) == 5
    assert traj.times[-1] == 4 * 0.3


def test_diagnostics_nan_without_reference() -> None:
    game = single_agent_game()
    traj = integrate(game, initial_state(game), IntegratorConfig(h=0.1, T=0.5))
    assert traj.reference is None
    assert np.all(np.isnan(traj.W))
    assert np.all(np.isnan(traj.dist_avg))
    assert np.all(np.isnan(traj.dist_sigma))
    assert np.all(np.isfinite(traj.residual))


def test_diagnostics_filled_with_reference(
    single_game: GameSpec, single_ref: EquilibriumResult
) -> None:
    traj = integrate(
        single_game, initial_state(single_game), IntegratorConfig(h=1e-3, T=10.0, record_every=100),
        reference=single_ref,
    )
    assert traj.reference is single_ref
    assert np.all(np.isfinite(traj.W))
    assert np.all(np.isfinite(traj.dist_avg))
    assert np.all(np.isfinite(traj.dist_sigma))
    # W at the start: 0.5*(0.5-0.25)^2 for x plus the same for sigma
    assert traj.W[0] == pytest.approx(0.0625)
    assert traj.W[-1] <= 1e-6
    assert traj.dist_sigma[-1] <= 1e-3


def test_integrate_gains_memory_is_state_plus_samples() -> None:
    # B = 4 copies of N = 2000 agents over 2,001 samples hold B*(N*n + samples)*8
    # = 128 kB; a stored state history would be B*samples*N*n*8 = 128 MB
    game = demand_response_game(count=2000)
    init, ref = initial_state(game), solve_equilibrium(game)
    tracemalloc.start()
    try:
        trajs = integrate_gains(game, (0.5, 1.0, 2.0, 4.0), init, IntegratorConfig(h=1e-3, T=2.0), reference=ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(traj) for traj in trajs] == [2001] * 4
    assert all(traj.x.shape == (2000, 1) for traj in trajs)
    assert peak < 4_000_000, f"traced peak {peak} bytes"


def test_a_sweeps_trajectories_cannot_change_each_other() -> None:
    # every gain's trajectory holds the same times array and views of shared bases, all read-only
    game = mixed_game()
    a, b = integrate_gains(game, (0.5, 2.0), initial_state(game), IntegratorConfig(h=0.1, T=0.3),
                           reference=solve_equilibrium(game))
    for name in ("times", "x", "sigma", "W", "residual", "dist_avg", "dist_sigma"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name).flat[1] = 99.0
    assert b.times[1] == 0.1
    state = a.final_state  # copies the caller may change
    state.x[0, 0], state.sigma[0] = 99.0, 99.0
    assert a.x[0, 0] != 99.0 and a.sigma[0] != 99.0
