"""The batched kernels against the per-agent formulas they replaced, bit for bit.

Every agent-level quantity used to be computed one agent at a time with scalar
per-set helpers, now the oracles' Box, Ball and QuadraticCost. The references
below keep those loops; the property tests demand np.array_equal, not
approximate agreement, on random mixed box/ball games with points inside each
set, on its boundary and outside it. Likewise every gain of integrate_gains is
held to a single-gain integrator loop kept below as the reference.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggseek.equilibrium import (
    EquilibriumResult,
    _best_responses,
    aggregation_map,
    verify_equilibrium,
    vi_gap,
)
from aggseek import flow
from aggseek.flow import IntegratorConfig, NonFiniteStateError, integrate_gains
from aggseek.model import (
    GameSpec,
    SystemState,
    initial_state,
    load_scenario,
    project_rows,
    project_state,
    pseudo_gradient_F,
    tangent_rows,
    vi_min_rows,
)

from helpers import demand_response_game, load_agents, random_game, single_agent_game
from oracles import Ball, Box, ConvexSet, QuadraticCost, agents_of, best_response, grad_f, project, tangent_project

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COORD = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
# where a point sits relative to its set: 0 is the center, 1 the boundary
REACH = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.999), st.floats(1.001, 3.0))


def _vectors(n: int):
    return st.lists(COORD, min_size=n, max_size=n).map(np.array)


def _point(draw, cset: ConvexSet, n: int) -> np.ndarray:
    u = draw(_vectors(n))
    reach = draw(REACH)
    if isinstance(cset, Ball):
        norm = float(np.linalg.norm(u))
        u = u / norm if norm > 0 else np.eye(n)[0]
        return cset.center + (reach * cset.radius) * u
    half = 0.5 * (cset.hi - cset.lo)
    if reach == 1.0:  # pin one coordinate to a bound
        u[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-2.0, 2.0]))
    return cset.center + reach * half * np.clip(u / 2.0, -1.0, 1.0)


@st.composite
def games_with_points(draw, max_agents: int = 6) -> tuple[GameSpec, np.ndarray, np.ndarray]:
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(1, max_agents))
    vec = _vectors(n)
    agents, points = [], []
    for _ in range(N):
        cost = QuadraticCost(draw(st.floats(0.1, 5.0)), draw(vec), draw(vec))
        if draw(st.booleans()):
            a, b = draw(vec), draw(vec)
            cset: ConvexSet = Box(np.minimum(a, b), np.maximum(a, b))
        else:
            cset = Ball(draw(vec), draw(st.floats(0.05, 2.0)))
        agents.append((cost, cset))
        points.append(_point(draw, cset, n))
    C = np.array([draw(vec) for _ in range(n)])
    game = load_agents(C, 1.0, agents)
    return game, np.array(points), draw(vec)


def scalar_best_responses(game: GameSpec, sigma: np.ndarray) -> np.ndarray:
    return np.array([best_response(c, s, game.C, sigma) for c, s in agents_of(game.layout)])


def scalar_pseudo_gradient(game: GameSpec, x: np.ndarray) -> np.ndarray:
    coupling = game.C @ x.mean(axis=0)
    return np.array([grad_f(c, x[i]) + coupling for i, (c, _) in enumerate(agents_of(game.layout))])


def scalar_vi_min(cset: ConvexSet, x: np.ndarray, g: np.ndarray) -> float:
    if isinstance(cset, Box):
        return float(np.minimum((cset.lo - x) * g, (cset.hi - x) * g).sum())
    return float((cset.center - x) @ g) - cset.radius * float(np.linalg.norm(g))


def scalar_gaps(game: GameSpec, x: np.ndarray) -> np.ndarray:
    g = scalar_pseudo_gradient(game, x)
    return np.array(
        [max(0.0, -scalar_vi_min(s, x[i], g[i])) for i, (_, s) in enumerate(agents_of(game.layout))]
    )


def scalar_first_outside(game: GameSpec, x: np.ndarray):
    for i, (_, s) in enumerate(agents_of(game.layout)):
        if np.linalg.norm(x[i] - project(s, x[i])) > 1e-9:
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(games_with_points())
def test_best_responses_and_aggregation_map_match_scalar(case) -> None:
    game, _, sigma = case
    ref = scalar_best_responses(game, sigma)
    assert np.array_equal(_best_responses(game.layout, game.C @ sigma), ref)
    assert np.array_equal(aggregation_map(game, sigma), ref.mean(axis=0))


@settings(max_examples=200, deadline=None)
@given(games_with_points(), st.data())
def test_projection_and_pseudo_gradient_match_scalar(case, data) -> None:
    game, x, sigma = case
    agents = agents_of(game.layout)
    projected = project_state(game, SystemState(x, sigma))
    assert np.array_equal(projected.x, np.array([project(s, x[i]) for i, (_, s) in enumerate(agents)]))
    assert np.array_equal(projected.sigma, sigma)
    assert np.array_equal(pseudo_gradient_F(game, x), scalar_pseudo_gradient(game, x))
    assert np.array_equal(initial_state(game).x, np.array([s.center for _, s in agents]))

    # on a (B, N, n) stack, and on a (K, B, N, n) stack of those, the kernels
    # act on the agent axis of each (N, n) slice alike
    K, B, lay = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), game.layout
    more = [[_point(data.draw, s, game.n) for _, s in agents] for _ in range(K * B - 1)]
    ys = np.array([x, *more]).reshape(K, B, game.N, game.n)
    stacked = project_rows(lay, ys)
    assert np.array_equal(stacked, np.array([[project_rows(lay, y) for y in yb] for yb in ys]))
    assert np.array_equal(stacked, np.array([project_rows(lay, yb) for yb in ys]))
    v = np.array([data.draw(_vectors(game.n)) for _ in range(K * B * game.N)]).reshape(ys.shape)
    tangent = tangent_rows(lay, stacked, v)
    per_slice = [[tangent_rows(lay, p, w) for p, w in zip(pb, wb)] for pb, wb in zip(stacked, v)]
    assert np.array_equal(tangent, np.array(per_slice))
    assert np.array_equal(tangent, np.array([tangent_rows(lay, *pwb) for pwb in zip(stacked, v)]))
    sets, slices = [s for _, s in agents], (-1, *x.shape)
    per_agent = [_ref_tangent_rows(sets, p, w) for p, w in zip(stacked.reshape(slices), v.reshape(slices))]
    assert np.array_equal(tangent, np.array(per_agent).reshape(tangent.shape))
    vi_min = vi_min_rows(lay, stacked, v)
    per_slice = [[vi_min_rows(lay, p, w) for p, w in zip(pb, wb)] for pb, wb in zip(stacked, v)]
    assert np.array_equal(vi_min, np.array(per_slice))
    assert np.array_equal(vi_min, np.array([vi_min_rows(lay, *pwb) for pwb in zip(stacked, v)]))


@settings(max_examples=200, deadline=None)
@given(games_with_points(), st.booleans())
def test_vi_gap_and_verification_match_scalar(case, feasible: bool) -> None:
    game, x, _ = case
    if feasible:
        x = project_state(game, SystemState(x, np.zeros(game.n))).x
    outside = scalar_first_outside(game, x)
    if outside is None:
        gaps = scalar_gaps(game, x)
        report = verify_equilibrium(game, x, tol=1e-6)
        assert report.gap == gaps.max() and report.worst_agent == int(np.argmax(gaps))
        assert vi_gap(game, x) == gaps.max()
    else:  # both checks read membership the same way
        for check in (lambda: vi_gap(game, x), lambda: verify_equilibrium(game, x, tol=1e-6)):
            with pytest.raises(ValueError, match=f"^agent {outside} decision lies outside its set$"):
                check()


# The single-gain integrator loop, one agent at a time where it projects: the
# reference every copy of integrate_gains must reproduce bit for bit.
def _ref_drive(lay, C, x, sigma):
    return -(lay.ell[:, None] * (x - lay.xstar) + lay.linear) - (C @ sigma)


def _ref_project_rows(sets, x):
    return np.array([project(s, x[i]) for i, s in enumerate(sets)])


def _ref_tangent_rows(sets, x, v):
    return np.array([tangent_project(s, x[i], v[i]) for i, s in enumerate(sets)])


def reference_integrate(game: GameSpec, init: SystemState, cfg: IntegratorConfig, ref) -> dict:
    lay, C, k, h, sets = game.layout, game.C, game.k, cfg.h, [s for _, s in agents_of(game.layout)]
    x, sigma = project_state(game, init).x.copy(), init.sigma.copy()
    n_steps = math.ceil(cfg.T / h)
    sample_steps = list(range(0, n_steps, cfg.record_every))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    xbar, sigmabar = ref.xbar, ref.sigmabar
    out = {name: [] for name in ("times", "W", "residual", "dist_avg", "dist_sigma")}

    def record(step_index: int) -> None:
        xdot = _ref_tangent_rows(sets, x, _ref_drive(lay, C, x, sigma))
        sigmadot = k * (x.mean(axis=0) - sigma)
        dx, ds = x - xbar, sigma - sigmabar
        out["times"].append(step_index * h)
        out["residual"].append(max(float(np.max(np.abs(xdot))), float(np.max(np.abs(sigmadot)))))
        out["W"].append(0.5 * float(np.sum(dx * dx)) + 0.5 * float(ds @ ds))
        out["dist_avg"].append(float(np.linalg.norm(x.mean(axis=0) - sigmabar)))
        out["dist_sigma"].append(float(np.linalg.norm(ds)))

    record(0)
    for i in range(1, n_steps + 1):
        x, sigma = (
            _ref_project_rows(sets, x + h * _ref_drive(lay, C, x, sigma)),
            sigma + h * k * (x.mean(axis=0) - sigma),
        )
        if i in sample_steps:
            record(i)
    return {name: np.array(values) for name, values in out.items()} | {"x": x, "sigma": sigma}


def assert_gains_match_reference(game: GameSpec, init: SystemState, gains, cfg: IntegratorConfig) -> None:
    xbar = project_state(game, SystemState(game.layout.xstar, init.sigma)).x
    ref = EquilibriumResult(xbar, xbar.mean(axis=0), 0, 0.0, 0.0)
    trajs = integrate_gains(game, gains, init, cfg, reference=ref)
    assert len(trajs) == len(gains)
    for k, traj in zip(gains, trajs):
        expect = reference_integrate(dataclasses.replace(game, k=k), init, cfg, ref)
        assert traj.reference is ref
        for name, values in expect.items():
            assert np.array_equal(getattr(traj, name), values), name


def block_floats(K: int, gains, game: GameSpec) -> int:
    """The flow.BLOCK_FLOATS at which integrate_gains keeps K samples per block."""
    return K * len(gains) * game.N * game.n


def random_population(N: int, n: int, seed: int, record_every: int = 1, T: float = 0.48, gains=(0.7, 3.0)):
    """A random box/ball game of N agents, a start off its sets, the gains and h = 0.05 (10 steps at T = 0.48)."""
    rng = np.random.default_rng(seed)
    game = random_game(rng, n_choices=(n,), N=N)
    init = SystemState(rng.uniform(-2, 2, (N, n)), rng.uniform(-1, 1, n))
    return game, init, gains, IntegratorConfig(h=0.05, T=T, record_every=record_every)


def box_population(N: int, seed: int, T: float = 0.1):
    """N generated box agents in 1-D, a start off the boxes, two gains and h = 4e-3 (25 steps at T = 0.1)."""
    rng = np.random.default_rng(seed)
    init = SystemState(rng.uniform(0.0, 1.0, (N, 1)), rng.uniform(0.0, 1.0, 1))
    return demand_response_game(count=N, seed=seed), init, (0.5, 2.0), IntegratorConfig(h=4e-3, T=T)


@st.composite
def gain_sweeps(draw):
    game, x, sigma = draw(games_with_points(max_agents=20))  # N >= 8 reaches numpy's unrolled sums
    gains = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4))
    h = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    T = h * (draw(st.integers(1, 15)) + draw(st.floats(0.1, 0.9)))  # T / h is not an integer
    cfg = IntegratorConfig(h=h, T=T, record_every=draw(st.sampled_from([1, 3])))
    return game, SystemState(x, sigma), gains, cfg


# the block edges, pinned: K = 1, a K of 4 that divides neither the 11 samples
# of record_every = 1 nor the 5 of record_every = 3, and K >= samples; K = 1
# with record_every = 3, where a step that is not recorded overwrites the one
# slot in place; a non-symmetric 3-by-3 C, so the batched C sigma meets the
# per-copy C @ sigma; and a box-only 1-D population of 150 agents, whose agent
# sum spans more than one of numpy's 128-element pairwise blocks
@example(random_population(9, 2, seed=1), 1)
@example(random_population(9, 2, seed=7, record_every=3), 1)
@example(random_population(9, 2, seed=2), 4)
@example(random_population(9, 2, seed=3, record_every=3), 4)
@example(random_population(9, 2, seed=4), 10**6)
@example(random_population(9, 2, seed=5, record_every=3), 10**6)
@example(random_population(9, 3, seed=6), 3)
@example(box_population(150, seed=1), 10**6)
# four copies of a ball-heavy game: every copy's ball rows sit at flat indices b*N + i of the
# tiled layout, and K = 3 puts block edges inside the 11 samples
@example(random_population(40, 2, seed=12, gains=(0.3, 0.7, 1.5, 3.0)), 3)
@settings(max_examples=150, deadline=None)
@given(gain_sweeps(), st.sampled_from([1, 2, 3, 5, 10**6]))
def test_integrate_gains_matches_single_gain_loop(case, K: int) -> None:
    game, init, gains, cfg = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "BLOCK_FLOATS", block_floats(K, gains, game))
        assert_gains_match_reference(game, init, gains, cfg)


def test_many_agents_match_single_gain_loop() -> None:
    # each energy sum spans N*n = 4,000 floats, several of numpy's 128-element
    # pairwise blocks; the default block holds 2 samples of B*N*n = 8,000 floats
    game, init, gains, cfg = random_population(2000, 2, seed=3, T=0.4)
    assert game.layout.ball_rows.size > 500
    assert flow.BLOCK_FLOATS // block_floats(1, gains, game) == 2
    assert_gains_match_reference(game, init, gains, cfg)


def first_nonfinite(game: GameSpec, init: SystemState, gains, cfg: IntegratorConfig) -> tuple[int, float]:
    """The first step at which some gain's single-gain loop stops being finite, and that gain."""
    lay, h, sets = game.layout, cfg.h, [s for _, s in agents_of(game.layout)]
    states = [(project_state(game, init).x, init.sigma) for _ in gains]
    for i in range(1, math.ceil(cfg.T / h) + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            states = [
                (_ref_project_rows(sets, x + h * _ref_drive(lay, game.C, x, s)),
                 s + h * k * (x.mean(axis=0) - s))
                for k, (x, s) in zip(gains, states)
            ]
        for k, (x, s) in zip(gains, states):
            if not (np.isfinite(x).all() and np.isfinite(s).all()):
                return i, k
    raise AssertionError("the loop stayed finite")


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("K", [1, 7, 10**6])
def test_blowup_inside_a_block_raises_at_the_loop_step(monkeypatch: pytest.MonkeyPatch, K: int, every: int) -> None:
    # h * k = 5 makes the signal update diverge for k = 10 only, about 500 steps in
    game, gains = single_agent_game(), (0.5, 10.0)
    init, cfg = initial_state(game), IntegratorConfig(h=0.5, T=400.0, record_every=every)
    step_index, k = first_nonfinite(game, init, gains, cfg)
    monkeypatch.setattr(flow, "BLOCK_FLOATS", block_floats(K, gains, game))
    with pytest.raises(NonFiniteStateError) as excinfo:
        integrate_gains(game, gains, init, cfg)
    assert (excinfo.value.step_index, excinfo.value.k) == (step_index, k)
    assert K == 1 or (step_index // every) % K, "the blow-up falls inside a block"
    assert every == 1 or step_index % every, "the blow-up falls on a step that is not recorded"


@pytest.mark.parametrize("start", [{"x": np.nan}, {"sigma": np.inf}])
def test_start_that_is_not_finite_raises_at_step_0(start: dict) -> None:
    game = load_scenario((SCENARIOS / "single_box.json").read_text(encoding="utf-8"))
    init = SystemState(**{"x": initial_state(game).x, "sigma": initial_state(game).sigma, **start})
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 0 \(t = 0\) for k = 0.5$") as excinfo:
        integrate_gains(game, (0.5, 2.0), init, IntegratorConfig(h=0.01, T=0.1))
    assert (excinfo.value.step_index, excinfo.value.time) == (0, 0.0)


@pytest.mark.parametrize("K", [1, 10**6])
def test_overflowing_agent_sum_of_a_finite_state_does_not_raise(monkeypatch: pytest.MonkeyPatch, K: int) -> None:
    # in one step every agent goes from 0 to 1e308: the state stays finite, its agent sum does not
    box, cost = Box(np.array([-1e308]), np.array([1e308])), QuadraticCost(1.0, np.array([1e308]), np.array([0.0]))
    game = load_agents(np.zeros((1, 1)), 1.0, [(cost, box)] * 4)
    init, gains = SystemState(np.zeros((4, 1)), np.zeros(1)), (1.0,)
    monkeypatch.setattr(flow, "BLOCK_FLOATS", block_floats(K, gains, game))
    (traj,) = integrate_gains(game, gains, init, IntegratorConfig(h=1.0, T=1.0))
    assert np.all(traj.x == 1e308) and traj.sigma[0] == 0.0
    assert traj.residual[-1] == np.inf  # k (avg(x) - sigma) overflowed with the sum
    # the next step carries the overflowed average into sigma, and that is a blow-up
    cfg = IntegratorConfig(h=1.0, T=2.0)
    with pytest.raises(NonFiniteStateError) as excinfo:
        integrate_gains(game, gains, init, cfg)
    assert (excinfo.value.step_index, excinfo.value.k) == first_nonfinite(game, init, gains, cfg) == (2, 1.0)


def test_step_and_rhs_are_one_iteration_of_the_loop() -> None:
    game, init, gains, cfg = random_population(40, 2, seed=12)
    assert 2 * game.layout.ball_rows.size > game.N, "ball-heavy"
    start = project_state(game, init)
    trajs = integrate_gains(game, gains, init, IntegratorConfig(h=cfg.h, T=cfg.h))
    for k, traj in zip(gains, trajs):
        game_k = dataclasses.replace(game, k=k)
        nxt = flow.step(game_k, start, cfg.h)
        assert traj.x.tobytes() == nxt.x.tobytes() and traj.sigma.tobytes() == nxt.sigma.tobytes()
        # the recorded residual is the sup-norm of rhs, at the start and after the step
        assert traj.residual.tolist() == [flow.stationarity_residual(game_k, s) for s in (start, nxt)]
