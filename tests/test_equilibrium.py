from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggseek import cli, equilibrium
from aggseek.equilibrium import (
    ConvergenceError,
    EquilibriumResult,
    aggregation_map,
    solve_equilibrium,
    strictly_monotone,
    verify_equilibrium,
    vi_gap,
)
from aggseek.flow import stationarity_residual
from aggseek.model import GameSpec, SystemState, initial_state, load_scenario

from helpers import load_agents, random_game, random_point_in, single_agent_game, wide_box_population_doc
from oracles import (
    Ball,
    Box,
    ConvexSet,
    QuadraticCost,
    agents_of,
    cost_J,
    grid_minimize_interval,
    project,
    sampled_set_infimum,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WIDE = Box(np.array([-5.0]), np.array([5.0]))


def probe_game(cset: ConvexSet, x: np.ndarray, g: np.ndarray) -> GameSpec:
    """Single decoupled agent whose gradient at x equals g exactly."""
    n = cset.dim
    cost = QuadraticCost(ell=1.0, xstar=np.asarray(x, dtype=float), linear=np.asarray(g, dtype=float))
    return load_agents(np.zeros((n, n)), 1.0, [(cost, cset)])


# a one-agent game's aggregation map is that agent's best response
def test_best_response_clamps_low() -> None:
    game = single_agent_game()
    # unconstrained minimizer 0.2 sits below the box
    assert aggregation_map(game, np.array([0.1])) == pytest.approx([0.25])


def test_best_response_interior() -> None:
    game = single_agent_game()
    assert aggregation_map(game, np.array([-0.5])) == pytest.approx([0.6])


def test_best_response_clamps_high() -> None:
    game = single_agent_game()
    assert aggregation_map(game, np.array([-2.0])) == pytest.approx([0.75])


def test_best_response_decoupled_hits_target() -> None:
    cost = QuadraticCost(2.0, np.array([0.5]), np.array([0.0]))
    game = load_agents([[0.0]], 1.0, [(cost, Box(np.array([0.0]), np.array([1.0])))])
    assert aggregation_map(game, np.array([77.0])) == pytest.approx([0.5])


def test_best_response_ball_boundary() -> None:
    cost = QuadraticCost(1.0, np.array([3.0, 0.0]), np.zeros(2))
    ball = Ball(np.zeros(2), 1.0)
    game = load_agents(np.zeros((2, 2)), 1.0, [(cost, ball)])
    assert aggregation_map(game, np.zeros(2)) == pytest.approx([1.0, 0.0])


def test_best_response_beats_feasible_alternatives() -> None:
    rng = np.random.default_rng(11)
    for _ in range(300):
        game = random_game(rng, max_agents=6)
        sigma = rng.normal(scale=0.7, size=game.n)
        i = int(rng.integers(game.N))
        cost, cset = agents_of(game.layout)[i]
        br = aggregation_map(load_agents(game.C, game.k, [(cost, cset)]), sigma)
        val = cost_J(cost, cset, game.C, br, sigma)
        for _ in range(60):
            z = random_point_in(rng, cset)
            assert val <= cost_J(cost, cset, game.C, z, sigma) + 1e-10


def test_best_response_matches_grid_search() -> None:
    rng = np.random.default_rng(12)
    for _ in range(100):
        ell = float(rng.uniform(0.6, 2.5))
        cost = QuadraticCost(ell, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        lo, hi = sorted(rng.uniform(-1.5, 1.5, 2))
        box = Box(np.array([lo]), np.array([hi + 0.1]))
        game = load_agents(rng.uniform(-1, 1, (1, 1)), 1.0, [(cost, box)])
        sigma = rng.uniform(-1, 1, 1)
        csig = float(game.C[0, 0] * sigma[0])

        def objective(zs: np.ndarray) -> np.ndarray:
            return 0.5 * ell * (zs - cost.xstar[0]) ** 2 + (cost.linear[0] + csig) * zs

        best = grid_minimize_interval(objective, float(box.lo[0]), float(box.hi[0]))
        assert abs(float(aggregation_map(game, sigma)[0]) - best) <= 2e-5


def test_aggregation_map_fixed_point_single_agent() -> None:
    game = single_agent_game()
    assert aggregation_map(game, np.array([0.25])) == pytest.approx([0.25])


def test_aggregation_map_constant_when_decoupled() -> None:
    mk = lambda xs: QuadraticCost(1.0, np.array([xs]), np.array([0.0]))
    game = load_agents([[0.0]], 1.0, [(mk(0.2), WIDE), (mk(0.6), WIDE)])
    for s in (-3.0, 0.0, 0.4, 10.0):
        assert aggregation_map(game, np.array([s])) == pytest.approx([0.4])


def test_aggregation_map_nonincreasing_under_positive_coupling(demand_game: GameSpec) -> None:
    values = [float(aggregation_map(demand_game, np.array([s]))[0]) for s in (0.0, 0.5, 1.0)]
    assert values[0] >= values[1] >= values[2]


def test_solve_single_agent_lands_on_active_bound(single_ref: EquilibriumResult) -> None:
    assert single_ref.sigmabar == pytest.approx([0.25])
    assert single_ref.xbar == pytest.approx(np.array([[0.25]]))
    assert single_ref.vi_gap_value <= 1e-12
    assert single_ref.final_update_norm <= 1e-10


def test_solve_interior_fixed_point_wide_box() -> None:
    game = single_agent_game(lo=-10.0, hi=10.0)
    res = solve_equilibrium(game)
    assert abs(float(res.sigmabar[0]) - 0.16) <= 1e-8


def test_solve_demand_scenario(demand_ref: EquilibriumResult) -> None:
    assert float(demand_ref.sigmabar[0]) == pytest.approx(0.2719906, abs=1e-6)
    assert demand_ref.vi_gap_value <= 1e-9
    assert demand_ref.sigmabar == pytest.approx(demand_ref.xbar.mean(axis=0), abs=0.0)


def test_solve_parameter_validation() -> None:
    game = single_agent_game()
    with pytest.raises(TypeError, match="lam"):  # the solver picks its relaxation itself
        solve_equilibrium(game, lam=0.5)
    with pytest.raises(ValueError):
        solve_equilibrium(game, tol=0.0)
    with pytest.raises(ValueError, match="^tol must be positive and finite, got inf$"):
        solve_equilibrium(game, tol=float("inf"))


def test_solve_raises_on_oscillating_iteration(monkeypatch: pytest.MonkeyPatch) -> None:
    # strong positive coupling: at lam = 1/2 the relaxed map sigma <- -2 sigma + 1/2 doubles the distance to
    # 1/6 with alternating sign; after the halving, at lam = 1/4, it still alternates and needs more than 20 steps
    cost = QuadraticCost(1.0, np.array([1.0]), np.array([0.0]))
    box = Box(np.array([-10.0]), np.array([10.0]))
    game = load_agents([[5.0]], 1.0, [(cost, box)])
    monkeypatch.setattr(equilibrium, "MAX_ITER", 20)
    with pytest.raises(ConvergenceError, match="^no fixed point within 20 iterations") as excinfo:
        solve_equilibrium(game)
    err = excinfo.value
    assert err.iterations == 20
    assert err.sigma_last.shape == (1,)
    assert err.update_norm > 1e-10


def relaxation_steps(game: GameSpec, tol: float = 1e-10) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The solver's rule on a strictly monotone game, replayed through the public map: the final sigma and,
    for each step, its lam and the sup norm of the residual T(sigma) - sigma at the sigma it started from."""
    sigma, lam, least, steps = initial_state(game).sigma, 0.5, math.inf, []
    for _ in range(equilibrium.MAX_ITER):
        target = aggregation_map(game, sigma)
        residual, nxt = target - sigma, (1.0 - lam) * sigma + lam * target
        steps.append((lam, float(np.max(np.abs(residual)))))
        if 0.5 * steps[-1][1] <= tol or (0.5 * sigma + 0.5 * target == sigma).all():
            return nxt, steps
        sigma, norm = nxt, math.hypot(*residual)
        lam, least = (lam, norm) if norm < least else (lam / 2, math.inf)
    pytest.fail("the replay did not stop")


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.9, 10.0),
       st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(-3.0, 3.0), st.floats(-2.0, 0.0), st.floats(0.2, 3.0)),
                min_size=1, max_size=12))
def test_solve_keeps_lam_within_the_one_dimensional_bound(ratio: float, agents: list) -> None:
    # n = 1, intervals of mixed width and place, unequal ell, C = ratio * ell_min: |C| / ell_min <= 10 and
    # mu = ell_min + min(0, C) >= 0.1 ell_min. The docstring's bound: F = sigma - T(sigma) has slopes in [m, M],
    # lam halves at most ceil(log2(M / 2)) times and stays at 1 / (2M) or above, and every step taken at
    # lam <= 1 / M contracts the residual by 1 - m / (2M) or better
    game = load_scenario(json.dumps({"n": 1, "C": [[ratio * min(a[0] for a in agents)]], "k": 1.0, "agents": {
        "list": [{"ell": ell, "xstar": [xstar], "linear": [0.0], "set": {"box": {"lo": [lo], "hi": [lo + width]}}}
                 for ell, xstar, lo, width in agents]}}))
    assert strictly_monotone(game)
    res = solve_equilibrium(game)
    sigma, steps = relaxation_steps(game)
    assert res.iterations == len(steps) - 1
    assert np.array_equal(res.sigmabar, aggregation_map(game, sigma))  # the replay is the solver's rule
    C = float(game.C[0, 0])
    m, M = (game.ell_min + min(0.0, C)) / game.ell_min, 1.0 + abs(C) / game.ell_min
    lams = [lam for lam, _ in steps]
    assert sum(a != b for a, b in zip(lams, lams[1:])) <= max(0, math.ceil(math.log2(M / 2)))
    assert min(lams) >= 1 / (2 * M)
    for (lam, r), (_, r_next) in zip(steps, steps[1:]):
        if lam <= 1 / M:
            assert r_next <= (1 - m / (2 * M)) * r + 1e-12


def test_solve_can_take_many_steps_above_the_bound() -> None:
    # no rate is proven while lam > 1 / M: one interior agent with C / ell = 2.98 has M = 3.98, so lam = 1/2
    # maps the residual to -0.99 times itself, which falls at every step and is never halved
    cost, box = QuadraticCost(1.0, np.array([1.0]), np.array([0.0])), Box(np.array([-10.0]), np.array([10.0]))
    res = solve_equilibrium(load_agents([[2.98]], 1.0, [(cost, box)]))
    assert res.iterations == 2223
    assert abs(float(res.sigmabar[0]) - 1 / 3.98) <= 1e-9


@pytest.mark.parametrize(("ell", "C", "iterations"), [(1.0, 5.0, 37), (1.5, 6.0, 20), (1.5, 10.0, 286),
                                                      (1.5, 4.5, 3)])
def test_solve_converges_where_half_relaxation_cycles(ell: float, C: float, iterations: int) -> None:
    game = load_scenario(wide_box_population_doc(ell, C))
    assert strictly_monotone(game)
    res = solve_equilibrium(game)
    assert res.iterations == iterations
    assert verify_equilibrium(game, res.xbar, tol=1e-6)


def test_a_game_that_is_not_strictly_monotone_keeps_half_relaxation() -> None:
    # one agent with C = -1.5 < -ell has three equilibria, -10, -1 and 10. lam stays 1/2 here: the solve is the
    # fixed-relaxation iteration it was before the solver picked lam, to the iteration count and the bit.
    # Halving would stall it: the residual grows as sigma leaves -1 for 10
    cost, box = QuadraticCost(1.0, np.array([0.5]), np.array([0.0])), Box(np.array([-10.0]), np.array([10.0]))
    game = load_agents([[-1.5]], 1.5, [(cost, box)])
    with pytest.warns(UserWarning, match="not strictly monotone"):
        res = solve_equilibrium(game)
    assert res.iterations == 44
    assert [float(v).hex() for v in res.sigmabar] == ["0x1.4000000000000p+3"]
    assert float(res.final_update_norm).hex() == "0x1.c654000000000p-35"
    assert res.vi_gap_value == 0.0


def test_solve_warns_when_uniqueness_unverified() -> None:
    game = single_agent_game()
    loose = dataclasses.replace(game, C=np.array([[-2.0]]))
    assert not strictly_monotone(loose)
    with pytest.warns(UserWarning):
        res = solve_equilibrium(loose)
    assert res.sigmabar == pytest.approx([0.75])
    assert res.vi_gap_value == 0.0


def test_strictly_monotone_examples(demand_game: GameSpec) -> None:
    assert strictly_monotone(demand_game)
    game = single_agent_game()
    assert strictly_monotone(game)
    # a coupling near the float range, where C + C' would overflow
    assert strictly_monotone(dataclasses.replace(game, C=np.array([[1e308]])))
    assert not strictly_monotone(dataclasses.replace(game, C=np.array([[-1e308]])))


def test_vi_gap_zero_at_equilibrium() -> None:
    game = single_agent_game()
    assert vi_gap(game, np.array([[0.25]])) == 0.0


def test_vi_gap_interior_example() -> None:
    game = single_agent_game()
    assert vi_gap(game, np.array([[0.5]])) == pytest.approx(0.2125)


def test_vi_gap_zero_at_projected_targets_when_decoupled() -> None:
    rng = np.random.default_rng(13)
    for _ in range(50):
        game = random_game(rng, max_agents=5, coupling_scale=0.0)
        x = np.stack([project(s, cost.xstar - cost.linear / cost.ell) for cost, s in agents_of(game.layout)])
        assert vi_gap(game, x) <= 1e-9


def test_vi_gap_rejects_infeasible_point() -> None:
    game = single_agent_game()
    with pytest.raises(ValueError):
        vi_gap(game, np.array([[0.9]]))


def test_vi_gap_box_matches_vertex_enumeration() -> None:
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.2, 2.0, n)
        box = Box(lo, hi)
        x = random_point_in(rng, box)
        g = rng.normal(size=n)
        gap = vi_gap(probe_game(box, x, g), x[None, :])
        vertex_min = min(
            float((np.array(v) - x) @ g)
            for v in itertools.product(*zip(lo, hi))
        )
        assert gap == pytest.approx(max(0.0, -vertex_min), abs=1e-12)


def test_vi_gap_ball_matches_boundary_sampling() -> None:
    rng = np.random.default_rng(15)
    for _ in range(50):
        center = rng.uniform(-1, 1, 2)
        radius = float(rng.uniform(0.3, 1.5))
        ball = Ball(center, radius)
        x = random_point_in(rng, ball)
        g = rng.normal(size=2)
        gap = vi_gap(probe_game(ball, x, g), x[None, :])
        angles = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
        boundary = center[None, :] + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        sampled = sampled_set_infimum(boundary, x, g)
        assert gap == pytest.approx(max(0.0, -sampled), abs=1e-7)


def test_verify_equilibrium_accepts_solver_output(
    demand_game: GameSpec, demand_ref: EquilibriumResult
) -> None:
    report = verify_equilibrium(demand_game, demand_ref.xbar, tol=1e-6)
    assert report.ok
    assert bool(report)
    assert report.gap <= 1e-6
    assert report.tol == 1e-6


def test_verify_equilibrium_rejects_interior_non_equilibrium() -> None:
    game = single_agent_game()
    report = verify_equilibrium(game, np.array([[0.5]]), tol=1e-3)
    assert not report.ok
    assert not bool(report)
    assert report.gap == pytest.approx(0.2125)
    assert report.worst_agent == 0


def test_a_gap_that_is_not_a_number_never_verifies() -> None:
    # C = 1e308: at x = 3 the pseudo-gradient is +inf, so the agent lowers its cost by moving to 2; the box
    # term (hi - x) g is 0 * inf = NaN there, which must not read as no violation
    cost, box = QuadraticCost(1.0, np.array([2.5]), np.array([0.0])), Box(np.array([2.0]), np.array([3.0]))
    game = load_agents([[1e308]], 1.0, [(cost, box)])
    report = verify_equilibrium(game, np.array([[3.0]]), tol=1e-9)
    assert not report.ok and not report.gap <= 1e-9 and report.worst_agent == 0
    assert vi_gap(game, np.array([[2.5]])) == np.inf
    # at the equilibrium x = 2 floating point cannot evaluate the inequality either: NaN, a false negative
    assert np.isnan(vi_gap(game, np.array([[2.0]])))


def test_equilibrium_conditions_agree_on_solver_outputs() -> None:
    rng = np.random.default_rng(16)
    for _ in range(20):
        game = random_game(rng, max_agents=8)
        res = solve_equilibrium(game)
        state = SystemState(x=res.xbar, sigma=res.sigmabar)
        assert stationarity_residual(game, state) <= 1e-8
        assert res.vi_gap_value <= 1e-6
        assert np.max(np.abs(res.sigmabar - res.xbar.mean(axis=0))) <= 1e-8


def test_equilibrium_conditions_agree_on_rejections() -> None:
    rng = np.random.default_rng(17)
    for _ in range(100):
        game = random_game(rng, max_agents=6)
        x = np.stack([random_point_in(rng, s) for _, s in agents_of(game.layout)])
        sigma = rng.normal(scale=0.5, size=game.n)
        residual = stationarity_residual(game, SystemState(x=x, sigma=sigma))
        gap = vi_gap(game, x)
        sigma_err = float(np.max(np.abs(sigma - x.mean(axis=0))))
        # a random feasible triple is not an equilibrium by either criterion
        assert not (residual <= 1e-8 and gap <= 1e-6 and sigma_err <= 1e-8)


@pytest.mark.parametrize(
    ("name", "iterations", "sigmabar_hex"),
    [
        ("single_box", 31, ["0x1.0000000000000p-2"]),
        ("demand_response", 25, ["0x1.1684b3f106c11p-2"]),
        ("mixed_sets", 27, ["0x1.a802fc8371341p-2", "0x1.84b5ec9b890a1p-2"]),
    ],
)
def test_bundled_scenarios_solve_to_pinned_bits(name: str, iterations: int, sigmabar_hex: list) -> None:
    # values from the per-agent implementation the batched kernels replaced
    game = load_scenario((SCENARIOS / f"{name}.json").read_text())
    res = solve_equilibrium(game)
    assert res.iterations == iterations
    assert [float(v).hex() for v in res.sigmabar] == sigmabar_hex


@pytest.mark.parametrize(
    ("name", "sha256"),
    [
        # the run's CSV was recorded before the flow moved onto the row
        # kernels and is unchanged by it; mixed_sets' after that move (its ball
        # norm is np.sqrt(np.vecdot(d, d))); every SVG and every sweep file was
        # recorded before the writers formatted whole arrays; the stdout, both
        # reports and the xbar CSV before the CLI built each report once and
        # wrote every CSV through one row writer
        ("single_box", {
            "run.csv": "748cd6713d272687da324c6667a82cad9f8f80978d958d8a31880c1200fe41c8",
            "run.svg": "b915313b4357e70af449e4560a97b69cfb7bf8a3ee81e1eeca5d3d7fe4dee7f5",
            "sweep_k0.5.csv": "f76cc846c51d34db82e3acfa3f0013b4a166d61499cf20b6d97acd477e93a8a6",
            "sweep_k0.5.svg": "b50171792417fe70f51a0245aca4df3e2e4caebdfd239a55dd5f7fa2181254d4",
            "sweep_k2.csv": "19e9286c62ac146c721695fe73fdbd74dcfc0d10f14c7e3140d7520ada6ea368",
            "sweep_k2.svg": "2a3272ea956a4413fe8e701a723d9973db14a2fe532dbbb0c010bb8c5f322448",
            "sweep_compare.svg": "e0b8a45f424667553a650cbfa8e97dbd709156783712706af4eec5322156bc12",
            "solve stdout": "97f241f3ac389679b94a5c7f1b2228c82c54a81351667d3af407b19c2999ac7d",
            "run stdout": "55b0d86c6ddb024d1700d72547ee983dc6f12c8596b17b1568dcac4c73d3a656",
            "sweep stdout": "44d20ca24a0364c0308944d1ee2665b137aa3c1ed9edd0cf7bd084caa5b50573",
            "solve.xbar.csv": "e1354a344dcd70a02b873fe481cb829c64430005999b3f2fcbeaef738ecd49f2",
            "run.report.json": "008461c91638a3de5f262cb0294917d5482aeb8032a6bd4d1b3e29e47fa6b802",
            "sweep.report.json": "971f9202c03954072cb423761046438e4e7e8bb6b861b8c9e390ec04dac118bf",
        }),
        ("demand_response", {
            "run.csv": "9d5b87930023196f3729dcd5be42f2512482833c5ae502ea5eda467e6d3bdfce",
            "run.svg": "7e0ad73c17b8fcf1e183214e9ee9b45ce0a68f009c757522098e08f67dda346c",
            "sweep_k0.5.csv": "8d207eb974041129bc48de821cf578b2f9f0d4141b0fb32a657be03c5b241427",
            "sweep_k0.5.svg": "50b384d77429f2ed409ad3c3c8319b474caffba67607cd1037e30fdcf36ad361",
            "sweep_k2.csv": "0fa2e133750b4cf54e1ba62253c40ae480188444e41b8062f768cd0fedae9bbe",
            "sweep_k2.svg": "59a2a235cdfb4fa8fce98875e717d2f2ef31f7719bbf97591b6b926a03353134",
            "sweep_compare.svg": "11c5e004e8048502e5c7c3fce56ac171462c56296dac42e7b78b13a70a48deb8",
            "solve stdout": "e6e0d44eaf6642442e3aa1aea5680f168711b10440c260d65dd1dd01ae7f8c42",
            "run stdout": "9fd46b0162c300d2ae06e9530c5b2488ea9cad0ea1b8139e322a1559cd1c67a5",
            "sweep stdout": "2f29c91a7ab111e677ce0a847dd9b11520c117c3fba71343938f82fde14a3f7d",
            "solve.xbar.csv": "84151366e413917a7896a9769e9dd1619c529e0c30a6f136041b9bfc2fc1b641",
            "run.report.json": "7794f6e6a9003f03b36fbc7360bd57b9cc82be5c1bc6db1ca0c61442ac8d1ee1",
            "sweep.report.json": "c00b6c622f12ea2966a6d738e449b7f077fdea9119dd2edf361863da4a8adde2",
        }),
        ("mixed_sets", {
            "run.csv": "7b3e30421c7c887b44472df0c9ab08af63c6cd5a835ba5c4c71162e4a30c4343",
            "run.svg": "fb93df0f3a9bbc7e19bda0893a166c64560218ea7ade10fdcda2dc31a302ad60",
            "sweep_k0.5.csv": "2acc2e2043ecf34722b8401dced44ded5b69a1f88cce27ebbb35981d226c9686",
            "sweep_k0.5.svg": "a2cd9f4ae853a56bdff30ade4a0d8bc99284cc2adec750a61c851262bf07cb94",
            "sweep_k2.csv": "cf8e8c3dc6c34690e5e81ee1c098b7b370c10a4872486fd138a28bf4035c28a2",
            "sweep_k2.svg": "96acc400b97950bfdd75f77bdb430764e377a6948441caf9ae9956d04407f5ff",
            "sweep_compare.svg": "a2a0d81d924d6f65119adf49d887b25a957a2089d5ccc1dfa91987a6b2389df7",
            "solve stdout": "0607499e4a2128c83e41a9b1768348577475caaf7d36196ffb4dca2b105fa55c",
            "run stdout": "15e60efedc6a66e43933e7a08823896d4f28b18122610f09deede73c4356ccf5",
            "sweep stdout": "1852dadaca1bf010710c04f47d2d065eb0f2c61998d5b136b91f1dac74217ca0",
            "solve.xbar.csv": "43a8ab789a17dbebfa0f1c0c4ecd8b35e46c334ef70682def080c37f10e299d7",
            "run.report.json": "22467b63253059f769160a9756d8e14efc1e5baf59ef63b58216ca234b6479e9",
            "sweep.report.json": "63f003803a1b667e2f1f86f775e05a94b239c8d508fbf74dca5caaf042b05337",
        }),
    ],
)
def test_bundled_scenarios_run_to_pinned_csv_bytes(
    name: str, sha256: dict, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    monkeypatch.chdir(tmp_path)
    assert run_and_sweep_sha256(SCENARIOS / f"{name}.json", "5", "1e-2", capsys) == sha256


def run_and_sweep_sha256(scenario: Path, T: str, h: str, capsys: pytest.CaptureFixture[str]) -> dict:
    """The sha256 of the stdout of solve, run and sweep --k 0.5,2 on the scenario, and of every
    file they write under out/. The prefixes are relative, so the paths they print and store do
    not depend on the working directory."""
    digests = {}
    for command in (["solve"], ["run", "--T", T, "--h", h], ["sweep", "--k", "0.5,2", "--T", T, "--h", h]):
        assert cli.main([*command, "--scenario", str(scenario), "--out", f"out/{command[0]}"]) == 0
        digests[f"{command[0]} stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in sorted(Path("out").iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_box_population_runs_to_pinned_bytes(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # the benchmark's flow-bound shape: 100 generated box agents in 1-D, 1,500
    # steps, every one recorded; the files recorded before x and sigma shared one
    # state row, the stdout, the reports and the xbar CSV before the CLI's one row writer
    doc = {"n": 1, "C": [[1.0]], "k": 0.6, "agents": {"generator": {
        "count": 100, "ell": 1.5, "linear": [0.5], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}},
        "set": {"box": {"lo": [0.25], "hi": [0.75]}}}}}
    scenario = tmp_path / "population.json"
    scenario.write_text(json.dumps(doc))
    sha256 = {
        "run.csv": "980acfb2d880a11fcb26f3ea383a244372afb96f868557d075890958b1c7bdfa",
        "run.svg": "cf1d0f77430974a42b0b5f1280dc0f277a0103383b4b4a0b8ef8462c758a0863",
        "sweep_k0.5.csv": "3b735f45f0c7fc43afff89fde10cfa77729afd9904f5ab0d8bdea126ffda7e6f",
        "sweep_k0.5.svg": "3b3746b6856dff534d8661f3adddb987cf0c81fae35a1c063867fb5c3d1c77ea",
        "sweep_k2.csv": "5ba8e2232a67eecd6711730777d2b95bb0159c04cb5c9f90f043e8fff8690632",
        "sweep_k2.svg": "9dd00aa612537f18057b4cb083697e0ef45b050232d3a8b7fb3d9b459e8f80cc",
        "sweep_compare.svg": "3de58848a29b991fdff0f93c7e0ec843bdf816de1af38fe02a150e715450487d",
        "solve stdout": "215b34dbe0bd0f445ccde08cf5fced65b2558e39199a03aa303c8bc08f037011",
        "run stdout": "27c9ea2e80a2c6579108a260b7d6703c47f4f5f814a7423985c031432a5ac911",
        "sweep stdout": "82bfc5950fad9668f822c86d96ab8efa05221f96e81b0284d7c9fdc5396a8bcb",
        "solve.xbar.csv": "a57fe3bac784bd89ec5ad486040fc81fb908f2a72a4982544fe72cbad1920e5e",
        "run.report.json": "fc46c8eef19f6439513192cad9a9c505ccc786aade28e989559ac4141ac3a5f3",
        "sweep.report.json": "e6bcfd65eceb2a28f6f0a3fcddf92ea0572a600a521118ea3c3a2eb0498d97a8",
    }
    monkeypatch.chdir(tmp_path)
    assert run_and_sweep_sha256(scenario, "6", "4e-3", capsys) == sha256


def test_solve_stops_at_first_nonfinite_update() -> None:
    # every entry is finite, but C sigma / ell overflows in the first best response
    cost, ball = QuadraticCost(1e-300, np.array([1.0]), np.array([0.0])), Ball(np.array([1.0]), 0.5)
    game = load_agents([[1e300]], 1.0, [(cost, ball)])
    with pytest.raises(ConvergenceError, match="non-finite") as excinfo:
        solve_equilibrium(game)
    assert excinfo.value.iterations == 1
    assert np.array_equal(excinfo.value.sigma_last, initial_state(game).sigma)


def test_best_responses_past_the_float_range_emit_no_warning() -> None:
    # the overflow game above: the map returns its non-finite values quietly
    cost, ball = QuadraticCost(1e-300, np.array([1.0]), np.array([0.0])), Ball(np.array([1.0]), 0.5)
    game = load_agents([[1e300]], 1.0, [(cost, ball)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not np.isfinite(aggregation_map(game, np.array([1.0]))).any()
