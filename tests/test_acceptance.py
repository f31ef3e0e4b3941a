"""Acceptance gate: nine quantitative criteria, one test per criterion.

The conftest terminal-summary hook turns each test_criterion_* result into a
CRITERION n: PASS/FAIL line at the end of the pytest output.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from aggseek import cli
from aggseek.equilibrium import (
    EquilibriumResult,
    aggregation_map,
    solve_equilibrium,
    strictly_monotone,
    vi_gap,
)
from aggseek.flow import IntegratorConfig, integrate, rhs
from aggseek.lyapunov import check_condition_5, compare_conditions, decay_report, reduced_lambda_min
from aggseek.model import GameSpec, SystemState, project_rows, pseudo_gradient_F, tangent_rows

from helpers import (
    demand_response_game,
    load_agents,
    one_row,
    random_boundaryish_point,
    random_game,
    random_point_in,
    random_set,
    small_certified_game,
)
from oracles import (
    Ball,
    Box,
    QuadraticCost,
    agents_of,
    central_difference,
    certificate_matrix,
    contains,
    grid_minimize_interval,
    local_f,
    normal_project,
    storage_inequality_check,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_criterion_1_reference_scenario_converges_faster_with_larger_gain(
    demand_game: GameSpec, demand_ref: EquilibriumResult
) -> None:
    """Each gain reaches the equilibrium within 1e-4 by T=60; settling time drops with k."""
    start = time.perf_counter()
    settle_times = []
    for k in (0.2, 0.4, 0.6):
        game = dataclasses.replace(demand_game, k=k)
        traj = integrate(
            game,
            SystemState(x=np.full((game.N, 1), 0.5), sigma=np.array([0.5])),
            IntegratorConfig(h=1e-3, T=60.0, record_every=10),
            reference=demand_ref,
        )
        assert traj.dist_avg[-1] <= 1e-4, f"k={k}: dist_avg(T) = {traj.dist_avg[-1]:.3e}"
        assert traj.dist_sigma[-1] <= 1e-4, f"k={k}: dist_sigma(T) = {traj.dist_sigma[-1]:.3e}"
        settle_times.append(cli._time_to_threshold(traj))
    assert all(np.isfinite(settle_times))
    assert settle_times[0] > settle_times[1] > settle_times[2], f"settle times {settle_times}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_gain_condition_margins_match_pinned_values() -> None:
    expected = {0.2: -0.301, 0.4: -0.102, 0.6: 0.097}
    for k, target in expected.items():
        holds, margin = check_condition_5(demand_response_game(k=k))
        assert abs(margin - target) <= 1e-12, f"k={k}: margin {margin!r}"
        assert holds == (target > 0)


def test_criterion_3_flow_and_fixed_point_routes_agree() -> None:
    """20 random monotone games: integrating and fixed-point solving land together."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for case in range(20):
        game = random_game(rng, n_choices=(1, 2), max_agents=50)
        assert strictly_monotone(game)
        ref = solve_equilibrium(game)
        traj = integrate(
            game,
            SystemState(
                x=np.stack([random_point_in(rng, s) for _, s in agents_of(game.layout)]),
                sigma=rng.uniform(0.0, 1.0, size=game.n),
            ),
            IntegratorConfig(h=1e-3, T=25.0, record_every=1000),
            reference=ref,
        )
        final = traj.final_state
        sigma_err = float(np.linalg.norm(final.sigma - ref.sigmabar))
        assert sigma_err <= 1e-4, f"case {case}: sigma error {sigma_err:.3e}"
        gap = vi_gap(game, final.x)
        assert gap <= 1e-5, f"case {case}: endpoint vi gap {gap:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_4_certified_game_obeys_exponential_envelope() -> None:
    """Positive certificate eigenvalue: W decays under the 0.599 envelope from 10 starts."""
    game = small_certified_game(7)
    cert = compare_conditions(game)
    assert abs(cert.lambda_min_symmetrized - 0.5994447869572479) <= 1e-6
    ref = solve_equilibrium(game)

    rng = np.random.default_rng(1234)
    for start_idx in range(10):
        init = SystemState(
            x=rng.uniform(0.25, 0.75, size=(game.N, 1)),
            sigma=rng.uniform(0.25, 0.75, size=1),
        )
        traj = integrate(
            game, init, IntegratorConfig(h=1e-3, T=20.0, record_every=10), reference=ref
        )
        report = decay_report(traj, cert)
        assert report.certified is True, f"start {start_idx} not certified"
        envelope = report.W0 * np.exp(-0.599 * traj.times) * 1.01
        assert np.all(traj.W <= envelope), f"start {start_idx} exceeds the 0.599 envelope"


def test_criterion_5_dense_and_reduced_eigenvalues_agree() -> None:
    """The package's reduced eigenvalue against a dense eigensolve of the whole certificate matrix."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 51))
        box = Box(np.zeros(n), np.ones(n))
        agents = [(QuadraticCost(float(rng.uniform(0.5, 3.0)), np.full(n, 0.5), np.zeros(n)), box) for _ in range(N)]
        game = load_agents(rng.normal(size=(n, n)), float(rng.uniform(0.1, 2.0)), agents)
        for variant in ("paper", "symmetrized"):
            M = certificate_matrix(game.ell_min, game.k, game.C, game.N, variant)
            dense = float(np.linalg.eigvalsh(M)[0])
            reduced = reduced_lambda_min(game, variant)
            assert abs(dense - reduced) <= 1e-10, f"{variant}: {dense!r} vs {reduced!r}"


def test_criterion_6_projection_identities_and_storage_inequality(
    demand_game: GameSpec, demand_ref: EquilibriumResult
) -> None:
    """The row kernels on one-row layouts against the normal cone and the set's definitions, and the
    flow's velocity (rhs) against the storage inequality's bound."""
    rng = np.random.default_rng(32)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        cset = random_set(rng, n)
        lay = one_row(cset)
        x = random_boundaryish_point(rng, cset)
        v = rng.normal(scale=2.0, size=n)
        pt = tangent_rows(lay, x[None], v[None])[0]
        pn = normal_project(cset, x, v)
        assert np.linalg.norm(v - (pt + pn)) <= 1e-9
        assert abs(float(pt @ pn)) <= 1e-9
        for _ in range(20):
            z = random_point_in(rng, cset)
            assert float((z - x) @ pn) <= 1e-9

        y1 = rng.normal(scale=1.5, size=n)
        y2 = rng.normal(scale=1.5, size=n)
        p1, p2 = project_rows(lay, y1[None])[0], project_rows(lay, y2[None])[0]
        assert np.linalg.norm(project_rows(lay, p1[None])[0] - p1) <= 1e-9
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-12
        assert contains(cset, p1)

    lo = np.full(demand_game.N, 0.25)
    hi = np.full(demand_game.N, 0.75)
    agents = agents_of(demand_game.layout)
    for _ in range(1000):
        x = rng.uniform(lo, hi)[:, None]
        sigma = rng.uniform(-0.5, 1.5, size=1)
        xdot, _ = rhs(demand_game, SystemState(x=x, sigma=sigma))  # its input u = -C sigma for every agent
        assert storage_inequality_check(agents, demand_game.C, x, sigma, xdot, demand_ref.xbar, demand_ref.sigmabar,
                                        slack=1e-9)


def test_criterion_7_closed_forms_match_independent_oracles() -> None:
    """Best responses (a one-agent game's aggregation map) against dense grid search; gradients (a
    decoupled one-agent game's pseudo-gradient) against central differences."""
    rng = np.random.default_rng(33)
    for _ in range(500):
        ell = float(rng.uniform(0.6, 2.5))
        cost = QuadraticCost(ell, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        if rng.random() < 0.5:
            lo = float(rng.uniform(-1.5, 0.5))
            cset: Box | Ball = Box(np.array([lo]), np.array([lo + float(rng.uniform(0.3, 1.5))]))
            lo_hi = (float(cset.lo[0]), float(cset.hi[0]))
        else:
            c = float(rng.uniform(-1.0, 1.0))
            r = float(rng.uniform(0.3, 1.0))
            cset = Ball(np.array([c]), r)
            lo_hi = (c - r, c + r)
        game = load_agents(rng.uniform(-1, 1, (1, 1)), 1.0, [(cost, cset)])
        sigma = rng.uniform(-1, 1, 1)
        shift = cost.linear[0] + float(game.C[0, 0] * sigma[0])

        def objective(zs: np.ndarray) -> np.ndarray:
            return 0.5 * ell * (zs - cost.xstar[0]) ** 2 + shift * zs

        gridded = grid_minimize_interval(objective, lo_hi[0], lo_hi[1], resolution=1e-5)
        assert abs(float(aggregation_map(game, sigma)[0]) - gridded) <= 2e-5

    for _ in range(200):
        n = int(rng.integers(1, 4))
        cost = QuadraticCost(float(rng.uniform(0.5, 3.0)), rng.normal(size=n), rng.normal(size=n))
        x = rng.normal(size=n)
        decoupled = load_agents(np.zeros((n, n)), 1.0, [(cost, Box(np.full(n, -1.0), np.full(n, 1.0)))])
        g = pseudo_gradient_F(decoupled, x)[0]
        fd = central_difference(lambda y: local_f(cost, y), x)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, float(np.linalg.norm(g)))


def test_criterion_8_halving_the_step_shrinks_the_endpoint_gap(
    demand_game: GameSpec, demand_ref: EquilibriumResult
) -> None:
    init = SystemState(x=np.full((demand_game.N, 1), 0.5), sigma=np.array([0.5]))
    # compare mid-transient: the discrete fixed point itself is h-independent
    endpoints = {}
    for h in (2e-3, 1e-3, 5e-4):
        traj = integrate(
            demand_game, init, IntegratorConfig(h=h, T=5.0, record_every=100_000),
            reference=demand_ref,
        )
        final = traj.final_state
        endpoints[h] = np.concatenate([final.x.ravel(), final.sigma])
    d_coarse = float(np.linalg.norm(endpoints[1e-3] - endpoints[2e-3]))
    d_fine = float(np.linalg.norm(endpoints[5e-4] - endpoints[1e-3]))
    assert d_fine <= 0.75 * d_coarse, f"d_fine {d_fine:.3e} vs d_coarse {d_coarse:.3e}"


def test_criterion_9_divergent_conditions_are_both_reported(
    demand_game: GameSpec, capsys: pytest.CaptureFixture[str]
) -> None:
    """The gain condition holds while the certificate matrix is indefinite; report both."""
    cert = compare_conditions(demand_game)
    assert cert.cond5_holds
    assert cert.lambda_min_symmetrized < 0
    assert abs(cert.lambda_min_symmetrized - (-3.93)) <= 0.05

    assert cli.main(["check", "--scenario", str(SCENARIOS / "demand_response.json")]) == 0
    out = capsys.readouterr().out
    pairs = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert pairs["cond5_holds"] == "true"
    assert float(pairs["lambda_min_symmetrized"]) < 0
