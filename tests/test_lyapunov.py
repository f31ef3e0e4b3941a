from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggseek.equilibrium import EquilibriumResult, solve_equilibrium, vi_gap
from aggseek.flow import IntegratorConfig, Trajectory, integrate
from aggseek.flow import rhs
from aggseek.lyapunov import (
    DECAY_MAX_VI_GAP,
    CertificateReport,
    check_condition_5,
    compare_conditions,
    decay_report,
    lyapunov_W,
    reduced_lambda_min,
)
from aggseek.model import GameSpec, SystemState, initial_state, load_scenario

from helpers import (
    demand_response_doc,
    load_agents,
    random_game,
    random_point_in,
    single_agent_game,
    small_certified_game,
)
from oracles import (Box, QuadraticCost, agents_of, certificate_matrix, grad_f, mean_dynamics_abscissa,
                     storage_inequality_check)


def boxes_game(ell: float, C: float, k: float, N: int) -> GameSpec:
    cost = QuadraticCost(ell, np.array([0.5]), np.array([0.0]))
    box = Box(np.array([0.0]), np.array([1.0]))
    return load_agents([[C]], k, [(cost, box)] * N)


def dense_lambda_min(game: GameSpec, variant: str) -> float:
    """Smallest eigenvalue of the dense certificate matrix, by a symmetric eigensolve."""
    return float(np.linalg.eigvalsh(certificate_matrix(game.ell_min, game.k, game.C, game.N, variant))[0])


def storage_holds(game: GameSpec, state: SystemState, ref: EquilibriumResult) -> bool:
    """The storage inequality at state, with the flow's velocity there from rhs."""
    xdot, _ = rhs(game, state)
    return storage_inequality_check(agents_of(game.layout), game.C, state.x, state.sigma, xdot,
                                    ref.xbar, ref.sigmabar)


def synthetic_reference(n: int = 1, N: int = 1) -> EquilibriumResult:
    return EquilibriumResult(
        xbar=np.zeros((N, n)),
        sigmabar=np.zeros(n),
        iterations=0,
        final_update_norm=0.0,
        vi_gap_value=0.0,
    )


def synthetic_trajectory(times: np.ndarray, W: np.ndarray, reference: EquilibriumResult | None = None) -> Trajectory:
    # decay_report reads W and the reference it was measured against (the verified synthetic_reference unless
    # given); the states park all of W in sigma to stay consistent
    dist_sigma = np.sqrt(2.0 * W)
    m = times.shape[0]
    return Trajectory(
        times=times,
        x=np.zeros((1, 1)),
        sigma=dist_sigma[-1:],
        W=W.copy(),
        residual=np.zeros(m),
        dist_avg=np.zeros(m),
        dist_sigma=dist_sigma,
        reference=synthetic_reference() if reference is None else reference,
    )


def synthetic_certificate(lam_sym: float) -> CertificateReport:
    return CertificateReport(
        cond5_holds=True,
        cond5_margin=1.0,
        gershgorin_rhs=0.0,
        prior_holds=True,
        prior_margin=1.0,
        strictly_monotone=True,
        lambda_min_paper=lam_sym,
        lambda_min_symmetrized=lam_sym,
    )


def test_condition_margin_examples() -> None:
    holds, margin = check_condition_5(boxes_game(ell=1.5, C=1.0, k=0.6, N=100))
    assert holds and margin == pytest.approx(0.097, abs=1e-12)
    holds, margin = check_condition_5(boxes_game(ell=1.5, C=1.0, k=0.2, N=100))
    assert not holds and margin == pytest.approx(-0.301, abs=1e-12)
    holds, margin = check_condition_5(boxes_game(ell=1.5, C=1.0, k=0.4, N=100))
    assert not holds and margin == pytest.approx(-0.102, abs=1e-12)
    holds, margin = check_condition_5(boxes_game(ell=1.0, C=0.0, k=1.0, N=2))
    assert holds and margin == pytest.approx(0.75)


def test_condition_margin_nondecreasing_in_population() -> None:
    margins = [check_condition_5(boxes_game(ell=1.2, C=0.8, k=0.9, N=N))[1] for N in range(1, 11)]
    assert all(b >= a for a, b in zip(margins, margins[1:]))


def test_certificate_matrix_rejects_unknown_variant() -> None:
    game = single_agent_game()
    for variant in ("bogus", ""):
        with pytest.raises(ValueError, match="variant must be one of"):
            reduced_lambda_min(game, variant)


def test_certificate_eigenvalue_decoupled_closed_form() -> None:
    game = boxes_game(ell=1.0, C=0.0, k=1.0, N=2)
    expected = 1.0 - math.sqrt(0.125)
    for variant in ("paper", "symmetrized"):
        assert reduced_lambda_min(game, variant) == pytest.approx(expected, abs=1e-12)


def test_certificate_eigenvalue_pinned_values(demand_game: GameSpec) -> None:
    # pinned from the dense eigensolve
    assert reduced_lambda_min(demand_game, "symmetrized") == pytest.approx(-3.940330650367767, abs=1e-9)
    assert reduced_lambda_min(demand_game, "paper") == pytest.approx(-4.000089108124729, abs=1e-9)

    single = single_agent_game()
    assert reduced_lambda_min(single, "symmetrized") == pytest.approx(0.5575571099101947, abs=1e-12)
    assert reduced_lambda_min(single, "paper") == pytest.approx(0.13212201246570893, abs=1e-12)

    assert reduced_lambda_min(small_certified_game(7), "symmetrized") == pytest.approx(0.5994447869572479, abs=1e-12)


def test_reduced_route_matches_dense() -> None:
    rng = np.random.default_rng(21)
    for _ in range(30):
        game = random_game(rng, n_choices=(1, 2, 3), max_agents=40)
        for variant in ("paper", "symmetrized"):
            assert abs(reduced_lambda_min(game, variant) - dense_lambda_min(game, variant)) <= 1e-10


def test_reduced_core_matches_its_block_formula_bit_for_bit() -> None:
    # the 2n-by-2n core built here from its block formula, B written per variant
    rng = np.random.default_rng(23)
    games = [random_game(rng, n_choices=(1, 2, 3), max_agents=30, N=N) for N in (1, 1, 1, None, None, None)]
    games += [random_game(rng, n_choices=(1, 2, 3), max_agents=30) for _ in range(24)]
    for game in games:
        n, N, ell, k, C = game.n, game.N, game.ell_min, game.k, game.C
        for variant in ("paper", "symmetrized"):
            if variant == "paper":
                B = -0.5 * (C + (k / N) * np.eye(n))
            else:
                B = 0.5 * (C - (k / N) * np.eye(n))
            core = np.block([[ell * np.eye(n), np.sqrt(N) * B], [np.sqrt(N) * B.T, k * np.eye(n)]])
            core_min = float(np.linalg.eigvalsh(core)[0])
            assert reduced_lambda_min(game, variant) == (core_min if N == 1 else min(ell, core_min))


def test_certificate_eigenvalue_lower_bound() -> None:
    rng = np.random.default_rng(22)
    for _ in range(40):
        game = random_game(rng, n_choices=(1, 2), max_agents=30)
        for variant in ("paper", "symmetrized"):
            sign = -0.5 if variant == "paper" else 0.5
            B = sign * (game.C + (-1 if variant == "symmetrized" else 1) * (game.k / game.N) * np.eye(game.n))
            bound = min(game.ell_min, game.k) - math.sqrt(game.N) * float(np.linalg.norm(B, 2))
            assert reduced_lambda_min(game, variant) >= bound - 1e-12


def test_compare_conditions_demand_scenario(demand_game: GameSpec) -> None:
    report = compare_conditions(demand_game)
    assert report.cond5_holds
    assert report.cond5_margin == pytest.approx(0.097, abs=1e-12)
    assert report.gershgorin_rhs == pytest.approx(0.503, abs=1e-12)
    assert report.prior_holds
    assert report.prior_margin == pytest.approx(0.5, abs=1e-12)
    assert report.strictly_monotone
    assert report.lambda_min_symmetrized < 0


def test_compare_conditions_separates_old_and_new() -> None:
    # weaker curvature: the spectral prior fails while the gain condition holds
    report = compare_conditions(boxes_game(ell=0.9, C=1.0, k=0.6, N=100))
    assert not report.prior_holds
    assert report.prior_margin == pytest.approx(-0.1, abs=1e-12)
    assert report.cond5_holds
    assert report.cond5_margin == pytest.approx(0.097, abs=1e-12)


def test_compare_conditions_flags_nonmonotone_coupling() -> None:
    game = single_agent_game()
    loose = dataclasses.replace(game, C=np.array([[-2.0]]))
    report = compare_conditions(loose)
    assert not report.strictly_monotone


def test_condition_5_holds_where_the_flow_diverges() -> None:
    # condition 5 is not sufficient: here it holds (margin 0.041), the game is
    # strictly monotone, and the mean dynamics are unstable all the same
    n, ell, k, C = 2, 0.92, 2.5, np.array([[-0.82, -0.92], [0.93, -0.73]])
    game = load_scenario(json.dumps({"n": n, "C": C.tolist(), "k": k, "agents": {"generator": {
        "count": 137, "ell": ell, "linear": [0.0, 0.0], "xstar": {"uniform": {"lo": -1.0, "hi": 1.0, "seed": 1}},
        "set": {"box": {"lo": [-10.0, -10.0], "hi": [10.0, 10.0]}}}}}))
    report = compare_conditions(game)
    assert report.cond5_holds and report.strictly_monotone
    assert mean_dynamics_abscissa(ell, k, C) > 0  # +0.0236
    # the interior fixed point, solved directly, so the check does not rest on the solver
    sigmabar = np.linalg.solve(np.eye(n) + C / ell, game.layout.xstar.mean(axis=0))
    xbar = game.layout.xstar - (C @ sigmabar) / ell
    assert np.all(np.abs(xbar) < 10)
    ref = EquilibriumResult(xbar, sigmabar, 0, 0.0, 0.0)
    cfg = IntegratorConfig(h=1e-2, T=100.0, record_every=100)
    traj = integrate(game, SystemState(xbar + 0.01, sigmabar + 0.01), cfg, reference=ref)
    assert traj.dist_sigma[-1] >= 10 * traj.dist_sigma[0]  # 0.0141 -> 0.178


def one_ell_game(N: int, ell: float, k: float, C: np.ndarray) -> GameSpec:
    """N generated agents with the one curvature ell, in the box [-1, 1]^n."""
    n = C.shape[0]
    return load_scenario(json.dumps({"n": n, "C": C.tolist(), "k": k, "agents": {"generator": {
        "count": N, "ell": ell, "linear": [0.0] * n, "xstar": {"uniform": {"lo": -1.0, "hi": 1.0, "seed": 1}},
        "set": {"box": {"lo": [-1.0] * n, "hi": [1.0] * n}}}}}))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.floats(0.2, 2.0), st.floats(0.1, 5.0),
       st.integers(1, 3).flatmap(lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)))
@example(5, 1.5, 0.6, [0.1])  # small_certified_game's certificate
@example(1, 1.0, 0.1, [0.9])  # the prior holds; the symmetrized eigenvalue is negative
def test_a_certified_game_has_stable_mean_dynamics(N: int, ell: float, k: float, entries: list[float]) -> None:
    # both certificates are sound on one-ell games: ell > ‖C‖₂ (a positive prior_margin) and a positive
    # symmetrized eigenvalue each imply strict monotonicity, so one equilibrium, and a negative abscissa
    n = math.isqrt(len(entries))
    C = np.array(entries).reshape(n, n)
    cert = compare_conditions(one_ell_game(N, ell, k, C))
    for certified in (cert.prior_margin > 0, cert.lambda_min_symmetrized > 0):
        if certified:
            assert cert.strictly_monotone
            assert mean_dynamics_abscissa(ell, k, C) < 0


def test_the_prior_at_margin_zero_certifies_nothing() -> None:
    # prior_holds reads ell >= ‖C‖₂, and at equality it proves neither claim: C = -ell makes
    # ell + ½λmin(C + Cᵀ) = 0 and gives the mean dynamics an eigenvalue 0
    C = np.array([[-1.0]])
    cert = compare_conditions(one_ell_game(1, 1.0, 1.0, C))
    assert cert.prior_holds and cert.prior_margin == 0.0 and not cert.strictly_monotone
    assert mean_dynamics_abscissa(1.0, 1.0, C) == pytest.approx(0.0, abs=1e-15)


def test_lambda_min_paper_certifies_neither_uniqueness_nor_stability() -> None:
    # one agent, ell = 1, C = -1.5, k = 1.5: the paper variant's off-diagonal block is ½(1.5 - 1.5) = 0, so its
    # eigenvalue is ell = 1, yet the game is not strictly monotone and has three equilibria
    cost, box = QuadraticCost(1.0, np.array([0.5]), np.array([0.0])), Box(np.array([-10.0]), np.array([10.0]))
    game = load_agents([[-1.5]], 1.5, [(cost, box)])
    cert = compare_conditions(game)
    assert cert.lambda_min_paper == 1.0 and not cert.strictly_monotone
    for x in (-10.0, -1.0, 10.0):
        assert vi_gap(game, np.array([[x]])) == 0.0
    # the middle one repels: the flow from either side of it ends at an end of the box
    for start, end in ((-1.5, -10.0), (-0.5, 10.0)):
        traj = integrate(game, SystemState(np.array([[start]]), np.array([start])), IntegratorConfig(h=1e-2, T=60.0))
        assert traj.x[0, 0] == pytest.approx(end, abs=1e-9) and traj.sigma[0] == pytest.approx(end, abs=1e-9)


def test_a_core_past_the_float_range_certifies_nothing() -> None:
    # C = 1e308 on the demand-response population: sqrt(N) B overflows, and the core
    # [[1.5, 5e308], [5e308, 0.6]] has its smallest eigenvalue near -5e308, so neither variant is positive
    game = load_scenario(json.dumps({**json.loads(demand_response_doc()), "C": [[1e308]]}))
    cert = compare_conditions(game)
    assert not cert.lambda_min_paper > 0 and not cert.lambda_min_symmetrized > 0
    ref = solve_equilibrium(game)
    traj = integrate(game, initial_state(game), IntegratorConfig(h=1e-2, T=20.0), reference=ref)
    report = decay_report(traj, cert)
    assert report is not None and report.certificate_rate is None and report.certified is None


def test_lyapunov_value_examples(single_game: GameSpec, single_ref: EquilibriumResult) -> None:
    at_ref = SystemState(x=single_ref.xbar.copy(), sigma=single_ref.sigmabar.copy())
    assert lyapunov_W(single_game, at_ref, single_ref) == 0.0
    off = SystemState(x=np.array([[0.5]]), sigma=np.array([0.5]))
    assert lyapunov_W(single_game, off, single_ref) == pytest.approx(0.0625)
    twice = SystemState(x=np.array([[0.75]]), sigma=np.array([0.75]))
    assert lyapunov_W(single_game, twice, single_ref) == pytest.approx(4 * 0.0625)


def test_storage_inequality_at_equilibrium_input(
    demand_game: GameSpec, demand_ref: EquilibriumResult
) -> None:
    # sigma = sigmabar: the input u = -C sigma is the equilibrium's
    rng = np.random.default_rng(23)
    sets = [s for _, s in agents_of(demand_game.layout)]
    for _ in range(20):
        x = np.stack([random_point_in(rng, s) for s in sets])
        assert storage_holds(demand_game, SystemState(x=x, sigma=demand_ref.sigmabar.copy()), demand_ref)


def test_storage_inequality_active_bound(single_ref: EquilibriumResult) -> None:
    game = single_agent_game()
    state = SystemState(x=np.array([[0.25]]), sigma=np.array([0.5]))  # u = -C sigma = -0.5
    assert storage_holds(game, state, single_ref)


def test_storage_inequality_random_inputs() -> None:
    rng = np.random.default_rng(24)
    for _ in range(30):
        game = random_game(rng, max_agents=6)
        ref = solve_equilibrium(game)
        agents = agents_of(game.layout)
        for _ in range(10):
            x = np.stack([random_point_in(rng, s) for _, s in agents])
            # C is at most 0.15 / n per entry, so the input u = -C sigma is of order 1
            state = SystemState(x=x, sigma=rng.normal(scale=20.0, size=game.n))
            assert storage_holds(game, state, ref)


def test_storage_inequality_sign_is_load_bearing() -> None:
    # flipping the input difference on the right-hand side breaks the inequality
    game = single_agent_game(lo=-10.0, hi=10.0)
    ref = solve_equilibrium(game)
    x = ref.xbar + 0.5
    ubar = -(game.C @ ref.sigmabar)
    u = ubar + 1.0
    state = SystemState(x=x, sigma=ref.sigmabar - 1.0)  # C = 1: u = -C sigma = ubar + 1

    assert storage_holds(game, state, ref)

    (cost, _), = agents_of(game.layout)
    dx = (x - ref.xbar)[0]
    gx = grad_f(cost, x[0])
    gxbar = grad_f(cost, ref.xbar[0])
    lhs = float(dx @ rhs(game, state)[0][0])
    flipped_rhs = -float(dx @ (gx - gxbar + u - ubar))
    assert lhs > flipped_rhs + 1e-9


def test_decay_report_certified_run() -> None:
    game = small_certified_game(7)
    ref = solve_equilibrium(game)
    cert = compare_conditions(game)
    assert cert.lambda_min_symmetrized > 0
    traj = integrate(game, initial_state(game), IntegratorConfig(h=1e-3, T=10.0, record_every=100), reference=ref)
    report = decay_report(traj, cert)
    assert report.W0 > 0
    assert report.monotone
    assert report.certificate_rate == pytest.approx(cert.lambda_min_symmetrized)
    assert report.certified is True
    assert report.fitted_rate > cert.lambda_min_symmetrized


def test_decay_report_exact_equilibrium_start() -> None:
    cost_a = QuadraticCost(1.0, np.array([0.4]), np.array([0.0]))
    cost_b = QuadraticCost(1.0, np.array([0.6]), np.array([0.0]))
    box = Box(np.array([0.0]), np.array([1.0]))
    game = load_agents(np.zeros((1, 1)), 1.0, [(cost_a, box), (cost_b, box)])
    ref = solve_equilibrium(game)
    assert np.array_equal(ref.xbar, np.array([[0.4], [0.6]]))
    cert = compare_conditions(game)
    init = SystemState(x=ref.xbar.copy(), sigma=ref.sigmabar.copy())
    traj = integrate(game, init, IntegratorConfig(h=0.01, T=0.1), reference=ref)
    report = decay_report(traj, cert)
    assert report.W0 == 0.0
    assert report.monotone
    assert math.isnan(report.fitted_rate)
    assert report.certified is True


def test_decay_report_fitted_rate_recovers_synthetic_slope() -> None:
    times = np.linspace(0.0, 5.0, 200)
    rho = 0.8
    W = 0.3 * np.exp(-rho * times)
    traj = synthetic_trajectory(times, W)
    report = decay_report(traj, synthetic_certificate(0.5))
    assert report.fitted_rate == pytest.approx(rho, rel=1e-6)
    assert report.monotone
    assert report.certified is True

    # a certificate rate faster than the actual decay must fail the envelope
    report_fast = decay_report(traj, synthetic_certificate(1.5))
    assert report_fast.certified is False


def test_decay_report_full_window_fallback_when_never_halving() -> None:
    times = np.linspace(0.0, 1.0, 50)
    rho = 0.05
    W = 1.0 * np.exp(-rho * times)
    assert W[-1] > 0.5 * W[0]
    report = decay_report(synthetic_trajectory(times, W), synthetic_certificate(0.01))
    assert report.fitted_rate == pytest.approx(rho, rel=1e-6)


def test_decay_report_fits_one_window_only() -> None:
    # W reaches 0 at the second sample, which ends the window: one positive sample there, so no rate,
    # and no refit across the zero over the samples after it
    W = np.array([1.0, 0.0, *(0.5 * 0.9 ** np.arange(10))])
    report = decay_report(synthetic_trajectory(np.linspace(0.0, 1.1, 12), W), synthetic_certificate(0.1))
    assert math.isnan(report.fitted_rate)


def test_decay_report_does_not_judge_a_run_whose_w_overflowed() -> None:
    # x0 = 0 and xbar = 1e200: half their squared distance is past the float range, so every W is inf,
    # and an envelope of W0 = inf would pass every sample
    game = load_agents([[0.0]], 1.0, [(QuadraticCost(1.0, np.array([1e200]), np.array([0.0])),
                                       Box(np.array([-1e300]), np.array([1e300])))])
    ref = solve_equilibrium(game)
    assert ref.vi_gap_value == 0.0 and compare_conditions(game).lambda_min_symmetrized > 0
    traj = integrate(game, initial_state(game), IntegratorConfig(h=1e-2, T=20.0), reference=ref)
    assert len(traj) == 2001 and np.all(traj.W == np.inf)
    assert decay_report(traj, compare_conditions(game)) is None


def test_decay_report_skips_certificate_when_uncertified(demand_game: GameSpec) -> None:
    ref = solve_equilibrium(demand_game)
    cert = compare_conditions(demand_game)
    assert cert.lambda_min_symmetrized < 0
    traj = integrate(demand_game, initial_state(demand_game), IntegratorConfig(h=1e-3, T=1.0, record_every=10), reference=ref)
    report = decay_report(traj, cert)
    assert report.certificate_rate is None
    assert report.certified is None
    assert report.W0 > 0


def test_decay_report_guards() -> None:
    times = np.linspace(0.0, 1.0, 20)
    W = np.exp(-times)
    bad_ref = dataclasses.replace(synthetic_reference(), vi_gap_value=1e-3)
    cert = synthetic_certificate(0.1)
    # a reference not verified (a NaN gap included), or fewer than DECAY_MIN_SAMPLES = 10 samples: no report
    assert decay_report(synthetic_trajectory(times, W, bad_ref), cert) is None
    assert decay_report(synthetic_trajectory(times, W, dataclasses.replace(bad_ref, vi_gap_value=np.nan)), cert) is None
    assert decay_report(synthetic_trajectory(times[:9], W[:9]), cert) is None
    assert decay_report(synthetic_trajectory(times[:10], W[:10]), cert) is not None

    game = small_certified_game(7)
    bare = integrate(game, initial_state(game), IntegratorConfig(h=1e-2, T=1.0))
    with pytest.raises(ValueError, match="without a reference"):
        decay_report(bare, compare_conditions(game))


def test_decay_report_judges_w_only_against_the_reference_it_was_measured_against() -> None:
    # W measured against a reference off the fixed point is not judged, even with a verified solve at hand:
    # the verdict reads the reference off the trajectory, so the two cannot be paired apart
    game = small_certified_game(7)
    ref = solve_equilibrium(game)
    xbar = np.clip(ref.xbar + 0.3, 0.25, 0.75)
    off = dataclasses.replace(ref, xbar=xbar, sigmabar=xbar.mean(axis=0), vi_gap_value=vi_gap(game, xbar))
    assert off.vi_gap_value > 0.2 and ref.vi_gap_value <= DECAY_MAX_VI_GAP
    cfg = IntegratorConfig(h=1e-3, T=10.0, record_every=100)
    traj = integrate(game, initial_state(game), cfg, reference=off)
    assert traj.reference is off
    assert decay_report(traj, compare_conditions(game)) is None
    assert decay_report(integrate(game, initial_state(game), cfg, reference=ref), compare_conditions(game)) is not None
