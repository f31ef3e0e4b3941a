"""The batched kernels against the per-agent formulas they replaced, bit for bit.

Every agent-level quantity used to be computed one agent at a time with the
scalar geometry helpers. The references below keep those loops; the property
tests demand np.array_equal, not approximate agreement, on random mixed
box/ball games with points inside each set, on its boundary and outside it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggseek.equilibrium import aggregation_map, best_response, verify_equilibrium, vi_gap
from aggseek.geometry import Ball, Box, ConvexSet, project, set_center
from aggseek.model import (
    GameSpec,
    QuadraticCost,
    SystemState,
    initial_state,
    project_state,
    pseudo_gradient_F,
)

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
def games_with_points(draw) -> tuple[GameSpec, np.ndarray, np.ndarray]:
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(1, 6))
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
    game = GameSpec(n=n, N=N, C=C, k=1.0, agents=tuple(agents))
    return game, np.array(points), draw(vec)


def scalar_best_responses(game: GameSpec, sigma: np.ndarray) -> np.ndarray:
    csig = game.C @ sigma
    return np.array([project(s, c.xstar - (csig + c.linear) / c.ell) for c, s in game.agents])


def scalar_pseudo_gradient(game: GameSpec, x: np.ndarray) -> np.ndarray:
    coupling = game.C @ x.mean(axis=0)
    return np.array(
        [c.ell * (x[i] - c.xstar) + c.linear + coupling for i, (c, _) in enumerate(game.agents)]
    )


def scalar_vi_min(cset: ConvexSet, x: np.ndarray, g: np.ndarray) -> float:
    if isinstance(cset, Box):
        return float(np.minimum((cset.lo - x) * g, (cset.hi - x) * g).sum())
    return float((cset.center - x) @ g) - cset.radius * float(np.linalg.norm(g))


def scalar_gaps(game: GameSpec, x: np.ndarray) -> np.ndarray:
    g = scalar_pseudo_gradient(game, x)
    return np.array(
        [max(0.0, -scalar_vi_min(s, x[i], g[i])) for i, (_, s) in enumerate(game.agents)]
    )


def scalar_first_outside(game: GameSpec, x: np.ndarray):
    for i, (_, s) in enumerate(game.agents):
        if np.linalg.norm(x[i] - project(s, x[i])) > 1e-9:
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(games_with_points())
def test_best_responses_and_aggregation_map_match_scalar(case) -> None:
    game, _, sigma = case
    ref = scalar_best_responses(game, sigma)
    batched = np.array([best_response(game, i, sigma) for i in range(game.N)])
    assert np.array_equal(batched, ref)
    assert np.array_equal(aggregation_map(game, sigma), ref.mean(axis=0))


@settings(max_examples=200, deadline=None)
@given(games_with_points())
def test_projection_and_pseudo_gradient_match_scalar(case) -> None:
    game, x, sigma = case
    projected = project_state(game, SystemState(x, sigma))
    assert np.array_equal(
        projected.x, np.array([project(s, x[i]) for i, (_, s) in enumerate(game.agents)])
    )
    assert np.array_equal(projected.sigma, sigma)
    assert np.array_equal(pseudo_gradient_F(game, x), scalar_pseudo_gradient(game, x))
    assert np.array_equal(initial_state(game).x, np.array([set_center(s) for _, s in game.agents]))


@settings(max_examples=200, deadline=None)
@given(games_with_points(), st.booleans())
def test_vi_gap_and_verification_match_scalar(case, feasible: bool) -> None:
    game, x, _ = case
    if feasible:
        x = project_state(game, SystemState(x, np.zeros(game.n))).x
    gaps = scalar_gaps(game, x)
    report = verify_equilibrium(game, x, tol=1e-6)
    assert report.gap == gaps.max() and report.worst_agent == int(np.argmax(gaps))
    outside = scalar_first_outside(game, x)
    if outside is None:
        assert vi_gap(game, x) == gaps.max()
    else:
        with pytest.raises(ValueError, match=f"^agent {outside} decision lies outside its set$"):
            vi_gap(game, x)
