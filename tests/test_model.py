from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import operator
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggseek.equilibrium import ConvergenceError, EquilibriumResult, solve_equilibrium
from aggseek.lyapunov import lyapunov_W
from aggseek.model import (
    GameLayout,
    GameSpec,
    RuleError,
    ScenarioError,
    SystemState,
    initial_state,
    load_scenario,
    project_state,
    pseudo_gradient_F,
    splitmix64,
    state_arrays,
)

from helpers import demand_response_doc, load_agents, random_game, single_agent_game
from oracles import Ball, Box, QuadraticCost, central_difference, grad_f, local_f, splitmix64_reference


def local_gradient(cost: QuadraticCost, x: np.ndarray) -> np.ndarray:
    """pseudo_gradient_F of the decoupled one-agent game of cost at x: the agent's local gradient."""
    n = cost.xstar.shape[0]
    game = load_agents(np.zeros((n, n)), 1.0, [(cost, Box(np.full(n, -1.0), np.full(n, 1.0)))])
    return pseudo_gradient_F(game, x)[0]


def test_grad_vanishes_at_minimizer() -> None:
    cost = QuadraticCost(1.5, np.array([0.4]), np.array([0.0]))
    assert local_gradient(cost, np.array([0.4])) == pytest.approx([0.0])


def test_grad_closed_form_scalar() -> None:
    cost = QuadraticCost(1.5, np.array([0.4]), np.array([0.5]))
    assert local_gradient(cost, np.array([1.0])) == pytest.approx([1.4])


def test_grad_closed_form_vector() -> None:
    cost = QuadraticCost(2.0, np.zeros(2), np.array([1.0, -1.0]))
    assert local_gradient(cost, np.array([1.0, 1.0])) == pytest.approx([3.0, 1.0])


def test_grad_matches_central_differences() -> None:
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cost = QuadraticCost(
            ell=float(rng.uniform(0.5, 3.0)),
            xstar=rng.normal(size=n),
            linear=rng.normal(size=n),
        )
        x = rng.normal(size=n)
        g = local_gradient(cost, x)
        fd = central_difference(lambda y: local_f(cost, y), x)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, float(np.linalg.norm(g)))


def test_gradient_quadratic_exactness() -> None:
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        cost = QuadraticCost(float(rng.uniform(0.5, 3.0)), rng.normal(size=n), rng.normal(size=n))
        x = rng.normal(size=n)
        h = rng.normal(size=n)
        t = float(rng.uniform(1e-6, 1e-4))
        lhs = abs(local_f(cost, x + t * h) - local_f(cost, x) - t * float(local_gradient(cost, x) @ h))
        assert lhs <= cost.ell * t * t * float(h @ h) + 1e-12


def test_strong_convexity_of_gradient() -> None:
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        cost = QuadraticCost(float(rng.uniform(0.5, 3.0)), rng.normal(size=n), rng.normal(size=n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        inner = float((local_gradient(cost, x) - local_gradient(cost, y)) @ (x - y))
        assert inner >= cost.ell * float((x - y) @ (x - y)) - 1e-12


def test_pseudo_gradient_examples() -> None:
    mk = lambda xs: QuadraticCost(1.0, np.array([xs]), np.array([0.0]))
    box = Box(np.array([-5.0]), np.array([5.0]))
    game = load_agents([[1.0]], 1.0, [(mk(0.0), box), (mk(0.0), box)])
    F = pseudo_gradient_F(game, np.array([[1.0], [-1.0]]))
    assert F == pytest.approx(np.array([[1.0], [-1.0]]))

    agents = [(mk(0.2), box), (mk(0.6), box)]
    game2 = load_agents([[0.0]], 1.0, agents)
    x = np.array([[0.9], [0.1]])
    F2 = pseudo_gradient_F(game2, x)
    expected = np.stack([grad_f(cost, x[i]) for i, (cost, _) in enumerate(agents)])
    assert F2 == pytest.approx(expected)

    game3 = load_agents([[1.0]], 1.0, agents)
    F3 = pseudo_gradient_F(game3, np.array([[0.2], [0.6]]))
    assert F3 == pytest.approx(np.array([[0.4], [0.4]]))


def test_splitmix64_matches_reference_stream() -> None:
    mine = splitmix64(42, 64).tolist()
    assert mine == splitmix64_reference(42, 64)
    assert splitmix64(0, 8).tolist() == splitmix64_reference(0, 8)


def test_splitmix64_pinned_values() -> None:
    first = splitmix64(42, 3)
    assert first[0] == pytest.approx(0.7415648787718234, abs=0.0)
    assert first[1] == pytest.approx(0.15991039287692013, abs=0.0)
    assert first[2] == pytest.approx(0.2786011302551388, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 12345, 2**64 - 1])
def test_splitmix64_closed_form_matches_recurrence(seed: int) -> None:
    draws = splitmix64(seed, 200_000)
    assert draws.dtype == np.float64
    assert np.all(draws == np.array(splitmix64_reference(seed, 200_000)))


def test_splitmix64_unbounded_stream_continues_the_closed_form() -> None:
    stream = splitmix64(2**64 - 1)
    assert [next(stream) for _ in range(10_000)] == splitmix64_reference(2**64 - 1, 10_000)


def test_load_generator_scenario() -> None:
    game = load_scenario(demand_response_doc())
    assert game.N == 100 and game.n == 1
    assert game.seed == 42
    assert game.k == 0.6
    assert game.ell_min == 1.5
    lay = game.layout
    # first generated target comes straight from the documented stream
    assert float(lay.xstar[0, 0]) == 0.7415648787718234
    assert np.all((0.0 <= lay.xstar) & (lay.xstar < 1.0))
    # every agent a box row: finite bounds, an infinite radius
    assert lay.ball_rows.size == 0 and np.all(lay.radius == np.inf)
    assert np.all(lay.lo == 0.25) and np.all(lay.hi == 0.75)


def test_load_scenario_deterministic_bitwise() -> None:
    doc = demand_response_doc()
    a, b = load_scenario(doc).layout, load_scenario(doc).layout
    assert np.array_equal(a.xstar, b.xstar)
    assert np.array_equal(a.linear, b.linear)


def _layout_fields(game: GameSpec) -> dict:
    lay = game.layout
    return {f.name: getattr(lay, f.name) for f in dataclasses.fields(lay)}


@pytest.mark.parametrize("set_doc", [
    {"box": {"lo": [0.25, -1.0], "hi": [0.75, 1.0]}},
    {"ball": {"center": [0.5, 0.0], "radius": 0.3}},
])
def test_generated_layout_equals_its_explicit_list(set_doc: dict) -> None:
    block = {"count": 7, "ell": 1.5, "linear": [0.5, -0.25],
             "xstar": {"uniform": {"lo": -1.0, "hi": 2.0, "seed": 2**64 - 3}}, "set": set_doc}
    generated = load_scenario(json.dumps({"n": 2, "C": np.eye(2).tolist(), "k": 0.6,
                                          "agents": {"generator": block}}))
    draws = -1.0 + 3.0 * np.array(splitmix64_reference(2**64 - 3, 14)).reshape(7, 2)
    entries = [{"ell": 1.5, "xstar": row.tolist(), "linear": [0.5, -0.25], "set": set_doc} for row in draws]
    listed = load_scenario(json.dumps({"n": 2, "C": np.eye(2).tolist(), "k": 0.6,
                                       "agents": {"list": entries}}))
    want = _layout_fields(listed)
    got = _layout_fields(generated)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype and np.array_equal(got[name], value), name
    assert generated.seed == 2**64 - 3 and listed.seed is None


def _init_rows(lay: GameLayout) -> dict:
    return {f.name: getattr(lay, f.name) for f in dataclasses.fields(lay) if f.init}


def test_tile_stacks_every_row_of_each_copy() -> None:
    game = random_game(np.random.default_rng(5), n_choices=(2,), N=9)
    lay, B, N = game.layout, 3, game.N
    assert 0 < lay.ball_rows.size < N
    tiled = lay.tile(B)
    for name, rows in _init_rows(lay).items():
        assert np.array_equal(getattr(tiled, name), np.concatenate([rows] * B)), name
    # the derived rows are those of the stacked rows: ball_rows holds flat indices b*N + i
    assert np.array_equal(tiled.ball_rows, np.concatenate([lay.ball_rows + b * N for b in range(B)]))
    assert np.array_equal(tiled.ball_center, np.concatenate([lay.ball_center] * B))
    assert np.array_equal(tiled.ball_radius, np.concatenate([lay.ball_radius] * B))
    assert np.array_equal(tiled.neg_ell, np.concatenate([lay.neg_ell] * B))
    assert all(not rows.flags.writeable for rows in vars(tiled).values())
    assert lay.tile(1) is lay


@pytest.mark.parametrize("set_doc", [{"box": {"lo": [0.25, -1.0], "hi": [0.75, 1.0]}},
                                     {"ball": {"center": [0.5, 0.0], "radius": 0.3}}])
def test_generated_rows_repeat_the_one_agent(set_doc: dict) -> None:
    agent = {"ell": 1.5, "linear": [0.5, -0.25], "set": set_doc}
    block = {**agent, "count": 6, "xstar": {"uniform": {"lo": -1.0, "hi": 2.0, "seed": 3}}}
    head = {"n": 2, "C": np.eye(2).tolist(), "k": 0.6}
    generated = load_scenario(json.dumps({**head, "agents": {"generator": block}})).layout
    one = load_scenario(json.dumps({**head, "agents": {"list": [{**agent, "xstar": [0.0, 0.0]}]}})).layout
    draws = -1.0 + 3.0 * np.array(splitmix64_reference(3, 12)).reshape(6, 2)  # in index order
    want = {name: np.repeat(rows, 6, axis=0) for name, rows in _init_rows(one).items()} | {"xstar": draws}
    for name, rows in want.items():
        got = getattr(generated, name)
        assert (got.dtype, got.shape, got.tobytes()) == (rows.dtype, rows.shape, rows.tobytes()), name


def _three_rows() -> dict:
    """The rows of three agents in 2-D: a box, a ball and a box."""
    inf = np.inf
    return dict(ell=np.array([1.0, 2.0, 3.0]), xstar=np.zeros((3, 2)), linear=np.zeros((3, 2)),
                lo=np.array([[0.0, 0.0], [-inf, -inf], [-1.0, -1.0]]), hi=np.array([[1.0, 1.0], [inf, inf], [1.0, 1.0]]),
                center=np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]]), radius=np.array([inf, 1.0, inf]))


def _poison(name: str, index, value) -> dict:
    rows = _three_rows()
    rows[name][index] = value
    return rows


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        (_poison("ell", 1, 0.0), "agent 1: ell must be positive and finite, got 0.0"),
        (_poison("ell", 2, np.nan), "agent 2: ell must be positive and finite, got nan"),
        (_poison("xstar", (2, 1), np.nan), "agent 2: xstar must be finite"),
        (_poison("linear", (0, 0), -np.inf), "agent 0: linear must be finite"),
        (_poison("center", (1, 0), np.inf), "agent 1: set center must be finite"),
        (_poison("lo", (2, 0), -np.inf), "agent 2: box bounds must be finite"),
        (_poison("hi", (0, 1), np.nan), "agent 0: box bounds must be finite"),
        (_poison("lo", (2, 1), 2.0), "agent 2: box is empty: lo > hi componentwise"),
        (_poison("radius", 1, 0.0), "agent 1: ball radius must be positive and finite"),
        (_poison("radius", 1, np.nan), "agent 1: ball radius must be positive and finite"),
        (_poison("radius", 2, -np.inf), "agent 2: ball radius must be positive and finite"),
        (_poison("lo", (1, 0), 0.0), "agent 1: ball bounds must be infinite"),
        # finite bounds whose midpoint overflows leave a box row's center infinite
        (_poison("center", (0, 0), np.inf), "agent 0: set center must be finite"),
        # the first agent of the first fault found is named
        ({**_poison("ell", 2, -1.0), "linear": np.array([[0.0, 0.0], [0.0, np.nan], [0.0, np.nan]])},
         "agent 2: ell must be positive and finite, got -1.0"),
        (_poison("radius", (slice(1, None)), 0.0), "agent 1: ball radius must be positive and finite"),
        ({**_three_rows(), "ell": np.ones(2)}, "rows must be arrays of shape (N,) for ell and radius"),
        ({**_three_rows(), "radius": np.full((3, 1), np.inf)}, "rows must be arrays of shape"),
        ({**_three_rows(), "xstar": np.zeros(3)}, "rows must be arrays of shape"),
        ({**_three_rows(), "center": [[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]]}, "rows must be arrays of shape"),
        ({name: rows[:0] for name, rows in _three_rows().items()}, "N, n >= 1"),
    ],
)
def test_layout_rejects_bad_rows(rows: dict, message: str) -> None:
    GameLayout(**_three_rows())
    with pytest.raises(ValueError, match=re.escape(message)):
        GameLayout(**rows)


# each agent rule broken once through a layout row (agent 0 and 2 are boxes, agent 1 a ball): one RuleError,
# whose row, field and rule the loader turns into a JSON path, and one wording, "agent i: ", the field in
# words, the rule
@pytest.mark.parametrize(
    ("rows", "agent", "field", "rule"),
    [
        (_poison("ell", 1, -1.0), 1, "ell", "must be positive and finite, got -1.0"),
        (_poison("xstar", (2, 1), np.nan), 2, "xstar", "must be finite"),
        (_poison("linear", (0, 0), np.inf), 0, "linear", "must be finite"),
        (_poison("lo", (2, 1), -np.inf), 2, "set.box", "bounds must be finite"),
        (_poison("lo", (0, 1), 2.0), 0, "set.box", "is empty: lo > hi componentwise"),
        (_poison("center", (1, 1), np.nan), 1, "set", "center must be finite"),
        # a box row's center, infinite where finite bounds have a midpoint past the float range
        (_poison("center", (0, 0), np.inf), 0, "set", "center must be finite"),
        (_poison("radius", 1, 0.0), 1, "set.ball.radius", "must be positive and finite"),
        (_poison("radius", 1, np.nan), 1, "set.ball.radius", "must be positive and finite"),
        (_poison("lo", (1, 0), 0.0), 1, "set.ball", "bounds must be infinite"),
    ],
)
def test_sets_costs_and_layout_rows_word_each_rule_alike(rows: dict, agent: int, field: str, rule: str) -> None:
    words = {"set.box": "box", "set.ball": "ball", "set.ball.radius": "ball radius"}.get(field, field)
    with pytest.raises(RuleError) as row:
        GameLayout(**rows)
    assert (row.value.row, row.value.field, row.value.rule) == (agent, field, rule)
    assert str(row.value) == f"agent {agent}: {words} {rule}"


def test_every_way_to_build_a_layout_checks_its_rows() -> None:
    game = single_agent_game()
    with pytest.raises(ValueError, match=re.escape("agent 0: xstar must be finite")):
        dataclasses.replace(game.layout, xstar=np.array([[np.nan]]))
    with pytest.raises(ValueError, match=re.escape("agent 0: ell must be positive and finite, got -1.5")):
        GameSpec(game.C, game.k, layout=GameLayout(**{**_init_rows(game.layout), "ell": np.array([-1.5])}))
    # a generator whose hi - lo overflows would draw infinite targets: the loader names the range
    doc = json.loads(demand_response_doc(count=3))
    doc["agents"]["generator"]["xstar"]["uniform"].update(lo=-1e308, hi=1e308)
    message = "agents.generator.xstar.uniform must have a finite hi - lo, got lo -1e+308, hi 1e+308"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(json.dumps(doc))


# integer literals, -0.0 and floats; an unlisted key holds a number or a list of numbers
_LITERALS = st.one_of(st.integers(-3, 3), st.just(-0.0), st.floats(-2.0, 2.0))
_UNLISTED = st.dictionaries(st.just("note"), st.one_of(_LITERALS, st.lists(_LITERALS, max_size=2)), max_size=1)


@st.composite
def _list_documents(draw) -> dict:
    """A valid list document of random boxes and balls, with integer literals, -0.0 and unlisted keys."""
    n = draw(st.integers(1, 3))
    vector = st.lists(_LITERALS, min_size=n, max_size=n)
    positive = st.one_of(st.integers(1, 4), st.floats(0.125, 4.0))
    agents = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            lo = draw(vector)
            kind, body = "box", {"lo": lo, "hi": [a + w for a, w in zip(lo, draw(st.lists(
                st.one_of(st.integers(0, 2), st.floats(0.0, 2.0)), min_size=n, max_size=n)))]}
        else:
            kind, body = "ball", {"center": draw(vector), "radius": draw(positive)}
        agents.append({"ell": draw(positive), "xstar": draw(vector), "linear": draw(vector),
                       "set": {kind: {**body, **draw(_UNLISTED)}, **draw(_UNLISTED)}, **draw(_UNLISTED)})
    return {"n": n, "C": np.eye(n).tolist(), "k": 1, "agents": {"list": agents}}


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(_list_documents())
def test_loaded_rows_equal_the_rows_of_the_agents_as_objects(doc: dict) -> None:
    agents = []
    for a in doc["agents"]["list"]:
        s = a["set"]
        cset = Box(s["box"]["lo"], s["box"]["hi"]) if "box" in s else Ball(s["ball"]["center"], s["ball"]["radius"])
        agents.append((QuadraticCost(a["ell"], a["xstar"], a["linear"]), cset))
    lay, N, n = load_scenario(json.dumps(doc)).layout, len(agents), doc["n"]
    for f in dataclasses.fields(GameLayout):
        got = getattr(lay, f.name)
        assert got.dtype == (np.intp if f.name == "ball_rows" else float), f.name
    assert lay.ball_rows.tolist() == [i for i, (_, cset) in enumerate(agents) if isinstance(cset, Ball)]
    # a box row has an infinite radius, a ball row infinite bounds; every row the set's center
    inf = np.full(n, np.inf)
    for i, (cost, cset) in enumerate(agents):
        bounds = (cset.lo, cset.hi, np.inf) if isinstance(cset, Box) else (-inf, inf, cset.radius)
        want = [cost.ell, cost.xstar, cost.linear, *bounds, cset.center]
        got = [getattr(lay, name)[i] for name in ("ell", "xstar", "linear", "lo", "hi", "radius", "center")]
        assert [_bits(a) for a in got] == [_bits(a) for a in want], i
    assert lay.xstar.shape == lay.center.shape == (N, n) and lay.radius.shape == (N,)


def test_replace_gain_shares_the_read_only_layout() -> None:
    game = load_scenario(demand_response_doc())
    faster = dataclasses.replace(game, k=2.0)
    assert faster.k == 2.0 and faster.layout is game.layout
    # the shared rows are read-only
    with pytest.raises(ValueError, match="read-only"):
        faster.layout.xstar[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        game.layout.lo[0, 0] = 0.0


def test_games_that_share_c_cannot_change_each_other() -> None:
    game = single_agent_game()  # C = [[1]]
    with pytest.raises(ValueError, match="read-only"):
        dataclasses.replace(game, k=2.0).C[0, 0] = 99.0
    assert game.C[0, 0] == 1.0
    # a game holds its own copy: the caller's array stays writable, and writing to it changes no game
    C = np.array([[1.0]])
    spec = GameSpec(C, 0.6, game.layout)
    C[0, 0] = 99.0
    assert spec.C[0, 0] == 1.0


def test_public_functions_run_without_warnings_near_the_float_range() -> None:
    # finite input whose products, squares or agent sums pass the float range; the suite turns a numpy
    # RuntimeWarning into an error
    wide = Box(np.array([-5.0]), np.array([5.0]))
    coupled = load_agents([[1e308]], 1.0, [(QuadraticCost(1.0, np.array([0.0]), np.array([0.0])), wide)])
    assert pseudo_gradient_F(coupled, np.array([[3.0]]))[0, 0] == np.inf
    far = load_agents([[0.0]], 1.0, [(QuadraticCost(1.0, np.array([0.0]), np.array([0.0])),
                                      Box(np.array([-1e300]), np.array([1e300])))])
    ref = EquilibriumResult(np.zeros((1, 1)), np.zeros(1), 0, 0.0, 0.0)
    assert lyapunov_W(far, SystemState(np.array([[1e200]]), np.zeros(1)), ref) == np.inf
    top = Box(np.array([8e307]), np.array([9e307]))
    high = load_agents([[1.0]], 1.0, [(QuadraticCost(1.0, np.array([8.5e307]), np.array([0.0])), top)] * 3)
    assert initial_state(high).sigma[0] == np.inf
    with pytest.raises(ConvergenceError, match="^non-finite fixed-point update at iteration 1$"):
        solve_equilibrium(high)


def test_load_explicit_agent_list() -> None:
    doc = '{"n": 1, "C": [[0.0]], "k": 1.0, "agents": {"list": [{"ell": 2.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 1.0}}}]}}'
    game = load_scenario(doc)
    assert game.N == 1 and game.seed is None
    assert game.layout.ball_rows.tolist() == [0] and game.layout.radius.tolist() == [1.0]
    assert game.C == pytest.approx(np.array([[0.0]]))


# a box agent and a ball agent in 2-D
_SETS_DOC = {"n": 2, "C": [[1.0, 0.5], [0.0, 1.0]], "k": 0.6, "agents": {"list": [
    {"ell": 1.5, "xstar": [0.1, 0.2], "linear": [0.5, 0.0], "set": {"box": {"lo": [0.0, -1.0], "hi": [1.0, 1.0]}}},
    {"ell": 2.0, "xstar": [0.3, 0.4], "linear": [0.0, 0.1], "set": {"ball": {"center": [0.0, 0.0], "radius": 2.0}}},
]}}


def test_load_builds_the_set_of_each_kind() -> None:
    lay = load_scenario(json.dumps(_SETS_DOC)).layout
    assert lay.lo.tolist() == [[0.0, -1.0], [-np.inf, -np.inf]] and lay.hi.tolist() == [[1.0, 1.0], [np.inf, np.inf]]
    assert lay.center.tolist() == [[0.5, 0.0], [0.0, 0.0]] and lay.radius.tolist() == [np.inf, 2.0]
    assert lay.ball_rows.tolist() == [1]


# documents whose error must name the offending field
_BAD_FIELD_DOCUMENTS = {
    '{"n": 1.7, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "n must be an integer",
    '{"n": true, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "n must be an integer",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2.9, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.count must be an integer",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": true, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.count must be an integer",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1.5}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.seed must be an integer",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": "list"}': "agents must be an object",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": "count"}}': "agents.generator must be an object",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [5]}}': "agents.list[0] must be an object",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": []}}': "agents.list must hold at least one agent",
    # the format has no string, boolean or null values: none is read as a number
    '{"n": 1, "C": [[1.0]], "k": true, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "k must be a number, got True",
    '{"n": 1, "C": [["1"]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "C[0][0] must be a number, got '1'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": "2", "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[0].ell must be a number, got '2'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": ["0.1"], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[0].xstar[0] must be a number, got '0.1'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": true}}}]}}': "agents.list[0].set.ball.radius must be a number, got True",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": null, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.ell must be a number, got None",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": "0", "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.lo must be a number, got '0'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": true}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.seed must be an integer",
    # every field of the format is required, and a set or an agents block holds exactly one kind
    '{"C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "n is missing",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[0].xstar is missing",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0]}}}]}}': "agents.list[0].set.box.hi is missing",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.seed is missing",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"pyramid": {}}}]}}': "agents.list[0].set must hold exactly one of box, ball",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}, "ball": {"center": [0.0], "radius": 1.0}}}]}}': "agents.list[0].set must hold exactly one of box, ball",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}], "generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents must hold exactly one of list, generator",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 0, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.count must be positive, got 0",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 1.0, "hi": 0.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform must have hi >= lo",
    '{"n": 2, "C": [[1.0, 2.0], [3.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0], "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}}]}}': "C must hold n = 2 rows of n numbers, got rows of [2, 1]",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": -1e308, "hi": 1e308, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform must have a finite hi - lo",
    # n and every agent value in range, named by its path
    '{"n": 0, "C": [], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [], "linear": [], "set": {"box": {"lo": [], "hi": []}}}]}}': "n must be positive, got 0",
    '{"n": -1, "C": [], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [], "linear": [], "set": {"box": {"lo": [], "hi": []}}}]}}': "n must be positive, got -1",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}, {"ell": -1, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[1].ell must be positive and finite, got -1.0",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}, {"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 0.0}}}]}}': "agents.list[1].set.ball.radius must be positive and finite",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [1.0], "hi": [0.0]}}}]}}': "agents.list[0].set.box is empty: lo > hi componentwise",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [1e308], "hi": [1e308]}}}]}}': "agents.list[0].set center must be finite",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 0.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.ell must be positive and finite, got 0.0",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"ball": {"center": [0.0], "radius": -1.0}}}}}': "agents.generator.set.ball.radius must be positive and finite",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [2.0], "hi": [1.0]}}}}}': "agents.generator.set.box is empty: lo > hi componentwise",
    # every vector holds n numbers
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0], "set": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}}, {"ell": 1.0, "xstar": [0.1], "linear": [0.0, 0.0], "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}}]}}': "agents.list[1].xstar must hold n = 2 numbers, got 1",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0, 0.0], "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}}]}}': "agents.list[0].linear must hold n = 2 numbers, got 3",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0], "set": {"box": {"lo": [0.0], "hi": [1.0, 1.0]}}}]}}': "agents.list[0].set.box.lo must hold n = 2 numbers, got 1",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0], "set": {"box": {"lo": [0.0, 0.0], "hi": []}}}]}}': "agents.list[0].set.box.hi must hold n = 2 numbers, got 0",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1, 0.1], "linear": [0.0, 0.0], "set": {"ball": {"center": [0.0], "radius": 1.0}}}]}}': "agents.list[0].set.ball.center must hold n = 2 numbers, got 1",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}}}}': "agents.generator.linear must hold n = 2 numbers, got 1",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0, 0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0]}}}}}': "agents.generator.set.box.lo must hold n = 2 numbers, got 3",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0, 0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0, 0.0], "hi": [1.0]}}}}}': "agents.generator.set.box.hi must hold n = 2 numbers, got 1",
    '{"n": 2, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0, 0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"ball": {"center": [0.0], "radius": 1.0}}}}}': "agents.generator.set.ball.center must hold n = 2 numbers, got 1",
}


@pytest.mark.parametrize(
    "mutation",
    [
        '{"n": 1, "C": [[1.0, 0.0], [0.0, 1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}',
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 0.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}',
        '{"n": 1, "C": [[1.0]], "k": -2.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}',
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [1.0], "hi": [0.0]}}}]}}',
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 0.0}}}]}}',
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {}}',
        '{"n": 1, "C": [[1.0]], "k": 1.0}',
        "not json at all {",
        *_BAD_FIELD_DOCUMENTS,
    ],
)
def test_load_scenario_rejects_bad_documents(mutation: str) -> None:
    field = _BAD_FIELD_DOCUMENTS.get(mutation)
    with pytest.raises(ScenarioError, match=field and re.escape(field)):
        load_scenario(mutation)


@pytest.mark.parametrize(
    ("good", "bad", "path"),
    [
        ('"xstar": [0.1]', '"xstar": [NaN]', "agents.list[0].xstar[0]"),
        ('"lo": [0.0]', '"lo": [-Infinity]', "agents.list[0].set.box.lo[0]"),
        ('"k": 1.0', '"k": 1e999', "k"),
        ('"radius": 1.0', '"radius": Infinity', "agents.list[1].set.ball.radius"),
        # integer literals beyond the float range, and past the interpreter's 4300-digit limit
        pytest.param('"ell": 1.0', '"ell": 1' + "0" * 400, "agents.list[0].ell", id="ell-400-digits"),
        pytest.param('"C": [[1.0]]', '"C": [[1' + "0" * 400 + "]]", "C[0][0]", id="C-400-digits"),
        pytest.param('"k": 1.0', '"k": 1' + "0" * 400, "k", id="k-400-digits"),
        pytest.param('"k": 1.0', '"k": 1' + "0" * 4999, "k", id="k-5000-digits"),
        pytest.param('"lo": [0.0]', '"lo": [-1' + "0" * 400 + "]", "agents.list[0].set.box.lo[0]", id="lo-400-digits"),
        pytest.param('"uniform": {"lo": 0.0', '"uniform": {"lo": 1' + "0" * 400,
                     "agents.generator.xstar.uniform.lo", id="uniform-lo-400-digits"),
    ],
)
def test_load_scenario_rejects_nonfinite_numbers(good: str, bad: str, path: str) -> None:
    doc = (
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": ['
        '{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}, '
        '{"ell": 1.0, "xstar": [0.2], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 1.0}}}]}}'
    )
    if good not in doc:  # a generator field
        doc = demand_response_doc(count=3)
    load_scenario(doc)
    with pytest.raises(ScenarioError, match=re.escape(f"{path} is not finite")):
        load_scenario(doc.replace(good, bad, 1))


_DELETE = object()
# the mutations: the key deleted, or the value replaced by one that is not of its kind or not finite
_MUTATIONS = [_DELETE, "x", True, None, math.nan, 10**400, ["x"], {"x": "x"}]


def _paths(node, path: tuple = ()):
    """Every path into a JSON value, as a tuple of object keys and list indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _json_path(path: tuple) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([_SETS_DOC, json.loads(demand_response_doc(count=3))]), st.data())
def test_malformed_documents_name_their_field(doc: dict, data: st.DataObject) -> None:
    path = data.draw(st.sampled_from(list(_paths(doc))))
    mutation = data.draw(st.sampled_from(_MUTATIONS if isinstance(path[-1], str) else _MUTATIONS[1:]))
    mutated = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], mutated)
    if mutation is _DELETE:
        del parent[path[-1]]
        path = path[:-1]  # a missing key is named under its parent's path
    else:
        parent[path[-1]] = mutation
    with pytest.raises(ScenarioError) as info:
        load_scenario(json.dumps(mutated))
    assert _json_path(path) in str(info.value)


def test_nesting_just_under_the_decoders_limit_loads() -> None:
    # in a fresh interpreter, whose stack holds no test runner's frames; 100,000 levels are an error line
    doc = demand_response_doc(count=3)[:-1] + ', "note": ' + "[" * 990 + "]" * 990 + "}"
    code = "import sys, aggseek; print(aggseek.load_scenario(sys.stdin.read()).N)"
    proc = subprocess.run([sys.executable, "-c", code], input=doc, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n", "")


def test_generator_requires_uniform_block() -> None:
    doc = '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"gaussian": {}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}'
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_gamespec_validation() -> None:
    # an empty agent list and vectors not of n numbers are named by _BAD_FIELD_DOCUMENTS
    lay = single_agent_game().layout
    with pytest.raises(ValueError, match=re.escape("C has shape (2, 2), expected (1, 1)")):
        GameSpec(np.eye(2), 1.0, lay)
    for k in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^k must be positive and finite, got {k}$"):
            GameSpec(np.eye(1), k, lay)


def test_initial_state_and_projection() -> None:
    game = single_agent_game()
    st = initial_state(game)
    assert st.x == pytest.approx(np.array([[0.5]]))
    assert st.sigma == pytest.approx([0.5])

    wild = SystemState(x=np.array([[9.0]]), sigma=np.array([2.0]))
    tamed = project_state(game, wild)
    assert tamed.x == pytest.approx(np.array([[0.75]]))
    assert tamed.sigma == pytest.approx([2.0])


def test_state_arrays_validates_shapes() -> None:
    game = single_agent_game()
    with pytest.raises(ValueError):
        state_arrays(game, SystemState(x=np.zeros((2, 1)), sigma=np.zeros(1)))
    with pytest.raises(ValueError):
        state_arrays(game, SystemState(x=np.zeros((1, 1)), sigma=np.zeros(2)))
