from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from aggseek.geometry import Ball, Box
from aggseek.model import (
    GameSpec,
    QuadraticCost,
    ScenarioError,
    SystemState,
    cost_J,
    grad_f,
    initial_state,
    load_scenario,
    local_f,
    project_state,
    pseudo_gradient_F,
    splitmix64,
    state_arrays,
)

from helpers import demand_response_doc, single_agent_game
from oracles import central_difference, splitmix64_reference


def test_grad_vanishes_at_minimizer() -> None:
    cost = QuadraticCost(1.5, np.array([0.4]), np.array([0.0]))
    assert grad_f(cost, np.array([0.4])) == pytest.approx([0.0])


def test_grad_closed_form_scalar() -> None:
    cost = QuadraticCost(1.5, np.array([0.4]), np.array([0.5]))
    assert grad_f(cost, np.array([1.0])) == pytest.approx([1.4])


def test_grad_closed_form_vector() -> None:
    cost = QuadraticCost(2.0, np.zeros(2), np.array([1.0, -1.0]))
    assert grad_f(cost, np.array([1.0, 1.0])) == pytest.approx([3.0, 1.0])


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
        g = grad_f(cost, x)
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
        lhs = abs(local_f(cost, x + t * h) - local_f(cost, x) - t * float(grad_f(cost, x) @ h))
        assert lhs <= cost.ell * t * t * float(h @ h) + 1e-12


def test_strong_convexity_of_gradient() -> None:
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        cost = QuadraticCost(float(rng.uniform(0.5, 3.0)), rng.normal(size=n), rng.normal(size=n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        inner = float((grad_f(cost, x) - grad_f(cost, y)) @ (x - y))
        assert inner >= cost.ell * float((x - y) @ (x - y)) - 1e-12


def test_cost_value_example() -> None:
    game = single_agent_game()
    assert cost_J(game, 0, np.array([0.5]), np.array([0.1])) == pytest.approx(0.3075)


def test_cost_infinite_outside_set() -> None:
    game = single_agent_game()
    assert cost_J(game, 0, np.array([0.9]), np.array([0.1])) == math.inf


def test_cost_zero_at_quadratic_minimum() -> None:
    cost = QuadraticCost(2.0, np.array([0.5]), np.array([0.0]))
    game = GameSpec.from_agents(
        C=np.array([[0.0]]), k=1.0,
        agents=((cost, Box(np.array([0.0]), np.array([1.0]))),),
    )
    assert cost_J(game, 0, np.array([0.5]), np.array([123.0])) == pytest.approx(0.0)


def test_pseudo_gradient_examples() -> None:
    mk = lambda xs: QuadraticCost(1.0, np.array([xs]), np.array([0.0]))
    box = Box(np.array([-5.0]), np.array([5.0]))
    game = GameSpec.from_agents(C=np.array([[1.0]]), k=1.0,
                    agents=((mk(0.0), box), (mk(0.0), box)))
    F = pseudo_gradient_F(game, np.array([[1.0], [-1.0]]))
    assert F == pytest.approx(np.array([[1.0], [-1.0]]))

    game2 = GameSpec.from_agents(C=np.array([[0.0]]), k=1.0,
                     agents=((mk(0.2), box), (mk(0.6), box)))
    x = np.array([[0.9], [0.1]])
    F2 = pseudo_gradient_F(game2, x)
    expected = np.stack([grad_f(game2.cost(i), x[i]) for i in range(2)])
    assert F2 == pytest.approx(expected)

    game3 = GameSpec.from_agents(C=np.array([[1.0]]), k=1.0,
                     agents=((mk(0.2), box), (mk(0.6), box)))
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
    # first generated target comes straight from the documented stream
    assert float(game.cost(0).xstar[0]) == 0.7415648787718234
    for i in range(game.N):
        assert 0.0 <= float(game.cost(i).xstar[0]) < 1.0
        cset = game.constraint(i)
        assert isinstance(cset, Box)
        assert cset.lo == pytest.approx([0.25]) and cset.hi == pytest.approx([0.75])


def test_load_scenario_deterministic_bitwise() -> None:
    doc = demand_response_doc()
    a, b = load_scenario(doc), load_scenario(doc)
    for i in range(a.N):
        assert np.array_equal(a.cost(i).xstar, b.cost(i).xstar)
        assert np.array_equal(a.cost(i).linear, b.cost(i).linear)


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


def test_from_agents_views_return_the_agents_bit_for_bit() -> None:
    rng = np.random.default_rng(11)
    for _ in range(20):
        agents = []
        for _ in range(int(rng.integers(1, 8))):
            cost = QuadraticCost(float(rng.uniform(0.5, 3.0)), rng.normal(size=2), rng.normal(size=2))
            lo = rng.normal(size=2)
            if rng.random() < 0.5:
                agents.append((cost, Box(lo, lo + rng.uniform(0.0, 1.0, 2))))
            else:
                agents.append((cost, Ball(lo, rng.uniform(0.1, 2.0))))
        game = GameSpec.from_agents(C=np.eye(2), k=1.0, agents=agents)
        assert game.N == len(agents) and game.n == 2
        assert game.ell_min == min(cost.ell for cost, _ in agents)
        views = game.agents
        assert len(views) == len(agents)
        for i, ((cost, cset), (vc, vs)) in enumerate(zip(agents, views)):
            assert vc.ell == cost.ell
            assert np.array_equal(vc.xstar, cost.xstar) and np.array_equal(vc.linear, cost.linear)
            assert type(vs) is type(cset) and type(game.constraint(i)) is type(cset)
            if isinstance(cset, Box):
                assert np.array_equal(vs.lo, cset.lo) and np.array_equal(vs.hi, cset.hi)
            else:
                assert np.array_equal(vs.center, cset.center) and vs.radius == cset.radius


def test_replace_gain_shares_the_read_only_layout() -> None:
    game = load_scenario(demand_response_doc())
    faster = dataclasses.replace(game, k=2.0)
    assert faster.k == 2.0 and faster.layout is game.layout
    # the shared rows, and the per-agent views of them, are read-only
    with pytest.raises(ValueError, match="read-only"):
        faster.cost(0).xstar[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        game.constraint(0).lo[0] = 0.0


def test_load_explicit_agent_list() -> None:
    doc = '{"n": 1, "C": [[0.0]], "k": 1.0, "agents": {"list": [{"ell": 2.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 1.0}}}]}}'
    game = load_scenario(doc)
    assert game.N == 1 and game.seed is None
    assert isinstance(game.constraint(0), Ball)
    assert game.C == pytest.approx(np.array([[0.0]]))


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
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": []}}': "at least one agent",
    # the format has no string, boolean or null values: none is read as a number
    '{"n": 1, "C": [[1.0]], "k": true, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "k must be a number, got True",
    '{"n": 1, "C": [["1"]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "C[0][0] must be a number, got '1'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": "2", "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[0].ell must be a number, got '2'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": ["0.1"], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}]}}': "agents.list[0].xstar[0] must be a number, got '0.1'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": [{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": true}}}]}}': "agents.list[0].set.ball.radius must be a number, got True",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": null, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.ell must be a number, got None",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": "0", "hi": 1.0, "seed": 1}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.lo must be a number, got '0'",
    '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": true}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}': "agents.generator.xstar.uniform.seed must be an integer",
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
    ],
)
def test_load_scenario_rejects_nonfinite_numbers(good: str, bad: str, path: str) -> None:
    doc = (
        '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"list": ['
        '{"ell": 1.0, "xstar": [0.1], "linear": [0.0], "set": {"box": {"lo": [0.0], "hi": [1.0]}}}, '
        '{"ell": 1.0, "xstar": [0.2], "linear": [0.0], "set": {"ball": {"center": [0.0], "radius": 1.0}}}]}}'
    )
    load_scenario(doc)
    with pytest.raises(ScenarioError, match=re.escape(f"{path} is not finite")):
        load_scenario(doc.replace(good, bad, 1))


def test_generator_requires_uniform_block() -> None:
    doc = '{"n": 1, "C": [[1.0]], "k": 1.0, "agents": {"generator": {"count": 2, "ell": 1.0, "linear": [0.0], "xstar": {"gaussian": {}}, "set": {"box": {"lo": [0.0], "hi": [1.0]}}}}}'
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_gamespec_validation() -> None:
    cost = QuadraticCost(1.0, np.array([0.0]), np.array([0.0]))
    box = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="at least one agent"):
        GameSpec.from_agents(C=np.array([[1.0]]), k=1.0, agents=())
    with pytest.raises(ValueError, match="agent 0 cost has dimension 1, expected 2"):
        GameSpec.from_agents(C=np.eye(2), k=1.0, agents=((cost, box),))
    with pytest.raises(ValueError, match="agent 1 set has dimension 2, expected 1"):
        GameSpec.from_agents(C=np.array([[1.0]]), k=1.0, agents=((cost, box), (cost, Box(np.zeros(2), np.ones(2)))))
    with pytest.raises(ValueError):
        GameSpec.from_agents(C=np.array([[1.0]]), k=0.0, agents=((cost, box),))


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
