"""Shared game builders and random generators for the test suite."""

from __future__ import annotations

import json

import numpy as np

from aggseek.model import GameSpec, load_scenario

from oracles import Ball, Box, ConvexSet, QuadraticCost


def load_agents(C, k: float, agents) -> GameSpec:
    """The game of oracle (cost, set) pairs, loaded from the scenario list document they make."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    entries = [
        {"ell": cost.ell, "xstar": cost.xstar.tolist(), "linear": cost.linear.tolist(),
         "set": {"box": {"lo": s.lo.tolist(), "hi": s.hi.tolist()}} if isinstance(s, Box)
         else {"ball": {"center": s.center.tolist(), "radius": s.radius}}}
        for cost, s in agents
    ]
    return load_scenario(json.dumps({"n": C.shape[0], "C": C.tolist(), "k": float(k), "agents": {"list": entries}}))


def one_row(s: ConvexSet):
    """The one-row layout of a decoupled agent whose set is s, for the row kernels."""
    n = s.dim
    return load_agents(np.zeros((n, n)), 1.0, [(QuadraticCost(1.0, np.zeros(n), np.zeros(n)), s)]).layout


def single_agent_game(lo: float = 0.25, hi: float = 0.75, k: float = 0.6) -> GameSpec:
    """One agent, ell=1.5, xstar=0.6, linear=0.5, scalar coupling C=1."""
    cost = QuadraticCost(ell=1.5, xstar=np.array([0.6]), linear=np.array([0.5]))
    return load_agents([[1.0]], k, [(cost, Box(np.array([lo]), np.array([hi])))])


def demand_response_doc(k: float = 0.6, count: int = 100, seed: int = 42) -> str:
    """Population of box-constrained consumers with uniformly seeded targets."""
    return json.dumps(
        {
            "n": 1,
            "C": [[1.0]],
            "k": k,
            "agents": {
                "generator": {
                    "count": count,
                    "ell": 1.5,
                    "linear": [0.5],
                    "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": seed}},
                    "set": {"box": {"lo": [0.25], "hi": [0.75]}},
                }
            },
        }
    )


def demand_response_game(k: float = 0.6, count: int = 100, seed: int = 42) -> GameSpec:
    return load_scenario(demand_response_doc(k=k, count=count, seed=seed))


def wide_box_population_doc(ell: float, C: float) -> str:
    """100 box agents on [-10, 10] with xstar from U[0, 3] (generator seed 1), scalar coupling C and k = 1.

    Strictly monotone for every C > 0. At C = 5 with ell = 1, and C = 6, 10 or 4.5 with ell = 1.5, the
    relaxed map at lam = 1/2 never converges, while the flow does.
    """
    return json.dumps({"n": 1, "C": [[C]], "k": 1.0, "agents": {"generator": {
        "count": 100, "ell": ell, "linear": [0.0], "xstar": {"uniform": {"lo": 0.0, "hi": 3.0, "seed": 1}},
        "set": {"box": {"lo": [-10.0], "hi": [10.0]}}}}})


def small_certified_game(seed: int = 7) -> GameSpec:
    """Five agents with weak coupling: the symmetrized certificate eigenvalue is positive."""
    doc = json.dumps(
        {
            "n": 1,
            "C": [[0.1]],
            "k": 0.6,
            "agents": {
                "generator": {
                    "count": 5,
                    "ell": 1.5,
                    "linear": [0.0],
                    "xstar": {"uniform": {"lo": 0.0, "hi": 1.0, "seed": seed}},
                    "set": {"box": {"lo": [0.25], "hi": [0.75]}},
                }
            },
        }
    )
    return load_scenario(doc)


def random_set(rng: np.random.Generator, n: int) -> ConvexSet:
    if rng.random() < 0.5:
        lo = rng.uniform(-1.0, 0.4, size=n)
        return Box(lo, lo + rng.uniform(0.3, 1.2, size=n))
    return Ball(rng.uniform(-0.5, 0.8, size=n), float(rng.uniform(0.3, 1.0)))


def random_point_in(rng: np.random.Generator, s: ConvexSet) -> np.ndarray:
    if isinstance(s, Box):
        return rng.uniform(s.lo, s.hi)
    d = rng.normal(size=s.center.shape[0])
    d /= np.linalg.norm(d)
    # uniform in the ball: radius scaled by u^(1/n)
    r = s.radius * rng.random() ** (1.0 / s.center.shape[0])
    return s.center + r * d


def random_boundaryish_point(rng: np.random.Generator, s: ConvexSet) -> np.ndarray:
    """Half the time a point with active constraints, half the time interior."""
    if isinstance(s, Box):
        p = rng.uniform(s.lo, s.hi)
        if rng.random() < 0.5:
            j = int(rng.integers(s.lo.shape[0]))
            p[j] = s.lo[j] if rng.random() < 0.5 else s.hi[j]
        return p
    if rng.random() < 0.5:
        d = rng.normal(size=s.center.shape[0])
        d /= np.linalg.norm(d)
        return s.center + s.radius * d
    return random_point_in(rng, s)


def random_game(
    rng: np.random.Generator,
    n_choices: tuple[int, ...] = (1, 2),
    max_agents: int = 50,
    coupling_scale: float = 0.15,
    N: int | None = None,
) -> GameSpec:
    """A well-conditioned random game: strong convexity dominates the coupling.

    N agents if given, otherwise a random count from 2 to max_agents.
    """
    n = int(rng.choice(n_choices))
    N = int(rng.integers(2, max_agents + 1)) if N is None else N
    C = rng.uniform(-coupling_scale, coupling_scale, size=(n, n)) / n
    k = float(rng.uniform(0.8, 1.5))
    agents = []
    for _ in range(N):
        cost = QuadraticCost(
            ell=float(rng.uniform(1.2, 2.0)),
            xstar=rng.uniform(0.0, 1.0, size=n),
            linear=rng.uniform(-0.3, 0.3, size=n),
        )
        if rng.random() < 0.5:
            lo = rng.uniform(0.0, 0.4, size=n)
            cset: ConvexSet = Box(lo, lo + rng.uniform(0.3, 0.8, size=n))
        else:
            cset = Ball(rng.uniform(0.2, 0.8, size=n), float(rng.uniform(0.3, 0.8)))
        agents.append((cost, cset))
    return load_agents(C, k, agents)
