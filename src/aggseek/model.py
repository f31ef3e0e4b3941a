"""Game data model: per-agent quadratic costs, coupling through the decision
average, and deterministic scenario loading.

Agent i minimizes f_i(x) + (C sigma)' x over its constraint set, where
f_i(x) = 0.5 * ell_i * ||x - xstar_i||^2 + linear_i' x and sigma is the
broadcast aggregate signal.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from typing import Iterator, Optional

import numpy as np

from .geometry import ConvexSet, SetRows, contains, project_rows, set_from_document, stack_sets

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
_MASK = (1 << 64) - 1


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


@dataclass(frozen=True)
class QuadraticCost:
    """Strongly convex local cost 0.5*ell*||x - xstar||^2 + linear' x."""

    ell: float
    xstar: np.ndarray
    linear: np.ndarray

    def __post_init__(self) -> None:
        ell = float(self.ell)
        if not ell > 0:
            raise ValueError(f"ell must be positive, got {ell}")
        xstar = np.atleast_1d(np.asarray(self.xstar, dtype=float))
        linear = np.atleast_1d(np.asarray(self.linear, dtype=float))
        if xstar.shape != linear.shape or xstar.ndim != 1:
            raise ValueError("xstar and linear must be 1-D arrays of equal length")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "xstar", xstar)
        object.__setattr__(self, "linear", linear)

    @property
    def dim(self) -> int:
        return self.xstar.shape[0]


@dataclass(frozen=True)
class GameLayout(SetRows):
    """Every agent's cost and set stacked row-wise, row i for agent i."""

    ell: np.ndarray     # (N,)
    xstar: np.ndarray   # (N, n)
    linear: np.ndarray  # (N, n)

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        """Every agent's local gradient ell_i (x_i - xstar_i) + linear_i, for x (..., N, n)."""
        return self.ell[:, None] * (x - self.xstar) + self.linear


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one aggregative game.

    Fields:
        C: n-by-n coupling matrix applied to the broadcast signal.
        k: integral gain of the aggregate dynamics.
        layout: every agent's cost and set as stacked rows, the one stored
            form; the agent count N and the dimension n are read from it.
        seed: generator seed recorded when agents were synthesized, else None.
    """

    C: np.ndarray
    k: float
    layout: GameLayout
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        n = self.n
        C = np.asarray(self.C, dtype=float)
        if C.shape != (n, n):
            raise ValueError(f"C has shape {C.shape}, expected ({n}, {n})")
        k = float(self.k)
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"k must be positive and finite, got {k}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "k", k)

    @classmethod
    def from_agents(cls, C: np.ndarray, k: float, agents) -> "GameSpec":
        """The game of (cost, constraint set) pairs, each of C's dimension n, stacked row-wise."""
        agents = tuple(agents)
        if not agents:
            raise ValueError("a game needs at least one agent")
        n = np.atleast_2d(C).shape[0]
        for i, (cost, cset) in enumerate(agents):
            if cost.dim != n:
                raise ValueError(f"agent {i} cost has dimension {cost.dim}, expected {n}")
            if cset.dim != n:
                raise ValueError(f"agent {i} set has dimension {cset.dim}, expected {n}")
        costs, sets = zip(*agents)
        layout = GameLayout(
            ell=np.array([cost.ell for cost in costs]),
            xstar=np.stack([cost.xstar for cost in costs]),
            linear=np.stack([cost.linear for cost in costs]),
            **stack_sets(sets),
        )
        return cls(C=C, k=k, layout=layout)

    @property
    def N(self) -> int:
        return self.layout.xstar.shape[0]

    @property
    def n(self) -> int:
        return self.layout.xstar.shape[1]

    @property
    def ell_min(self) -> float:
        """Game-level strong-convexity modulus: the weakest agent's ell."""
        return float(self.layout.ell.min())

    @property
    def agents(self) -> tuple:
        """Per-agent (cost, constraint set) pairs, rebuilt from the layout's rows."""
        return tuple((self.cost(i), self.constraint(i)) for i in range(self.N))

    def cost(self, i: int) -> QuadraticCost:
        return QuadraticCost(self.layout.ell[i], self.layout.xstar[i], self.layout.linear[i])

    def constraint(self, i: int) -> ConvexSet:
        return self.layout.row(i)


@dataclass
class SystemState:
    """The pair (x, sigma): N stacked agent decisions plus the broadcast signal."""

    x: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))

    def copy(self) -> "SystemState":
        return SystemState(self.x.copy(), self.sigma.copy())


def signal_array(game: GameSpec, sigma: np.ndarray) -> np.ndarray:
    """Return sigma as an (n,) float array, validating its shape."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.shape != (game.n,):
        raise ValueError(f"sigma has shape {sigma.shape}, expected ({game.n},)")
    return sigma


def state_arrays(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Return (x, sigma) as ((N, n), (n,)) float arrays, validating shapes."""
    x = np.asarray(state.x, dtype=float)
    if x.size != game.N * game.n:
        raise ValueError(f"state.x has {x.size} entries, game needs N*n = {game.N * game.n}")
    return x.reshape(game.N, game.n), signal_array(game, state.sigma)


def splitmix64(seed: int, count: Optional[int] = None) -> np.ndarray | Iterator[float]:
    """The first count uniform floats in [0, 1) of the splitmix64 generator.

    The state after i draws is seed + i * 0x9E3779B97F4A7C15 mod 2^64, so the
    stream is a closed form in i, computed in wrapping uint64 arithmetic and
    reproducible bit-exactly across platforms. Without count, the unbounded stream.
    """
    if count is None:
        return (u for j in itertools.count() for u in splitmix64(seed + j * 4096 * _GOLDEN, 4096))
    z = np.uint64(seed & _MASK) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / 2.0**64


def _typed(node, kind: type, path: str):
    """Return node when it is a JSON value of kind; a fraction or a boolean is no integer."""
    if isinstance(node, bool) or not isinstance(node, kind):
        kind_name = {dict: "an object", list: "a list", int: "an integer"}[kind]
        raise ScenarioError(f"{path} must be {kind_name}, got {node!r}")
    return node


def _generated_game(C: np.ndarray, k: float, block, n: int) -> GameSpec:
    """The game of a generator-style agent block: count agents sharing one cost and one set."""
    block = _typed(block, dict, "agents.generator")
    try:
        count = _typed(block["count"], int, "agents.generator.count")
        xstar = _typed(block["xstar"], dict, "agents.generator.xstar")
        uni = _typed(xstar.get("uniform"), dict, "agents.generator.xstar.uniform")
        seed = _typed(uni["seed"], int, "agents.generator.xstar.uniform.seed")
        _require_finite(block, "agents.generator")
        agent = QuadraticCost(block["ell"], np.zeros(n), block["linear"]), set_from_document(block["set"])
        lo, hi = float(uni["lo"]), float(uni["hi"])
    except KeyError as e:
        raise ScenarioError(f"generator block missing field {e}") from None
    if count < 1:
        raise ScenarioError("generator count must be positive")
    if not hi >= lo:
        raise ScenarioError("uniform range must satisfy hi >= lo")
    one = GameSpec.from_agents(C, k, [agent]).layout  # validated once, then repeated
    rows = {f.name: np.repeat(getattr(one, f.name), count, axis=0) for f in fields(GameLayout) if f.init}
    # one draw per coordinate, agents in index order
    rows["xstar"] = lo + (hi - lo) * splitmix64(seed, count * n).reshape(count, n)
    return GameSpec(C=C, k=k, layout=GameLayout(**rows), seed=seed)


def _require_finite(node, path: str) -> None:
    """Reject NaN, +-Infinity, overflowing literals and non-numbers, naming their JSON path."""
    if isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            _require_finite(value, f"{path}[{idx}]")
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioError(f"{path} must be a number, got {node!r}")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ScenarioError(f"{path} is not finite ({node!r})")


def load_scenario(document: str) -> GameSpec:
    """Parse a scenario document (JSON text) into a validated GameSpec.

    Agent blocks come in two styles: an explicit "list" of agents, or a
    "generator" that synthesizes count identical-cost agents whose xstar
    coordinates are drawn from the documented splitmix64 stream. The same
    document always materializes the same game.

    Raises ScenarioError, naming the field where it can, on malformed text, a
    number that is not finite or not a number, a fractional or boolean n/count/seed,
    a non-object block, dimension mismatches, nonpositive ell/k/radius, or empty boxes.
    """
    try:
        doc = _typed(json.loads(document), dict, "scenario root")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from None
    try:
        n = _typed(doc["n"], int, "n")
        agents_block = _typed(doc["agents"], dict, "agents")
        _require_finite({"C": doc["C"], "k": doc["k"]}, "")
        C = np.asarray(doc["C"], dtype=float)
        k = float(doc["k"])
    except KeyError as e:
        raise ScenarioError(f"scenario missing field {e}") from None
    if C.shape != (n, n):
        raise ScenarioError(f"C has shape {C.shape}, expected ({n}, {n})")

    try:
        if "list" in agents_block:
            entries = _typed(agents_block["list"], list, "agents.list")
            return GameSpec.from_agents(C, k, [_agent(entry, idx) for idx, entry in enumerate(entries)])
        if "generator" in agents_block:
            return _generated_game(C, k, agents_block["generator"], n)
    except ValueError as e:
        raise ScenarioError(str(e)) from None
    raise ScenarioError("agents block must contain 'list' or 'generator'")


def _agent(entry, idx: int) -> tuple[QuadraticCost, ConvexSet]:
    """One explicit agent list entry as its (cost, constraint set) pair."""
    _require_finite(_typed(entry, dict, f"agents.list[{idx}]"), f"agents.list[{idx}]")
    try:
        return QuadraticCost(entry["ell"], entry["xstar"], entry["linear"]), set_from_document(entry["set"])
    except KeyError as e:
        raise ScenarioError(f"agent {idx} missing field {e}") from None
    except ValueError as e:
        raise ScenarioError(f"agent {idx}: {e}") from None


def grad_f(cost: QuadraticCost, x: np.ndarray) -> np.ndarray:
    """Gradient of the local cost: ell * (x - xstar) + linear."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != cost.xstar.shape:
        raise ValueError(f"x has shape {x.shape}, cost has dimension {cost.dim}")
    return cost.ell * (x - cost.xstar) + cost.linear


def local_f(cost: QuadraticCost, x: np.ndarray) -> float:
    """The local cost value f(x) itself (no coupling, no indicator)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x - cost.xstar
    return 0.5 * cost.ell * float(d @ d) + float(cost.linear @ x)


def cost_J(game: GameSpec, i: int, x: np.ndarray, sigma: np.ndarray) -> float:
    """Full cost of agent i at decision x under broadcast sigma.

    Returns f_i(x) + (C sigma)' x for feasible x, and math.inf outside the
    agent's constraint set (the indicator term).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sigma = signal_array(game, sigma)
    if not contains(game.constraint(i), x):
        return math.inf
    return local_f(game.cost(i), x) + float((game.C @ sigma) @ x)


def pseudo_gradient_F(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Stacked pseudo-gradient: component i is grad_f(i, x_i) + C * avg(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (game.N, game.n):
        raise ValueError(f"x has shape {x.shape}, expected ({game.N}, {game.n})")
    return game.layout.grad_f(x) + game.C @ x.mean(axis=0)


def initial_state(game: GameSpec) -> SystemState:
    """Deterministic default start: agents at their set centers, sigma at the average."""
    x0 = game.layout.center.copy()
    return SystemState(x=x0, sigma=x0.mean(axis=0))


def project_state(game: GameSpec, state: SystemState) -> SystemState:
    """Push every agent decision onto its constraint set (sigma is unconstrained)."""
    x, sigma = state_arrays(game, state)
    return SystemState(x=project_rows(game.layout, x), sigma=sigma)
