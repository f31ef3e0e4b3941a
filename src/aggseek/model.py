"""Game data model: per-agent quadratic costs, coupling through the decision
average, and deterministic scenario loading.

Agent i minimizes f_i(x) + (C sigma)' x over its constraint set, where
f_i(x) = 0.5 * ell_i * ||x - xstar_i||^2 + linear_i' x and sigma is the
broadcast aggregate signal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .geometry import ConvexSet, SetRows, project, project_rows, set_from_document, stack_sets


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


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of one aggregative game.

    Fields:
        n: decision dimension shared by all agents.
        N: agent count.
        C: n-by-n coupling matrix applied to the broadcast signal.
        k: integral gain of the aggregate dynamics.
        agents: per-agent (cost, constraint set) pairs, length N.
        seed: generator seed recorded when agents were synthesized, else None.
    """

    n: int
    N: int
    C: np.ndarray
    k: float
    agents: tuple
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        n = int(self.n)
        N = int(self.N)
        if n < 1 or N < 1:
            raise ValueError("n and N must be positive integers")
        C = np.asarray(self.C, dtype=float)
        if C.shape != (n, n):
            raise ValueError(f"C has shape {C.shape}, expected ({n}, {n})")
        k = float(self.k)
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"k must be positive and finite, got {k}")
        agents = tuple(self.agents)
        if len(agents) != N:
            raise ValueError(f"agents list has length {len(agents)}, expected N={N}")
        for i, (cost, cset) in enumerate(agents):
            if cost.dim != n:
                raise ValueError(f"agent {i} cost has dimension {cost.dim}, expected {n}")
            if cset.dim != n:
                raise ValueError(f"agent {i} set has dimension {cset.dim}, expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "agents", agents)

    @property
    def ell_min(self) -> float:
        """Game-level strong-convexity modulus: the weakest agent's ell."""
        return min(cost.ell for cost, _ in self.agents)

    @cached_property
    def layout(self) -> GameLayout:
        """The stacked arrays behind the batched kernels, built on first use."""
        costs, sets = zip(*self.agents)
        return GameLayout(
            ell=np.array([cost.ell for cost in costs]),
            xstar=np.stack([cost.xstar for cost in costs]),
            linear=np.stack([cost.linear for cost in costs]),
            **stack_sets(sets),
        )

    def cost(self, i: int) -> QuadraticCost:
        return self.agents[i][0]

    def constraint(self, i: int) -> ConvexSet:
        return self.agents[i][1]


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


def splitmix64(seed: int) -> Iterator[float]:
    """Infinite stream of uniform floats in [0, 1) from the splitmix64 generator.

    The recurrence is fixed so that scenario generation is reproducible
    bit-exactly across platforms and languages.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        yield z / 2.0**64


def _expand_generator(block: dict, n: int) -> tuple[list, int]:
    """Materialize a generator-style agent block into an explicit agent list."""
    try:
        count = int(block["count"])
        ell = float(block["ell"])
        linear = np.asarray(block["linear"], dtype=float)
        xstar_spec = block["xstar"]
        set_spec = block["set"]
    except KeyError as e:
        raise ScenarioError(f"generator block missing field {e}") from None
    if count < 1:
        raise ScenarioError("generator count must be positive")
    if "uniform" not in xstar_spec:
        raise ScenarioError("generator xstar must be a {'uniform': ...} block")
    uni = xstar_spec["uniform"]
    try:
        lo, hi, seed = float(uni["lo"]), float(uni["hi"]), int(uni["seed"])
    except KeyError as e:
        raise ScenarioError(f"uniform block missing field {e}") from None
    if not hi >= lo:
        raise ScenarioError("uniform range must satisfy hi >= lo")
    stream = splitmix64(seed)
    agents = []
    for _ in range(count):
        # one draw per coordinate, agents in index order
        xstar = np.array([lo + (hi - lo) * next(stream) for _ in range(n)])
        cost = QuadraticCost(ell=ell, xstar=xstar, linear=linear.copy())
        cset = set_from_document(set_spec)
        agents.append((cost, cset))
    return agents, seed


def _require_finite(node, path: str) -> None:
    """Reject NaN, +-Infinity and overflowing literals, naming their JSON path."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ScenarioError(f"{path} is not finite ({node!r})")
    if isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            _require_finite(value, f"{path}[{idx}]")


def load_scenario(document: str) -> GameSpec:
    """Parse a scenario document (JSON text) into a validated GameSpec.

    Agent blocks come in two styles: an explicit "list" of agents, or a
    "generator" that synthesizes count identical-cost agents whose xstar
    coordinates are drawn from the documented splitmix64 stream. The same
    document always materializes the same game.

    Raises ScenarioError on malformed text, non-finite numbers, dimension
    mismatches, nonpositive ell/k/radius, or empty boxes.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    _require_finite(doc, "")
    try:
        n = int(doc["n"])
        C = np.asarray(doc["C"], dtype=float)
        k = float(doc["k"])
        agents_block = doc["agents"]
    except KeyError as e:
        raise ScenarioError(f"scenario missing field {e}") from None

    seed: Optional[int] = None
    if "list" in agents_block:
        agents = []
        for idx, entry in enumerate(agents_block["list"]):
            try:
                cost = QuadraticCost(entry["ell"], entry["xstar"], entry["linear"])
                cset = set_from_document(entry["set"])
            except KeyError as e:
                raise ScenarioError(f"agent {idx} missing field {e}") from None
            except ValueError as e:
                raise ScenarioError(f"agent {idx}: {e}") from None
            agents.append((cost, cset))
    elif "generator" in agents_block:
        try:
            agents, seed = _expand_generator(agents_block["generator"], n)
        except ValueError as e:
            raise ScenarioError(str(e)) from None
    else:
        raise ScenarioError("agents block must contain 'list' or 'generator'")

    try:
        return GameSpec(n=n, N=len(agents), C=C, k=k, agents=tuple(agents), seed=seed)
    except ValueError as e:
        raise ScenarioError(str(e)) from None


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
    cost, cset = game.agents[i]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sigma = signal_array(game, sigma)
    if x.shape != (game.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({game.n},)")
    if np.linalg.norm(x - project(cset, x)) > 1e-9:
        return math.inf
    return local_f(cost, x) + float((game.C @ sigma) @ x)


def pseudo_gradient_F(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Stacked pseudo-gradient: component i is grad_f(i, x_i) + C * avg(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (game.N, game.n):
        raise ValueError(f"x has shape {x.shape}, expected ({game.N}, {game.n})")
    lay = game.layout
    return lay.ell[:, None] * (x - lay.xstar) + lay.linear + game.C @ x.mean(axis=0)


def initial_state(game: GameSpec) -> SystemState:
    """Deterministic default start: agents at their set centers, sigma at the average."""
    x0 = game.layout.center.copy()
    return SystemState(x=x0, sigma=x0.mean(axis=0))


def project_state(game: GameSpec, state: SystemState) -> SystemState:
    """Push every agent decision onto its constraint set (sigma is unconstrained)."""
    x, sigma = state_arrays(game, state)
    return SystemState(x=project_rows(game.layout, x), sigma=sigma)
