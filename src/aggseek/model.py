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
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

import numpy as np

from .geometry import RuleError, enforce, project_rows, set_faults, shaped

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
_MASK = (1 << 64) - 1


class _OneOf(dict):
    """The kind of an object that holds exactly one of its keys."""


# the scenario format that _require_finite enforces: a kind is float, int, [kind] a list, {key: kind}
# an object holding every key, or _OneOf; a key not listed, like kind None, takes numbers to any depth
_SET = _OneOf(box={"lo": [float], "hi": [float]}, ball={"center": [float], "radius": float})
_AGENT = {"ell": float, "xstar": [float], "linear": [float], "set": _SET}
_GENERATOR = {**_AGENT, "count": int, "xstar": {"uniform": {"lo": float, "hi": float, "seed": int}}}
_SCENARIO = {"n": int, "C": [[float]], "k": float, "agents": _OneOf(list=[_AGENT], generator=_GENERATOR)}
_NAMES = {dict: "an object", list: "a list", int: "an integer", float: "a number"}


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


def _cost_faults(ell: np.ndarray, xstar: np.ndarray, linear: np.ndarray) -> tuple:
    """Each cost rule as (field, rule, mask of the rows that break it): ell positive and finite, the rest finite."""
    bad_ell = ~((ell > 0) & (ell < np.inf))
    return (("ell", f"must be positive and finite, got {ell[bad_ell.argmax()]}", bad_ell),
            ("xstar", "must be finite", ~np.isfinite(xstar).all(axis=-1)),
            ("linear", "must be finite", ~np.isfinite(linear).all(axis=-1)))


@dataclass(frozen=True, eq=False)
class GameLayout:
    """Every agent's set and cost stacked row-wise, row i for agent i, checked against the set and cost rules.

    Row i's set is a box [lo_i, hi_i] of infinite radius_i, or a ball of radius_i around center_i with
    infinite bounds; center_i is the box midpoint or the ball center.
    """

    lo: np.ndarray      # (N, n)
    hi: np.ndarray      # (N, n)
    center: np.ndarray  # (N, n)
    radius: np.ndarray  # (N,)
    ell: np.ndarray     # (N,)
    xstar: np.ndarray   # (N, n)
    linear: np.ndarray  # (N, n)
    neg_ell: np.ndarray = field(init=False)      # (N, n): -ell_i in every column; an (N, 1) one broadcasts slowly
    ball_rows: np.ndarray = field(init=False)    # indices of the rows of finite radius
    ball_center: np.ndarray = field(init=False)  # center[ball_rows], gathered once
    ball_radius: np.ndarray = field(init=False)  # radius[ball_rows], gathered once

    def __post_init__(self) -> None:
        N, n = (np.shape(self.xstar) + (0, 0))[:2]
        got = {f.name: getattr(getattr(self, f.name), "shape", None) for f in fields(self) if f.init}
        if not N * n or any(shape != ((N,) if name in ("ell", "radius") else (N, n)) for name, shape in got.items()):
            raise ValueError(f"rows must be arrays of shape (N,) for ell and radius, else (N, n), N, n >= 1: {got}")
        enforce((*_cost_faults(self.ell, self.xstar, self.linear),
                 *set_faults(self.lo, self.hi, self.center, self.radius)))
        b = np.flatnonzero(self.radius < np.inf)
        for name, rows in (("neg_ell", np.repeat(-self.ell[:, None], n, axis=1)), ("ball_rows", b),
                           ("ball_center", self.center[b]), ("ball_radius", self.radius[b])):
            object.__setattr__(self, name, rows)
        for rows in vars(self).values():
            rows.setflags(write=False)  # games that share rows cannot change each other

    def tile(self, B: int) -> "GameLayout":
        """B copies of these rows stacked: copy b's agent i is row b*N + i, in ball_rows too."""
        rows = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return self if B == 1 else GameLayout(**{name: np.tile(a, (B, 1)[: a.ndim]) for name, a in rows.items()})

    def descent(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The negated local gradient of the rows of x (..., N, n) as (-ell_i)(x_i - xstar_i) - linear_i (same bits), into out."""
        out = np.subtract(x, self.xstar, out)
        np.multiply(self.neg_ell, out, out)
        return np.subtract(out, self.linear, out)


@dataclass(frozen=True, eq=False)
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
        if not np.isfinite(C).all():
            raise ValueError("C must be finite")
        k = float(self.k)
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"k must be positive and finite, got {k}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "k", k)

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


@dataclass(eq=False)
class SystemState:
    """The pair (x, sigma): N stacked agent decisions plus the broadcast signal."""

    x: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))


def state_arrays(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Return (x, sigma) as ((N, n), (n,)) float arrays, validating shapes."""
    return shaped(state.x, (game.N, game.n), "state.x"), shaped(state.sigma, (game.n,), "state.sigma")


def energy(dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """W = ½‖x − x̄‖² + ½‖σ − σ̄‖² from the offsets dx (..., N, n) and ds (..., n)."""
    return 0.5 * np.sum(dx * dx, axis=(-2, -1)) + 0.5 * np.vecdot(ds, ds)


def strictly_monotone(game: GameSpec) -> bool:
    """Whether the stacked pseudo-gradient is strictly monotone, implying uniqueness."""
    sym_min = float(np.linalg.eigvalsh(game.C + game.C.T)[0])
    return game.ell_min + 0.5 * sym_min > 0


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


def _rows(entries: list, n: int, name: str) -> dict[str, np.ndarray]:
    """The GameLayout rows of entries {ell, xstar, linear, set: {box: {lo, hi}} or {ball: {center, radius}}}.

    Other keys are ignored. An empty list raises ValueError calling it name; a vector not of n numbers
    raises RuleError for its entry and path.
    """
    if not entries:
        raise ValueError(f"{name} must hold at least one agent")
    sets, up, down = [entry["set"] for entry in entries], [math.inf] * n, [-math.inf] * n
    for i, (entry, s) in enumerate(zip(entries, sets)):
        kind = "box" if "box" in s else "ball"
        vectors = {"xstar": entry["xstar"], "linear": entry["linear"],
                   **{f"set.{kind}.{key}": s[kind][key] for key in (("lo", "hi") if kind == "box" else ("center",))}}
        for path, vector in vectors.items():
            if len(vector) != n:
                raise RuleError(i, path, f"must hold n = {n} numbers, got {len(vector)}")
    rows = {key: np.array([entry[key] for entry in entries], dtype=float) for key in ("ell", "xstar", "linear")}
    box = np.array(["box" in s for s in sets])
    lo = np.array([s["box"]["lo"] if "box" in s else down for s in sets], dtype=float)
    hi = np.array([s["box"]["hi"] if "box" in s else up for s in sets], dtype=float)
    center = np.array([up if "box" in s else s["ball"]["center"] for s in sets], dtype=float)
    with np.errstate(over="ignore"):  # a midpoint that overflows is named by the set rules
        center[box] = 0.5 * (lo[box] + hi[box])
    radius = np.array([math.inf if "box" in s else s["ball"]["radius"] for s in sets], dtype=float)
    return dict(rows, lo=lo, hi=hi, center=center, radius=radius)


def _require_finite(node, path: str, kind=None) -> None:
    """Reject a value not of its kind, a missing key, NaN and +-Infinity, naming the JSON path."""
    want = dict if isinstance(kind, dict) else list if isinstance(kind, list) else kind
    if want is None:  # a key not listed: a number, or a list or object of them
        want = type(node) if type(node) in (dict, list) else float
    if isinstance(node, bool) or not isinstance(node, (int, float) if want is float else want):
        raise ScenarioError(f"{path or 'scenario root'} must be {_NAMES[want]}, got {node!r}")
    if want is dict:
        keys = node.keys()
        if isinstance(kind, _OneOf) and len(keys & kind.keys()) != 1:
            raise ScenarioError(f"{path} must hold exactly one of {', '.join(kind)}")
        if type(kind) is dict and not keys >= kind.keys():
            raise ScenarioError(f"{path}.{min(kind.keys() - keys)} is missing".lstrip("."))  # a root key: no dot
        for key, value in node.items():  # a finite float where a number belongs needs no call
            sub = kind and kind.get(key)
            if type(value) is not float or sub is not float and sub is not None or not math.isfinite(value):
                _require_finite(value, f"{path}.{key}" if path else key, sub)
    elif want is list:
        sub = kind and kind[0]
        for idx, value in enumerate(node):
            if type(value) is not float or sub is not float and sub is not None or not math.isfinite(value):
                _require_finite(value, f"{path}[{idx}]", sub)
    elif want is float and not math.isfinite(node):
        raise ScenarioError(f"{path} is not finite ({node!r})")


def load_scenario(document: str) -> GameSpec:
    """Parse a scenario document (JSON text) of the format _SCENARIO into a validated GameSpec.

    The same document always materializes the same game: a generator draws xstar from the
    documented splitmix64 stream. Raises ScenarioError, naming the field where it has one, on
    malformed text, a missing field, a value not of its kind or not finite, not exactly one
    set kind or agents style, mismatched dimensions, or a value outside its range.
    """
    try:  # an integer literal of 300 digits or more parses as a float, +-inf past the float range
        doc = json.loads(document, parse_int=lambda s: int(s) if len(s) < 300 else float(s))
        _require_finite(doc, "", _SCENARIO)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from None
    except RecursionError:  # the decoder and the walk each take one stack frame per level
        raise ScenarioError("scenario nests too deeply") from None
    n, C, k, agents = doc["n"], doc["C"], doc["k"], doc["agents"]
    if n < 1:
        raise ScenarioError(f"n must be positive, got {n}")
    if len(C) != n or any(len(row) != n for row in C):
        raise ScenarioError(f"C must hold n = {n} rows of n numbers, got rows of {[len(row) for row in C]}")
    block = agents.get("generator")  # None when the agents come as a list
    try:
        if block is None:
            return GameSpec(C, k, GameLayout(**_rows(agents["list"], n, "agents.list")))
        rows = _rows([{**block, "xstar": [0.0] * n}], n, "agents.generator")  # one row, repeated below
        GameLayout(**rows)  # a bad field is named before the count rows are allocated
        count, uni = block["count"], block["xstar"]["uniform"]
        lo, hi = float(uni["lo"]), float(uni["hi"])
        if count < 1:
            raise ScenarioError(f"agents.generator.count must be positive, got {count}")
        if not 0 <= hi - lo < math.inf:  # lo and hi are finite
            rule = "hi >= lo" if hi < lo else "a finite hi - lo"
            raise ScenarioError(f"agents.generator.xstar.uniform must have {rule}, got lo {lo}, hi {hi}")
        try:  # a count past the C long overflows, one past memory or the array size limit cannot be allocated
            rows = {name: np.repeat(a, count, axis=0) for name, a in rows.items() if name != "xstar"}
            rows["xstar"] = lo + (hi - lo) * splitmix64(uni["seed"], count * n).reshape(count, n)  # in index order
        except (OverflowError, MemoryError, ValueError):
            raise ScenarioError(f"agents.generator.count is too large, got {count}") from None
        return GameSpec(C, k, GameLayout(**rows), seed=uni["seed"])
    except RuleError as e:  # an agent's fault, named by the JSON path of its field
        at = f"agents.list[{e.row}]" if block is None else "agents.generator"
        raise ScenarioError(f"{at}.{e.field} {e.rule}") from None
    except ValueError as e:
        raise ScenarioError(str(e)) from None


def pseudo_gradient_F(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Stacked pseudo-gradient: row i is agent i's local gradient ell_i (x_i - xstar_i) + linear_i plus C avg(x)."""
    x = shaped(x, (game.N, game.n), "x")
    return game.C @ x.mean(axis=0) - game.layout.descent(x)  # C avg(x) plus the local gradient, the same bits


def initial_state(game: GameSpec) -> SystemState:
    """Deterministic default start: agents at their set centers, sigma at the average."""
    x0 = game.layout.center.copy()
    return SystemState(x=x0, sigma=x0.mean(axis=0))


def project_state(game: GameSpec, state: SystemState) -> SystemState:
    """Push every agent decision onto its constraint set (sigma is unconstrained)."""
    x, sigma = state_arrays(game, state)
    return SystemState(x=project_rows(game.layout, x), sigma=sigma)
