"""Game data model: the agents' stacked rows and the kernels over them, and deterministic scenario loading.

Agent i minimizes f_i(x) + (C sigma)' x over its constraint set, where
f_i(x) = 0.5 * ell_i * ||x - xstar_i||^2 + linear_i' x and sigma is the
broadcast aggregate signal. Its cost and set are row i of a GameLayout: a box
[lo_i, hi_i] with an infinite radius, or a ball of radius_i around center_i with
infinite bounds. The kernels act on the agent axis of (..., N, n) arrays:
Euclidean point projection, projection of a velocity onto the tangent cone at a
feasible point, membership, and the minimum of a linear function over each set.
The test suite checks them against scalar per-set oracles written from the
definitions, among them the normal cone that completes the tangent cone (Moreau
decomposition).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment
_MASK = (1 << 64) - 1
# a point counts as "on the boundary" within this distance
ACTIVITY_TOL = 1e-10
# points farther outside their set than this are rejected by require_members
MEMBERSHIP_TOL = 1e-9


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


class NumericalError(RuntimeError):
    """A route failed on valid input: it did not converge, or it left the finite numbers."""


class RuleError(ValueError):
    """Agent row breaks a rule on the value at field of its scenario entry (set.ball.radius, say)."""

    def __init__(self, row: int, field: str, rule: str) -> None:
        super().__init__(f"agent {row}: {field.removeprefix('set.').replace('.', ' ')} {rule}")
        self.row, self.field, self.rule = row, field, rule


def shaped(a, shape: tuple[int, ...], name: str) -> np.ndarray:
    """a, flat (a number for one entry) or of that shape, as a float array of that shape; else ValueError naming it."""
    a, size = np.asarray(a, dtype=float), math.prod(shape)
    if a.size != size or a.ndim > 1 and a.shape != shape:
        got = f"shape {a.shape}" if a.size == size else f"{a.size} entries"  # a transposed x, say
        raise ValueError(f"{name} has {got}, expected shape {shape}")
    return a.reshape(shape)


@dataclass(frozen=True, eq=False)
class GameLayout:
    """Every agent's set and cost stacked row-wise, row i for agent i, checked against the cost and set rules."""

    lo: np.ndarray      # (N, n)
    hi: np.ndarray      # (N, n)
    center: np.ndarray  # (N, n): the box midpoint or the ball center
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
        lo, hi, center, radius, ell = self.lo, self.hi, self.center, self.radius, self.ell
        box, bad_ell = radius == np.inf, ~((ell > 0) & (ell < np.inf))  # a box where the radius is inf
        finite = lambda rows: np.isfinite(rows).all(axis=-1)
        # each rule as (field, rule, mask of the rows that break it), cost rules first; the first broken one raises
        for path, rule, rows in (
                ("ell", f"must be positive and finite, got {ell[bad_ell.argmax()]}", bad_ell),
                ("xstar", "must be finite", ~finite(self.xstar)),
                ("linear", "must be finite", ~finite(self.linear)),
                ("set.box", "bounds must be finite", box & ~(finite(lo) & finite(hi))),
                ("set.box", "is empty: lo > hi componentwise", box & (lo > hi).any(axis=-1)),
                ("set", "center must be finite", ~finite(center)),
                ("set.ball.radius", "must be positive and finite", ~box & ~((radius > 0) & (radius < np.inf))),
                ("set.ball", "bounds must be infinite", ~box & ~((lo == -np.inf) & (hi == np.inf)).all(axis=-1))):
            if rows.any():
                raise RuleError(int(rows.argmax()), path, rule)
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


def project_rows(sets: GameLayout, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Project along the agent axis of an (..., N, n) array, with any leading axes, into out if given.

    y[..., i, :] goes onto set_i: clamped componentwise to a box, shrunk radially onto a ball when outside it.
    """
    out = y.clip(sets.lo, sets.hi, out=out)  # np.clip's ufunc, without its dispatch wrapper
    b = sets.ball_rows
    if b.size:
        yb, c, r = np.take(y, b, axis=-2), sets.ball_center, sets.ball_radius
        d = yb - c
        # np.linalg.norm's arithmetic on one row, bit for bit; a vectorized np.linalg.norm is not
        norm = np.sqrt(np.vecdot(d, d))
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = c + d * (r / norm)[..., None]
        out[..., b, :] = np.where((norm <= r)[..., None], yb, shrunk)
    return out


def tangent_rows(sets: GameLayout, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tangent-cone projection along the agent axis of an (..., N, n) array, any leading axes.

    v[..., i, :] goes onto the tangent cone of set_i at x[..., i, :]: a box zeroes
    component j where x_j sits at a bound (within ACTIVITY_TOL) and v_j points
    out of it; a ball on its boundary drops the outward radial part of v,
    v - max(0, u'v) u with u the outward unit normal. Every row of x must
    already lie inside its set.
    """
    blocked = ((x - sets.lo <= ACTIVITY_TOL) & (v < 0)) | ((sets.hi - x <= ACTIVITY_TOL) & (v > 0))
    out = np.where(blocked, 0.0, v)
    b = sets.ball_rows
    if b.size:
        d = np.take(x, b, axis=-2) - sets.ball_center
        norm = np.sqrt(np.vecdot(d, d))[..., None]
        on_boundary = norm >= sets.ball_radius[:, None] - ACTIVITY_TOL
        u = d / np.where(norm > 0, norm, 1.0)
        vb = np.take(v, b, axis=-2)
        outward = np.maximum(0.0, np.sum(u * vb, axis=-1, keepdims=True))
        out[..., b, :] = np.where(on_boundary, vb - outward * u, vb)
    return out


def require_members(sets: GameLayout, x: np.ndarray) -> None:
    """Raise ValueError naming the first agent whose row x[i] lies outside set_i or is not finite."""
    d = x - project_rows(sets, x)
    outside = np.flatnonzero(~(np.sqrt(np.vecdot(d, d)) <= MEMBERSHIP_TOL))
    if outside.size:
        raise ValueError(f"agent {outside[0]} decision lies outside its set")


def vi_min_rows(sets: GameLayout, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise min over z in set_i of (z - x_i)' g_i of (..., N, n) arrays, any leading axes.

    Box: sum_j min((lo_j - x_j) g_j, (hi_j - x_j) g_j). Ball: (center - x)' g
    minus radius * ||g||.
    """
    with np.errstate(invalid="ignore"):  # a ball row's infinite bounds meet g = 0; overwritten below
        out = np.minimum((sets.lo - x) * g, (sets.hi - x) * g).sum(axis=-1)
    b = sets.ball_rows
    if b.size:
        gb = np.take(g, b, axis=-2)
        norm_g = np.sqrt(np.vecdot(gb, gb))
        out[..., b] = np.vecdot(sets.ball_center - np.take(x, b, axis=-2), gb) - sets.ball_radius * norm_g
    return out


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
        C = np.array(self.C, dtype=float)  # a copy, read-only below: games that share C cannot change each other
        if C.shape != (n, n):
            raise ValueError(f"C has shape {C.shape}, expected ({n}, {n})")
        if not np.isfinite(C).all():
            raise ValueError("C must be finite")
        k = float(self.k)
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"k must be positive and finite, got {k}")
        C.setflags(write=False)
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
    """The pair (x, sigma): N stacked agent decisions plus the broadcast signal, held as given (see state_arrays)."""

    x: np.ndarray
    sigma: np.ndarray


def state_arrays(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Return (x, sigma) as ((N, n), (n,)) float arrays, validating shapes."""
    return shaped(state.x, (game.N, game.n), "state.x"), shaped(state.sigma, (game.n,), "state.sigma")


def energy(dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """W = ½‖x − x̄‖² + ½‖σ − σ̄‖² from the offsets dx (..., N, n) and ds (..., n)."""
    return 0.5 * np.sum(dx * dx, axis=(-2, -1)) + 0.5 * np.vecdot(ds, ds)


def strictly_monotone(game: GameSpec) -> bool:
    """Whether the stacked pseudo-gradient is strictly monotone, implying uniqueness."""
    sym_min = float(np.linalg.eigvalsh(0.5 * game.C + 0.5 * game.C.T)[0])  # halved first: no sum overflows
    return game.ell_min + sym_min > 0


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
    if want is float and not math.isfinite(node):
        raise ScenarioError(f"{path} is not finite ({node!r})")
    if want is dict:
        keys = node.keys()
        if isinstance(kind, _OneOf) and len(keys & kind.keys()) != 1:
            raise ScenarioError(f"{path} must hold exactly one of {', '.join(kind)}")
        if type(kind) is dict and not keys >= kind.keys():
            raise ScenarioError(f"{path}.{min(kind.keys() - keys)} is missing".lstrip("."))  # a root key: no dot
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}" if path else key, kind and kind.get(key))
    elif want is list:
        for idx, value in enumerate(node):
            _require_finite(value, f"{path}[{idx}]", kind and kind[0])


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
    with np.errstate(over="ignore", invalid="ignore"):  # a gradient past the float range gives inf or NaN
        return game.C @ x.mean(axis=0) - game.layout.descent(x)  # C avg(x) plus the local gradient, the same bits


def initial_state(game: GameSpec) -> SystemState:
    """Deterministic default start: agents at their set centers, sigma at the average."""
    x0 = game.layout.center.copy()
    with np.errstate(over="ignore"):  # a mean past the float range is inf
        return SystemState(x=x0, sigma=x0.mean(axis=0))


def project_state(game: GameSpec, state: SystemState) -> SystemState:
    """Push every agent decision onto its constraint set (sigma is unconstrained)."""
    x, sigma = state_arrays(game, state)
    return SystemState(x=project_rows(game.layout, x), sigma=sigma)
