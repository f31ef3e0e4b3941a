"""Compact convex constraint sets (boxes and balls) and their cone projections.

Every set supports three operations: Euclidean point projection, projection of a
velocity onto the tangent cone at a feasible point, and the complementary
projection onto the normal cone. Tangent + normal reconstruct the input vector
exactly and are mutually orthogonal (Moreau decomposition), which the test suite
uses as the internal consistency law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

# a point counts as "on the boundary" within this distance
ACTIVITY_TOL = 1e-10
# points farther outside the set than this are rejected by the cone projections
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {y : lo <= y <= hi}, componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("empty box: lo > hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball {y : ||y - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise ValueError("ball center must be a 1-D array")
        r = float(self.radius)
        if not 0 < r < np.inf:
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


ConvexSet = Union[Box, Ball]


def _check_dim(s: ConvexSet, y: np.ndarray, name: str) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (s.dim,):
        raise ValueError(f"{name} has dimension {y.shape}, set has dimension {s.dim}")
    return y


def project(s: ConvexSet, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto the set.

    Box: componentwise clamp. Ball: radial shrink when outside, identity inside.
    """
    y = _check_dim(s, y, "point")
    if isinstance(s, Box):
        return np.clip(y, s.lo, s.hi)
    d = y - s.center
    norm = float(np.linalg.norm(d))
    if norm <= s.radius:
        return y.copy()
    return s.center + d * (s.radius / norm)


def distance(s: ConvexSet, y: np.ndarray) -> float:
    """Euclidean distance from y to the set (zero for members)."""
    y = _check_dim(s, y, "point")
    return float(np.linalg.norm(y - project(s, y)))


def contains(s: ConvexSet, y: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    return distance(s, y) <= tol


def _require_member(s: ConvexSet, x: np.ndarray) -> np.ndarray:
    d = distance(s, x)
    if d > MEMBERSHIP_TOL:
        raise ValueError(f"point lies outside the set (distance {d:.3e})")
    return _check_dim(s, x, "point")


def tangent_project(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project the velocity v onto the tangent cone of the set at x.

    Equals lim_{eps -> 0+} (project(x + eps*v) - x) / eps. Closed forms:

    Box: copy v, zero out component j when x_j sits at the lower bound with
    v_j < 0 or at the upper bound with v_j > 0 ("at" meaning within the
    activity tolerance).

    Ball: v unchanged in the interior; on the boundary remove the outward
    radial part, v - max(0, u.v) u with u the outward unit normal.

    Raises ValueError when x lies outside the set beyond tolerance.
    """
    x = _require_member(s, x)
    v = _check_dim(s, v, "vector")
    return tangent_rows(SetRows(**stack_sets([s])), x[None], v[None])[0]


def normal_project(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the normal cone at x: the Moreau complement of tangent_project."""
    v = _check_dim(s, v, "vector")
    return v - tangent_project(s, x, v)


def set_center(s: ConvexSet) -> np.ndarray:
    """Deterministic interior representative: box midpoint or ball center."""
    return s.center.copy()


@dataclass(frozen=True)
class SetRows:
    """N boxes and balls stacked row-wise for the batched kernels.

    Row i is the intersection of a box [lo_i, hi_i] and a ball of radius_i
    around center_i: a box row has an infinite radius, a ball row infinite
    bounds. center_i is set_center of row i's set on every row.
    """

    lo: np.ndarray       # (N, n)
    hi: np.ndarray       # (N, n)
    center: np.ndarray   # (N, n)
    radius: np.ndarray   # (N,)
    ball_rows: np.ndarray = field(init=False)  # indices of the rows of finite radius

    def __post_init__(self) -> None:
        for rows in vars(self).values():
            rows.setflags(write=False)  # games that share rows cannot change each other
        object.__setattr__(self, "ball_rows", np.flatnonzero(self.radius < np.inf))

    def row(self, i: int) -> ConvexSet:
        """Row i's set, rebuilt as a Box or a Ball."""
        return Ball(self.center[i], self.radius[i]) if self.radius[i] < np.inf else Box(self.lo[i], self.hi[i])


def stack_sets(sets: Sequence[ConvexSet]) -> dict[str, np.ndarray]:
    """The SetRows fields of a sequence of sets of one dimension, one row per set."""
    balls = [isinstance(s, Ball) for s in sets]
    unbounded = np.full(sets[0].dim, np.inf)
    return dict(
        lo=np.stack([-unbounded if ball else s.lo for s, ball in zip(sets, balls)]),
        hi=np.stack([unbounded if ball else s.hi for s, ball in zip(sets, balls)]),
        center=np.stack([s.center for s in sets]),
        radius=np.array([s.radius if ball else np.inf for s, ball in zip(sets, balls)]),
    )


def project_rows(sets: SetRows, y: np.ndarray) -> np.ndarray:
    """Project along the agent axis of an (..., N, n) array, with any leading axes.

    y[..., i, :] goes onto set_i and equals project(set_i, y[..., i, :]) bit for bit.
    """
    out = np.clip(y, sets.lo, sets.hi)
    b = sets.ball_rows
    if b.size:
        yb, c, r = y[..., b, :], sets.center[b], sets.radius[b]
        d = yb - c
        # the scalar norm of project, bit for bit; a vectorized np.linalg.norm is not
        norm = np.sqrt(np.vecdot(d, d))
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = c + d * (r / norm)[..., None]
        out[..., b, :] = np.where((norm <= r)[..., None], yb, shrunk)
    return out


def tangent_rows(sets: SetRows, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tangent-cone projection along the agent axis of an (..., N, n) array, any leading axes.

    v[..., i, :] goes onto the tangent cone of set_i at x[..., i, :], as in
    tangent_project; every row of x must already lie inside its set.
    """
    blocked = ((x - sets.lo <= ACTIVITY_TOL) & (v < 0)) | ((sets.hi - x <= ACTIVITY_TOL) & (v > 0))
    out = np.where(blocked, 0.0, v)
    b = sets.ball_rows
    if b.size:
        d = x[..., b, :] - sets.center[b]
        norm = np.sqrt(np.vecdot(d, d))[..., None]
        on_boundary = norm >= sets.radius[b, None] - ACTIVITY_TOL
        u = d / np.where(norm > 0, norm, 1.0)
        vb = v[..., b, :]
        outward = np.maximum(0.0, np.sum(u * vb, axis=-1, keepdims=True))
        out[..., b, :] = np.where(on_boundary, vb - outward * u, vb)
    return out


def require_members(sets: SetRows, x: np.ndarray) -> None:
    """Raise ValueError naming the first agent whose row x[i] lies outside set_i."""
    d = x - project_rows(sets, x)
    outside = np.flatnonzero(np.sqrt(np.vecdot(d, d)) > MEMBERSHIP_TOL)
    if outside.size:
        raise ValueError(f"agent {outside[0]} decision lies outside its set")


def vi_min_rows(sets: SetRows, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise min over z in set_i of (z - x_i)' g_i of (..., N, n) arrays, any leading axes.

    Box: sum_j min((lo_j - x_j) g_j, (hi_j - x_j) g_j). Ball: (center - x)' g
    minus radius * ||g||.
    """
    with np.errstate(invalid="ignore"):  # a ball row's infinite bounds meet g = 0; overwritten below
        out = np.minimum((sets.lo - x) * g, (sets.hi - x) * g).sum(axis=-1)
    b = sets.ball_rows
    if b.size:
        gb = g[..., b, :]
        norm_g = np.sqrt(np.vecdot(gb, gb))
        out[..., b] = np.vecdot(sets.center[b] - x[..., b, :], gb) - sets.radius[b] * norm_g
    return out


def set_from_document(fragment: dict) -> ConvexSet:
    """Build a set from its scenario-file fragment.

    Accepts {"box": {"lo": [...], "hi": [...]}} or
    {"ball": {"center": [...], "radius": r}}.
    """
    if not isinstance(fragment, dict) or len(fragment) != 1:
        raise ValueError(f"set fragment must have exactly one of 'box'/'ball': {fragment!r}")
    kind, body = next(iter(fragment.items()))
    if kind == "box":
        try:
            return Box(np.asarray(body["lo"], dtype=float), np.asarray(body["hi"], dtype=float))
        except KeyError as e:
            raise ValueError(f"box fragment missing field {e}") from None
    if kind == "ball":
        try:
            return Ball(np.asarray(body["center"], dtype=float), float(body["radius"]))
        except KeyError as e:
            raise ValueError(f"ball fragment missing field {e}") from None
    raise ValueError(f"unknown set kind {kind!r}")
