"""Compact convex constraint sets (boxes and balls) and their cone projections.

Every set supports three operations: Euclidean point projection, projection of a
velocity onto the tangent cone at a feasible point, and the complementary
projection onto the normal cone. Tangent + normal reconstruct the input vector
exactly and are mutually orthogonal (Moreau decomposition), which the test suite
uses as the internal consistency law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

# a point counts as "on the boundary" within this distance
ACTIVITY_TOL = 1e-10
# points farther outside the set than this are rejected by the cone projections
MEMBERSHIP_TOL = 1e-9


class RuleError(ValueError):
    """Agent row breaks a rule on the value at field of its scenario entry (set.ball.radius, say)."""

    def __init__(self, row: int, field: str, rule: str, subject: str) -> None:
        super().__init__(f"agent {row}: {subject} {rule}")
        self.row, self.field, self.rule = row, field, rule


def enforce(faults, agent: bool = True) -> None:
    """Raise for the first row of the first rule broken, of faults (field, rule, mask of the rows that break it).

    The message is `subject rule`, the subject the field in words (set.ball.radius: ball radius), in a
    RuleError after `agent i: `, or alone in a ValueError for a single set or cost (agent False).
    """
    for field, rule, rows in faults:
        if rows.any():
            subject = field.removeprefix("set.").replace(".", " ")
            raise RuleError(int(rows.argmax()), field, rule, subject) if agent else ValueError(f"{subject} {rule}")


def _set_faults(lo, hi, center, radius, box) -> tuple:
    """Each set rule as (field, rule, mask of the rows that break it), on (N, n) rows: boxes where box, else balls."""
    finite = lambda rows: np.isfinite(rows).all(axis=-1)
    return (("set.box", "bounds must be finite", box & ~(finite(lo) & finite(hi))),
            ("set.box", "is empty: lo > hi componentwise", box & (lo > hi).any(axis=-1)),
            ("set", "center must be finite", ~finite(center)),
            ("set.ball.radius", "must be positive and finite", ~box & ~((radius > 0) & (radius < np.inf))),
            ("set.ball", "bounds must be infinite", ~box & ~((lo == -np.inf) & (hi == np.inf)).all(axis=-1)))


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
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        with np.errstate(invalid="ignore", over="ignore"):  # the rules name such bounds, or a midpoint that overflows
            center = self.center
        enforce(_set_faults(lo[None], hi[None], center[None], np.full(1, np.inf), np.ones(1, bool)), agent=False)

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
        r, inf = float(self.radius), np.full((1, c.size), np.inf)
        enforce(_set_faults(-inf, inf, c[None], np.array([r]), np.zeros(1, bool)), agent=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


ConvexSet = Union[Box, Ball]


def shaped(a, shape: tuple[int, ...], name: str) -> np.ndarray:
    """a, of any layout with prod(shape) entries, as a float array of that shape; else ValueError naming it."""
    a = np.asarray(a, dtype=float)
    if a.size != math.prod(shape):
        raise ValueError(f"{name} has {a.size} entries, expected shape {shape}")
    return a.reshape(shape)


def project(s: ConvexSet, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto the set.

    Box: componentwise clamp. Ball: radial shrink when outside, identity inside.
    """
    y = shaped(y, (s.dim,), "y")
    if isinstance(s, Box):
        return np.clip(y, s.lo, s.hi)
    d = y - s.center
    norm = float(np.linalg.norm(d))
    if norm <= s.radius:
        return y.copy()
    with np.errstate(invalid="ignore"):  # an infinite coordinate gives inf * 0: NaN, outside the set
        return s.center + d * (s.radius / norm)


def distance(s: ConvexSet, y: np.ndarray) -> float:
    """Euclidean distance from y to the set (zero for members)."""
    y = shaped(y, (s.dim,), "y")
    return float(np.linalg.norm(y - project(s, y)))


def contains(s: ConvexSet, y: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    return distance(s, y) <= tol


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
    x = shaped(x, (s.dim,), "x")
    if not (gap := distance(s, x)) <= MEMBERSHIP_TOL:  # a non-finite point is outside too
        raise ValueError(f"point lies outside the set (distance {gap:.3e})")
    v = shaped(v, (s.dim,), "v")
    if isinstance(s, Box):
        return np.where(((x - s.lo <= ACTIVITY_TOL) & (v < 0)) | ((s.hi - x <= ACTIVITY_TOL) & (v > 0)), 0.0, v)
    d = x - s.center
    norm = np.sqrt(np.vecdot(d, d))  # tangent_rows' arithmetic, so the two agree bit for bit
    if norm < s.radius - ACTIVITY_TOL:
        return v.copy()
    u = d / (norm if norm > 0 else 1.0)
    return v - np.maximum(0.0, np.sum(u * v)) * u


def normal_project(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the normal cone at x: the Moreau complement of tangent_project."""
    v = shaped(v, (s.dim,), "v")
    return v - tangent_project(s, x, v)


def set_center(s: ConvexSet) -> np.ndarray:
    """Deterministic interior representative: box midpoint or ball center."""
    return s.center.copy()


@dataclass(frozen=True, eq=False)
class SetRows:
    """N boxes and balls stacked row-wise for the batched kernels.

    Row i is the intersection of a box [lo_i, hi_i] and a ball of radius_i
    around center_i: a box row has an infinite radius, a ball row infinite
    bounds. center_i is set_center of row i's set on every row; every row keeps the set rules.
    """

    lo: np.ndarray       # (N, n)
    hi: np.ndarray       # (N, n)
    center: np.ndarray   # (N, n)
    radius: np.ndarray   # (N,)
    ball_rows: np.ndarray = field(init=False)    # indices of the rows of finite radius
    ball_center: np.ndarray = field(init=False)  # center[ball_rows], gathered once
    ball_radius: np.ndarray = field(init=False)  # radius[ball_rows], gathered once

    def __post_init__(self) -> None:
        enforce(_set_faults(self.lo, self.hi, self.center, self.radius, self.radius == np.inf))
        b = np.flatnonzero(self.radius < np.inf)
        for name, rows in (("ball_rows", b), ("ball_center", self.center[b]), ("ball_radius", self.radius[b])):
            object.__setattr__(self, name, rows)
        for rows in vars(self).values():
            rows.setflags(write=False)  # games that share rows cannot change each other

    def row(self, i: int) -> ConvexSet:
        """Row i's set, rebuilt as a Box or a Ball."""
        return Ball(self.center[i], self.radius[i]) if self.radius[i] < np.inf else Box(self.lo[i], self.hi[i])


def project_rows(sets: SetRows, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Project along the agent axis of an (..., N, n) array, with any leading axes, into out if given.

    y[..., i, :] goes onto set_i and equals project(set_i, y[..., i, :]); a zero may differ in sign.
    """
    out = y.clip(sets.lo, sets.hi, out=out)  # np.clip's ufunc, without its dispatch wrapper
    b = sets.ball_rows
    if b.size:
        yb, c, r = np.take(y, b, axis=-2), sets.ball_center, sets.ball_radius
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
        d = np.take(x, b, axis=-2) - sets.ball_center
        norm = np.sqrt(np.vecdot(d, d))[..., None]
        on_boundary = norm >= sets.ball_radius[:, None] - ACTIVITY_TOL
        u = d / np.where(norm > 0, norm, 1.0)
        vb = np.take(v, b, axis=-2)
        outward = np.maximum(0.0, np.sum(u * vb, axis=-1, keepdims=True))
        out[..., b, :] = np.where(on_boundary, vb - outward * u, vb)
    return out


def require_members(sets: SetRows, x: np.ndarray) -> None:
    """Raise ValueError naming the first agent whose row x[i] lies outside set_i or is not finite."""
    d = x - project_rows(sets, x)
    outside = np.flatnonzero(~(np.sqrt(np.vecdot(d, d)) <= MEMBERSHIP_TOL))
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
        gb = np.take(g, b, axis=-2)
        norm_g = np.sqrt(np.vecdot(gb, gb))
        out[..., b] = np.vecdot(sets.ball_center - np.take(x, b, axis=-2), gb) - sets.ball_radius * norm_g
    return out

