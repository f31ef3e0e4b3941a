"""Compact convex constraint sets (boxes and balls): the set rules of a layout's rows, and the kernels over them.

Agent i's set is row i of a model.GameLayout: a box [lo_i, hi_i] with an infinite
radius, or a ball of radius_i around center_i with infinite bounds. The kernels act on
the agent axis of (..., N, n) arrays: Euclidean point projection, projection of
a velocity onto the tangent cone at a feasible point, membership, and the
minimum of a linear function over each set. The test suite checks them against
scalar per-set oracles written from the definitions, among them the normal cone
that completes the tangent cone (Moreau decomposition).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # the kernels read a layout's rows; model imports this module
    from .model import GameLayout

# a point counts as "on the boundary" within this distance
ACTIVITY_TOL = 1e-10
# points farther outside their set than this are rejected by require_members
MEMBERSHIP_TOL = 1e-9


class RuleError(ValueError):
    """Agent row breaks a rule on the value at field of its scenario entry (set.ball.radius, say)."""

    def __init__(self, row: int, field: str, rule: str) -> None:
        super().__init__(f"agent {row}: {field.removeprefix('set.').replace('.', ' ')} {rule}")
        self.row, self.field, self.rule = row, field, rule


def enforce(faults) -> None:
    """Raise a RuleError for the first row of the first rule broken, of faults (field, rule, mask of the rows
    that break it): `agent i: subject rule`, the subject the field in words (set.ball.radius: ball radius)."""
    for field, rule, rows in faults:
        if rows.any():
            raise RuleError(int(rows.argmax()), field, rule)


def set_faults(lo, hi, center, radius) -> tuple:
    """Each set rule as (field, rule, mask of the rows that break it), on (N, n) rows: a box where the radius is inf."""
    box = radius == np.inf
    finite = lambda rows: np.isfinite(rows).all(axis=-1)
    return (("set.box", "bounds must be finite", box & ~(finite(lo) & finite(hi))),
            ("set.box", "is empty: lo > hi componentwise", box & (lo > hi).any(axis=-1)),
            ("set", "center must be finite", ~finite(center)),
            ("set.ball.radius", "must be positive and finite", ~box & ~((radius > 0) & (radius < np.inf))),
            ("set.ball", "bounds must be infinite", ~box & ~((lo == -np.inf) & (hi == np.inf)).all(axis=-1)))


def shaped(a, shape: tuple[int, ...], name: str) -> np.ndarray:
    """a, of any layout with prod(shape) entries, as a float array of that shape; else ValueError naming it."""
    a = np.asarray(a, dtype=float)
    if a.size != math.prod(shape):
        raise ValueError(f"{name} has {a.size} entries, expected shape {shape}")
    return a.reshape(shape)


def positive_int(value, name: str) -> int:
    """value as an int when it is an integer of at least 1 (a bool is not); else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


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

