"""The row kernels on one-row layouts, against per-set oracles written from the definitions."""

from __future__ import annotations

import numpy as np
import pytest

from aggseek.model import GameLayout, project_rows, require_members, tangent_rows

from helpers import one_row, random_boundaryish_point, random_point_in, random_set
from oracles import (
    Ball,
    Box,
    ConvexSet,
    grid_project_interval,
    limit_tangent,
    normal_project,
    project,
    sampled_ball_projection_2d,
)


def project_one(s: ConvexSet, y: np.ndarray) -> np.ndarray:
    return project_rows(one_row(s), np.asarray(y, dtype=float)[None])[0]


def tangent_one(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return tangent_rows(one_row(s), np.asarray(x, dtype=float)[None], np.asarray(v, dtype=float)[None])[0]


def unit_box() -> Box:
    return Box(np.array([0.25]), np.array([0.75]))


def test_project_box_interior() -> None:
    assert project_one(unit_box(), np.array([0.5])) == pytest.approx([0.5])


def test_project_box_clamps_and_matches_grid_oracle() -> None:
    p = project_one(unit_box(), np.array([0.9]))
    assert p == pytest.approx([0.75])
    assert abs(p[0] - grid_project_interval(0.9, 0.25, 0.75)) <= 1e-5


def test_project_ball_radial_and_matches_sampling_oracle() -> None:
    ball = Ball(np.zeros(2), 1.0)
    p = project_one(ball, np.array([3.0, 4.0]))
    assert p == pytest.approx([0.6, 0.8])
    sampled = sampled_ball_projection_2d(np.array([3.0, 4.0]), np.zeros(2), 1.0)
    assert np.linalg.norm(p - sampled) <= 1e-4


def test_project_ball_identity_inside() -> None:
    ball = Ball(np.array([1.0, -1.0]), 2.0)
    y = np.array([1.5, -1.2])
    assert project_one(ball, y) == pytest.approx(y)


def test_projection_idempotent_and_nonexpansive() -> None:
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        y1 = rng.normal(scale=2.0, size=n)
        y2 = rng.normal(scale=2.0, size=n)
        lay = one_row(s)
        p1, p2 = project_rows(lay, y1[None]), project_rows(lay, y2[None])
        if isinstance(s, Box):
            assert np.array_equal(project_rows(lay, p1), p1)
        else:
            assert np.linalg.norm(project_rows(lay, p1) - p1) <= 1e-12
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-12


def test_tangent_box_interior_passthrough() -> None:
    assert tangent_one(unit_box(), np.array([0.5]), np.array([-3.0])) == pytest.approx([-3.0])


def test_tangent_box_blocks_outward_at_lower_bound() -> None:
    out = tangent_one(unit_box(), np.array([0.25]), np.array([-0.225]))
    assert out == pytest.approx([0.0])


def test_tangent_ball_removes_outward_radial_part() -> None:
    ball = Ball(np.zeros(2), 1.0)
    out = tangent_one(ball, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert out == pytest.approx([0.0, 1.0])
    # inward drives pass through unchanged on the boundary
    inward = tangent_one(ball, np.array([1.0, 0.0]), np.array([-1.0, 0.5]))
    assert inward == pytest.approx([-1.0, 0.5])


def test_tangent_matches_limit_definition() -> None:
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        x = random_boundaryish_point(rng, s)
        v = rng.normal(size=n)
        lim = limit_tangent(lambda y: project(s, y), x, v)
        assert np.linalg.norm(tangent_one(s, x, v) - lim) <= 1e-6


def test_normal_part_examples() -> None:
    # the normal part v - tangent of v, the Moreau complement
    assert np.array([7.0]) - tangent_one(unit_box(), np.array([0.5]), np.array([7.0])) == pytest.approx([0.0])
    v = np.array([-0.225])
    assert v - tangent_one(unit_box(), np.array([0.25]), v) == pytest.approx([-0.225])
    v = np.array([1.0, 1.0])
    assert v - tangent_one(Ball(np.zeros(2), 1.0), np.array([1.0, 0.0]), v) == pytest.approx([1.0, 0.0])


def test_moreau_identity_orthogonality_membership() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        x = random_boundaryish_point(rng, s)
        v = rng.normal(scale=2.0, size=n)
        t = tangent_one(s, x, v)
        w = normal_project(s, x, v)
        if isinstance(s, Box):
            assert np.array_equal(t + w, v)
        else:
            assert np.linalg.norm(t + w - v) <= 1e-12
        assert abs(float(t @ w)) <= 1e-9
        # w must support the set at x: nonpositive inner product with feasible directions
        zs = np.stack([random_point_in(rng, s) for _ in range(20)])
        assert float(np.max((zs - x[None, :]) @ w)) <= 1e-9


def test_set_validation() -> None:
    def one(lo, hi, center, radius):  # a one-row layout, its cost within the cost rules
        zeros = np.zeros((1, len(lo)))
        return GameLayout(*map(np.array, ([lo], [hi], [center], [radius], [1.0])), zeros, zeros)

    with pytest.raises(ValueError, match="^agent 0: box is empty: lo > hi componentwise$"):
        one([1.0], [0.0], [0.5], np.inf)
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="^agent 0: ball radius must be positive and finite$"):
            one([-np.inf] * 2, [np.inf] * 2, [0.0, 0.0], radius)
    # an infinite radius marks a box row, so a ball of infinite radius reads as a box without bounds
    with pytest.raises(ValueError, match="^agent 0: box bounds must be finite$"):
        one([-np.inf] * 2, [np.inf] * 2, [0.0, 0.0], np.inf)


def test_require_members_rejects_points_outside() -> None:
    with pytest.raises(ValueError, match="^agent 0 decision lies outside its set$"):
        require_members(one_row(unit_box()), np.array([[0.9]]))
    with pytest.raises(ValueError, match="^agent 0 decision lies outside its set$"):
        require_members(one_row(Ball(np.zeros(2), 1.0)), np.array([[2.0, 0.0]]))


def test_membership_and_center() -> None:
    lay = one_row(unit_box())
    require_members(lay, np.array([[0.3]]))
    require_members(lay, np.array([[0.75 + 1e-10]]))  # within the membership tolerance
    with pytest.raises(ValueError):
        require_members(lay, np.array([[0.75 + 1e-8]]))
    assert lay.center.tolist() == [[0.5]]
    assert one_row(Ball(np.array([1.0, 2.0]), 0.5)).center.tolist() == [[1.0, 2.0]]
