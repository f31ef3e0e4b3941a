from __future__ import annotations

import numpy as np
import pytest

from aggseek.geometry import (
    Ball,
    Box,
    contains,
    distance,
    normal_project,
    project,
    set_center,
    set_from_document,
    tangent_project,
)

from helpers import random_boundaryish_point, random_point_in, random_set
from oracles import grid_project_interval, limit_tangent, sampled_ball_projection_2d


def unit_box() -> Box:
    return Box(np.array([0.25]), np.array([0.75]))


def test_project_box_interior() -> None:
    assert project(unit_box(), np.array([0.5])) == pytest.approx([0.5])


def test_project_box_clamps_and_matches_grid_oracle() -> None:
    p = project(unit_box(), np.array([0.9]))
    assert p == pytest.approx([0.75])
    assert abs(p[0] - grid_project_interval(0.9, 0.25, 0.75)) <= 1e-5


def test_project_ball_radial_and_matches_sampling_oracle() -> None:
    ball = Ball(np.zeros(2), 1.0)
    p = project(ball, np.array([3.0, 4.0]))
    assert p == pytest.approx([0.6, 0.8])
    sampled = sampled_ball_projection_2d(np.array([3.0, 4.0]), np.zeros(2), 1.0)
    assert np.linalg.norm(p - sampled) <= 1e-4


def test_project_ball_identity_inside() -> None:
    ball = Ball(np.array([1.0, -1.0]), 2.0)
    y = np.array([1.5, -1.2])
    assert project(ball, y) == pytest.approx(y)


def test_projection_idempotent_and_nonexpansive() -> None:
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        y1 = rng.normal(scale=2.0, size=n)
        y2 = rng.normal(scale=2.0, size=n)
        p1, p2 = project(s, y1), project(s, y2)
        if isinstance(s, Box):
            assert np.array_equal(project(s, p1), p1)
        else:
            assert np.linalg.norm(project(s, p1) - p1) <= 1e-12
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-12


def test_tangent_box_interior_passthrough() -> None:
    assert tangent_project(unit_box(), np.array([0.5]), np.array([-3.0])) == pytest.approx([-3.0])


def test_tangent_box_blocks_outward_at_lower_bound() -> None:
    out = tangent_project(unit_box(), np.array([0.25]), np.array([-0.225]))
    assert out == pytest.approx([0.0])


def test_tangent_ball_removes_outward_radial_part() -> None:
    ball = Ball(np.zeros(2), 1.0)
    out = tangent_project(ball, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert out == pytest.approx([0.0, 1.0])
    # inward drives pass through unchanged on the boundary
    inward = tangent_project(ball, np.array([1.0, 0.0]), np.array([-1.0, 0.5]))
    assert inward == pytest.approx([-1.0, 0.5])


def test_tangent_matches_limit_definition() -> None:
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        x = random_boundaryish_point(rng, s)
        v = rng.normal(size=n)
        lim = limit_tangent(lambda y: project(s, y), x, v)
        assert np.linalg.norm(tangent_project(s, x, v) - lim) <= 1e-6


def test_normal_project_examples() -> None:
    assert normal_project(unit_box(), np.array([0.5]), np.array([7.0])) == pytest.approx([0.0])
    assert normal_project(unit_box(), np.array([0.25]), np.array([-0.225])) == pytest.approx([-0.225])
    ball = Ball(np.zeros(2), 1.0)
    assert normal_project(ball, np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx([1.0, 0.0])


def test_moreau_identity_orthogonality_membership() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = random_set(rng, n)
        x = random_boundaryish_point(rng, s)
        v = rng.normal(scale=2.0, size=n)
        t = tangent_project(s, x, v)
        w = normal_project(s, x, v)
        if isinstance(s, Box):
            assert np.array_equal(t + w, v)
        else:
            assert np.linalg.norm(t + w - v) <= 1e-12
        assert abs(float(t @ w)) <= 1e-9
        # w must support the set at x: nonpositive inner product with feasible directions
        zs = np.stack([random_point_in(rng, s) for _ in range(20)])
        assert float(np.max((zs - x[None, :]) @ w)) <= 1e-9


def test_tangent_rejects_points_outside() -> None:
    with pytest.raises(ValueError):
        tangent_project(unit_box(), np.array([0.9]), np.array([1.0]))
    with pytest.raises(ValueError):
        tangent_project(Ball(np.zeros(2), 1.0), np.array([2.0, 0.0]), np.ones(2))


def test_dimension_mismatch_rejected() -> None:
    with pytest.raises(ValueError):
        project(unit_box(), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        tangent_project(Ball(np.zeros(2), 1.0), np.zeros(2), np.zeros(3))


def test_set_validation() -> None:
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        Ball(np.zeros(2), np.inf)  # an infinite radius marks a box row in SetRows


def test_contains_distance_center() -> None:
    b = unit_box()
    assert contains(b, np.array([0.3]))
    assert not contains(b, np.array([0.9]))
    assert distance(b, np.array([0.9])) == pytest.approx(0.15)
    assert set_center(b) == pytest.approx([0.5])
    assert set_center(Ball(np.array([1.0, 2.0]), 0.5)) == pytest.approx([1.0, 2.0])


def test_set_from_document_fragments() -> None:
    b = set_from_document({"box": {"lo": [0.0], "hi": [1.0]}})
    assert isinstance(b, Box)
    s = set_from_document({"ball": {"center": [0.0, 0.0], "radius": 2.0}})
    assert isinstance(s, Ball)
    with pytest.raises(ValueError):
        set_from_document({"pyramid": {}})
    with pytest.raises(ValueError):
        set_from_document({"box": {"lo": [0.0]}})
