"""Independent oracles the tests compare the library against.

Everything here is implemented from definitions only (per-set closed forms, the
dense certificate matrix, dense grids, sampling, finite differences, direct
recurrences), deliberately not reusing the library code paths under test: this
module imports nothing from aggseek. The scalar object model, one Box, Ball or
QuadraticCost per agent, keeps the arithmetic the row kernels reproduce, so the
tests can hold the kernels to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

# a point counts as "on the boundary" within this distance, as in the library
ACTIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {y : lo <= y <= hi}, componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))

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
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


ConvexSet = Union[Box, Ball]


@dataclass(frozen=True)
class QuadraticCost:
    """Strongly convex local cost f(x) = 0.5*ell*||x - xstar||^2 + linear' x."""

    ell: float
    xstar: np.ndarray
    linear: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", float(self.ell))
        object.__setattr__(self, "xstar", np.atleast_1d(np.asarray(self.xstar, dtype=float)))
        object.__setattr__(self, "linear", np.atleast_1d(np.asarray(self.linear, dtype=float)))


def agents_of(layout) -> list[tuple[QuadraticCost, ConvexSet]]:
    """Every row of a game's layout as a (cost, set) pair: a row of finite radius is a ball, the rest boxes."""
    return [(QuadraticCost(layout.ell[i], layout.xstar[i], layout.linear[i]),
             Ball(layout.center[i], layout.radius[i]) if layout.radius[i] < np.inf else Box(layout.lo[i], layout.hi[i]))
            for i in range(layout.ell.shape[0])]


def project(s: ConvexSet, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto the set: a componentwise clamp onto a box; onto a ball, a
    radial shrink when outside, the identity inside."""
    y = np.asarray(y, dtype=float)
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
    return float(np.linalg.norm(y - project(s, y)))


def contains(s: ConvexSet, y: np.ndarray, tol: float = 1e-9) -> bool:
    return distance(s, y) <= tol


def tangent_project(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project the velocity v onto the tangent cone of the set at the member x, the limit
    lim_{eps -> 0+} (project(x + eps*v) - x) / eps.

    Box: v with component j zeroed where x_j sits at the lower bound with v_j < 0 or at the upper bound
    with v_j > 0. Ball: v in the interior; on the boundary, v - max(0, u'v) u with u the outward normal.
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if isinstance(s, Box):
        return np.where(((x - s.lo <= ACTIVITY_TOL) & (v < 0)) | ((s.hi - x <= ACTIVITY_TOL) & (v > 0)), 0.0, v)
    d = x - s.center
    norm = np.sqrt(np.vecdot(d, d))
    if norm < s.radius - ACTIVITY_TOL:
        return v.copy()
    u = d / (norm if norm > 0 else 1.0)
    return v - np.maximum(0.0, np.sum(u * v)) * u


def normal_project(s: ConvexSet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the normal cone of the set at the member x, {w : (z - x)' w <= 0 for every z in it}.

    Box: per component the cone is (-inf, 0] at the lower bound, [0, inf) at the upper bound, all
    numbers at both and {0} between them. Ball: the ray of the outward normal u on the boundary, onto
    which v projects as max(0, u'v) u; {0} inside.
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if isinstance(s, Box):
        at_lo, at_hi = x - s.lo <= ACTIVITY_TOL, s.hi - x <= ACTIVITY_TOL
        one_side = np.where(at_lo, np.minimum(v, 0.0), np.where(at_hi, np.maximum(v, 0.0), 0.0))
        return np.where(at_lo & at_hi, v, one_side)
    d = x - s.center
    norm = float(np.linalg.norm(d))
    if norm < s.radius - ACTIVITY_TOL:
        return np.zeros_like(v)
    u = d / norm
    return max(0.0, float(u @ v)) * u


def grad_f(cost: QuadraticCost, x: np.ndarray) -> np.ndarray:
    """Gradient of the local cost: ell * (x - xstar) + linear."""
    return cost.ell * (np.asarray(x, dtype=float) - cost.xstar) + cost.linear


def local_f(cost: QuadraticCost, x: np.ndarray) -> float:
    """The local cost value f(x) itself (no coupling, no indicator)."""
    x = np.asarray(x, dtype=float)
    d = x - cost.xstar
    return 0.5 * cost.ell * float(d @ d) + float(cost.linear @ x)


def cost_J(cost: QuadraticCost, s: ConvexSet, C: np.ndarray, x: np.ndarray, sigma: np.ndarray) -> float:
    """An agent's full cost at decision x under broadcast sigma: f(x) + (C sigma)' x inside its set, else inf."""
    return local_f(cost, x) + float((C @ sigma) @ x) if contains(s, x) else math.inf


def best_response(cost: QuadraticCost, s: ConvexSet, C: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The minimizer of cost_J over the set: the isotropic quadratic's unconstrained one, projected."""
    return project(s, cost.xstar - (C @ sigma + cost.linear) / cost.ell)


def certificate_matrix(ell: float, k: float, C: np.ndarray, N: int, variant: str) -> np.ndarray:
    """The dense (nN+n)-square certificate matrix [[ell I, column], [column', k I]], its column N stacked
    copies of B = 0.5*(s C - (k/N) I), s = -1 for the paper variant and +1 for the symmetrized one."""
    n = C.shape[0]
    B = 0.5 * ({"paper": -1.0, "symmetrized": 1.0}[variant] * C - (k / N) * np.eye(n))
    column = np.tile(B, (N, 1))
    return np.block([[ell * np.eye(n * N), column], [column.T, k * np.eye(n)]])


def mean_dynamics_abscissa(ell: float, k: float, C: np.ndarray) -> float:
    """Spectral abscissa of the mean dynamics [[-ell I, -C], [k I, -k I]] of a game whose agents share ell.

    Away from every constraint, the agents' average and sigma follow this linear system, and each agent's
    offset from the average decays at rate ell; the equilibrium attracts every such trajectory iff the
    abscissa, the largest real part of an eigenvalue, is negative.
    """
    n = C.shape[0]
    return float(np.linalg.eigvals(np.block([[-ell * np.eye(n), -C], [k * np.eye(n), -k * np.eye(n)]])).real.max())


def storage_inequality_check(agents, C, x, sigma, xdot, xbar, sigmabar, slack: float = 1e-9) -> bool:
    """Pointwise storage inequality for V = half the squared distance to the equilibrium decisions xbar.

    xdot is the flow's velocity at (x, sigma), Pi(x, -grad f(x) + u) with u = -C sigma for every agent.
    Checks (x - xbar)' xdot <= -(x - xbar)' (grad f(x) - grad f(xbar) + ubar - u) + slack, summed over
    the agents, with ubar = -C sigmabar; it holds at every feasible x for any sigma, and its right-hand
    side is where strong convexity enters the decrease argument.
    """
    u, ubar = -(C @ sigma), -(C @ sigmabar)
    lhs = sum(float((x[i] - xbar[i]) @ xdot[i]) for i in range(len(agents)))
    rhs = -sum(float((x[i] - xbar[i]) @ (grad_f(cost, x[i]) - grad_f(cost, xbar[i]) + ubar - u))
               for i, (cost, _) in enumerate(agents))
    return lhs <= rhs + slack


def splitmix64_reference(seed: int, count: int) -> list[float]:
    """First `count` uniforms of the documented generator, recomputed step by step."""
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z / 2.0**64)
    return out


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def grid_minimize_interval(
    objective: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, resolution: float = 1e-5
) -> float:
    """Argmin of a scalar objective over [lo, hi] by dense grid evaluation.

    The objective must accept a vector of candidate points and return their
    values elementwise.
    """
    count = int(np.floor((hi - lo) / resolution)) + 1
    zs = lo + resolution * np.arange(count)
    if zs[-1] < hi:
        zs = np.append(zs, hi)
    vals = objective(zs)
    return float(zs[int(np.argmin(vals))])


def grid_project_interval(y: float, lo: float, hi: float, resolution: float = 1e-5) -> float:
    """Projection onto [lo, hi] by grid minimization of the distance."""
    return grid_minimize_interval(lambda zs: (zs - y) ** 2, lo, hi, resolution)


def sampled_ball_projection_2d(
    y: np.ndarray, center: np.ndarray, radius: float, samples: int = 400_000
) -> np.ndarray:
    """Projection onto a 2-D disk by dense boundary sampling (plus the interior case)."""
    y = np.asarray(y, dtype=float)
    center = np.asarray(center, dtype=float)
    if float(np.linalg.norm(y - center)) <= radius:
        return y.copy()
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    boundary = center[None, :] + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    d2 = np.sum((boundary - y[None, :]) ** 2, axis=1)
    return boundary[int(np.argmin(d2))]


def limit_tangent(project: Callable[[np.ndarray], np.ndarray], x: np.ndarray, v: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """The tangent-cone projection evaluated through its limit definition."""
    return (project(x + eps * v) - x) / eps


def sampled_set_infimum(points: np.ndarray, x: np.ndarray, g: np.ndarray) -> float:
    """min over sampled feasible z of (z - x)' g, a lower-confidence oracle for VI gaps."""
    return float(np.min((points - x[None, :]) @ g))
