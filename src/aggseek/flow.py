"""Projected integral dynamics and their fixed-step integrator.

Agent velocities are the anti-gradient drives projected onto the tangent cone
of each constraint set; the broadcast signal integrates toward the running
decision average with gain k. Time stepping uses the discretize-then-project
forward Euler scheme: the unprojected drive is applied for one step and the
result is projected back onto the set, which keeps every iterate feasible
exactly and agrees with the tangent-cone flow to first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .geometry import ACTIVITY_TOL, tangent_project
from .model import GameLayout, GameSpec, SystemState, project_state, state_arrays

if TYPE_CHECKING:
    from .equilibrium import EquilibriumResult


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN or infinity."""

    def __init__(self, step_index: int, time: float):
        super().__init__(f"non-finite state at step {step_index} (t = {time:g})")
        self.step_index = step_index
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    h: float = 1e-3
    T: float = 60.0
    record_every: int = 1

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"step size h must be positive, got {self.h}")
        if not self.T >= self.h:
            raise ValueError(f"horizon T must be at least h, got T={self.T}, h={self.h}")
        if int(self.record_every) < 1:
            raise ValueError("record_every must be a positive integer")
        object.__setattr__(self, "record_every", int(self.record_every))


@dataclass(frozen=True)
class Trajectory:
    """Sampled states with per-sample diagnostics.

    W, dist_avg and dist_sigma are NaN when no reference equilibrium was
    attached to the run; residual is always filled.
    """

    times: np.ndarray
    x: np.ndarray
    sigma: np.ndarray
    W: np.ndarray
    residual: np.ndarray
    dist_avg: np.ndarray
    dist_sigma: np.ndarray
    has_reference: bool

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, j: int) -> SystemState:
        return SystemState(self.x[j].copy(), self.sigma[j].copy())

    @property
    def final_state(self) -> SystemState:
        return self.state(len(self) - 1)


def _drive(st: GameLayout, C: np.ndarray, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return -(st.ell[:, None] * (x - st.xstar) + st.linear) - (C @ sigma)


def _project_rows(st: GameLayout, x: np.ndarray) -> np.ndarray:
    out = np.clip(x, st.lo, st.hi)
    b = st.ball_rows
    if b.size:
        center, radius = st.center[b], st.radius[b, None]
        d = x[b] - center
        norm = np.linalg.norm(d, axis=1, keepdims=True)  # run/sweep CSV bits depend on this norm
        scale = np.where(norm > radius, radius / np.where(norm > 0, norm, 1.0), 1.0)
        out[b] = center + d * scale
    return out


def _tangent_rows(st: GameLayout, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized tangent-cone projection, matching geometry.tangent_project rowwise."""
    blocked = ((x - st.lo <= ACTIVITY_TOL) & (v < 0)) | ((st.hi - x <= ACTIVITY_TOL) & (v > 0))
    out = np.where(blocked, 0.0, v)
    b = st.ball_rows
    if b.size:
        d = x[b] - st.center[b]
        norm = np.linalg.norm(d, axis=1, keepdims=True)
        on_boundary = norm >= st.radius[b, None] - ACTIVITY_TOL
        u = d / np.where(norm > 0, norm, 1.0)
        vb = v[b]
        outward = np.maximum(0.0, np.sum(u * vb, axis=1, keepdims=True))
        out[b] = np.where(on_boundary, vb - outward * u, vb)
    return out


def _step_arrays(
    st: GameLayout, C: np.ndarray, k: float, x: np.ndarray, sigma: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    x_next = _project_rows(st, x + h * _drive(st, C, x, sigma))
    sigma_next = sigma + h * k * (x.mean(axis=0) - sigma)
    return x_next, sigma_next


def rhs(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous velocities (xdot, sigmadot) of the projected dynamics.

    xdot[i] is the tangent-cone projection at x_i of -grad_f(i, x_i) - C sigma;
    sigmadot is k * (avg(x) - sigma). Raises ValueError when some x_i lies
    outside its set beyond tolerance.
    """
    x, sigma = state_arrays(game, state)
    csig = game.C @ sigma
    xdot = np.empty_like(x)
    for i, (cost, cset) in enumerate(game.agents):
        drive = -(cost.ell * (x[i] - cost.xstar) + cost.linear) - csig
        xdot[i] = tangent_project(cset, x[i], drive)
    sigmadot = game.k * (x.mean(axis=0) - sigma)
    return xdot, sigmadot


def step(game: GameSpec, state: SystemState, h: float) -> SystemState:
    """One projected forward-Euler step of length h (h = 0 returns the state unchanged)."""
    x, sigma = state_arrays(game, state)
    return SystemState(*_step_arrays(game.layout, game.C, game.k, x, sigma, h))


def stationarity_residual(game: GameSpec, state: SystemState) -> float:
    """Sup-norm of the dynamics' velocities: zero exactly at equilibria."""
    xdot, sigmadot = rhs(game, state)
    x_part = float(np.max(np.abs(xdot))) if xdot.size else 0.0
    return max(x_part, float(np.max(np.abs(sigmadot))))


def integrate(
    game: GameSpec,
    init: SystemState,
    cfg: IntegratorConfig,
    reference: Optional["EquilibriumResult"] = None,
) -> Trajectory:
    """Run the projected-Euler scheme for ceil(T / h) steps.

    The initial decisions are projected onto their sets on entry. States are
    recorded at step 0, every record_every steps thereafter, and always at the
    final step. When a reference equilibrium is given, the W, dist_avg and
    dist_sigma diagnostics are filled against it; otherwise they are NaN.

    Raises NonFiniteStateError (with the offending step index) if the state
    stops being finite; non-convergence by itself is not an error.
    """
    start = project_state(game, init)
    x, sigma = state_arrays(game, start)
    st = game.layout
    C, k, h = game.C, game.k, cfg.h
    n_steps = math.ceil(cfg.T / cfg.h)

    sample_steps = list(range(0, n_steps, cfg.record_every))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    n_samples = len(sample_steps)

    times = np.empty(n_samples)
    xs = np.empty((n_samples, game.N, game.n))
    sigmas = np.empty((n_samples, game.n))
    W = np.full(n_samples, np.nan)
    residual = np.empty(n_samples)
    dist_avg = np.full(n_samples, np.nan)
    dist_sigma = np.full(n_samples, np.nan)

    if reference is not None:
        xbar = np.asarray(reference.xbar, dtype=float).reshape(game.N, game.n)
        sigmabar = np.asarray(reference.sigmabar, dtype=float)

    def record(slot: int, step_index: int) -> None:
        times[slot] = step_index * h
        xs[slot] = x
        sigmas[slot] = sigma
        xdot = _tangent_rows(st, x, _drive(st, C, x, sigma))
        sigmadot = k * (x.mean(axis=0) - sigma)
        residual[slot] = max(float(np.max(np.abs(xdot))), float(np.max(np.abs(sigmadot))))
        if reference is not None:
            dx = x - xbar
            ds = sigma - sigmabar
            W[slot] = 0.5 * float(np.sum(dx * dx)) + 0.5 * float(ds @ ds)
            dist_avg[slot] = float(np.linalg.norm(x.mean(axis=0) - sigmabar))
            dist_sigma[slot] = float(np.linalg.norm(ds))

    slot = 0
    record(slot, 0)
    slot += 1
    # blowup is detected explicitly, so numpy's own overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            x, sigma = _step_arrays(st, C, k, x, sigma, h)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(sigma))):
                raise NonFiniteStateError(step_index=i, time=i * h)
            if slot < n_samples and i == sample_steps[slot]:
                record(slot, i)
                slot += 1

    return Trajectory(
        times=times,
        x=xs,
        sigma=sigmas,
        W=W,
        residual=residual,
        dist_avg=dist_avg,
        dist_sigma=dist_sigma,
        has_reference=reference is not None,
    )
