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
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .geometry import project_rows, require_members, tangent_rows
from .model import GameLayout, GameSpec, SystemState, project_state, state_arrays

if TYPE_CHECKING:
    from .equilibrium import EquilibriumResult

# floats of x per block of recorded samples; with the drive's block beside it, 256 kB
BLOCK_FLOATS = 1 << 14


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN or infinity."""

    def __init__(self, step_index: int, time: float, k: float):
        super().__init__(f"non-finite state at step {step_index} (t = {time:g}) for k = {k:g}")
        self.step_index = step_index
        self.time = time
        self.k = k


@dataclass(frozen=True)
class IntegratorConfig:
    h: float = 1e-3
    T: float = 60.0
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"step size h must be positive and finite, got {self.h}")
        if not (self.T >= self.h and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be finite and at least h, got T={self.T}, h={self.h}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"record_every must be a positive integer, got {every}")
        object.__setattr__(self, "record_every", int(every))


@dataclass(frozen=True)
class Trajectory:
    """Per-sample diagnostics of one run, and its final state x (N, n), sigma (n,).

    W, dist_avg and dist_sigma are NaN when no reference equilibrium was
    attached to the run; times and residual are always filled.
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

    @property
    def final_state(self) -> SystemState:
        return SystemState(self.x.copy(), self.sigma.copy())


def energy(dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """W = ½‖x − x̄‖² + ½‖σ − σ̄‖² from the offsets dx (..., N, n) and ds (..., n)."""
    return 0.5 * np.sum(dx * dx, axis=(-2, -1)) + 0.5 * np.vecdot(ds, ds)


def _drive(lay: GameLayout, C: np.ndarray, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Unprojected velocities of the states x (..., N, n) under their signals sigma (..., n)."""
    # C sigma as one matmul of every copy's column rounds as C @ s does; sigma @ C.T need not
    return -lay.grad_f(x) - np.matmul(C, sigma[..., None]).mT


def rhs(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous velocities (xdot, sigmadot) of the projected dynamics.

    xdot[i] is the tangent-cone projection at x_i of -grad_f(i, x_i) - C sigma;
    sigmadot is k * (avg(x) - sigma). Raises ValueError when some x_i lies
    outside its set beyond tolerance.
    """
    x, sigma = state_arrays(game, state)
    require_members(game.layout, x)
    xdot = tangent_rows(game.layout, x, _drive(game.layout, game.C, x, sigma))
    return xdot, game.k * (x.mean(axis=0) - sigma)


def step(game: GameSpec, state: SystemState, h: float) -> SystemState:
    """One projected forward-Euler step of length h (h = 0 returns the state unchanged)."""
    x, sigma = state_arrays(game, state)
    x_next = project_rows(game.layout, x + h * _drive(game.layout, game.C, x, sigma))
    return SystemState(x_next, sigma + h * game.k * (x.mean(axis=0) - sigma))


def stationarity_residual(game: GameSpec, state: SystemState) -> float:
    """Sup-norm of the dynamics' velocities: zero exactly at equilibria."""
    xdot, sigmadot = rhs(game, state)
    return max(float(np.max(np.abs(xdot))), float(np.max(np.abs(sigmadot))))


def integrate(
    game: GameSpec,
    init: SystemState,
    cfg: IntegratorConfig,
    reference: Optional["EquilibriumResult"] = None,
) -> Trajectory:
    """Run the projected-Euler scheme for ceil(T / h) steps at the game's gain k.

    The initial decisions are projected onto their sets on entry. Diagnostics
    are sampled at step 0, every record_every steps and at the last step, a block
    at a time; of the states only the last is kept, so memory is O(N*n + samples)
    plus a block of fixed size. The grid is t_j = j * h: the last sample, at
    ceil(T / h) * h, passes T by less than h when h does not divide T. With a
    reference equilibrium, the W, dist_avg and dist_sigma diagnostics are filled
    against it; otherwise they are NaN.

    Raises NonFiniteStateError (with the offending step index) if the state
    stops being finite; non-convergence by itself is not an error.
    """
    return integrate_gains(game, (game.k,), init, cfg, reference)[0]


def integrate_gains(
    game: GameSpec,
    gains: Sequence[float],
    init: SystemState,
    cfg: IntegratorConfig,
    reference: Optional["EquilibriumResult"] = None,
) -> list[Trajectory]:
    """integrate for every gain k in gains, all copies advanced in one time loop.

    Trajectory b equals, bit for bit, integrate on the game with k = gains[b]:
    the state x has shape (B, N, n) and sigma (B, n), the row kernels act on
    the agent axis of every copy alike, and the coupling term C sigma of every
    copy is one matmul. The diagnostics of up to BLOCK_FLOATS // (B*N*n) samples
    take one call of each kernel.

    Raises NonFiniteStateError at the first step at which some copy stops
    being finite, naming the first such gain.
    """
    ks = np.asarray(gains, dtype=float)
    if not (ks.ndim == 1 and ks.size and np.all((ks > 0) & np.isfinite(ks))):
        raise ValueError(f"gains must be a non-empty list of positive numbers, all finite, got {gains!r}")
    B, N, n, every = ks.size, game.N, game.n, cfg.record_every
    x, sigma = state_arrays(game, project_state(game, init))
    x, sigma = np.tile(x, (B, 1, 1)), np.tile(sigma, (B, 1))
    lay, C, h, kcol = game.layout, game.C, cfg.h, ks[:, None]
    hk = h * kcol
    n_steps = math.ceil(cfg.T / cfg.h)
    n_samples = -(-n_steps // every) + 1  # steps 0, every, 2*every, ... and n_steps

    times = np.minimum(np.arange(n_samples) * every, n_steps) * h
    residual = np.empty((B, n_samples))
    W, dist_avg, dist_sigma = (np.full((B, n_samples), np.nan) for _ in range(3))
    K = max(1, min(n_samples, BLOCK_FLOATS // (B * N * n)))
    (xs, drives), (sigmas, means) = np.empty((2, K, B, N, n)), np.empty((2, K, B, n))

    if reference is not None:
        xbar = np.asarray(reference.xbar, dtype=float).reshape(N, n)
        sigmabar = np.asarray(reference.sigmabar, dtype=float)

    slot = 0
    # blowup is detected explicitly, so numpy's own overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            if i:
                x, sigma = project_rows(lay, x + h * drive), sigma + hk * (mean - sigma)
                if not (np.isfinite(x).all() and np.isfinite(sigma).all()):
                    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(sigma).all(axis=1)
                    raise NonFiniteStateError(i, i * h, float(ks[np.argmin(finite)]))
            mean = x.mean(axis=1)
            drive = _drive(lay, C, x, sigma)
            if i % every == 0 or i == n_steps:
                j, slot = slot % K, slot + 1
                xs[j], drives[j], sigmas[j], means[j] = x, drive, sigma, mean
                if j == K - 1 or i == n_steps:  # a full block, or the last one
                    block, sk, mk = slice(slot - j - 1, slot), sigmas[: j + 1], means[: j + 1]
                    xdot = np.abs(tangent_rows(lay, xs[: j + 1], drives[: j + 1])).max(axis=(-2, -1))
                    residual[:, block] = np.maximum(xdot, np.abs(kcol * (mk - sk)).max(axis=-1)).T
                    if reference is not None:
                        ds, da = sk - sigmabar, mk - sigmabar
                        W[:, block] = energy(xs[: j + 1] - xbar, ds).T
                        dist_avg[:, block] = np.sqrt(np.vecdot(da, da)).T
                        dist_sigma[:, block] = np.sqrt(np.vecdot(ds, ds)).T

    fields_b = zip(x, sigma, W, residual, dist_avg, dist_sigma)
    return [Trajectory(times, *arrays, has_reference=reference is not None) for arrays in fields_b]
