"""Projected integral dynamics and their fixed-step integrator.

Agent velocities are the anti-gradient drives projected onto the tangent cone
of each constraint set; the broadcast signal integrates toward the running
decision average with gain k. Time stepping uses the discretize-then-project
forward Euler scheme: the unprojected drive is applied for one step and the
result is projected back onto the set, which keeps every iterate feasible
exactly and agrees with the tangent-cone flow to first order. A trajectory
carries the reference equilibrium that its W and distances were measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .model import (GameSpec, NumericalError, SystemState, energy, project_rows, project_state, require_members,
                    shaped, state_arrays, tangent_rows)

if TYPE_CHECKING:
    from .equilibrium import EquilibriumResult

# floats of x per block of recorded samples; with the drive's beside it, about 256 kB
BLOCK_FLOATS = 1 << 14


class NonFiniteStateError(NumericalError):
    """Integration produced NaN or infinity."""

    def __init__(self, step_index: int, time: float, k: float):
        super().__init__(f"non-finite state at step {step_index} (t = {time:g}) for k = {k:g}")
        self.step_index = step_index
        self.time = time
        self.k = k


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size h, horizon T and the recording interval of the fixed-step integrator."""

    h: float = 1e-3
    T: float = 60.0
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"step size h must be positive and finite, got {self.h}")
        if not (self.T >= self.h and math.isfinite(self.T / self.h)):
            raise ValueError(f"horizon T must be at least h and T / h finite, got T={self.T}, h={self.h}")
        every = self.record_every  # an integer of at least 1, and a bool is no count
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"record_every must be a positive integer, got {every}")
        object.__setattr__(self, "record_every", int(every))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-sample diagnostics of one run, and its final state x (N, n), sigma (n,), all read-only.

    W, dist_avg and dist_sigma are measured against reference, the equilibrium handed
    to the integrator, and are NaN when it is None; times and residual are always filled.
    """

    times: np.ndarray
    x: np.ndarray
    sigma: np.ndarray
    W: np.ndarray
    residual: np.ndarray
    dist_avg: np.ndarray
    dist_sigma: np.ndarray
    reference: Optional[EquilibriumResult]

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> SystemState:
        return SystemState(self.x.copy(), self.sigma.copy())


def _loop(game: GameSpec, ks: np.ndarray, h: float, K: int, state: SystemState):
    """The time loop's constants for B = ks.size copies, its K slots stacked, and each slot's views.

    A slot is two contiguous rows, the state [x (B, N, n) | sigma (B, n)] and the velocity
    [drive | gap = mean - sigma], beside its mean (B, n) and C sigma; the first slot holds state.
    The row kernels read x and drive as their B*N rows, those of the layout tiled B times.
    The step row m holds h on every x entry and h * k_b on copy b's sigma entries.
    """
    B, N, n = ks.size, game.N, game.n
    lay, size = game.layout.tile(B), B * N * n
    m = np.concatenate((np.full(size, h), np.repeat(h * ks, n)))
    rows, means, csigma = np.empty((2, K, m.size)), np.empty((K, B, n)), np.empty((K, B, n, 1))
    (xs, drives), (sigmas, gaps) = rows[..., :size].reshape(2, K, B, N, n), rows[..., size:].reshape(2, K, B, n)
    flat = rows[..., :size].reshape(2, K, B * N, n)  # x and drive as the layout's rows
    xs[0], sigmas[0] = state_arrays(game, state)
    slots = list(zip(*rows, *flat, xs, sigmas, means, drives, gaps, sigmas[..., None], csigma, csigma.mT))
    consts = lay, game.C, np.full((B, n), float(N)), m, np.empty_like(m)  # Ns: N as a full-shape divisor
    return consts, (*flat, xs, sigmas, means, gaps), slots


def _derive(consts, slot) -> None:
    """Fill a slot's mean, drive and gap from its x and sigma."""
    (lay, C, Ns, _, _), (_, _, xr, dr, x, sigma, mean, drive, gap, sigma_col, csigma, csigma_row) = consts, slot
    # the reduction and division of ndarray.mean, the sum kept in gap: numpy runs a ufunc in place
    # on a one-entry array slowly
    np.divide(np.add.reduce(x, -2, None, gap), Ns, mean)
    np.subtract(mean, sigma, gap)
    lay.descent(xr, dr)
    # C sigma as one matmul of every copy's column rounds as C @ s does; sigma @ C.T need not
    np.matmul(C, sigma_col, csigma)
    np.subtract(drive, csigma_row, drive)


def _euler(consts, src, dst) -> None:
    """Write the projected-Euler successor of slot src into slot dst, which may be src: one multiply-add
    gives x + h drive and sigma + h k (mean - sigma) of every copy, then x alone is projected in place."""
    lay, _, _, m, scratch = consts
    np.add(src[0], np.multiply(m, src[1], scratch), dst[0])
    project_rows(lay, dst[2], dst[2])


def _sup(xdot: np.ndarray, sigmadot: np.ndarray) -> np.ndarray:
    """The residual of every state: the sup-norm of its velocities."""
    return np.maximum(np.abs(xdot).max(axis=(-2, -1)), np.abs(sigmadot).max(axis=-1))


def rhs(game: GameSpec, state: SystemState) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous velocities (xdot, sigmadot) of the projected dynamics.

    xdot[i] is the tangent-cone projection at x_i of agent i's negated local gradient minus C sigma;
    sigmadot is k * (avg(x) - sigma). Raises ValueError when some x_i lies
    outside its set beyond tolerance.
    """
    consts, (x_rows, drive_rows, *_, gaps), slots = _loop(game, np.array([game.k]), 0.0, 1, state)
    require_members(game.layout, x_rows[0])
    with np.errstate(over="ignore", invalid="ignore"):  # as in the loop, whose derivative this is
        _derive(consts, slots[0])
        return tangent_rows(game.layout, x_rows[0], drive_rows[0]), game.k * gaps[0, 0]


def step(game: GameSpec, state: SystemState, h: float) -> SystemState:
    """One projected forward-Euler step of length h (h = 0 projects the state onto its sets: a feasible one stays)."""
    if not (h >= 0 and math.isfinite(h)):
        raise ValueError(f"step length h must be non-negative and finite, got {h}")
    consts, (x_rows, _, _, sigmas, *_), slots = _loop(game, np.array([game.k]), h, 2, state)
    with np.errstate(over="ignore", invalid="ignore"):  # as in the loop, of which this is one iteration
        _derive(consts, slots[0])
        _euler(consts, *slots)
    return SystemState(x_rows[1], sigmas[1, 0])


def stationarity_residual(game: GameSpec, state: SystemState) -> float:
    """Sup-norm of the dynamics' velocities: zero exactly at equilibria."""
    return float(_sup(*rhs(game, state)))


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
    against it and the trajectory carries it as traj.reference; otherwise they are NaN.

    Raises NonFiniteStateError (with the offending step index, 0 for a start
    that is not finite) if the state stops being finite; non-convergence by
    itself is not an error.
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
    the state x has shape (B, N, n) and sigma (B, n), the row kernels act on x as
    the rows of the layout tiled B times, and C sigma of every copy is one matmul.
    Every step is advanced with preallocated arrays straight into a block of
    up to BLOCK_FLOATS // (B*N*n) samples whose diagnostics take one call of
    each kernel; x and sigma of every copy share one state row (see _loop).

    Raises NonFiniteStateError at the first step at which some copy stops
    being finite, naming the first such gain; ValueError when the samples
    of ceil(T / h) steps cannot be allocated.
    """
    ks = np.asarray(gains, dtype=float)
    if not (ks.ndim == 1 and ks.size and np.all((ks > 0) & np.isfinite(ks))):
        raise ValueError(f"gains must be a non-empty list of positive numbers, all finite, got {gains!r}")
    B, N, n, every, h = ks.size, game.N, game.n, cfg.record_every, cfg.h
    n_steps = math.ceil(cfg.T / h)
    n_samples = -(-n_steps // every) + 1  # steps 0, every, 2*every, ... and n_steps
    if reference is not None:
        xbar = shaped(reference.xbar, (N, n), "reference.xbar")
        sigmabar = shaped(reference.sigmabar, (n,), "reference.sigmabar")

    try:  # a horizon of too many samples fails here, before the first step
        times = np.minimum(np.arange(n_samples) * every, n_steps) * h
        residual, W, dist_avg, dist_sigma = np.empty((B, n_samples)), *np.full((3, B, n_samples), np.nan)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"horizon T={cfg.T} at step h={h} takes {n_samples} samples, too many to store") from None
    # step i's state lives in slot j, written from slot j - 1 after a recorded step, else in place
    K = max(1, min(n_samples, BLOCK_FLOATS // (B * N * n)))
    consts, views, slots = _loop(game, ks, h, K, project_state(game, init))

    j = slot = 0
    # blowup is detected explicitly, so numpy's own overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            now = slots[j]
            if i:
                _euler(consts, last, now)
            _derive(consts, now)
            if not np.isfinite(now[0]).all():  # some entry of x or sigma: name the first copy that holds one
                finite = np.isfinite(now[4]).all(axis=(1, 2)) & np.isfinite(now[5]).all(axis=1)
                raise NonFiniteStateError(i, i * h, float(ks[np.argmin(finite)]))
            last = now
            if i % every == 0 or i == n_steps:
                slot += 1
                if j == K - 1 or i == n_steps:  # a full block, or the last one
                    block, (xr, dr, xk, sk, mk, gk) = slice(slot - j - 1, slot), (v[: j + 1] for v in views)
                    residual[:, block] = _sup(tangent_rows(consts[0], xr, dr).reshape(xk.shape), ks[:, None] * gk).T
                    if reference is not None:
                        ds, da = sk - sigmabar, mk - sigmabar
                        W[:, block] = energy(xk - xbar, ds).T
                        dist_avg[:, block] = np.sqrt(np.vecdot(da, da)).T
                        dist_sigma[:, block] = np.sqrt(np.vecdot(ds, ds)).T
                j = slot % K

    arrays = times, last[4].copy(), last[5].copy(), W, residual, dist_avg, dist_sigma
    for a in arrays:  # the trajectories share times and these bases: none may change another's
        a.setflags(write=False)
    return [Trajectory(times, *fields, reference=reference) for fields in zip(*arrays[1:])]
