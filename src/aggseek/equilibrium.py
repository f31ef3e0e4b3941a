"""Reference equilibrium computation and verification.

The equilibrium aggregate is found as a fixed point of the averaged
best-response map under relaxed (Krasnoselskij) iteration whose relaxation
the solver picks from the residual it measures, entirely independent of the
dynamical-system route, so the two can cross-validate.
Verification goes through the variational inequality: at an equilibrium the
per-agent gradient makes a nonnegative inner product with every feasible
direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (GameLayout, GameSpec, NumericalError, initial_state, project_rows, pseudo_gradient_F,
                    require_members, shaped, strictly_monotone, vi_min_rows)

# relaxed updates before solve_equilibrium gives up, and its stop on ½‖T(σ) − σ‖∞; both read at call time,
# so a test may lower MAX_ITER and a script that needs a tighter reference may lower TOL
MAX_ITER = 100_000
TOL = 1e-10


class ConvergenceError(NumericalError):
    """Fixed-point iteration exhausted MAX_ITER or left the finite numbers."""

    def __init__(self, message: str, sigma_last: np.ndarray, update_norm: float, iterations: int):
        super().__init__(message)
        self.sigma_last = sigma_last
        self.update_norm = update_norm
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Computed equilibrium: stacked decisions, their average, and solve diagnostics."""

    xbar: np.ndarray
    sigmabar: np.ndarray
    iterations: int
    final_update_norm: float
    vi_gap_value: float


def _best_responses(lay: GameLayout, csig: np.ndarray) -> np.ndarray:
    """Best responses of the layout's rows to the coupling term C sigma.

    Each local cost is an isotropic quadratic, so agent i's constrained minimizer
    is the projection of its unconstrained one, xstar_i - (C sigma + linear_i) / ell_i,
    for boxes and balls alike.
    """
    return project_rows(lay, lay.xstar - (csig + lay.linear) / lay.ell[:, None])


def aggregation_map(game: GameSpec, sigma: np.ndarray) -> np.ndarray:
    """T(sigma): average of all agents' best responses to sigma."""
    with np.errstate(over="ignore", invalid="ignore"):  # a response past the float range is returned as it is
        return _best_responses(game.layout, game.C @ shaped(sigma, (game.n,), "sigma")).mean(axis=0)


def solve_equilibrium(game: GameSpec) -> EquilibriumResult:
    """Fixed-point solve of sigma = T(sigma) by relaxed iteration that picks its own relaxation lam.

    From initial_state's sigma (the mean of the set centers), steps sigma <- (1 - lam) sigma + lam T(sigma),
    lam = 1/2 at first, until r = T(sigma) - sigma has ½‖r‖∞ <= TOL or is below sigma's float resolution (a
    step at lam = 1/2 would not move sigma). If strictly_monotone accepts the game, lam halves whenever ‖r‖₂
    fails to fall below its least value since the last halving; else it stays 1/2. Returns the best responses
    at the final sigma, their exact mean and the VI gap there; iterations counts the steps before the last,
    and final_update_norm is the last step's size.

    For n = 1, F = sigma - T(sigma) is piecewise linear with slopes in [m, M], where m = mu/ell_min,
    mu = ell_min + min(0, C) and M = 1 + |C|/ell_min, so a step maps F to (1 - lam s) F with s in [m, M].
    Once lam <= 1/M the residual falls by 1 - lam m or more at each step. So lam halves only while above
    1/M: at most ceil(log2(M/2)) times, and never below 1/(2M); each step at lam <= 1/M contracts the
    residual by 1 - m/(2M) or better. No rate is proven while lam > 1/M, nor any bound for n >= 2.

    Warns when strictly_monotone fails (the fixed point may not be unique); raises ConvergenceError when
    MAX_ITER steps are exhausted or at the first step that is not finite.
    """
    if not (monotone := strictly_monotone(game)):
        warnings.warn("pseudo-gradient is not strictly monotone; the equilibrium may not be unique", stacklevel=2)
    lam, least = 0.5, math.inf  # least: the smallest ‖r‖₂ since the last halving
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite update is detected below
        sigma = initial_state(game).sigma
        for iterations in range(MAX_ITER):  # at the break, the count of steps before the last
            target = _best_responses(game.layout, game.C @ sigma).mean(axis=0)
            nxt = (1.0 - lam) * sigma + lam * target
            update = float(np.max(np.abs(nxt - sigma)))
            if not math.isfinite(update):
                raise ConvergenceError(f"non-finite fixed-point update at iteration {iterations + 1}",
                                       sigma_last=sigma, update_norm=update, iterations=iterations + 1)
            residual, previous, sigma = target - sigma, sigma, nxt
            if 0.5 * np.max(np.abs(residual)) <= TOL or (0.5 * previous + 0.5 * target == previous).all():
                break
            norm = math.hypot(*residual)  # ‖r‖₂, which a sum of squares would overflow past 1e154
            lam, least = (lam, norm) if norm < least or not monotone else (lam / 2, math.inf)
        else:
            raise ConvergenceError(f"no fixed point within {MAX_ITER} iterations (last update {update:.3e})",
                                   sigma_last=sigma, update_norm=update, iterations=MAX_ITER)
        xbar = _best_responses(game.layout, game.C @ sigma)
        sigmabar = xbar.mean(axis=0)
    return EquilibriumResult(
        xbar=xbar,
        sigmabar=sigmabar,
        iterations=iterations,
        final_update_norm=update,
        vi_gap_value=vi_gap(game, xbar),
    )


def vi_gap(game: GameSpec, x: np.ndarray) -> float:
    """Worst-agent violation of the equilibrium variational inequality.

    For each agent, g_i is row i of pseudo_gradient_F and the feasible-direction
    infimum min_{z in X_i} (z - x_i)' g_i is evaluated in closed form. The gap
    is max_i max(0, -min_i): zero exactly when every agent's inequality holds,
    NaN when some agent's cannot be evaluated (0 * inf where g_i overflows).
    Raises ValueError, naming the agent, when some x_i lies outside its set.
    """
    x = shaped(x, (game.N, game.n), "x")
    require_members(game.layout, x)
    with np.errstate(over="ignore", invalid="ignore"):  # a gradient past the float range gives inf or NaN
        worst = -vi_min_rows(game.layout, x, pseudo_gradient_F(game, x))
    return float(np.where(worst <= 0.0, 0.0, worst).max())  # a NaN violation stays NaN, so it never passes
