"""Reference equilibrium computation and verification.

The equilibrium aggregate is found as a fixed point of the averaged
best-response map under relaxed (Krasnoselskij) iteration, entirely
independent of the dynamical-system route, so the two can cross-validate.
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

# relaxed updates before solve_equilibrium gives up; read at call time, so a test may lower it
MAX_ITER = 100_000


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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the variational-inequality check, truthy iff it passed."""

    ok: bool
    gap: float
    worst_agent: int
    tol: float

    def __bool__(self) -> bool:
        return self.ok


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


def solve_equilibrium(game: GameSpec, lam: float = 0.5, tol: float = 1e-10) -> EquilibriumResult:
    """Fixed-point solve of sigma = T(sigma) by relaxed iteration.

    Starts from initial_state's sigma, the average of the constraint-set
    centers, and iterates sigma <- (1 - lam) sigma + lam T(sigma) until the
    sup-norm update drops to tol. Returns the stacked best responses at the
    final sigma together with their exact average and the VI gap there. The
    reported iteration count is the number of updates that moved sigma by
    more than tol (the terminating no-op pass is not counted).

    Warns when the strict-monotonicity check fails (the fixed point may not
    be unique); raises ConvergenceError when MAX_ITER updates are exhausted or
    at the first update that is not finite.
    """
    if not 0 < lam <= 1:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not strictly_monotone(game):
        warnings.warn(
            "pseudo-gradient is not strictly monotone; the equilibrium may not be unique",
            stacklevel=2,
        )
    lay = game.layout
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite update is detected below
        sigma = initial_state(game).sigma
        for iterations in range(MAX_ITER):  # at the break, the count of updates larger than tol
            nxt = (1.0 - lam) * sigma + lam * _best_responses(lay, game.C @ sigma).mean(axis=0)
            update = float(np.max(np.abs(nxt - sigma)))
            if not math.isfinite(update):
                raise ConvergenceError(f"non-finite fixed-point update at iteration {iterations + 1}",
                                       sigma_last=sigma, update_norm=update, iterations=iterations + 1)
            sigma = nxt
            if update <= tol:
                break
        else:
            raise ConvergenceError(f"no fixed point within {MAX_ITER} iterations (last update {update:.3e})",
                                   sigma_last=sigma, update_norm=update, iterations=MAX_ITER)
        xbar = _best_responses(lay, game.C @ sigma)
        sigmabar = xbar.mean(axis=0)
    return EquilibriumResult(
        xbar=xbar,
        sigmabar=sigmabar,
        iterations=iterations,
        final_update_norm=update,
        vi_gap_value=vi_gap(game, xbar),
    )


def _agent_gaps(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Per-agent violation max(0, -min_{z in X_i} (z - x_i)' g_i) of the VI, each x_i inside X_i."""
    x = shaped(x, (game.N, game.n), "x")
    require_members(game.layout, x)
    with np.errstate(over="ignore", invalid="ignore"):  # a gradient past the float range gives inf or NaN
        worst = -vi_min_rows(game.layout, x, pseudo_gradient_F(game, x))
    return np.where(worst <= 0.0, 0.0, worst)  # a NaN violation stays NaN, so it never verifies


def vi_gap(game: GameSpec, x: np.ndarray) -> float:
    """Worst-agent violation of the equilibrium variational inequality.

    For each agent, g_i is row i of pseudo_gradient_F and the feasible-direction
    infimum min_{z in X_i} (z - x_i)' g_i is evaluated in closed form. The gap
    is max_i max(0, -min_i): zero exactly when every agent's inequality holds,
    NaN when some agent's cannot be evaluated (0 * inf where g_i overflows).
    Raises ValueError, naming the agent, when some x_i lies outside its set.
    """
    return float(_agent_gaps(game, x).max())


def verify_equilibrium(game: GameSpec, x: np.ndarray, tol: float) -> VerificationReport:
    """VI check at tolerance tol, reporting the worst-violating agent; x must be feasible, as for vi_gap."""
    gaps = _agent_gaps(game, x)
    worst = int(np.argmax(gaps))
    gap = float(gaps[worst])
    return VerificationReport(ok=gap <= tol, gap=gap, worst_agent=worst, tol=tol)
