"""Convergence certificates: the scalar gain condition, the certificate matrix
and its spectrum, condition comparisons, and trajectory-level decay checks.

The certificate matrix M bounds the decrease of the squared-distance Lyapunov
function W along the dynamics. Its smallest eigenvalue is computed two ways, a
dense symmetric eigensolve and a reduced 2n-by-2n form obtained by rotating the
agent block onto the all-ones direction; the two must agree to near machine
precision. Two off-diagonal block conventions are exposed ("paper" and
"symmetrized") because they differ in sign structure; decay certification uses
the symmetrized variant, the exact symmetrization of the cross terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibrium import EquilibriumResult, strictly_monotone
from .flow import Trajectory, energy
from .geometry import require_members, tangent_rows
from .model import GameSpec, SystemState, state_arrays

VARIANTS = ("paper", "symmetrized")


@dataclass(frozen=True)
class CertificateReport:
    """All certificate-side facts about one game, in one place.

    cond5_margin is min{ell, k} - 0.5*||C||_inf - 0.5*k/N; the condition holds
    iff the margin is positive. gershgorin_rhs is the subtracted bound itself.
    prior refers to the older ell >= ||C||_2 requirement; strictly_monotone to
    ell + 0.5*lambda_min(C + C') > 0, which guarantees a unique equilibrium.
    """

    cond5_holds: bool
    cond5_margin: float
    gershgorin_rhs: float
    prior_holds: bool
    prior_margin: float
    strictly_monotone: bool
    lambda_min_paper: float
    lambda_min_symmetrized: float


@dataclass(frozen=True)
class DecayReport:
    """How W behaved along one trajectory, against the certificate when available."""

    W0: float
    monotone: bool
    fitted_rate: float
    certificate_rate: Optional[float]
    certified: Optional[bool]


def norm_inf(C: np.ndarray) -> float:
    """Induced sup-norm: maximum absolute row sum."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return float(np.max(np.sum(np.abs(C), axis=1)))


def check_condition_5(ell: float, k: float, C: np.ndarray, N: int) -> tuple[bool, float]:
    """Scalar gain condition: min{ell, k} must exceed 0.5*||C||_inf + 0.5*k/N.

    Returns (holds, margin) with margin = min{ell, k} - 0.5*||C||_inf - 0.5*k/N.
    """
    if not (ell > 0 and k > 0 and N >= 1):
        raise ValueError("ell and k must be positive and N >= 1")
    margin = min(ell, k) - 0.5 * norm_inf(C) - 0.5 * k / N
    return margin > 0, margin


def _offdiag_block(C: np.ndarray, k: float, N: int, variant: str) -> np.ndarray:
    n = C.shape[0]
    if variant == "paper":
        return -0.5 * (C + (k / N) * np.eye(n))
    if variant == "symmetrized":
        return 0.5 * (C - (k / N) * np.eye(n))
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def assemble_M(game: GameSpec, variant: str) -> tuple[np.ndarray, float]:
    """Build the (nN+n)-square certificate matrix and its smallest eigenvalue.

    Layout: ell_min * I on the agent block, k * I on the signal block, and a
    column of N stacked copies of the off-diagonal block B (with B' mirrored
    below) coupling them. The dense matrix is returned together with the
    smallest eigenvalue of a dense symmetric eigensolve; see
    reduced_lambda_min for the independent route.
    """
    n, N = game.n, game.N
    B = _offdiag_block(game.C, game.k, N, variant)
    column = np.tile(B, (N, 1))
    M = np.block(
        [
            [game.ell_min * np.eye(n * N), column],
            [column.T, game.k * np.eye(n)],
        ]
    )
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return M, lam_min


def reduced_lambda_min(game: GameSpec, variant: str) -> float:
    """Smallest certificate-matrix eigenvalue via the rotated 2n-by-2n block.

    Rotating the agent block onto the all-ones direction decouples everything
    except a 2n-by-2n core [[ell I, sqrt(N) B], [sqrt(N) B', k I]]; the
    remaining n(N-1) eigenvalues all equal ell.
    """
    n, N = game.n, game.N
    B = _offdiag_block(game.C, game.k, N, variant)
    core = np.block(
        [
            [game.ell_min * np.eye(n), np.sqrt(N) * B],
            [np.sqrt(N) * B.T, game.k * np.eye(n)],
        ]
    )
    core_min = float(np.linalg.eigvalsh(core)[0])
    if N == 1:
        return core_min
    return min(game.ell_min, core_min)


def compare_conditions(game: GameSpec) -> CertificateReport:
    """Evaluate every certificate-side condition for one game, with no dense matrix."""
    ell, k, C, N = game.ell_min, game.k, game.C, game.N
    holds, margin = check_condition_5(ell, k, C, N)
    spectral = float(np.linalg.norm(C, 2))
    return CertificateReport(
        cond5_holds=holds,
        cond5_margin=margin,
        gershgorin_rhs=0.5 * norm_inf(C) + 0.5 * k / N,
        prior_holds=ell >= spectral,
        prior_margin=ell - spectral,
        strictly_monotone=strictly_monotone(game),
        lambda_min_paper=reduced_lambda_min(game, "paper"),
        lambda_min_symmetrized=reduced_lambda_min(game, "symmetrized"),
    )


def lyapunov_W(state: SystemState, ref: EquilibriumResult) -> float:
    """Half the squared distance to the equilibrium pair: flow.energy, as in traj.W."""
    xbar = np.asarray(ref.xbar, dtype=float)
    dx = np.asarray(state.x, dtype=float).reshape(xbar.shape) - xbar
    ds = np.atleast_1d(np.asarray(state.sigma, dtype=float)) - np.asarray(ref.sigmabar, dtype=float)
    return float(energy(dx.reshape(-1, ds.size), ds))


def storage_inequality_check(
    game: GameSpec,
    state: SystemState,
    u: np.ndarray,
    ref: EquilibriumResult,
    slack: float = 1e-9,
) -> bool:
    """Pointwise storage inequality for V = half squared distance to xbar.

    Checks (x - xbar)' Pi(x, -grad f(x) + u) <= -(x - xbar)' (grad f(x) -
    grad f(xbar) + ubar - u) + slack, where ubar stacks -C sigmabar for every
    agent. Holds for all feasible x and any input u; the right-hand side is
    where strong convexity enters the decrease argument.
    """
    x, _ = state_arrays(game, state)
    lay = game.layout
    require_members(lay, x)
    u = np.asarray(u, dtype=float).reshape(game.N, game.n)
    xbar = np.asarray(ref.xbar, dtype=float).reshape(game.N, game.n)
    ubar_row = -(game.C @ np.asarray(ref.sigmabar, dtype=float))
    gx, gxbar = lay.grad_f(np.stack((x, xbar)))
    dx = x - xbar
    lhs = float(np.sum(dx * tangent_rows(lay, x, -gx + u)))
    rhs = -float(np.sum(dx * (gx - gxbar + ubar_row - u)))
    return lhs <= rhs + slack


def decay_report(traj: Trajectory, ref: EquilibriumResult, cert: CertificateReport) -> DecayReport:
    """Judge W along a trajectory: monotonicity, fitted decay rate, certificate bound.

    W is traj.W, recorded by the integrator against its reference, which must
    be ref; a trajectory integrated without one raises ValueError. The fitted
    rate is the negated least-squares slope of ln W over the prefix ending at
    the first sample with W <= W0/2, falling back to the full window when W
    never halves (NaN when W0 = 0 or fewer than two samples are positive). When
    the symmetrized certificate eigenvalue is positive, the exponential
    envelope W(t) <= W0 * exp(-rate * t) * 1.01 is checked at every sample;
    otherwise the certificate fields stay None.
    """
    if not traj.has_reference:
        raise ValueError("trajectory was integrated without a reference, so it has no W")
    if not ref.vi_gap_value <= 1e-6:
        raise ValueError(f"reference not verified: vi_gap {ref.vi_gap_value:.3e} > 1e-6")
    if len(traj) < 10:
        raise ValueError(f"trajectory has {len(traj)} samples, need at least 10")
    W = traj.W
    W0 = float(W[0])
    monotone = bool(np.all(W[1:] <= W[:-1] * (1.0 + 1e-9)))

    fitted_rate = float("nan")
    if W0 > 0:
        below = np.nonzero(W <= 0.5 * W0)[0]
        window = np.arange(below[0] + 1) if below.size else np.arange(len(W))
        pos = window[W[window] > 0]
        if pos.size < 2:
            pos = np.nonzero(W > 0)[0]
        if pos.size >= 2:
            slope = np.polyfit(traj.times[pos], np.log(W[pos]), 1)[0]
            fitted_rate = -float(slope)

    certificate_rate: Optional[float] = None
    certified: Optional[bool] = None
    if cert.lambda_min_symmetrized > 0:
        certificate_rate = float(cert.lambda_min_symmetrized)
        envelope = W0 * np.exp(-certificate_rate * traj.times) * (1.0 + 1e-2)
        certified = bool(np.all(W <= envelope))
    return DecayReport(
        W0=W0,
        monotone=monotone,
        fitted_rate=fitted_rate,
        certificate_rate=certificate_rate,
        certified=certified,
    )
