"""Convergence certificates: the scalar gain condition, the certificate matrix's
smallest eigenvalue, condition comparisons, and trajectory-level decay checks.

The (nN+n)-square certificate matrix M = [[ell I, column], [column', k I]], whose
column stacks N copies of the off-diagonal block B = 0.5 * (s*C - (k/N) I), bounds
the decrease of the squared-distance Lyapunov function W along the dynamics.
The variants "paper" and "symmetrized" take s = -1 and s = +1. M is never built:
rotating the agent block onto the all-ones direction leaves the 2n-by-2n core
[[ell I, sqrt(N) B], [sqrt(N) B', k I]] and n(N-1) eigenvalues equal to ell, so
the smallest eigenvalue comes from the core. The test suite checks it against a
dense eigensolve of M; ||C||_inf is np.linalg.norm(C, np.inf). Decay
certification uses the symmetrized variant, the exact symmetrization of the
cross terms, on a run long enough whose own reference (traj.reference) is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .model import GameSpec, SystemState, energy, shaped, state_arrays, strictly_monotone

if TYPE_CHECKING:  # neither route is imported to certify it
    from .equilibrium import EquilibriumResult
    from .flow import Trajectory

# the sign s of C in the off-diagonal block B = 0.5 * (s*C - (k/N) I) of each variant
_SIGNS = {"paper": -1.0, "symmetrized": 1.0}
# decay_report judges only a trajectory of this many samples or more, against a reference of vi_gap at most this
DECAY_MIN_SAMPLES = 10
DECAY_MAX_VI_GAP = 1e-6


@dataclass(frozen=True)
class CertificateReport:
    """All certificate-side facts about one game, in one place.

    cond5_margin is min{ell, k} - 0.5*||C||_inf - 0.5*k/N; the condition holds
    iff the margin is positive. gershgorin_rhs is the subtracted bound itself.
    prior refers to the older ell > ||C||_2 requirement; strictly_monotone to
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


def check_condition_5(game: GameSpec) -> tuple[bool, float]:
    """Scalar gain condition (holds, margin): holds iff margin = min{ell, k} - 0.5*||C||_inf - 0.5*k/N > 0.

    ell is the game's smallest; the margin is evaluated left to right, as written here.
    """
    with np.errstate(over="ignore"):  # a row sum past the float range is inf, and the margin -inf
        margin = min(game.ell_min, game.k) - 0.5 * float(np.linalg.norm(game.C, np.inf)) - 0.5 * game.k / game.N
    return margin > 0, margin


def reduced_lambda_min(game: GameSpec, variant: str) -> float:
    """Smallest certificate-matrix eigenvalue via the rotated 2n-by-2n block.

    Rotating the agent block onto the all-ones direction decouples everything
    except a 2n-by-2n core [[ell I, sqrt(N) B], [sqrt(N) B', k I]]; the
    remaining n(N-1) eigenvalues all equal ell, which bounds the core's (Cauchy
    interlacing). A core past the float range gives NaN, never a positive number.
    """
    if variant not in _SIGNS:
        raise ValueError(f"variant must be one of {tuple(_SIGNS)}, got {variant!r}")
    with np.errstate(over="ignore"):
        B = np.sqrt(game.N) * (0.5 * (_SIGNS[variant] * game.C - (game.k / game.N) * np.eye(game.n)))
    core = np.block([[game.ell_min * np.eye(game.n), B], [B.T, game.k * np.eye(game.n)]])
    return float(np.minimum(game.ell_min, np.linalg.eigvalsh(core)[0]))


def compare_conditions(game: GameSpec) -> CertificateReport:
    """Evaluate every certificate-side condition for one game, with no dense matrix."""
    ell, k, C, N = game.ell_min, game.k, game.C, game.N
    holds, margin = check_condition_5(game)
    with np.errstate(over="ignore"):  # as in check_condition_5
        spectral, row_sum = float(np.linalg.norm(C, 2)), float(np.linalg.norm(C, np.inf))
    return CertificateReport(
        cond5_holds=holds,
        cond5_margin=margin,
        gershgorin_rhs=0.5 * row_sum + 0.5 * k / N,
        prior_holds=ell > spectral,
        prior_margin=ell - spectral,
        strictly_monotone=strictly_monotone(game),
        lambda_min_paper=reduced_lambda_min(game, "paper"),
        lambda_min_symmetrized=reduced_lambda_min(game, "symmetrized"),
    )


def lyapunov_W(game: GameSpec, state: SystemState, ref: EquilibriumResult) -> float:
    """Half the squared distance to the equilibrium pair: model.energy, as in traj.W."""
    x, sigma = state_arrays(game, state)
    xbar, sigmabar = shaped(ref.xbar, (game.N, game.n), "ref.xbar"), shaped(ref.sigmabar, (game.n,), "ref.sigmabar")
    with np.errstate(over="ignore"):  # a distance past the float range gives W = inf
        return float(energy(x - xbar, sigma - sigmabar))


def decay_report(traj: Trajectory, cert: CertificateReport) -> Optional[DecayReport]:
    """Judge W along a trajectory: monotonicity, fitted decay rate, certificate bound.

    W is traj.W, recorded by the integrator against traj.reference; a trajectory
    integrated without one raises ValueError. One too short, whose reference is
    not verified (see DECAY_*), or whose W0 is not finite is not judged: the
    report is None. The fitted rate is the negated least-squares slope of ln W
    over one window, the samples through the first with W <= W0/2 or all of
    them when W never halves; NaN when fewer than two of those are positive. When
    the symmetrized certificate eigenvalue is positive, the exponential
    envelope W(t) <= W0 * exp(-rate * t) * 1.01 is checked at every sample;
    otherwise the certificate fields stay None.
    """
    if traj.reference is None:
        raise ValueError("trajectory was integrated without a reference, so it has no W")
    W = traj.W
    if len(traj) < DECAY_MIN_SAMPLES or not traj.reference.vi_gap_value <= DECAY_MAX_VI_GAP or not np.isfinite(W[0]):
        return None
    W0 = float(W[0])
    monotone = bool(np.all(W[1:] <= W[:-1] * (1.0 + 1e-9)))

    below = np.flatnonzero(W <= 0.5 * W0)
    window = W[: below[0] + 1] if below.size else W
    pos = np.flatnonzero(window > 0)
    fitted_rate = float("nan")
    if pos.size >= 2:
        fitted_rate = -float(np.polyfit(traj.times[pos], np.log(window[pos]), 1)[0])

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
