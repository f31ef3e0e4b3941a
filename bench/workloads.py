"""Seeded workload generation: scenario documents, the benchmark's own copy of
each game, and the CLI session every workload runs.

A session is what a user does with one scenario: `check` the certificate,
`solve` for the equilibrium, `run` one trajectory and `sweep` several gains.
Every workload runs all four commands, so every end-to-end metric exists on
every workload; the scenario and the horizon decide which layer dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WHY = {
    "traj_box": "flow-bound: box population, every projected-Euler step recorded, large CSV; "
    "solve and certificate are tiny",
    "pop_coupled": "solve- and certificate-bound: strongly coupled generator population with "
    "agents clipped at the box, about 80 relaxed iterations and dense (N+1)^2 certificates",
    "sweep_mixed": "sweep-bound: explicit list of alternating box/ball agents in 2-D, four "
    "gains through the default thread pool; a box-only speed-up should not show here",
}

# Full sizes give a session of about three seconds on a 2-core machine, so a
# run holds a dozen samples of every command; smoke sizes keep N <= 10 and a
# few hundred steps, enough for every trajectory to settle below the CLI's
# 1e-2 threshold so the same correctness checks apply.
SIZES = {
    "traj_box": {False: dict(N=100, T=6.0, h=4e-3), True: dict(N=8, T=6.0, h=1e-2)},
    "pop_coupled": {False: dict(N=500, T=2.0, h=1e-2), True: dict(N=10, T=4.0, h=1e-2)},
    "sweep_mixed": {False: dict(N=200, T=2.5, h=8e-3), True: dict(N=6, T=5.0, h=1e-2)},
}
GAINS = {"traj_box": "0.5,2", "pop_coupled": "2,4", "sweep_mixed": "0.5,1,2,4"}

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Game:
    """Stacked arrays of one generated game, built by the benchmark itself.

    The correctness checks use this copy, never the package's loader, so a
    loader fault shows up as a failed check.
    """

    n: int
    C: np.ndarray
    k: float
    ell: np.ndarray     # (N,)
    xstar: np.ndarray   # (N, n)
    linear: np.ndarray  # (N, n)
    is_ball: np.ndarray  # (N,) bool
    lo: np.ndarray      # (N, n), box rows only
    hi: np.ndarray      # (N, n), box rows only
    center: np.ndarray  # (N, n), ball rows only
    radius: np.ndarray  # (N,), ball rows only

    @property
    def N(self) -> int:
        return self.ell.shape[0]

    def project(self, z: np.ndarray) -> np.ndarray:
        """Row-wise Euclidean projection onto each agent's set."""
        out = np.clip(z, self.lo, self.hi)
        d = z - self.center
        norm = np.linalg.norm(d, axis=1)
        scale = np.minimum(1.0, self.radius / np.where(norm > 0, norm, 1.0))
        ball = self.center + d * scale[:, None]
        return np.where(self.is_ball[:, None], ball, out)


@dataclass(frozen=True)
class Case:
    """One workload at one seed: the document the CLI reads and how it is driven."""

    name: str
    document: dict
    game: Game
    T: float
    h: float
    gains: str

    def commands(self, scenario: str, out: str) -> list[tuple[str, list[str]]]:
        """The session: (command name, CLI arguments) in the order a user runs them."""
        horizon = ["--T", repr(self.T), "--h", repr(self.h)]
        return [
            ("check", ["check", "--scenario", scenario]),
            ("solve", ["solve", "--scenario", scenario, "--out", f"{out}/solve"]),
            ("run", ["run", "--scenario", scenario, *horizon, "--out", f"{out}/run"]),
            ("sweep", ["sweep", "--scenario", scenario, "--k", self.gains, *horizon, "--out", f"{out}/sweep"]),
        ]


def splitmix64_uniform(seed: int, count: int) -> np.ndarray:
    """The first `count` draws of the scenario format's splitmix64 stream, in [0, 1).

    The state after i draws is seed + i * golden mod 2^64, so the stream is a
    closed form in i; uint64 arithmetic wraps exactly like the reference.
    """
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + i * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / 2.0**64


def _generator_case(seed, N, *, C, k, ell, linear, box, xrange) -> tuple[dict, Game]:
    gen_seed = int(np.random.default_rng(seed).integers(0, 2**63))
    doc = {
        "n": 1,
        "C": [[C]],
        "k": k,
        "agents": {
            "generator": {
                "count": N,
                "ell": ell,
                "linear": [linear],
                "xstar": {"uniform": {"lo": xrange[0], "hi": xrange[1], "seed": gen_seed}},
                "set": {"box": {"lo": [box[0]], "hi": [box[1]]}},
            }
        },
    }
    xstar = xrange[0] + (xrange[1] - xrange[0]) * splitmix64_uniform(gen_seed, N)
    game = Game(
        n=1, C=np.array([[C]]), k=k, ell=np.full(N, ell), xstar=xstar.reshape(N, 1),
        linear=np.full((N, 1), linear), is_ball=np.zeros(N, dtype=bool),
        lo=np.full((N, 1), box[0]), hi=np.full((N, 1), box[1]),
        center=np.full((N, 1), np.nan), radius=np.full(N, np.nan),
    )
    return doc, game


def _traj_box(seed: int, N: int) -> tuple[dict, Game]:
    # the bundled demand_response game, resampled
    return _generator_case(seed, N, C=1.0, k=0.6, ell=1.5, linear=0.5,
                           box=(0.25, 0.75), xrange=(0.0, 1.0))


def _pop_coupled(seed: int, N: int) -> tuple[dict, Game]:
    # the box clips the best responses of the agents with the largest xstar,
    # about 5% of them at the equilibrium and more on the way there, so the
    # projection is active; the share clipped sets the contraction rate and
    # the iteration count moves with the seed (76 to 87 at N = 500)
    return _generator_case(seed, N, C=4.0, k=2.0, ell=1.5, linear=0.0,
                           box=(-1.5, 1.5), xrange=(-1.0, 2.0))


def _sweep_mixed(seed: int, N: int) -> tuple[dict, Game]:
    n = 2
    rng = np.random.default_rng(seed)
    C = [[0.5, 0.1], [0.0, 0.4]]
    ell = rng.uniform(1.0, 2.0, N)
    xstar = rng.uniform(0.0, 1.0, (N, n))
    linear = rng.uniform(-0.1, 0.1, (N, n))
    lo = rng.uniform(0.0, 0.3, (N, n))
    hi = lo + rng.uniform(0.3, 0.7, (N, n))
    center = rng.uniform(0.3, 0.7, (N, n))
    radius = rng.uniform(0.15, 0.4, N)
    is_ball = np.arange(N) % 2 == 1
    agents = []
    for i in range(N):
        if is_ball[i]:
            cset = {"ball": {"center": center[i].tolist(), "radius": float(radius[i])}}
        else:
            cset = {"box": {"lo": lo[i].tolist(), "hi": hi[i].tolist()}}
        agents.append({"ell": float(ell[i]), "xstar": xstar[i].tolist(),
                       "linear": linear[i].tolist(), "set": cset})
    doc = {"n": n, "C": C, "k": 1.0, "agents": {"list": agents}}
    nan = np.full((N, n), np.nan)
    game = Game(
        n=n, C=np.asarray(C), k=1.0, ell=ell, xstar=xstar, linear=linear, is_ball=is_ball,
        lo=np.where(is_ball[:, None], -np.inf, lo), hi=np.where(is_ball[:, None], np.inf, hi),
        center=np.where(is_ball[:, None], center, nan), radius=np.where(is_ball, radius, np.nan),
    )
    return doc, game


_SCENARIOS = {"traj_box": _traj_box, "pop_coupled": _pop_coupled, "sweep_mixed": _sweep_mixed}
NAMES = tuple(_SCENARIOS)


def make_case(name: str, seed: int, smoke: bool = False) -> Case:
    """Generate workload `name` from `seed`; the same seed gives the same document."""
    size = SIZES[name][smoke]
    document, game = _SCENARIOS[name](seed, size["N"])
    return Case(name=name, document=document, game=game, T=size["T"], h=size["h"],
                gains=GAINS[name])


def trajectory_rows(T: float, h: float) -> int:
    """Rows the CLI writes per trajectory CSV: every step recorded, plus t = 0."""
    return math.ceil(T / h) + 1
