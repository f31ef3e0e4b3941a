"""Per-operation correctness checks, computed from the benchmark's own copy of
the game wherever that is cheap.

Each check returns a list of problems; an empty list means the operation
passed. The file formats checked are the CLI's documented outputs.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Case, Game, trajectory_rows

VI_TOL = 1e-8          # solve: printed vi_gap and recomputed fixed-point residual
LAMBDA_RTOL = 1e-9     # check: dense eigenvalue against the reduced 2n x 2n form
SETTLED = 1e-2         # run/sweep: the CLI's settling threshold on dist_avg
CSV_HEADER = "t,dist_avg,dist_sigma,W,residual"


def parse_kv(stdout: str) -> dict[str, str]:
    """The CLI's `key = value` stdout lines as a dict."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def reduced_lambda_min(game: Game, variant: str) -> float:
    """Smallest certificate eigenvalue from the rotated 2n x 2n core.

    The agent block ell_min * I couples to the signal block k * I through N
    stacked copies of B; rotating onto the all-ones direction leaves the core
    [[ell I, sqrt(N) B], [sqrt(N) B', k I]] and n(N - 1) eigenvalues equal to ell.
    """
    n, N, k = game.n, game.N, game.k
    ell = float(game.ell.min())
    eye = np.eye(n)
    if variant == "paper":
        B = -0.5 * (game.C + (k / N) * eye)
    else:
        B = 0.5 * (game.C - (k / N) * eye)
    core = np.block([[ell * eye, math.sqrt(N) * B], [math.sqrt(N) * B.T, k * eye]])
    lam = float(np.linalg.eigvalsh(core)[0])
    return lam if N == 1 else min(ell, lam)


def fixed_point_residual(game: Game, x: np.ndarray) -> float:
    """max_i ||x_i - P_i(xstar_i - (C avg(x) + linear_i) / ell_i)||."""
    free = game.xstar - (game.C @ x.mean(axis=0) + game.linear) / game.ell[:, None]
    return float(np.max(np.linalg.norm(x - game.project(free), axis=1)))


def _float(kv: dict[str, str], key: str, problems: list[str]) -> float:
    try:
        return float(kv[key])
    except (KeyError, ValueError):
        problems.append(f"stdout has no numeric {key!r}")
        return math.nan


def check_certificate(case: Case, stdout: str) -> list[str]:
    problems: list[str] = []
    kv = parse_kv(stdout)
    for variant in ("paper", "symmetrized"):
        got = _float(kv, f"lambda_min_{variant}", problems)
        want = reduced_lambda_min(case.game, variant)
        if not math.isclose(got, want, rel_tol=LAMBDA_RTOL, abs_tol=0.0):
            problems.append(f"lambda_min_{variant} {got!r} != reduced form {want!r}")
    return problems


def check_solve(case: Case, stdout: str, xbar_path: str) -> list[str]:
    problems: list[str] = []
    gap = _float(parse_kv(stdout), "vi_gap", problems)
    if not gap <= VI_TOL:
        problems.append(f"vi_gap {gap!r} > {VI_TOL}")
    try:
        with open(xbar_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            x = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        return problems + [f"cannot read {xbar_path}: {e}"]
    game = case.game
    if header != ",".join(f"x{j}" for j in range(game.n)) or x.shape != (game.N, game.n):
        return problems + [f"xbar.csv has header {header!r} and shape {x.shape}"]
    residual = fixed_point_residual(game, x)
    if not residual <= VI_TOL:
        problems.append(f"best-response fixed-point residual {residual!r} > {VI_TOL}")
    return problems


def check_trajectory(case: Case, csv_path: str) -> list[str]:
    try:
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        return [f"cannot read {csv_path}: {e}"]
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"{csv_path}: header {lines[:1]!r}")
    rows = len(lines) - 1
    want = trajectory_rows(case.T, case.h)
    if rows != want:
        problems.append(f"{csv_path}: {rows} rows, expected {want}")
    try:
        final = float(lines[-1].split(",")[1])
    except (IndexError, ValueError):
        return problems + [f"{csv_path}: unreadable last row"]
    if not final <= SETTLED:
        problems.append(f"{csv_path}: final dist_avg {final!r} > {SETTLED}")
    return problems


def check_operation(case: Case, command: str, out: str, stdout: str) -> list[str]:
    """Check one finished CLI command of the session in `Case.commands` order."""
    if command == "check":
        return check_certificate(case, stdout)
    if command == "solve":
        return check_solve(case, stdout, f"{out}/solve.xbar.csv")
    if command == "run":
        return check_trajectory(case, f"{out}/run.csv")
    if command == "sweep":
        return [p for k in case.gains.split(",")
                for p in check_trajectory(case, f"{out}/sweep_k{float(k):g}.csv")]
    raise ValueError(f"unknown command {command!r}")
