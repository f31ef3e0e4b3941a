"""Command-line front end.

Subcommands: check (certificate conditions), solve (fixed-point equilibrium),
run (one trajectory with CSV/SVG emission), sweep (several gains k against the
same equilibrium in one batched integration, plus a comparison plot). Exit
codes: 0 success, 1 input error, 2 numerical failure or non-convergence. A
command that fails prints no result and removes every file it wrote; a directory it made stays.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

import numpy as np

from . import _HOME
from .model import GameSpec, NumericalError, initial_state, load_scenario

if TYPE_CHECKING:
    from .flow import Trajectory

# commands call the routes as _lib.name: each imports only what it calls, and a wrapper set here sees it
_lib = sys.modules[__name__]

THRESHOLD = 1e-2  # dist_avg level used for time-to-threshold reporting
CSV_ROWS = 4096  # rows formatted per write: a CSV never holds more than this many rows as text
Lines = list[tuple[str, object]]  # a command's result: the (key, value) pairs that main prints as key = value
_created: list[str] = []  # every file _create opened in the current command, which main removes if it fails

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(f"{v:.17g}" for v in value.ravel()) + "]"
    return str(value)


def _create(path: str) -> TextIO:
    """Open path for writing text, making its directory first, and record it, so main removes it if the
    command fails; the directory stays. A file that cannot be opened is not recorded: it is not the command's."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fh = open(path, "w", encoding="utf-8", newline="\n")
    _created.append(path)
    return fh


def _write_rows(path: str, header: Sequence[str], rows: np.ndarray) -> None:
    """One CSV: the header, then each row of the 2-D array at 17 significant digits."""
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], CSV_ROWS):
            block = rows[start:start + CSV_ROWS]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_csv(path: str, traj: Trajectory) -> None:
    """Emit the sampled diagnostics, 17 significant digits, fixed header."""
    rows = np.column_stack((traj.times, traj.dist_avg, traj.dist_sigma, traj.W, traj.residual))
    _write_rows(path, ("t", "dist_avg", "dist_sigma", "W", "residual"), rows)


def _finite_range(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def write_svg(
    path: str,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    ylabel: str,
) -> None:
    """Hand-rolled line plot against time t: one polyline per series, legend, linear axes."""
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 72.0, 24.0, 44.0, 56.0
    pw, ph = width - ml - mr, height - mt - mb

    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = _finite_range(all_x)
    y0, y1 = _finite_range(all_y)

    def sx(v):  # a float or an array of them
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    def esc(text: str) -> str:  # html.escape(text, quote=False), without importing html
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{esc(title)}</text>',
        # axes box and ticks
        f'<rect x="{ml:g}" y="{mt:g}" width="{pw:g}" height="{ph:g}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    n_ticks = 5
    for j in range(n_ticks + 1):
        xv = x0 + (x1 - x0) * j / n_ticks
        yv = y0 + (y1 - y0) * j / n_ticks
        xp, yp = sx(xv), sy(yv)
        parts += [
            f'<line x1="{xp:.2f}" y1="{mt + ph:g}" x2="{xp:.2f}" y2="{mt + ph + 5:g}" stroke="black"/>',
            f'<text x="{xp:.2f}" y="{mt + ph + 20:g}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>',
            f'<line x1="{ml - 5:g}" y1="{yp:.2f}" x2="{ml:g}" y2="{yp:.2f}" stroke="black"/>',
            f'<text x="{ml - 8:g}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>',
        ]
    parts += [
        f'<text x="{ml + pw / 2:g}" y="{height - 12:g}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">t</text>',
        f'<text x="18" y="{mt + ph / 2:g}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {mt + ph / 2:g})">{esc(ylabel)}</text>',
    ]

    for idx, (label, xs, ys) in enumerate(series):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        # every stride-th point (at most about 2,000) and the last; np.unique would import numpy.ma
        stride = max(1, math.ceil(len(xs) / 2000))
        keep = np.minimum(np.arange(0, len(xs) - 1 + stride, stride), len(xs) - 1)
        xs, ys = xs[keep], ys[keep]
        finite = np.isfinite(xs) & np.isfinite(ys)
        points = np.column_stack((sx(xs[finite]), sy(ys[finite])))
        pts = ("%.2f,%.2f " * len(points) % tuple(points.ravel().tolist()))[:-1]
        color, ly = _COLORS[idx % len(_COLORS)], mt + 16 + 18 * idx
        parts += [
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>',
            f'<line x1="{ml + pw - 150:g}" y1="{ly:g}" x2="{ml + pw - 122:g}" y2="{ly:g}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{ml + pw - 116:g}" y="{ly + 4:g}" font-family="sans-serif" '
            f'font-size="12">{esc(label)}</text>',
        ]
    parts.append("</svg>")
    with _create(path) as fh:
        fh.write("\n".join(parts) + "\n")


def _load(path: str) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def _write_report(path: str, report: dict) -> None:
    """report as strict JSON: every non-finite float (an unsettled time_to_threshold, say) is written as null."""
    strict = json.loads(json.dumps(report), parse_constant=lambda literal: None)  # NaN, Infinity, -Infinity
    with _create(path) as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)


def _time_to_threshold(traj: Trajectory) -> float:
    """Settling time: first sampled time after which dist_avg stays at or below THRESHOLD.

    The plain first crossing is dominated by the fast decision transient, which
    can overshoot and re-exceed THRESHOLD; the settling time is what the gain k
    actually controls. NaN when the trajectory never settles within the horizon.
    """
    above = np.nonzero(traj.dist_avg > THRESHOLD)[0]
    if above.size == 0:
        return float(traj.times[0])
    if above[-1] == len(traj) - 1:
        return float("nan")
    return float(traj.times[above[-1] + 1])


def _run_one(game: GameSpec, traj: Trajectory, out_prefix: Optional[str], suffix: str = "") -> tuple[Lines, dict]:
    """One trajectory's report, as `key = value` lines and as a JSON dict built from the same fields."""
    cert, ref = _lib.compare_conditions(game), traj.reference
    decay = _lib.decay_report(traj, cert)
    decay = None if decay is None else dataclasses.asdict(decay)
    paths = {}
    if out_prefix:
        paths = {"csv": f"{out_prefix}{suffix}.csv", "svg": f"{out_prefix}{suffix}.svg"}
        write_csv(paths["csv"], traj)
        series = [("dist_avg", traj.times, traj.dist_avg), ("dist_sigma", traj.times, traj.dist_sigma)]
        write_svg(paths["svg"], series, f"distance to equilibrium (k = {game.k:g})", "distance")
    head = {"seed": game.seed, "N": game.N, "n": game.n, "k": game.k, "sigmabar": ref.sigmabar,
            "vi_gap": ref.vi_gap_value, "iterations": ref.iterations}
    tail = {"final_dist_avg": float(traj.dist_avg[-1]), "final_dist_sigma": float(traj.dist_sigma[-1]),
            "final_residual": float(traj.residual[-1]), "time_to_threshold": _time_to_threshold(traj)}
    certificate = dataclasses.asdict(cert)
    shown = ("cond5_holds", "cond5_margin", "lambda_min_paper", "lambda_min_symmetrized")
    lines = [*head.items(), *((key, certificate[key]) for key in shown), *tail.items(),
             *(decay or {}).items(), *paths.items()]
    report = {**head, "sigmabar": [float(v) for v in np.ravel(ref.sigmabar)], "certificate": certificate,
              "decay": decay, **tail, "csv_path": paths.get("csv"), "svg_path": paths.get("svg")}
    return lines, report


def cmd_check(scenario: str) -> Lines:
    cert = _lib.compare_conditions(_load(scenario))
    return [(f.name, getattr(cert, f.name)) for f in dataclasses.fields(cert)]


def cmd_solve(scenario: str, out: Optional[str] = None) -> Lines:
    game = _load(scenario)
    res = _lib.solve_equilibrium(game)
    lines = [("sigmabar", res.sigmabar), ("vi_gap", res.vi_gap_value), ("iterations", res.iterations),
             ("final_update_norm", res.final_update_norm)]
    if out:
        lines.append(("xbar", path := f"{out}.xbar.csv"))
        _write_rows(path, [f"x{j}" for j in range(game.n)], res.xbar)
    return lines


def cmd_run(scenario: str, out: Optional[str] = None, **horizon: float) -> Lines:
    game = _load(scenario)
    cfg = _lib.IntegratorConfig(**horizon)
    ref = _lib.solve_equilibrium(game)
    lines, report = _run_one(game, _lib.integrate(game, initial_state(game), cfg, reference=ref), out)
    if out:
        _write_report(f"{out}.report.json", report)
    return lines


def cmd_sweep(scenario: str, ks: dict[str, float], out: Optional[str] = None, **horizon: float) -> Lines:
    game = _load(scenario)
    games = {label: dataclasses.replace(game, k=k) for label, k in ks.items()}  # each gain's game checks its k
    cfg = _lib.IntegratorConfig(**horizon)
    ref = _lib.solve_equilibrium(game)  # the fixed point does not depend on k
    trajs = _lib.integrate_gains(game, list(ks.values()), initial_state(game), cfg, reference=ref)
    reports = {label: _run_one(g, traj, out, f"_{label}") for (label, g), traj in zip(games.items(), trajs)}
    lines = [(f"{label}.{key}", value) for label, (shown, _) in reports.items() for key, value in shown]
    if out:
        overlay = [(f"k = {k:g}", traj.times, traj.dist_avg) for k, traj in zip(ks.values(), trajs)]
        lines.append(("compare_svg", path := f"{out}_compare.svg"))
        write_svg(path, overlay, title="dist_avg for each gain k", ylabel="dist_avg")
        _write_report(f"{out}.report.json", {label: report for label, (_, report) in reports.items()})
    return lines


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numerical failure; argparse
    # usage errors are input errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_k_list(text: str) -> dict[str, float]:
    try:
        ks = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    gains: dict[str, float] = {}  # by the label k%g that names each gain's keys and files, so no two may share one
    for k in ks:
        if (label := f"k{k:g}") in gains:
            raise argparse.ArgumentTypeError(f"gains {gains[label]!r} and {k!r} share the label {label}")
        gains[label] = k
    return gains


def _out_prefix(text: str) -> str:
    if os.path.basename(text) in ("", ".", ".."):  # dir/ would write dir/.csv
        raise argparse.ArgumentTypeError(f"the prefix must end in a file name, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aggseek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    unset = {"argument_default": argparse.SUPPRESS}  # an option left out is left out of the library call too
    check = sub.add_parser("check", help="evaluate certificate conditions", **unset)
    solve = sub.add_parser("solve", help="compute the equilibrium by fixed point", **unset)
    run = sub.add_parser("run", help="integrate the dynamics and emit CSV/SVG", **unset)
    sweep = sub.add_parser("sweep", help="run several gains k and compare", **unset)
    for p, handler in ((check, cmd_check), (solve, cmd_solve), (run, cmd_run), (sweep, cmd_sweep)):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON document")
        p.set_defaults(handler=handler, usage=p)  # main reports an option p lacks with p's usage line
    solve.add_argument("--out", type=_out_prefix, help="output file prefix")
    sweep.add_argument("--k", dest="ks", type=_parse_k_list, required=True, help="comma list of gains")
    for p in (run, sweep):
        p.add_argument("--h", type=float, help="integrator step size")
        p.add_argument("--T", type=float, help="integration horizon")
        p.add_argument("--out", type=_out_prefix, help="output file prefix for CSV/SVG/JSON")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parsed, extra = build_parser().parse_known_args(argv)
    if extra:
        parsed.usage.error(f"unrecognized arguments: {' '.join(extra)}")
    args = vars(parsed)
    del args["command"], args["usage"]
    _created.clear()
    try:
        result = args.pop("handler")(**args)  # printed only once every file is written, and flushed to its last byte
        print("".join(f"{key} = {_fmt(value)}\n" for key, value in result), end="", flush=True)
        return 0
    except (NumericalError, OSError, ValueError) as e:  # any other exception is a fault, and propagates
        for path in filter(os.path.lexists, _created):  # one already gone is skipped
            os.remove(path)
        if isinstance(e, BrokenPipeError):  # a closed stdout: Python's flush at exit would fail on the kept bytes
            with contextlib.suppress(OSError):  # a stdout with no file descriptor has no such flush
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, NumericalError) else 1  # ScenarioError is a ValueError: an input error


def __getattr__(name: str):
    """A public name of the package, resolved on first use (PEP 562) through its lazy namespace."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


if __name__ == "__main__":
    sys.exit(main())
